//! The causal lens on the four-block elastic mapping: a traced 2-chip
//! `ElasticMapping` cluster run must decompose exactly like the
//! acoustic runs the lens was built on. This test owns the
//! process-global trace, so it lives in its own test binary.

use pim_cluster::{ClusterConfig, ClusterProtocol, ClusterRunner};
use wave_pim::compiler_elastic::ElasticMapping;
use wavesim_dg::{Elastic, ElasticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

#[test]
fn elastic_cluster_blame_sums_to_makespan_on_both_protocols() {
    let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
    let n = 2;
    let material = ElasticMaterial::new(2.0, 1.0, 1.0);
    let mut native = Solver::<Elastic>::new(
        mesh.clone(),
        n,
        FluxKind::Riemann,
        vec![material; mesh.num_elements()],
    );
    native.set_initial(|v, x| 0.3 * (std::f64::consts::TAU * (x.x + 0.2 * v as f64)).sin());
    let mapping = ElasticMapping::uniform(mesh, n, FluxKind::Riemann, material);

    for protocol in [ClusterProtocol::Fenced, ClusterProtocol::Pipelined] {
        let config = ClusterConfig::new(2).with_protocol(protocol);
        let mut cluster =
            ClusterRunner::with_mapping(mapping.clone(), native.state(), 1e-3, config);

        pim_trace::set_ring_capacity(1 << 20);
        pim_trace::set_summary_lanes_only(true);
        let _ = pim_trace::drain();
        pim_trace::enable();
        let t_start = cluster.elapsed();
        cluster.run(1);
        let t_end = cluster.elapsed();
        pim_trace::disable();
        pim_trace::set_summary_lanes_only(false);
        let (events, dropped) = pim_trace::drain();
        assert_eq!(dropped, 0, "{protocol:?}: trace ring overflowed");

        let a = pim_lens::analyze(&events, &cluster.trace_pids(), t_start, t_end);
        assert!(a.makespan > 0.0, "{protocol:?}: empty window");
        let residual = (a.blame_total() - a.makespan).abs();
        assert!(residual <= 1e-9, "{protocol:?}: blame misses the makespan by {residual:e}s");
        for kernel in ["Volume", "Flux", "Integration"] {
            let blame = a.blame.get(&format!("compute:{kernel}")).copied().unwrap_or(0.0);
            assert!(blame > 0.0, "{protocol:?}: no {kernel} compute blame in {:?}", a.blame);
        }
    }
}

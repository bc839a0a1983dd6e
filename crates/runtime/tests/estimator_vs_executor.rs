//! The analytic cluster estimator must track the functional executor on
//! the one term they model independently: per-stage halo-exchange time.
//! Same 2× acceptance band as the single-chip `estimator_vs_executor`
//! cross-check in `wave-pim`.

use pim_cluster::{estimate_cluster, ClusterConfig, ClusterProtocol, ClusterRunner, KernelProbe};
use pim_sim::{ChipConfig, InterChipLink};
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver, State};
use wavesim_mesh::{Boundary, HexMesh};

fn measured_halo_seconds_per_stage(
    level: u32,
    n: usize,
    num_chips: usize,
    protocol: ClusterProtocol,
) -> f64 {
    let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let mut reference = Solver::<Acoustic>::uniform(mesh.clone(), n, FluxKind::Riemann, material);
    reference.set_initial(|v, x| (x.x + 0.1 * v as f64).sin());
    let mut cluster = ClusterRunner::new(
        &mesh,
        n,
        FluxKind::Riemann,
        material,
        reference.state(),
        1e-3,
        ClusterConfig::new(num_chips).with_protocol(protocol),
    );
    cluster.step();
    cluster.halo_stats().seconds_per_stage()
}

#[test]
fn modeled_halo_time_is_within_2x_of_the_executor() {
    // The raw link-port time is the term both sides model independently;
    // the *exposed* halo additionally depends on the Volume window, so
    // the band is checked on the raw quantity.
    let (level, n, chips) = (3, 2, 2);
    let probe = KernelProbe::measure(n, FluxKind::Riemann, ChipConfig::default_2gb());
    let modeled = estimate_cluster(level, chips, InterChipLink::default(), &probe)
        .halo_link_seconds_per_stage;
    for protocol in [ClusterProtocol::Fenced, ClusterProtocol::Pipelined] {
        let measured = measured_halo_seconds_per_stage(level, n, chips, protocol);
        assert!(modeled > 0.0 && measured > 0.0);
        let ratio = measured / modeled;
        assert!(
            (0.5..2.0).contains(&ratio),
            "{protocol:?}: halo estimator drifted from the executor: measured {measured:e}, \
             modeled {modeled:e}, ratio {ratio:.3}"
        );
    }
}

#[test]
fn executor_exposes_less_halo_than_its_raw_link_time() {
    // At this size the Volume window (hundreds of dispatched elements)
    // dwarfs the exchange (a few µs of DMAs and link hops), so the
    // pre-Flux fence must expose strictly less than the raw port time —
    // the whole point of overlapping. The estimator mirrors the same
    // relation on its modeled terms.
    let (level, n, chips) = (3, 2, 2);
    let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let initial = State::zeros(mesh.num_elements(), 4, n * n * n);
    for protocol in [ClusterProtocol::Fenced, ClusterProtocol::Pipelined] {
        let mut cluster = ClusterRunner::new(
            &mesh,
            n,
            FluxKind::Riemann,
            material,
            &initial,
            1e-3,
            ClusterConfig::new(chips).with_protocol(protocol),
        );
        cluster.step();
        let stats = cluster.halo_stats();
        let raw = stats.seconds_per_stage();
        let exposed = stats.exposed_seconds_per_stage();
        assert!(raw > 0.0);
        assert!(exposed >= 0.0);
        assert!(
            exposed < raw,
            "{protocol:?}: the Volume window hid none of the exchange: \
             exposed {exposed:e} vs raw {raw:e}"
        );
    }

    let probe = KernelProbe::measure(n, FluxKind::Riemann, ChipConfig::default_2gb());
    let est = estimate_cluster(level, chips, InterChipLink::default(), &probe);
    assert!(est.halo_seconds_per_stage <= est.halo_link_seconds_per_stage);
    assert!(est.stage_seconds <= est.bulk_stage_seconds);
}

#[test]
fn modeled_halo_bytes_equal_executed_halo_bytes() {
    // Bytes are derived from the same `halo_messages` plan on both
    // sides, so they must agree exactly, not within a band.
    let (level, n, chips) = (2, 3, 4);
    let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let initial = State::zeros(mesh.num_elements(), 4, n * n * n);
    let mut cluster = ClusterRunner::new(
        &mesh,
        n,
        FluxKind::Riemann,
        material,
        &initial,
        1e-3,
        ClusterConfig::new(chips),
    );
    cluster.step();

    let probe = KernelProbe::measure(n, FluxKind::Riemann, ChipConfig::default_2gb());
    let est = estimate_cluster(level, chips, InterChipLink::default(), &probe);
    let stats = cluster.halo_stats();
    assert_eq!(stats.payload_bytes / stats.stages, est.halo_bytes_per_stage);
}

#[test]
fn modeled_halo_bytes_match_the_pipelined_executor_at_16_and_32_chips() {
    // The same exact-agreement property at the chip counts where the
    // halo wall lives, under the pipelined (default) protocol: the
    // per-block fence reorders *when* traffic is waited for, never how
    // much of it moves, so the byte ledgers still agree to the byte.
    let n = 2;
    let probe = KernelProbe::measure(n, FluxKind::Riemann, ChipConfig::default_2gb());
    for (level, chips) in [(4u32, 16usize), (5, 32)] {
        let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
        let material = AcousticMaterial::new(2.0, 1.0);
        let initial = State::zeros(mesh.num_elements(), 4, n * n * n);
        let mut cluster = ClusterRunner::new(
            &mesh,
            n,
            FluxKind::Riemann,
            material,
            &initial,
            1e-3,
            ClusterConfig::new(chips).with_protocol(ClusterProtocol::Pipelined),
        );
        cluster.step();

        let est = estimate_cluster(level, chips, InterChipLink::default(), &probe);
        let stats = cluster.halo_stats();
        assert_eq!(
            stats.payload_bytes / stats.stages,
            est.halo_bytes_per_stage,
            "halo bytes diverged at level {level} × {chips} chips"
        );
        // And the raw-band property still holds out here.
        assert!(est.pipelined_halo_link_seconds_per_stage < est.halo_link_seconds_per_stage);
    }
}

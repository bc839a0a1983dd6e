//! The acceptance run of the cluster runtime: a traced 2-chip level-3
//! acoustic step must (a) match the native solver ≤ 1e-12, (b) surface
//! the halo traffic as off-chip events on each chip's own process row,
//! and (c) reconcile every chip's traced energy with its ledger, the
//! same cross-check `trace_crosscheck.rs` performs for one chip — under
//! both protocols.

use pim_cluster::{ClusterConfig, ClusterProtocol, ClusterRunner};
use pim_trace::{Kernel, Payload, TID_OFFCHIP};
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

#[test]
fn two_chip_level3_halo_traffic_is_traced_and_reconciles() {
    for protocol in [ClusterProtocol::Fenced, ClusterProtocol::Pipelined] {
        check_traced_step(protocol);
    }
}

fn check_traced_step(protocol: ClusterProtocol) {
    let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
    let n = 2;
    let material = AcousticMaterial::new(2.0, 1.0);
    let dt = 1e-3;

    let mut reference = Solver::<Acoustic>::uniform(mesh.clone(), n, FluxKind::Riemann, material);
    let tau = std::f64::consts::TAU;
    reference.set_initial(|v, x| match v {
        0 => (tau * x.x).sin(),
        1 => 0.5 * (tau * x.y).cos(),
        _ => 0.25 * (tau * x.z).sin(),
    });

    // Drain any leftovers from other code in this process, then trace
    // one full cluster step. A traced level-3 step is ~1.9M instruction
    // events across both chips — larger than the default ring.
    pim_trace::set_ring_capacity(1 << 22);
    let _ = pim_trace::drain();
    pim_trace::enable();
    let mut cluster = ClusterRunner::new(
        &mesh,
        n,
        FluxKind::Riemann,
        material,
        reference.state(),
        dt,
        ClusterConfig::new(2).with_protocol(protocol),
    );
    cluster.step();
    let merged = cluster.state();
    let pids = cluster.trace_pids();
    let reports = cluster.finish_reports();
    pim_trace::disable();
    let (events, dropped) = pim_trace::drain();
    assert_eq!(dropped, 0, "ring must not drop events at this scale");

    // (a) numerics.
    reference.step(dt);
    let diff = merged.max_abs_diff(reference.state());
    assert!(diff <= 1e-12, "{protocol:?}: traced 2-chip cluster diverged: {diff:e}");

    // (b) each chip has its own labeled process row carrying off-chip
    // halo events. The overlapped protocol streams the exchange as
    // explicit DMAs around the link hop, so per chip per stage that is
    // 128 boundary-snapshot stores + 2 link endpoints (one send + one
    // receive) + 128 ghost loads = 258 events, over 5 stages.
    assert_eq!(pids.len(), 2);
    for (i, &pid) in pids.iter().enumerate() {
        assert!(pim_trace::pid_label(pid).starts_with(&format!("pim-cluster chip {i}")));
        let offchip: Vec<_> =
            events.iter().filter(|e| e.pid == pid && e.tid == TID_OFFCHIP).collect();
        assert_eq!(
            offchip.len(),
            5 * (128 + 2 + 128),
            "{protocol:?} chip {i}: snapshot + link + ghost events"
        );
        let mut sends = 0;
        let mut recvs = 0;
        for e in &offchip {
            match e.payload {
                Payload::Offchip { bytes, energy_j } => {
                    assert!(bytes > 0 && energy_j > 0.0);
                }
                Payload::Link { bytes, energy_j, flow, inbound } => {
                    assert!(bytes > 0 && energy_j > 0.0);
                    assert!(flow != 0, "{protocol:?} chip {i}: link charges carry a causal id");
                    if inbound {
                        recvs += 1;
                    } else {
                        sends += 1;
                    }
                }
                ref p => {
                    panic!("{protocol:?} chip {i}: non-offchip payload on the offchip lane: {p:?}")
                }
            }
        }
        // The two link endpoints per stage are one send and one receive.
        assert_eq!((sends, recvs), (5, 5), "{protocol:?} chip {i}: link endpoint mix");
        // Kernel rows carry the halo-exchange window plus the three
        // compute kernels for every stage.
        for kernel in [Kernel::HaloExchange, Kernel::Volume, Kernel::Flux, Kernel::Integration] {
            let windows = events
                .iter()
                .filter(|e| {
                    e.pid == pid
                        && matches!(e.payload, Payload::Kernel { kernel: k, .. } if k == kernel)
                })
                .count();
            assert_eq!(windows, 5, "{protocol:?} chip {i}: {} windows", kernel.name());
        }
    }

    // (c) per-chip trace ↔ ledger reconciliation: every traced joule on
    // a chip's row is a joule in that chip's dynamic ledger.
    for (i, (&pid, report)) in pids.iter().zip(&reports).enumerate() {
        let traced: f64 =
            events.iter().filter(|e| e.pid == pid).map(|e| e.payload.energy_j()).sum();
        let ledger = report.ledger.dynamic();
        assert!(
            (traced - ledger).abs() <= 0.01 * ledger,
            "{protocol:?} chip {i}: traced {traced} J vs ledger dynamic {ledger} J"
        );
    }
    // And the halo payload seen on the trace matches the runner's own
    // accounting: every payload byte crosses the off-chip lane four
    // times — snapshot store, link send, link receive, ghost load.
    let traced_offchip_bytes: u64 = events
        .iter()
        .filter(|e| e.tid == TID_OFFCHIP && pids.contains(&e.pid))
        .map(|e| e.payload.bytes())
        .sum();
    assert_eq!(traced_offchip_bytes, 4 * cluster.halo_stats().payload_bytes);
}

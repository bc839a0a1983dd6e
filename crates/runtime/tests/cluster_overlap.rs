//! The overlapped halo exchange, observed from the outside: traced
//! off-chip spans must land *inside* the Volume windows (the schedule's
//! whole point), and the HaloExchange envelope must cover the link time
//! it wraps — under both protocols.

use pim_cluster::{ClusterConfig, ClusterProtocol, ClusterRunner};
use pim_trace::timeline::offchip_kernel_overlap;
use pim_trace::Kernel;
use wavesim_dg::{AcousticMaterial, FluxKind, State};
use wavesim_mesh::{Boundary, HexMesh};

#[test]
fn traced_offchip_halo_spans_overlap_the_volume_windows() {
    for protocol in [ClusterProtocol::Fenced, ClusterProtocol::Pipelined] {
        check_overlap(protocol);
    }
}

fn check_overlap(protocol: ClusterProtocol) {
    let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
    let n = 2;
    let initial = State::zeros(mesh.num_elements(), 4, n * n * n);

    pim_trace::set_ring_capacity(1 << 22);
    let _ = pim_trace::drain();
    pim_trace::enable();
    let mut cluster = ClusterRunner::new(
        &mesh,
        n,
        FluxKind::Riemann,
        AcousticMaterial::new(2.0, 1.0),
        &initial,
        1e-3,
        ClusterConfig::new(2).with_protocol(protocol),
    );
    cluster.step();
    let pids = cluster.trace_pids();
    pim_trace::disable();
    let (events, dropped) = pim_trace::drain();
    assert_eq!(dropped, 0);

    let stats = cluster.halo_stats();
    for (c, &pid) in pids.iter().enumerate() {
        // A bulk-synchronous schedule would put every link hop and halo
        // DMA *between* kernels and this would be zero. Overlap means a
        // visible chunk of the off-chip lane runs during Volume.
        let overlap = offchip_kernel_overlap(&events, pid, Kernel::Volume);
        assert!(
            overlap > 0.0,
            "{protocol:?} chip {c}: no off-chip work overlapped Volume — the halo is bulk-synchronous"
        );

        // The HaloExchange envelopes (barrier → last ghost DMA) must
        // cover at least this chip's accumulated link-port time.
        let halo_span: f64 = events
            .iter()
            .filter(|e| e.pid == pid)
            .filter_map(|e| match e.payload {
                pim_trace::Payload::Kernel { kernel: Kernel::HaloExchange, .. } => {
                    Some((e.t1 - e.t0).max(0.0))
                }
                _ => None,
            })
            .sum();
        assert!(
            halo_span >= stats.link_seconds[c] - 1e-18,
            "{protocol:?} chip {c}: HaloExchange spans ({halo_span:e} s) shorter than the link time \
             they wrap ({:e} s)",
            stats.link_seconds[c]
        );

        // Every off-chip event — snapshot store, link hop, ghost load —
        // must fall inside some HaloExchange window. In particular the
        // window opens at the barrier, *before* the send-side snapshot,
        // so the snapshot DMA time is part of the exchange.
        let windows: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| e.pid == pid)
            .filter_map(|e| match e.payload {
                pim_trace::Payload::Kernel { kernel: Kernel::HaloExchange, .. } => {
                    Some((e.t0, e.t1))
                }
                _ => None,
            })
            .collect();
        for e in events.iter().filter(|e| e.pid == pid && e.tid == pim_trace::TID_OFFCHIP) {
            assert!(
                windows.iter().any(|&(w0, w1)| e.t0 >= w0 - 1e-18 && e.t1 <= w1 + 1e-18),
                "{protocol:?} chip {c}: off-chip event [{:e}, {:e}] outside every HaloExchange window",
                e.t0,
                e.t1
            );
        }
    }
}

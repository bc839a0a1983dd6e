//! The native solver's trace: one `Step` span per time-step enclosing one
//! `RkStage` span per LSRK stage. Volume, Flux and Integration are phases
//! of one fused element pass, so they get no spans of their own. The trace
//! rings are process-global, so this file holds a single test.

use pim_trace::{Kernel, Payload};
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

#[test]
fn a_step_traces_one_rk_stage_span_per_stage() {
    let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
    let mut solver =
        Solver::<Acoustic>::uniform(mesh, 2, FluxKind::Riemann, AcousticMaterial::UNIT);
    let dt = solver.stable_dt(0.3);

    let _ = pim_trace::drain();
    pim_trace::enable();
    solver.run(dt, 2);
    pim_trace::disable();
    let (events, dropped) = pim_trace::drain();
    assert_eq!(dropped, 0);

    let spans: Vec<(Kernel, u8)> = events
        .iter()
        .filter_map(|e| match e.payload {
            Payload::Kernel { kernel, stage } => Some((kernel, stage)),
            _ => None,
        })
        .collect();
    let mut stages: Vec<u8> =
        spans.iter().filter(|(k, _)| *k == Kernel::RkStage).map(|&(_, s)| s).collect();
    stages.sort_unstable();
    assert_eq!(stages, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    assert_eq!(spans.iter().filter(|(k, _)| *k == Kernel::Step).count(), 2);
    assert_eq!(spans.len(), 12, "only Step and RkStage spans expected: {spans:?}");
}

//! The native workload: the `wavesim-dg` solver stepped for the run's
//! seconds, each step checked for finiteness and energy decay.

use std::time::Instant;

use wavesim_dg::energy::acoustic_energy;
use wavesim_dg::kernels::integration;
use wavesim_dg::opcount::acoustic_workload;
use wavesim_dg::{Acoustic, FluxKind, Solver, State};

use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{PlaneWave, Workload, MATERIAL, N, NATIVE_CFL, SETUPS};
use crate::{floor, Outcome};

/// Steps timed with the trace on, for `trace.overhead`.
const TRACED_STEPS: usize = 3;

/// `compute_rhs` calls and stage updates timed for `dg.rhs_s` and
/// `dg.integration_s`.
const RHS_REPS: usize = 3;

/// Mesh build, `Solver::uniform` and `set_initial`, under a `setup` span.
fn build(workload: Workload, wave: &PlaneWave, spans: &mut Spans) -> Solver<Acoustic> {
    spans.time("setup", |s| {
        let mesh = s.time("mesh.build", |_| workload.mesh());
        let mut solver =
            s.time("dg.new", |_| Solver::<Acoustic>::uniform(mesh, N, FluxKind::Riemann, MATERIAL));
        s.time("dg.set_initial", |_| solver.set_initial(|v, x| wave.value(v, [x.x, x.y, x.z])));
        solver
    })
}

/// What a stepped solver produced.
struct Stepped {
    step_s: Vec<f64>,
    first_step_s: f64,
    attempted: u64,
    failed: u64,
}

/// One warm-up step, then timed steps until `seconds` have passed (at
/// least `min_steps`). A step fails its check when the state stops being
/// finite or the acoustic energy grows: the Riemann flux only dissipates.
fn step(
    solver: &mut Solver<Acoustic>,
    seconds: f64,
    min_steps: usize,
    spans: &mut Spans,
) -> Stepped {
    let dt = solver.stable_dt(NATIVE_CFL);
    let mut energy = acoustic_energy(solver);
    let (mut attempted, mut failed) = (0, 0);
    let mut check = |solver: &Solver<Acoustic>, spans: &mut Spans| {
        spans.time("check", |_| {
            let e = acoustic_energy(solver);
            attempted += 1;
            let finite = solver.state().as_slice().iter().all(|x| x.is_finite());
            if !(finite && e <= energy) {
                failed += 1;
            }
            energy = e;
        });
    };

    let t = Instant::now();
    spans.time("dg.step", |_| solver.step(dt));
    let first_step_s = t.elapsed().as_secs_f64();
    check(solver, spans);

    let mut step_s = Vec::new();
    let clock = Instant::now();
    while step_s.len() < min_steps || clock.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        spans.time("dg.step", |_| solver.step(dt));
        step_s.push(t.elapsed().as_secs_f64());
        check(solver, spans);
    }
    Stepped { step_s, first_step_s, attempted, failed }
}

/// The untraced run: `SETUPS` set-ups, then the timed steps.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let wave = PlaneWave::from_seed(seed);
    let mut spans = Spans::default();
    let mut solver = None;
    for _ in 0..SETUPS {
        drop(solver.take());
        solver = Some(build(workload, &wave, &mut spans));
    }
    let mut solver = solver.expect("SETUPS > 0");
    let stepped = step(&mut solver, seconds, 1, &mut spans);
    Outcome {
        attempted: stepped.attempted,
        failed: stepped.failed,
        check_failed: false,
        step_s: stepped.step_s,
        setup_s: spans.durations("setup"),
        values: Values::new(),
    }
}

/// The traced run: the timed steps for the host-time layers, the RHS
/// kernels timed alone, a few steps with the trace on, and the floor.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let wave = PlaneWave::from_seed(seed);
    let mut spans = Spans::default();
    let mut v = Values::new();

    let mut solver = build(workload, &wave, &mut spans);
    let steal = floor::StealMeter::start();
    let plain = step(&mut solver, seconds, 1, &mut spans);
    v.set("host.steal_pct", steal.percent());
    let step_median = median(&plain.step_s).expect("timed steps ran");

    let rhs: Vec<f64> = (0..RHS_REPS)
        .map(|_| {
            let t = Instant::now();
            spans.time("dg.compute_rhs", |_| solver.compute_rhs());
            t.elapsed().as_secs_f64()
        })
        .collect();
    let rhs_s = median(&rhs).expect("RHS_REPS > 0");
    let elements = solver.state().num_elements() as f64;
    let w = acoustic_workload(N, FluxKind::Riemann);
    let flops = (w.volume.ops.flops() + w.flux.ops.flops()) as f64 * elements;
    let bytes = (w.volume.mem.total() + w.flux.mem.total()) as f64 * elements;
    // One LSRK stage update over copies of the solver's buffers.
    let dt = solver.stable_dt(NATIVE_CFL);
    let rhs_state = solver.contributions().clone();
    let mut u = solver.state().clone();
    let mut aux = State::zeros(u.num_elements(), u.num_vars(), u.nodes_per_element());
    let integration: Vec<f64> = (0..RHS_REPS)
        .map(|_| {
            let t = Instant::now();
            spans.time("dg.integration", |_| {
                integration::stage(0, dt, &mut u, &mut aux, &rhs_state)
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    drop((rhs_state, u, aux));
    v.set("dg.rhs_s", rhs_s);
    v.set_median("dg.integration_s", &integration);
    v.set("dg.rhs_gflops", flops / rhs_s / 1e9);
    v.set("dg.rhs_gbs_computed", bytes / rhs_s / 1e9);

    let _ = pim_trace::drain();
    pim_trace::enable();
    let traced = step(&mut solver, 0.0, TRACED_STEPS, &mut spans);
    pim_trace::disable();
    let (_, dropped) = pim_trace::drain();
    assert_eq!(dropped, 0, "trace ring overflowed");
    v.set("trace.overhead", median(&traced.step_s).expect("traced steps ran") / step_median);

    v.set_median("mesh.build_s", &spans.durations("mesh.build"));
    v.set("runtime.first_step_s", plain.first_step_s);
    v.set_tail("runtime.step_s", &plain.step_s);
    drop(solver);

    let floor = spans.time("floor", |_| floor::measure());
    v.set_floor(&floor);
    v.set_self_times(&spans);

    Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        check_failed: false,
        step_s: plain.step_s,
        setup_s: spans.durations("setup"),
        values: v,
    }
}

//! The PIM workloads: a `ClusterRunner` stepped for the run's seconds,
//! each step checked against the native solver on the same input.

use std::time::Instant;

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_sim::EnergyLedger;
use wavesim_dg::{FluxKind, State};

use crate::metrics::{ledger_parts, Values, LEDGER_PARTS};
use crate::spans::Spans;
use crate::stats::median;
use crate::workload::{PlaneWave, Workload, MATERIAL, N, PIM_DT, SETUPS};
use crate::{floor, probe, Outcome};

/// Largest allowed `|PIM − native|∞` of the merged state after any step.
pub const NATIVE_BOUND: f64 = 1e-12;

/// Time-steps the simulated metrics are taken over, counted from the end
/// of the warm-up step. Fixed, so the simulated figures never depend on
/// how many steps the host managed in the run.
pub const SIM_STEPS: usize = 4;

/// Simulated clock and summed per-chip ledger at one instant.
#[derive(Debug, Clone, Copy)]
struct SimMark {
    elapsed: f64,
    ledger: EnergyLedger,
}

impl SimMark {
    fn of(runner: &ClusterRunner) -> Self {
        let mut ledger = EnergyLedger::default();
        for r in runner.finish_reports() {
            ledger.merge(&r.ledger);
        }
        Self { elapsed: runner.elapsed(), ledger }
    }
}

/// What one stepped runner produced.
struct Stepped {
    /// Host seconds of each timed step (warm-up excluded).
    step_s: Vec<f64>,
    first_step_s: f64,
    merge_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Simulated marks after the warm-up step and after `SIM_STEPS` more.
    window: (SimMark, SimMark),
}

impl Stepped {
    fn sim_step_s(&self) -> f64 {
        (self.window.1.elapsed - self.window.0.elapsed) / SIM_STEPS as f64
    }

    fn sim_energy_j_per_step(&self) -> f64 {
        (self.window.1.ledger.dynamic() - self.window.0.ledger.dynamic()) / SIM_STEPS as f64
    }
}

struct Pim {
    workload: Workload,
    config: ClusterConfig,
    wave: PlaneWave,
    initial: State,
}

impl Pim {
    fn new(workload: Workload, seed: u64) -> Self {
        let wave = PlaneWave::from_seed(seed);
        let initial = wave.solver(workload.mesh(), N).state().clone();
        let config = workload.cluster().expect("a PIM workload has a cluster");
        Self { workload, config, wave, initial }
    }

    /// Mesh build plus `ClusterRunner::new`, under a `setup` span.
    fn build(&self, spans: &mut Spans) -> ClusterRunner {
        spans.time("setup", |s| {
            let mesh = s.time("mesh.build", |_| self.workload.mesh());
            s.time("runtime.new", |_| {
                ClusterRunner::new(
                    &mesh,
                    N,
                    FluxKind::Riemann,
                    MATERIAL,
                    &self.initial,
                    PIM_DT,
                    self.config.clone(),
                )
            })
        })
    }

    /// One warm-up step, then timed steps until `seconds` have passed and
    /// at least `SIM_STEPS` ran. Every step's merged state is checked
    /// against the native solver advanced in lockstep. With `traced`,
    /// the summary-lane trace records exactly the `SIM_STEPS` window.
    fn step(
        &self,
        runner: &mut ClusterRunner,
        seconds: f64,
        traced: bool,
        spans: &mut Spans,
    ) -> (Stepped, Vec<pim_trace::Event>) {
        let mut reference = self.wave.solver(self.workload.mesh(), N);
        let mut attempted = 0;
        let mut failed = 0;
        let mut merge_s = Vec::new();
        let mut check = |runner: &mut ClusterRunner, spans: &mut Spans| {
            let t = Instant::now();
            let state = spans.time("runtime.merge", |_| runner.state());
            merge_s.push(t.elapsed().as_secs_f64());
            spans.time("check", |_| {
                reference.step(PIM_DT);
                attempted += 1;
                // `max_abs_diff` folds with `f64::max`, which skips NaN,
                // so finiteness is checked on its own.
                let finite = state.as_slice().iter().all(|x| x.is_finite());
                let within = state.max_abs_diff(reference.state()) <= NATIVE_BOUND;
                if !(finite && within) {
                    failed += 1;
                }
            });
        };

        let t = Instant::now();
        spans.time("runtime.first_step", |_| runner.step());
        let first_step_s = t.elapsed().as_secs_f64();
        check(runner, spans);

        let start = SimMark::of(runner);
        let mut end = start;
        if traced {
            pim_trace::set_ring_capacity(1 << 22);
            pim_trace::set_summary_lanes_only(true);
            let _ = pim_trace::drain();
            pim_trace::enable();
        }
        let mut step_s = Vec::new();
        let clock = Instant::now();
        while step_s.len() < SIM_STEPS || clock.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            spans.time("runtime.step", |_| runner.step());
            step_s.push(t.elapsed().as_secs_f64());
            if step_s.len() == SIM_STEPS {
                end = SimMark::of(runner);
                if traced {
                    pim_trace::disable();
                    pim_trace::set_summary_lanes_only(false);
                    break;
                }
            }
            check(runner, spans);
        }
        let events = if traced {
            let (events, dropped) = pim_trace::drain();
            assert_eq!(dropped, 0, "trace ring overflowed");
            // The traced window ends before its last check; check it now.
            check(runner, spans);
            events
        } else {
            Vec::new()
        };
        let stepped =
            Stepped { step_s, first_step_s, merge_s, attempted, failed, window: (start, end) };
        (stepped, events)
    }
}

/// The untraced run: `SETUPS` set-ups, then the timed steps.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let pim = Pim::new(workload, seed);
    let mut spans = Spans::default();
    let mut runner = None;
    for _ in 0..SETUPS {
        drop(runner.take());
        runner = Some(pim.build(&mut spans));
    }
    let mut runner = runner.expect("SETUPS > 0");
    let (stepped, _) = pim.step(&mut runner, seconds, false, &mut spans);
    Outcome {
        attempted: stepped.attempted,
        failed: stepped.failed,
        check_failed: false,
        step_s: stepped.step_s,
        setup_s: spans.durations("setup"),
        values: Values::new(),
    }
}

/// The traced run: an untraced runner for the host-time layers and the
/// reference simulated window, a second runner whose window is traced
/// and fed to the lens, then the kernel-replay probe and the host floor.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let pim = Pim::new(workload, seed);
    let mut spans = Spans::default();
    let mut v = Values::new();

    let mut runner = pim.build(&mut spans);
    let mut compile_s = vec![runner.program_compile_seconds()];
    v.set("core.cached_instrs", runner.cached_instrs() as f64);
    v.set("core.patch_sites", runner.patch_sites() as f64);
    let placement = runner.math_placements()[0];
    let steal = floor::StealMeter::start();
    let (plain, _) = pim.step(&mut runner, seconds, false, &mut spans);
    v.set("host.steal_pct", steal.percent());
    drop(runner);

    let mut runner = pim.build(&mut spans);
    compile_s.push(runner.program_compile_seconds());
    let (traced, events) = pim.step(&mut runner, 0.0, true, &mut spans);
    let pids = runner.trace_pids();
    let halo = runner.halo_stats().clone();
    let math = runner.math_stats().clone();
    drop(runner);

    let sim_step_s = plain.sim_step_s();
    v.set("sim_step_s", sim_step_s);
    v.set("sim_energy_j_per_step", plain.sim_energy_j_per_step());
    let (start, end) = (ledger_parts(&plain.window.0.ledger), ledger_parts(&plain.window.1.ledger));
    for ((part, start), end) in LEDGER_PARTS.iter().zip(start).zip(end) {
        v.set(&format!("sim.energy.{part}_j_per_step"), (end - start) / SIM_STEPS as f64);
    }

    // Tracing must not move the simulated clock or the ledger by a bit.
    let mut check_failed = traced.sim_step_s().to_bits() != sim_step_s.to_bits()
        || traced.sim_energy_j_per_step().to_bits() != plain.sim_energy_j_per_step().to_bits();

    let analysis = spans.time("lens.analyze", |_| {
        pim_lens::analyze(&events, &pids, traced.window.0.elapsed, traced.window.1.elapsed)
    });
    let blame_per_step = analysis.blame_total() / SIM_STEPS as f64;
    check_failed |= (analysis.blame_total() - analysis.makespan).abs() > 1e-9
        || (blame_per_step - sim_step_s).abs() > 1e-9;
    v.set_lens(&analysis.blame, SIM_STEPS);

    let steps = (halo.stages / 5) as f64;
    v.set("runtime.halo.bytes_per_step", halo.payload_bytes as f64 / steps);
    v.set("runtime.halo.messages_per_step", halo.messages as f64 / steps);
    v.set("runtime.halo.link_s_per_stage", halo.seconds_per_stage());
    v.set("runtime.max_skew_s", halo.max_skew_seconds);
    v.set("math.onpim_s_per_stage", math.onpim_seconds_per_stage());
    v.set("math.host_s_per_stage", math.host_seconds_per_stage());
    v.set("math.exposed_s_per_stage", math.exposed_seconds_per_stage());

    let new_s = spans.durations("runtime.new");
    let preload_s: Vec<f64> = new_s.iter().zip(&compile_s).map(|(n, c)| n - c).collect();
    v.set_median("mesh.build_s", &spans.durations("mesh.build"));
    v.set_median("runtime.new_s", &new_s);
    v.set_median("runtime.preload_s", &preload_s);
    v.set_median("core.compile_s", &compile_s);
    v.set("runtime.first_step_s", plain.first_step_s);
    v.set_median("runtime.merge_s", &plain.merge_s);
    v.set_tail("runtime.step_s", &plain.step_s);
    v.set(
        "trace.overhead",
        median(&traced.step_s).expect("traced steps ran")
            / median(&plain.step_s).expect("timed steps ran"),
    );

    let samples = spans.time("probe", |_| {
        let mesh = workload.mesh();
        probe::replay_chip0(&mesh, N, PIM_DT, &pim.config, placement, &pim.initial)
    });
    v.set_probe(&samples);
    let floor = spans.time("floor", |_| floor::measure());
    v.set_floor(&floor);
    v.set_self_times(&spans);

    Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        check_failed,
        step_s: plain.step_s,
        setup_s: spans.durations("setup"),
        values: v,
    }
}

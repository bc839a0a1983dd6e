//! The host-performance study behind `BENCH_host.json`: the host
//! wall-clock of the functional cluster runner, which compiles and
//! lowers every kernel program once at construction and replays the
//! tapes each step.
//!
//! One run is timed end to end — construction (including the program
//! compile), then cached-replay steps — and checked against the native
//! dG solver (≤1e-12), alongside a traced energy ↔ ledger
//! reconciliation and a thread-scaling curve swept through
//! [`rayon::set_num_threads`].
//!
//! Per-step timings are minima over [`HostBenchConfig::measure_reps`]
//! repetitions, because the benchmark hosts exhibit one-sided
//! interference noise that inflates single runs.

use std::fmt::Write as _;
use std::time::Instant;

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_sim::ChipCapacity;
use pim_trace::json::number;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver, State};
use wavesim_mesh::{Boundary, HexMesh};

/// Recorded cached-replay seconds-per-step of the scalar (row-major,
/// one-cell-at-a-time) execution engine at the `full()` workload,
/// measured immediately before the word-parallel engine landed. The
/// vectorized engine is gated against this number: `host_bench` exits
/// nonzero if a cached step stops beating it.
///
/// Methodology: minimum over five consecutive cached-replay steps in
/// one process (the host VM shows multi-second interference spikes, so
/// single-run numbers swing by tens of percent; the min is the stable
/// statistic). Re-measured whenever the compiled workload changes —
/// the streams grew substantially when on-PIM math (LUT + Newton)
/// landed, so older recorded values are not comparable.
pub const SCALAR_BASELINE_FULL_STEP_SECONDS: f64 = 13.80;

/// Recorded scalar-engine cached-replay seconds-per-step at the
/// `smoke()` configuration (release build), the CI regression floor.
/// Minimum of three runs, same methodology as the full constant.
pub const SCALAR_BASELINE_SMOKE_STEP_SECONDS: f64 = 0.164;

/// What the study runs. `full()` is the acceptance configuration (a
/// level-5 mesh on four 8 GB chips); `smoke()` is the CI gate.
#[derive(Debug, Clone)]
pub struct HostBenchConfig {
    /// Mesh refinement level of the headline run.
    pub level: u32,
    /// Nodes per axis.
    pub n: usize,
    /// Chips in the cluster.
    pub chips: usize,
    /// Time-steps per timed run.
    pub steps: usize,
    /// Timed repetitions of the headline run; the reported per-step
    /// number is the **minimum** over the reps. The benchmark hosts
    /// show multi-second interference spikes that inflate single runs
    /// by tens of percent, and the minimum is the stable statistic
    /// under one-sided noise.
    pub measure_reps: usize,
    /// Per-chip capacity (level 5 needs 8 GB chips for 4 shards).
    pub capacity: ChipCapacity,
    /// Mesh level of the thread-scaling sweep (smaller than the
    /// headline so the sweep stays affordable).
    pub scaling_level: u32,
    /// Chips in the thread-scaling sweep.
    pub scaling_chips: usize,
    /// Capacity for the sweep's chips.
    pub scaling_capacity: ChipCapacity,
    /// Thread counts the sweep pins via [`rayon::set_num_threads`].
    pub threads: Vec<usize>,
    /// Mesh level of the traced energy-reconciliation run (tracing a
    /// level-5 step would buffer >100M events; the reconciliation only
    /// needs *a* cached-replay run through the same step protocol).
    pub trace_level: u32,
    /// Chips in the traced run.
    pub trace_chips: usize,
    /// Recorded scalar-engine seconds-per-step at this configuration,
    /// if one was ever measured (`None` for ad-hoc configurations).
    /// When present, the binary gates the vectorized engine against it.
    pub scalar_baseline_step_seconds: Option<f64>,
}

impl HostBenchConfig {
    /// The acceptance configuration: level 5 across four 8 GB chips.
    pub fn full() -> Self {
        Self {
            level: 5,
            n: 2,
            chips: 4,
            steps: 1,
            measure_reps: 5,
            capacity: ChipCapacity::Gb8,
            scaling_level: 4,
            scaling_chips: 4,
            scaling_capacity: ChipCapacity::Gb2,
            threads: vec![1, 2, 4],
            trace_level: 3,
            trace_chips: 2,
            scalar_baseline_step_seconds: Some(SCALAR_BASELINE_FULL_STEP_SECONDS),
        }
    }

    /// The CI smoke configuration: small enough for a debug test run.
    pub fn smoke() -> Self {
        Self {
            level: 3,
            n: 2,
            chips: 2,
            steps: 2,
            measure_reps: 3,
            capacity: ChipCapacity::Gb2,
            scaling_level: 3,
            scaling_chips: 2,
            scaling_capacity: ChipCapacity::Gb2,
            threads: vec![1, 2],
            trace_level: 2,
            trace_chips: 2,
            scalar_baseline_step_seconds: Some(SCALAR_BASELINE_SMOKE_STEP_SECONDS),
        }
    }
}

/// One point of the thread-scaling curve.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPoint {
    pub threads: usize,
    /// Wall-clock of one cached-replay step at that thread count.
    pub step_seconds: f64,
}

/// Everything `BENCH_host.json` reports.
#[derive(Debug, Clone)]
pub struct HostBenchResult {
    pub level: u32,
    pub n: usize,
    pub chips: usize,
    pub steps: usize,
    /// Timed repetitions behind the per-step minima.
    pub measure_reps: usize,
    pub elements: u64,
    /// Worker threads the headline runs used.
    pub threads: usize,
    /// Wall-clock of `ClusterRunner::new` for the cached run (shard
    /// compile + preload + program-cache build).
    pub construct_seconds: f64,
    /// Peak resident set of the process (`VmHWM`) once the cached run
    /// has stepped, MiB — one cluster's host footprint. 0 where
    /// `/proc/self/status` is unavailable.
    pub peak_rss_mib: f64,
    /// The program-cache compilation inside that construction.
    pub compile_seconds: f64,
    /// Wall-clock of all `steps × measure_reps` cached time-steps.
    pub replay_seconds: f64,
    /// Cached-run total: construction + stepping.
    pub total_seconds: f64,
    /// Cached replay, seconds per step — minimum over `measure_reps`
    /// timed runs.
    pub cached_step_seconds: f64,
    pub cached_instrs: u64,
    pub patch_sites: u64,
    /// Cached+threaded run vs the native dG solver.
    pub max_abs_diff_vs_native: f64,
    pub trace_level: u32,
    pub trace_chips: usize,
    /// Worst per-chip |traced − ledger| / ledger over the traced run.
    pub trace_energy_rel_err: f64,
    /// Recorded scalar-engine seconds-per-step for this configuration
    /// (0 when no baseline was ever recorded).
    pub scalar_baseline_step_seconds: f64,
    /// `scalar_baseline_step_seconds / cached_step_seconds` — how much
    /// faster the word-parallel engine steps than the recorded scalar
    /// engine (0 when no baseline exists).
    pub speedup_vs_scalar_baseline: f64,
    pub thread_scaling: Vec<ThreadPoint>,
    /// The swept thread count with the fastest cached-replay step — the
    /// count a host on this machine should pin. On a single-core host
    /// this is 1: extra workers only add scheduling overhead, and the
    /// curve (not an assumption) is what says so.
    pub best_threads: usize,
}

/// The process's peak resident set so far (`VmHWM`), MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn initial_solver(mesh: &HexMesh, n: usize, material: AcousticMaterial) -> Solver<Acoustic> {
    let mut s = Solver::<Acoustic>::uniform(mesh.clone(), n, FluxKind::Riemann, material);
    let tau = std::f64::consts::TAU;
    s.set_initial(|v, x| match v {
        0 => (tau * x.x).sin() + 0.25 * (tau * x.y).cos(),
        1 => 0.5 * (tau * x.y).sin(),
        2 => 0.25 * (tau * (x.x + x.z)).cos(),
        _ => 0.125 * (tau * x.z).sin(),
    });
    s
}

fn build_cluster(
    mesh: &HexMesh,
    n: usize,
    material: AcousticMaterial,
    initial: &State,
    dt: f64,
    chips: usize,
    capacity: ChipCapacity,
) -> ClusterRunner {
    let mut chip = pim_sim::ChipConfig::default_2gb();
    chip.capacity = capacity;
    let config = ClusterConfig::uniform(chips, chip);
    ClusterRunner::new(mesh, n, FluxKind::Riemann, material, initial, dt, config)
}

/// Runs the study. See the module docs for what is measured.
pub fn host_bench_data(cfg: &HostBenchConfig) -> HostBenchResult {
    let material = AcousticMaterial::new(2.0, 1.0);
    let dt = 1e-3;
    let mesh = HexMesh::refinement_level(cfg.level, Boundary::Periodic);
    let mut reference = initial_solver(&mesh, cfg.n, material);

    // Each `steps`-long run is timed separately and the per-step
    // statistic is the minimum over the reps (see
    // `HostBenchConfig::measure_reps`).
    let reps = cfg.measure_reps.max(1);

    // Compile once, replay every step.
    let t0 = Instant::now();
    let mut cached =
        build_cluster(&mesh, cfg.n, material, reference.state(), dt, cfg.chips, cfg.capacity);
    let construct_seconds = t0.elapsed().as_secs_f64();
    let mut cached_step_seconds = f64::INFINITY;
    let t0 = Instant::now();
    for _ in 0..reps {
        let r0 = Instant::now();
        cached.run(cfg.steps);
        cached_step_seconds =
            cached_step_seconds.min(r0.elapsed().as_secs_f64() / cfg.steps as f64);
    }
    let replay_seconds = t0.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_mib();
    let cached_state = cached.state();

    // Cached replay vs native within roundoff.
    reference.run(dt, cfg.steps * reps);
    let max_abs_diff_vs_native = cached_state.max_abs_diff(reference.state());

    // Traced energy ↔ ledger reconciliation on a smaller cluster
    // running the same cached-replay protocol.
    let trace_energy_rel_err = traced_energy_rel_err(cfg, material, dt);

    // Thread-scaling curve: one cached step per pinned thread count.
    let scaling_mesh = HexMesh::refinement_level(cfg.scaling_level, Boundary::Periodic);
    let scaling_ref = initial_solver(&scaling_mesh, cfg.n, material);
    let mut sweep = build_cluster(
        &scaling_mesh,
        cfg.n,
        material,
        scaling_ref.state(),
        dt,
        cfg.scaling_chips,
        cfg.scaling_capacity,
    );
    let mut thread_scaling = Vec::with_capacity(cfg.threads.len());
    for &t in &cfg.threads {
        rayon::set_num_threads(t);
        // Minimum over the timed reps, like the headline numbers: the
        // curve picks `best_threads`, so a single noisy step must not
        // crown the wrong count.
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            sweep.step();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        thread_scaling.push(ThreadPoint { threads: t, step_seconds: best });
    }
    rayon::set_num_threads(0);
    let best_threads = thread_scaling
        .iter()
        .min_by(|a, b| a.step_seconds.total_cmp(&b.step_seconds))
        .map_or(1, |p| p.threads);

    HostBenchResult {
        level: cfg.level,
        n: cfg.n,
        chips: cfg.chips,
        steps: cfg.steps,
        measure_reps: reps,
        elements: mesh.num_elements() as u64,
        threads: rayon::current_num_threads(),
        construct_seconds,
        peak_rss_mib,
        compile_seconds: cached.program_compile_seconds(),
        replay_seconds,
        total_seconds: construct_seconds + replay_seconds,
        cached_step_seconds,
        cached_instrs: cached.cached_instrs(),
        patch_sites: cached.patch_sites(),
        max_abs_diff_vs_native,
        trace_level: cfg.trace_level,
        trace_chips: cfg.trace_chips,
        trace_energy_rel_err,
        scalar_baseline_step_seconds: cfg.scalar_baseline_step_seconds.unwrap_or(0.0),
        speedup_vs_scalar_baseline: cfg
            .scalar_baseline_step_seconds
            .map_or(0.0, |b| b / cached_step_seconds),
        thread_scaling,
        best_threads,
    }
}

/// One traced cached-replay step at `cfg.trace_level`: every traced
/// joule on a chip's process row must be a joule in that chip's dynamic
/// energy ledger. Returns the worst per-chip relative error.
fn traced_energy_rel_err(cfg: &HostBenchConfig, material: AcousticMaterial, dt: f64) -> f64 {
    let mesh = HexMesh::refinement_level(cfg.trace_level, Boundary::Periodic);
    let reference = initial_solver(&mesh, cfg.n, material);

    pim_trace::set_ring_capacity(1 << 22);
    let _ = pim_trace::drain();
    pim_trace::enable();
    let mut cluster = build_cluster(
        &mesh,
        cfg.n,
        material,
        reference.state(),
        dt,
        cfg.trace_chips,
        ChipCapacity::Gb2,
    );
    cluster.step();
    let pids = cluster.trace_pids();
    let reports = cluster.finish_reports();
    pim_trace::disable();
    let (events, dropped) = pim_trace::drain();
    assert_eq!(dropped, 0, "trace ring must not drop events at the reconciliation scale");

    let mut worst = 0.0f64;
    for (&pid, report) in pids.iter().zip(&reports) {
        let traced: f64 =
            events.iter().filter(|e| e.pid == pid).map(|e| e.payload.energy_j()).sum();
        let ledger = report.ledger.dynamic();
        worst = worst.max((traced - ledger).abs() / ledger);
    }
    worst
}

/// Renders the stable-schema `BENCH_host.json` document.
pub fn host_json(r: &HostBenchResult) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\n  \"schema_version\": 4,\n  \
         \"level\": {}, \"n\": {}, \"chips\": {}, \"steps\": {}, \
         \"measure_reps\": {}, \"elements\": {}, \"threads\": {}, \
         \"best_threads\": {},\n  \
         \"construct_seconds\": {}, \"peak_rss_mib\": {}, \"compile_seconds\": {}, \
         \"replay_seconds\": {}, \"total_seconds\": {},\n  \
         \"cached_step_seconds\": {},\n  \
         \"scalar_baseline_step_seconds\": {}, \
         \"speedup_vs_scalar_baseline\": {},\n  \
         \"cached_instrs\": {}, \"patch_sites\": {},\n  \
         \"max_abs_diff_vs_native\": {},\n  \
         \"trace_level\": {}, \"trace_chips\": {}, \
         \"trace_energy_rel_err\": {},\n  \
         \"thread_scaling\": [",
        r.level,
        r.n,
        r.chips,
        r.steps,
        r.measure_reps,
        r.elements,
        r.threads,
        r.best_threads,
        number(r.construct_seconds),
        number(r.peak_rss_mib),
        number(r.compile_seconds),
        number(r.replay_seconds),
        number(r.total_seconds),
        number(r.cached_step_seconds),
        number(r.scalar_baseline_step_seconds),
        number(r.speedup_vs_scalar_baseline),
        r.cached_instrs,
        r.patch_sites,
        number(r.max_abs_diff_vs_native),
        r.trace_level,
        r.trace_chips,
        number(r.trace_energy_rel_err),
    );
    for (i, p) in r.thread_scaling.iter().enumerate() {
        let _ = write!(
            out,
            "\n    {{\"threads\": {}, \"step_seconds\": {}}}{}",
            p.threads,
            number(p.step_seconds),
            if i + 1 < r.thread_scaling.len() { "," } else { "" }
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

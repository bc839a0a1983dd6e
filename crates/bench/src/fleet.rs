//! The fleet-scheduler study behind `BENCH_fleet.json`: replay one
//! synthetic mixed-job trace through the fleet twice — cache-aware
//! placement vs the cache-oblivious control — and report what affinity
//! buys: cache hits and virtual makespan from each arm's deterministic
//! plan, plus the measured jobs/hour and job latency.
//!
//! The trace is built so the comparison is structural, not lucky: after
//! a prologue (one sharded multi-chip job, one deadline job), it streams
//! *pair-swapped* rounds of two program keys A and B — `A B`, `B A`,
//! `A B`, … — across two equal chips. The oblivious scorer's
//! deterministic tie-break re-places each round's first job on the
//! first free chip, which the swap guarantees holds the *other* key, so
//! it recompiles every job; the aware scorer follows residency and hits
//! every job after the first round. Same mechanics, same executor, same
//! trace — only the placement score differs.
//!
//! Correctness rides along: a sample of the cache-aware outcomes
//! (always covering a pooled-runner reuse) is replayed solo and checked
//! bit-identical, plus ≤1e-12 against the native dG solver.
//! [`check_fleet`] is the CI gate, and it reads the plans, not the
//! clock: the cache-aware plan must have strictly more hits and a
//! strictly shorter virtual makespan than the oblivious one, both arms
//! must account for every job, and the equivalence bounds must hold.
//! The wall-clock figures are reported, never gated: the compile a hit
//! saves at these sizes is small against host timing noise.

use std::fmt::Write as _;
use std::sync::Arc;

use pim_fleet::{Fleet, FleetConfig, JobSpec, JobState, PlacementPolicy, Workload};
use pim_metrics::MetricsRegistry;
use pim_sim::{ChipCapacity, ChipConfig};
use pim_trace::json::{escape, number};

/// What the study runs. `full()` is the acceptance configuration,
/// `smoke()` the CI gate.
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// The fleet's chip capacities (first two must be equal — the
    /// pair-swapped trace needs interchangeable chips).
    pub fleet: Vec<ChipCapacity>,
    /// Mesh refinement level of the trace jobs.
    pub level: u32,
    /// Steps per job.
    pub steps: usize,
    /// Pair-swapped rounds (2 jobs per round) after the prologue.
    pub rounds: usize,
    /// How many cache-aware outcomes to replay solo for the
    /// equivalence check.
    pub verify_jobs: usize,
    /// The registry both drains' schedulers are metered into
    /// (`None`: unmetered). The jobs' chips are never metered.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl FleetBenchConfig {
    /// The acceptance configuration. Short jobs keep compilation a
    /// meaningful share of each job, which is exactly the regime a
    /// multi-tenant fleet with repeated programs lives in — and what
    /// the cache-affinity margin is made of.
    pub fn full() -> Self {
        Self {
            fleet: vec![ChipCapacity::Gb2, ChipCapacity::Gb2],
            level: 3,
            steps: 2,
            rounds: 6,
            verify_jobs: 4,
            metrics: None,
        }
    }

    /// The CI smoke configuration: small enough for a debug run.
    pub fn smoke() -> Self {
        Self {
            fleet: vec![ChipCapacity::Gb2, ChipCapacity::Gb2],
            level: 2,
            steps: 2,
            rounds: 3,
            verify_jobs: 3,
            metrics: None,
        }
    }

    /// The synthetic mixed-job trace: a sharded job, a deadline job,
    /// then the pair-swapped key rounds.
    pub fn trace(&self) -> Vec<JobSpec> {
        let mut specs = Vec::new();
        let mut wide = JobSpec::new("wide", self.level, Workload::MixedTones, self.steps);
        wide.chips_wanted = 2;
        specs.push(wide);
        let mut urgent = JobSpec::new("urgent", self.level, Workload::ShearY, self.steps);
        urgent.deadline = Some(1e9);
        specs.push(urgent);
        // Key A and key B differ in dt (a program-key field), so a
        // chip resident with one never hits the other.
        let job_a =
            |r: usize| JobSpec::new(format!("a-{r}"), self.level, Workload::Pulse, self.steps);
        let job_b = |r: usize| {
            let mut s =
                JobSpec::new(format!("b-{r}"), self.level, Workload::MixedTones, self.steps);
            s.dt = 2e-3;
            s
        };
        for r in 0..self.rounds {
            if r % 2 == 0 {
                specs.push(job_a(r));
                specs.push(job_b(r));
            } else {
                specs.push(job_b(r));
                specs.push(job_a(r));
            }
        }
        specs
    }

    fn chips(&self) -> Vec<ChipConfig> {
        self.fleet
            .iter()
            .map(|&capacity| ChipConfig { capacity, ..ChipConfig::default_2gb() })
            .collect()
    }
}

/// One policy arm's measurements.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    pub policy: &'static str,
    pub jobs: usize,
    pub done: usize,
    pub rejected: usize,
    /// The plan's cache-hit placements (the executor follows the plan).
    pub cache_hits: usize,
    /// The plan's virtual makespan ([`pim_fleet::SchedulePlan::makespan`],
    /// step·element units): deterministic, unlike `wall_seconds`.
    pub plan_makespan: f64,
    pub wall_seconds: f64,
    pub jobs_per_hour: f64,
    pub p50_latency_seconds: f64,
    pub p99_latency_seconds: f64,
    pub mean_wait_seconds: f64,
    pub worst_idle_share: f64,
    pub deadline_misses: usize,
}

/// One cache-aware job's row in the artifact.
#[derive(Debug, Clone)]
pub struct JobRow {
    pub name: String,
    pub chips: Vec<usize>,
    pub cache_hit: bool,
    pub wait_seconds: f64,
    pub compile_seconds: f64,
    pub run_seconds: f64,
}

/// Everything `BENCH_fleet.json` reports.
#[derive(Debug, Clone)]
pub struct FleetBenchResult {
    pub level: u32,
    pub steps: usize,
    pub trace_jobs: usize,
    pub fleet: Vec<&'static str>,
    pub aware: PolicyResult,
    pub oblivious: PolicyResult,
    /// `aware.jobs_per_hour / oblivious.jobs_per_hour` (reported, not
    /// gated).
    pub throughput_ratio: f64,
    /// Jobs replayed solo for the equivalence check.
    pub verified_jobs: usize,
    /// Max over verified jobs of |fleet − solo replay| (must be 0).
    pub max_solo_diff: f64,
    /// Max over verified jobs of |fleet − native dG|.
    pub max_native_diff: f64,
    /// Per-job rows of the cache-aware arm.
    pub jobs: Vec<JobRow>,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run_policy(
    cfg: &FleetBenchConfig,
    policy: PlacementPolicy,
) -> (PolicyResult, pim_fleet::FleetReport) {
    let mut config = FleetConfig::new(cfg.chips()).with_policy(policy);
    config.metrics = cfg.metrics.clone();
    let mut fleet = Fleet::new(config);
    for spec in cfg.trace() {
        fleet.submit(spec);
    }
    let report = fleet.drain();
    let mut latencies: Vec<f64> = report
        .outcomes
        .iter()
        .filter(|o| o.state == JobState::Done)
        .map(|o| o.latency_seconds())
        .collect();
    latencies.sort_by(f64::total_cmp);
    let done = latencies.len();
    let waits: f64 = report.outcomes.iter().map(|o| o.wait_seconds).sum();
    let result = PolicyResult {
        policy: policy.name(),
        jobs: report.outcomes.len(),
        done,
        rejected: report.plan.rejected.len(),
        cache_hits: report.plan.cache_hits,
        plan_makespan: report.plan.makespan,
        wall_seconds: report.wall_seconds,
        jobs_per_hour: report.jobs_per_hour,
        p50_latency_seconds: percentile(&latencies, 0.50),
        p99_latency_seconds: percentile(&latencies, 0.99),
        mean_wait_seconds: if done > 0 { waits / done as f64 } else { 0.0 },
        worst_idle_share: report.plan.worst_idle_share(),
        deadline_misses: report.outcomes.iter().filter(|o| o.deadline_missed).count(),
    };
    (result, report)
}

/// Runs the trace under both policies and spot-checks equivalence on
/// the cache-aware outcomes.
pub fn fleet_bench_data(cfg: &FleetBenchConfig) -> FleetBenchResult {
    let (aware, aware_report) = run_policy(cfg, PlacementPolicy::CacheAware);
    let (oblivious, _) = run_policy(cfg, PlacementPolicy::CacheOblivious);
    let specs = cfg.trace();

    // Equivalence sample: keep trace order but make sure at least one
    // pooled-runner reuse (cache hit) is always covered.
    let done: Vec<usize> =
        (0..specs.len()).filter(|&j| aware_report.outcomes[j].state == JobState::Done).collect();
    let mut verify: Vec<usize> = done.iter().copied().take(cfg.verify_jobs).collect();
    if let Some(&hit) = done.iter().find(|&&j| aware_report.outcomes[j].cache_hit) {
        if !verify.contains(&hit) {
            if verify.len() == cfg.verify_jobs {
                verify.pop();
            }
            verify.push(hit);
        }
    }

    let mut max_solo_diff = 0.0f64;
    let mut max_native_diff = 0.0f64;
    for &j in &verify {
        let spec = &specs[j];
        let outcome = &aware_report.outcomes[j];
        let fleet_state = outcome.final_state.as_ref().unwrap();
        let mesh =
            wavesim_mesh::HexMesh::refinement_level(spec.level, wavesim_mesh::Boundary::Periodic);
        let mut reference = wavesim_dg::Solver::<wavesim_dg::Acoustic>::uniform(
            mesh.clone(),
            spec.order,
            spec.flux,
            spec.material,
        );
        let workload = spec.workload;
        reference.set_initial(move |v, x| workload.value(v, x));
        let mut solo = pim_cluster::ClusterRunner::new(
            &mesh,
            spec.order,
            spec.flux,
            spec.material,
            reference.state(),
            spec.dt,
            pim_cluster::ClusterConfig::heterogeneous(outcome.chip_configs.clone()),
        );
        solo.run(spec.steps);
        max_solo_diff = max_solo_diff.max(fleet_state.max_abs_diff(&solo.state()));
        reference.run(spec.dt, spec.steps);
        max_native_diff = max_native_diff.max(fleet_state.max_abs_diff(reference.state()));
    }

    let jobs = aware_report
        .outcomes
        .iter()
        .map(|o| JobRow {
            name: o.name.clone(),
            chips: o.chips.clone(),
            cache_hit: o.cache_hit,
            wait_seconds: o.wait_seconds,
            compile_seconds: o.compile_seconds,
            run_seconds: o.run_seconds,
        })
        .collect();

    let throughput_ratio = if oblivious.jobs_per_hour > 0.0 {
        aware.jobs_per_hour / oblivious.jobs_per_hour
    } else {
        f64::INFINITY
    };
    FleetBenchResult {
        level: cfg.level,
        steps: cfg.steps,
        trace_jobs: specs.len(),
        fleet: cfg.fleet.iter().map(|c| c.name()).collect(),
        aware,
        oblivious,
        throughput_ratio,
        verified_jobs: verify.len(),
        max_solo_diff,
        max_native_diff,
        jobs,
    }
}

fn policy_json(out: &mut String, key: &str, p: &PolicyResult) {
    let _ = write!(
        out,
        "  \"{key}\": {{\"policy\": \"{}\", \"jobs\": {}, \"done\": {}, \"rejected\": {}, \
         \"cache_hits\": {}, \"plan_makespan\": {},\n    \
         \"wall_seconds\": {}, \"jobs_per_hour\": {}, \
         \"p50_latency_seconds\": {}, \"p99_latency_seconds\": {}, \
         \"mean_wait_seconds\": {}, \"worst_idle_share\": {}, \"deadline_misses\": {}}}",
        p.policy,
        p.jobs,
        p.done,
        p.rejected,
        p.cache_hits,
        number(p.plan_makespan),
        number(p.wall_seconds),
        number(p.jobs_per_hour),
        number(p.p50_latency_seconds),
        number(p.p99_latency_seconds),
        number(p.mean_wait_seconds),
        number(p.worst_idle_share),
        p.deadline_misses,
    );
}

/// Renders `BENCH_fleet.json`.
pub fn fleet_json(r: &FleetBenchResult) -> String {
    let mut out = String::with_capacity(2048);
    let _ = write!(
        out,
        "{{\n  \"schema_version\": 1,\n  \
         \"level\": {}, \"steps\": {}, \"trace_jobs\": {},\n  \"fleet\": [",
        r.level, r.steps, r.trace_jobs
    );
    for (i, cap) in r.fleet.iter().enumerate() {
        let _ = write!(out, "{}\"{}\"", if i > 0 { ", " } else { "" }, cap);
    }
    out.push_str("],\n");
    policy_json(&mut out, "cache_aware", &r.aware);
    out.push_str(",\n");
    policy_json(&mut out, "cache_oblivious", &r.oblivious);
    let _ = write!(
        out,
        ",\n  \"throughput_ratio\": {},\n  \
         \"verified_jobs\": {}, \"max_solo_diff\": {}, \"max_native_diff\": {},\n  \
         \"jobs\": [",
        number(r.throughput_ratio),
        r.verified_jobs,
        number(r.max_solo_diff),
        number(r.max_native_diff),
    );
    for (i, j) in r.jobs.iter().enumerate() {
        let chips: Vec<String> = j.chips.iter().map(|c| c.to_string()).collect();
        let _ = write!(
            out,
            "{}\n    {{\"name\": {}, \"chips\": [{}], \"cache_hit\": {}, \
             \"wait_seconds\": {}, \"compile_seconds\": {}, \"run_seconds\": {}}}",
            if i > 0 { "," } else { "" },
            escape(&j.name),
            chips.join(", "),
            j.cache_hit,
            number(j.wait_seconds),
            number(j.compile_seconds),
            number(j.run_seconds),
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The CI gate. The cache story is judged on the two deterministic
/// plans; the wall-clock figures are reported but never compared.
pub fn check_fleet(r: &FleetBenchResult) -> Result<(), String> {
    if r.aware.cache_hits <= r.oblivious.cache_hits {
        return Err(format!(
            "affinity scoring planned no more hits ({}) than the oblivious control ({})",
            r.aware.cache_hits, r.oblivious.cache_hits
        ));
    }
    if r.aware.plan_makespan >= r.oblivious.plan_makespan {
        return Err(format!(
            "the cache-aware plan is no shorter: makespan {} vs {} for the oblivious control",
            r.aware.plan_makespan, r.oblivious.plan_makespan
        ));
    }
    for (arm, p) in [("cache_aware", &r.aware), ("cache_oblivious", &r.oblivious)] {
        if p.done + p.rejected != p.jobs {
            return Err(format!(
                "{arm}: {} done + {} rejected != {} jobs",
                p.done, p.rejected, p.jobs
            ));
        }
    }
    if r.max_solo_diff != 0.0 {
        return Err(format!("fleet jobs diverged from solo replays: {:e}", r.max_solo_diff));
    }
    if r.max_native_diff > 1e-12 {
        return Err(format!("fleet jobs diverged from native dG: {:e}", r.max_native_diff));
    }
    Ok(())
}

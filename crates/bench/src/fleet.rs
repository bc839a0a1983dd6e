//! The fleet-placement study behind `BENCH_fleet.json`: plan one
//! synthetic mixed-job trace twice — cache-aware placement vs the
//! cache-oblivious control — and report what affinity buys: cache hits
//! and virtual makespan from each arm's deterministic plan.
//!
//! The trace is built so the comparison is structural, not lucky: after
//! a prologue (one sharded multi-chip job, one deadline job), it streams
//! *pair-swapped* rounds of two program keys A and B — `A B`, `B A`,
//! `A B`, … — across two equal chips. The oblivious scorer's
//! deterministic tie-break re-places each round's first job on the
//! first free chip, which the swap guarantees holds the *other* key, so
//! it recompiles every job; the aware scorer follows residency and hits
//! every job after the first round. Same planner, same trace — only the
//! placement score differs.
//!
//! [`check_fleet`] is the CI gate: the cache-aware plan must have
//! strictly more hits and a strictly shorter virtual makespan than the
//! oblivious one, and both arms must account for every job. Every
//! figure is a pure function of the trace, so the artifact is
//! byte-identical from run to run.

use std::fmt::Write as _;

use pim_fleet::{plan, JobSpec, PlacementPolicy, Workload};
use pim_sim::{ChipCapacity, ChipConfig};
use pim_trace::json::number;

/// What the study plans. `full()` is the acceptance configuration,
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
}

impl FleetBenchConfig {
    /// The acceptance configuration. Short jobs keep compilation a
    /// meaningful share of each job, which is exactly the regime a
    /// multi-tenant fleet with repeated programs lives in — and what
    /// the cache-affinity margin is made of.
    pub fn full() -> Self {
        Self { fleet: vec![ChipCapacity::Gb2, ChipCapacity::Gb2], level: 3, steps: 2, rounds: 6 }
    }

    /// The CI smoke configuration.
    pub fn smoke() -> Self {
        Self { fleet: vec![ChipCapacity::Gb2, ChipCapacity::Gb2], level: 2, steps: 2, rounds: 3 }
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

/// One policy arm's plan.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    pub policy: &'static str,
    /// Jobs in the trace.
    pub jobs: usize,
    /// Jobs the plan placed.
    pub placed: usize,
    /// Jobs no chip subset can host.
    pub rejected: usize,
    /// The plan's cache-hit placements.
    pub cache_hits: usize,
    /// The plan's virtual makespan ([`pim_fleet::SchedulePlan::makespan`],
    /// step·element units).
    pub plan_makespan: f64,
    pub worst_idle_share: f64,
    pub deadline_misses: usize,
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
}

fn plan_policy(specs: &[JobSpec], chips: &[ChipConfig], policy: PlacementPolicy) -> PolicyResult {
    let p = plan(specs, chips, policy);
    PolicyResult {
        policy: policy.name(),
        jobs: specs.len(),
        placed: p.jobs.len(),
        rejected: p.rejected.len(),
        cache_hits: p.cache_hits,
        plan_makespan: p.makespan,
        worst_idle_share: p.worst_idle_share(),
        deadline_misses: p.jobs.iter().filter(|j| j.deadline_missed).count(),
    }
}

/// Plans the trace under both policies.
pub fn fleet_bench_data(cfg: &FleetBenchConfig) -> FleetBenchResult {
    let (specs, chips) = (cfg.trace(), cfg.chips());
    FleetBenchResult {
        level: cfg.level,
        steps: cfg.steps,
        trace_jobs: specs.len(),
        fleet: cfg.fleet.iter().map(|c| c.name()).collect(),
        aware: plan_policy(&specs, &chips, PlacementPolicy::CacheAware),
        oblivious: plan_policy(&specs, &chips, PlacementPolicy::CacheOblivious),
    }
}

fn policy_json(out: &mut String, key: &str, p: &PolicyResult) {
    let _ = write!(
        out,
        "  \"{key}\": {{\"policy\": \"{}\", \"jobs\": {}, \"placed\": {}, \"rejected\": {}, \
         \"cache_hits\": {}, \"plan_makespan\": {}, \"worst_idle_share\": {}, \
         \"deadline_misses\": {}}}",
        p.policy,
        p.jobs,
        p.placed,
        p.rejected,
        p.cache_hits,
        number(p.plan_makespan),
        number(p.worst_idle_share),
        p.deadline_misses,
    );
}

/// Renders `BENCH_fleet.json`.
pub fn fleet_json(r: &FleetBenchResult) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\n  \"schema_version\": 2,\n  \
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
    out.push_str("\n}\n");
    out
}

/// The CI gate, on the two deterministic plans.
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
        if p.placed + p.rejected != p.jobs {
            return Err(format!(
                "{arm}: {} placed + {} rejected != {} jobs",
                p.placed, p.rejected, p.jobs
            ));
        }
    }
    Ok(())
}

//! The fleet executor: runs a [`SchedulePlan`] concurrently on the
//! worker pool while preserving the plan's per-chip job order exactly.
//!
//! The concurrency model is *plan-then-execute*. Planning already fixed
//! which jobs run on which chips in which order, so execution needs no
//! further scheduling decisions: every planned job knows, for each chip
//! in its cohort, how many earlier planned jobs use that chip (its
//! *ticket*), and simply waits until the chip's completion counter
//! reaches that ticket before starting. Workers pull planned jobs in
//! plan order, so a job's predecessors are always already claimed when
//! it starts waiting — the wait can only be on running work, never on
//! unclaimed work, which makes the spin-wait deadlock-free at any
//! worker count.
//!
//! Job results are deterministic by construction: each job runs on its
//! own [`ClusterRunner`] (fresh, or a pooled one reset to the job's
//! initial state), so its final state is bit-identical to a solo run of
//! the same spec on the same chip cohort no matter what else the fleet
//! executes concurrently.
//!
//! Compiled runners are pooled per chip cohort, and the plan decides
//! every reuse: a planned cache hit takes the cohort's pooled runner
//! (asserting its program key matches), resets its dynamic state, and
//! skips the whole compile + preload phase; a planned fresh placement
//! evicts pooled runners overlapping its cohort and compiles. The
//! executor keeps no residency model of its own, so its hits are the
//! plan's hits.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_sim::ChipConfig;
use rayon::prelude::*;
use wavesim_dg::{Acoustic, Solver, State};
use wavesim_mesh::{Boundary, HexMesh};

use crate::job::{JobId, JobSpec, JobState};
use crate::placement::{plan, PlacementPolicy, SchedulePlan};

/// Fleet shape and scheduling policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The chips the fleet multiplexes jobs onto.
    pub chips: Vec<ChipConfig>,
    /// Placement policy.
    pub policy: PlacementPolicy,
    /// Where the scheduler (not the jobs' chips) is metered; `None` (default) records nothing.
    pub metrics: Option<Arc<pim_metrics::MetricsRegistry>>,
}

impl FleetConfig {
    /// Cache-aware scheduling, unmetered.
    pub fn new(chips: Vec<ChipConfig>) -> Self {
        Self { chips, policy: PlacementPolicy::CacheAware, metrics: None }
    }

    /// Same fleet, different policy.
    pub fn with_policy(mut self, policy: PlacementPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// What happened to one job.
#[derive(Debug)]
pub struct JobOutcome {
    pub id: JobId,
    pub name: String,
    /// Final lifecycle state: `Done` or `Failed`.
    pub state: JobState,
    /// Chip cohort (fleet indices, ascending); empty when rejected.
    pub chips: Vec<usize>,
    /// The cohort's chip configs — everything needed to replay this
    /// job solo on an identical cluster.
    pub chip_configs: Vec<ChipConfig>,
    /// True when the job reused a pooled compiled runner.
    pub cache_hit: bool,
    /// Wall seconds spent waiting for the cohort (ticket wait).
    pub wait_seconds: f64,
    /// Wall seconds building/compiling the runner (0 on a hit).
    pub compile_seconds: f64,
    /// Wall seconds executing the steps.
    pub run_seconds: f64,
    /// Simulated chip seconds the run added.
    pub sim_seconds: f64,
    /// True when the planner flagged the job past its deadline.
    pub deadline_missed: bool,
    /// The final simulation state; `None` for failed jobs.
    pub final_state: Option<State>,
}

impl JobOutcome {
    /// End-to-end wall latency: wait + compile + run.
    pub fn latency_seconds(&self) -> f64 {
        self.wait_seconds + self.compile_seconds + self.run_seconds
    }
}

/// The result of draining the queue.
#[derive(Debug)]
pub struct FleetReport {
    /// One outcome per submitted job, in submit order.
    pub outcomes: Vec<JobOutcome>,
    /// The plan that was executed.
    pub plan: SchedulePlan,
    /// Wall seconds for the whole drain.
    pub wall_seconds: f64,
    /// Completed jobs per wall hour.
    pub jobs_per_hour: f64,
}

/// A compiled runner resident on a chip cohort.
struct PooledRunner {
    program_key: u64,
    runner: ClusterRunner,
}

/// The fleet: submit jobs, then drain the queue through the planner
/// and the concurrent executor.
pub struct Fleet {
    config: FleetConfig,
    queue: Vec<JobSpec>,
}

impl Fleet {
    pub fn new(config: FleetConfig) -> Self {
        assert!(!config.chips.is_empty(), "a fleet needs at least one chip");
        Self { config, queue: Vec::new() }
    }

    /// The fleet's chips.
    pub fn chips(&self) -> &[ChipConfig] {
        &self.config.chips
    }

    /// Enqueues a job; ids are submit order.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.queue.len() as u64);
        if let Some(reg) = &self.config.metrics {
            reg.counter("fleet_jobs_submitted_total", &[]).inc();
            reg.counter("fleet_job_states_total", &[("state", JobState::Queued.name())]).inc();
            reg.gauge("fleet_queue_depth", &[]).set(self.queue.len() as f64 + 1.0);
        }
        self.queue.push(spec);
        id
    }

    /// Jobs waiting to be drained.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Plans the queued jobs and executes the plan on the worker pool.
    /// Returns per-job outcomes in submit order; the queue is empty
    /// afterwards.
    pub fn drain(&mut self) -> FleetReport {
        let specs = std::mem::take(&mut self.queue);
        let t0 = Instant::now();
        let plan = plan(&specs, &self.config.chips, self.config.policy);
        if let Some(reg) = &self.config.metrics {
            reg.counter("fleet_jobs_rejected_total", &[]).add(plan.rejected.len() as u64);
            reg.gauge("fleet_queue_depth", &[]).set(0.0);
        }

        // Per-chip tickets: job i may start on chip c once c's
        // completion counter reaches the number of earlier planned
        // jobs using c.
        let num_chips = self.config.chips.len();
        let mut used = vec![0usize; num_chips];
        let tickets: Vec<Vec<usize>> = plan
            .jobs
            .iter()
            .map(|pj| {
                pj.chips
                    .iter()
                    .map(|&c| {
                        let ticket = used[c];
                        used[c] += 1;
                        ticket
                    })
                    .collect()
            })
            .collect();

        let progress: Vec<AtomicUsize> = (0..num_chips).map(|_| AtomicUsize::new(0)).collect();
        let pool: Mutex<HashMap<Vec<usize>, PooledRunner>> = Mutex::new(HashMap::new());
        let mut slots: Vec<Option<JobOutcome>> = (0..plan.jobs.len()).map(|_| None).collect();
        {
            let (specs, plan, tickets, progress, pool, config) =
                (&specs, &plan, &tickets, &progress, &pool, &self.config);
            slots.par_chunks_mut(1).enumerate().for_each(|(i, slot)| {
                slot[0] = Some(run_planned_job(i, specs, plan, tickets, progress, pool, config));
            });
        }

        // Reassemble in submit order, filling rejected jobs in.
        let mut outcomes: Vec<Option<JobOutcome>> = (0..specs.len()).map(|_| None).collect();
        for (pj, outcome) in plan.jobs.iter().zip(slots) {
            outcomes[pj.job] = outcome;
        }
        for &j in &plan.rejected {
            record_state_transition(&self.config, JobState::Failed);
            outcomes[j] = Some(JobOutcome {
                id: JobId(j as u64),
                name: specs[j].name.clone(),
                state: JobState::Failed,
                chips: Vec::new(),
                chip_configs: Vec::new(),
                cache_hit: false,
                wait_seconds: 0.0,
                compile_seconds: 0.0,
                run_seconds: 0.0,
                sim_seconds: 0.0,
                deadline_missed: false,
                final_state: None,
            });
        }
        let outcomes: Vec<JobOutcome> = outcomes.into_iter().map(Option::unwrap).collect();

        let wall_seconds = t0.elapsed().as_secs_f64();
        let done = outcomes.iter().filter(|o| o.state == JobState::Done).count();
        let jobs_per_hour =
            if wall_seconds > 0.0 { done as f64 * 3600.0 / wall_seconds } else { 0.0 };
        if let Some(reg) = &self.config.metrics {
            reg.gauge("fleet_jobs_per_hour", &[("policy", self.config.policy.name())])
                .set(jobs_per_hour);
        }
        FleetReport { outcomes, plan, wall_seconds, jobs_per_hour }
    }
}

fn record_state_transition(config: &FleetConfig, state: JobState) {
    if let Some(reg) = &config.metrics {
        reg.counter("fleet_job_states_total", &[("state", state.name())]).inc();
    }
}

/// Executes planned job `i`: ticket wait → runner acquisition (pooled
/// or fresh) → run → pool hand-back → progress bump.
fn run_planned_job(
    i: usize,
    specs: &[JobSpec],
    plan: &SchedulePlan,
    tickets: &[Vec<usize>],
    progress: &[AtomicUsize],
    pool: &Mutex<HashMap<Vec<usize>, PooledRunner>>,
    config: &FleetConfig,
) -> JobOutcome {
    let pj = &plan.jobs[i];
    let spec = &specs[pj.job];
    record_state_transition(config, JobState::Placing);

    // Wait for the cohort: every chip must have completed exactly the
    // planned predecessors. Predecessors are earlier in plan order and
    // workers claim jobs in order, so this wait is always on running
    // (never unclaimed) work.
    let t_wait = Instant::now();
    for (&c, &ticket) in pj.chips.iter().zip(&tickets[i]) {
        while progress[c].load(Ordering::Acquire) < ticket {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }
    let wait_seconds = t_wait.elapsed().as_secs_f64();

    // The job's mesh and initial state (data only — programs are a
    // function of the spec's program key, not of the workload).
    let mesh = HexMesh::refinement_level(spec.level, Boundary::Periodic);
    let mut solver =
        Solver::<Acoustic>::uniform(mesh.clone(), spec.order, spec.flux, spec.material);
    solver.set_initial(|v, x| spec.workload.value(v, x));
    let initial = solver.state().clone();

    let chip_configs: Vec<ChipConfig> = pj.chips.iter().map(|&c| config.chips[c]).collect();
    let caps: Vec<_> = chip_configs.iter().map(|c| c.capacity).collect();
    let key = spec.program_key(&caps);

    record_state_transition(config, JobState::Compiling);
    let t_compile = Instant::now();
    let cache_hit = pj.cache_hit;
    let mut runner = if cache_hit {
        // The plan promised this cohort still holds the job's program.
        let p = pool.lock().unwrap().remove(&pj.chips);
        let p =
            p.unwrap_or_else(|| panic!("job {}: planned hit found no pooled runner", spec.name));
        assert_eq!(
            p.program_key, key,
            "job {}: planned hit found another program resident",
            spec.name
        );
        let mut runner = p.runner;
        runner.reset_state(&initial);
        runner
    } else {
        // A fresh program lands on these chips: runners overlapping the
        // cohort no longer describe what is resident.
        pool.lock().unwrap().retain(|cohort, _| cohort.iter().all(|c| !pj.chips.contains(c)));
        let cluster = ClusterConfig::heterogeneous(chip_configs.clone());
        ClusterRunner::new(&mesh, spec.order, spec.flux, spec.material, &initial, spec.dt, cluster)
    };
    let compile_seconds = if cache_hit { 0.0 } else { t_compile.elapsed().as_secs_f64() };

    record_state_transition(config, JobState::Running);
    let t_run = Instant::now();
    let sim_before = runner.elapsed();
    runner.run(spec.steps);
    let final_state = runner.state();
    let sim_seconds = runner.elapsed() - sim_before;
    let run_seconds = t_run.elapsed().as_secs_f64();

    // Hand the runner back *before* releasing the cohort, so the next
    // job on these chips sees the pooled program.
    pool.lock().unwrap().insert(pj.chips.clone(), PooledRunner { program_key: key, runner });
    for &c in &pj.chips {
        progress[c].fetch_add(1, Ordering::Release);
    }

    record_state_transition(config, JobState::Done);
    if let Some(reg) = &config.metrics {
        let outcome = if cache_hit { "cache_hit" } else { "fresh" };
        reg.counter("fleet_placements_total", &[("outcome", outcome)]).inc();
        reg.float_counter("fleet_job_wait_seconds", &[("job", &spec.name)]).add(wait_seconds);
        reg.float_counter("fleet_job_compile_seconds", &[("job", &spec.name)]).add(compile_seconds);
        reg.float_counter("fleet_job_run_seconds", &[("job", &spec.name)]).add(run_seconds);
        if pj.deadline_missed {
            reg.counter("fleet_deadline_misses_total", &[]).inc();
        }
    }

    JobOutcome {
        id: JobId(pj.job as u64),
        name: spec.name.clone(),
        state: JobState::Done,
        chips: pj.chips.clone(),
        chip_configs,
        cache_hit,
        wait_seconds,
        compile_seconds,
        run_seconds,
        sim_seconds,
        deadline_missed: pj.deadline_missed,
        final_state: Some(final_state),
    }
}

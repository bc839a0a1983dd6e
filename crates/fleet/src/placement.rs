//! The placement engine: turns a queue of [`JobSpec`]s and a fleet of
//! heterogeneous chips into a deterministic [`SchedulePlan`].
//!
//! Planning runs on a *virtual* timeline (costs proportional to
//! step-by-element work) rather than reacting to wall-clock completion
//! events, which makes the plan a pure function of (queue, fleet,
//! policy): the same inputs always produce the same placements, cache
//! hits and makespan, independent of host timing.
//!
//! Three policies:
//!
//! * [`PlacementPolicy::CacheAware`] — the full score: cache affinity
//!   (a chip cohort whose resident runner was compiled for a spec with
//!   the job's [`JobSpec::program_key`], i.e. from the same compile
//!   inputs, skips compilation entirely), queue age
//!   (with a deadline urgency multiplier), and capacity balance (small
//!   jobs prefer small chips, keeping big chips open for jobs only
//!   they can host).
//! * [`PlacementPolicy::CacheOblivious`] — the same mechanics and
//!   balance/age terms but affinity weight zero: residency is still
//!   tracked (a job can land on its own program by chance), the scorer
//!   just never steers toward it. The fleet bench's control arm.
//! * [`PlacementPolicy::RoundRobin`] — strict FIFO with a rotating
//!   first-fit chip pointer, the classic baseline the property tests
//!   require the weighted scorer to beat.
//!
//! Beyond the score, the engine applies one hard *capacity
//! reservation* rule: a fresh (non-hit) candidate is deferred when it
//! would squat on chips some other queued job cannot avoid while this
//! job has a placement disjoint from all of that job's options. That
//! is what keeps a stream of small jobs from starving the one big job
//! that only the 8 GB chip can host.

use pim_sim::{ChipCapacity, ChipConfig};

use crate::job::JobSpec;

/// Which placement scorer drives the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    CacheAware,
    CacheOblivious,
    RoundRobin,
}

impl PlacementPolicy {
    /// Label used in metrics and artifacts.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::CacheAware => "cache-aware",
            PlacementPolicy::CacheOblivious => "cache-oblivious",
            PlacementPolicy::RoundRobin => "round-robin",
        }
    }
}

// The placement score is
// `AFFINITY·hit + AGE·(t − arrival)·urgency − BALANCE·waste`. Affinity
// dominates (a hit saves the whole compile), waste is bounded by 1, and
// age is a slow tie-breaker over virtual seconds (which are in
// step·element units, hence the small weight).

/// Reward for landing on a cohort whose resident program matches.
const AFFINITY: f64 = 4.0;
/// Reward per virtual second of queue wait (starvation guard);
/// multiplied by [`DEADLINE_URGENCY`] for jobs with deadlines.
const AGE: f64 = 1e-6;
/// Penalty per unit of wasted capacity fraction (idle blocks of the
/// chosen cohort).
const BALANCE: f64 = 1.0;
/// Age multiplier for jobs with a deadline.
const DEADLINE_URGENCY: f64 = 100.0;

/// One placed job in the plan.
#[derive(Debug, Clone)]
pub struct PlannedJob {
    /// Index into the submitted queue.
    pub job: usize,
    /// The chip cohort (fleet indices, ascending).
    pub chips: Vec<usize>,
    /// True when the cohort's resident program matched the job's
    /// program key, so the plan charges the job no compile cost.
    pub cache_hit: bool,
    /// Virtual start time (placement instant).
    pub start: f64,
    /// Virtual finish time.
    pub finish: f64,
    /// True when the estimated finish overruns `arrival + deadline`.
    pub deadline_missed: bool,
}

/// A complete deterministic schedule.
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    /// Placed jobs in placement order. For any chip, the sub-sequence
    /// of jobs using it is its execution order.
    pub jobs: Vec<PlannedJob>,
    /// Jobs no subset of the fleet can host (admission failures).
    pub rejected: Vec<usize>,
    /// Per-chip busy virtual seconds.
    pub busy: Vec<f64>,
    /// Virtual makespan (latest finish).
    pub makespan: f64,
    /// Number of cache-hit placements.
    pub cache_hits: usize,
}

impl SchedulePlan {
    /// The worst chip's idle share of the makespan,
    /// `max_c (1 − busy_c / makespan)` — the load-balance figure of
    /// merit the property tests compare across policies.
    pub fn worst_idle_share(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.busy.iter().map(|&b| 1.0 - b / self.makespan).fold(0.0, f64::max)
    }
}

/// All `k`-subsets of `0..n`, lexicographic.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 || k > n {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn recurse(
        start: usize,
        n: usize,
        k: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..n {
            current.push(i);
            recurse(i + 1, n, k, current, out);
            current.pop();
        }
    }
    recurse(0, n, k, &mut current, &mut out);
    out
}

/// A compiled program resident on a chip cohort.
struct Resident {
    key: u64,
    cohort: Vec<usize>,
}

/// Shared planner state across both policy branches.
struct Planner<'a> {
    specs: &'a [JobSpec],
    caps: Vec<ChipCapacity>,
    /// Feasible cohorts per job, over the whole fleet, lexicographic.
    feasible: Vec<Vec<Vec<usize>>>,
    free_at: Vec<f64>,
    busy: Vec<f64>,
    residents: Vec<Resident>,
    planned: Vec<PlannedJob>,
}

const EPS: f64 = 1e-9;

impl<'a> Planner<'a> {
    fn new(specs: &'a [JobSpec], chips: &[ChipConfig]) -> Self {
        let caps: Vec<ChipCapacity> = chips.iter().map(|c| c.capacity).collect();
        let feasible = specs
            .iter()
            .map(|spec| {
                combinations(caps.len(), spec.chips_wanted)
                    .into_iter()
                    .filter(|s| spec.fits(&subset_caps(&caps, s)))
                    .collect::<Vec<_>>()
            })
            .collect();
        Self {
            specs,
            caps,
            feasible,
            free_at: vec![0.0; chips.len()],
            busy: vec![0.0; chips.len()],
            residents: Vec::new(),
            planned: Vec::new(),
        }
    }

    fn available(&self, t: f64) -> Vec<usize> {
        (0..self.free_at.len()).filter(|&c| self.free_at[c] <= t + EPS).collect()
    }

    fn is_hit(&self, cohort: &[usize], key: u64) -> bool {
        self.residents.iter().any(|r| r.cohort == cohort && r.key == key)
    }

    /// Fraction of the cohort's blocks the job would leave idle.
    fn waste(&self, job: usize, cohort: &[usize]) -> f64 {
        let caps = subset_caps(&self.caps, cohort);
        let capacity: u64 = caps.iter().map(|c| c.num_blocks()).sum();
        let demand: u64 = self.specs[job].demand_blocks(&caps).map_or(0, |d| d.iter().sum());
        1.0 - demand as f64 / capacity as f64
    }

    /// The capacity-reservation rule: defer fresh candidate `(job,
    /// cohort)` when some other pending job can *only* run through
    /// chips of `cohort` while `job` has an option disjoint from all
    /// of that job's options.
    fn is_deferred(&self, job: usize, cohort: &[usize], pending: &[usize]) -> bool {
        pending.iter().any(|&other| {
            other != job
                && !self.feasible[other].is_empty()
                && self.feasible[other].iter().all(|s| intersects(s, cohort))
                && self.feasible[job]
                    .iter()
                    .any(|mine| self.feasible[other].iter().all(|s| !intersects(s, mine)))
        })
    }

    fn place(&mut self, job: usize, cohort: Vec<usize>, hit: bool, t: f64) {
        let spec = &self.specs[job];
        let compile = if hit { 0.0 } else { spec.est_compile_cost() };
        let dur = compile + spec.est_run_cost();
        let finish = t + dur;
        for &c in &cohort {
            self.free_at[c] = finish;
            self.busy[c] += dur;
        }
        let key = spec.program_key(&subset_caps(&self.caps, &cohort));
        self.residents.retain(|r| !intersects(&r.cohort, &cohort));
        self.residents.push(Resident { key, cohort: cohort.clone() });
        let deadline_missed = spec.deadline.is_some_and(|d| finish > spec.arrival + d);
        self.planned.push(PlannedJob {
            job,
            chips: cohort,
            cache_hit: hit,
            start: t,
            finish,
            deadline_missed,
        });
    }

    fn into_plan(self, rejected: Vec<usize>) -> SchedulePlan {
        let makespan = self.planned.iter().map(|p| p.finish).fold(0.0, f64::max);
        let cache_hits = self.planned.iter().filter(|p| p.cache_hit).count();
        SchedulePlan { jobs: self.planned, rejected, busy: self.busy, makespan, cache_hits }
    }
}

fn subset_caps(caps: &[ChipCapacity], cohort: &[usize]) -> Vec<ChipCapacity> {
    cohort.iter().map(|&c| caps[c]).collect()
}

fn intersects(a: &[usize], b: &[usize]) -> bool {
    a.iter().any(|x| b.contains(x))
}

struct Candidate {
    score: f64,
    job: usize,
    cohort: Vec<usize>,
    hit: bool,
}

/// Keeps `best` if `cand` does not strictly beat it — so ties resolve
/// to the earliest (job, cohort) in iteration order, which is what
/// makes the plan deterministic.
fn take_better(best: &mut Option<Candidate>, cand: Candidate) {
    if best.as_ref().is_none_or(|b| cand.score > b.score + EPS) {
        *best = Some(cand);
    }
}

/// Plans the whole queue. Jobs that fit no subset of the fleet land in
/// [`SchedulePlan::rejected`]; everything else is placed exactly once.
pub fn plan(specs: &[JobSpec], chips: &[ChipConfig], policy: PlacementPolicy) -> SchedulePlan {
    assert!(!chips.is_empty(), "a fleet needs at least one chip");
    let mut planner = Planner::new(specs, chips);
    let rejected: Vec<usize> =
        (0..specs.len()).filter(|&j| planner.feasible[j].is_empty()).collect();
    let admitted: Vec<usize> =
        (0..specs.len()).filter(|&j| !planner.feasible[j].is_empty()).collect();

    match policy {
        PlacementPolicy::RoundRobin => plan_round_robin(&mut planner, &admitted),
        _ => plan_scored(&mut planner, &admitted, policy),
    }
    planner.into_plan(rejected)
}

/// The scored event loop: at each virtual instant, place the best
/// non-deferred candidate among available chips until none remains,
/// then advance to the next chip-free or arrival event. Deferred
/// candidates are force-placed only when the fleet has gone fully idle
/// with nothing arriving — the livelock escape.
fn plan_scored(planner: &mut Planner<'_>, admitted: &[usize], policy: PlacementPolicy) {
    let affinity = match policy {
        PlacementPolicy::CacheAware => AFFINITY,
        _ => 0.0,
    };
    let mut pending: Vec<usize> = admitted.to_vec();
    let mut t = 0.0;
    while !pending.is_empty() {
        loop {
            let avail = planner.available(t);
            let arrived: Vec<usize> =
                pending.iter().copied().filter(|&j| planner.specs[j].arrival <= t + EPS).collect();
            let mut best: Option<Candidate> = None;
            let mut best_deferred: Option<Candidate> = None;
            for &j in &arrived {
                let spec = &planner.specs[j];
                let urgency = if spec.deadline.is_some() { DEADLINE_URGENCY } else { 1.0 };
                for cohort in &planner.feasible[j] {
                    if !cohort.iter().all(|c| avail.contains(c)) {
                        continue;
                    }
                    let key = spec.program_key(&subset_caps(&planner.caps, cohort));
                    let hit = planner.is_hit(cohort, key);
                    let score = affinity * f64::from(u8::from(hit))
                        + AGE * (t - spec.arrival) * urgency
                        - BALANCE * planner.waste(j, cohort);
                    let cand = Candidate { score, job: j, cohort: cohort.clone(), hit };
                    if !hit && planner.is_deferred(j, cohort, &arrived) {
                        take_better(&mut best_deferred, cand);
                    } else {
                        take_better(&mut best, cand);
                    }
                }
            }
            let chosen = best.or_else(|| {
                let all_idle = planner.free_at.iter().all(|&f| f <= t + EPS);
                let none_arriving = arrived.len() == pending.len();
                if all_idle && none_arriving {
                    best_deferred.take()
                } else {
                    None
                }
            });
            match chosen {
                Some(c) => {
                    pending.retain(|&j| j != c.job);
                    planner.place(c.job, c.cohort, c.hit, t);
                }
                None => break,
            }
        }
        if pending.is_empty() {
            break;
        }
        let mut next = f64::INFINITY;
        for &f in &planner.free_at {
            if f > t + EPS {
                next = next.min(f);
            }
        }
        for &j in &pending {
            let a = planner.specs[j].arrival;
            if a > t + EPS {
                next = next.min(a);
            }
        }
        assert!(next.is_finite(), "placement stalled: pending jobs but no future events");
        t = next;
    }
}

/// Strict FIFO with a rotating chip pointer: the queue head waits for
/// the first cyclic window of available chips that fits it, blocking
/// everything behind it — the baseline scheduler the weighted scorer
/// must beat.
fn plan_round_robin(planner: &mut Planner<'_>, admitted: &[usize]) {
    let num_chips = planner.caps.len();
    let mut pointer = 0usize;
    let mut t = 0.0f64;
    for &j in admitted {
        let spec = &planner.specs[j];
        let k = spec.chips_wanted;
        t = t.max(spec.arrival);
        loop {
            let avail = planner.available(t);
            // Cyclic availability order from the pointer.
            let mut cyclic: Vec<usize> = avail.clone();
            cyclic.sort_by_key(|&c| (c + num_chips - pointer % num_chips) % num_chips);
            let mut chosen: Option<Vec<usize>> = None;
            if cyclic.len() >= k {
                // First-fit over contiguous windows of the cyclic list,
                // falling back to any lexicographic subset of the
                // available chips (capacity shapes where no contiguous
                // window fits).
                for offset in 0..cyclic.len() {
                    let mut window: Vec<usize> =
                        (0..k).map(|i| cyclic[(offset + i) % cyclic.len()]).collect();
                    window.sort_unstable();
                    window.dedup();
                    if window.len() == k && spec.fits(&subset_caps(&planner.caps, &window)) {
                        chosen = Some(window);
                        break;
                    }
                }
                if chosen.is_none() {
                    chosen = planner.feasible[j]
                        .iter()
                        .find(|s| s.iter().all(|c| avail.contains(c)))
                        .cloned();
                }
            }
            if let Some(cohort) = chosen {
                pointer = (cohort.iter().max().unwrap() + 1) % num_chips;
                let key = spec.program_key(&subset_caps(&planner.caps, &cohort));
                let hit = planner.is_hit(&cohort, key);
                planner.place(j, cohort, hit, t);
                break;
            }
            let mut next = f64::INFINITY;
            for &f in &planner.free_at {
                if f > t + EPS {
                    next = next.min(f);
                }
            }
            assert!(next.is_finite(), "round-robin stalled: job {j} waits on no event");
            t = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Workload;
    use pim_sim::{ChipCapacity, ChipConfig};

    fn fleet(caps: &[ChipCapacity]) -> Vec<ChipConfig> {
        caps.iter().map(|&capacity| ChipConfig { capacity, ..ChipConfig::default_2gb() }).collect()
    }

    #[test]
    fn combinations_are_lexicographic_and_complete() {
        assert_eq!(combinations(4, 2).len(), 6);
        assert_eq!(combinations(3, 1), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(combinations(3, 2)[0], vec![0, 1]);
        assert!(combinations(2, 3).is_empty());
    }

    #[test]
    fn infeasible_jobs_are_rejected_not_planned() {
        // A level-5 job (32770 blocks) on a fleet of 2 GB chips has no
        // feasible subset.
        let specs = vec![
            JobSpec::new("big", 5, Workload::PlaneX, 1),
            JobSpec::new("small", 2, Workload::PlaneX, 1),
        ];
        let plan = plan(
            &specs,
            &fleet(&[ChipCapacity::Gb2, ChipCapacity::Gb2]),
            PlacementPolicy::CacheAware,
        );
        assert_eq!(plan.rejected, vec![0]);
        assert_eq!(plan.jobs.len(), 1);
        assert_eq!(plan.jobs[0].job, 1);
    }

    #[test]
    fn capacity_reservation_keeps_the_big_chip_for_the_big_job() {
        // Small jobs must not squat on the only chip the level-5 job
        // can use, even though they arrive first in the queue.
        let mut specs = vec![
            JobSpec::new("small-0", 3, Workload::PlaneX, 2),
            JobSpec::new("small-1", 3, Workload::ShearY, 2),
        ];
        specs.push(JobSpec::new("big", 5, Workload::Pulse, 1));
        let plan = plan(
            &specs,
            &fleet(&[ChipCapacity::Gb2, ChipCapacity::Gb8]),
            PlacementPolicy::CacheAware,
        );
        let big = plan.jobs.iter().find(|p| p.job == 2).unwrap();
        assert_eq!(big.chips, vec![1]);
        assert_eq!(big.start, 0.0, "big job must start immediately on the reserved 8GB chip");
        for p in plan.jobs.iter().filter(|p| p.job != 2) {
            assert_eq!(p.chips, vec![0], "small jobs stay on the 2GB chip");
        }
    }

    #[test]
    fn repeated_program_keys_become_cache_hits() {
        // Four identical jobs on one chip: first compiles, the rest
        // hit the resident program.
        let specs: Vec<JobSpec> =
            (0..4).map(|i| JobSpec::new(format!("j{i}"), 2, Workload::Pulse, 2)).collect();
        let plan = plan(&specs, &fleet(&[ChipCapacity::Gb2]), PlacementPolicy::CacheAware);
        assert_eq!(plan.cache_hits, 3);
        assert!(!plan.jobs[0].cache_hit);
        assert!(plan.jobs[1..].iter().all(|p| p.cache_hit));
    }

    #[test]
    fn deadline_jobs_outrank_older_queue_mates() {
        // Both jobs want the single chip; the deadline job wins the
        // age tie-break through its urgency multiplier once both have
        // waited behind the first placement.
        let mut filler = JobSpec::new("filler", 3, Workload::PlaneX, 4);
        filler.arrival = 0.0;
        let mut relaxed = JobSpec::new("relaxed", 3, Workload::ShearY, 4);
        relaxed.arrival = 1.0;
        let mut urgent = JobSpec::new("urgent", 3, Workload::Pulse, 4);
        urgent.arrival = 2.0;
        urgent.deadline = Some(1e6);
        let specs = vec![filler, relaxed, urgent];
        let plan = plan(&specs, &fleet(&[ChipCapacity::Gb2]), PlacementPolicy::CacheOblivious);
        let order: Vec<usize> = plan.jobs.iter().map(|p| p.job).collect();
        assert_eq!(order[0], 0, "filler takes the chip first");
        assert_eq!(order[1], 2, "the deadline job jumps the older relaxed job");
    }
}

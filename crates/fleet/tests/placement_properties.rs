//! Property tests for the placement engine. Three contracts:
//!
//! * **Capacity**: no planned placement ever exceeds any chip's block
//!   capacity under the demand model, no two jobs overlap in time on
//!   the same chip, and rejected jobs are exactly the infeasible ones.
//! * **Determinism**: the plan is a pure function of (queue, fleet,
//!   policy) — replanning the same inputs reproduces every
//!   placement bit-for-bit.
//! * **Quality**: on a mixed 2 GB + 8 GB fleet the weighted scorer
//!   strictly beats the round-robin baseline on the worst chip's idle
//!   share of the makespan.

use pim_fleet::{plan, JobSpec, PlacementPolicy, Workload};
use pim_sim::{ChipCapacity, ChipConfig};
use proptest::collection::vec;
use proptest::prelude::*;

fn fleet(caps: &[ChipCapacity]) -> Vec<ChipConfig> {
    caps.iter().map(|&capacity| ChipConfig { capacity, ..ChipConfig::default_2gb() }).collect()
}

/// A random job: mixed levels (including level 5, which only an 8 GB
/// chip can host solo), workloads, step budgets, chip asks, arrivals,
/// and the occasional deadline.
fn jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    let job = (0usize..5, 0usize..4, 1usize..6, 0usize..3, 0u64..3, 0usize..4).prop_map(
        |(shape, workload, steps, chips, arrival, deadline)| {
            let (level, chips_wanted) = match shape {
                0 => (2, 1),
                1 => (2, chips + 1),
                2 => (3, 1),
                3 => (3, chips + 1),
                _ => (5, 1),
            };
            let mut spec = JobSpec::new(
                format!("p{shape}-{workload}-{steps}"),
                level,
                Workload::ALL[workload],
                steps,
            );
            spec.chips_wanted = chips_wanted;
            spec.arrival = arrival as f64 * 100.0;
            spec.deadline = (deadline == 0).then_some(1e7);
            spec
        },
    );
    vec(job, 1..10)
}

fn policies() -> impl Strategy<Value = PlacementPolicy> {
    prop_oneof![
        Just(PlacementPolicy::CacheAware),
        Just(PlacementPolicy::CacheOblivious),
        Just(PlacementPolicy::RoundRobin),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn placements_respect_capacity_and_exclusivity(case in (jobs(), policies())) {
        let (specs, policy) = case;
        let chips = fleet(&[
            ChipCapacity::Gb2,
            ChipCapacity::Gb8,
            ChipCapacity::Gb2,
            ChipCapacity::Gb16,
        ]);
        let p = plan(&specs, &chips, policy);

        // Every job is placed once or rejected once.
        let mut seen = vec![0usize; specs.len()];
        for pj in &p.jobs {
            seen[pj.job] += 1;
        }
        for &j in &p.rejected {
            seen[j] += 1;
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "jobs placed/rejected != once: {seen:?}");

        for pj in &p.jobs {
            let spec = &specs[pj.job];
            // Cohort shape: right size, sorted, in range.
            prop_assert_eq!(pj.chips.len(), spec.chips_wanted);
            prop_assert!(pj.chips.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(pj.chips.iter().all(|&c| c < chips.len()));
            // Block demand fits every chip of the cohort.
            let caps: Vec<ChipCapacity> =
                pj.chips.iter().map(|&c| chips[c].capacity).collect();
            let demand = spec.demand_blocks(&caps).expect("planned job must be feasible");
            for (&d, cap) in demand.iter().zip(&caps) {
                prop_assert!(
                    d <= cap.num_blocks(),
                    "job {} demands {d} blocks of a {}-block chip",
                    spec.name,
                    cap.num_blocks()
                );
            }
            // Jobs never start before they arrive.
            prop_assert!(pj.start >= spec.arrival - 1e-9);
        }

        // Temporal exclusivity: each chip runs at most one job at a time.
        for c in 0..chips.len() {
            let mut windows: Vec<(f64, f64)> = p
                .jobs
                .iter()
                .filter(|pj| pj.chips.contains(&c))
                .map(|pj| (pj.start, pj.finish))
                .collect();
            windows.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in windows.windows(2) {
                prop_assert!(
                    w[0].1 <= w[1].0 + 1e-9,
                    "chip {c} double-booked: {:?} overlaps {:?}",
                    w[0],
                    w[1]
                );
            }
        }

        // Rejected = infeasible on the whole fleet.
        for &j in &p.rejected {
            let all_caps: Vec<ChipCapacity> = chips.iter().map(|c| c.capacity).collect();
            prop_assert!(
                !subsets_of(&all_caps, specs[j].chips_wanted)
                    .iter()
                    .any(|s| specs[j].fits(s)),
                "rejected job {} has a feasible subset",
                specs[j].name
            );
        }
    }

    #[test]
    fn plans_are_deterministic(case in (jobs(), policies())) {
        let (specs, policy) = case;
        let chips = fleet(&[ChipCapacity::Gb2, ChipCapacity::Gb8, ChipCapacity::Gb2]);
        let a = plan(&specs, &chips, policy);
        let b = plan(&specs, &chips, policy);
        prop_assert_eq!(a.jobs.len(), b.jobs.len());
        prop_assert_eq!(&a.rejected, &b.rejected);
        prop_assert_eq!(a.cache_hits, b.cache_hits);
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            prop_assert_eq!(x.job, y.job);
            prop_assert_eq!(&x.chips, &y.chips);
            prop_assert_eq!(x.cache_hit, y.cache_hit);
            prop_assert_eq!(x.start.to_bits(), y.start.to_bits());
            prop_assert_eq!(x.finish.to_bits(), y.finish.to_bits());
        }
    }

    #[test]
    fn weighted_scorer_beats_round_robin_on_worst_chip_idle(case in (2usize..6, 2usize..4)) {
        // k small level-3 jobs ahead of m level-5 jobs that only the
        // 8 GB chip can host. Round-robin's rotating pointer sprays the
        // small jobs across both chips and its FIFO head blocks behind
        // the big ones; the weighted scorer keeps small jobs on the
        // 2 GB chip (balance term + capacity reservation), so the big
        // chip works the whole makespan and the worst idle share drops.
        let (k, m) = case;
        let mut specs = Vec::new();
        for i in 0..k {
            // Distinct dt per job keeps program keys distinct, so the
            // comparison measures load balance, not cache luck.
            let mut s = JobSpec::new(format!("small-{i}"), 3, Workload::ALL[i % 4], 4);
            s.dt = 1e-3 * (i + 1) as f64;
            specs.push(s);
        }
        for i in 0..m {
            let mut s = JobSpec::new(format!("big-{i}"), 5, Workload::ALL[i % 4], 4);
            s.dt = 1e-4 * (i + 1) as f64;
            specs.push(s);
        }
        let chips = fleet(&[ChipCapacity::Gb2, ChipCapacity::Gb8]);
        let weighted = plan(&specs, &chips, PlacementPolicy::CacheAware);
        let rr = plan(&specs, &chips, PlacementPolicy::RoundRobin);
        prop_assert!(weighted.rejected.is_empty());
        prop_assert!(rr.rejected.is_empty());
        let (wi, ri) = (weighted.worst_idle_share(), rr.worst_idle_share());
        prop_assert!(
            wi < ri,
            "weighted worst idle {wi:.6} must strictly beat round-robin {ri:.6} (k={k}, m={m})"
        );
    }
}

/// All `chips_wanted`-subsets of the fleet capacities.
fn subsets_of(caps: &[ChipCapacity], k: usize) -> Vec<Vec<ChipCapacity>> {
    fn recurse(
        caps: &[ChipCapacity],
        start: usize,
        k: usize,
        cur: &mut Vec<ChipCapacity>,
        out: &mut Vec<Vec<ChipCapacity>>,
    ) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..caps.len() {
            cur.push(caps[i]);
            recurse(caps, i + 1, k, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    recurse(caps, 0, k, &mut Vec::new(), &mut out);
    out
}

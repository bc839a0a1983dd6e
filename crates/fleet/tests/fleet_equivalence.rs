//! The fleet's correctness contract: multiplexing must be invisible in
//! the results.
//!
//! * Every fleet-scheduled job's final state is **bit-identical** to a
//!   solo [`ClusterRunner`] run of the same spec on an identical chip
//!   cohort — concurrency, runner pooling, and `reset_state` reuse
//!   change wall-clock, never numerics.
//! * Every job stays within 1e-12 of the native dG solver.
//! * Jobs with equal replay keys produce byte-identical final states
//!   (the regression the spec-level content keys promise), and equal
//!   *program* keys compile to runners with equal
//!   [`ClusterRunner::program_content_key`] — the agreement that makes
//!   cache-affinity scoring sound.

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_fleet::{Fleet, FleetConfig, JobSpec, JobState, Workload};
use pim_sim::{ChipCapacity, ChipConfig};
use wavesim_dg::{Acoustic, Solver, State};
use wavesim_mesh::{Boundary, HexMesh};

fn chip(capacity: ChipCapacity) -> ChipConfig {
    ChipConfig { capacity, ..ChipConfig::default_2gb() }
}

/// The same mesh + initial-state construction the scheduler uses.
fn native_solver(spec: &JobSpec) -> (HexMesh, Solver<Acoustic>) {
    let mesh = HexMesh::refinement_level(spec.level, Boundary::Periodic);
    let mut solver =
        Solver::<Acoustic>::uniform(mesh.clone(), spec.order, spec.flux, spec.material);
    let workload = spec.workload;
    solver.set_initial(move |v, x| workload.value(v, x));
    (mesh, solver)
}

/// A fresh single-job run on an identical chip cohort — the reference
/// the fleet must reproduce exactly.
fn solo_run(spec: &JobSpec, chip_configs: &[ChipConfig]) -> State {
    let (mesh, solver) = native_solver(spec);
    let mut runner = ClusterRunner::new(
        &mesh,
        spec.order,
        spec.flux,
        spec.material,
        solver.state(),
        spec.dt,
        ClusterConfig::heterogeneous(chip_configs.to_vec()),
    );
    runner.run(spec.steps);
    runner.state()
}

#[test]
fn fleet_jobs_are_bit_identical_to_solo_runs_and_track_native_dg() {
    let mut fleet =
        Fleet::new(FleetConfig::new(vec![chip(ChipCapacity::Gb2), chip(ChipCapacity::Gb8)]));

    let mut specs = vec![
        JobSpec::new("pulse-a", 2, Workload::Pulse, 2),
        JobSpec::new("tones", 3, Workload::MixedTones, 2),
        // Same replay key as pulse-a: must land as a cache hit and
        // still produce a byte-identical state.
        JobSpec::new("pulse-b", 2, Workload::Pulse, 2),
    ];
    // A sharded job exercising the multi-chip heterogeneous path.
    let mut wide = JobSpec::new("wide", 2, Workload::ShearY, 2);
    wide.chips_wanted = 2;
    specs.push(wide);
    // An impossible ask: admission must fail it, not wedge the queue.
    let mut hopeless = JobSpec::new("hopeless", 1, Workload::PlaneX, 1);
    hopeless.chips_wanted = 3;
    specs.push(hopeless);

    for spec in &specs {
        fleet.submit(spec.clone());
    }
    let report = fleet.drain();
    assert_eq!(report.outcomes.len(), specs.len());

    for (spec, outcome) in specs.iter().zip(&report.outcomes) {
        if spec.name == "hopeless" {
            assert_eq!(outcome.state, JobState::Failed, "3 chips > fleet size must fail");
            assert!(outcome.final_state.is_none());
            continue;
        }
        assert_eq!(outcome.state, JobState::Done, "job {} did not finish", spec.name);
        let fleet_state = outcome.final_state.as_ref().unwrap();

        // Bit-identical to a fresh solo run on the same cohort.
        let solo = solo_run(spec, &outcome.chip_configs);
        let diff = fleet_state.max_abs_diff(&solo);
        assert_eq!(
            diff, 0.0,
            "job {} diverged from its solo replay by {diff:e} (chips {:?})",
            spec.name, outcome.chips
        );

        // And within discretization-roundoff of the native solver.
        let (_, mut reference) = native_solver(spec);
        reference.run(spec.dt, spec.steps);
        let native_diff = fleet_state.max_abs_diff(reference.state());
        assert!(native_diff <= 1e-12, "job {} diverged from native dG: {native_diff:e}", spec.name);
    }

    // pulse-a and pulse-b share a replay key on any one-chip cohort of
    // equal capacity; the fleet must have reused the resident program
    // (cache hit) and reproduced the state byte-for-byte.
    let a = &report.outcomes[0];
    let b = &report.outcomes[2];
    assert_eq!(
        a.chip_configs, b.chip_configs,
        "equal-key jobs should gravitate to the same cohort"
    );
    assert!(b.cache_hit, "the second equal-key job must reuse the resident program");
    assert_eq!(b.compile_seconds, 0.0, "a cache hit pays no compile time");
    let diff = a.final_state.as_ref().unwrap().max_abs_diff(b.final_state.as_ref().unwrap());
    assert_eq!(diff, 0.0, "equal replay keys must replay byte-identically, got {diff:e}");
    assert!(report.plan.cache_hits >= 1);
}

#[test]
fn spec_program_keys_agree_with_compiled_program_content_keys() {
    // Two specs that differ only in workload and step budget share a
    // program key — and their compiled runners carry identical
    // instruction streams, witnessed by the runner's content key.
    let caps = [ChipCapacity::Gb2];
    let configs = [chip(ChipCapacity::Gb2)];
    let a = JobSpec::new("a", 2, Workload::Pulse, 2);
    let mut b = JobSpec::new("b", 2, Workload::MixedTones, 5);
    b.chips_wanted = 1;
    assert_eq!(a.program_key(&caps), b.program_key(&caps));
    assert_ne!(a.replay_key(&caps), b.replay_key(&caps));

    let build = |spec: &JobSpec| {
        let (mesh, solver) = native_solver(spec);
        ClusterRunner::new(
            &mesh,
            spec.order,
            spec.flux,
            spec.material,
            solver.state(),
            spec.dt,
            ClusterConfig::heterogeneous(configs.to_vec()),
        )
    };
    let key_a = build(&a).program_content_key();
    let key_b = build(&b).program_content_key();
    assert_eq!(key_a, key_b, "equal program keys must compile to identical programs");

    // A different mesh level is a different program at both levels of
    // keying.
    let c = JobSpec::new("c", 3, Workload::Pulse, 2);
    assert_ne!(a.program_key(&caps), c.program_key(&caps));
    assert_ne!(key_a, build(&c).program_content_key());
}

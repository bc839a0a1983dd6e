//! The guarantee a cache-affinity hit relies on: a runner built for one
//! spec replays any spec with an equal *program* key, after
//! [`ClusterRunner::reset_state`], bit-identically to a fresh runner.

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_fleet::{JobSpec, Workload};
use pim_sim::{ChipCapacity, ChipConfig};
use wavesim_dg::{Acoustic, Solver};
use wavesim_mesh::{Boundary, HexMesh};

fn chip(capacity: ChipCapacity) -> ChipConfig {
    ChipConfig { capacity, ..ChipConfig::default_2gb() }
}

/// The job's mesh and a native solver holding its initial state.
fn native_solver(spec: &JobSpec) -> (HexMesh, Solver<Acoustic>) {
    let mesh = HexMesh::refinement_level(spec.level, Boundary::Periodic);
    let mut solver =
        Solver::<Acoustic>::uniform(mesh.clone(), spec.order, spec.flux, spec.material);
    let workload = spec.workload;
    solver.set_initial(move |v, x| workload.value(v, x));
    (mesh, solver)
}

#[test]
fn equal_program_keys_replay_bit_identically_on_a_reset_runner() {
    // Two specs that differ only in workload and step budget share a
    // program key, so a runner that served one must replay the other
    // exactly as a runner compiled for it would.
    let caps = [ChipCapacity::Gb2];
    let configs = [chip(ChipCapacity::Gb2)];
    let a = JobSpec::new("a", 2, Workload::Pulse, 2);
    let mut b = JobSpec::new("b", 2, Workload::MixedTones, 5);
    b.chips_wanted = 1;
    assert_eq!(a.program_key(&caps), b.program_key(&caps));
    // A different mesh level is a different program.
    assert_ne!(a.program_key(&caps), JobSpec::new("c", 3, Workload::Pulse, 2).program_key(&caps));

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
    let mut pooled = build(&a);
    pooled.run(a.steps);
    pooled.reset_state(native_solver(&b).1.state());
    pooled.run(b.steps);

    let mut fresh = build(&b);
    fresh.run(b.steps);
    let (reused, fresh) = (pooled.state(), fresh.state());
    assert_eq!(reused.as_slice().len(), fresh.as_slice().len());
    for (i, (x, y)) in reused.as_slice().iter().zip(fresh.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "value {i}: reused {x:e}, fresh {y:e}");
    }
}

//! `Solver::step` must give bit-identical results at any worker count.
//! `rayon::set_num_threads` is process-wide, so this file holds a single
//! test: the bit-identity tests in `fused_stage.rs` then run at the
//! environment's thread count.

mod common;

use common::{acoustic, bits, elastic, make_solver, STEPS};
use wavesim_dg::{Acoustic, Elastic, FluxKind};
use wavesim_mesh::Boundary;

#[test]
fn fused_step_is_bit_identical_at_one_and_two_workers() {
    let run = |threads: usize| {
        rayon::set_num_threads(threads);
        let mut acoustic_solver =
            make_solver::<Acoustic>(3, FluxKind::Riemann, Boundary::Wall, acoustic);
        let mut elastic_solver =
            make_solver::<Elastic>(2, FluxKind::Riemann, Boundary::Periodic, elastic);
        let (da, de) = (acoustic_solver.stable_dt(0.3), elastic_solver.stable_dt(0.3));
        acoustic_solver.run(da, STEPS);
        elastic_solver.run(de, STEPS);
        rayon::set_num_threads(0);
        [
            bits(acoustic_solver.state()),
            bits(acoustic_solver.auxiliaries()),
            bits(elastic_solver.state()),
            bits(elastic_solver.auxiliaries()),
        ]
    };
    assert!(run(1) == run(2), "fused step depends on the worker count");
}

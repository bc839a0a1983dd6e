//! Math-placement modes: equivalence, determinism, and accounting.
//!
//! The placement switch must be a *pricing and placement* lever with a
//! documented accuracy contract — never an uncontrolled numerics lever:
//!
//! * `Off` (default) and `Host` preload identical host-exact constants,
//!   so their states are bit-identical; `Host` only prices the per-stage
//!   preprocess + constants-refresh window that `Off` inherits for free.
//! * `OnPim` replaces the host constants with the fixed-point LUT +
//!   Newton sequence, whose divergence from the native solver is bounded
//!   by `CLUSTER_MATH_BOUND`.
//! * Whatever the mode, results are bit-identical across worker counts.

use pim_cluster::{ClusterConfig, ClusterProtocol, ClusterRunner};
use pim_math::{MathConfig, MathPlacement, CLUSTER_MATH_BOUND};
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver, State};
use wavesim_mesh::{Boundary, HexMesh};

fn native(mesh: &HexMesh, n: usize, material: AcousticMaterial) -> Solver<Acoustic> {
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

/// One level-3 cluster run under `math`, returning the runner (for its
/// accounting) and the native reference state after the same steps.
fn run_math(
    chips: usize,
    math: MathConfig,
    threads: usize,
    steps: usize,
) -> (ClusterRunner, State) {
    run_config(ClusterConfig::new(chips).with_math(math), threads, steps)
}

/// [`run_math`] on an explicit cluster configuration.
fn run_config(config: ClusterConfig, threads: usize, steps: usize) -> (ClusterRunner, State) {
    let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
    let n = 2;
    let material = AcousticMaterial::new(2.0, 1.0); // κρ = 2, ρ = 1: in table range
    let dt = 1e-3;
    let mut reference = native(&mesh, n, material);

    rayon::set_num_threads(threads);
    let mut cluster =
        ClusterRunner::new(&mesh, n, FluxKind::Riemann, material, reference.state(), dt, config);
    cluster.run(steps);
    reference.run(dt, steps);
    rayon::set_num_threads(0);

    (cluster, reference.state().clone())
}

#[test]
fn host_mode_prices_the_gate_without_touching_numerics() {
    let steps = 2;
    let (mut off, _) = run_math(2, MathConfig::off(), 4, steps);
    let (mut host, _) = run_math(2, MathConfig::host(), 4, steps);

    assert_eq!(
        off.state().as_slice(),
        host.state().as_slice(),
        "Host mode must only price the window, never perturb the state"
    );
    assert!(off.math_placements().iter().all(Option::is_none));
    assert_eq!(off.math_stats().host_seconds_per_stage(), 0.0, "Off charges nothing");
    assert!(
        host.math_placements().iter().all(|p| *p == Some(MathPlacement::all_host())),
        "Host mode pins every op to the host"
    );
    assert!(host.math_stats().host_seconds_per_stage() > 0.0);
    assert!(host.math_stats().exposed_seconds_per_stage() > 0.0);
    assert_eq!(host.math_stats().onpim_seconds_per_stage(), 0.0);
}

#[test]
fn on_pim_math_stays_within_the_documented_bound_of_native() {
    let steps = 2;
    let (mut cluster, reference) = run_math(2, MathConfig::on_pim(), 4, steps);

    assert!(
        cluster.math_placements().iter().all(|p| p.is_some_and(|p| !p.any_host())),
        "in-range acoustic operands must fully move on-PIM: {:?}",
        cluster.math_placements()
    );
    let diff = cluster.state().max_abs_diff(&reference);
    assert!(
        diff <= CLUSTER_MATH_BOUND,
        "on-PIM math diverged from native dG beyond the documented bound: {diff:e}"
    );
    let stats = cluster.math_stats();
    assert!(stats.onpim_seconds_per_stage() > 0.0, "refine fragments must take chip time");
    assert_eq!(
        stats.exposed_seconds_per_stage(),
        0.0,
        "fully PIM-placed math must expose no host window"
    );
}

#[test]
fn on_pim_math_is_bit_identical_across_workers() {
    let steps = 2;
    let (mut one, _) = run_math(2, MathConfig::on_pim(), 1, steps);
    let (mut four, _) = run_math(2, MathConfig::on_pim(), 4, steps);
    assert_eq!(
        one.state().as_slice(),
        four.state().as_slice(),
        "on-PIM math state depends on the worker count"
    );
}

#[test]
fn single_chip_on_pim_skips_the_offchip_fence_and_stays_correct() {
    let steps = 2;
    // One chip, everything on-PIM: the per-stage off-chip fence carries
    // no host round-trip and is skipped. The state must still match the
    // native solver within the math bound, and stay bit-identical to the
    // multi-chip on-PIM run's determinism contract (same mode, its own
    // stream — checked against native rather than bitwise, since the
    // partitioning differs).
    // Both protocols take the same skip.
    for protocol in [ClusterProtocol::Fenced, ClusterProtocol::Pipelined] {
        let config = ClusterConfig::new(1).with_math(MathConfig::on_pim()).with_protocol(protocol);
        let (mut cluster, reference) = run_config(config, 4, steps);
        assert!(cluster.math_placements()[0].is_some_and(|p| !p.any_host()));
        let diff = cluster.state().max_abs_diff(&reference);
        assert!(
            diff <= CLUSTER_MATH_BOUND,
            "{protocol:?}: fence-skipped single-chip run diverged: {diff:e}"
        );
    }
}

#[test]
fn auto_mode_keeps_small_shards_on_the_host() {
    // 512 elements over 2 chips sits far below the ~1.3K-element
    // crossover, so the cost model must keep the host placement — and
    // with it, the exact constants.
    let steps = 1;
    let (mut auto, _) = run_math(2, MathConfig::auto(), 4, steps);
    let (mut off, _) = run_math(2, MathConfig::off(), 4, steps);

    assert!(
        auto.math_placements().iter().all(|p| *p == Some(MathPlacement::all_host())),
        "small shards must resolve to the host: {:?}",
        auto.math_placements()
    );
    assert_eq!(
        auto.state().as_slice(),
        off.state().as_slice(),
        "host-resolved Auto must preload the exact constants"
    );
    for d in auto.math_decisions() {
        assert!(d.sqrt_supported && d.recip_supported, "operands are in table range");
        assert!(d.chosen_stage.seconds <= d.host_stage.seconds + 1e-18);
    }
}

//! The transcendental-placement study behind `BENCH_math.json`: how
//! accurate the on-PIM LUT + Newton sequences are, what one op-site
//! costs per stage under each placement, and what moving the math
//! on-PIM does to the cluster's exposed host-preprocess window.
//!
//! Three sections:
//!
//! 1. **ULP sweep** — `√x` and `1/x` over the full supported operand
//!    range at 0 (seed only), 2 (first stage) and 4 (second stage)
//!    Newton iterations, measured in f32 ULPs against the correctly
//!    rounded f64 reference.
//! 2. **Per-op cost** — one op-site's per-stage latency/energy on the
//!    host (preprocess + constants-refresh DMA, from the analytic host
//!    model) vs the measured LUT-only setup fragment vs the measured
//!    LUT + Newton stage fragment, executed on a real simulated chip.
//! 3. **Cluster arms** — the same mesh run under `Host`, `OnPim` and
//!    `Auto` modes against the native dG solver: per-stage exposed
//!    host-math window before/after, per-stage makespan, and state
//!    divergence.
//!
//! [`check_math`] is the CI gate: accuracy within [`ULP_BOUND`] from the
//! first stage on, the fully PIM-placed run must expose *zero* host-math
//! window (strictly less than the host arm's), state divergence within
//! the documented bounds, and — whenever the cost model itself picks an
//! on-PIM placement — no per-stage critical-path or energy regression.

use std::fmt::Write as _;

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_isa::{BlockId, Instr, InstrStream, WORDS_PER_ROW};
use pim_math::{
    eval, table, ulp, CostModel, MathConfig, MathPlacement, MathSite, Placement, RecipDest,
    SiteParams, SqrtDest, CLUSTER_MATH_BOUND, OPERAND_HI, OPERAND_LO, TABLE_ENTRIES, ULP_BOUND,
};
use pim_sim::{ChipConfig, EnergyLedger, OpCost, PimChip};
use pim_trace::json::number;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

/// What the study runs. `full()` is the acceptance configuration,
/// `smoke()` the CI gate.
#[derive(Debug, Clone)]
pub struct MathBenchConfig {
    /// Mesh refinement level of the cluster arms.
    pub level: u32,
    /// Cluster size. `full()` uses 4 chips at level 5 (8192 elements
    /// per chip — above the host/PIM crossover, so `Auto` moves
    /// on-PIM); `smoke()` sits below it and documents `Auto` staying
    /// on the host.
    pub chips: usize,
    /// Time steps per cluster arm.
    pub steps: usize,
    /// Operand samples of the ULP sweep.
    pub ulp_samples: usize,
}

impl MathBenchConfig {
    /// The acceptance configuration (level-5 mesh on 4 chips).
    pub fn full() -> Self {
        Self { level: 5, chips: 4, steps: 1, ulp_samples: 4096 }
    }

    /// The CI smoke configuration: small enough for a debug runner.
    pub fn smoke() -> Self {
        Self { level: 3, chips: 2, steps: 2, ulp_samples: 512 }
    }
}

/// One row of the accuracy table.
#[derive(Debug, Clone, Copy)]
pub struct UlpRow {
    /// Newton iterations applied to the table seed (0 = LUT only).
    pub iters: u32,
    pub sqrt_max: f64,
    pub sqrt_mean: f64,
    pub recip_max: f64,
    pub recip_mean: f64,
}

/// One op's cost row: host model vs measured chip fragments.
#[derive(Debug, Clone, Copy)]
pub struct OpCostRow {
    pub op: &'static str,
    /// Host preprocess + constants-refresh DMA, per stage (analytic).
    pub host: OpCost,
    /// The one-time range-reduction + `Lut` seed fetch fragment
    /// (measured on a simulated chip; the joules of its on-PIM work,
    /// host dispatch excluded).
    pub lut_only: OpCost,
    /// The per-stage Newton refinement + finalize fragment (measured
    /// the same way).
    pub lut_newton: OpCost,
}

/// One cluster run's measurements under a math mode.
#[derive(Debug, Clone)]
pub struct ClusterArm {
    pub mode: &'static str,
    /// Resolved per-chip placements ("off", "host", "sqrt-pim", …).
    pub placements: Vec<String>,
    pub host_seconds_per_stage: f64,
    /// Host-math window actually *exposed* on the stage critical path.
    pub exposed_seconds_per_stage: f64,
    pub onpim_seconds_per_stage: f64,
    /// Simulated per-stage makespan of the whole cluster step loop.
    pub makespan_per_stage: f64,
    /// Max |cluster − native dG| after the run.
    pub native_diff: f64,
    /// Cost-model per-stage joules with everything on the host (summed
    /// over chips).
    pub host_stage_joules: f64,
    /// Cost-model per-stage joules under the resolved placement.
    pub chosen_stage_joules: f64,
    /// True when every chip's resolved placement has no host residue.
    pub fully_onpim: bool,
}

/// Everything `BENCH_math.json` reports.
#[derive(Debug, Clone)]
pub struct MathBenchResult {
    pub level: u32,
    pub chips: usize,
    pub steps: usize,
    pub elems_per_chip: usize,
    pub ulp_samples: usize,
    pub ulp: Vec<UlpRow>,
    pub per_op: Vec<OpCostRow>,
    pub host_arm: ClusterArm,
    pub onpim_arm: ClusterArm,
    pub auto_arm: ClusterArm,
    /// `host_arm.exposed − onpim_arm.exposed`, per stage: what the
    /// placement removes from the critical path.
    pub exposed_reduction_per_stage: f64,
    pub ulp_bound: f64,
    pub cluster_math_bound: f64,
}

// ---- section 1: ULP sweep ----

fn ulp_row(iters: u32, samples: usize) -> UlpRow {
    let mut row = UlpRow { iters, sqrt_max: 0.0, sqrt_mean: 0.0, recip_max: 0.0, recip_mean: 0.0 };
    let n = samples.max(2);
    let mut count = 0.0;
    for i in 0..n {
        // Deterministic uniform sweep, endpoints included.
        let x = OPERAND_LO + (OPERAND_HI - OPERAND_LO) * i as f64 / (n - 1) as f64;
        let sq = ulp::ulp_error(eval::sqrt_eval(x, iters).expect("in range"), x.sqrt());
        let rc = ulp::ulp_error(eval::recip_eval(x, iters).expect("in range"), 1.0 / x);
        row.sqrt_max = row.sqrt_max.max(sq);
        row.recip_max = row.recip_max.max(rc);
        row.sqrt_mean += sq;
        row.recip_mean += rc;
        count += 1.0;
    }
    row.sqrt_mean /= count;
    row.recip_mean /= count;
    row
}

/// The accuracy table: seed only, first stage (2 iterations), second
/// stage (4 iterations, in-place refinement).
pub fn ulp_table(samples: usize) -> Vec<UlpRow> {
    [0u32, 2, 4].iter().map(|&iters| ulp_row(iters, samples)).collect()
}

// ---- section 2: per-op fragment costs ----

/// Executes one op-site's setup and stage fragments on a real simulated
/// chip and returns, per fragment, its measured elapsed seconds and the
/// joules of its on-PIM work: the sum of the dynamic ledger fields but
/// the host lane, which pays for feeding the instructions, not for
/// running them. Each field's delta is taken on its own; subtracting the
/// host delta from the dynamic total would cancel about three digits,
/// as the host lane is some 660× the rest.
fn measured_fragments(p: MathPlacement) -> [OpCost; 2] {
    let mut chip = PimChip::new(ChipConfig::default_2gb());
    let math_block = BlockId(1);
    for i in 0..TABLE_ENTRIES {
        chip.block_mut(math_block).set(i / WORDS_PER_ROW, i % WORDS_PER_ROW, table::seed_at(i));
    }
    let site = MathSite { block: BlockId(0), row: 514, aux_row: 515, math_block: math_block.0 };
    for (row, col, v) in site.staged_values(p, 2.0, 1.0) {
        chip.block_mut(site.block).set(row as usize, col as usize, v);
    }
    chip.block_mut(site.block).set(site.row as usize, 4, -1.0); // neg_jac for the finalize

    let mut setup = InstrStream::new();
    site.emit_setup(&mut setup, p);
    setup.push(Instr::Sync);
    let snapshot = |chip: &PimChip| (chip.elapsed(), *chip.ledger());
    let s0 = snapshot(&chip);
    chip.execute(&setup);
    let s1 = snapshot(&chip);

    let mut stage = InstrStream::new();
    site.emit_stage(
        &mut stage,
        p,
        (p.sqrt == Placement::OnPim).then_some(SqrtDest { col: 3 }),
        (p.reciprocal == Placement::OnPim).then_some(RecipDest {
            inv_col: 7,
            neg_jac_col: 4,
            neg_col: 1,
        }),
    );
    stage.push(Instr::Sync);
    chip.execute(&stage);
    let s2 = snapshot(&chip);

    let delta = |(t0, l0): (f64, EnergyLedger), (t1, l1): (f64, EnergyLedger)| OpCost {
        seconds: t1 - t0,
        joules: (l1.compute - l0.compute)
            + (l1.reads - l0.reads)
            + (l1.writes - l0.writes)
            + (l1.interconnect - l0.interconnect)
            + (l1.offchip - l0.offchip),
    };
    [delta(s0, s1), delta(s1, s2)]
}

fn single_op_site(sqrts: u64, divs: u64) -> SiteParams {
    SiteParams {
        elems: 1,
        sqrts_per_elem: sqrts,
        divs_per_elem: divs,
        sqrt_operands: (2.0, 2.0),
        recip_operands: (1.0, 1.0),
    }
}

/// The per-op cost table: analytic host alternative vs the measured
/// chip fragments, one row per transcendental.
pub fn per_op_table() -> Vec<OpCostRow> {
    let model = CostModel;
    let sqrt_only = MathPlacement { sqrt: Placement::OnPim, reciprocal: Placement::Host };
    let recip_only = MathPlacement { sqrt: Placement::Host, reciprocal: Placement::OnPim };

    // Host rows price exactly one op-site plus its own refresh DMA (the
    // other lane PIM-placed so it contributes no refresh words).
    let host_sqrt = model.host_stage_cost(recip_only, &single_op_site(1, 0));
    let host_recip = model.host_stage_cost(sqrt_only, &single_op_site(0, 1));

    let [sqrt_setup, sqrt_stage] = measured_fragments(sqrt_only);
    let [recip_setup, recip_stage] = measured_fragments(recip_only);
    vec![
        OpCostRow { op: "sqrt", host: host_sqrt, lut_only: sqrt_setup, lut_newton: sqrt_stage },
        OpCostRow {
            op: "reciprocal",
            host: host_recip,
            lut_only: recip_setup,
            lut_newton: recip_stage,
        },
    ]
}

// ---- section 3: cluster arms ----

fn placement_name(p: Option<MathPlacement>) -> String {
    match p {
        None => "off".into(),
        Some(p) => match (p.sqrt, p.reciprocal) {
            (Placement::Host, Placement::Host) => "host".into(),
            (Placement::OnPim, Placement::OnPim) => "pim".into(),
            (Placement::OnPim, Placement::Host) => "sqrt-pim".into(),
            (Placement::Host, Placement::OnPim) => "recip-pim".into(),
        },
    }
}

fn run_arm(cfg: &MathBenchConfig, mode: MathConfig, name: &'static str) -> ClusterArm {
    let mesh = HexMesh::refinement_level(cfg.level, Boundary::Periodic);
    let n = 2;
    let material = AcousticMaterial::new(2.0, 1.0); // κρ = 2, ρ = 1: in table range
    let dt = 1e-3;
    let mut reference = Solver::<Acoustic>::uniform(mesh.clone(), n, FluxKind::Riemann, material);
    let tau = std::f64::consts::TAU;
    reference.set_initial(|v, x| match v {
        0 => (tau * x.x).sin() + 0.25 * (tau * x.y).cos(),
        1 => 0.5 * (tau * x.y).sin(),
        2 => 0.25 * (tau * (x.x + x.z)).cos(),
        _ => 0.125 * (tau * x.z).sin(),
    });

    let mut cluster = ClusterRunner::new(
        &mesh,
        n,
        FluxKind::Riemann,
        material,
        reference.state(),
        dt,
        ClusterConfig::new(cfg.chips).with_math(mode),
    );
    let t0 = cluster.elapsed(); // excludes the one-time preload/setup
    cluster.run(cfg.steps);
    let makespan_per_stage = (cluster.elapsed() - t0) / (cfg.steps * 5) as f64;

    reference.run(dt, cfg.steps);
    let native_diff = cluster.state().max_abs_diff(reference.state());

    let stats = cluster.math_stats();
    let decisions = cluster.math_decisions();
    ClusterArm {
        mode: name,
        placements: cluster.math_placements().into_iter().map(placement_name).collect(),
        host_seconds_per_stage: stats.host_seconds_per_stage(),
        exposed_seconds_per_stage: stats.exposed_seconds_per_stage(),
        onpim_seconds_per_stage: stats.onpim_seconds_per_stage(),
        makespan_per_stage,
        native_diff,
        host_stage_joules: decisions.iter().map(|d| d.host_stage.joules).sum(),
        chosen_stage_joules: decisions.iter().map(|d| d.chosen_stage.joules).sum(),
        fully_onpim: cluster.math_placements().iter().all(|p| p.is_some_and(|p| !p.any_host())),
    }
}

/// Runs the whole study.
pub fn math_bench_data(cfg: &MathBenchConfig) -> MathBenchResult {
    let mesh_elems = 8usize.pow(cfg.level);
    let host_arm = run_arm(cfg, MathConfig::host(), "host");
    let onpim_arm = run_arm(cfg, MathConfig::on_pim(), "onpim");
    let auto_arm = run_arm(cfg, MathConfig::auto(), "auto");
    let exposed_reduction_per_stage =
        host_arm.exposed_seconds_per_stage - onpim_arm.exposed_seconds_per_stage;
    MathBenchResult {
        level: cfg.level,
        chips: cfg.chips,
        steps: cfg.steps,
        elems_per_chip: mesh_elems / cfg.chips,
        ulp_samples: cfg.ulp_samples,
        ulp: ulp_table(cfg.ulp_samples),
        per_op: per_op_table(),
        host_arm,
        onpim_arm,
        auto_arm,
        exposed_reduction_per_stage,
        ulp_bound: ULP_BOUND,
        cluster_math_bound: CLUSTER_MATH_BOUND,
    }
}

// ---- artifact ----

fn arm_json(out: &mut String, key: &str, a: &ClusterArm) {
    let placements: Vec<String> = a.placements.iter().map(|p| format!("\"{p}\"")).collect();
    let _ = write!(
        out,
        "  \"{key}\": {{\"mode\": \"{}\", \"placements\": [{}],\n    \
         \"host_seconds_per_stage\": {}, \"exposed_seconds_per_stage\": {}, \
         \"onpim_seconds_per_stage\": {},\n    \"makespan_per_stage\": {}, \
         \"native_diff\": {}, \"host_stage_joules\": {}, \"chosen_stage_joules\": {}, \
         \"fully_onpim\": {}}}",
        a.mode,
        placements.join(", "),
        number(a.host_seconds_per_stage),
        number(a.exposed_seconds_per_stage),
        number(a.onpim_seconds_per_stage),
        number(a.makespan_per_stage),
        number(a.native_diff),
        number(a.host_stage_joules),
        number(a.chosen_stage_joules),
        a.fully_onpim,
    );
}

/// Renders `BENCH_math.json`.
pub fn math_json(r: &MathBenchResult) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\n  \"schema_version\": 1,\n  \
         \"level\": {}, \"chips\": {}, \"steps\": {}, \"elems_per_chip\": {},\n  \
         \"ulp_bound\": {}, \"cluster_math_bound\": {}, \"ulp_samples\": {},\n  \"ulp\": [",
        r.level,
        r.chips,
        r.steps,
        r.elems_per_chip,
        number(r.ulp_bound),
        number(r.cluster_math_bound),
        r.ulp_samples,
    );
    for (i, u) in r.ulp.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"iters\": {}, \"sqrt_max_ulp\": {}, \"sqrt_mean_ulp\": {}, \
             \"recip_max_ulp\": {}, \"recip_mean_ulp\": {}}}",
            if i > 0 { "," } else { "" },
            u.iters,
            number(u.sqrt_max),
            number(u.sqrt_mean),
            number(u.recip_max),
            number(u.recip_mean),
        );
    }
    out.push_str("\n  ],\n  \"per_op\": [");
    for (i, c) in r.per_op.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"op\": \"{}\", \
             \"host_seconds\": {}, \"host_joules\": {}, \
             \"lut_only_seconds\": {}, \"lut_only_joules\": {}, \
             \"lut_newton_seconds\": {}, \"lut_newton_joules\": {}}}",
            if i > 0 { "," } else { "" },
            c.op,
            number(c.host.seconds),
            number(c.host.joules),
            number(c.lut_only.seconds),
            number(c.lut_only.joules),
            number(c.lut_newton.seconds),
            number(c.lut_newton.joules),
        );
    }
    out.push_str("\n  ],\n");
    arm_json(&mut out, "host", &r.host_arm);
    out.push_str(",\n");
    arm_json(&mut out, "onpim", &r.onpim_arm);
    out.push_str(",\n");
    arm_json(&mut out, "auto", &r.auto_arm);
    let _ = write!(
        out,
        ",\n  \"exposed_reduction_per_stage\": {}\n}}\n",
        number(r.exposed_reduction_per_stage),
    );
    out
}

/// The CI gate over the measured data.
pub fn check_math(r: &MathBenchResult) -> Result<(), String> {
    // Accuracy: from the first stage on (2 Newton iterations), both
    // sequences must sit inside the documented ULP bound.
    for u in &r.ulp {
        if u.iters >= 2 && (u.sqrt_max > r.ulp_bound || u.recip_max > r.ulp_bound) {
            return Err(format!(
                "ULP bound violated at {} iterations: sqrt {} / recip {} vs bound {}",
                u.iters, u.sqrt_max, u.recip_max, r.ulp_bound
            ));
        }
        if !(u.sqrt_max.is_finite() && u.recip_max.is_finite()) {
            return Err(format!("non-finite ULP error at {} iterations", u.iters));
        }
    }
    // The refinement must actually refine: errors non-increasing in
    // iterations.
    for w in r.ulp.windows(2) {
        if w[1].sqrt_max > w[0].sqrt_max + 1e-12 || w[1].recip_max > w[0].recip_max + 1e-12 {
            return Err("Newton iterations made the max ULP error worse".into());
        }
    }
    // Per-op costs must be measured, not degenerate.
    for c in &r.per_op {
        for (k, v) in [
            ("host_seconds", c.host.seconds),
            ("host_joules", c.host.joules),
            ("lut_only_seconds", c.lut_only.seconds),
            ("lut_only_joules", c.lut_only.joules),
            ("lut_newton_seconds", c.lut_newton.seconds),
            ("lut_newton_joules", c.lut_newton.joules),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("per-op {}.{k} must be positive and finite, got {v}", c.op));
            }
        }
    }
    // The host arm exposes a window; the fully PIM-placed arm must
    // expose none — the strict reduction the subsystem exists for.
    if r.host_arm.exposed_seconds_per_stage <= 0.0 {
        return Err("host arm exposed no preprocess window — nothing to compare".into());
    }
    if !r.onpim_arm.fully_onpim {
        return Err(format!(
            "OnPim arm failed to place everything on-PIM: {:?}",
            r.onpim_arm.placements
        ));
    }
    if r.onpim_arm.exposed_seconds_per_stage != 0.0 {
        return Err(format!(
            "fully PIM-placed arm still exposes {} s/stage of host math",
            r.onpim_arm.exposed_seconds_per_stage
        ));
    }
    if r.exposed_reduction_per_stage <= 0.0 {
        return Err(format!(
            "on-PIM placement failed to reduce the exposed window: {} s/stage",
            r.exposed_reduction_per_stage
        ));
    }
    // Equivalence: host-placed constants are exact (seed-level bound);
    // PIM-placed constants within the documented math bound.
    if r.host_arm.native_diff > 1e-12 {
        return Err(format!("host arm diverged from native dG: {:e}", r.host_arm.native_diff));
    }
    for a in [&r.onpim_arm, &r.auto_arm] {
        if a.native_diff > r.cluster_math_bound {
            return Err(format!(
                "{} arm diverged beyond the math bound: {:e}",
                a.mode, a.native_diff
            ));
        }
    }
    // When the cost model itself chooses an on-PIM placement, it must
    // not lengthen the per-stage critical path nor cost more energy
    // than the host alternative it displaced.
    if r.auto_arm.placements.iter().any(|p| p.contains("pim")) {
        if r.auto_arm.makespan_per_stage > r.host_arm.makespan_per_stage * (1.0 + 1e-9) {
            return Err(format!(
                "auto-chosen on-PIM placement lengthened the stage: {} vs {} s",
                r.auto_arm.makespan_per_stage, r.host_arm.makespan_per_stage
            ));
        }
        if r.auto_arm.chosen_stage_joules > r.auto_arm.host_stage_joules {
            return Err(format!(
                "auto-chosen placement costs more energy than the host: {} vs {} J/stage",
                r.auto_arm.chosen_stage_joules, r.auto_arm.host_stage_joules
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_prices_the_stage_fragment_the_chip_executes() {
        // One element's analytic fragment against the same fragment run
        // on a chip.
        let placements = [
            MathPlacement { sqrt: Placement::OnPim, reciprocal: Placement::Host },
            MathPlacement { sqrt: Placement::Host, reciprocal: Placement::OnPim },
            MathPlacement::all_onpim(),
        ];
        let close = |a: f64, b: f64, rel: f64| (a - b).abs() <= rel * a.abs().max(b.abs());
        for p in placements {
            let analytic = CostModel.onpim_stage_cost(p, &single_op_site(1, 1));
            let [_, executed] = measured_fragments(p);
            assert!(
                close(analytic.seconds, executed.seconds, 1e-12),
                "{p:?}: {} s analytic vs {} s executed",
                analytic.seconds,
                executed.seconds
            );
            assert!(
                close(analytic.joules, executed.joules, 1e-14),
                "{p:?}: {} J analytic vs {} J executed",
                analytic.joules,
                executed.joules
            );
        }
    }
}

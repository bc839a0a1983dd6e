//! The dG wave solver: mesh + kernels + time integration.

use rayon::prelude::*;
use wavesim_mesh::{ElementGeometry, HexMesh};
use wavesim_numerics::gll::GllRule;
use wavesim_numerics::lagrange::DiffMatrix;
use wavesim_numerics::tensor::node_coords;
use wavesim_numerics::Vec3;

use crate::integrator::Lsrk5;
use crate::kernels::flux;
use crate::opcount::{self, ElementWorkload};
use crate::physics::{FluxKind, Physics};
use crate::state::State;

/// Roofline counters for the native solver. The three paper kernels keep
/// one row each of analytic FLOPs and bytes (from [`crate::opcount`]'s
/// per-element model × elements; index 0/1/2 = Volume/Flux/Integration).
/// They run as the phases of one fused element pass, so the measured wall
/// seconds are one record per stage pass, not a split across kernels.
/// Created by [`Solver::attach_metrics`].
struct SolverMetrics {
    flops: [pim_metrics::Counter; 3],
    bytes: [pim_metrics::Counter; 3],
    stage_seconds: pim_metrics::FloatCounter,
    stages: pim_metrics::Counter,
}

const DG_KERNELS: [&str; 3] = ["Volume", "Flux", "Integration"];

impl SolverMetrics {
    fn new(reg: &pim_metrics::MetricsRegistry) -> Self {
        Self {
            flops: std::array::from_fn(|i| {
                reg.counter("dg_kernel_flops_total", &[("kernel", DG_KERNELS[i])])
            }),
            bytes: std::array::from_fn(|i| {
                reg.counter("dg_kernel_bytes_total", &[("kernel", DG_KERNELS[i])])
            }),
            stage_seconds: reg.float_counter("dg_stage_seconds_total", &[]),
            stages: reg.counter("dg_stages_total", &[]),
        }
    }
}

/// Everything an element pass reads besides the solution: the mesh, the
/// reference operators and the materials.
struct Operators<P: Physics> {
    mesh: HexMesh,
    rule: GllRule,
    d: DiffMatrix,
    geom: ElementGeometry,
    lift: f64,
    flux_kind: FluxKind,
    materials: Vec<P::Material>,
}

impl<P: Physics> Operators<P> {
    /// The element kernel: Volume then Flux of element `e` of `u` into
    /// `rec` (overwritten). `scratch` holds one `n³` work buffer. Orders
    /// 2–4 each get a copy compiled for their constant `n`.
    fn element_rhs(&self, u: &State, e: usize, rec: &mut [f64], scratch: &mut [f64]) {
        match self.rule.len() {
            2 => self.element_rhs_at(2, u, e, rec, scratch),
            3 => self.element_rhs_at(3, u, e, rec, scratch),
            4 => self.element_rhs_at(4, u, e, rec, scratch),
            n => self.element_rhs_at(n, u, e, rec, scratch),
        }
    }

    #[inline(always)]
    fn element_rhs_at(&self, n: usize, u: &State, e: usize, rec: &mut [f64], scratch: &mut [f64]) {
        let jac_inv = self.geom.jacobian_inverse_domain();
        P::volume(n, &self.d, jac_inv, u.element(e), &self.materials[e], rec, scratch);
        flux::element_flux::<P>(
            n,
            &self.mesh,
            self.flux_kind,
            self.lift,
            &self.materials,
            u,
            e,
            rec,
        );
    }
}

/// A complete dG solver for one physics on one mesh.
///
/// Holds the solution [`State`], the LSRK auxiliaries (the paper's
/// *auxiliaries*, Table 1) and the contributions buffer (the paper's
/// *contributions*), and advances them five stages per time-step. The
/// paper's three kernels — Volume, Flux, Integration — run as the three
/// phases of one parallel element pass per stage (see [`Self::step`]).
///
/// ```
/// use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
/// use wavesim_mesh::{Boundary, HexMesh};
///
/// let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
/// let mut solver =
///     Solver::<Acoustic>::uniform(mesh, 4, FluxKind::Riemann, AcousticMaterial::UNIT);
/// solver.set_initial(|var, x| if var == 0 { (std::f64::consts::TAU * x.x).sin() } else { 0.0 });
/// let dt = solver.stable_dt(0.3);
/// solver.run(dt, 10);
/// assert!(solver.state().max_abs().is_finite());
/// ```
pub struct Solver<P: Physics> {
    ops: Operators<P>,
    state: State,
    aux: State,
    rhs: State,
    time: f64,
    steps_taken: usize,
    trace_pid: u32,
    metrics: Option<SolverMetrics>,
}

impl<P: Physics> Solver<P> {
    /// Builds a solver with per-element materials.
    ///
    /// # Panics
    /// Panics if `materials.len()` differs from the element count or
    /// `nodes_per_axis < 2`.
    pub fn new(
        mesh: HexMesh,
        nodes_per_axis: usize,
        flux_kind: FluxKind,
        materials: Vec<P::Material>,
    ) -> Self {
        assert_eq!(materials.len(), mesh.num_elements(), "one material per element required");
        let rule = GllRule::new(nodes_per_axis);
        let d = DiffMatrix::for_gll(&rule);
        let geom = ElementGeometry::new(mesh.h(), &rule);
        let lift = geom.lift_factor(rule.weights()[0]);
        let nn = geom.nodes_per_element();
        let ne = mesh.num_elements();
        Self {
            ops: Operators { mesh, rule, d, geom, lift, flux_kind, materials },
            state: State::zeros(ne, P::NUM_VARS, nn),
            aux: State::zeros(ne, P::NUM_VARS, nn),
            rhs: State::zeros(ne, P::NUM_VARS, nn),
            time: 0.0,
            steps_taken: 0,
            trace_pid: 0,
            metrics: None,
        }
    }

    /// This solver's trace process id, allocated on first traced use so
    /// untraced runs never touch the trace registry. Native kernels are
    /// recorded on the wall clock (there is no simulated time here).
    fn trace_pid(&mut self) -> u32 {
        if self.trace_pid == 0 {
            self.trace_pid = pim_trace::alloc_pid("dg-solver (native)");
        }
        self.trace_pid
    }

    /// Meters every later stage pass into `registry`'s roofline counters
    /// (`dg_kernel_{flops,bytes}_total`, `dg_stage_seconds_total`,
    /// `dg_stages_total`); an unmetered solver records nothing.
    pub fn attach_metrics(&mut self, registry: &pim_metrics::MetricsRegistry) {
        self.metrics = Some(SolverMetrics::new(registry));
    }

    /// Builds a solver with one material everywhere.
    pub fn uniform(
        mesh: HexMesh,
        nodes_per_axis: usize,
        flux_kind: FluxKind,
        material: P::Material,
    ) -> Self {
        let n = mesh.num_elements();
        Self::new(mesh, nodes_per_axis, flux_kind, vec![material; n])
    }

    /// The mesh.
    pub fn mesh(&self) -> &HexMesh {
        &self.ops.mesh
    }

    /// The GLL rule (per-axis nodes).
    pub fn rule(&self) -> &GllRule {
        &self.ops.rule
    }

    /// The element geometry constants.
    pub fn geometry(&self) -> &ElementGeometry {
        &self.ops.geom
    }

    /// The flux solver in use.
    pub fn flux_kind(&self) -> FluxKind {
        self.ops.flux_kind
    }

    /// Per-element materials.
    pub fn materials(&self) -> &[P::Material] {
        &self.ops.materials
    }

    /// Current solution.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Mutable access to the solution (for initial conditions / sources).
    pub fn state_mut(&mut self) -> &mut State {
        &mut self.state
    }

    /// The LSRK auxiliaries after the last stage.
    pub fn auxiliaries(&self) -> &State {
        &self.aux
    }

    /// The contributions (Volume + Flux RHS) of the state at the last
    /// [`Self::compute_rhs`]. Valid only until the next [`Self::step`],
    /// which reuses this buffer for the stage's new solution.
    pub fn contributions(&self) -> &State {
        &self.rhs
    }

    /// Simulation time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Completed time-steps.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Physical position of a node of an element.
    pub fn node_position(&self, elem: usize, node: usize) -> Vec3 {
        let n = self.ops.rule.len();
        let (i, j, k) = node_coords(n, node);
        let p = self.ops.rule.points();
        self.ops.mesh.to_physical(wavesim_mesh::ElemId(elem), Vec3::new(p[i], p[j], p[k]))
    }

    /// Initializes the state from a function of (variable, position).
    pub fn set_initial(&mut self, f: impl Fn(usize, Vec3) -> f64) {
        let ne = self.state.num_elements();
        let nn = self.state.nodes_per_element();
        for e in 0..ne {
            for node in 0..nn {
                let x = self.node_position(e, node);
                for v in 0..P::NUM_VARS {
                    self.state.set_value(e, v, node, f(v, x));
                }
            }
        }
        self.time = 0.0;
        self.steps_taken = 0;
        self.aux.fill_zero();
    }

    /// A stable time-step: `cfl · h / (c_max · (n−1)²)`, the standard dG
    /// estimate with polynomial degree `n−1`.
    pub fn stable_dt(&self, cfl: f64) -> f64 {
        let c_max = self.ops.materials.iter().map(P::max_speed).fold(0.0f64, f64::max);
        assert!(c_max > 0.0, "no positive wave speed in materials");
        let degree = (self.ops.rule.len() - 1).max(1) as f64;
        cfl * self.ops.mesh.h() / (c_max * degree * degree)
    }

    /// Evaluates the spatial RHS (Volume then Flux) of the current state
    /// into the contributions buffer: one parallel element pass.
    pub fn compute_rhs(&mut self) {
        let nn = self.state.nodes_per_element();
        let (ops, u) = (&self.ops, &self.state);
        self.rhs.as_mut_slice().par_chunks_mut(u.element_stride()).enumerate().for_each_init(
            || vec![0.0; nn],
            |scratch, (e, rec)| ops.element_rhs(u, e, rec, scratch),
        );
    }

    /// Analytic per-element FLOP/byte model matching this solver's
    /// physics and configuration.
    fn element_workload(&self) -> ElementWorkload {
        match P::NUM_VARS {
            9 => opcount::elastic_workload(self.ops.rule.len(), self.ops.flux_kind),
            _ => opcount::acoustic_workload(self.ops.rule.len(), self.ops.flux_kind),
        }
    }

    /// Publishes one fused stage pass to the roofline counters: each
    /// kernel's analytic FLOPs/bytes for the whole mesh, plus the pass's
    /// measured wall seconds.
    fn record_stage_metrics(&self, metrics: &SolverMetrics, seconds: f64) {
        let ne = self.state.num_elements() as u64;
        let workload = self.element_workload();
        for (k, profile) in
            [workload.volume, workload.flux, workload.integration].iter().enumerate()
        {
            metrics.flops[k].add(profile.ops.flops() * ne);
            metrics.bytes[k].add(profile.mem.total() * ne);
        }
        metrics.stage_seconds.add(seconds);
        metrics.stages.inc();
    }

    /// Advances one time-step: five LSRK stages.
    ///
    /// Each stage is one parallel pass over the elements. Per element, the
    /// Volume phase writes a per-worker record, the Flux phase adds the six
    /// faces onto it, and the Integration phase copies the element's `u`
    /// into the contributions buffer and applies `aux ← A·aux + dt·r;
    /// u ← u + B·aux` there; that buffer then swaps with the solution. Every
    /// value sees the same operations in the same order as the three
    /// separate kernels ([`crate::kernels`]), so the result is
    /// bit-identical to them.
    pub fn step(&mut self, dt: f64) {
        use pim_trace::{Kernel, Payload, WallSpan, TID_KERNELS};
        let pid = if pim_trace::enabled() { self.trace_pid() } else { 0 };
        let _step_span =
            WallSpan::begin(pid, TID_KERNELS, Payload::Kernel { kernel: Kernel::Step, stage: 0 });
        for s in 0..Lsrk5::STAGES {
            let _stage_span = WallSpan::begin(
                pid,
                TID_KERNELS,
                Payload::Kernel { kernel: Kernel::RkStage, stage: s as u8 },
            );
            let timer = self.metrics.is_some().then(std::time::Instant::now);
            self.fused_stage(s, dt);
            if let (Some(metrics), Some(timer)) = (&self.metrics, timer) {
                self.record_stage_metrics(metrics, timer.elapsed().as_secs_f64());
            }
        }
        self.time += dt;
        self.steps_taken += 1;
    }

    /// One LSRK stage as one element pass; see [`Self::step`].
    fn fused_stage(&mut self, stage: usize, dt: f64) {
        let stride = self.state.element_stride();
        let nn = self.state.nodes_per_element();
        let (ops, u) = (&self.ops, &self.state);
        self.rhs
            .as_mut_slice()
            .par_chunks_mut(stride)
            .zip(self.aux.as_mut_slice().par_chunks_mut(stride))
            .enumerate()
            .for_each_init(
                || (vec![0.0; stride], vec![0.0; nn]),
                |(rec, scratch), (e, (next, aux))| {
                    ops.element_rhs(u, e, rec, scratch);
                    next.copy_from_slice(u.element(e));
                    Lsrk5::stage_update(stage, dt, next, aux, rec);
                },
            );
        std::mem::swap(&mut self.state, &mut self.rhs);
    }

    /// Advances `steps` time-steps.
    pub fn run(&mut self, dt: f64, steps: usize) {
        for _ in 0..steps {
            self.step(dt);
        }
    }

    /// Advances **only** `elems` through one LSRK stage: the element
    /// kernel (Volume + Flux) of each into the contributions buffer, then
    /// the stage update. The shard-restricted reference step for the
    /// multi-chip cluster runtime — flux reads neighbor values from the
    /// *current* full state, so the caller must have refreshed any remote
    /// (halo) neighbors of `elems` to their pre-stage values first, exactly
    /// as the cluster's halo exchange does. Does not advance
    /// [`Self::time`]; drive all five stages (with halo refreshes between
    /// them) to complete a step.
    pub fn stage_restricted(&mut self, stage: usize, dt: f64, elems: &[usize]) {
        let mut scratch = vec![0.0; self.state.nodes_per_element()];
        for &e in elems {
            self.ops.element_rhs(&self.state, e, self.rhs.element_mut(e), &mut scratch);
        }
        for &e in elems {
            Lsrk5::stage_update(
                stage,
                dt,
                self.state.element_mut(e),
                self.aux.element_mut(e),
                self.rhs.element(e),
            );
        }
    }

    /// Maximum absolute nodal error against an analytic solution evaluated
    /// at the current time.
    pub fn max_error_against(&self, exact: impl Fn(usize, Vec3, f64) -> f64) -> f64 {
        let mut worst = 0.0f64;
        for e in 0..self.state.num_elements() {
            for node in 0..self.state.nodes_per_element() {
                let x = self.node_position(e, node);
                for v in 0..P::NUM_VARS {
                    let err = (self.state.value(e, v, node) - exact(v, x, self.time)).abs();
                    worst = worst.max(err);
                }
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::material::AcousticMaterial;
    use crate::physics::Acoustic;
    use wavesim_mesh::Boundary;

    fn small_solver(flux: FluxKind) -> Solver<Acoustic> {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        Solver::<Acoustic>::uniform(mesh, 4, flux, AcousticMaterial::UNIT)
    }

    #[test]
    fn zero_state_stays_zero() {
        let mut s = small_solver(FluxKind::Riemann);
        s.run(0.01, 10);
        assert_eq!(s.state().max_abs(), 0.0);
        assert_eq!(s.steps_taken(), 10);
        assert!((s.time() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn constant_pressure_is_steady_state() {
        // Uniform pressure with zero velocity on a periodic mesh is an
        // exact steady solution; the solver must preserve it to round-off.
        let mut s = small_solver(FluxKind::Riemann);
        s.set_initial(|v, _| if v == 0 { 2.5 } else { 0.0 });
        let dt = s.stable_dt(0.3);
        s.run(dt, 20);
        for e in 0..s.state().num_elements() {
            for node in 0..s.state().nodes_per_element() {
                assert!((s.state().value(e, 0, node) - 2.5).abs() < 1e-12);
                for v in 1..4 {
                    assert!(s.state().value(e, v, node).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn node_positions_cover_the_domain() {
        let s = small_solver(FluxKind::Central);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for e in 0..s.state().num_elements() {
            for node in 0..s.state().nodes_per_element() {
                let p = s.node_position(e, node);
                for c in [p.x, p.y, p.z] {
                    min = min.min(c);
                    max = max.max(c);
                }
            }
        }
        assert_eq!(min, 0.0);
        assert_eq!(max, 1.0);
    }

    #[test]
    fn stable_dt_scales_with_mesh_and_order() {
        let coarse = Solver::<Acoustic>::uniform(
            HexMesh::refinement_level(1, Boundary::Periodic),
            4,
            FluxKind::Riemann,
            AcousticMaterial::UNIT,
        );
        let fine = Solver::<Acoustic>::uniform(
            HexMesh::refinement_level(2, Boundary::Periodic),
            4,
            FluxKind::Riemann,
            AcousticMaterial::UNIT,
        );
        let high_order = Solver::<Acoustic>::uniform(
            HexMesh::refinement_level(1, Boundary::Periodic),
            8,
            FluxKind::Riemann,
            AcousticMaterial::UNIT,
        );
        assert!((coarse.stable_dt(0.5) / fine.stable_dt(0.5) - 2.0).abs() < 1e-12);
        assert!(high_order.stable_dt(0.5) < coarse.stable_dt(0.5));
    }

    #[test]
    #[should_panic(expected = "one material per element")]
    fn rejects_wrong_material_count() {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let _ = Solver::<Acoustic>::new(mesh, 4, FluxKind::Central, vec![AcousticMaterial::UNIT]);
    }
}

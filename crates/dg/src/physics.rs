//! The two wave systems of the paper (§2.1) in first-order form, plus
//! their numerical interface fluxes.
//!
//! **Acoustic** (4 variables, Eq. 1 of the paper):
//! ```text
//! ∂p/∂t + κ ∇·v        = 0
//! ∂v/∂t + (1/ρ) ∇p     = 0
//! ```
//!
//! **Elastic** velocity–stress (9 variables, Eq. 2 of the paper):
//! ```text
//! ∂S/∂t = μ (∇v + ∇vᵀ) + λ (∇·v) I
//! ∂v/∂t = (1/ρ) ∇·S
//! ```
//!
//! Both are hyperbolic with piecewise-constant coefficients; the dG surface
//! term for the minus-side element is `lift · (F⁻·n − F*·n)` where `F*` is
//! the numerical flux. Two flux solvers are provided, matching the paper's
//! *Central* and *Riemann* benchmark variants: the central flux averages
//! the interface states; the Riemann (upwind) flux solves the interface
//! characteristic problem with the acoustic impedance `Z = ρc` (P- and
//! S-impedances `z_p = ρc_p`, `z_s = ρc_s` for elastic).

use wavesim_numerics::lagrange::DiffMatrix;
use wavesim_numerics::tensor::{apply_along_axis, Axis};
use wavesim_numerics::Vec3;

use crate::material::{AcousticMaterial, ElasticMaterial};

/// Numerical flux solver selection; the paper's benchmark groups are
/// acoustic (upwind), elastic-central and elastic-Riemann (§7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FluxKind {
    /// Arithmetic average of the two interface states. Energy-conservative.
    Central,
    /// Exact-Riemann upwind flux via impedance-weighted characteristics.
    /// Energy-dissipative (never energy-increasing).
    Riemann,
}

/// A linear hyperbolic wave system that the generic dG solver can advance.
pub trait Physics: Send + Sync + 'static {
    /// Number of unknowns per node (4 acoustic, 9 elastic — §2.1).
    const NUM_VARS: usize;
    /// Human-readable name used in reports.
    const NAME: &'static str;

    type Material: Copy + Send + Sync + 'static;

    /// Fastest characteristic speed, for CFL time-step selection.
    fn max_speed(m: &Self::Material) -> f64;

    /// Computes the *Volume* contribution for one element: the interior
    /// right-hand side `−A_d ∂_d u` evaluated with tensor-product
    /// differentiation. `u` and `rhs` are `[var][node]` records of
    /// `NUM_VARS · n³` values; `scratch` holds one `n³` work buffer.
    /// `jac_inv` converts reference derivatives to physical (`2/h`).
    fn volume(
        n: usize,
        d: &DiffMatrix,
        jac_inv: f64,
        u: &[f64],
        m: &Self::Material,
        rhs: &mut [f64],
        scratch: &mut [f64],
    );

    /// The constants of one face's numerical flux: the flux kind, the
    /// minus side's material and (Riemann) the two sides' impedances.
    type FaceCoeffs: Copy;

    /// Computes a face's [`Self::FaceCoeffs`] once, so the square roots
    /// behind the impedances are taken per face, not per face node (the
    /// paper serves them per element from a LUT, §4.3).
    fn face_coeffs(
        kind: FluxKind,
        m_minus: &Self::Material,
        m_plus: &Self::Material,
    ) -> Self::FaceCoeffs;

    /// Computes the per-node *Flux* difference `F⁻·n − F*·n` for every
    /// variable. `um`/`up` hold the `NUM_VARS` interface values of the
    /// minus (own) and plus (neighbor/ghost) side; `normal` is the outward
    /// normal of the minus element.
    fn face_flux(c: &Self::FaceCoeffs, normal: Vec3, um: &[f64], up: &[f64], out: &mut [f64]);

    /// Mirror (rigid-wall) ghost state used at `Boundary::Wall` faces.
    fn wall_ghost(normal: Vec3, um: &[f64], ghost: &mut [f64]);
}

/// Variable indices for [`Acoustic`].
pub mod acoustic_vars {
    pub const P: usize = 0;
    pub const VX: usize = 1;
    pub const VY: usize = 2;
    pub const VZ: usize = 3;
}

/// The acoustic wave system (pressure + 3 velocity components).
#[derive(Debug, Clone, Copy)]
pub struct Acoustic;

/// [`Acoustic`]'s per-face flux constants: the minus side's material and
/// `Z⁻`, `Z⁺`, `Z⁻Z⁺`, `1/(Z⁻+Z⁺)`. The central flux reads no impedance,
/// so they are left zero (and the reciprocal infinite) for it.
#[derive(Debug, Clone, Copy)]
pub struct AcousticFace {
    kind: FluxKind,
    m: AcousticMaterial,
    zm: f64,
    zp: f64,
    zz: f64,
    inv: f64,
}

impl Physics for Acoustic {
    const NUM_VARS: usize = 4;
    const NAME: &'static str = "acoustic";
    type Material = AcousticMaterial;

    fn max_speed(m: &AcousticMaterial) -> f64 {
        m.sound_speed()
    }

    #[inline(always)]
    fn volume(
        n: usize,
        d: &DiffMatrix,
        jac_inv: f64,
        u: &[f64],
        m: &AcousticMaterial,
        rhs: &mut [f64],
        scratch: &mut [f64],
    ) {
        use acoustic_vars::*;
        let nn = n * n * n;
        debug_assert_eq!(u.len(), 4 * nn);
        debug_assert_eq!(rhs.len(), 4 * nn);
        debug_assert_eq!(scratch.len(), nn);

        let var = |v: usize| &u[v * nn..(v + 1) * nn];
        rhs.fill(0.0);

        // grad p → velocity equations: rhs_v = −(1/ρ) ∇p.
        let inv_rho = jac_inv / m.rho;
        for (axis, vel) in [(Axis::X, VX), (Axis::Y, VY), (Axis::Z, VZ)] {
            apply_along_axis(d, axis, n, var(P), scratch);
            let out = &mut rhs[vel * nn..(vel + 1) * nn];
            for (o, &s) in out.iter_mut().zip(scratch.iter()) {
                *o = -inv_rho * s;
            }
        }

        // div v → pressure equation: rhs_p = −κ ∇·v.
        let kj = m.kappa * jac_inv;
        for (axis, vel) in [(Axis::X, VX), (Axis::Y, VY), (Axis::Z, VZ)] {
            apply_along_axis(d, axis, n, var(vel), scratch);
            let out = &mut rhs[P * nn..(P + 1) * nn];
            for (o, &s) in out.iter_mut().zip(scratch.iter()) {
                *o -= kj * s;
            }
        }
    }

    type FaceCoeffs = AcousticFace;

    fn face_coeffs(kind: FluxKind, mm: &AcousticMaterial, mp: &AcousticMaterial) -> AcousticFace {
        let (zm, zp) = match kind {
            FluxKind::Central => (0.0, 0.0),
            FluxKind::Riemann => (mm.impedance(), mp.impedance()),
        };
        AcousticFace { kind, m: *mm, zm, zp, zz: zm * zp, inv: 1.0 / (zm + zp) }
    }

    fn face_flux(c: &AcousticFace, normal: Vec3, um: &[f64], up: &[f64], out: &mut [f64]) {
        use acoustic_vars::*;
        let pm = um[P];
        let pp = up[P];
        let vm = Vec3::new(um[VX], um[VY], um[VZ]);
        let vp = Vec3::new(up[VX], up[VY], up[VZ]);
        let vnm = vm.dot(normal);
        let vnp = vp.dot(normal);

        let (p_star, vn_star) = match c.kind {
            FluxKind::Central => (0.5 * (pm + pp), 0.5 * (vnm + vnp)),
            // Characteristic (impedance-matched) interface state:
            //   p*  = (Z⁺p⁻ + Z⁻p⁺ + Z⁻Z⁺ (v_n⁻ − v_n⁺)) / (Z⁻ + Z⁺)
            //   v_n* = (Z⁻v_n⁻ + Z⁺v_n⁺ + (p⁻ − p⁺)) / (Z⁻ + Z⁺)
            FluxKind::Riemann => (
                (c.zp * pm + c.zm * pp + c.zz * (vnm - vnp)) * c.inv,
                (c.zm * vnm + c.zp * vnp + (pm - pp)) * c.inv,
            ),
        };

        // F_p·n = κ v·n ; F_v·n = (p/ρ) n — minus-side coefficients.
        out[P] = c.m.kappa * (vnm - vn_star);
        let coeff = (pm - p_star) / c.m.rho;
        out[VX] = coeff * normal.x;
        out[VY] = coeff * normal.y;
        out[VZ] = coeff * normal.z;
    }

    fn wall_ghost(normal: Vec3, um: &[f64], ghost: &mut [f64]) {
        use acoustic_vars::*;
        // Rigid wall: v·n = 0 at the interface. Mirror the normal velocity,
        // keep pressure and tangential velocity.
        let v = Vec3::new(um[VX], um[VY], um[VZ]);
        let vn = v.dot(normal);
        let mirrored = v - 2.0 * vn * normal;
        ghost[P] = um[P];
        ghost[VX] = mirrored.x;
        ghost[VY] = mirrored.y;
        ghost[VZ] = mirrored.z;
    }
}

/// Variable indices for [`Elastic`].
pub mod elastic_vars {
    pub const VX: usize = 0;
    pub const VY: usize = 1;
    pub const VZ: usize = 2;
    pub const SXX: usize = 3;
    pub const SYY: usize = 4;
    pub const SZZ: usize = 5;
    pub const SXY: usize = 6;
    pub const SXZ: usize = 7;
    pub const SYZ: usize = 8;
}

/// The elastic wave system (3 velocity + 6 stress components).
#[derive(Debug, Clone, Copy)]
pub struct Elastic;

/// [`Elastic`]'s per-face flux constants: the minus side's material and
/// the P and S impedances of both sides. The central flux reads no
/// impedance, so they are left zero for it.
#[derive(Debug, Clone, Copy)]
pub struct ElasticFace {
    kind: FluxKind,
    m: ElasticMaterial,
    zpm: f64,
    zpp: f64,
    zsm: f64,
    zsp: f64,
}

impl Elastic {
    /// Traction vector `t = S·n` from the six stored stress components.
    #[inline]
    fn traction(u: &[f64], n: Vec3) -> Vec3 {
        use elastic_vars::*;
        Vec3::new(
            u[SXX] * n.x + u[SXY] * n.y + u[SXZ] * n.z,
            u[SXY] * n.x + u[SYY] * n.y + u[SYZ] * n.z,
            u[SXZ] * n.x + u[SYZ] * n.y + u[SZZ] * n.z,
        )
    }
}

impl Physics for Elastic {
    const NUM_VARS: usize = 9;
    const NAME: &'static str = "elastic";
    type Material = ElasticMaterial;

    fn max_speed(m: &ElasticMaterial) -> f64 {
        m.p_speed()
    }

    #[inline(always)]
    fn volume(
        n: usize,
        d: &DiffMatrix,
        jac_inv: f64,
        u: &[f64],
        m: &ElasticMaterial,
        rhs: &mut [f64],
        scratch: &mut [f64],
    ) {
        use elastic_vars::*;
        let nn = n * n * n;
        debug_assert_eq!(u.len(), 9 * nn);
        debug_assert_eq!(rhs.len(), 9 * nn);
        debug_assert_eq!(scratch.len(), nn);

        rhs.fill(0.0);
        let inv_rho = jac_inv / m.rho;
        let lam = m.lambda * jac_inv;
        let lam_2mu = (m.lambda + 2.0 * m.mu) * jac_inv;
        let mu = m.mu * jac_inv;

        // Each derivative field is computed exactly once (18 tensor-product
        // passes total) and scattered to every equation that consumes it.
        // `accum!` differentiates u[src] along an axis into `scratch`, then
        // adds `coeff·scratch` into each listed destination.
        macro_rules! accum {
            ($axis:expr, $src:expr, $(($dst:expr, $coeff:expr)),+) => {{
                apply_along_axis(d, $axis, n, &u[$src * nn..($src + 1) * nn], scratch);
                $(
                    let out = &mut rhs[$dst * nn..($dst + 1) * nn];
                    let c = $coeff;
                    for (o, &s) in out.iter_mut().zip(scratch.iter()) {
                        *o += c * s;
                    }
                )+
            }};
        }

        // Velocity equations: ρ ∂v/∂t = ∇·S  (9 stress-derivative passes).
        accum!(Axis::X, SXX, (VX, inv_rho));
        accum!(Axis::Y, SXY, (VX, inv_rho));
        accum!(Axis::Z, SXZ, (VX, inv_rho));
        accum!(Axis::X, SXY, (VY, inv_rho));
        accum!(Axis::Y, SYY, (VY, inv_rho));
        accum!(Axis::Z, SYZ, (VY, inv_rho));
        accum!(Axis::X, SXZ, (VZ, inv_rho));
        accum!(Axis::Y, SYZ, (VZ, inv_rho));
        accum!(Axis::Z, SZZ, (VZ, inv_rho));

        // Stress equations: ∂S/∂t = μ(∇v + ∇vᵀ) + λ(∇·v)I  (9 velocity-
        // derivative passes; the diagonal ones feed three equations each).
        accum!(Axis::X, VX, (SXX, lam_2mu), (SYY, lam), (SZZ, lam));
        accum!(Axis::Y, VY, (SXX, lam), (SYY, lam_2mu), (SZZ, lam));
        accum!(Axis::Z, VZ, (SXX, lam), (SYY, lam), (SZZ, lam_2mu));
        accum!(Axis::Y, VX, (SXY, mu));
        accum!(Axis::X, VY, (SXY, mu));
        accum!(Axis::Z, VX, (SXZ, mu));
        accum!(Axis::X, VZ, (SXZ, mu));
        accum!(Axis::Z, VY, (SYZ, mu));
        accum!(Axis::Y, VZ, (SYZ, mu));
    }

    type FaceCoeffs = ElasticFace;

    fn face_coeffs(kind: FluxKind, mm: &ElasticMaterial, mp: &ElasticMaterial) -> ElasticFace {
        let ((zpm, zpp), (zsm, zsp)) = match kind {
            FluxKind::Central => ((0.0, 0.0), (0.0, 0.0)),
            FluxKind::Riemann => {
                ((mm.p_impedance(), mp.p_impedance()), (mm.s_impedance(), mp.s_impedance()))
            }
        };
        ElasticFace { kind, m: *mm, zpm, zpp, zsm, zsp }
    }

    fn face_flux(c: &ElasticFace, normal: Vec3, um: &[f64], up: &[f64], out: &mut [f64]) {
        use elastic_vars::*;
        let mm = &c.m;
        let vm = Vec3::new(um[VX], um[VY], um[VZ]);
        let vp = Vec3::new(up[VX], up[VY], up[VZ]);
        let tm = Self::traction(um, normal);
        let tp = Self::traction(up, normal);

        let (v_star, t_star) = match c.kind {
            FluxKind::Central => (0.5 * (vm + vp), 0.5 * (tm + tp)),
            FluxKind::Riemann => {
                // Split into normal (P-characteristic) and tangential
                // (S-characteristic) parts; each 1-D interface problem is
                // the elastic analog of the acoustic one with σ = −p:
                //   t_n* = (z⁺t_n⁻ + z⁻t_n⁺ − z⁻z⁺(v_n⁻ − v_n⁺)) / (z⁻+z⁺)
                //   v_n* = (z⁻v_n⁻ + z⁺v_n⁺ − (t_n⁻ − t_n⁺)) / (z⁻+z⁺)
                let ElasticFace { zpm, zpp, zsm, zsp, .. } = *c;

                let vnm = vm.dot(normal);
                let vnp = vp.dot(normal);
                let tnm = tm.dot(normal);
                let tnp = tp.dot(normal);
                let vtm = vm - vnm * normal;
                let vtp = vp - vnp * normal;
                let ttm = tm - tnm * normal;
                let ttp = tp - tnp * normal;

                let invp = 1.0 / (zpm + zpp);
                let tn_star = (zpp * tnm + zpm * tnp - zpm * zpp * (vnm - vnp)) * invp;
                let vn_star = (zpm * vnm + zpp * vnp - (tnm - tnp)) * invp;

                let invs = 1.0 / (zsm + zsp);
                let tt_star = (zsp * ttm + zsm * ttp - zsm * zsp * (vtm - vtp)) * invs;
                let vt_star = (zsm * vtm + zsp * vtp - (ttm - ttp)) * invs;

                (vn_star * normal + vt_star, tn_star * normal + tt_star)
            }
        };

        // Velocity flux: F_v·n = −(1/ρ) t  →  F⁻·n − F*·n = (t* − t⁻)/ρ.
        let dv_t = (t_star - tm) * (1.0 / mm.rho);
        out[VX] = dv_t.x;
        out[VY] = dv_t.y;
        out[VZ] = dv_t.z;

        // Stress flux: F_S·n = −(μ(v⊗n + n⊗v) + λ(v·n)I)
        //   →  F⁻·n − F*·n = μ(Δv⊗n + n⊗Δv) + λ(Δv·n)I  with Δv = v*−v⁻.
        let dv = v_star - vm;
        let dvn = dv.dot(normal);
        out[SXX] = 2.0 * mm.mu * dv.x * normal.x + mm.lambda * dvn;
        out[SYY] = 2.0 * mm.mu * dv.y * normal.y + mm.lambda * dvn;
        out[SZZ] = 2.0 * mm.mu * dv.z * normal.z + mm.lambda * dvn;
        out[SXY] = mm.mu * (dv.x * normal.y + dv.y * normal.x);
        out[SXZ] = mm.mu * (dv.x * normal.z + dv.z * normal.x);
        out[SYZ] = mm.mu * (dv.y * normal.z + dv.z * normal.y);
    }

    fn wall_ghost(_normal: Vec3, um: &[f64], ghost: &mut [f64]) {
        use elastic_vars::*;
        // Rigid wall: zero velocity at the interface (v* = 0 under the
        // central flux), stress mirrored.
        ghost[VX] = -um[VX];
        ghost[VY] = -um[VY];
        ghost[VZ] = -um[VZ];
        for s in [SXX, SYY, SZZ, SXY, SXZ, SYZ] {
            ghost[s] = um[s];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_numerics::gll::GllRule;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn acoustic_consistency_of_fluxes() {
        // When both sides agree (no jump), any numerical flux must reduce
        // to zero difference: F⁻·n = F*·n.
        let m = AcousticMaterial::new(2.0, 0.5);
        let u = [1.3, 0.2, -0.4, 0.9];
        let n = Vec3::new(0.0, 1.0, 0.0);
        for kind in [FluxKind::Central, FluxKind::Riemann] {
            let mut out = [0.0; 4];
            Acoustic::face_flux(&Acoustic::face_coeffs(kind, &m, &m), n, &u, &u, &mut out);
            for &o in &out {
                assert_close(o, 0.0, 1e-14);
            }
        }
    }

    #[test]
    fn elastic_consistency_of_fluxes() {
        let m = ElasticMaterial::new(2.0, 1.0, 1.5);
        let u = [0.1, -0.2, 0.3, 1.0, -1.0, 0.5, 0.2, -0.3, 0.7];
        let n = Vec3::new(1.0, 0.0, 0.0);
        for kind in [FluxKind::Central, FluxKind::Riemann] {
            let mut out = [0.0; 9];
            Elastic::face_flux(&Elastic::face_coeffs(kind, &m, &m), n, &u, &u, &mut out);
            for &o in &out {
                assert_close(o, 0.0, 1e-14);
            }
        }
    }

    #[test]
    fn riemann_flux_upwinds_pure_characteristics() {
        // A right-going acoustic characteristic (w⁺ = p + Z v_n) carried
        // entirely by the minus side must pass through unchanged: the
        // interface state equals the minus trace, so F⁻·n − F*·n = 0.
        let m = AcousticMaterial::UNIT; // Z = 1
        let n = Vec3::new(1.0, 0.0, 0.0);
        // Minus state: p = 1, v_n = 1 → w⁺ = 2, w⁻ = 0 (nothing incoming).
        let um = [1.0, 1.0, 0.0, 0.0];
        // Plus state carries only its own right-going part: w⁺ arbitrary,
        // w⁻ = p − Z v_n = 0 → choose p = 0.5, v_n = 0.5.
        let up = [0.5, 0.5, 0.0, 0.0];
        let mut out = [0.0; 4];
        Acoustic::face_flux(
            &Acoustic::face_coeffs(FluxKind::Riemann, &m, &m),
            n,
            &um,
            &up,
            &mut out,
        );
        // p* = avg + Z/2 (v⁻−v⁺) = 0.75 + 0.25 = 1.0 = p⁻;
        // v_n* = avg + (p⁻−p⁺)/2Z = 0.75 + 0.25 = 1.0 = v_n⁻.
        for &o in &out {
            assert_close(o, 0.0, 1e-14);
        }
    }

    #[test]
    fn numerical_flux_is_single_valued_across_the_interface() {
        // Conservation in strong-form dG hinges on F*·n being
        // single-valued: reconstructing F*·n from either side's output
        // (F*·n = F⁻·n − out) must give equal-and-opposite values, for any
        // material pairing and both flux kinds.
        let ma = AcousticMaterial::new(3.0, 2.0);
        let mb = AcousticMaterial::new(1.0, 5.0);
        let n = Vec3::new(0.0, 0.0, 1.0);
        let um = [0.7, 0.1, -0.2, 0.4];
        let up = [-0.3, 0.5, 0.2, -0.1];
        for kind in [FluxKind::Central, FluxKind::Riemann] {
            let mut o1 = [0.0; 4];
            let mut o2 = [0.0; 4];
            Acoustic::face_flux(&Acoustic::face_coeffs(kind, &ma, &mb), n, &um, &up, &mut o1);
            Acoustic::face_flux(&Acoustic::face_coeffs(kind, &mb, &ma), -n, &up, &um, &mut o2);
            // p equation: F·n = κ v·n, but the *starred* flux uses the
            // starred velocity, common to both sides: κ⁻(v_n⁻ − v_n*) −
            // κ⁻ v_n⁻ = −κ⁻ v_n*; same from the other side with −n.
            let star1 = (ma.kappa * (um[1] * n.x + um[2] * n.y + um[3] * n.z) - o1[0]) / ma.kappa;
            let star2 =
                (mb.kappa * (-(up[1] * n.x + up[2] * n.y + up[3] * n.z)) - o2[0]) / mb.kappa;
            assert_close(star1 + star2, 0.0, 1e-13);
            // v equation: F_v*·n = (p*/ρ⁻) n from side 1 and (p*/ρ⁺)(−n)
            // from side 2 — the shared quantity is p*.
            let p_star_1 = um[0] - o1[3] * ma.rho / n.z;
            let p_star_2 = up[0] - o2[3] * mb.rho / (-n.z);
            assert_close(p_star_1, p_star_2, 1e-13);
        }
    }

    #[test]
    fn acoustic_volume_matches_manual_derivatives() {
        use acoustic_vars::*;
        let n = 5;
        let rule = GllRule::new(n);
        let d = DiffMatrix::for_gll(&rule);
        let m = AcousticMaterial::new(2.0, 4.0);
        let jac_inv = 3.0;
        let nn = n * n * n;
        let mut u = vec![0.0; 4 * nn];
        let p = rule.points();
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let idx = wavesim_numerics::tensor::node_index(n, i, j, k);
                    let (x, y, z) = (p[i], p[j], p[k]);
                    u[P * nn + idx] = x * x + y;
                    u[VX * nn + idx] = 2.0 * x + z;
                    u[VY * nn + idx] = y * y;
                    u[VZ * nn + idx] = x * z;
                }
            }
        }
        let mut rhs = vec![0.0; 4 * nn];
        let mut scratch = vec![0.0; nn];
        Acoustic::volume(n, &d, jac_inv, &u, &m, &mut rhs, &mut scratch);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let idx = wavesim_numerics::tensor::node_index(n, i, j, k);
                    let (x, y, _z) = (p[i], p[j], p[k]);
                    // div v = 2 + 2y + x ; grad p = (2x, 1, 0).
                    let divv = 2.0 + 2.0 * y + x;
                    assert_close(rhs[P * nn + idx], -m.kappa * jac_inv * divv, 1e-10);
                    assert_close(rhs[VX * nn + idx], -jac_inv / m.rho * 2.0 * x, 1e-10);
                    assert_close(rhs[VY * nn + idx], -jac_inv / m.rho, 1e-10);
                    assert_close(rhs[VZ * nn + idx], 0.0, 1e-10);
                }
            }
        }
    }

    #[test]
    fn elastic_volume_matches_manual_derivatives() {
        use elastic_vars::*;
        let n = 4;
        let rule = GllRule::new(n);
        let d = DiffMatrix::for_gll(&rule);
        let m = ElasticMaterial::new(2.0, 0.5, 4.0);
        let jac_inv = 1.0;
        let nn = n * n * n;
        let mut u = vec![0.0; 9 * nn];
        let p = rule.points();
        // v = (y, z, x): ∇v has only off-diagonal entries.
        // S = diag-free except sxy = x.
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let idx = wavesim_numerics::tensor::node_index(n, i, j, k);
                    let (x, y, z) = (p[i], p[j], p[k]);
                    u[VX * nn + idx] = y;
                    u[VY * nn + idx] = z;
                    u[VZ * nn + idx] = x;
                    u[SXY * nn + idx] = x;
                }
            }
        }
        let mut rhs = vec![0.0; 9 * nn];
        let mut scratch = vec![0.0; nn];
        Elastic::volume(n, &d, jac_inv, &u, &m, &mut rhs, &mut scratch);
        for idx in 0..nn {
            // ∇·S = (∂x sxx + ∂y sxy + ∂z sxz, ∂x sxy + …, …) = (0, 1, 0).
            assert_close(rhs[VX * nn + idx], 0.0, 1e-10);
            assert_close(rhs[VY * nn + idx], 1.0 / m.rho, 1e-10);
            assert_close(rhs[VZ * nn + idx], 0.0, 1e-10);
            // div v = 0, so diagonal stresses stay zero (∂x vx = 0 etc).
            assert_close(rhs[SXX * nn + idx], 0.0, 1e-10);
            assert_close(rhs[SYY * nn + idx], 0.0, 1e-10);
            assert_close(rhs[SZZ * nn + idx], 0.0, 1e-10);
            // sxy: μ(∂y vx + ∂x vy) = μ(1 + 0) = μ.
            assert_close(rhs[SXY * nn + idx], m.mu, 1e-10);
            // sxz: μ(∂z vx + ∂x vz) = μ(0 + 1) = μ.
            assert_close(rhs[SXZ * nn + idx], m.mu, 1e-10);
            // syz: μ(∂z vy + ∂y vz) = μ(1 + 0) = μ.
            assert_close(rhs[SYZ * nn + idx], m.mu, 1e-10);
        }
    }

    #[test]
    fn wall_ghost_kills_normal_velocity_under_central_flux() {
        let n = Vec3::new(1.0, 0.0, 0.0);
        let um = [0.8, 0.6, 0.3, -0.2];
        let mut ghost = [0.0; 4];
        Acoustic::wall_ghost(n, &um, &mut ghost);
        // v_n* = (v_n⁻ + v_n⁺)/2 = 0 at a rigid wall.
        assert_close(0.5 * (um[1] + ghost[1]), 0.0, 1e-15);
        // Tangential velocity and pressure unchanged.
        assert_close(ghost[0], um[0], 0.0);
        assert_close(ghost[2], um[2], 0.0);
        assert_close(ghost[3], um[3], 0.0);
    }

    #[test]
    fn elastic_traction_of_identity_stress_is_normal() {
        use elastic_vars::*;
        let mut u = [0.0; 9];
        u[SXX] = 1.0;
        u[SYY] = 1.0;
        u[SZZ] = 1.0;
        let n = Vec3::new(0.6, 0.8, 0.0);
        let t = Elastic::traction(&u, n);
        assert_close((t - n).norm(), 0.0, 1e-15);
    }
}

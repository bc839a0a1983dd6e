//! Tensor-product kernels on `n × n × n` nodal fields.
//!
//! A hexahedral dG element stores one value per node; nodes are indexed
//! `(i, j, k)` with `i` fastest (x-direction). Applying a 1-D operator along
//! one axis is the computational core of the *Volume* kernel: for each of
//! the `n²` lines in the chosen direction, a dense `n × n` mat-vec.
//!
//! The layout convention `idx = i + n*j + n*n*k` is shared by every crate in
//! the workspace, including the Wave-PIM block layout where node `idx` of an
//! element owns row `idx` of a memory block (Fig. 5 of the paper).

use crate::lagrange::DiffMatrix;

/// Axis selector for tensor operations. `X` varies fastest in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    X,
    Y,
    Z,
}

impl Axis {
    /// All three axes in `X, Y, Z` order.
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    /// The 0/1/2 index of the axis.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
    }
}

/// Linear node index for `(i, j, k)` in an `n³` element.
#[inline]
pub fn node_index(n: usize, i: usize, j: usize, k: usize) -> usize {
    debug_assert!(i < n && j < n && k < n);
    i + n * (j + n * k)
}

/// Inverse of [`node_index`].
#[inline]
pub fn node_coords(n: usize, idx: usize) -> (usize, usize, usize) {
    debug_assert!(idx < n * n * n);
    (idx % n, (idx / n) % n, idx / (n * n))
}

/// Applies the differentiation matrix along `axis`: `out = (D ⊗ I ⊗ I) v`
/// (with the Kronecker position matching the axis). `v` and `out` must both
/// have length `n³` and must not alias.
///
/// `n` in `2..=4` dispatches to a loop nest with the order fixed at
/// compile time (the matrix and each line live in stack arrays); other
/// orders take the runtime loop. Both accumulate every output in the
/// same order, so the results are bit-identical.
#[inline]
pub fn apply_along_axis(d: &DiffMatrix, axis: Axis, n: usize, v: &[f64], out: &mut [f64]) {
    debug_assert_eq!(d.n(), n);
    debug_assert_eq!(v.len(), n * n * n);
    debug_assert_eq!(out.len(), n * n * n);
    match n {
        2 => apply_fixed::<2>(d, axis, v, out),
        3 => apply_fixed::<3>(d, axis, v, out),
        4 => apply_fixed::<4>(d, axis, v, out),
        _ => apply_runtime(d, axis, n, v, out),
    }
}

/// `(stride, sa, sb)` of the `n²` lines along `axis`: line `(a, b)` starts
/// at `a·sa + b·sb` and steps by `stride`. The same triple walks a face
/// normal to `axis`: its node `t = a + n·b` (the [`face_nodes`] order) is
/// `plane·stride + a·sa + b·sb`, with `plane` 0 or `n − 1`.
#[inline]
pub fn line_strides(n: usize, axis: Axis) -> (usize, usize, usize) {
    match axis {
        Axis::X => (1, n, n * n),
        Axis::Y => (n, 1, n * n),
        Axis::Z => (n * n, 1, n),
    }
}

fn apply_fixed<const N: usize>(d: &DiffMatrix, axis: Axis, v: &[f64], out: &mut [f64]) {
    let m: [[f64; N]; N] = std::array::from_fn(|i| std::array::from_fn(|j| d.get(i, j)));
    let (stride, sa, sb) = line_strides(N, axis);
    for b in 0..N {
        for a in 0..N {
            let base = a * sa + b * sb;
            let line: [f64; N] = std::array::from_fn(|j| v[base + j * stride]);
            for (i, row) in m.iter().enumerate() {
                let mut acc = 0.0;
                for (r, x) in row.iter().zip(&line) {
                    acc += r * x;
                }
                out[base + i * stride] = acc;
            }
        }
    }
}

fn apply_runtime(d: &DiffMatrix, axis: Axis, n: usize, v: &[f64], out: &mut [f64]) {
    let (stride, sa, sb) = line_strides(n, axis);
    for b in 0..n {
        for a in 0..n {
            let base = a * sa + b * sb;
            for i in 0..n {
                let mut acc = 0.0;
                for (j, r) in d.row(i).iter().enumerate() {
                    acc += r * v[base + j * stride];
                }
                out[base + i * stride] = acc;
            }
        }
    }
}

/// Iterator over the `n²` node indices of one face of an `n³` element.
///
/// `axis` is the face normal direction and `plus` selects the `+1` (last
/// plane) or `-1` (first plane) face. Indices are produced in the natural
/// order of the two tangential axes (lower axis fastest), which both sides
/// of a conforming face share on a structured mesh.
pub fn face_nodes(n: usize, axis: Axis, plus: bool) -> impl Iterator<Item = usize> {
    let (stride, sa, sb) = line_strides(n, axis);
    let plane = if plus { (n - 1) * stride } else { 0 };
    (0..n * n).map(move |t| plane + (t % n) * sa + (t / n) * sb)
}

/// Weighted inner product `Σ w_i w_j w_k u[ijk] v[ijk]` over the element —
/// the discrete (reference-element) L² inner product used for energy
/// accounting in the solver tests.
pub fn weighted_inner_product(n: usize, w: &[f64], u: &[f64], v: &[f64]) -> f64 {
    debug_assert_eq!(w.len(), n);
    let mut acc = 0.0;
    for k in 0..n {
        for j in 0..n {
            let wjk = w[j] * w[k];
            let base = n * (j + n * k);
            for i in 0..n {
                acc += w[i] * wjk * u[base + i] * v[base + i];
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gll::GllRule;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    fn nodal_field(n: usize, rule: &GllRule, f: impl Fn(f64, f64, f64) -> f64) -> Vec<f64> {
        let p = rule.points();
        let mut v = vec![0.0; n * n * n];
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    v[node_index(n, i, j, k)] = f(p[i], p[j], p[k]);
                }
            }
        }
        v
    }

    #[test]
    fn node_index_round_trips() {
        let n = 6;
        for idx in 0..n * n * n {
            let (i, j, k) = node_coords(n, idx);
            assert_eq!(node_index(n, i, j, k), idx);
        }
    }

    #[test]
    fn derivative_along_each_axis_is_exact_for_polynomials() {
        let n = 5;
        let rule = GllRule::new(n);
        let d = DiffMatrix::for_gll(&rule);
        // f = x³ + 2y² - 3z + xyz; gradients are degree ≤ n-1 per axis.
        let f = |x: f64, y: f64, z: f64| x.powi(3) + 2.0 * y * y - 3.0 * z + x * y * z;
        let v = nodal_field(n, &rule, f);
        let mut out = vec![0.0; n * n * n];

        apply_along_axis(&d, Axis::X, n, &v, &mut out);
        let p = rule.points();
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let exact = 3.0 * p[i] * p[i] + p[j] * p[k];
                    assert_close(out[node_index(n, i, j, k)], exact, 1e-10);
                }
            }
        }

        apply_along_axis(&d, Axis::Y, n, &v, &mut out);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let exact = 4.0 * p[j] + p[i] * p[k];
                    assert_close(out[node_index(n, i, j, k)], exact, 1e-10);
                }
            }
        }

        apply_along_axis(&d, Axis::Z, n, &v, &mut out);
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let exact = -3.0 + p[i] * p[j];
                    assert_close(out[node_index(n, i, j, k)], exact, 1e-10);
                }
            }
        }
    }

    #[test]
    fn face_nodes_have_correct_plane_coordinate() {
        let n = 4;
        for axis in Axis::ALL {
            for plus in [false, true] {
                let expected = if plus { n - 1 } else { 0 };
                let nodes: Vec<usize> = face_nodes(n, axis, plus).collect();
                assert_eq!(nodes.len(), n * n);
                for idx in nodes {
                    let (i, j, k) = node_coords(n, idx);
                    let fixed = match axis {
                        Axis::X => i,
                        Axis::Y => j,
                        Axis::Z => k,
                    };
                    assert_eq!(fixed, expected);
                }
            }
        }
    }

    #[test]
    fn face_nodes_are_unique() {
        let n = 5;
        for axis in Axis::ALL {
            let mut nodes: Vec<usize> = face_nodes(n, axis, true).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), n * n);
        }
    }

    #[test]
    fn opposite_faces_align_tangentially() {
        // Node t of the +face of one element must coincide (tangentially)
        // with node t of the -face of its neighbor: both iterators must
        // produce the same tangential coordinates in the same order.
        let n = 4;
        for axis in Axis::ALL {
            let plus: Vec<_> = face_nodes(n, axis, true).collect();
            let minus: Vec<_> = face_nodes(n, axis, false).collect();
            for (pi, mi) in plus.iter().zip(&minus) {
                let (pa, pb, pc) = node_coords(n, *pi);
                let (ma, mb, mc) = node_coords(n, *mi);
                match axis {
                    Axis::X => assert_eq!((pb, pc), (mb, mc)),
                    Axis::Y => assert_eq!((pa, pc), (ma, mc)),
                    Axis::Z => assert_eq!((pa, pb), (ma, mb)),
                }
            }
        }
    }

    #[test]
    fn fixed_order_dispatch_is_bit_identical_to_the_runtime_loop() {
        for n in 2..=4 {
            let rule = GllRule::new(n);
            let d = DiffMatrix::for_gll(&rule);
            let v = nodal_field(n, &rule, |x, y, z| (3.0 * x).sin() + y * z * z - 0.5 * x * y);
            for axis in Axis::ALL {
                let mut fixed = vec![0.0; n * n * n];
                let mut runtime = vec![0.0; n * n * n];
                apply_along_axis(&d, axis, n, &v, &mut fixed);
                apply_runtime(&d, axis, n, &v, &mut runtime);
                let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fixed), bits(&runtime), "n = {n}, axis {axis:?}");
            }
        }
    }

    #[test]
    fn weighted_inner_product_integrates_constants() {
        let n = 6;
        let rule = GllRule::new(n);
        let ones = vec![1.0; n * n * n];
        // ∫∫∫ 1 over [-1,1]³ = 8.
        let val = weighted_inner_product(n, rule.weights(), &ones, &ones);
        assert_close(val, 8.0, 1e-11);
    }

    #[test]
    fn weighted_inner_product_is_symmetric_and_positive() {
        let n = 4;
        let rule = GllRule::new(n);
        let u = nodal_field(n, &rule, |x, y, z| x + y * z);
        let v = nodal_field(n, &rule, |x, y, z| x * x - z + y);
        let uv = weighted_inner_product(n, rule.weights(), &u, &v);
        let vu = weighted_inner_product(n, rule.weights(), &v, &u);
        assert_close(uv, vu, 1e-12);
        let uu = weighted_inner_product(n, rule.weights(), &u, &u);
        assert!(uu > 0.0);
    }
}

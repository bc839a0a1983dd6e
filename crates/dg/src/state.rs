//! Solution state storage.
//!
//! Layout: `[element][variable][node]`, i.e. all unknowns of one element
//! are contiguous. This is exactly the ordering the Wave-PIM data layout
//! (Fig. 5) wants — node `i` of an element lives in row `i` of a memory
//! block with its variables side by side in the row — and it also gives the
//! native solver clean per-element parallel chunks for rayon.

/// Dense nodal state for `num_elements` elements with `num_vars` variables
/// of `nodes_per_element` values each.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    num_vars: usize,
    nodes_per_element: usize,
    num_elements: usize,
    data: Vec<f64>,
}

impl State {
    /// Allocates a zero-initialized state.
    pub fn zeros(num_elements: usize, num_vars: usize, nodes_per_element: usize) -> Self {
        Self {
            num_vars,
            nodes_per_element,
            num_elements,
            data: vec![0.0; num_elements * num_vars * nodes_per_element],
        }
    }

    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    #[inline]
    pub fn nodes_per_element(&self) -> usize {
        self.nodes_per_element
    }

    #[inline]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Length of one element's record, `num_vars · nodes_per_element`.
    #[inline]
    pub fn element_stride(&self) -> usize {
        self.num_vars * self.nodes_per_element
    }

    /// All values of one element, variables concatenated.
    #[inline]
    pub fn element(&self, elem: usize) -> &[f64] {
        let s = self.element_stride();
        &self.data[elem * s..(elem + 1) * s]
    }

    /// Mutable access to one element's record.
    #[inline]
    pub fn element_mut(&mut self, elem: usize) -> &mut [f64] {
        let s = self.element_stride();
        &mut self.data[elem * s..(elem + 1) * s]
    }

    /// One variable of one element.
    #[inline]
    pub fn var(&self, elem: usize, var: usize) -> &[f64] {
        debug_assert!(var < self.num_vars);
        let base = elem * self.element_stride() + var * self.nodes_per_element;
        &self.data[base..base + self.nodes_per_element]
    }

    /// Mutable access to one variable of one element.
    #[inline]
    pub fn var_mut(&mut self, elem: usize, var: usize) -> &mut [f64] {
        debug_assert!(var < self.num_vars);
        let base = elem * self.element_stride() + var * self.nodes_per_element;
        &mut self.data[base..base + self.nodes_per_element]
    }

    /// Single nodal value.
    #[inline]
    pub fn value(&self, elem: usize, var: usize, node: usize) -> f64 {
        debug_assert!(node < self.nodes_per_element);
        self.data[elem * self.element_stride() + var * self.nodes_per_element + node]
    }

    /// Sets a single nodal value.
    #[inline]
    pub fn set_value(&mut self, elem: usize, var: usize, node: usize, value: f64) {
        debug_assert!(node < self.nodes_per_element);
        let s = self.element_stride();
        self.data[elem * s + var * self.nodes_per_element + node] = value;
    }

    /// The flat backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat access (used by the integrator's fused update loops).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Parallel-friendly per-element chunks.
    #[inline]
    pub fn element_chunks_mut(&mut self) -> std::slice::ChunksMut<'_, f64> {
        let s = self.element_stride();
        self.data.chunks_mut(s)
    }

    /// Zeroes every value.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Fills from a function of `(element, variable, node)`.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize, usize) -> f64) {
        for e in 0..self.num_elements {
            for v in 0..self.num_vars {
                for n in 0..self.nodes_per_element {
                    self.set_value(e, v, n, f(e, v, n));
                }
            }
        }
    }

    /// Maximum absolute value across the state (for stability checks).
    /// NaN if any value is NaN, so `max_abs().is_finite()` fails on it.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, &v| max_or_nan(m, v.abs()))
    }

    /// Maximum absolute difference against another state of identical
    /// shape. NaN if any difference is NaN.
    pub fn max_abs_diff(&self, other: &State) -> f64 {
        assert_eq!(self.data.len(), other.data.len(), "state shapes differ");
        self.data.iter().zip(&other.data).fold(0.0, |m, (&a, &b)| max_or_nan(m, (a - b).abs()))
    }
}

/// `f64::max`, except that a NaN on either side wins instead of being
/// dropped.
fn max_or_nan(m: f64, x: f64) -> f64 {
    if m.is_nan() || x.is_nan() {
        f64::NAN
    } else {
        m.max(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_element_major() {
        let mut s = State::zeros(3, 2, 4);
        s.fill_with(|e, v, n| (e * 100 + v * 10 + n) as f64);
        // Element 1's record: var 0 nodes then var 1 nodes.
        let rec = s.element(1);
        assert_eq!(rec.len(), 8);
        assert_eq!(rec[0], 100.0);
        assert_eq!(rec[3], 103.0);
        assert_eq!(rec[4], 110.0);
        assert_eq!(rec[7], 113.0);
        assert_eq!(s.value(2, 1, 3), 213.0);
    }

    #[test]
    fn var_views_are_disjoint_and_complete() {
        let mut s = State::zeros(2, 3, 5);
        for e in 0..2 {
            for v in 0..3 {
                let slice = s.var_mut(e, v);
                assert_eq!(slice.len(), 5);
                slice.fill((e * 3 + v) as f64);
            }
        }
        let total: f64 = s.as_slice().iter().sum();
        let expected: f64 = (0..6).map(|x| x as f64 * 5.0).sum();
        assert_eq!(total, expected);
    }

    #[test]
    fn chunks_align_with_elements() {
        let mut s = State::zeros(4, 2, 3);
        s.fill_with(|e, _, _| e as f64);
        for (e, chunk) in s.element_chunks_mut().enumerate() {
            assert!(chunk.iter().all(|&v| v == e as f64));
        }
    }

    #[test]
    fn diff_and_max_abs() {
        let mut a = State::zeros(1, 1, 4);
        let mut b = State::zeros(1, 1, 4);
        a.set_value(0, 0, 2, -3.0);
        b.set_value(0, 0, 2, 1.5);
        assert_eq!(a.max_abs(), 3.0);
        assert_eq!(a.max_abs_diff(&b), 4.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn norms_propagate_nan_and_infinity() {
        let finite = State::zeros(1, 2, 3);
        for (bad, max_abs_is_nan) in
            [(f64::NAN, true), (f64::INFINITY, false), (f64::NEG_INFINITY, false)]
        {
            for cell in [0, 2, 5] {
                let mut s = State::zeros(1, 2, 3);
                s.fill_with(|_, v, n| (v * 3 + n) as f64 - 2.5);
                s.as_mut_slice()[cell] = bad;
                let (norm, diff) = (s.max_abs(), s.max_abs_diff(&finite));
                assert!(!norm.is_finite() && !diff.is_finite(), "{bad} at {cell}");
                assert_eq!(norm.is_nan(), max_abs_is_nan, "{bad} at {cell}");
                assert_eq!(diff.is_nan(), max_abs_is_nan, "{bad} at {cell}");
                assert_eq!(finite.max_abs_diff(&s).is_nan(), max_abs_is_nan, "{bad} at {cell}");
            }
        }
        // inf − inf is NaN: two states with the same infinite cell differ by NaN.
        let mut inf = State::zeros(1, 1, 2);
        inf.as_mut_slice()[1] = f64::INFINITY;
        assert!(inf.max_abs_diff(&inf).is_nan());
    }
}

//! The structured hexahedral mesh.

use wavesim_numerics::Vec3;

use crate::face::{Face, Neighbor};

/// An element identifier: the lexicographic index `ix + n·iy + n²·iz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElemId(pub usize);

impl ElemId {
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Domain boundary treatment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// Opposite faces of the domain are identified; every element has
    /// exactly six neighbors. Used for plane-wave convergence tests.
    Periodic,
    /// Rigid walls: faces on the domain boundary have no neighbor and the
    /// solver mirrors the state there.
    Wall,
}

/// A uniform structured mesh of `(2^level)³` hexahedral elements over the
/// cube `[0, extent]³`.
///
/// Refinement level `n` matches the paper's Table 1: "the problem domain is
/// discretized into `(2ⁿ)³` elements". Level 4 → 4,096 elements; level 5 →
/// 32,768 elements — the two sizes used by all six paper benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct HexMesh {
    level: u32,
    per_axis: usize,
    extent: f64,
    h: f64,
    boundary: Boundary,
}

impl HexMesh {
    /// Builds a refinement-level `level` mesh over `[0, 1]³`.
    pub fn refinement_level(level: u32, boundary: Boundary) -> Self {
        Self::with_extent(level, 1.0, boundary)
    }

    /// Builds a refinement-level `level` mesh over `[0, extent]³`.
    ///
    /// # Panics
    /// Panics if `extent` is not strictly positive or `level > 10` (more
    /// than a billion elements is certainly a caller bug).
    pub fn with_extent(level: u32, extent: f64, boundary: Boundary) -> Self {
        assert!(extent > 0.0, "domain extent must be positive");
        assert!(level <= 10, "refinement level {level} is unreasonably large");
        let per_axis = 1usize << level;
        Self { level, per_axis, extent, h: extent / per_axis as f64, boundary }
    }

    /// The refinement level.
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Elements per axis, `2^level`.
    #[inline]
    pub fn per_axis(&self) -> usize {
        self.per_axis
    }

    /// Total number of elements, `(2^level)³`.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.per_axis * self.per_axis * self.per_axis
    }

    /// Edge length of the cubic domain.
    #[inline]
    pub fn extent(&self) -> f64 {
        self.extent
    }

    /// Edge length of one element.
    #[inline]
    pub fn h(&self) -> f64 {
        self.h
    }

    /// The boundary treatment.
    #[inline]
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// Iterator over all element ids in layout order.
    pub fn elements(&self) -> impl Iterator<Item = ElemId> {
        (0..self.num_elements()).map(ElemId)
    }

    /// Grid coordinates `(ix, iy, iz)` of an element.
    #[inline]
    pub fn elem_coords(&self, elem: ElemId) -> (usize, usize, usize) {
        debug_assert!(elem.0 < self.num_elements());
        // `per_axis` is `2^level`: shifts and masks, not divisions.
        let (level, mask) = (self.level, self.per_axis - 1);
        (elem.0 & mask, (elem.0 >> level) & mask, elem.0 >> (2 * level))
    }

    /// Element id from grid coordinates.
    #[inline]
    pub fn elem_id(&self, ix: usize, iy: usize, iz: usize) -> ElemId {
        let n = self.per_axis;
        debug_assert!(ix < n && iy < n && iz < n);
        ElemId(ix + n * (iy + n * iz))
    }

    /// Physical coordinates of the low corner of an element.
    #[inline]
    pub fn elem_origin(&self, elem: ElemId) -> Vec3 {
        let (ix, iy, iz) = self.elem_coords(elem);
        Vec3::new(ix as f64 * self.h, iy as f64 * self.h, iz as f64 * self.h)
    }

    /// Physical center of an element.
    #[inline]
    pub fn elem_center(&self, elem: ElemId) -> Vec3 {
        self.elem_origin(elem) + Vec3::new(0.5, 0.5, 0.5) * self.h
    }

    /// Maps a reference coordinate `r ∈ [-1, 1]³` inside an element to
    /// physical space.
    #[inline]
    pub fn to_physical(&self, elem: ElemId, r: Vec3) -> Vec3 {
        self.elem_origin(elem) + (r + Vec3::new(1.0, 1.0, 1.0)) * (0.5 * self.h)
    }

    /// What lies across `face` of `elem`.
    pub fn neighbor(&self, elem: ElemId, face: Face) -> Neighbor {
        let (ix, iy, iz) = self.elem_coords(elem);
        let n = self.per_axis;
        let step = |coord: usize, plus: bool| -> Option<usize> {
            if plus {
                if coord + 1 < n {
                    Some(coord + 1)
                } else {
                    match self.boundary {
                        Boundary::Periodic => Some(0),
                        Boundary::Wall => None,
                    }
                }
            } else if coord > 0 {
                Some(coord - 1)
            } else {
                match self.boundary {
                    Boundary::Periodic => Some(n - 1),
                    Boundary::Wall => None,
                }
            }
        };
        let coords = match face {
            Face::XMinus => step(ix, false).map(|x| (x, iy, iz)),
            Face::XPlus => step(ix, true).map(|x| (x, iy, iz)),
            Face::YMinus => step(iy, false).map(|y| (ix, y, iz)),
            Face::YPlus => step(iy, true).map(|y| (ix, y, iz)),
            Face::ZMinus => step(iz, false).map(|z| (ix, iy, z)),
            Face::ZPlus => step(iz, true).map(|z| (ix, iy, z)),
        };
        match coords {
            Some((x, y, z)) => Neighbor::Element(self.elem_id(x, y, z)),
            None => Neighbor::Boundary,
        }
    }

    /// The y-slice an element belongs to. The Flux batching scheme of the
    /// paper (§6.1.2, Fig. 7) partitions the model into slices along one
    /// axis; the inter-slice axis in the paper's walkthrough is y.
    #[inline]
    pub fn slice_of(&self, elem: ElemId) -> usize {
        self.elem_coords(elem).1
    }

    /// Number of y-slices, equal to `per_axis`.
    #[inline]
    pub fn num_slices(&self) -> usize {
        self.per_axis
    }

    /// Elements of one y-slice, in layout order.
    pub fn slice_elements(&self, slice: usize) -> impl Iterator<Item = ElemId> + '_ {
        assert!(slice < self.per_axis, "slice index out of range");
        let n = self.per_axis;
        (0..n * n).map(move |t| self.elem_id(t % n, slice, t / n))
    }

    /// Number of elements per slice, `per_axis²`.
    #[inline]
    pub fn elements_per_slice(&self) -> usize {
        self.per_axis * self.per_axis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refinement_level_element_counts() {
        // Table 1 of the paper: level n → (2^n)³ elements.
        assert_eq!(HexMesh::refinement_level(0, Boundary::Periodic).num_elements(), 1);
        assert_eq!(HexMesh::refinement_level(2, Boundary::Periodic).num_elements(), 64);
        assert_eq!(HexMesh::refinement_level(4, Boundary::Periodic).num_elements(), 4096);
        assert_eq!(HexMesh::refinement_level(5, Boundary::Periodic).num_elements(), 32768);
    }

    #[test]
    fn coords_round_trip() {
        let mesh = HexMesh::refinement_level(3, Boundary::Wall);
        for elem in mesh.elements() {
            let (x, y, z) = mesh.elem_coords(elem);
            assert_eq!(mesh.elem_id(x, y, z), elem);
        }
    }

    #[test]
    fn neighbor_is_symmetric() {
        for boundary in [Boundary::Periodic, Boundary::Wall] {
            let mesh = HexMesh::refinement_level(2, boundary);
            for elem in mesh.elements() {
                for face in Face::ALL {
                    if let Neighbor::Element(other) = mesh.neighbor(elem, face) {
                        assert_eq!(
                            mesh.neighbor(other, face.opposite()),
                            Neighbor::Element(elem),
                            "asymmetric neighbor across {face:?} of {elem:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn periodic_mesh_has_six_neighbors_everywhere() {
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        for elem in mesh.elements() {
            for face in Face::ALL {
                assert!(matches!(mesh.neighbor(elem, face), Neighbor::Element(_)));
            }
        }
    }

    #[test]
    fn periodic_wraps_to_far_side() {
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let corner = mesh.elem_id(0, 0, 0);
        assert_eq!(mesh.neighbor(corner, Face::XMinus), Neighbor::Element(mesh.elem_id(3, 0, 0)));
        assert_eq!(mesh.neighbor(corner, Face::YMinus), Neighbor::Element(mesh.elem_id(0, 3, 0)));
        assert_eq!(mesh.neighbor(corner, Face::ZMinus), Neighbor::Element(mesh.elem_id(0, 0, 3)));
    }

    #[test]
    fn wall_mesh_boundary_faces() {
        let mesh = HexMesh::refinement_level(2, Boundary::Wall);
        let corner = mesh.elem_id(0, 0, 0);
        assert_eq!(mesh.neighbor(corner, Face::XMinus), Neighbor::Boundary);
        assert_eq!(mesh.neighbor(corner, Face::YMinus), Neighbor::Boundary);
        assert_eq!(mesh.neighbor(corner, Face::ZMinus), Neighbor::Boundary);
        assert!(matches!(mesh.neighbor(corner, Face::XPlus), Neighbor::Element(_)));
        // Interior element has all six neighbors.
        let inner = mesh.elem_id(1, 2, 1);
        for face in Face::ALL {
            assert!(matches!(mesh.neighbor(inner, face), Neighbor::Element(_)));
        }
    }

    #[test]
    fn boundary_face_count_matches_surface_area() {
        let mesh = HexMesh::refinement_level(3, Boundary::Wall);
        let n = mesh.per_axis();
        let mut boundary_faces = 0;
        for elem in mesh.elements() {
            for face in Face::ALL {
                if mesh.neighbor(elem, face) == Neighbor::Boundary {
                    boundary_faces += 1;
                }
            }
        }
        assert_eq!(boundary_faces, 6 * n * n);
    }

    #[test]
    fn geometry_of_elements() {
        let mesh = HexMesh::with_extent(1, 2.0, Boundary::Wall);
        assert_eq!(mesh.h(), 1.0);
        let e = mesh.elem_id(1, 0, 1);
        assert_eq!(mesh.elem_origin(e), Vec3::new(1.0, 0.0, 1.0));
        assert_eq!(mesh.elem_center(e), Vec3::new(1.5, 0.5, 1.5));
        assert_eq!(mesh.to_physical(e, Vec3::new(-1.0, -1.0, -1.0)), Vec3::new(1.0, 0.0, 1.0));
        assert_eq!(mesh.to_physical(e, Vec3::new(1.0, 1.0, 1.0)), Vec3::new(2.0, 1.0, 2.0));
    }

    #[test]
    fn slices_partition_the_mesh() {
        let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
        let mut seen = vec![false; mesh.num_elements()];
        for s in 0..mesh.num_slices() {
            let mut count = 0;
            for elem in mesh.slice_elements(s) {
                assert_eq!(mesh.slice_of(elem), s);
                assert!(!seen[elem.index()]);
                seen[elem.index()] = true;
                count += 1;
            }
            assert_eq!(count, mesh.elements_per_slice());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn y_neighbors_stay_within_adjacent_slices() {
        // The batching scheme relies on x/z flux being intra-slice and
        // y flux touching only slice ± 1.
        let mesh = HexMesh::refinement_level(3, Boundary::Wall);
        for elem in mesh.elements() {
            let s = mesh.slice_of(elem);
            for face in [Face::XMinus, Face::XPlus, Face::ZMinus, Face::ZPlus] {
                if let Neighbor::Element(nb) = mesh.neighbor(elem, face) {
                    assert_eq!(mesh.slice_of(nb), s);
                }
            }
            if let Neighbor::Element(nb) = mesh.neighbor(elem, Face::YPlus) {
                assert_eq!(mesh.slice_of(nb), s + 1);
            }
            if let Neighbor::Element(nb) = mesh.neighbor(elem, Face::YMinus) {
                assert_eq!(mesh.slice_of(nb), s - 1);
            }
        }
    }

    #[test]
    #[should_panic(expected = "extent must be positive")]
    fn rejects_nonpositive_extent() {
        let _ = HexMesh::with_extent(2, 0.0, Boundary::Wall);
    }
}

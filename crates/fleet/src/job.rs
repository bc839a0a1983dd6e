//! The fleet's unit of work: one independent acoustic simulation with a
//! resource ask (`chips_wanted`), a step budget, and an optional
//! deadline.
//!
//! Everything the placement engine needs to reason about a job without
//! building it — block demand per chip, feasibility on a chip subset,
//! the program key, virtual cost estimates — lives here as
//! closed-form arithmetic over the spec. The demand model deals
//! residents with [`wavesim_mesh::slice_deal`], the same deal
//! [`wavesim_mesh::SlicePartition::new_weighted`] shards by, and bounds
//! ghosts from above, so a subset the planner accepts always fits the
//! real `pim_cluster::ClusterRunner` shard map.

use pim_sim::ChipCapacity;
use wavesim_dg::{AcousticMaterial, FluxKind};
use wavesim_numerics::Vec3;

/// The acoustic initial condition a job starts from. Workloads only
/// change *data*, never compiled programs, so two jobs differing only
/// in workload can share a resident program (see
/// [`JobSpec::program_key`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A plane pressure wave along x.
    PlaneX,
    /// A velocity shear along y.
    ShearY,
    /// A smooth periodic pressure pulse.
    Pulse,
    /// Mixed tones across all four acoustic variables.
    MixedTones,
}

impl Workload {
    /// All workloads, in key order.
    pub const ALL: [Workload; 4] =
        [Workload::PlaneX, Workload::ShearY, Workload::Pulse, Workload::MixedTones];

    /// The initial value of acoustic variable `var` (0 = pressure,
    /// 1..=3 = velocity) at position `x` — smooth and periodic on the
    /// unit cube, so any mesh level resolves it.
    pub fn value(self, var: usize, x: Vec3) -> f64 {
        let tau = std::f64::consts::TAU;
        match self {
            Workload::PlaneX => match var {
                0 => (tau * x.x).sin(),
                1 => (tau * x.x).sin(),
                _ => 0.0,
            },
            Workload::ShearY => match var {
                1 => 0.5 * (tau * x.y).cos(),
                3 => 0.25 * (tau * x.y).sin(),
                _ => 0.0,
            },
            Workload::Pulse => match var {
                0 => (tau * x.x).sin() * (tau * x.y).sin() * (tau * x.z).sin(),
                _ => 0.0,
            },
            Workload::MixedTones => match var {
                0 => (tau * x.x).sin() + 0.25 * (tau * x.y).cos(),
                1 => 0.5 * (tau * x.y).sin(),
                2 => 0.25 * (tau * (x.x + x.z)).cos(),
                _ => 0.125 * (tau * x.z).sin(),
            },
        }
    }
}

/// One simulation job as submitted to the fleet.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable label (metrics / reports); need not be unique.
    pub name: String,
    /// Mesh refinement level: `8^level` elements, `2^level` y-slices.
    pub level: u32,
    /// Polynomial order per element.
    pub order: usize,
    /// Numerical flux.
    pub flux: FluxKind,
    /// Homogeneous acoustic material.
    pub material: AcousticMaterial,
    /// Initial condition.
    pub workload: Workload,
    /// Time steps to advance.
    pub steps: usize,
    /// Time-step size.
    pub dt: f64,
    /// How many chips the job wants to shard across.
    pub chips_wanted: usize,
    /// Virtual arrival time (seconds on the planner's timeline).
    pub arrival: f64,
    /// Optional deadline, virtual seconds after `arrival`. Deadline
    /// jobs age faster in the placement score and late finishes are
    /// flagged, not dropped.
    pub deadline: Option<f64>,
}

impl JobSpec {
    /// A small default job: level-2 mesh, order 2, Riemann flux, one
    /// chip, immediate arrival.
    pub fn new(name: impl Into<String>, level: u32, workload: Workload, steps: usize) -> Self {
        Self {
            name: name.into(),
            level,
            order: 2,
            flux: FluxKind::Riemann,
            material: AcousticMaterial::new(2.0, 1.0),
            workload,
            steps,
            dt: 1e-3,
            chips_wanted: 1,
            arrival: 0.0,
            deadline: None,
        }
    }

    /// `8^level` mesh elements.
    pub fn num_elements(&self) -> usize {
        1usize << (3 * self.level)
    }

    /// `2^level` y-slices — the upper bound on `chips_wanted`.
    pub fn num_slices(&self) -> usize {
        1usize << self.level
    }

    /// `4^level` elements per y-slice.
    pub fn elements_per_slice(&self) -> usize {
        1usize << (2 * self.level)
    }

    /// Per-chip block demand when sharded over chips of the given
    /// capacities: residents (one block per element, dealt by the
    /// weighted partition's own slice deal) + ghosts (bounded above by the two boundary
    /// layers) + the parking and LUT blocks. The bound is conservative
    /// in the safe direction — a subset this model accepts always fits
    /// the real shard map.
    ///
    /// Returns `None` when the subset cannot host the job at all:
    /// wrong chip count or more chips than slices.
    pub fn demand_blocks(&self, caps: &[ChipCapacity]) -> Option<Vec<u64>> {
        if caps.len() != self.chips_wanted || caps.len() > self.num_slices() {
            return None;
        }
        let weights: Vec<u64> = caps.iter().map(|c| c.num_blocks()).collect();
        let counts = wavesim_mesh::slice_deal(self.num_slices(), &weights);
        let per_slice = self.elements_per_slice() as u64;
        let ghosts = if caps.len() > 1 { 2 * per_slice } else { 0 };
        Some(counts.iter().map(|&n| n as u64 * per_slice + ghosts + 2).collect())
    }

    /// True when the job fits the given chip subset under the
    /// conservative demand model.
    pub fn fits(&self, caps: &[ChipCapacity]) -> bool {
        match self.demand_blocks(caps) {
            Some(demand) => demand.iter().zip(caps).all(|(&d, c)| d <= c.num_blocks()),
            None => false,
        }
    }

    /// The *program* key: hashes every input the compiled
    /// `pim_cluster::ClusterRunner` programs are built from — mesh
    /// level, order, flux, material, dt, and the capacity sequence of
    /// the hosting chips (capacities drive the weighted partition,
    /// which changes every shard's programs). A program is a compile
    /// artifact of these inputs, so two jobs with equal program keys on
    /// the same chip subset can share a runner: one built for either,
    /// `pim_cluster::ClusterRunner::reset_state` to the other's
    /// initial state, replays it bit-identically to a fresh runner —
    /// what makes a cache-affinity hit sound.
    pub fn program_key(&self, caps: &[ChipCapacity]) -> u64 {
        let mut h = pim_isa::FNV_OFFSET;
        h = pim_isa::fnv1a(h, u64::from(self.level));
        h = pim_isa::fnv1a(h, self.order as u64);
        h = pim_isa::fnv1a(
            h,
            match self.flux {
                FluxKind::Central => 0,
                FluxKind::Riemann => 1,
            },
        );
        h = pim_isa::fnv1a(h, self.material.kappa.to_bits());
        h = pim_isa::fnv1a(h, self.material.rho.to_bits());
        h = pim_isa::fnv1a(h, self.dt.to_bits());
        for cap in caps {
            h = pim_isa::fnv1a(h, cap.num_blocks());
        }
        h
    }

    /// Virtual run cost for the planner's timeline: work is
    /// step-by-element, and the constant cancels in every comparison
    /// the planner makes.
    pub fn est_run_cost(&self) -> f64 {
        self.steps as f64 * self.num_elements() as f64
    }

    /// Virtual compile cost: program compilation is per-element host
    /// work, a fraction of a step sweep.
    pub fn est_compile_cost(&self) -> f64 {
        0.25 * self.num_elements() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesim_mesh::{Boundary, HexMesh, SlicePartition};

    #[test]
    fn slice_deal_mirrors_the_weighted_partition() {
        // The demand model's deal over the spec's slice count must agree
        // with the real partitioner's shards for every shape the fleet
        // places.
        for (level, weights) in [
            (3u32, vec![16384u64, 65536]),
            (3, vec![1, 1, 1]),
            (2, vec![16384, 16384]),
            (3, vec![65536, 16384, 16384]),
            (2, vec![7]),
        ] {
            let spec = JobSpec::new("t", level, Workload::Pulse, 1);
            let counts = wavesim_mesh::slice_deal(spec.num_slices(), &weights);
            let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
            let p = SlicePartition::new_weighted(&mesh, &weights);
            let real: Vec<usize> = p.shards().iter().map(|s| s.slice_end - s.slice_begin).collect();
            assert_eq!(counts, real, "level {level} weights {weights:?}");
        }
    }

    #[test]
    fn demand_never_underestimates_the_real_shard_map() {
        // Ghost bound is from above: real ghosts per shard are at most
        // the two boundary layers the model charges.
        let spec = {
            let mut s = JobSpec::new("t", 3, Workload::Pulse, 1);
            s.chips_wanted = 2;
            s
        };
        let caps = [ChipCapacity::Gb2, ChipCapacity::Gb8];
        let demand = spec.demand_blocks(&caps).unwrap();
        let mesh = HexMesh::refinement_level(3, Boundary::Periodic);
        let weights: Vec<u64> = caps.iter().map(|c| c.num_blocks()).collect();
        let p = SlicePartition::new_weighted(&mesh, &weights);
        for (shard, &d) in p.shards().iter().zip(&demand) {
            let actual = shard.elements.len() as u64 + shard.ghosts.len() as u64 + 2;
            assert!(actual <= d, "shard {}: actual {actual} > modeled {d}", shard.index);
        }
    }

    #[test]
    fn feasibility_follows_block_capacity() {
        // Level 5 solo needs 8^5 + 2 = 32770 blocks: over a 2 GB chip
        // (16384), within an 8 GB one (65536).
        let spec = JobSpec::new("big", 5, Workload::PlaneX, 1);
        assert!(!spec.fits(&[ChipCapacity::Gb2]));
        assert!(spec.fits(&[ChipCapacity::Gb8]));
        // More chips than slices can never host the job.
        let mut narrow = JobSpec::new("narrow", 1, Workload::PlaneX, 1);
        narrow.chips_wanted = 4;
        assert!(!narrow.fits(&[ChipCapacity::Gb8; 4]));
    }

    #[test]
    fn keys_separate_programs_from_replays() {
        let caps = [ChipCapacity::Gb2];
        let a = JobSpec::new("a", 2, Workload::PlaneX, 4);
        let mut b = a.clone();
        b.name = "b".into();
        b.workload = Workload::Pulse;
        b.steps = 9;
        // Same program (level/order/flux/material/dt/chips): workload
        // and step budget are replay data, not compile inputs.
        assert_eq!(a.program_key(&caps), b.program_key(&caps));
        // Capacity sequence is part of the program: the weighted deal
        // changes shard programs.
        assert_ne!(a.program_key(&caps), a.program_key(&[ChipCapacity::Gb8]));
        // dt is part of the program (integration constants).
        let mut c = a.clone();
        c.dt = 2e-3;
        assert_ne!(a.program_key(&caps), c.program_key(&caps));
    }
}

//! The benchmark's workloads and the seeded input generator.
//!
//! Why each workload exists, and which layers it should and should not
//! move, is written up in `README.md`; the configuration lives here.

use pim_cluster::{ClusterConfig, ClusterProtocol};
use pim_math::MathConfig;
use pim_sim::InterChipLink;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

/// The material every workload uses (κ = 2, ρ = 1).
pub const MATERIAL: AcousticMaterial = AcousticMaterial { kappa: 2.0, rho: 1.0 };

/// Nodes per element axis in every workload.
pub const N: usize = 2;

/// Simulated seconds per time-step of the PIM workloads.
pub const PIM_DT: f64 = 1e-3;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// CFL number the native workload's time-step is derived from.
pub const NATIVE_CFL: f64 = 0.3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Level 4 on 4 × 2 GB chips, default link, pipelined, math off.
    PimL4x4,
    /// Level 4 on 16 × 2 GB chips, 1/64-bandwidth link, pipelined,
    /// math on-PIM.
    HaloL4x16Narrow,
    /// The native dG solver at level 6.
    NativeL6,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::PimL4x4, Workload::HaloL4x16Narrow, Workload::NativeL6];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PimL4x4 => "pim_l4x4",
            Workload::HaloL4x16Narrow => "halo_l4x16_narrow",
            Workload::NativeL6 => "native_l6",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Mesh refinement level.
    pub fn level(self) -> u32 {
        match self {
            Workload::PimL4x4 | Workload::HaloL4x16Narrow => 4,
            Workload::NativeL6 => 6,
        }
    }

    /// The cluster this workload runs on; `None` for the native solver.
    pub fn cluster(self) -> Option<ClusterConfig> {
        match self {
            Workload::PimL4x4 => Some(
                ClusterConfig::new(4)
                    .with_protocol(ClusterProtocol::Pipelined)
                    .with_math(MathConfig::off()),
            ),
            Workload::HaloL4x16Narrow => {
                let mut config = ClusterConfig::new(16)
                    .with_protocol(ClusterProtocol::Pipelined)
                    .with_math(MathConfig::on_pim());
                config.link = InterChipLink::default();
                config.link.bandwidth /= 64.0;
                Some(config)
            }
            Workload::NativeL6 => None,
        }
    }

    pub fn mesh(self) -> HexMesh {
        HexMesh::refinement_level(self.level(), Boundary::Periodic)
    }
}

/// A plane acoustic wave `p = A·sin(2π k·x + φ)`, `v = p·k̂/Z`, travelling
/// along `k̂` on the periodic unit cube. The seed picks the integer wave
/// vector, the amplitude and the phase; nothing else about the run
/// depends on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneWave {
    pub k: [i32; 3],
    pub amplitude: f64,
    pub phase: f64,
}

impl PlaneWave {
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix64(seed);
        let mut k = [0i32; 3];
        while k == [0, 0, 0] {
            for c in &mut k {
                *c = (rng.next() % 5) as i32 - 2;
            }
        }
        let amplitude = 0.5 + 1.5 * rng.unit();
        let phase = std::f64::consts::TAU * rng.unit();
        Self { k, amplitude, phase }
    }

    /// Value of variable `var` (p, vx, vy, vz) at `x`.
    pub fn value(&self, var: usize, x: [f64; 3]) -> f64 {
        let k = self.k.map(f64::from);
        let kx = k[0] * x[0] + k[1] * x[1] + k[2] * x[2];
        let p = self.amplitude * (std::f64::consts::TAU * kx + self.phase).sin();
        if var == 0 {
            return p;
        }
        let norm = (k[0] * k[0] + k[1] * k[1] + k[2] * k[2]).sqrt();
        let impedance = (MATERIAL.kappa * MATERIAL.rho).sqrt();
        p * k[var - 1] / (norm * impedance)
    }

    /// A native solver on `mesh` holding this wave — the generated
    /// input every workload starts from.
    pub fn solver(&self, mesh: HexMesh, n: usize) -> Solver<Acoustic> {
        let mut s = Solver::<Acoustic>::uniform(mesh, n, FluxKind::Riemann, MATERIAL);
        s.set_initial(|v, x| self.value(v, [x.x, x.y, x.z]));
        s
    }
}

/// SplitMix64: a small, well-mixed generator, so inputs depend only on
/// the seed and never on a platform RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn same_seed_same_wave_and_seeds_differ() {
        assert_eq!(PlaneWave::from_seed(7), PlaneWave::from_seed(7));
        let waves: Vec<PlaneWave> = (0..16).map(PlaneWave::from_seed).collect();
        assert!(waves.windows(2).any(|w| w[0] != w[1]));
        for w in waves {
            assert_ne!(w.k, [0, 0, 0]);
            assert!(w.k.iter().all(|c| (-2..=2).contains(c)));
            assert!((0.5..2.0).contains(&w.amplitude));
        }
    }

    #[test]
    fn velocity_is_pressure_over_impedance_along_k() {
        let w = PlaneWave { k: [1, 0, 0], amplitude: 1.0, phase: 0.3 };
        let x = [0.1, 0.7, 0.2];
        let z = (MATERIAL.kappa * MATERIAL.rho).sqrt();
        assert!((w.value(1, x) - w.value(0, x) / z).abs() < 1e-15);
        assert_eq!(w.value(2, x), 0.0);
        assert_eq!(w.value(3, x), 0.0);
    }
}

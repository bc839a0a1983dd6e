//! The engine kernel-replay probe: chip 0's shard of a PIM workload,
//! rebuilt through the public mapping API exactly as the cluster runtime
//! builds it, with each kernel's `PimChip::execute` timed on the host
//! and its instruction stream's opcode mix recorded.

use std::time::Instant;

use pim_cluster::ClusterConfig;
use pim_isa::{InstrStream, StreamStats};
use pim_math::MathPlacement;
use pim_sim::PimChip;
use wave_pim::compiler::AcousticMapping;
use wavesim_dg::{FluxKind, Lsrk5, State};
use wavesim_mesh::{HexMesh, SlicePartition};

use crate::stats::median;
use crate::workload::MATERIAL;

/// The kernels of one cluster stage, in the order a chip executes them.
pub const KERNELS: [&str; 6] =
    ["HaloStore", "HaloLoad", "MathStage", "Volume", "Flux", "Integration"];

/// Replayed time-steps (five stages each).
const REPS: usize = 2;

/// One kernel's probe result.
#[derive(Debug, Clone)]
pub struct KernelSample {
    pub name: &'static str,
    /// Median host seconds of one `PimChip::execute` of the stream.
    pub exec_s: f64,
    pub stats: StreamStats,
}

impl KernelSample {
    pub fn instrs(&self) -> u64 {
        self.stats.total()
    }

    /// Host nanoseconds per executed instruction (0 for an empty stream).
    pub fn ns_per_instr(&self) -> f64 {
        match self.instrs() {
            0 => 0.0,
            n => self.exec_s * 1e9 / n as f64,
        }
    }
}

/// Builds chip 0's shard of `mesh` under `config` and replays its
/// kernels for [`REPS`] steps. `placement` is the math placement the
/// runtime resolved for chip 0.
pub fn replay_chip0(
    mesh: &HexMesh,
    n: usize,
    dt: f64,
    config: &ClusterConfig,
    placement: Option<MathPlacement>,
    initial: &State,
) -> Vec<KernelSample> {
    let partition = SlicePartition::new_weighted(mesh, &config.partition_weights());
    let shard = &partition.shards()[0];
    let res: Vec<usize> = shard.elements.iter().map(|e| e.index()).collect();
    let ghosts: Vec<usize> = shard.ghosts.iter().map(|e| e.index()).collect();
    let sends: Vec<usize> = shard.boundary_elements(&partition).iter().map(|e| e.index()).collect();

    let mut mapping = AcousticMapping::uniform(mesh.clone(), n, FluxKind::Riemann, MATERIAL);
    mapping.install_shard_map(&res, &ghosts);
    mapping.set_math_placement(placement);
    let mut chip = PimChip::new(config.chips[0]);
    mapping.preload_static_subset(&mut chip, dt, &res);
    mapping.load_vars_subset(&mut chip, initial, &res);
    mapping.load_vars_subset(&mut chip, initial, &ghosts);
    mapping.zero_dynamic_subset(&mut chip, &res);
    chip.execute(&mapping.compile_lut_setup_for(&res));
    let math_setup = mapping.compile_math_setup_for(&res);
    if !math_setup.instrs().is_empty() {
        chip.execute(&math_setup);
    }

    let fixed: [InstrStream; 5] = [
        mapping.compile_halo_store_for(&sends),
        mapping.compile_halo_load_for(&ghosts),
        mapping.compile_math_stage_for(&res),
        mapping.compile_volume_for(&res),
        mapping.compile_flux_phased_for(&res),
    ];
    let integration: Vec<InstrStream> =
        (0..Lsrk5::STAGES).map(|s| mapping.compile_integration_for(&res, s)).collect();

    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); KERNELS.len()];
    for _ in 0..REPS {
        for stage_stream in &integration {
            for (k, stream) in fixed.iter().chain(std::iter::once(stage_stream)).enumerate() {
                if stream.instrs().is_empty() {
                    continue;
                }
                let t = Instant::now();
                chip.execute(stream);
                samples[k].push(t.elapsed().as_secs_f64());
            }
        }
    }

    KERNELS
        .iter()
        .enumerate()
        .map(|(k, &name)| {
            let stats = if k < fixed.len() { fixed[k].stats() } else { integration[0].stats() };
            KernelSample { name, exec_s: median(&samples[k]).unwrap_or(0.0), stats: *stats }
        })
        .collect()
}

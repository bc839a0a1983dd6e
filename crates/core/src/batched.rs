//! Functional execution of a *batched* simulation (§6.1): a model larger
//! than the chip, processed per kernel in resident batches of y-slices
//! with off-chip swaps between them — the `B` technique rows of Table 5
//! for any element mapping (`N & B`, `E_r & B`, …).
//!
//! The paper's scheme (Figs. 6–7) batches each kernel separately:
//!
//! * **Volume** and **Integration** "simply mean executing our initial
//!   solution multiple times, since there is no inter-element data
//!   dependency" (§6.1.1) — load a batch, compute, store, next batch;
//! * **Flux** partitions the mesh into y-slices. x- and z-flux are
//!   intra-slice; the y-direction needs the neighboring slice, so each
//!   batch is loaded *together with its boundary slices* (step 5 of
//!   Fig. 7: "store Slice 0 and load Slice 16") so every resident
//!   element sees its neighbors' pre-stage variables.
//!
//! Crucially, Flux of **every** batch completes before Integration of
//! **any** batch — otherwise a batch-boundary face would mix pre- and
//! post-stage values. Host-side `State` arrays play the role of the
//! off-chip HBM2 DRAM, and the contributions travel through them
//! between kernel passes, exactly the extra DRAM traffic the paper's
//! batching overhead model charges.

use pim_sim::{ChipConfig, PimChip, Tape};
use wavesim_dg::{Lsrk5, State};

use crate::mapping::{ElementKernels, Mapping};
use crate::program_cache::{KernelParts, StageProgram};

/// One batch's kernel programs, compiled once against that batch's
/// (deterministic) slot map, lowered, and replayed every pass. The
/// per-pass `install_map` still runs — the host-side data movers need
/// the placement — and it installs exactly the map the programs were
/// compiled under (the same method builds both).
struct BatchPrograms {
    /// Volume under the batch-only map (no boundary slices resident).
    volume: Tape,
    /// LUT setup under the batch + boundary map.
    lut: Tape,
    /// Flux under the batch + boundary map.
    flux: Tape,
    /// Integration under the batch-only map, one tape per stage.
    integration: StageProgram,
}

/// A batched simulation runner over any element mapping.
pub struct BatchedRunner<K: ElementKernels> {
    mapping: Mapping<K>,
    /// Element lists per batch (whole y-slices).
    batches: Vec<Vec<usize>>,
    /// Per batch: the out-of-batch boundary elements whose variables
    /// must be resident during the batch's Flux pass.
    boundary: Vec<Vec<usize>>,
    /// Per batch: the compile-once kernel programs, lowered for the
    /// configuration of the chip the runner steps. Built on the first
    /// step (a tape is specific to a chip configuration), rebuilt only
    /// if a later step hands in a chip of another configuration.
    programs: Option<(ChipConfig, Vec<BatchPrograms>)>,
    dt: f64,
    /// Off-chip state (the host-side HBM2 image).
    vars: State,
    aux: State,
    contribs: State,
}

/// The slot map of one batch pass: residents pack from slot 0, then the
/// boundary extras, then everything else parked past the window.
fn batch_map(total: usize, residents: &[usize], extras: &[usize]) -> Vec<u32> {
    let mut map = vec![0u32; total];
    let mut next = 0u32;
    for &e in residents.iter().chain(extras) {
        map[e] = next;
        next += 1;
    }
    for (e, slot) in map.iter_mut().enumerate() {
        if !residents.contains(&e) && !extras.contains(&e) {
            *slot = next;
            next += 1;
        }
    }
    map
}

impl<K: ElementKernels> BatchedRunner<K> {
    /// Builds a runner that splits `mapping`'s mesh into `num_batches`
    /// groups of consecutive y-slices, starting from `initial`.
    /// `capacity_blocks` is the chip window in memory blocks: a batch
    /// plus its boundary slices plus the LUT slot (one element's worth of
    /// blocks, so four-block elements stay aligned) must fit.
    ///
    /// # Panics
    /// Panics if the slice count is not divisible by `num_batches`, or a
    /// batch plus its boundary slices would not fit `capacity_blocks`.
    pub fn new(
        mapping: Mapping<K>,
        initial: &State,
        dt: f64,
        num_batches: usize,
        capacity_blocks: usize,
    ) -> Self {
        let mesh = mapping.mesh();
        let slices = mesh.num_slices();
        assert!(num_batches >= 2, "batching needs at least two batches");
        assert_eq!(slices % num_batches, 0, "slices must split evenly into batches");
        let slices_per_batch = slices / num_batches;
        let periodic = mesh.boundary() == wavesim_mesh::Boundary::Periodic;

        let mut batches = Vec::new();
        let mut boundary = Vec::new();
        for b in 0..num_batches {
            let first = b * slices_per_batch;
            let last = first + slices_per_batch - 1;
            let mut elems = Vec::new();
            for s in first..=last {
                elems.extend(mesh.slice_elements(s).map(|e| e.index()));
            }
            // Boundary slices: the y-neighbors just outside the batch
            // (wrapping only on periodic meshes; a wall face needs no
            // neighbor slice).
            let mut candidates = Vec::new();
            if first > 0 {
                candidates.push(first - 1);
            } else if periodic {
                candidates.push(slices - 1);
            }
            if last + 1 < slices {
                candidates.push(last + 1);
            } else if periodic {
                candidates.push(0);
            }
            let mut extra = Vec::new();
            for s in candidates {
                if !(first..=last).contains(&s) {
                    extra.extend(mesh.slice_elements(s).map(|e| e.index()));
                }
            }
            extra.sort_unstable();
            extra.dedup();
            assert!(
                (elems.len() + extra.len() + 1) * K::BLOCKS as usize <= capacity_blocks,
                "batch {b}: {} resident + {} boundary elements exceed {capacity_blocks} blocks",
                elems.len(),
                extra.len()
            );
            batches.push(elems);
            boundary.push(extra);
        }

        let total = initial.num_elements();
        let (vars, nodes) = (mapping.num_vars(), initial.nodes_per_element());
        Self {
            mapping,
            batches,
            boundary,
            programs: None,
            dt,
            vars: initial.clone(),
            aux: State::zeros(total, vars, nodes),
            contribs: State::zeros(total, vars, nodes),
        }
    }

    /// Number of batches.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// The current off-chip variable state.
    pub fn vars(&self) -> &State {
        &self.vars
    }

    /// Installs the slot map for a batch pass: residents first, then the
    /// boundary elements, everything else parked past the window (never
    /// touched during this pass).
    fn install_map(&mut self, batch: usize, with_boundary: bool) -> (Vec<usize>, Vec<usize>) {
        let residents = self.batches[batch].clone();
        let extras = if with_boundary { self.boundary[batch].clone() } else { Vec::new() };
        self.mapping.set_slot_map(batch_map(self.vars.num_elements(), &residents, &extras));
        (residents, extras)
    }

    /// The compile-once program cache: each batch's maps are a pure
    /// function of the partition, so every kernel of every pass is known
    /// before the time loop. Each is lowered for `chip` as soon as it is
    /// compiled.
    fn compile(&mut self, chip: &PimChip) -> Vec<BatchPrograms> {
        let lower = |k: &KernelParts| k.lower(chip).expect("compiled streams are well-formed");
        (0..self.num_batches())
            .map(|b| {
                let (residents, _) = self.install_map(b, false);
                let volume = lower(&self.mapping.volume_parts(&residents));
                let integration = StageProgram::new(
                    (0..Lsrk5::STAGES)
                        .map(|s| self.mapping.integration_parts(&residents, s))
                        .collect(),
                    lower,
                );
                let (residents, _) = self.install_map(b, true);
                let lut = lower(&self.mapping.compile_lut_setup_for(&residents).into());
                let flux = lower(&self.mapping.flux_parts(&residents));
                BatchPrograms { volume, lut, flux, integration }
            })
            .collect()
    }

    /// Advances one time-step: five LSRK stages, each as three batched
    /// kernel passes with off-chip swaps.
    ///
    /// When tracing is enabled, each kernel pass (load → compute →
    /// store, per Figs. 6–7) is recorded as one kernel window on the
    /// chip's simulated clock, plus an `RkStage` span around each LSRK
    /// stage.
    pub fn step(&mut self, chip: &mut PimChip) {
        use crate::tracehooks::{begin_kernel_span, end_kernel_span};
        use pim_trace::Kernel;

        let programs = match self.programs.take() {
            Some((config, programs)) if config == chip.config() => programs,
            _ => self.compile(chip),
        };
        for stage in 0..Lsrk5::STAGES {
            let stage_t0 = begin_kernel_span(chip);

            // --- Volume pass (Fig. 6): per batch, load → compute → store.
            // The tapes replay from the program cache; `install_map`
            // still places the batch for the host-side data movers.
            let t0 = begin_kernel_span(chip);
            for (b, program) in programs.iter().enumerate() {
                let (residents, _) = self.install_map(b, false);
                self.mapping.preload_static_subset(chip, self.dt, &residents);
                self.mapping.load_vars_subset(chip, &self.vars, &residents);
                chip.replay(&program.volume);
                self.mapping.extract_contribs_subset(chip, &residents, &mut self.contribs);
            }
            end_kernel_span(chip, Kernel::Volume, stage as u8, t0);

            // --- Flux pass (Fig. 7): per batch, load batch + boundary
            // slices, accumulate flux into the stored contributions.
            let t0 = begin_kernel_span(chip);
            for (b, program) in programs.iter().enumerate() {
                let (residents, extras) = self.install_map(b, true);
                let mut all = residents.clone();
                all.extend_from_slice(&extras);
                self.mapping.preload_static_subset(chip, self.dt, &all);
                // Pre-stage variables for everyone visible this pass.
                self.mapping.load_vars_subset(chip, &self.vars, &all);
                // Resume the residents' contributions from off-chip.
                self.mapping.load_contribs_subset(chip, &self.contribs, &residents);
                chip.replay(&program.lut);
                chip.replay(&program.flux);
                self.mapping.extract_contribs_subset(chip, &residents, &mut self.contribs);
            }
            end_kernel_span(chip, Kernel::Flux, stage as u8, t0);

            // --- Integration pass (Fig. 6): per batch, with aux state.
            let t0 = begin_kernel_span(chip);
            for (b, program) in programs.iter().enumerate() {
                let (residents, _) = self.install_map(b, false);
                self.mapping.preload_static_subset(chip, self.dt, &residents);
                self.mapping.load_vars_subset(chip, &self.vars, &residents);
                self.mapping.load_aux_subset(chip, &self.aux, &residents);
                self.mapping.load_contribs_subset(chip, &self.contribs, &residents);
                chip.replay(program.integration.for_stage(stage));
                self.mapping.extract_vars_subset(chip, &residents, &mut self.vars);
                self.mapping.extract_aux_subset(chip, &residents, &mut self.aux);
            }
            end_kernel_span(chip, Kernel::Integration, stage as u8, t0);

            end_kernel_span(chip, Kernel::RkStage, stage as u8, stage_t0);
        }
        self.programs = Some((chip.config(), programs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::AcousticMapping;
    use crate::compiler_elastic::ElasticMapping;
    use wavesim_dg::{AcousticMaterial, ElasticMaterial, FluxKind};
    use wavesim_mesh::{Boundary, HexMesh};

    fn acoustic(capacity: usize) -> BatchedRunner<crate::compiler::NaiveAcoustic> {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let mapping = AcousticMapping::uniform(mesh, 3, FluxKind::Central, AcousticMaterial::UNIT);
        BatchedRunner::new(mapping, &State::zeros(8, 4, 27), 1e-3, 2, capacity)
    }

    fn elastic(capacity: usize) -> BatchedRunner<crate::compiler_elastic::RowExpandedElastic> {
        let mesh = HexMesh::refinement_level(1, Boundary::Wall);
        let mapping = ElasticMapping::uniform(mesh, 3, FluxKind::Central, ElasticMaterial::UNIT);
        BatchedRunner::new(mapping, &State::zeros(8, 9, 27), 1e-3, 2, capacity)
    }

    #[test]
    fn batches_partition_the_mesh() {
        let r = acoustic(64);
        assert_eq!(r.num_batches(), 2);
        let mut all: Vec<usize> = r.batches.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        // Each batch of a 2-slice mesh half has exactly the other half
        // as boundary (periodic wrap, level 1 → only 2 slices).
        assert_eq!(r.boundary[0].len(), 4);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn capacity_violations_are_caught() {
        // Too small: 4 residents + 4 boundary + LUT.
        let _ = acoustic(4);
    }

    #[test]
    fn quartet_capacity_accounting() {
        // 4 residents + 4 boundary quartets + LUT quartet = 36 blocks.
        assert_eq!(elastic(36).num_batches(), 2);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn undersized_window_is_rejected() {
        let _ = elastic(35);
    }
}

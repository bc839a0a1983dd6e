//! Probe-calibrated strong/weak scaling estimation for the multi-chip
//! cluster.
//!
//! The single-chip estimator (`wave_pim::estimate`) prices the paper's
//! fixed benchmark points. Here the axis is *chips*: how does wall-time
//! for a level-L acoustic problem change across 1/2/4/8 chips and the
//! two interconnects? Building and executing the full instruction
//! streams for levels 6–7 (10⁵–10⁶ elements) is out of reach, so the
//! model is **calibrated** instead of assumed: a [`KernelProbe`]
//! functionally executes a small resident problem (level-1, 8 elements)
//! on a real `pim-sim` chip with the same per-element configuration, and
//! records
//!
//! * the per-stage critical path of a resident batch (block-parallel
//!   work does not lengthen with more elements; the probe measures the
//!   serial per-element path plus real interconnect contention),
//! * the instruction count per element per stage (the host dispatch feed
//!   at one instruction per cycle bounds a chip's stage throughput from
//!   below: `E/N` elements per chip is the term that makes more chips
//!   faster),
//! * the dynamic energy per element per stage, split by mechanism.
//!
//! The halo term reuses the exact [`halo_messages`] plan the functional
//! runner executes, costed on the same [`InterChipLink`]; messages
//! through one chip's port are modeled as streaming back-to-back
//! (latency paid once per stage), where the executor pays the latency
//! per message — the `estimator_vs_executor` test bounds that gap.
//!
//! Like the executor, the estimator **overlaps the halo with Volume**:
//! the raw port time ([`ClusterEstimate::halo_link_seconds_per_stage`])
//! hides behind the Volume window, and only the *exposed* remainder
//! `max(halo − volume, 0)` ([`ClusterEstimate::halo_seconds_per_stage`])
//! lengthens the stage. [`ClusterEstimate::bulk_stage_seconds`] keeps the
//! bulk-synchronous baseline for comparison — overlap can only help, so
//! `stage_seconds ≤ bulk_stage_seconds` always.
//!
//! The **pipelined** protocol arm models the per-chip schedule of
//! `ClusterRunner`'s default: only the *receive-side* traffic gates a
//! chip's pre-Flux fence (outbound charges drain concurrently with
//! Flux/Integration), so the port term shrinks to the busiest chip's
//! inbound bytes and
//! [`ClusterEstimate::pipelined_stage_seconds`] ≤ `stage_seconds` ≤
//! `bulk_stage_seconds` by construction. The slab partition sends as
//! many bytes as it receives, so pipelining roughly halves the fenced
//! port time — which is what pushes the halo wall (the chip count where
//! exposed halo first gates the stage) outward.

use pim_sim::host;
use pim_sim::{ChipConfig, EnergyLedger, InterChipLink, InterconnectKind, OpCost, PimChip};
use wave_pim::compiler::AcousticMapping;
use wave_pim::estimate::{STAGES_PER_STEP, TIME_STEPS};
use wavesim_dg::{AcousticMaterial, FluxKind, Lsrk5, State};
use wavesim_mesh::{Boundary, HexMesh, SlicePartition};

use crate::halo::halo_messages;

/// Off-chip round trips per resident element per stage when a shard is
/// batched: the Fig. 6/7 schedule loads/stores vars, aux and
/// contributions across the three kernel passes (10 element-sized DMA
/// movements, counting both directions).
const SWAP_PASSES_PER_ELEMENT: u64 = 10;

/// Probe elements (level-1 mesh) and stages per probe run.
const PROBE_ELEMENTS: f64 = 8.0;

/// Calibration measured by executing a small resident problem on the
/// functional chip simulator.
#[derive(Debug, Clone)]
pub struct KernelProbe {
    /// Nodes per axis the probe (and the estimate) uses.
    pub n: usize,
    /// Nodes per element (`n³`).
    pub nodes: usize,
    /// Flux kind the streams were compiled for.
    pub flux_kind: FluxKind,
    /// Chip the probe ran on (capacity, interconnect, node).
    pub chip: ChipConfig,
    /// Compiled instructions per element per LSRK stage.
    pub instrs_per_element_per_stage: f64,
    /// Measured critical path of one resident stage, seconds (28 nm
    /// simulated time, before process-node scaling).
    pub seconds_per_stage_path: f64,
    /// Measured critical path of the Volume kernel alone within one
    /// stage, seconds — the window the halo exchange can hide behind.
    pub volume_seconds_per_stage_path: f64,
    /// Dynamic energy per element per stage, node-scaled, by mechanism.
    pub energy_per_element_per_stage: EnergyLedger,
}

impl KernelProbe {
    /// Executes one time-step (five stages) of a level-1 periodic
    /// problem on a fresh chip and derives the calibration constants.
    /// The kernels run as the cluster runner issues them — Volume, then
    /// Flux, then Integration per stage — so the probe also measures the
    /// Volume window that bounds how much halo time overlap can hide.
    pub fn measure(n: usize, flux_kind: FluxKind, chip: ChipConfig) -> Self {
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let num_elements = mesh.num_elements();
        let material = AcousticMaterial::new(2.0, 1.0);
        let mapping = AcousticMapping::uniform(mesh, n, flux_kind, material);
        let nodes = mapping.nodes();
        let state = State::zeros(num_elements, 4, nodes);
        let mut sim = PimChip::new(chip);
        mapping.preload(&mut sim, &state, 1e-3);
        sim.execute(&mapping.compile_lut_setup());
        let after_setup = sim.elapsed();

        let elems: Vec<usize> = (0..num_elements).collect();
        let mut instrs = 0usize;
        let mut volume_path = 0.0f64;
        for stage in 0..Lsrk5::STAGES {
            let before = sim.elapsed();
            let volume = mapping.compile_volume_for(&elems);
            sim.execute(&volume);
            volume_path += sim.elapsed() - before;
            let flux = mapping.compile_flux_phased_for(&elems);
            sim.execute(&flux);
            let integration = mapping.compile_integration_for(&elems, stage);
            sim.execute(&integration);
            instrs += volume.len() + flux.len() + integration.len();
        }

        let stages = Lsrk5::STAGES as f64;
        let path = (sim.elapsed() - after_setup) / stages;
        let mut ledger = sim.finish().ledger;
        ledger.static_energy = 0.0;
        Self {
            n,
            nodes,
            flux_kind,
            chip,
            instrs_per_element_per_stage: instrs as f64 / (PROBE_ELEMENTS * stages),
            seconds_per_stage_path: path,
            volume_seconds_per_stage_path: volume_path / stages,
            energy_per_element_per_stage: ledger.scaled(1.0 / (PROBE_ELEMENTS * stages)),
        }
    }
}

/// One evaluated (level, chip-count) scaling point.
#[derive(Debug, Clone)]
pub struct ClusterEstimate {
    pub level: u32,
    pub num_elements: u64,
    pub num_chips: usize,
    pub interconnect: InterconnectKind,
    /// The inter-chip link the halo terms were priced on.
    pub link: InterChipLink,
    /// Resident elements per chip.
    pub elements_per_chip: u64,
    /// Per-chip batch count (1 = the shard fits resident).
    pub batches_per_chip: u64,
    /// Per-stage kernel compute time on the critical chip (28 nm).
    pub compute_seconds_per_stage: f64,
    /// Per-stage Volume-kernel window on the critical chip (28 nm) —
    /// the compute span the halo exchange streams behind.
    pub volume_seconds_per_stage: f64,
    /// Per-stage off-chip batch-swap time (28 nm; zero when resident).
    pub swap_seconds_per_stage: f64,
    /// Per-stage *raw* halo time on the busiest chip's port (28 nm),
    /// before any of it hides behind Volume.
    pub halo_link_seconds_per_stage: f64,
    /// Per-stage *exposed* halo time, `max(raw halo − volume, 0)`: the
    /// only part that lengthens the overlapped stage (28 nm).
    pub halo_seconds_per_stage: f64,
    /// One full overlapped cluster stage (28 nm):
    /// compute + swap + exposed halo.
    pub stage_seconds: f64,
    /// The bulk-synchronous baseline stage (28 nm): compute + swap +
    /// raw halo, i.e. what the stage would cost without overlap.
    pub bulk_stage_seconds: f64,
    /// Per-stage *receive-side* halo time on the busiest chip's port
    /// (28 nm) — the only traffic the pipelined protocol's per-block
    /// fence waits for (outbound drains concurrently with
    /// Flux/Integration).
    pub pipelined_halo_link_seconds_per_stage: f64,
    /// Per-stage exposed halo under the pipelined protocol,
    /// `max(receive-side halo − volume, 0)` (28 nm).
    pub pipelined_halo_seconds_per_stage: f64,
    /// One full pipelined cluster stage (28 nm): compute + swap +
    /// pipelined exposed halo. Always ≤ [`Self::stage_seconds`].
    pub pipelined_stage_seconds: f64,
    /// Exposed halo share of the pipelined stage wall-time.
    pub pipelined_exposed_halo_share: f64,
    /// Halo payload bytes per stage, cluster-wide (each message once).
    pub halo_bytes_per_stage: u64,
    /// Raw halo share of the *bulk-synchronous* stage wall-time — how
    /// much of the stage the exchange would claim without overlap.
    pub halo_time_fraction: f64,
    /// Exposed halo share of the overlapped stage wall-time.
    pub exposed_halo_share: f64,
    /// Compute share of the stage wall-time
    /// (1 − exposed-halo share − swap share).
    pub utilization: f64,
    /// T(1 chip) / (N × T(N chips)) for this fixed problem.
    pub strong_efficiency: f64,
    /// T(1 chip, this per-chip load, no halo) / T(N chips): what the
    /// halo exchange costs relative to an embarrassingly parallel run.
    pub weak_efficiency: f64,
    /// Whole simulation wall-clock (1024 steps × 5 stages, node-scaled).
    pub total_seconds: f64,
    /// Whole-simulation energy over all chips (node-scaled, incl.
    /// static and inter-chip link energy).
    pub energy: EnergyLedger,
}

/// Per-stage (compute, swap) seconds and the batch count for `resident`
/// elements sharing a chip with `ghost` extra resident blocks.
fn stage_compute(probe: &KernelProbe, resident: u64, ghost: u64) -> (f64, f64, u64) {
    // Window blocks + 1 shared parking block + 1 LUT block must fit.
    let avail = probe.chip.capacity.num_blocks().saturating_sub(2).max(1);
    let window = resident + ghost;
    let batches = window.div_ceil(avail).max(1);
    let per_batch = resident.div_ceil(batches);
    let dispatch =
        host::dispatch_time((probe.instrs_per_element_per_stage * per_batch as f64).ceil() as u64);
    let compute = batches as f64 * probe.seconds_per_stage_path.max(dispatch);
    let swap = if batches > 1 { OpCost::dma(swap_bytes(probe, resident)).seconds } else { 0.0 };
    (compute, swap, batches)
}

/// Off-chip bytes one stage's batch swaps move for `elements` elements.
fn swap_bytes(probe: &KernelProbe, elements: u64) -> u64 {
    SWAP_PASSES_PER_ELEMENT * elements * (probe.nodes * 4 * 4) as u64
}

/// Evaluates one (level, chip-count, link) scaling point against a probe
/// measured with the matching chip configuration.
///
/// # Panics
/// Panics if `num_chips` does not evenly divide the level's `2^level`
/// y-slices.
pub fn estimate_cluster(
    level: u32,
    num_chips: usize,
    link: InterChipLink,
    probe: &KernelProbe,
) -> ClusterEstimate {
    let mesh = HexMesh::refinement_level(level, Boundary::Periodic);
    estimate_cluster_on(&mesh, level, num_chips, link, probe)
}

/// [`estimate_cluster`] on a caller-built mesh, so a sweep touching the
/// same level many times (chip counts × interconnects) builds the mesh
/// once — at level 8 (16.7M elements) the build dominates the point.
///
/// # Panics
/// Panics if `mesh` is not the level's periodic refinement or if
/// `num_chips` does not evenly divide its `2^level` y-slices.
pub fn estimate_cluster_on(
    mesh: &HexMesh,
    level: u32,
    num_chips: usize,
    link: InterChipLink,
    probe: &KernelProbe,
) -> ClusterEstimate {
    assert_eq!(
        mesh.num_elements() as u64,
        1u64 << (3 * level),
        "mesh does not match refinement level {level}"
    );
    let partition = SlicePartition::new(mesh, num_chips);
    let messages = halo_messages(&partition);

    let e_total = mesh.num_elements() as u64;
    let e_chip = e_total / num_chips as u64;
    let ghosts_max = partition.shards().iter().map(|s| s.ghosts.len()).max().unwrap_or(0) as u64;

    // Halo: the busiest chip's port moves its send + receive payload
    // back-to-back (one latency per stage); energy is charged at both
    // endpoints, as the functional runner does.
    let mut port_bytes = vec![0u64; num_chips];
    let mut recv_bytes = vec![0u64; num_chips];
    let mut halo_bytes_per_stage = 0u64;
    let mut halo_joules_per_stage = 0.0f64;
    for m in &messages {
        let bytes = m.bytes(probe.nodes);
        port_bytes[m.src] += bytes;
        port_bytes[m.dst] += bytes;
        recv_bytes[m.dst] += bytes;
        halo_bytes_per_stage += bytes;
        halo_joules_per_stage += 2.0 * link.energy(bytes);
    }
    let max_port = port_bytes.iter().copied().max().unwrap_or(0);
    let halo_raw = if max_port > 0 { link.duration(max_port) } else { 0.0 };
    // The pipelined protocol fences only on the receive side of the
    // busiest port; its outbound half drains behind Flux/Integration.
    let max_recv = recv_bytes.iter().copied().max().unwrap_or(0);
    let pipelined_halo_raw = if max_recv > 0 { link.duration(max_recv) } else { 0.0 };

    let (compute, swap, batches) = stage_compute(probe, e_chip, ghosts_max);
    // The exchange streams while the Volume kernel runs; only the part
    // that outlives the Volume window is exposed on the critical path.
    let volume = compute * (probe.volume_seconds_per_stage_path / probe.seconds_per_stage_path);
    let exposed = (halo_raw - volume).max(0.0);
    let stage = compute + swap + exposed;
    let bulk_stage = compute + swap + halo_raw;
    let pipelined_exposed = (pipelined_halo_raw - volume).max(0.0);
    let pipelined_stage = compute + swap + pipelined_exposed;

    // Reference points for the efficiency metrics.
    let (c1, s1, _) = stage_compute(probe, e_total, 0);
    let stage_one_chip = c1 + s1;
    let (cw, sw, _) = stage_compute(probe, e_chip, 0);
    let stage_weak_ref = cw + sw;

    let launches = (TIME_STEPS * STAGES_PER_STEP) as f64;
    let node = probe.chip.node;
    let total_seconds = stage * launches / node.perf_scale();

    let mut energy = probe.energy_per_element_per_stage.scaled(e_total as f64 * launches);
    // Batch swaps cross every chip's HBM2 channel; halo crosses the
    // inter-chip links. Both are off-chip traffic. Overlap moves bytes
    // earlier, it does not remove them, so the energy terms use the raw
    // halo traffic regardless of how much of it hides behind Volume.
    let swap_joules_per_stage =
        if batches > 1 { OpCost::dma(swap_bytes(probe, e_total)).joules } else { 0.0 };
    energy.offchip +=
        (swap_joules_per_stage + halo_joules_per_stage) * launches / node.energy_scale();
    energy.charge_static(
        num_chips as f64 * probe.chip.capacity.static_power(probe.chip.interconnect)
            / node.energy_scale(),
        total_seconds,
    );

    ClusterEstimate {
        level,
        num_elements: e_total,
        num_chips,
        interconnect: probe.chip.interconnect,
        link,
        elements_per_chip: e_chip,
        batches_per_chip: batches,
        compute_seconds_per_stage: compute,
        volume_seconds_per_stage: volume,
        swap_seconds_per_stage: swap,
        halo_link_seconds_per_stage: halo_raw,
        halo_seconds_per_stage: exposed,
        stage_seconds: stage,
        bulk_stage_seconds: bulk_stage,
        pipelined_halo_link_seconds_per_stage: pipelined_halo_raw,
        pipelined_halo_seconds_per_stage: pipelined_exposed,
        pipelined_stage_seconds: pipelined_stage,
        pipelined_exposed_halo_share: pipelined_exposed / pipelined_stage,
        halo_bytes_per_stage,
        halo_time_fraction: halo_raw / bulk_stage,
        exposed_halo_share: exposed / stage,
        utilization: compute / stage,
        strong_efficiency: stage_one_chip / (num_chips as f64 * stage),
        weak_efficiency: stage_weak_ref / stage,
        total_seconds,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe() -> KernelProbe {
        KernelProbe::measure(4, FluxKind::Riemann, ChipConfig::default_2gb())
    }

    #[test]
    fn probe_measures_positive_finite_constants() {
        let p = probe();
        assert_eq!(p.nodes, 64);
        assert!(p.instrs_per_element_per_stage > 100.0);
        assert!(p.seconds_per_stage_path > 0.0 && p.seconds_per_stage_path.is_finite());
        assert!(p.volume_seconds_per_stage_path > 0.0);
        assert!(p.volume_seconds_per_stage_path < p.seconds_per_stage_path);
        assert!(p.energy_per_element_per_stage.dynamic() > 0.0);
        assert_eq!(p.energy_per_element_per_stage.static_energy, 0.0);
    }

    #[test]
    fn single_chip_has_no_halo_and_unit_efficiency() {
        let p = probe();
        let e = estimate_cluster(3, 1, InterChipLink::default(), &p);
        assert_eq!(e.halo_link_seconds_per_stage, 0.0);
        assert_eq!(e.halo_seconds_per_stage, 0.0);
        assert_eq!(e.halo_bytes_per_stage, 0);
        assert_eq!(e.stage_seconds, e.bulk_stage_seconds);
        assert_eq!(e.exposed_halo_share, 0.0);
        assert!((e.strong_efficiency - 1.0).abs() < 1e-12);
        assert!((e.weak_efficiency - 1.0).abs() < 1e-12);
        assert!((e.utilization - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_never_slower_and_hides_halo_behind_volume() {
        let p = probe();
        for chips in [2usize, 4, 8] {
            let e = estimate_cluster(4, chips, InterChipLink::default(), &p);
            assert!(e.halo_link_seconds_per_stage > 0.0);
            // Exposed halo is what is left after the Volume window.
            assert!(e.halo_seconds_per_stage <= e.halo_link_seconds_per_stage);
            assert!(
                (e.halo_seconds_per_stage
                    - (e.halo_link_seconds_per_stage - e.volume_seconds_per_stage).max(0.0))
                .abs()
                    < 1e-18
            );
            // With a nonzero Volume window, overlap is a strict win.
            assert!(e.volume_seconds_per_stage > 0.0);
            assert!(e.stage_seconds < e.bulk_stage_seconds);
        }
    }

    #[test]
    fn pipelined_stage_never_exceeds_fenced_and_fences_only_inbound() {
        let p = probe();
        for chips in [2usize, 4, 8, 16] {
            let e = estimate_cluster(4, chips, InterChipLink::default(), &p);
            // Slab shards send as many bytes as they receive, so the
            // inbound-only port term is strictly under the full one.
            assert!(e.pipelined_halo_link_seconds_per_stage > 0.0);
            assert!(e.pipelined_halo_link_seconds_per_stage < e.halo_link_seconds_per_stage);
            assert!(
                (e.pipelined_halo_seconds_per_stage
                    - (e.pipelined_halo_link_seconds_per_stage - e.volume_seconds_per_stage)
                        .max(0.0))
                .abs()
                    < 1e-18
            );
            assert!(e.pipelined_stage_seconds <= e.stage_seconds);
            assert!(e.stage_seconds <= e.bulk_stage_seconds);
            assert!(e.pipelined_exposed_halo_share >= 0.0 && e.pipelined_exposed_halo_share < 1.0);
        }
        let single = estimate_cluster(3, 1, InterChipLink::default(), &p);
        assert_eq!(single.pipelined_halo_link_seconds_per_stage, 0.0);
        assert_eq!(single.pipelined_stage_seconds, single.stage_seconds);
    }

    #[test]
    fn more_chips_mean_more_total_energy_but_less_time() {
        let p = probe();
        let e1 = estimate_cluster(4, 1, InterChipLink::default(), &p);
        let e4 = estimate_cluster(4, 4, InterChipLink::default(), &p);
        assert!(e4.total_seconds <= e1.total_seconds);
        // Four chips leak static power for the whole (shorter) run and
        // add link energy: never cheaper in joules per simulation.
        assert!(e4.energy.static_energy > 0.0);
        assert!(e4.energy.offchip >= e1.energy.offchip);
    }

    #[test]
    fn oversized_levels_batch_and_pay_swap_time() {
        let p = probe();
        // Level 6 = 262144 elements >> 16384 blocks: every chip batches.
        let e = estimate_cluster(6, 2, InterChipLink::default(), &p);
        assert!(e.batches_per_chip > 1);
        assert!(e.swap_seconds_per_stage > 0.0);
    }

    #[test]
    fn efficiencies_are_in_unit_range_for_multi_chip_points() {
        let p = probe();
        for chips in [2usize, 4, 8] {
            let e = estimate_cluster(4, chips, InterChipLink::default(), &p);
            assert!(e.strong_efficiency > 0.0 && e.strong_efficiency <= 1.0 + 1e-12);
            assert!(e.weak_efficiency > 0.0 && e.weak_efficiency <= 1.0 + 1e-12);
            assert!(e.halo_time_fraction > 0.0 && e.halo_time_fraction < 1.0);
            assert!(e.exposed_halo_share >= 0.0 && e.exposed_halo_share < 1.0);
            assert!(
                (e.utilization + e.exposed_halo_share + e.swap_seconds_per_stage / e.stage_seconds
                    - 1.0)
                    .abs()
                    < 1e-12
            );
        }
    }
}

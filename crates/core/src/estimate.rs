//! End-to-end time and energy estimation for every evaluation point of
//! the paper (Figs. 11, 12, 14; supported by Tables 5–6).
//!
//! The estimator mirrors the instruction streams the functional compiler
//! emits — gathers, row-parallel bit-serial arithmetic, ghost-fetch
//! copies, broadcasts — but costs them analytically at paper scale
//! (4,096–32,768 elements × 5 stages × 1,024 time-steps), using:
//!
//! * the chip's own price list, `pim_sim::OpCost` (Table 4), for every
//!   read, write, broadcast, row-parallel op and DMA,
//! * the *real* interconnect scheduler on a representative tile for the
//!   neighbor-fetch makespans (so H-tree/Bus contention is measured, not
//!   assumed),
//! * the planner's technique (Table 5), the expansion model (Figs. 8–9),
//!   the batch plan (Figs. 6–7) and the pipeline model (Figs. 10, 13).

use pim_isa::{AluOp, BlockId};
use pim_sim::host;
use pim_sim::{
    BusNetwork, ChipCapacity, EnergyLedger, HTreeNetwork, Interconnect, InterconnectKind, OpCost,
    ProcessNode, Transfer,
};
use serde::{Deserialize, Serialize};
use wavesim_dg::opcount::{Benchmark, PhysicsKind};
use wavesim_dg::FluxKind;

use crate::batching::BatchPlan;
use crate::expansion::ExpansionModel;
use crate::pipeline::{pipelined_timeline, serial_timeline, StageBreakdown};
use crate::planner::{plan, Technique};

/// Simulated time-steps per benchmark run (§3.1: "with 1024 time-steps").
pub const TIME_STEPS: u64 = 1024;
/// Integration stages (= kernel launches) per time-step (§2.2).
pub const STAGES_PER_STEP: u64 = 5;

const N: u64 = 8;
const NODES: u64 = 512;
const FACE_NODES: u64 = 64;

/// One evaluated PIM configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PimSetup {
    pub capacity: ChipCapacity,
    pub interconnect: InterconnectKind,
    pub node: ProcessNode,
    pub pipelined: bool,
}

impl PimSetup {
    /// The paper's default evaluation point shape: H-tree, pipelined.
    pub fn new(capacity: ChipCapacity, node: ProcessNode) -> Self {
        Self { capacity, interconnect: InterconnectKind::HTree, node, pipelined: true }
    }
}

/// A complete evaluation of one (benchmark, setup) point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Estimate {
    pub benchmark: Benchmark,
    pub setup: PimSetup,
    pub technique: Technique,
    pub batch_plan: BatchPlan,
    /// Per-stage kernel durations for one resident batch (28 nm).
    pub breakdown: StageBreakdown,
    /// Off-chip swap time per stage, all batch exchanges (28 nm).
    pub offchip_per_stage: f64,
    /// One full stage incl. batching (28 nm).
    pub stage_seconds: f64,
    /// Whole simulation wall-clock (node-scaled).
    pub total_seconds: f64,
    /// Whole-simulation energy (node-scaled, incl. static).
    pub energy: EnergyLedger,
}

impl Estimate {
    /// Total energy in joules.
    pub fn total_joules(&self) -> f64 {
        self.energy.total()
    }
}

// ---- primitive costs ----

/// An intra-block gather: read each source row once, write one word
/// into every destination row.
fn gather(sources: u64, dests: u64) -> OpCost {
    OpCost::read() * sources as f64 + OpCost::write(1) * dests as f64
}

/// A constants broadcast: one search, then one word into every compute
/// row.
fn broadcast() -> OpCost {
    OpCost::read() + OpCost::broadcast(NODES as usize, 1)
}

// ---- per-kernel models ----

/// Row-parallel op counts of one Flux face evaluation (mul-like,
/// add-like), mirroring the compiler's `emit_face_flux` and its elastic
/// generalization.
fn flux_face_ops(physics: PhysicsKind, flux: FluxKind) -> (u64, u64) {
    match (physics, flux) {
        (PhysicsKind::Acoustic, FluxKind::Central) => (7, 6),
        (PhysicsKind::Acoustic, FluxKind::Riemann) => (13, 10),
        // Elastic: 9 ghost variables, traction assembly (6 MACs per
        // side), starred states, the symmetric stress spread and nine
        // masked lift accumulations.
        (PhysicsKind::Elastic, FluxKind::Central) => (30, 22),
        (PhysicsKind::Elastic, FluxKind::Riemann) => (55, 45),
    }
}

/// Serial derivative passes per block in the Volume kernel, plus
/// inter-block exchange (copies, adds) per element.
fn volume_shape(physics: PhysicsKind, technique: &Technique) -> (u64, u64, u64, u64) {
    // (serial derivative passes, pointwise mul-like ops, exchange copies,
    //  exchange adds)
    match (physics, technique.parallel_expansion) {
        // 6 derivative passes, all on one block.
        (PhysicsKind::Acoustic, false) => (6, 6, 0, 0),
        // Fig. 8: grad_p[i] + div_v[i] per block; div_v partials
        // exchanged and reduced.
        (PhysicsKind::Acoustic, true) => (2, 3, 3, 2),
        // E_r: 18 passes over 3 variable-group blocks; stress/velocity
        // derivative partials cross blocks.
        (PhysicsKind::Elastic, false) => (6, 8, 9, 6),
        (PhysicsKind::Elastic, true) => (2, 4, 12, 8),
    }
}

/// One full derivative pass: zero, then n × (coefficient gather, value
/// gather, row-parallel MAC).
fn derivative_pass() -> OpCost {
    let mac = OpCost::arith(AluOp::Mac, NODES);
    OpCost::arith(AluOp::Add, NODES) + (gather(N, NODES) + gather(N * N, NODES) + mac) * N as f64
}

// ---- fetch scheduling on a representative tile ----

/// Subgrid dimensions for the elements resident in one 256-block tile.
fn tile_dims(blocks_per_element: u64) -> (usize, usize, usize) {
    match 256 / blocks_per_element {
        256 => (8, 8, 4),
        64 => (4, 4, 4),
        16 => (4, 2, 2),
        4 => (2, 2, 1),
        other => {
            // Fall back to a flat line for unusual footprints.
            (other as usize, 1, 1)
        }
    }
}

/// Morton (z-order) placement of the tile's element subgrid onto block
/// ids: neighbor pairs then spread their traffic evenly across the H-tree
/// levels instead of funneling one axis through the root — the
/// "hardware-friendly" layout of the paper's contribution list ("We
/// layout the data in a hardware-friendly manner … to minimize the
/// overhead of inter-element data transfer").
fn morton_interleave(x: usize, y: usize, z: usize, dims: (usize, usize, usize)) -> u64 {
    let (mut bx, mut by, mut bz) =
        (dims.0.trailing_zeros(), dims.1.trailing_zeros(), dims.2.trailing_zeros());
    let (mut x, mut y, mut z) = (x as u64, y as u64, z as u64);
    let mut out = 0u64;
    let mut shift = 0;
    while bx + by + bz > 0 {
        if bx > 0 {
            out |= (x & 1) << shift;
            x >>= 1;
            shift += 1;
            bx -= 1;
        }
        if by > 0 {
            out |= (y & 1) << shift;
            y >>= 1;
            shift += 1;
            by -= 1;
        }
        if bz > 0 {
            out |= (z & 1) << shift;
            z >>= 1;
            shift += 1;
            bz -= 1;
        }
    }
    out
}

/// Schedules one face phase of ghost fetches on a representative tile and
/// returns (makespan seconds, switch energy joules, transfers).
fn fetch_phase(
    ic: InterconnectKind,
    blocks_per_element: u64,
    words: u32,
    axis: usize,
) -> (f64, f64, u64) {
    let (dx, dy, dz) = tile_dims(blocks_per_element);
    let dims = [dx, dy, dz];
    let block_of = |x: usize, y: usize, z: usize| -> BlockId {
        BlockId((morton_interleave(x, y, z, (dx, dy, dz)) * blocks_per_element) as u32)
    };
    let mut transfers = Vec::new();
    for z in 0..dz {
        for y in 0..dy {
            for x in 0..dx {
                let mut nb = [x, y, z];
                nb[axis] += 1;
                if nb[axis] < dims[axis] {
                    let src = block_of(nb[0], nb[1], nb[2]);
                    let dst = block_of(x, y, z);
                    for _ in 0..FACE_NODES {
                        transfers.push(Transfer { src, dst, words });
                    }
                }
            }
        }
    }
    let count = transfers.len() as u64;
    let (makespan, energy) = match ic {
        InterconnectKind::HTree => {
            let net = HTreeNetwork::new();
            let s = net.schedule(&transfers);
            (s.makespan, s.energy)
        }
        InterconnectKind::Bus => {
            let net = BusNetwork::new();
            let s = net.schedule(&transfers);
            (s.makespan, s.energy)
        }
    };
    (makespan, energy, count)
}

/// Cross-tile boundary fetch time for one face phase: the elements on the
/// subgrid face serialize on the tile-boundary link.
fn cross_tile_phase(blocks_per_element: u64, words: u32, axis: usize, ic: InterconnectKind) -> f64 {
    let (dx, dy, dz) = tile_dims(blocks_per_element);
    let dims = [dx, dy, dz];
    let boundary_elements: u64 = (dims[(axis + 1) % 3] * dims[(axis + 2) % 3]) as u64;
    let t = Transfer { src: BlockId(0), dst: BlockId(256), words };
    let dur = match ic {
        InterconnectKind::HTree => HTreeNetwork::new().duration(&t),
        InterconnectKind::Bus => BusNetwork::new().duration(&t),
    };
    boundary_elements as f64 * FACE_NODES as f64 * dur
}

// ---- the estimator ----

/// Evaluates one (benchmark, setup) point with the planner's technique.
///
/// ```
/// use pim_sim::{ChipCapacity, ProcessNode};
/// use wave_pim::estimate::{estimate, PimSetup};
/// use wavesim_dg::opcount::Benchmark;
///
/// let e = estimate(Benchmark::Acoustic4, PimSetup::new(ChipCapacity::Gb2, ProcessNode::Nm12));
/// assert_eq!(e.technique.label(), "E_p"); // Table 5's 2GB acoustic cell
/// assert!(e.total_seconds > 0.0 && e.total_joules() > 0.0);
/// ```
pub fn estimate(benchmark: Benchmark, setup: PimSetup) -> Estimate {
    estimate_with_technique(benchmark, setup, plan(benchmark, setup.capacity))
}

/// Evaluates a point under an explicitly chosen technique — the ablation
/// entry point (e.g. forcing the naive mapping where the planner would
/// expand, to quantify what expansion buys).
///
/// # Panics
/// Panics if the technique does not fit the chip.
pub fn estimate_with_technique(
    benchmark: Benchmark,
    setup: PimSetup,
    technique: Technique,
) -> Estimate {
    let per_batch = benchmark.num_elements().div_ceil(technique.batches as u64);
    assert!(
        per_batch * technique.blocks_per_element() <= setup.capacity.num_blocks(),
        "technique {} does not fit {} ({} blocks needed)",
        technique.label(),
        setup.capacity.name(),
        per_batch * technique.blocks_per_element()
    );
    let batch_plan = BatchPlan::new(benchmark, &technique);
    let exp = ExpansionModel::for_technique(&technique);
    let physics = benchmark.physics();
    let flux = benchmark.flux();

    let resident_elements = batch_plan.elements_per_batch;
    let bpe = technique.blocks_per_element();
    let ghost_words = physics.num_vars() as u32;

    // ---- Volume ----
    let (derivs, pointwise, exch_copies, exch_adds) = volume_shape(physics, &technique);
    let sibling_copy = Transfer { src: BlockId(0), dst: BlockId(1), words: ghost_words };
    let sibling_dur = HTreeNetwork::new().duration(&sibling_copy);
    let zeros = physics.num_vars() as u64 + derivs;
    let (add, mul) = (OpCost::arith(AluOp::Add, NODES), OpCost::arith(AluOp::Mul, NODES));
    let (read, write, bcast, deriv) =
        (OpCost::read(), OpCost::write(1), broadcast(), derivative_pass());
    let volume = 2.0 * bcast.seconds
        + zeros as f64 * add.seconds
        + derivs as f64 * deriv.seconds
        + pointwise as f64 * mul.seconds
        + exch_copies as f64 * (read.seconds + sibling_dur + write.seconds)
        + exch_adds as f64 * add.seconds;

    // ---- Flux fetch ----
    // Two phases (±1) per axis; a phase's makespan comes from the real
    // interconnect schedule of a representative tile, bounded below by
    // the serialized cross-tile boundary traffic. Expansion routes the
    // trace through the buffer block (extra forwarding traffic).
    let mut flux_fetch = 0.0;
    let mut fetch_energy_per_tile = 0.0;
    for axis in 0..3 {
        let (intra, energy, _count) = fetch_phase(setup.interconnect, bpe, ghost_words, axis);
        let cross = cross_tile_phase(bpe, ghost_words, axis, setup.interconnect);
        flux_fetch += 2.0 * intra.max(cross);
        fetch_energy_per_tile += 2.0 * energy;
    }
    flux_fetch *= exp.fetch_traffic_factor;
    // Each fetched trace costs its Read at the source and Write at home.
    let fetch_rw_per_element = 6 * FACE_NODES;
    let fetch_rw_s = fetch_rw_per_element as f64 * (read.seconds + write.seconds);
    // Reads/writes happen block-parallel across the tile; they add to the
    // per-element serial path only.
    let flux_fetch = flux_fetch + fetch_rw_s;

    // ---- Flux compute ----
    let (fmul, fadd) = flux_face_ops(physics, flux);
    let row_split = if technique.row_expansion { 2.5 } else { 1.0 };
    let flux_compute = 6.0 * (fmul as f64 * mul.seconds + fadd as f64 * add.seconds)
        / (row_split * exp.flux_compute_speedup)
        + 6.0 * bcast.seconds;

    // ---- Integration ----
    let integ_ops = physics.num_vars() as u64;
    let integration = (integ_ops as f64 / exp.integration_speedup)
        * (3.0 * mul.seconds + 2.0 * add.seconds)
        + 3.0 * bcast.seconds;

    // ---- Host preprocessing (per stage, per resident batch) ----
    let w = benchmark.element_workload();
    let (host_preprocess, host_pre_j_round) = host::preprocess(
        w.flux.host_sqrts * resident_elements,
        w.flux.host_divs * resident_elements,
    );

    let breakdown =
        StageBreakdown { volume, flux_fetch, flux_compute, integration, host_preprocess };

    // ---- Batching ----
    let swap = OpCost::dma(batch_plan.offchip_bytes_per_stage());
    let offchip_per_stage = swap.seconds;
    let round = if setup.pipelined {
        pipelined_timeline(&breakdown).makespan
    } else {
        serial_timeline(&breakdown).makespan
    };
    let stage = batch_plan.batches as f64 * round + offchip_per_stage;

    let launches = (TIME_STEPS * STAGES_PER_STEP) as f64;
    let total_28nm = stage * launches;
    let total_seconds = total_28nm / setup.node.perf_scale();

    // ---- Energy (dynamic, per stage, all elements) ----
    let elements = benchmark.num_elements();
    let vars = physics.num_vars() as u64;
    let per_elem_compute_j = derivs as f64 * deriv.joules
        + (zeros + exch_adds) as f64 * add.joules
        + pointwise as f64 * mul.joules
        + 6.0 * (fmul as f64 * mul.joules + fadd as f64 * add.joules)
        + integ_ops as f64 * (3.0 * mul.joules + 2.0 * add.joules);
    let per_elem_rw_j = fetch_rw_per_element as f64
        * (read.joules + OpCost::write(vars as usize).joules)
        + 11.0 * bcast.joules;

    let tiles_active = (resident_elements * bpe).div_ceil(256);
    let fetch_j_per_stage = fetch_energy_per_tile * tiles_active as f64 * batch_plan.batches as f64;

    let dyn_per_stage = EnergyLedger {
        compute: per_elem_compute_j * elements as f64 * exp.energy_overhead,
        writes: per_elem_rw_j * elements as f64,
        interconnect: fetch_j_per_stage * exp.fetch_traffic_factor,
        offchip: swap.joules,
        host: host_pre_j_round * batch_plan.batches as f64,
        ..Default::default()
    };

    let mut energy = dyn_per_stage.scaled(launches / setup.node.energy_scale());
    energy.charge_static(
        setup.capacity.static_power_with_active(setup.interconnect, tiles_active)
            / setup.node.energy_scale(),
        total_seconds,
    );

    Estimate {
        benchmark,
        setup,
        technique,
        batch_plan,
        breakdown,
        offchip_per_stage,
        stage_seconds: stage,
        total_seconds,
        energy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(capacity: ChipCapacity) -> PimSetup {
        PimSetup::new(capacity, ProcessNode::Nm28)
    }

    #[test]
    fn bigger_chips_are_never_slower() {
        for b in Benchmark::ALL {
            let mut prev = f64::INFINITY;
            for c in ChipCapacity::ALL {
                let e = estimate(b, setup(c));
                assert!(
                    e.total_seconds <= prev * 1.0001,
                    "{} slowed down at {}: {} -> {}",
                    b.name(),
                    c.name(),
                    prev,
                    e.total_seconds
                );
                prev = e.total_seconds;
            }
        }
    }

    #[test]
    fn riemann_costs_more_than_central() {
        for c in [ChipCapacity::Gb2, ChipCapacity::Gb16] {
            let r = estimate(Benchmark::ElasticRiemann4, setup(c));
            let ce = estimate(Benchmark::ElasticCentral4, setup(c));
            assert!(r.total_seconds > ce.total_seconds);
            assert!(r.total_joules() > ce.total_joules());
        }
    }

    #[test]
    fn level5_costs_more_than_level4() {
        for c in ChipCapacity::ALL {
            let l5 = estimate(Benchmark::Acoustic5, setup(c));
            let l4 = estimate(Benchmark::Acoustic4, setup(c));
            assert!(l5.total_seconds > l4.total_seconds, "{}", c.name());
        }
    }

    #[test]
    fn process_scaling_follows_section_7_3() {
        let b = Benchmark::Acoustic4;
        let e28 = estimate(b, PimSetup::new(ChipCapacity::Gb2, ProcessNode::Nm28));
        let e12 = estimate(b, PimSetup::new(ChipCapacity::Gb2, ProcessNode::Nm12));
        assert!((e28.total_seconds / e12.total_seconds - 3.81).abs() < 1e-9);
        assert!(e12.total_joules() < e28.total_joules());
    }

    #[test]
    fn pipelining_helps_but_less_than_2x() {
        let b = Benchmark::Acoustic4;
        let mut s = setup(ChipCapacity::Gb2);
        let piped = estimate(b, s);
        s.pipelined = false;
        let serial = estimate(b, s);
        let ratio = piped.total_seconds / serial.total_seconds;
        // §7.5: unpipelined throughput is 0.77× → time ratio ≈ 0.77.
        assert!((0.55..0.98).contains(&ratio), "pipelined/serial {ratio}");
    }

    #[test]
    fn htree_beats_bus_on_flux_heavy_workloads() {
        let b = Benchmark::Acoustic4;
        let mut s = setup(ChipCapacity::Mb512);
        s.pipelined = false;
        let h = estimate(b, s);
        s.interconnect = InterconnectKind::Bus;
        let bus = estimate(b, s);
        assert!(
            bus.breakdown.flux_fetch > h.breakdown.flux_fetch,
            "bus fetch {} must exceed H-tree {}",
            bus.breakdown.flux_fetch,
            h.breakdown.flux_fetch
        );
    }

    #[test]
    fn batching_shows_up_as_offchip_time() {
        let resident = estimate(Benchmark::Acoustic5, setup(ChipCapacity::Gb8));
        let batched = estimate(Benchmark::Acoustic5, setup(ChipCapacity::Mb512));
        assert_eq!(resident.offchip_per_stage, 0.0);
        assert!(batched.offchip_per_stage > 0.0);
        assert_eq!(batched.batch_plan.batches, 8);
    }

    #[test]
    fn static_energy_grows_with_chip_size_on_small_problems() {
        // §7.4's trade-off: a big chip on a small problem wastes static
        // power.
        let small = estimate(Benchmark::Acoustic4, setup(ChipCapacity::Gb2));
        let big = estimate(Benchmark::Acoustic4, setup(ChipCapacity::Gb16));
        assert!(big.energy.static_energy > small.energy.static_energy);
    }

    #[test]
    fn breakdown_components_are_positive_and_finite() {
        for b in Benchmark::ALL {
            let e = estimate(b, setup(ChipCapacity::Gb2));
            let br = &e.breakdown;
            for (name, v) in [
                ("volume", br.volume),
                ("flux_fetch", br.flux_fetch),
                ("flux_compute", br.flux_compute),
                ("integration", br.integration),
            ] {
                assert!(v.is_finite() && v > 0.0, "{}: {name} = {v}", b.name());
            }
            // Host preprocessing exists only when the Riemann solver
            // needs impedances (central flux needs no roots).
            match b.flux() {
                FluxKind::Riemann => assert!(br.host_preprocess > 0.0, "{}", b.name()),
                FluxKind::Central => assert_eq!(br.host_preprocess, 0.0, "{}", b.name()),
            }
            assert!(e.total_joules().is_finite() && e.total_joules() > 0.0);
        }
    }
}

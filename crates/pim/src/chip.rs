//! The assembled PIM chip: tiles, blocks, interconnect, controller.
//!
//! [`PimChip::execute`] runs a `pim-isa` instruction stream both
//! *functionally* (block contents change) and *temporally* (a resource
//! timeline tracks when each block, switch and the off-chip channel is
//! busy, so independent work on different blocks overlaps exactly as the
//! row-parallel hardware would). This is the "cycle-accurate PIM
//! simulator" role of §7: fine-grained enough that interconnect conflicts,
//! broadcast costs and off-chip batching transfers all surface in the
//! reported time and energy.
//!
//! # Lowering and the two tapes
//!
//! `execute` is [`PimChip::lower`] followed by [`PimChip::replay`].
//! Everything about a stream's cost that does not depend on the data is
//! worked out once, at lowering, into a [`Tape`] (see [`crate::tape`]):
//! - every bound is checked: block ids against the chip, rows against
//!   the block, columns against the row. A malformed stream is a
//!   [`LowerError`] naming the instruction index and the bound, and
//!   `execute` panics with it *before* any instruction has run, so a
//!   rejected stream leaves the chip untouched;
//! - each block-local op is resolved to its block: consecutive ops on
//!   one block become one run of the timing tape, and one `Block` op of
//!   the functional tape selects the block for all of them;
//! - every `Copy` and `Lut` is routed once, to the dense resource slots
//!   of its path;
//! - every op's seconds and joules go into a small per-tape cost table,
//!   so a timing op is a 1-byte cost id;
//! - a ghost fetch (`Read`→`Copy`→`Write` of one word count between two
//!   blocks), with the ones right after it between the same blocks and
//!   columns, becomes one fetch run, and a run of same-column `Move`s
//!   one gather (see [`crate::tape`]).
//!
//! Replay runs the functional tape, then the timing tape, each in issue
//! order, so every f64 accumulation (ledger fields, block busy and ready
//! clocks, `elapsed`, resource clocks) happens in the order the
//! instruction-by-instruction interpreter used, and every observable
//! comes out bit-identical to it (`tests/replay_golden.rs`). The one
//! data-dependent timing fact is a `Lut`'s fault: the functional pass
//! records whether each index word faulted (and its diagnostic), and
//! the timing pass charges the fault path — index read only, both
//! blocks released at the fault — for exactly those lookups. The
//! functional pass also fuses a same-block `Read`→`Write` pair into one
//! `Move` that leaves the row buffer as the pair would. The timing pass
//! holds a repeated route: copies over the route of the transfer before
//! them start from its finish, and its slots are written once, when the
//! route changes (`Routes`). A fetch run's triples are timed in one
//! loop that keeps both blocks' clocks and the ledger fields in locals
//! and leaves out the maxes that cannot change a value. Whether to
//! trace is decided once per
//! replay; traced, the timing pass records the same spans and payloads
//! the interpreter did.
//!
//! A tape costs 8 bytes per functional op and 1 byte per timing op,
//! plus one 16-byte step per block run, transfer, DMA or barrier and the
//! routes' slots, against 16 bytes per instruction for the stream; the
//! runners keep tapes and drop the streams.
//!
//! # The two lanes
//!
//! The timeline is **dual-lane**. Compute work (block ops, interconnect
//! transfers) advances [`PimChip::elapsed`] directly. Off-chip work —
//! HBM2 DMAs (`LoadOffchip`/`StoreOffchip`) and inter-chip
//! [`PimChip::link_transfer`]s — serializes on its own `offchip` lane
//! and does *not* advance `elapsed` on its own: the paper hides data
//! movement behind compute (the Fig. 6/7 batching schedule, §6.1.2), so
//! an in-flight DMA only costs wall-clock when something actually waits
//! for it. That happens two ways: a compute instruction touching the
//! DMA's target block starts no earlier than the DMA finishes (the data
//! dependency), and an explicit [`PimChip::fence_offchip`] pulls the
//! whole lane into `elapsed` (the cluster runtime issues one before
//! Flux, which is the first kernel that reads ghost data).
//! [`PimChip::finish`] fences implicitly so no off-chip time is ever
//! dropped from the report.

use std::borrow::BorrowMut;
use std::fmt;
use std::ops::Range;

use pim_isa::lut::LutError;
use pim_isa::{BlockId, Instr, InstrStream, StreamStats, BLOCK_ROWS, WORDS_PER_ROW};
use pim_trace::{Payload, TID_HOST, TID_INTERCONNECT, TID_OFFCHIP};

use crate::block::{whole_tile, MemBlock, OpCost};
use crate::energy::EnergyLedger;
use crate::host;
use crate::interconnect::{
    BusNetwork, HTreeNetwork, Interconnect, InterconnectKind, Resource, Transfer,
};
use crate::params::{ChipCapacity, ProcessNode};
use crate::tape::{
    Charge, Cost, FKind, FOp, LowerError, RunIds, Step, Tape, TapeBuilder, Violation,
};

/// Chip configuration: capacity (Table 2), interconnect (§4.2), process
/// node (§7.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipConfig {
    pub capacity: ChipCapacity,
    pub interconnect: InterconnectKind,
    pub node: ProcessNode,
}

impl ChipConfig {
    /// The paper's headline configuration: 2 GB, H-tree, 28 nm.
    pub fn default_2gb() -> Self {
        Self {
            capacity: ChipCapacity::Gb2,
            interconnect: InterconnectKind::HTree,
            node: ProcessNode::Nm28,
        }
    }
}

/// Result of a finished execution.
#[derive(Debug, Clone, Copy)]
pub struct ExecReport {
    /// Wall-clock seconds (after process-node performance scaling).
    pub seconds: f64,
    /// Energy ledger (after process-node energy scaling), including
    /// static energy for the elapsed time.
    pub ledger: EnergyLedger,
}

/// The chip simulator.
///
/// ```
/// use pim_isa::{AluOp, BlockId, Instr, InstrStream};
/// use pim_sim::{ChipConfig, PimChip};
///
/// let mut chip = PimChip::new(ChipConfig::default_2gb());
/// chip.block_mut(BlockId(0)).set(0, 0, 2.0);
/// chip.block_mut(BlockId(0)).set(0, 1, 3.0);
/// let mut program = InstrStream::new();
/// program.push(Instr::Arith {
///     block: BlockId(0), op: AluOp::Mul, first_row: 0, last_row: 0, dst: 2, a: 0, b: 1,
/// });
/// chip.execute(&program);
/// assert_eq!(chip.block(BlockId(0)).get(0, 2), 6.0);
/// assert!(chip.finish().ledger.compute > 0.0);
/// ```
pub struct PimChip {
    config: ChipConfig,
    htree: HTreeNetwork,
    bus: BusNetwork,
    /// Block contents, indexed by `BlockId.0`. Allocation is lazy at
    /// two levels: an untouched block is `None` (a Gb16 chip has 131K
    /// blocks), and a materialized block allocates only the row tiles
    /// that were written (see [`MemBlock`]). Lookup is a single indexed
    /// load into a table of pointers instead of a hash probe.
    blocks: Vec<Option<Box<MemBlock>>>,
    /// Dense per-block timelines, indexed by `BlockId.0`: the ready/busy
    /// clocks are one `f64` per block, so the interpreter's hot path
    /// indexes flat arrays instead of hashing.
    block_ready: Vec<f64>,
    block_busy: Vec<f64>,
    /// Which blocks any instruction has touched (for utilization over
    /// *active* blocks — a touched block can have 0.0 busy seconds).
    block_touched: Vec<bool>,
    touched_blocks: usize,
    /// Dense per-resource timeline; see [`Self::resource_index`].
    resource_ready: Vec<f64>,
    resource_slots_per_tile: usize,
    offchip_ready: f64,
    host_ready: f64,
    barrier: f64,
    elapsed: f64,
    ledger: EnergyLedger,
    trace_pid: u32,
    metrics: Option<ChipMetrics>,
    diagnostics: Vec<Diagnostic>,
}

/// What the functional pass records about a malformed program instead of
/// failing on it.
#[derive(Debug, Clone, PartialEq)]
pub enum Diagnostic {
    /// A `Lut` whose index word at chip row `row`, word `offset_s`, read
    /// as `raw`, which `error` rejects: the index read stays charged, the
    /// content fetch and write-back are skipped.
    SkippedLut { row: u32, offset_s: u8, raw: f64, error: LutError },
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Diagnostic::SkippedLut { row, offset_s, raw, error } => write!(
                f,
                "skipped Lut at row {row} offset_s {offset_s}: {error} (index word read as {raw})"
            ),
        }
    }
}

/// `pim-metrics` handles for one chip, labeled `chip="<label>"`, created
/// by [`PimChip::attach_metrics`]; an unmetered chip holds none. The
/// energy counters mirror every [`EnergyLedger`] charge exactly
/// (published as per-`execute` deltas, which telescope to the ledger
/// totals), making the metrics ↔ ledger reconciliation in the bench
/// layer a pure cross-check.
struct ChipMetrics {
    energy: [pim_metrics::FloatCounter; 6],
    instrs: [pim_metrics::Counter; 10],
    dma_bytes: pim_metrics::Counter,
    row_activations: pim_metrics::Counter,
    compute_seconds: pim_metrics::FloatCounter,
    offchip_busy_seconds: pim_metrics::FloatCounter,
    barrier_stall_seconds: pim_metrics::FloatCounter,
    exposed_offchip_seconds: pim_metrics::FloatCounter,
    link_bytes: pim_metrics::Counter,
    link_messages: pim_metrics::Counter,
    link_busy_seconds: pim_metrics::FloatCounter,
}

/// Ledger mechanisms in the order of [`ChipMetrics::energy`].
const MECHANISMS: [&str; 6] = ["compute", "reads", "writes", "interconnect", "offchip", "host"];

/// Instruction classes in the order of [`ChipMetrics::instrs`], matching
/// the `StreamStats` opcode mix.
const INSTR_CLASSES: [&str; 10] = [
    "read",
    "write",
    "broadcast",
    "copy",
    "arith_add",
    "arith_mul",
    "lut",
    "load_offchip",
    "store_offchip",
    "sync",
];

impl ChipMetrics {
    fn new(reg: &pim_metrics::MetricsRegistry, label: &str) -> Self {
        let chip = [("chip", label)];
        Self {
            energy: std::array::from_fn(|i| {
                reg.float_counter(
                    "pim_chip_energy_joules_total",
                    &[("chip", label), ("mechanism", MECHANISMS[i])],
                )
            }),
            instrs: std::array::from_fn(|i| {
                reg.counter("pim_chip_instrs_total", &[("chip", label), ("op", INSTR_CLASSES[i])])
            }),
            dma_bytes: reg.counter("pim_chip_dma_bytes_total", &chip),
            row_activations: reg.counter("pim_chip_row_activations_total", &chip),
            compute_seconds: reg.float_counter("pim_chip_compute_seconds_total", &chip),
            offchip_busy_seconds: reg.float_counter("pim_chip_offchip_busy_seconds_total", &chip),
            barrier_stall_seconds: reg.float_counter("pim_chip_barrier_stall_seconds_total", &chip),
            exposed_offchip_seconds: reg
                .float_counter("pim_chip_exposed_offchip_seconds_total", &chip),
            link_bytes: reg.counter("pim_chip_link_bytes_total", &chip),
            link_messages: reg.counter("pim_chip_link_messages_total", &chip),
            link_busy_seconds: reg.float_counter("pim_chip_link_busy_seconds_total", &chip),
        }
    }

    fn add_energy_delta(&self, before: &EnergyLedger, after: &EnergyLedger) {
        let deltas = [
            after.compute - before.compute,
            after.reads - before.reads,
            after.writes - before.writes,
            after.interconnect - before.interconnect,
            after.offchip - before.offchip,
            after.host - before.host,
        ];
        for (counter, delta) in self.energy.iter().zip(deltas) {
            if delta != 0.0 {
                counter.add(delta);
            }
        }
    }

    fn add_opcode_mix(&self, stats: &StreamStats) {
        let counts = [
            stats.reads,
            stats.writes,
            stats.broadcasts,
            stats.copies,
            stats.arith_addlike,
            stats.arith_mullike,
            stats.luts,
            stats.offchip_loads,
            stats.offchip_stores,
            stats.syncs,
        ];
        for (counter, count) in self.instrs.iter().zip(counts) {
            if count != 0 {
                counter.add(count);
            }
        }
    }
}

impl PimChip {
    pub fn new(config: ChipConfig) -> Self {
        let htree = HTreeNetwork::new();
        let num_blocks = config.capacity.num_blocks() as usize;
        let num_tiles = num_blocks / pim_isa::BLOCKS_PER_TILE;
        // One slot per tile bus plus one per H-tree switch; slot 0 is the
        // chip router. The denser of the two interconnects sizes the
        // table so either kind indexes without collisions.
        let resource_slots_per_tile = 1 + htree.switches_per_tile() as usize;
        Self {
            config,
            htree,
            bus: BusNetwork::new(),
            blocks: {
                let mut v = Vec::new();
                v.resize_with(num_blocks, || None);
                v
            },
            block_ready: vec![0.0; num_blocks],
            block_busy: vec![0.0; num_blocks],
            block_touched: vec![false; num_blocks],
            touched_blocks: 0,
            resource_ready: vec![0.0; 1 + num_tiles * resource_slots_per_tile],
            resource_slots_per_tile,
            offchip_ready: 0.0,
            host_ready: 0.0,
            barrier: 0.0,
            elapsed: 0.0,
            ledger: EnergyLedger::default(),
            trace_pid: 0,
            metrics: None,
            diagnostics: Vec::new(),
        }
    }

    /// Diagnostics recorded by the interpreter for malformed programs
    /// (e.g. a LUT index addressing past the table block). A well-formed
    /// program leaves this empty.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Drains and returns the accumulated diagnostics.
    pub fn take_diagnostics(&mut self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.diagnostics)
    }

    /// Meters this chip into `registry` under `chip="<label>"`. Attach
    /// before the first [`Self::execute`] so the energy counters mirror
    /// the whole ledger; without a registry the chip records no metrics.
    pub fn attach_metrics(&mut self, registry: &pim_metrics::MetricsRegistry, label: &str) {
        self.metrics = Some(ChipMetrics::new(registry, label));
    }

    /// This chip's trace process id (lazily allocated so untraced runs
    /// never touch the trace registry).
    pub fn trace_pid(&mut self) -> u32 {
        if self.trace_pid == 0 {
            self.trace_pid =
                pim_trace::alloc_pid(format!("pim-chip {}", self.config.capacity.name()));
        }
        self.trace_pid
    }

    /// Registers this chip's trace swimlane under `label` instead of the
    /// default `pim-chip <capacity>`. The cluster runtime uses this to
    /// give every chip its own named process row. No-op after the pid has
    /// been allocated.
    pub fn set_trace_label(&mut self, label: impl Into<String>) {
        if self.trace_pid == 0 {
            self.trace_pid = pim_trace::alloc_pid(label);
        }
    }

    /// Records an instruction-level span on this chip's trace process.
    /// Timestamps are *unscaled* simulated seconds — the same clock as
    /// [`Self::elapsed`] — and the energy payload is exactly the joules
    /// charged to the ledger, so drained traces reconcile against
    /// [`Self::finish`] without slack.
    #[inline]
    fn trace(&mut self, tid: u32, t0: f64, t1: f64, payload: Payload) {
        if pim_trace::enabled() {
            let pid = self.trace_pid();
            pim_trace::record_span(pid, tid, t0, t1, payload);
        }
    }

    pub fn config(&self) -> ChipConfig {
        self.config
    }

    /// The raw (unscaled, dynamic-only) energy ledger accumulated so far.
    /// [`Self::finish`] applies process-node scaling and static power; this
    /// accessor exposes the running totals so external instrumentation
    /// (the cluster runner's per-kernel energy attribution) can take
    /// deltas around individual executions.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Total busy seconds summed over every touched block — the numerator
    /// of a capacity-utilization figure: a chip with `num_blocks()` blocks
    /// idle for `num_blocks() × elapsed − total_block_busy_seconds()`
    /// block-seconds.
    pub fn total_block_busy_seconds(&self) -> f64 {
        self.block_busy.iter().sum()
    }

    /// Read access to a block's storage (allocating it zeroed if new).
    pub fn block(&mut self, id: BlockId) -> &MemBlock {
        self.check_block(id);
        self.blocks[id.0 as usize].get_or_insert_with(Box::default)
    }

    /// Mutable access for host-side preloading of inputs and LUT contents
    /// (§4.3: contents are loaded "before the computation begins"; the
    /// time/energy for bulk preload is charged via `LoadOffchip`
    /// instructions, not here).
    pub fn block_mut(&mut self, id: BlockId) -> &mut MemBlock {
        self.check_block(id);
        self.blocks[id.0 as usize].get_or_insert_with(Box::default)
    }

    /// Every materialized block, in id order. Blocks never touched are
    /// skipped (they hold nothing and were never allocated).
    pub fn resident_blocks(&self) -> impl Iterator<Item = (BlockId, &MemBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(id, b)| b.as_deref().map(|b| (BlockId(id as u32), b)))
    }

    fn check_block(&self, id: BlockId) {
        assert!(
            (id.0 as u64) < self.config.capacity.num_blocks(),
            "block {} exceeds the {} chip's {} blocks",
            id.0,
            self.config.capacity.name(),
            self.config.capacity.num_blocks()
        );
    }

    /// Unscaled simulated seconds of the *compute* lane so far. Off-chip
    /// work still in flight (see the module docs' dual-lane model) is not
    /// included until a dependent instruction or [`Self::fence_offchip`]
    /// pulls it in; [`Self::offchip_time`] exposes that lane.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Absolute simulated time at which the off-chip lane (HBM2 DMAs and
    /// inter-chip link transfers) frees up. May run ahead of
    /// [`Self::elapsed`] while data movement is hidden behind compute.
    pub fn offchip_time(&self) -> f64 {
        self.offchip_ready
    }

    /// Joins the off-chip lane into the compute timeline: `elapsed`
    /// advances to cover every issued DMA and link transfer. The cluster
    /// runtime issues this before Flux — the first kernel that consumes
    /// halo data — so Volume overlaps the exchange and only Flux pays for
    /// whatever the overlap could not hide. Returns the new elapsed time.
    pub fn fence_offchip(&mut self) -> f64 {
        if let Some(metrics) = &self.metrics {
            // The measured exposed off-chip time: how far the off-chip
            // lane ran ahead of compute when something had to wait for it.
            let exposed = (self.offchip_ready - self.elapsed).max(0.0);
            if exposed > 0.0 {
                metrics.exposed_offchip_seconds.add(exposed);
            }
        }
        self.elapsed = self.elapsed.max(self.offchip_ready);
        self.elapsed
    }

    /// Absolute simulated time at which `block`'s last scheduled access
    /// — compute op or DMA — completes. This is the per-block readiness
    /// the pipelined cluster protocol fences on: a consumer of one ghost
    /// block need not wait for unrelated traffic still draining on the
    /// off-chip lane.
    pub fn block_ready_time(&self, id: BlockId) -> f64 {
        self.check_block(id);
        self.block_ready[id.0 as usize]
    }

    /// Latest readiness over `blocks` ([`Self::block_ready_time`]);
    /// 0 when `blocks` is empty.
    pub fn blocks_ready_time(&self, blocks: &[BlockId]) -> f64 {
        blocks.iter().fold(0.0f64, |m, &b| m.max(self.block_ready_time(b)))
    }

    /// Partial fence: joins the compute lane to exactly the given
    /// blocks' readiness instead of the whole off-chip lane. Where
    /// [`Self::fence_offchip`] charges the stage for every DMA and link
    /// transfer in flight, this waits only for the blocks the next
    /// kernel actually reads — outbound link charges and unrelated DMAs
    /// keep draining on the off-chip lane concurrently with compute.
    /// Because every fenced block's readiness is ≤ the lane's ready
    /// time, `fence_blocks` never advances `elapsed` past what
    /// `fence_offchip` would. Returns the new elapsed time.
    pub fn fence_blocks(&mut self, blocks: &[BlockId]) -> f64 {
        let ready = self.blocks_ready_time(blocks);
        if let Some(metrics) = &self.metrics {
            let exposed = (ready - self.elapsed).max(0.0);
            if exposed > 0.0 {
                metrics.exposed_offchip_seconds.add(exposed);
            }
        }
        self.elapsed = self.elapsed.max(ready);
        self.elapsed
    }

    /// Fraction of the elapsed time a block spent busy (0 for untouched
    /// blocks) — the per-block view of the paper's resource-utilization
    /// discussion (§6.2.1).
    pub fn block_utilization(&self, id: BlockId) -> f64 {
        if self.elapsed <= 0.0 {
            return 0.0;
        }
        self.block_busy.get(id.0 as usize).copied().unwrap_or(0.0) / self.elapsed
    }

    /// Mean utilization over the blocks that were touched at all.
    pub fn mean_active_utilization(&self) -> f64 {
        if self.touched_blocks == 0 || self.elapsed <= 0.0 {
            return 0.0;
        }
        self.block_busy.iter().sum::<f64>() / (self.touched_blocks as f64 * self.elapsed)
    }

    /// Routes `src → dst` into `path` on the chip's interconnect.
    fn route_into(&self, src: BlockId, dst: BlockId, path: &mut Vec<Resource>) {
        match self.config.interconnect {
            InterconnectKind::HTree => self.htree.route_into(src, dst, path),
            InterconnectKind::Bus => self.bus.route_into(src, dst, path),
        }
    }

    /// Transfer duration and energy, with the hop count taken from the
    /// already-routed path rather than re-deriving the route.
    fn transfer_cost(&self, t: &Transfer, hops: usize) -> (f64, f64) {
        match self.config.interconnect {
            InterconnectKind::HTree => {
                (self.htree.duration(t), self.htree.energy_with_hops(t, hops))
            }
            InterconnectKind::Bus => (self.bus.duration(t), self.bus.energy_with_hops(t, hops)),
        }
    }

    /// Dense slot of an interconnect resource in [`Self::resource_ready`]:
    /// slot 0 is the chip router; each tile then gets a contiguous run of
    /// `resource_slots_per_tile` slots — its bus first, then its H-tree
    /// switches in [`HTreeNetwork::switch_slot`] order.
    #[inline]
    fn resource_index(&self, r: &Resource) -> usize {
        match *r {
            Resource::ChipRouter => 0,
            Resource::TileBus { tile } => 1 + tile as usize * self.resource_slots_per_tile,
            Resource::Switch { tile, level, index } => {
                1 + tile as usize * self.resource_slots_per_tile
                    + 1
                    + self.htree.switch_slot(level, index) as usize
            }
        }
    }

    #[inline]
    fn mark_touched(&mut self, idx: usize) {
        if !self.block_touched[idx] {
            self.block_touched[idx] = true;
            self.touched_blocks += 1;
        }
    }

    /// When an op on block `idx` may start: after the block's last op
    /// and the barrier.
    #[inline]
    fn block_start(&self, idx: usize) -> f64 {
        self.block_ready[idx].max(self.barrier)
    }

    #[inline]
    fn finish_block(&mut self, idx: usize, at: f64) {
        let start = self.block_start(idx);
        self.mark_touched(idx);
        self.block_busy[idx] += (at - start).max(0.0);
        self.block_ready[idx] = at;
        self.elapsed = self.elapsed.max(at);
    }

    /// Off-chip variant of [`Self::finish_block`]: the DMA occupies the
    /// block (so dependent compute waits for the data) but does *not*
    /// advance `elapsed` — the transfer rides the off-chip lane until
    /// something depends on it.
    fn finish_block_offchip(&mut self, idx: usize, start: f64, at: f64) {
        self.mark_touched(idx);
        self.block_busy[idx] += (at - start).max(0.0);
        self.block_ready[idx] = at;
    }

    /// Executes a stream: [`Self::lower`] then [`Self::replay`].
    /// Instructions issue in order; execution overlaps wherever the
    /// resources (blocks, switches, off-chip channel) are disjoint.
    /// `Sync` is a full barrier.
    ///
    /// # Panics
    /// Panics with the [`LowerError`] if the stream breaks a bound of
    /// this chip, before any instruction has run.
    pub fn execute(&mut self, stream: &InstrStream) {
        let tape = self.lower(stream).unwrap_or_else(|e| panic!("{e}"));
        self.replay(&tape);
    }

    /// Lowers `stream` for this chip's configuration: checks every
    /// bound, resolves each block-local op into a block run, routes
    /// every `Copy` and `Lut` to its resource slots, and prices every op
    /// (module docs). Nothing about the chip's state changes.
    ///
    /// # Errors
    /// The first instruction that breaks a bound, with its index.
    pub fn lower(&self, stream: &InstrStream) -> Result<Tape, LowerError> {
        let mut lowering = self.lowering();
        lowering.push(stream)?;
        Ok(lowering.finish())
    }

    /// Starts lowering a stream that arrives in parts, some of them one
    /// run repeated over a block set, so the whole stream never exists;
    /// see [`Lowering`].
    pub fn lowering(&self) -> Lowering<'_> {
        Lowering {
            chip: self,
            tape: TapeBuilder::new(self.config),
            path: Vec::new(),
            slots: Vec::new(),
            routed: None,
            fops: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Replays a tape lowered by [`Self::lower`]: the functional pass,
    /// then the timing pass, each in issue order, then the host-dispatch
    /// charge. Every clock, ledger field and trace span comes out
    /// exactly as instruction-by-instruction execution leaves it.
    ///
    /// # Panics
    /// Panics if the tape was lowered for another chip configuration.
    pub fn replay(&mut self, tape: &Tape) {
        assert_eq!(
            tape.config, self.config,
            "a tape replays only on the configuration it was lowered for"
        );
        // Metrics are published once per tape from the ledger/clock
        // deltas and the stream's `StreamStats`, so an unmetered chip
        // pays one `Option` check per replay, not per instruction.
        let before = self.metrics.is_some().then_some((self.ledger, self.elapsed));
        let faults = self.replay_functional(tape);
        self.replay_timing(tape, &faults);
        // Host dispatch of the whole stream is a lower bound on elapsed
        // time: the chip cannot outrun its instruction feed.
        let dispatch = host::dispatch_time(tape.len() as u64);
        let joules = dispatch * host::power();
        self.ledger.host += joules;
        self.elapsed = self.elapsed.max(dispatch);
        // The host lane has been busy at least this long; a later
        // preprocess call anchors after it.
        self.host_ready = self.host_ready.max(dispatch);
        // The lower bound is absolute (measured from t = 0), so the span
        // is too.
        self.trace(
            TID_HOST,
            0.0,
            dispatch,
            Payload::HostCall { call: "dispatch", count: tape.len() as u64, energy_j: joules },
        );
        if let (Some(metrics), Some((ledger_before, elapsed_before))) = (&self.metrics, before) {
            let stats = tape.stats();
            let rows = stats.row_activations();
            metrics.add_energy_delta(&ledger_before, &self.ledger);
            metrics.add_opcode_mix(stats);
            metrics.compute_seconds.add(self.elapsed - elapsed_before);
            if stats.offchip_bytes > 0 {
                metrics.dma_bytes.add(stats.offchip_bytes);
                metrics.offchip_busy_seconds.add(OpCost::dma(stats.offchip_bytes).seconds);
            }
            if rows > 0 {
                metrics.row_activations.add(rows);
            }
        }
    }

    /// Block `idx`, allocated on first use.
    #[inline]
    fn block_at(&mut self, idx: usize) -> &mut MemBlock {
        self.blocks[idx].get_or_insert_with(Box::default)
    }

    /// The functional pass: cell data and row buffers. Returns each
    /// `Lut`'s fault outcome, in issue order, for the timing pass.
    ///
    /// A group's repeat blocks run its body op-major, [`GROUP_CHUNK`]
    /// blocks at a time: each op goes over the chunk's blocks before the
    /// next op does. A group's blocks are distinct and its body is
    /// block-local, so every block still sees its own ops in order.
    fn replay_functional(&mut self, tape: &Tape) -> Vec<bool> {
        let mut faults = Vec::new();
        let mut held: Vec<Box<MemBlock>> = Vec::new();
        let (fops, mut i, mut current) = (&tape.fops[..], 0, 0);
        while let Some(op) = fops.get(i) {
            i += 1;
            match op.kind {
                FKind::Block => current = op.wide(),
                FKind::Copy => {
                    let buf = *self.block_at(current).row_buffer();
                    current = op.wide();
                    self.block_at(current).load_row_buffer(&buf[..op.c[0] as usize]);
                }
                FKind::Lut => faults.push(self.lut_cells(&tape.luts[op.wide()])),
                FKind::Fetch => {
                    // The run's source and destination differ: the
                    // source leaves its slot while both are in use.
                    let f = &tape.fetches[op.wide()];
                    let [at, into, words] = op.c.map(usize::from);
                    let mut src = self.blocks[f.src as usize].take().unwrap_or_default();
                    current = f.dst as usize;
                    let dst = self.block_at(current);
                    src.fetch_cells(dst, tape.table(f.table as usize), at, into, words);
                    self.blocks[f.src as usize] = Some(src);
                }
                FKind::Repeat => {
                    let group = &tape.groups[op.wide()];
                    let body = &fops[i - 1 - group.body as usize..i - 1];
                    let blocks = &tape.blocks[group.blocks()];
                    for chunk in blocks.chunks(GROUP_CHUNK) {
                        held.extend(
                            chunk
                                .iter()
                                .map(|&b| self.blocks[b as usize].take().unwrap_or_default()),
                        );
                        for op in body {
                            run_local(&mut held, op, tape);
                        }
                        for (&b, block) in chunk.iter().zip(held.drain(..)) {
                            self.blocks[b as usize] = Some(block);
                        }
                    }
                    current = *blocks.last().expect("a group repeats on some block") as usize;
                }
                _ => {
                    // Block-local ops run on the current block until the
                    // next op that is not one.
                    let b = self.block_at(current);
                    let mut op = op;
                    while run_local(std::slice::from_mut(b), op, tape) {
                        match fops.get(i) {
                            Some(next) => (op, i) = (next, i + 1),
                            None => return faults,
                        }
                    }
                    i -= 1;
                }
            }
        }
        faults
    }

    /// Algorithm 1's data movement: read the index, fetch the content
    /// from the LUT block, write it back — "a special case of
    /// inter-block data transmission" (§4.3). Returns whether the index
    /// word faulted.
    fn lut_cells(&mut self, instr: &Instr) -> bool {
        let Instr::Lut { row, offset_s, lut_block, offset_d } = *instr else {
            unreachable!("the tape's lookups are Lut instructions")
        };
        let holder = row as usize / BLOCK_ROWS;
        let row_in_block = row as usize % BLOCK_ROWS;
        let raw = {
            let b = self.block_at(holder);
            b.read_cells(row_in_block, offset_s as usize, 1);
            b.row_buffer()[0]
        };
        // Validate the raw word (negative and NaN words would silently
        // cast to index 0), then route the rounded index through the
        // fallible expansion so a malformed program (index past the
        // table block) becomes a diagnostic, not a crash or a bogus
        // entry-0 fetch: the index read that physically happened stays
        // charged, the content fetch and write-back are skipped.
        let checked = pim_isa::lut::try_index_word(raw)
            .and_then(|index| pim_isa::lut::try_expand(instr, index).map(|_| index));
        let index = match checked {
            Ok(index) => index as usize,
            Err(error) => {
                self.diagnostics.push(Diagnostic::SkippedLut { row, offset_s, raw, error });
                return true;
            }
        };
        let content = {
            let b = self.block_at(lut_block as usize);
            b.read_cells(index / WORDS_PER_ROW, index % WORDS_PER_ROW, 1);
            b.row_buffer()[0]
        };
        let b = self.block_at(holder);
        b.load_row_buffer(&[content]);
        b.write_cells(row_in_block, offset_d as usize, 1);
        false
    }

    /// The timing pass: clocks, resource slots, ledger and trace spans,
    /// in issue order. Whether to trace is decided once per tape.
    fn replay_timing(&mut self, tape: &Tape, faults: &[bool]) {
        let pid = pim_trace::enabled().then(|| self.trace_pid());
        let (mut id, mut lut) = (0, 0);
        let mut routes = Routes { rest: &tape.routes, route: &[], held: None };
        // The run ids of the last `Run` step, which a `Repeat` repeats.
        let mut last = 0..0;
        for step in &tape.steps {
            match *step {
                Step::Run { block, len } => {
                    last = id..id + len as usize;
                    id += len as usize;
                    self.time_runs(&[block], &tape.run_ids, last.clone(), &tape.op_costs, pid);
                }
                Step::Repeat { group } => {
                    let blocks = &tape.blocks[tape.groups[group as usize].blocks()];
                    self.time_runs(blocks, &tape.run_ids, last.clone(), &tape.op_costs, pid);
                }
                Step::Copy { src, dst, cost, rerouted } => {
                    let cost = &tape.xfer_costs[cost as usize];
                    self.time_copy(src as usize, dst as usize, (&mut routes, rerouted), cost, pid);
                }
                Step::Fetch { src, dst, cost, count, rerouted } => {
                    let (read, write) = (tape.run_ids.get(id), tape.run_ids.get(id + 1));
                    id += 2;
                    let costs = (
                        &tape.op_costs[read],
                        &tape.xfer_costs[cost as usize],
                        &tape.op_costs[write],
                    );
                    routes.next(rerouted, &mut self.resource_ready);
                    self.time_fetches((src as usize, dst as usize), count, costs, &mut routes, pid);
                }
                Step::Lut { holder, lut: table, cost, rerouted } => {
                    let cost = &tape.xfer_costs[cost as usize];
                    routes.next(rerouted, &mut self.resource_ready);
                    routes.flush(&mut self.resource_ready);
                    let slots = routes.route;
                    let faulted = faults[lut];
                    lut += 1;
                    self.time_lut(holder as usize, table as usize, slots, cost, faulted, pid);
                }
                Step::Dma { block, cost } => {
                    self.time_dma(block as usize, &tape.xfer_costs[cost as usize], pid)
                }
                // Monotone: a Sync must never *lower* an externally
                // advanced barrier (the cluster aligns chips with
                // `advance_barrier` at times the local clock has not
                // reached yet).
                Step::Sync => self.barrier = self.barrier.max(self.elapsed),
            }
        }
        routes.flush(&mut self.resource_ready);
    }

    /// Adds `cost`'s joules to its ledger field.
    #[inline]
    fn charge(&mut self, cost: &Cost) {
        let field = match cost.charge {
            Charge::Read => &mut self.ledger.reads,
            Charge::Write | Charge::Broadcast => &mut self.ledger.writes,
            Charge::Arith(_) => &mut self.ledger.compute,
            Charge::Transfer { .. } => &mut self.ledger.interconnect,
            Charge::Offchip { .. } => &mut self.ledger.offchip,
        };
        *field += cost.joules;
    }

    /// The run ids `ids` as one run on each of `blocks`, in order.
    fn time_runs(
        &mut self,
        blocks: &[u32],
        run_ids: &RunIds,
        ids: Range<usize>,
        costs: &[Cost],
        pid: Option<u32>,
    ) {
        match run_ids {
            RunIds::Narrow(v) => {
                blocks.iter().for_each(|&b| self.time_run(b, &v[ids.clone()], costs, pid))
            }
            RunIds::Wide(v) => {
                blocks.iter().for_each(|&b| self.time_run(b, &v[ids.clone()], costs, pid))
            }
        }
    }

    /// A run of block-local ops on one block: each starts when the
    /// previous one finishes (same block ⇒ fully serialized), so the
    /// clock chain is a running `t`. The first op starts after the
    /// block's last op and the barrier; later ones start at or after it,
    /// so re-applying the barrier would change nothing. Each ledger
    /// field takes its ops' joules in issue order, so the sums equal
    /// charging op by op.
    fn time_run<I: Copy + Into<usize>>(
        &mut self,
        block: u32,
        ids: &[I],
        costs: &[Cost],
        pid: Option<u32>,
    ) {
        let idx = block as usize;
        self.mark_touched(idx);
        let mut t = self.block_start(idx);
        let mut busy = self.block_busy[idx];
        let l = &self.ledger;
        let (mut reads, mut writes, mut compute) = (l.reads, l.writes, l.compute);
        for &id in ids {
            let cost = &costs[id.into()];
            match cost.charge {
                Charge::Read => reads += cost.joules,
                Charge::Write | Charge::Broadcast => writes += cost.joules,
                Charge::Arith(_) => compute += cost.joules,
                Charge::Transfer { .. } | Charge::Offchip { .. } => {
                    unreachable!("runs hold block-local ops only")
                }
            }
            let t1 = t + cost.seconds;
            busy += (t1 - t).max(0.0);
            if let Some(pid) = pid {
                pim_trace::record_span(pid, block, t, t1, cost.payload());
            }
            t = t1;
        }
        (self.ledger.reads, self.ledger.writes, self.ledger.compute) = (reads, writes, compute);
        self.block_busy[idx] = busy;
        self.block_ready[idx] = t;
        self.elapsed = self.elapsed.max(t);
    }

    /// An interconnect copy over the next route when `rerouted`, else
    /// over the previous transfer's: it starts when both blocks and
    /// every resource on its route are free, and holds them all until
    /// done. The route's slots are written when the route changes
    /// ([`Routes`]).
    fn time_copy(
        &mut self,
        src: usize,
        dst: usize,
        (routes, rerouted): (&mut Routes<'_>, bool),
        cost: &Cost,
        pid: Option<u32>,
    ) {
        routes.next(rerouted, &mut self.resource_ready);
        let mut start = self.block_start(src).max(self.block_start(dst));
        match routes.held {
            Some(at) => start = start.max(at),
            None => {
                for &slot in routes.route {
                    start = start.max(self.resource_ready[slot as usize]);
                }
            }
        }
        let finish = start + cost.seconds;
        if !routes.route.is_empty() {
            routes.held = Some(finish);
        }
        self.charge(cost);
        self.finish_block(src, finish);
        self.finish_block(dst, finish);
        if let Some(pid) = pid {
            pim_trace::record_span(pid, TID_INTERCONNECT, start, finish, cost.payload());
        }
    }

    /// A fetch run of `count` fetches on the route `routes` moved to:
    /// each is the read on `src`, the copy to `dst` and the write on
    /// `dst`, timed and charged as [`Self::time_run`], [`Self::time_copy`]
    /// and [`Self::time_run`] would in turn, every add in issue order.
    /// The blocks differ, so both blocks' clocks and the three ledger
    /// fields stay in locals for the whole run. The clocks only grow, so
    /// the maxes that cannot change a value are left out; a max returns
    /// one of its operands, so the rest give the same bits in any order:
    /// - each block's clock is clamped to the barrier once, at the start;
    /// - only the first copy waits for the route (its held finish, or its
    ///   slots): each later one starts after the read before it, which
    ///   starts when the copy before it, the last on the route, ends;
    /// - the last write ends after every other op, so `elapsed` takes
    ///   one max.
    fn time_fetches(
        &mut self,
        (src, dst): (usize, usize),
        count: u16,
        (read, copy, write): (&Cost, &Cost, &Cost),
        routes: &mut Routes<'_>,
        pid: Option<u32>,
    ) {
        self.mark_touched(src);
        self.mark_touched(dst);
        let barrier = self.barrier;
        let (mut src_ready, mut src_busy) =
            (self.block_ready[src].max(barrier), self.block_busy[src]);
        let (mut dst_ready, mut dst_busy) =
            (self.block_ready[dst].max(barrier), self.block_busy[dst]);
        let l = &self.ledger;
        let (mut reads, mut moved, mut writes) = (l.reads, l.interconnect, l.writes);
        let ready = &self.resource_ready;
        // When the next copy may start, apart from its read.
        let mut floor = match routes.held {
            Some(at) => dst_ready.max(at),
            None => routes.route.iter().fold(dst_ready, |t, &slot| t.max(ready[slot as usize])),
        };
        let span = |tid: u32, t0: f64, t1: f64, cost: &Cost| {
            if let Some(pid) = pid {
                pim_trace::record_span(pid, tid, t0, t1, cost.payload());
            }
        };
        for _ in 0..count {
            reads += read.joules;
            let read_end = src_ready + read.seconds;
            src_busy += (read_end - src_ready).max(0.0);
            span(src as u32, src_ready, read_end, read);

            let start = read_end.max(floor);
            let finish = start + copy.seconds;
            moved += copy.joules;
            src_busy += (finish - read_end).max(0.0);
            dst_busy += (finish - dst_ready).max(0.0);
            span(TID_INTERCONNECT, start, finish, copy);

            writes += write.joules;
            (src_ready, dst_ready) = (finish, finish + write.seconds);
            dst_busy += (dst_ready - finish).max(0.0);
            span(dst as u32, finish, dst_ready, write);
            floor = dst_ready;
        }
        (self.block_ready[src], self.block_busy[src]) = (src_ready, src_busy);
        (self.block_ready[dst], self.block_busy[dst]) = (dst_ready, dst_busy);
        (self.ledger.reads, self.ledger.interconnect, self.ledger.writes) = (reads, moved, writes);
        self.elapsed = self.elapsed.max(dst_ready);
        if !routes.route.is_empty() {
            routes.held = Some(src_ready);
        }
    }

    /// Algorithm 1 on the timeline: index read, LUT content read, switch
    /// transfer, result write. A faulted lookup stops after the index
    /// read, and both blocks it reserved are released there.
    fn time_lut(
        &mut self,
        holder: usize,
        lut: usize,
        slots: &[u32],
        xfer: &Cost,
        faulted: bool,
        pid: Option<u32>,
    ) {
        let start = self.block_start(holder).max(self.block_start(lut));
        let read = OpCost::read();
        let block_op = |op, energy_j| Payload::BlockOp { op, nor_cycles: 0, energy_j };
        self.ledger.reads += read.joules;
        if faulted {
            let at = start + read.seconds;
            self.finish_block(holder, at);
            self.finish_block(lut, at);
            if let Some(pid) = pid {
                pim_trace::record_span(
                    pid,
                    holder as u32,
                    start,
                    at,
                    block_op("read", read.joules),
                );
            }
            return;
        }
        self.ledger.reads += read.joules;
        let mut xfer_start = start + 2.0 * read.seconds;
        for &slot in slots {
            xfer_start = xfer_start.max(self.resource_ready[slot as usize]);
        }
        let xfer_finish = xfer_start + xfer.seconds;
        for &slot in slots {
            self.resource_ready[slot as usize] = xfer_finish;
        }
        self.charge(xfer);
        let write = OpCost::write(1);
        self.ledger.writes += write.joules;
        let finish = xfer_finish + write.seconds;
        self.finish_block(holder, finish);
        self.finish_block(lut, finish);
        if let Some(pid) = pid {
            let (searched, fetched) = (start + read.seconds, start + 2.0 * read.seconds);
            pim_trace::record_span(
                pid,
                holder as u32,
                start,
                searched,
                block_op("read", read.joules),
            );
            pim_trace::record_span(
                pid,
                lut as u32,
                searched,
                fetched,
                block_op("read", read.joules),
            );
            pim_trace::record_span(pid, TID_INTERCONNECT, xfer_start, xfer_finish, xfer.payload());
            pim_trace::record_span(
                pid,
                holder as u32,
                xfer_finish,
                finish,
                block_op("write", write.joules),
            );
        }
    }

    /// An off-chip DMA: it serializes on the off-chip lane and occupies
    /// its block, clamped to the stage barrier like every other
    /// instruction (`link_transfer` clamps the same way).
    fn time_dma(&mut self, block: usize, cost: &Cost, pid: Option<u32>) {
        let start = self.block_start(block).max(self.offchip_ready).max(self.barrier);
        let finish = start + cost.seconds;
        self.offchip_ready = finish;
        self.charge(cost);
        self.finish_block_offchip(block, start, finish);
        if let Some(pid) = pid {
            pim_trace::record_span(pid, TID_OFFCHIP, start, finish, cost.payload());
        }
    }

    /// Charges one endpoint of an inter-chip halo message to this chip:
    /// the transfer serializes on the off-chip port (shared with HBM2
    /// DMAs), its energy lands in `ledger.offchip`, and the span is
    /// traced on the off-chip lane. Like a DMA, the transfer rides the
    /// off-chip lane without advancing [`Self::elapsed`] — compute keeps
    /// running until [`Self::fence_offchip`] (or a dependent block op)
    /// joins the lanes. Returns the seconds this chip spent on the
    /// message.
    ///
    /// The transfer cannot start before `available_at` — the
    /// sender-side causality floor the pipelined cluster protocol puts
    /// under receive-side charges, so a chip running ahead of its
    /// neighbor cannot take delivery of a payload before that neighbor
    /// even entered the stage that produces it (0.0 = no floor). `flow`
    /// is the cluster-unique id both endpoints of one halo message share
    /// in the trace (0 = untagged) and `inbound` marks the receive side;
    /// neither tag changes timing, energy or metrics.
    pub fn link_transfer(
        &mut self,
        link: &crate::link::InterChipLink,
        bytes: u64,
        available_at: f64,
        flow: u64,
        inbound: bool,
    ) -> f64 {
        let dur = link.duration(bytes);
        let start = self.offchip_ready.max(self.barrier).max(available_at);
        let finish = start + dur;
        self.offchip_ready = finish;
        let joules = link.energy(bytes);
        self.ledger.offchip += joules;
        self.trace(
            TID_OFFCHIP,
            start,
            finish,
            Payload::Link { bytes, energy_j: joules, flow, inbound },
        );
        if let Some(metrics) = &self.metrics {
            metrics.energy[4].add(joules); // "offchip"
            metrics.link_bytes.add(bytes);
            metrics.link_messages.inc();
            metrics.link_busy_seconds.add(dur);
            metrics.offchip_busy_seconds.add(dur);
        }
        dur
    }

    /// Advances the chip barrier so subsequent work (including
    /// [`Self::link_transfer`]) starts no earlier than `at`. The cluster
    /// runtime uses this to align all chips on a stage boundary before a
    /// halo exchange.
    pub fn advance_barrier(&mut self, at: f64) {
        if let Some(metrics) = &self.metrics {
            // How long this chip's compute lane waits at the cluster stage
            // barrier for the stragglers (0 if this chip is the straggler).
            let stall = (at - self.elapsed).max(0.0);
            if stall > 0.0 {
                metrics.barrier_stall_seconds.add(stall);
            }
        }
        self.barrier = self.barrier.max(at);
    }

    /// Charges host preprocessing work (sqrt/inverse for the LUTs). The
    /// span is anchored at the current host-lane time, so a mid-run call
    /// queues after the host work already booked instead of double-booking
    /// t = 0 and overlapping prior spans.
    pub fn charge_host_preprocess(&mut self, sqrts: u64, divs: u64) {
        let (seconds, joules) = host::preprocess(sqrts, divs);
        self.ledger.host += joules;
        if let Some(metrics) = &self.metrics {
            metrics.energy[5].add(joules); // "host"
        }
        let t0 = self.host_ready;
        let t1 = t0 + seconds;
        self.host_ready = t1;
        self.elapsed = self.elapsed.max(t1);
        self.trace(
            TID_HOST,
            t0,
            t1,
            Payload::HostCall { call: "preprocess", count: sqrts + divs, energy_j: joules },
        );
    }

    /// Charges a host-lane window that *gates* subsequent chip work: the
    /// per-stage sqrt/inverse preprocess plus the constants-refresh DMA
    /// when transcendental math is host-placed. The span anchors at
    /// `max(at, host-lane time)` — `at` being the stage barrier the
    /// caller aligned on — and the returned `(t0, t1)` lets the caller
    /// [`Self::advance_barrier`] to `t1` so the stage kernels wait for
    /// the refreshed constants (the synchronous "CPU Host: sqrt /
    /// inverse" lane of Fig. 13). Unlike
    /// [`Self::charge_host_preprocess`], the caller prices the window
    /// (it knows the refresh traffic); `ops` is the call count for the
    /// trace payload.
    pub fn charge_host_math(&mut self, at: f64, seconds: f64, joules: f64, ops: u64) -> (f64, f64) {
        self.ledger.host += joules;
        if let Some(metrics) = &self.metrics {
            metrics.energy[5].add(joules); // "host"
        }
        let t0 = self.host_ready.max(at);
        let t1 = t0 + seconds;
        self.host_ready = t1;
        self.elapsed = self.elapsed.max(t1);
        self.trace(
            TID_HOST,
            t0,
            t1,
            Payload::HostCall { call: "math", count: ops, energy_j: joules },
        );
        (t0, t1)
    }

    /// Finalizes the run: applies process-node scaling and charges static
    /// power for the (scaled) elapsed time. Off-chip work still in flight
    /// is fenced into the total implicitly — a run can never report less
    /// wall-clock than its own data movement.
    pub fn finish(&self) -> ExecReport {
        let seconds = self.elapsed.max(self.offchip_ready) / self.config.node.perf_scale();
        let mut ledger = self.ledger.scaled(1.0 / self.config.node.energy_scale());
        ledger.charge_static(self.config.capacity.static_power(self.config.interconnect), seconds);
        ExecReport { seconds, ledger }
    }
}

/// The timing pass's place in a tape's routes, and the held route: a
/// run of copies over one route holds every slot of it until the last
/// of them is done, so each one after the first starts from the
/// previous one's finish alone, and the slots are written once, when the
/// route changes, before a `Lut` (whose faulted form leaves them as they
/// were) or at the end of the tape. An empty route (a block's copy to
/// itself) holds nothing.
struct Routes<'t> {
    /// The routes not reached yet.
    rest: &'t [u32],
    /// The route of the last transfer.
    route: &'t [u32],
    /// The finish every slot of `route` owes, not yet written.
    held: Option<f64>,
}

impl<'t> Routes<'t> {
    /// Moves to the next route when `rerouted`, writing the held finish
    /// to the slots of the route left.
    #[inline]
    fn next(&mut self, rerouted: bool, ready: &mut [f64]) {
        if rerouted {
            self.flush(ready);
            let (len, rest) = self.rest.split_first().expect("the tape holds every route");
            (self.route, self.rest) = rest.split_at(*len as usize);
        }
    }

    /// Writes the held finish to the route's slots.
    #[inline]
    fn flush(&mut self, ready: &mut [f64]) {
        if let Some(at) = self.held.take() {
            for &slot in self.route {
                ready[slot as usize] = at;
            }
        }
    }
}

/// Blocks a group's body runs over at a time in the functional pass:
/// few enough that the chunk's row buffers and the tiles the body
/// touches stay in cache from one op to the next.
const GROUP_CHUNK: usize = 16;

/// Runs block-local op `op` of `tape` on each of `blocks`, dispatched
/// once for all of them; false, doing nothing, for any other op. An
/// `Arith`, or a one-word `Broadcast`, over one whole tile goes straight
/// to its 8-lane kernel.
#[inline(always)]
fn run_local<B: BorrowMut<MemBlock>>(blocks: &mut [B], op: &FOp, tape: &Tape) -> bool {
    let [c0, c1, c2] = op.c.map(usize::from);
    let [r0, r1] = op.r.map(usize::from);
    match (op.kind, whole_tile(r0, r1)) {
        (FKind::Arith(alu), Some(t)) => each(blocks, |b| b.arith_tile(alu, t, c0, c1, c2)),
        (FKind::Broadcast, Some(t)) if c1 == 1 => each(blocks, |b| b.broadcast_tile(t, c0)),
        (FKind::Read, _) => each(blocks, |b| b.read_cells(r0, c0, c1)),
        (FKind::Write, _) => each(blocks, |b| b.write_cells(r0, c0, c1)),
        (FKind::Move, _) => each(blocks, |b| {
            b.read_cells(r0, c0, c2);
            b.write_cells(r1, c1, c2);
        }),
        (FKind::Gather, _) => {
            let rows = tape.table(op.wide());
            each(blocks, |b| b.gather_cells(rows, c0, c1, c2))
        }
        (FKind::Broadcast, _) => each(blocks, |b| b.broadcast_cells(r0, r1, c0, c1)),
        (FKind::Arith(alu), _) => each(blocks, |b| b.arith_cells(alu, r0, r1, c0, c1, c2)),
        (FKind::Block | FKind::Copy | FKind::Lut | FKind::Fetch | FKind::Repeat, _) => {
            return false
        }
    }
    true
}

/// `f` on each of `blocks`, in order.
#[inline(always)]
fn each<B: BorrowMut<MemBlock>>(blocks: &mut [B], f: impl FnMut(&mut MemBlock)) {
    blocks.iter_mut().map(BorrowMut::borrow_mut).for_each(f);
}

/// The bounds lowering checks on a chip of `.0` blocks.
struct Bounds(u64);

impl Bounds {
    #[inline]
    fn block(&self, block: u32) -> Result<(), Violation> {
        if block as u64 >= self.0 {
            return Err(Violation::Block { block, num_blocks: self.0 });
        }
        Ok(())
    }

    #[inline]
    fn rows(&self, first: u16, last: u16) -> Result<(), Violation> {
        if first > last || last as usize >= BLOCK_ROWS {
            return Err(Violation::Rows { first: first as u32, last: last as u32 });
        }
        Ok(())
    }

    #[inline]
    fn cols(&self, offset: u8, words: u8) -> Result<(), Violation> {
        if offset as usize + words as usize > WORDS_PER_ROW {
            return Err(Violation::Columns { offset: offset as u32, words: words as u32 });
        }
        Ok(())
    }
}

/// A lowering in progress: [`PimChip::lowering`] starts one, the
/// consecutive parts of one stream go through [`Self::push`] (as they
/// stand) and [`Self::repeat`] (one run over a block set), and
/// [`Self::finish`] returns the tape [`PimChip::lower`] makes of their
/// concatenation.
pub struct Lowering<'a> {
    chip: &'a PimChip,
    tape: TapeBuilder,
    path: Vec<Resource>,
    slots: Vec<u32>,
    /// The block pair `path` and `slots` route: Flux moves several words
    /// over one pair in a row.
    routed: Option<(BlockId, BlockId)>,
    /// The entries the run of the current [`Self::repeat`] lowered to on
    /// a run of its own: its functional ops and run ids.
    fops: Vec<FOp>,
    ids: Vec<u16>,
}

impl Lowering<'_> {
    /// Lowers the next part of the stream, instruction by instruction.
    ///
    /// # Errors
    /// The first instruction that breaks a bound, indexed from the start
    /// of the whole stream. The lowering is of no further use then.
    ///
    /// A ghost fetch — `Read` on one block, `Copy` of its words to
    /// another, `Write` of as many words there, every bound in range —
    /// joins the fetch run right before it, or opens one
    /// ([`crate::tape`]); a run goes on across parts. A triple split
    /// between two parts lowers one instruction at a time, which replays
    /// the same.
    pub fn push(&mut self, part: &InstrStream) -> Result<(), LowerError> {
        let first = self.tape.add_part(part.len(), part.stats());
        let instrs = part.instrs();
        let mut i = 0;
        while let Some(instr) = instrs.get(i) {
            i += match instr {
                Instr::Read { .. } if self.fetch(&instrs[i..]) => 3,
                _ => {
                    self.lower(first + i, instr)?;
                    1
                }
            };
        }
        Ok(())
    }

    /// Lowers the ghost fetch `instrs` opens with, if it opens with one.
    fn fetch(&mut self, instrs: &[Instr]) -> bool {
        let [Instr::Read { block: src, row: from, offset: at, words }, copy, write, ..] = *instrs
        else {
            return false;
        };
        let Instr::Write { block: dst, row: to, offset: into, words: written } = write else {
            return false;
        };
        let bounds = Bounds(self.chip.config.capacity.num_blocks());
        let fused = src != dst
            && copy == (Instr::Copy { src, dst, words: words as u16 })
            && written == words
            && bounds
                .block(src.0)
                .and(bounds.block(dst.0))
                .and(bounds.rows(from, from))
                .and(bounds.rows(to, to))
                .and(bounds.cols(at, words))
                .and(bounds.cols(into, words))
                .is_ok();
        if fused {
            let cost = self.route(src, dst, words as u16);
            let (blocks, cols) = ((src.0, dst.0), [at, into, words]);
            self.tape.fetch(blocks, [from, to], cols, &self.slots, cost);
        }
        fused
    }

    /// Routes `src → dst` into `slots` (kept while the pair repeats) and
    /// prices a transfer of `words` words over it.
    fn route(&mut self, src: BlockId, dst: BlockId, words: u16) -> (f64, f64) {
        let chip = self.chip;
        if self.routed != Some((src, dst)) {
            chip.route_into(src, dst, &mut self.path);
            self.slots.clear();
            self.slots.extend(self.path.iter().map(|r| chip.resource_index(r) as u32));
            self.routed = Some((src, dst));
        }
        chip.transfer_cost(&Transfer { src, dst, words: words as u32 }, self.path.len())
    }

    /// Lowers the run of block-local instructions `run` on each block of
    /// `blocks` in turn: the tape is the one [`Self::push`] makes of the
    /// run moved to each block ([`Instr::on_block`]), one copy after the
    /// other, and so are its length and [`StreamStats`]. The run is
    /// lowered once. Each further block that opens a run of its own
    /// reuses its entries, so it joins the run's template group as the
    /// expanded stream's run would.
    ///
    /// # Errors
    /// The first instruction of that expansion that breaks a bound — a
    /// block of `blocks` past the chip's, say — or is not block-local
    /// ([`Violation::NotBlockLocal`]), indexed from the start of the whole
    /// stream. The lowering is of no further use then.
    pub fn repeat(&mut self, run: &InstrStream, blocks: &[BlockId]) -> Result<(), LowerError> {
        let first =
            self.tape.add_part(run.len() * blocks.len(), &run.stats().scaled(blocks.len() as u64));
        let bounds = Bounds(self.chip.config.capacity.num_blocks());
        // Whether the run is lowered, and whether the run before this
        // block's holds its entries.
        let (mut lowered, mut follows) = (false, false);
        for (k, &block) in blocks.iter().enumerate() {
            let at = first + k * run.len();
            let fresh = self.tape.open_run() != Some(block.0);
            if lowered && fresh {
                bounds.block(block.0).map_err(|violation| LowerError {
                    index: at,
                    instr: run.instrs()[0].on_block(block).unwrap_or(run.instrs()[0]),
                    violation,
                })?;
                // A run the next block does not extend closes at once.
                if follows && blocks.get(k + 1).is_some_and(|&next| next != block) {
                    self.tape.repeat_closed(block.0, &self.fops, &self.ids);
                } else {
                    self.tape.repeat_run(block.0, &self.fops, &self.ids);
                }
                follows = true;
                continue;
            }
            for (j, &instr) in run.instrs().iter().enumerate() {
                let moved = instr.on_block(block).ok_or(LowerError {
                    index: at + j,
                    instr,
                    violation: Violation::NotBlockLocal,
                })?;
                self.lower(at + j, &moved)?;
            }
            follows = fresh && !run.is_empty();
            if follows && !lowered {
                self.tape.copy_open_run((&mut self.fops, &mut self.ids));
                lowered = true;
            }
        }
        Ok(())
    }

    /// Checks and lowers instruction `index` of the stream.
    fn lower(&mut self, index: usize, instr: &Instr) -> Result<(), LowerError> {
        let bounds = Bounds(self.chip.config.capacity.num_blocks());
        let at = |violation| LowerError { index, instr: *instr, violation };
        match *instr {
            Instr::Read { block, row, offset, words } => {
                bounds
                    .block(block.0)
                    .and(bounds.rows(row, row))
                    .and(bounds.cols(offset, words))
                    .map_err(at)?;
                self.tape.read(block.0, row, offset, words)
            }
            Instr::Write { block, row, offset, words } => {
                bounds
                    .block(block.0)
                    .and(bounds.rows(row, row))
                    .and(bounds.cols(offset, words))
                    .map_err(at)?;
                self.tape.write(block.0, row, offset, words)
            }
            Instr::Broadcast { block, dst_first, dst_last, offset, words } => {
                bounds
                    .block(block.0)
                    .and(bounds.rows(dst_first, dst_last))
                    .and(bounds.cols(offset, words))
                    .map_err(at)?;
                self.tape.broadcast(block.0, dst_first, dst_last, offset, words)
            }
            Instr::Arith { block, op, first_row, last_row, dst, a, b } => {
                bounds
                    .block(block.0)
                    .and(bounds.rows(first_row, last_row))
                    .and(bounds.cols(dst.max(a).max(b), 1))
                    .map_err(at)?;
                self.tape.arith(block.0, op, (first_row, last_row), [dst, a, b])
            }
            Instr::Copy { src, dst, words } => {
                bounds.block(src.0).and(bounds.block(dst.0)).map_err(at)?;
                let cost = self.route(src, dst, words);
                self.tape.copy((src.0, dst.0, words), &self.slots, cost);
            }
            Instr::Lut { row, offset_s, lut_block, offset_d } => {
                // Algorithm 1's content transfer runs LUT → holder.
                let holder = row / BLOCK_ROWS as u32;
                bounds
                    .block(holder)
                    .and(bounds.block(lut_block))
                    .and(bounds.cols(offset_s.max(offset_d), 1))
                    .map_err(at)?;
                let cost = self.route(BlockId(lut_block), BlockId(holder), 1);
                self.tape.lut(*instr, (holder, lut_block), &self.slots, cost);
            }
            Instr::LoadOffchip { block, bytes } | Instr::StoreOffchip { block, bytes } => {
                bounds.block(block.0).map_err(at)?;
                self.tape.dma(block.0, bytes)
            }
            Instr::Sync => self.tape.sync(),
        }
        Ok(())
    }

    /// The finished tape.
    pub fn finish(self) -> Tape {
        self.tape.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params;
    use pim_isa::AluOp;

    fn chip() -> PimChip {
        PimChip::new(ChipConfig::default_2gb())
    }

    /// Serializes the tests that enable + drain the global trace registry
    /// (drain collects every thread's ring, so two concurrent drainers
    /// would steal each other's spans).
    fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn arith(block: u32, op: AluOp, rows: u16) -> Instr {
        Instr::Arith {
            block: BlockId(block),
            op,
            first_row: 0,
            last_row: rows - 1,
            dst: 2,
            a: 0,
            b: 1,
        }
    }

    #[test]
    fn arith_on_distinct_blocks_overlaps() {
        let mut c = chip();
        let mut s = InstrStream::new();
        s.push(arith(0, AluOp::Mul, 512));
        s.push(arith(1, AluOp::Mul, 512));
        c.execute(&s);
        let overlapped = c.elapsed();

        let mut c2 = chip();
        let mut s2 = InstrStream::new();
        s2.push(arith(0, AluOp::Mul, 512));
        s2.push(arith(0, AluOp::Mul, 512));
        c2.execute(&s2);
        let serialized = c2.elapsed();
        assert!(
            overlapped < serialized * 0.6,
            "distinct blocks must overlap: {overlapped} vs {serialized}"
        );
    }

    #[test]
    fn fused_block_runs_are_bit_identical_to_the_one_at_a_time_path() {
        // A tape runs same-block ops as one run, fuses a same-block
        // Read→Write into one Move, a run of same-column Moves into one
        // gather and consecutive Read→Copy→Write ghost fetches between
        // two blocks into one fetch run, and holds a repeated route's
        // slots; every observable — cell contents, row buffers, tile
        // footprints, ledger joules, busy/ready clocks, resource clocks,
        // elapsed — must come out bit-identical to running each
        // instruction as a stream of its own.
        let read =
            |block, row, offset, words| Instr::Read { block: BlockId(block), row, offset, words };
        let write =
            |block, row, offset, words| Instr::Write { block: BlockId(block), row, offset, words };
        let copy = |src, dst, words| Instr::Copy { src: BlockId(src), dst: BlockId(dst), words };
        // A ghost fetch: `cols` are the source column, the destination
        // column and the words.
        let fetch = |(src, from): (u32, u16), (dst, to): (u32, u16), [at, into, words]: [u8; 3]| {
            [read(src, from, at, words), copy(src, dst, words as u16), write(dst, to, into, words)]
        };
        let mut instrs = vec![
            read(0, 3, 0, 4),
            write(0, 9, 20, 4),
            Instr::Broadcast {
                block: BlockId(0),
                dst_first: 0,
                dst_last: 511,
                offset: 28,
                words: 2,
            },
            arith(0, AluOp::Mul, 512),
            arith(0, AluOp::Mac, 512),
            Instr::Write { block: BlockId(0), row: 700, offset: 5, words: 3 },
            arith(1, AluOp::Add, 16), // splits the run: different block
            arith(1, AluOp::Neg, 16),
            arith(0, AluOp::Sub, 100),
            // An aliasing gather: each row written is read by the next pair.
            read(0, 1, 0, 1),
            write(0, 2, 0, 1),
            read(0, 2, 0, 1),
            write(0, 5, 0, 1),
            read(0, 5, 0, 1),
            write(0, 1, 0, 1),
            // A gather over a tile no one wrote, then a two-word one.
            read(0, 600, 2, 1),
            write(0, 610, 3, 1),
            read(0, 601, 2, 1),
            write(0, 4, 3, 1),
            read(0, 6, 0, 2),
            write(0, 7, 9, 2),
            read(0, 8, 0, 2),
            write(0, 6, 9, 2),
            // A fetch run of two over one cross-tile route.
            read(300, 0, 0, 3),
            copy(300, 0, 3),
            write(0, 12, 5, 3),
            read(300, 1, 0, 3),
            copy(300, 0, 3),
            write(0, 13, 5, 3),
        ];
        // A run of five, one row read from and one written to a tile no
        // one wrote; then a run from its destination, broken by new
        // columns; one broken by a block-local op; one by a valid Lut on
        // its destination.
        for (from, to) in [(2, 16), (600, 17), (3, 700), (4, 18), (5, 19)] {
            instrs.extend(fetch((300, from), (1, to), [0, 6, 3]));
        }
        instrs.extend(fetch((1, 17), (2, 20), [6, 2, 2]));
        instrs.extend(fetch((1, 700), (2, 21), [6, 2, 2]));
        instrs.extend(fetch((1, 18), (2, 22), [6, 4, 2]));
        instrs.extend(fetch((2, 20), (0, 23), [2, 7, 1]));
        instrs.push(arith(0, AluOp::Add, 8));
        instrs.extend(fetch((2, 21), (0, 24), [2, 7, 1]));
        instrs.extend(fetch((3, 0), (1, 25), [2, 8, 1]));
        instrs.push(Instr::Lut {
            row: BLOCK_ROWS as u32 + 101,
            offset_s: 4,
            lut_block: 2,
            offset_d: 13,
        });
        instrs.extend(fetch((3, 1), (1, 26), [2, 8, 1]));
        instrs.extend([
            // A near-triple: the copy moves a word more than is read.
            read(1, 0, 0, 2),
            copy(1, 0, 3),
            write(0, 14, 0, 2),
            // Copies of a block to itself: empty routes, held by nothing.
            copy(1, 1, 2),
            copy(2, 2, 2),
            // Two copies over one route around a faulted Lut on it.
            copy(2, 0, 1),
            Instr::Lut { row: 100, offset_s: 4, lut_block: 2, offset_d: 11 },
            copy(2, 0, 1),
            // Copies and a Lut that share a route (on the bus) but no
            // block.
            copy(3, 0, 1),
            Instr::Lut { row: BLOCK_ROWS as u32 + 101, offset_s: 4, lut_block: 2, offset_d: 12 },
            copy(3, 0, 1),
            // An aliasing gather whose row buffer nothing overwrites.
            read(2, 1, 1, 1),
            write(2, 2, 1, 1),
            read(2, 2, 1, 1),
            write(2, 5, 1, 1),
            read(2, 5, 1, 1),
            write(2, 1, 1, 1),
        ]);
        let blocks = [0u32, 1, 2, 3, 300];
        let preload = |c: &mut PimChip| {
            for row in 0..512 {
                c.block_mut(BlockId(0)).set(row, 0, row as f64 * 0.25 - 17.0);
                c.block_mut(BlockId(0)).set(row, 1, 1.0 / (row as f64 + 1.0));
            }
            // The first Lut's index word is past the table: it faults.
            // The second's names entry 9.
            c.block_mut(BlockId(0)).set(100, 4, 40000.0);
            c.block_mut(BlockId(1)).set(101, 4, 9.0);
            c.block_mut(BlockId(2)).set(0, 9, 3.0);
            for (i, &b) in blocks[1..].iter().enumerate() {
                for row in 0..8 {
                    c.block_mut(BlockId(b)).set(row, i, row as f64 + 0.5 * b as f64);
                }
            }
        };
        for interconnect in [InterconnectKind::HTree, InterconnectKind::Bus] {
            let config =
                ChipConfig { capacity: ChipCapacity::Gb2, interconnect, node: ProcessNode::Nm28 };
            check_fused_against_single(&instrs, &blocks, config, &preload);
        }
    }

    /// Lowers `instrs` as one stream and replays it, runs each as a
    /// stream of its own on a second chip, and compares what the two
    /// leave behind bit for bit.
    fn check_fused_against_single(
        instrs: &[Instr],
        blocks: &[u32],
        config: ChipConfig,
        preload: &dyn Fn(&mut PimChip),
    ) {
        let mut fused = PimChip::new(config);
        preload(&mut fused);
        let mut s = InstrStream::new();
        for i in instrs {
            s.push(*i);
        }
        let tape = fused.lower(&s).unwrap();
        let count = |kind| tape.fops.iter().filter(|op| op.kind == kind).count();
        assert_eq!(count(FKind::Move), 1, "the lone Read→Write pair fuses");
        assert_eq!(count(FKind::Gather), 4, "each run of same-column Moves is one gather");
        assert_eq!(count(FKind::Fetch), 8, "each unbroken run of ghost fetches is one fetch run");
        let fetched: u32 = tape
            .steps
            .iter()
            .map(|step| match step {
                Step::Fetch { count, .. } => *count as u32,
                _ => 0,
            })
            .sum();
        assert_eq!(fetched, 14, "the fetch runs time every ghost fetch");
        assert_eq!(count(FKind::Copy), 7, "the near-triple and the bare copies stay copies");
        fused.replay(&tape);

        let mut single = PimChip::new(config);
        preload(&mut single);
        for i in instrs {
            let mut one = InstrStream::new();
            one.push(*i);
            single.execute(&one);
        }

        // Host dispatch is charged per stream, so only its energy differs.
        assert_eq!(fused.elapsed.to_bits(), single.elapsed.to_bits(), "elapsed");
        for (name, f, s) in [
            ("compute", fused.ledger.compute, single.ledger.compute),
            ("reads", fused.ledger.reads, single.ledger.reads),
            ("writes", fused.ledger.writes, single.ledger.writes),
            ("interconnect", fused.ledger.interconnect, single.ledger.interconnect),
        ] {
            assert_eq!(f.to_bits(), s.to_bits(), "ledger.{name}");
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused.resource_ready), bits(&single.resource_ready), "resource clocks");
        assert_eq!(fused.diagnostics().len(), 1, "the first Lut faults");
        assert_eq!(fused.diagnostics(), single.diagnostics());
        for &id in blocks {
            let i = id as usize;
            assert_eq!(fused.block_ready[i].to_bits(), single.block_ready[i].to_bits());
            assert_eq!(fused.block_busy[i].to_bits(), single.block_busy[i].to_bits());
            let (f, s) = (fused.block(BlockId(id)).clone(), single.block(BlockId(id)).clone());
            assert_eq!(f.resident_tiles(), s.resident_tiles(), "block {id} tiles");
            for row in 0..BLOCK_ROWS {
                for col in 0..WORDS_PER_ROW {
                    let (f, s) = (f.get(row, col), s.get(row, col));
                    assert_eq!(f.to_bits(), s.to_bits(), "block {id} ({row},{col})");
                }
            }
            let (f, s) = (f.row_buffer(), s.row_buffer());
            assert_eq!(f.map(f64::to_bits), s.map(f64::to_bits), "block {id} row buffer");
        }
        assert_eq!(fused.touched_blocks, single.touched_blocks);
    }

    #[test]
    fn a_fetch_run_holds_at_most_u16_max_fetches() {
        // 65,537 fetches between one pair of blocks: a full run, then a
        // run of two over the route it holds.
        let mut s = InstrStream::new();
        for k in 0..u16::MAX as usize + 2 {
            let row = (k % BLOCK_ROWS) as u16;
            s.push(Instr::Read { block: BlockId(1), row, offset: 0, words: 1 });
            s.push(Instr::Copy { src: BlockId(1), dst: BlockId(0), words: 1 });
            s.push(Instr::Write { block: BlockId(0), row, offset: 1, words: 1 });
        }
        let tape = chip().lower(&s).unwrap();
        let runs: Vec<(u16, bool)> = tape
            .steps
            .iter()
            .filter_map(|step| match *step {
                Step::Fetch { count, rerouted, .. } => Some((count, rerouted)),
                _ => None,
            })
            .collect();
        assert_eq!(runs, [(u16::MAX, true), (2, false)]);
    }

    #[test]
    fn malformed_streams_are_rejected_before_they_run() {
        let mut c = chip();
        c.block_mut(BlockId(0)).set(3, 0, 1.5);
        let mut s = InstrStream::new();
        s.push(Instr::Read { block: BlockId(0), row: 3, offset: 0, words: 1 });
        s.push(Instr::Write { block: BlockId(1), row: 7, offset: 0, words: 1 });
        s.push(arith(0, AluOp::Add, 512)); // fine so far...
        let mut bad = s.clone();
        bad.push(Instr::Read { block: BlockId(0), row: 1024, offset: 0, words: 1 });
        // ...the third instruction here is out of range:
        let mut third = InstrStream::new();
        for i in [s.instrs()[0], s.instrs()[1], bad.instrs()[3], s.instrs()[2]] {
            third.push(i);
        }
        let err = c.lower(&third).unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(err.violation, Violation::Rows { first: 1024, last: 1024 });
        assert!(err.to_string().contains("instruction 2"), "{err}");

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.execute(&third)));
        let message = outcome.expect_err("execute must reject the stream");
        let message = message.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.contains("instruction 2"), "{message}");
        // Nothing ran: not the two valid instructions ahead of the bad one.
        assert_eq!(c.ledger().dynamic(), 0.0);
        assert_eq!(c.elapsed(), 0.0);
        assert_eq!(c.total_block_busy_seconds(), 0.0);
        assert_eq!(c.block(BlockId(0)).row_buffer()[0], 0.0);
        assert_eq!(c.block(BlockId(1)).get(7, 0), 0.0);
        assert_eq!(c.block(BlockId(0)).get(3, 0), 1.5);
    }

    #[test]
    fn lowering_names_every_violated_bound() {
        let c = PimChip::new(ChipConfig {
            capacity: ChipCapacity::Mb512,
            interconnect: InterconnectKind::HTree,
            node: ProcessNode::Nm28,
        });
        let num_blocks = ChipCapacity::Mb512.num_blocks();
        let past = num_blocks as u32;
        let cases = [
            (
                Instr::Copy { src: BlockId(0), dst: BlockId(past), words: 1 },
                Violation::Block { block: past, num_blocks },
            ),
            (
                Instr::Lut {
                    row: past * BLOCK_ROWS as u32,
                    offset_s: 0,
                    lut_block: 1,
                    offset_d: 1,
                },
                Violation::Block { block: past, num_blocks },
            ),
            (
                Instr::Broadcast {
                    block: BlockId(0),
                    dst_first: 9,
                    dst_last: 4,
                    offset: 0,
                    words: 1,
                },
                Violation::Rows { first: 9, last: 4 },
            ),
            (
                Instr::Read { block: BlockId(0), row: 0, offset: 31, words: 2 },
                Violation::Columns { offset: 31, words: 2 },
            ),
            (
                Instr::Write { block: BlockId(0), row: 0, offset: 31, words: 2 },
                Violation::Columns { offset: 31, words: 2 },
            ),
            (
                Instr::Arith {
                    block: BlockId(0),
                    op: AluOp::Add,
                    first_row: 5,
                    last_row: 4,
                    dst: 0,
                    a: 1,
                    b: 2,
                },
                Violation::Rows { first: 5, last: 4 },
            ),
            (
                Instr::Arith {
                    block: BlockId(0),
                    op: AluOp::Add,
                    first_row: 0,
                    last_row: 0,
                    dst: 0,
                    a: 32,
                    b: 1,
                },
                Violation::Columns { offset: 32, words: 1 },
            ),
            (
                Instr::LoadOffchip { block: BlockId(past), bytes: 64 },
                Violation::Block { block: past, num_blocks },
            ),
        ];
        for (instr, violation) in cases {
            let mut s = InstrStream::new();
            s.push(Instr::Sync);
            s.push(instr);
            assert_eq!(c.lower(&s), Err(LowerError { index: 1, instr, violation }));
        }
    }

    #[test]
    fn sync_is_a_barrier() {
        let mut c = chip();
        let mut s = InstrStream::new();
        s.push(arith(0, AluOp::Mul, 1));
        s.push(Instr::Sync);
        s.push(arith(1, AluOp::Add, 1));
        c.execute(&s);
        let with_sync = c.elapsed();
        let mul = params::nor_seconds(params::FP32_MUL_CYCLES);
        let add = params::nor_seconds(params::FP32_ADD_CYCLES);
        assert!((with_sync - (mul + add)).abs() < 1e-12);
    }

    #[test]
    fn functional_read_copy_write_moves_data_between_blocks() {
        let mut c = chip();
        c.block_mut(BlockId(0)).set(7, 3, 42.5);
        let mut s = InstrStream::new();
        s.push(Instr::Read { block: BlockId(0), row: 7, offset: 3, words: 1 });
        s.push(Instr::Copy { src: BlockId(0), dst: BlockId(5), words: 1 });
        s.push(Instr::Write { block: BlockId(5), row: 9, offset: 0, words: 1 });
        c.execute(&s);
        assert_eq!(c.block(BlockId(5)).get(9, 0), 42.5);
        assert!(c.finish().ledger.interconnect > 0.0);
    }

    #[test]
    fn lut_instruction_executes_algorithm_1() {
        let mut c = chip();
        // LUT block 2 holds sqrt values; index 9 → 3.0.
        c.block_mut(BlockId(2)).set(0, 9, 3.0);
        // Row 100 of block 0 holds the index 9 at column 4.
        c.block_mut(BlockId(0)).set(100, 4, 9.0);
        let mut s = InstrStream::new();
        s.push(Instr::Lut { row: 100, offset_s: 4, lut_block: 2, offset_d: 11 });
        c.execute(&s);
        assert_eq!(c.block(BlockId(0)).get(100, 11), 3.0);
    }

    #[test]
    fn out_of_range_lut_index_surfaces_as_a_diagnostic_not_a_crash() {
        let mut c = chip();
        // The index word holds 40000.0 — past the 32K entries one block
        // serves. The instruction must skip (destination untouched) and
        // leave a diagnostic instead of panicking.
        c.block_mut(BlockId(0)).set(100, 4, 40000.0);
        c.block_mut(BlockId(0)).set(100, 11, -1.0);
        let _guard = trace_test_lock();
        pim_trace::enable();
        let mut s = InstrStream::new();
        s.push(Instr::Lut { row: 100, offset_s: 4, lut_block: 2, offset_d: 11 });
        c.execute(&s);
        pim_trace::disable();
        assert_eq!(c.block(BlockId(0)).get(100, 11), -1.0, "write-back must be skipped");
        assert_eq!(
            c.diagnostics(),
            [Diagnostic::SkippedLut {
                row: 100,
                offset_s: 4,
                raw: 40000.0,
                error: LutError::IndexOutOfRange { index: 40000 },
            }]
        );
        assert!(c.diagnostics()[0].to_string().contains("exceeds one block"));
        let drained = c.take_diagnostics();
        assert_eq!(drained.len(), 1);
        assert!(c.diagnostics().is_empty());
        // The skip path's timeline matches the normal path's shape: both
        // reserved blocks are released at the failure point, so the LUT
        // block shows busy time too (the old interpreter folded its
        // ready-time into `start` and then never advanced it).
        assert!(c.block_utilization(BlockId(0)) > 0.0);
        assert!(c.block_utilization(BlockId(2)) > 0.0, "lut block timeline left untouched");
        // The index read that physically happened is traced even though
        // the instruction was skipped.
        let pid = c.trace_pid();
        let (events, _) = pim_trace::drain();
        assert!(
            events.iter().any(|e| e.pid == pid
                && e.tid == 0
                && matches!(e.payload, Payload::BlockOp { op: "read", .. })),
            "skip path must trace the index read"
        );
        // The index read that physically happened stays charged.
        assert!(c.finish().ledger.reads > 0.0);
    }

    #[test]
    fn negative_lut_index_is_a_diagnostic_not_an_entry_zero_fetch() {
        // Regression: `index.round() as usize` saturates a negative index
        // word to 0, so the old interpreter silently fetched LUT entry 0
        // instead of diagnosing the malformed program.
        let mut c = chip();
        c.block_mut(BlockId(2)).set(0, 0, 99.0); // entry 0 sentinel
        c.block_mut(BlockId(0)).set(100, 4, -3.0); // negative index word
        c.block_mut(BlockId(0)).set(100, 11, -1.0);
        let mut s = InstrStream::new();
        s.push(Instr::Lut { row: 100, offset_s: 4, lut_block: 2, offset_d: 11 });
        c.execute(&s);
        assert_eq!(c.block(BlockId(0)).get(100, 11), -1.0, "negative index must not fetch entry 0");
        assert_eq!(c.diagnostics().len(), 1);
        assert!(
            matches!(
                c.diagnostics()[0],
                Diagnostic::SkippedLut { raw: -3.0, error: LutError::InvalidIndexWord { .. }, .. }
            ),
            "{:?}",
            c.diagnostics()
        );
        assert_eq!(
            c.diagnostics()[0].to_string(),
            "skipped Lut at row 100 offset_s 4: LUT index word -3 is not a valid table index \
             (index word read as -3)"
        );
        // NaN index words take the same path.
        c.block_mut(BlockId(0)).set(100, 4, f64::NAN);
        c.execute(&s);
        assert_eq!(c.diagnostics().len(), 2);
        assert_eq!(c.block(BlockId(0)).get(100, 11), -1.0);
    }

    #[test]
    fn offchip_transfers_serialize_on_the_channel() {
        let mut c = chip();
        let mut s = InstrStream::new();
        s.push(Instr::LoadOffchip { block: BlockId(0), bytes: 1 << 20 });
        s.push(Instr::LoadOffchip { block: BlockId(1), bytes: 1 << 20 });
        c.execute(&s);
        let one = (1u64 << 20) as f64 / params::OFFCHIP_BANDWIDTH;
        // Dual-lane: the DMAs ride the off-chip lane and cost no compute
        // wall-clock until fenced.
        assert!(c.elapsed() < one, "unfenced DMAs must not advance elapsed");
        assert!((c.offchip_time() - 2.0 * one).abs() < 1e-12, "HBM2 channel must serialize");
        let two = c.fence_offchip();
        assert!((two - 2.0 * one).abs() < 1e-12, "fence joins the lane into elapsed");
        assert!(c.finish().ledger.offchip > 0.0);
    }

    #[test]
    fn link_transfers_serialize_on_the_offchip_port() {
        use crate::link::InterChipLink;
        let mut c = chip();
        let link = InterChipLink::default();
        let d1 = c.link_transfer(&link, 1 << 20, 0.0, 0, false);
        let d2 = c.link_transfer(&link, 1 << 20, 0.0, 0, false);
        assert!((d1 - d2).abs() < 1e-18);
        assert!((d1 - link.duration(1 << 20)).abs() < 1e-18);
        assert!((c.offchip_time() - 2.0 * d1).abs() < 1e-15, "link shares the off-chip channel");
        c.fence_offchip();
        assert!((c.elapsed() - 2.0 * d1).abs() < 1e-15);
        let expected = 2.0 * link.energy(1 << 20);
        assert!((c.finish().ledger.offchip - expected).abs() < 1e-15 * expected.max(1.0));
    }

    #[test]
    fn barrier_delays_link_transfers() {
        use crate::link::InterChipLink;
        let mut c = chip();
        c.advance_barrier(1.0e-3);
        let link = InterChipLink::default();
        c.link_transfer(&link, 1024, 0.0, 0, false);
        c.fence_offchip();
        assert!(c.elapsed() >= 1.0e-3 + link.duration(1024) - 1e-15);
    }

    #[test]
    fn dma_start_respects_the_stage_barrier() {
        // Regression: a ghost-load DMA issued after `advance_barrier`
        // must not start before the cluster stage barrier, exactly like
        // `link_transfer`.
        let mut c = chip();
        let barrier = 1.0e-3;
        c.advance_barrier(barrier);
        let mut s = InstrStream::new();
        s.push(Instr::LoadOffchip { block: BlockId(0), bytes: 1 << 20 });
        c.execute(&s);
        let dur = (1u64 << 20) as f64 / params::OFFCHIP_BANDWIDTH;
        assert!(
            c.offchip_time() >= barrier + dur - 1e-15,
            "DMA started before the barrier: lane frees at {} < {}",
            c.offchip_time(),
            barrier + dur
        );
    }

    #[test]
    fn offchip_lane_hides_behind_independent_compute() {
        // A DMA into block 0 and arithmetic on block 1 overlap: elapsed
        // covers only the compute until the fence.
        let mut c = chip();
        let mut s = InstrStream::new();
        s.push(Instr::LoadOffchip { block: BlockId(0), bytes: 1 << 24 });
        s.push(arith(1, AluOp::Mul, 512));
        c.execute(&s);
        let dma = (1u64 << 24) as f64 / params::OFFCHIP_BANDWIDTH;
        let mul = params::nor_seconds(params::FP32_MUL_CYCLES);
        assert!(dma > mul, "test premise: the DMA outlasts the compute");
        assert!((c.elapsed() - mul).abs() < 1e-15, "compute lane ignores the in-flight DMA");
        c.fence_offchip();
        assert!((c.elapsed() - dma).abs() < 1e-15, "fence exposes the DMA tail");
    }

    #[test]
    fn compute_on_the_dma_target_block_waits_for_the_data() {
        // The data dependency: arithmetic on the block a DMA fills must
        // start after the DMA finishes even without an explicit fence.
        let mut c = chip();
        let mut s = InstrStream::new();
        s.push(Instr::LoadOffchip { block: BlockId(0), bytes: 1 << 24 });
        s.push(arith(0, AluOp::Mul, 512));
        c.execute(&s);
        let dma = (1u64 << 24) as f64 / params::OFFCHIP_BANDWIDTH;
        let mul = params::nor_seconds(params::FP32_MUL_CYCLES);
        assert!((c.elapsed() - (dma + mul)).abs() < 1e-15, "dependent compute must serialize");
    }

    #[test]
    fn sync_never_lowers_an_advanced_barrier() {
        let mut c = chip();
        c.advance_barrier(1.0e-3);
        let mut s = InstrStream::new();
        s.push(Instr::Sync); // elapsed is still 0 here
        s.push(arith(0, AluOp::Mul, 1));
        c.execute(&s);
        let mul = params::nor_seconds(params::FP32_MUL_CYCLES);
        assert!(
            c.elapsed() >= 1.0e-3 + mul - 1e-15,
            "Sync reset the cluster barrier: {}",
            c.elapsed()
        );
    }

    #[test]
    fn mid_run_preprocess_anchors_on_the_host_lane() {
        let mut c = chip();
        let mut s = InstrStream::new();
        s.push(arith(0, AluOp::Mul, 512));
        c.execute(&s);

        let _guard = trace_test_lock();
        pim_trace::enable();
        c.charge_host_preprocess(100, 100);
        c.charge_host_preprocess(100, 100);
        pim_trace::disable();
        let (events, _) = pim_trace::drain();
        let pid = c.trace_pid();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| {
                e.pid == pid
                    && e.tid == TID_HOST
                    && matches!(e.payload, Payload::HostCall { call: "preprocess", .. })
            })
            .collect();
        assert_eq!(spans.len(), 2);
        let (per, _) = crate::host::preprocess(100, 100);
        // The first call queues after the dispatch work already booked;
        // the second queues after the first — no double-booked t = 0.
        let dispatch = crate::host::dispatch_time(1);
        assert!((spans[0].t0 - dispatch).abs() < 1e-18, "span 0 starts at {}", spans[0].t0);
        assert!((spans[0].t1 - (dispatch + per)).abs() < 1e-15);
        assert!(
            (spans[1].t0 - spans[0].t1).abs() < 1e-18,
            "mid-run preprocess must queue on the host lane, not restart at t=0"
        );
        assert!(c.elapsed() >= spans[1].t1 - 1e-15);
    }

    #[test]
    fn host_math_window_anchors_at_the_stage_barrier_and_gates_later_work() {
        let mut c = chip();
        // The window starts at the barrier even though the host lane is
        // idle before it.
        let (t0, t1) = c.charge_host_math(2.0e-3, 5.0e-4, 1.0e-6, 64);
        assert_eq!(t0, 2.0e-3);
        assert!((t1 - 2.5e-3).abs() < 1e-15);
        assert!(c.elapsed() >= t1);
        // Advancing the barrier to t1 makes subsequent block ops wait
        // for the refreshed constants.
        c.advance_barrier(t1);
        let mut s = InstrStream::new();
        s.push(arith(0, AluOp::Mul, 1));
        c.execute(&s);
        let mul = params::nor_seconds(params::FP32_MUL_CYCLES);
        assert!((c.elapsed() - (t1 + mul)).abs() < 1e-12);
        // A second window queues after the first on the host lane even
        // with an earlier anchor.
        let (u0, _) = c.charge_host_math(0.0, 1.0e-4, 0.0, 64);
        assert_eq!(u0, t1);
    }

    #[test]
    fn process_scaling_speeds_up_and_saves_energy() {
        let run = |node: ProcessNode| {
            let mut c = PimChip::new(ChipConfig {
                capacity: ChipCapacity::Gb2,
                interconnect: InterconnectKind::HTree,
                node,
            });
            let mut s = InstrStream::new();
            for _ in 0..10 {
                s.push(arith(0, AluOp::Mul, 512));
            }
            c.execute(&s);
            c.finish()
        };
        let r28 = run(ProcessNode::Nm28);
        let r12 = run(ProcessNode::Nm12);
        assert!((r28.seconds / r12.seconds - 3.81).abs() < 1e-9);
        assert!(r12.ledger.total() < r28.ledger.total());
    }

    #[test]
    fn bus_chip_burns_less_static_power_than_htree() {
        let run = |ic: InterconnectKind| {
            let mut c = PimChip::new(ChipConfig {
                capacity: ChipCapacity::Gb2,
                interconnect: ic,
                node: ProcessNode::Nm28,
            });
            let mut s = InstrStream::new();
            s.push(arith(0, AluOp::Mul, 512));
            c.execute(&s);
            c.finish()
        };
        let h = run(InterconnectKind::HTree);
        let b = run(InterconnectKind::Bus);
        assert!(b.ledger.static_energy < h.ledger.static_energy);
    }

    #[test]
    #[should_panic(expected = "exceeds the 512MB chip")]
    fn block_bounds_are_enforced() {
        let mut c = PimChip::new(ChipConfig {
            capacity: ChipCapacity::Mb512,
            interconnect: InterconnectKind::HTree,
            node: ProcessNode::Nm28,
        });
        let _ = c.block(BlockId(ChipCapacity::Mb512.num_blocks() as u32));
    }

    #[test]
    fn utilization_tracks_busy_blocks() {
        let mut c = chip();
        let mut s = InstrStream::new();
        // Block 0 works twice as long as block 1.
        s.push(arith(0, AluOp::Mul, 512));
        s.push(arith(0, AluOp::Mul, 512));
        s.push(arith(1, AluOp::Mul, 512));
        c.execute(&s);
        let u0 = c.block_utilization(BlockId(0));
        let u1 = c.block_utilization(BlockId(1));
        assert!((u0 - 1.0).abs() < 1e-9, "block 0 busy the whole time: {u0}");
        assert!((u1 - 0.5).abs() < 1e-9, "block 1 busy half the time: {u1}");
        assert_eq!(c.block_utilization(BlockId(99)), 0.0);
        let mean = c.mean_active_utilization();
        assert!((mean - 0.75).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn metrics_counters_mirror_the_ledger_exactly() {
        let registry = pim_metrics::MetricsRegistry::new();
        let mut c = chip();
        c.attach_metrics(&registry, "test-mirror");
        c.block_mut(BlockId(2)).set(0, 9, 3.0);
        c.block_mut(BlockId(0)).set(100, 4, 9.0);

        let mut s = InstrStream::new();
        s.push(arith(0, AluOp::Mul, 512));
        s.push(arith(1, AluOp::Add, 16));
        s.push(Instr::Read { block: BlockId(0), row: 7, offset: 3, words: 1 });
        s.push(Instr::Copy { src: BlockId(0), dst: BlockId(5), words: 1 });
        s.push(Instr::Write { block: BlockId(5), row: 9, offset: 0, words: 1 });
        s.push(Instr::Broadcast {
            block: BlockId(1),
            dst_first: 0,
            dst_last: 3,
            offset: 0,
            words: 1,
        });
        s.push(Instr::Lut { row: 100, offset_s: 4, lut_block: 2, offset_d: 11 });
        s.push(Instr::LoadOffchip { block: BlockId(3), bytes: 4096 });
        s.push(Instr::Sync);
        c.execute(&s);
        c.link_transfer(&crate::link::InterChipLink::default(), 2048, 0.0, 0, false);
        c.charge_host_preprocess(10, 10);
        let snap = registry.snapshot();

        // Energy counters mirror every ledger charge: per-mechanism and in
        // total (unscaled dynamic joules).
        let prefix = "pim_chip_energy_joules_total{chip=\"test-mirror\"";
        let metered: f64 = snap.float_total(prefix);
        let ledger = *c.ledger();
        let rel = (metered - ledger.dynamic()).abs() / ledger.dynamic();
        assert!(rel < 1e-12, "metrics {metered} vs ledger {} (rel {rel:.2e})", ledger.dynamic());
        for (mechanism, expected) in [
            ("compute", ledger.compute),
            ("reads", ledger.reads),
            ("writes", ledger.writes),
            ("interconnect", ledger.interconnect),
            ("offchip", ledger.offchip),
            ("host", ledger.host),
        ] {
            let key = format!(
                "pim_chip_energy_joules_total{{chip=\"test-mirror\",mechanism=\"{mechanism}\"}}"
            );
            let got = snap.float_counters.get(&key).copied().unwrap_or(0.0);
            assert!(
                (got - expected).abs() <= 1e-15 + 1e-12 * expected.abs(),
                "{mechanism}: metrics {got} vs ledger {expected}"
            );
        }

        // Opcode mix matches the stream stats; DMA bytes and link traffic
        // land in their counters.
        let op = |name: &str| {
            snap.counters
                .get(&format!("pim_chip_instrs_total{{chip=\"test-mirror\",op=\"{name}\"}}"))
                .copied()
                .unwrap_or(0)
        };
        assert_eq!(op("arith_mul"), 1);
        assert_eq!(op("arith_add"), 1);
        assert_eq!(op("read"), 1);
        assert_eq!(op("copy"), 1);
        assert_eq!(op("write"), 1);
        assert_eq!(op("broadcast"), 1);
        assert_eq!(op("lut"), 1);
        assert_eq!(op("load_offchip"), 1);
        assert_eq!(op("sync"), 1);
        assert_eq!(snap.counters["pim_chip_dma_bytes_total{chip=\"test-mirror\"}"], 4096);
        assert_eq!(snap.counters["pim_chip_link_bytes_total{chip=\"test-mirror\"}"], 2048);
        // 512 + 16 arith rows, 1 read, 1 write, 4 broadcast rows, 3 LUT.
        assert_eq!(
            snap.counters["pim_chip_row_activations_total{chip=\"test-mirror\"}"],
            512 + 16 + 1 + 1 + 4 + 3
        );
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        // A chip without a registry records nothing, even while a metered
        // chip runs the same stream into its own.
        let registry = pim_metrics::MetricsRegistry::new();
        let (mut metered, mut unmetered) = (chip(), chip());
        metered.attach_metrics(&registry, "metered");
        let mut s = InstrStream::new();
        s.push(arith(0, AluOp::Mul, 64));
        metered.execute(&s);
        unmetered.execute(&s);
        let snap = registry.snapshot();
        assert!(snap.float_total("pim_chip_energy_joules_total") > 0.0);
        let keys = snap.counters.keys().chain(snap.float_counters.keys());
        assert!(
            keys.clone().all(|k| k.contains("chip=\"metered\"")),
            "{:?}",
            keys.collect::<Vec<_>>()
        );
    }

    #[test]
    fn host_dispatch_bounds_elapsed_time() {
        // A stream of cheap syncs is dispatch-bound.
        let mut c = chip();
        let mut s = InstrStream::new();
        for _ in 0..1000 {
            s.push(Instr::Sync);
        }
        c.execute(&s);
        assert!(c.elapsed() >= crate::host::dispatch_time(1000));
    }

    #[test]
    fn fence_blocks_waits_only_for_the_named_blocks() {
        use crate::link::InterChipLink;
        let link = InterChipLink::default();
        // A ghost-landing DMA followed by a long outbound link charge:
        // the partial fence must join compute to the DMA'd block without
        // paying for the tail still draining on the lane.
        let build = || {
            let mut c = chip();
            let mut s = InstrStream::new();
            s.push(Instr::LoadOffchip { block: BlockId(3), bytes: 1 << 16 });
            c.execute(&s);
            c.link_transfer(&link, 1 << 22, 0.0, 0, false);
            c
        };
        let mut partial = build();
        let dma_done = partial.block_ready_time(BlockId(3));
        assert!(dma_done > 0.0);
        assert!(partial.offchip_time() > dma_done, "the link tail must extend past the DMA");
        assert_eq!(partial.blocks_ready_time(&[BlockId(3)]).to_bits(), dma_done.to_bits());
        assert_eq!(partial.blocks_ready_time(&[]), 0.0);

        let after_partial = partial.fence_blocks(&[BlockId(3)]);
        assert!(after_partial >= dma_done);
        assert!(
            after_partial < partial.offchip_time(),
            "a partial fence must not charge the outbound tail"
        );

        let mut full = build();
        let after_full = full.fence_offchip();
        assert!(after_partial <= after_full, "fence_blocks can never exceed fence_offchip");
    }

    #[test]
    fn link_transfer_from_floors_the_start_without_changing_the_cost() {
        use crate::link::InterChipLink;
        let link = InterChipLink::default();
        let mut plain = chip();
        let d = plain.link_transfer(&link, 4096, 0.0, 0, false);
        let mut zero_floor = chip();
        let d0 = zero_floor.link_transfer(&link, 4096, 0.0, 0, true);
        assert_eq!(d.to_bits(), d0.to_bits());
        assert_eq!(plain.offchip_time().to_bits(), zero_floor.offchip_time().to_bits());

        let mut floored = chip();
        let floor = 0.125;
        let df = floored.link_transfer(&link, 4096, floor, 0, true);
        assert_eq!(df.to_bits(), d.to_bits(), "the floor shifts the span, not its duration");
        assert!((floored.offchip_time() - (floor + d)).abs() < 1e-15);
        assert!(floored.elapsed() < floor, "a floored transfer must not advance compute");
    }
}

//! Functional multi-chip execution: N simulated PIM chips advance one
//! sharded problem under any element mapping (one-block acoustic by
//! default; the four-block mappings run the same way), with the halo
//! exchange **overlapped** with the Volume kernel.
//!
//! Each chip holds one [`wavesim_mesh::Shard`]: its resident elements
//! packed from slot 0, its ghost elements in the slots after them
//! ([`Mapping::install_shard_map`]), and the shared face-pair LUT block
//! after those. Every kernel program is compiled once at construction
//! and replayed each stage. Per LSRK stage every chip runs one stage
//! body
//!
//! > **entry → { Volume ∥ halo } → fence → Flux → Integration**
//!
//! 1. **entry**: the chip's stage opens at its entry clock (below); a
//!    host-placed math window, if any, gates the stage from there,
//! 2. **Volume ∥ halo**: Volume reads only each element's own columns, so
//!    it issues at stage entry on the chip's compute lane while the halo
//!    streams down the *off-chip* lane concurrently: the send-side
//!    snapshot (`StoreOffchip` per variable block of each boundary
//!    element), every [`HaloMessage`] of the plan on the inter-chip link
//!    (time and energy charged to *both* endpoint chips' ports, traced as
//!    off-chip events on each chip's own process row), and the
//!    ghost-landing DMAs (`LoadOffchip` per variable block of each ghost
//!    element). Neither lane waits for the other — `pim_sim::PimChip`'s
//!    dual-lane timeline keeps them independent until something depends
//!    on the data,
//! 3. **fence**: the compute lane joins the halo before Flux — the first
//!    kernel that reads ghost blocks. Only the halo time the Volume
//!    window could not hide (the *exposed* halo, tracked per chip in
//!    [`HaloStats::exposed_seconds`]) lengthens the stage,
//! 4. **Flux → Integration** run on the compute lane.
//!
//! The [`ClusterProtocol`] is consulted at exactly three points of that
//! body, and nothing else differs — same instruction streams, same
//! per-chip order, so the merged state is bit-identical either way:
//!
//! | decision | `Fenced` | `Pipelined` |
//! |---|---|---|
//! | stage entry | cluster-wide barrier: the max over chips of both lanes | the chip's own compute clock |
//! | outbound link charges | per message, interleaved with the inbound ones, ahead of the ghost landing | behind the ghost landing |
//! | pre-Flux fence | [`pim_sim::PimChip::fence_offchip`] (whole lane) | [`pim_sim::PimChip::fence_blocks`] (ghost blocks) |
//!
//! Inbound charges are floored at the *sender's* stage entry
//! ([`pim_sim::PimChip::link_transfer`]) under both — a no-op at
//! the fenced barrier. Under `Pipelined` that floor bounds the skew (a
//! chip's next stage cannot open before every in-neighbor opened this
//! one; asserted each stage), and it keeps the schedule **never slower,
//! per stage**: every lane release happens no later than its fenced
//! counterpart (stage entries are ≤ the barrier, inbound floors are a
//! sender's entry ≤ the barrier, and the charge multiset is identical),
//! so each chip's lane and compute clocks are ≤ their fenced values by
//! induction, and `fence_blocks ≤ fence_offchip` on equal-or-earlier
//! lanes.
//!
//! Because ghosts hold the neighbors' pre-stage variables when Flux runs
//! — the fence plus the ghost blocks' DMA dependencies guarantee it — the
//! merged cluster state reproduces the native dG solver to roundoff, the
//! same ≤1e-12 bound the single-chip mapping meets, while the stage
//! wall-clock is never longer than the bulk-synchronous schedule's.

use pim_isa::BlockId;
use pim_math::{CostModel, MathConfig, MathDecision, MathPlacement};
use pim_metrics::MetricsRegistry;
use pim_sim::{ChipConfig, ExecReport, InterChipLink, OpCost, PimChip, Tape};
use pim_trace::Kernel;
use rayon::prelude::*;
use std::sync::Arc;
use wave_pim::compiler::{AcousticMapping, NaiveAcoustic};
use wave_pim::mapping::{ElementKernels, Mapping};
use wave_pim::program_cache::{KernelParts, StageProgram};
use wave_pim::tracehooks::{begin_kernel_span, end_kernel_span, end_kernel_span_at};
use wavesim_dg::{AcousticMaterial, FluxKind, Lsrk5, State};
use wavesim_mesh::{HexMesh, SlicePartition};

use crate::halo::{halo_messages, HaloMessage};

/// Which per-stage schedule [`ClusterRunner::step`] runs. Both
/// protocols execute byte-identical instruction streams in the same
/// per-chip order, so the merged states agree **bit for bit** — only
/// the simulated-time placement of the work differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterProtocol {
    /// Bulk-synchronous: every stage opens at the cluster-wide barrier
    /// and a global [`pim_sim::PimChip::fence_offchip`] joins each
    /// chip's whole off-chip lane before Flux. One slow chip (or one
    /// long halo route) stalls the entire cluster.
    Fenced,
    /// Dependency-driven: each chip enters a stage at its own clock,
    /// fences only the ghost blocks its Flux actually reads
    /// ([`pim_sim::PimChip::fence_blocks`]), and lets its outbound link
    /// charges drain concurrently with Flux/Integration. Per-stage
    /// makespan is provably ≤ the fenced schedule's; inter-chip skew is
    /// bounded by the halo dependency chain (at most one stage between
    /// link neighbors, asserted every stage). The default.
    #[default]
    Pipelined,
}

/// Cluster shape: what each chip is (one [`ChipConfig`] per chip, so
/// clusters may mix capacities) and what connects them.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-chip configuration, one entry per chip (capacity,
    /// interconnect, process node). Chips need not be identical.
    pub chips: Vec<ChipConfig>,
    /// The inter-chip link model.
    pub link: InterChipLink,
    /// Weight the slice deal by each chip's block capacity (default).
    /// Disabled, every chip receives the same slice count regardless of
    /// capacity — the pre-weighting baseline, kept so `profile_report`
    /// can measure what the weighted deal buys on mixed clusters.
    pub weighted_partition: bool,
    /// Transcendental treatment: `Off` (default) is the seed behavior —
    /// host-exact staged constants, no per-stage charge; `Host` prices
    /// the per-stage host sqrt/inverse refresh; `OnPim`/`Auto` move
    /// supported ops onto the in-block LUT + Newton sequence.
    pub math: MathConfig,
    /// The per-stage schedule (default: [`ClusterProtocol::Pipelined`]).
    /// Bit-identical state either way; only simulated-time placement
    /// differs.
    pub protocol: ClusterProtocol,
    /// The registry this run is metered into (default `None`: the run
    /// records no metrics). Every chip, the program cache and the
    /// cluster-level series (labeled `chip="<index>"`) publish here.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl ClusterConfig {
    /// `num_chips` paper-default 2 GB chips on the default link.
    pub fn new(num_chips: usize) -> Self {
        Self::uniform(num_chips, ChipConfig::default_2gb())
    }

    /// `num_chips` identical `chip`s on the default link.
    pub fn uniform(num_chips: usize, chip: ChipConfig) -> Self {
        Self::heterogeneous(vec![chip; num_chips])
    }

    /// One chip per entry of `chips`, on the default link. The slice
    /// deal is weighted by each chip's block capacity, so bigger chips
    /// shoulder proportionally more of the mesh.
    pub fn heterogeneous(chips: Vec<ChipConfig>) -> Self {
        Self {
            chips,
            link: InterChipLink::default(),
            weighted_partition: true,
            math: MathConfig::default(),
            protocol: ClusterProtocol::default(),
            metrics: None,
        }
    }

    /// Returns the config with the given transcendental treatment.
    pub fn with_math(mut self, math: MathConfig) -> Self {
        self.math = math;
        self
    }

    /// Returns the config with the given per-stage schedule.
    pub fn with_protocol(mut self, protocol: ClusterProtocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Returns the config metered into `registry`.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Number of chips.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// The capacity-derived partition weights: one slice-deal weight per
    /// chip, each chip's [`pim_sim::ChipCapacity::num_blocks`]. All ones
    /// when capacity weighting is disabled.
    pub fn partition_weights(&self) -> Vec<u64> {
        if self.weighted_partition {
            self.chips.iter().map(|c| c.capacity.num_blocks()).collect()
        } else {
            vec![1; self.chips.len()]
        }
    }
}

/// Accumulated halo-exchange accounting, for reconciling the functional
/// runner against the analytic estimator.
#[derive(Debug, Clone)]
pub struct HaloStats {
    /// Messages sent (each counted once, not per endpoint).
    pub messages: u64,
    /// Payload bytes sent (each counted once, not per endpoint).
    pub payload_bytes: u64,
    /// Per-chip link busy time, seconds: every message occupies both its
    /// endpoints' off-chip ports for the link duration.
    pub link_seconds: Vec<f64>,
    /// Per-chip *exposed* halo time, seconds: how much the pre-Flux
    /// fence (global off-chip fence under [`ClusterProtocol::Fenced`],
    /// ghost-block fence under [`ClusterProtocol::Pipelined`]) actually
    /// delayed each chip beyond its Volume work. Zero when the Volume
    /// window hid the whole exchange.
    pub exposed_seconds: Vec<f64>,
    /// Largest per-stage spread between the earliest and latest chip
    /// stage-entry times seen so far, seconds. Always 0 under the
    /// fenced protocol (every chip enters at the barrier); under the
    /// pipelined protocol the halo dependency chain bounds it to at
    /// most one stage between link neighbors.
    pub max_skew_seconds: f64,
    /// LSRK stages executed so far.
    pub stages: u64,
}

impl HaloStats {
    /// The busiest chip's average link time per stage — the quantity the
    /// analytic estimator models as `halo_link_seconds_per_stage`.
    pub fn seconds_per_stage(&self) -> f64 {
        Self::per_stage_max(&self.link_seconds, self.stages)
    }

    /// The busiest chip's average *exposed* halo time per stage — what
    /// the exchange still costs after hiding behind Volume (the
    /// estimator's `halo_seconds_per_stage`).
    pub fn exposed_seconds_per_stage(&self) -> f64 {
        Self::per_stage_max(&self.exposed_seconds, self.stages)
    }

    fn per_stage_max(per_chip: &[f64], stages: u64) -> f64 {
        if stages == 0 {
            return 0.0;
        }
        per_chip.iter().fold(0.0f64, |m, &s| m.max(s)) / stages as f64
    }
}

/// Accumulated transcendental-math accounting, mirroring [`HaloStats`]:
/// how much per-stage host preprocess the cluster charged, how much of
/// it gated the stage, and how much compute-lane time the on-PIM
/// refinement streams took instead.
#[derive(Debug, Clone)]
pub struct MathStats {
    /// Per-chip host-lane window time charged for host-placed ops
    /// (sqrt/inverse preprocess + constants-refresh DMA), seconds.
    pub host_seconds: Vec<f64>,
    /// Per-chip stage delay the host window caused beyond the stage
    /// barrier — the *exposed* host preprocess (the staged constants are
    /// Volume inputs, so in the synchronous schedule the whole window is
    /// normally exposed).
    pub exposed_seconds: Vec<f64>,
    /// Per-chip compute-lane time in on-PIM refinement streams, seconds.
    pub onpim_seconds: Vec<f64>,
    /// LSRK stages executed so far.
    pub stages: u64,
}

impl MathStats {
    /// The busiest chip's average charged host window per stage.
    pub fn host_seconds_per_stage(&self) -> f64 {
        HaloStats::per_stage_max(&self.host_seconds, self.stages)
    }

    /// The busiest chip's average *exposed* host preprocess per stage —
    /// the quantity `math_bench` shows shrinking when math moves on-PIM.
    pub fn exposed_seconds_per_stage(&self) -> f64 {
        HaloStats::per_stage_max(&self.exposed_seconds, self.stages)
    }

    /// The busiest chip's average on-PIM refinement time per stage.
    pub fn onpim_seconds_per_stage(&self) -> f64 {
        HaloStats::per_stage_max(&self.onpim_seconds, self.stages)
    }
}

/// Publishes one kernel window's busy time and dynamic energy to the
/// per-(chip, kernel) cluster counters. `busy_before`/`energy_before`
/// are the lane time and dynamic energy captured when the window
/// opened; the busy time lives on the compute lane, except the halo
/// exchange's, which lives on the *off-chip* lane. A no-op for an
/// unmetered run; called once per kernel per stage, so the registry
/// lookup cost is irrelevant next to simulating the kernel.
fn record_cluster_kernel(
    reg: Option<&MetricsRegistry>,
    c: usize,
    chip: &PimChip,
    kernel: &str,
    busy_before: f64,
    energy_before: f64,
) {
    let Some(reg) = reg else { return };
    let busy = if kernel == "HaloExchange" { chip.offchip_time() } else { chip.elapsed() };
    let c = c.to_string();
    let labels = [("chip", c.as_str()), ("kernel", kernel)];
    reg.float_counter("cluster_kernel_busy_seconds_total", &labels)
        .add((busy - busy_before).max(0.0));
    reg.float_counter("cluster_kernel_energy_joules_total", &labels)
        .add((chip.ledger().dynamic() - energy_before).max(0.0));
}

/// Publishes one cached kernel program's opcode mix to the
/// per-(chip, kernel, op) counters — the compiler-level instruction
/// breakdown of what each replayed kernel executes.
fn record_program_mix(reg: &MetricsRegistry, c: &str, kernel: &str, stats: &pim_isa::StreamStats) {
    let classes = [
        ("read", stats.reads),
        ("write", stats.writes),
        ("broadcast", stats.broadcasts),
        ("copy", stats.copies),
        ("arith_add", stats.arith_addlike),
        ("arith_mul", stats.arith_mullike),
        ("lut", stats.luts),
        ("load_offchip", stats.offchip_loads),
        ("store_offchip", stats.offchip_stores),
        ("sync", stats.syncs),
    ];
    for (op, n) in classes {
        if n > 0 {
            reg.counter(
                "cluster_program_instrs_total",
                &[("chip", c), ("kernel", kernel), ("op", op)],
            )
            .add(n);
        }
    }
}

/// The chip's `(compute elapsed, dynamic energy)` pair — the opening
/// snapshot for [`record_cluster_kernel`] — or zeros for an unmetered
/// run (whose close side publishes nothing).
fn kernel_window_open(reg: Option<&MetricsRegistry>, chip: &PimChip) -> (f64, f64) {
    if reg.is_some() {
        (chip.elapsed(), chip.ledger().dynamic())
    } else {
        (0.0, 0.0)
    }
}

/// The `f64` counter `name{chip="<c>"}`.
fn chip_float(reg: &MetricsRegistry, name: &str, c: usize) -> pim_metrics::FloatCounter {
    reg.float_counter(name, &[("chip", &c.to_string())])
}

/// Histogram bounds for the per-stage pipelined skew: log-spaced from
/// 1 ns to 100 ms, wide enough that every swept configuration lands in
/// an interior bucket.
const SKEW_BUCKETS: &[f64] = &[1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1];

/// Emits one [`pim_trace::Payload::Arrival`] instant per ghost block at
/// the moment its data finished landing — the per-block readiness the
/// pre-Flux fence joins — tagged with the causal id of the inbound
/// message that carried the block's data this stage.
fn record_block_arrivals(chip: &mut PimChip, blocks: &[(BlockId, usize)], flow_base: u64) {
    if !pim_trace::enabled() {
        return;
    }
    let pid = chip.trace_pid();
    for &(b, mi) in blocks {
        let t = chip.block_ready_time(b);
        pim_trace::record_span(
            pid,
            pim_trace::TID_FENCE,
            t,
            t,
            pim_trace::Payload::Arrival { block: b.0, flow: flow_base + mi as u64 },
        );
    }
}

/// Records the trace span of a fence the chip just executed between the
/// `before` clock read and now. A zero-length wait leaves no span; a
/// real wait carries the causal id of the inbound message whose ghost
/// landing released the fence — or flow 0 when the release was not a
/// ghost landing (e.g. `fence_offchip` held open by an outbound tail).
fn record_fence_wait(
    chip: &mut PimChip,
    kind: &'static str,
    blocks: &[(BlockId, usize)],
    flow_base: u64,
    before: f64,
) {
    if !pim_trace::enabled() {
        return;
    }
    let after = chip.elapsed();
    if after <= before {
        return;
    }
    let mut release: Option<(f64, usize)> = None;
    for &(b, mi) in blocks {
        let t = chip.block_ready_time(b);
        if release.is_none_or(|(rt, _)| t > rt) {
            release = Some((t, mi));
        }
    }
    let flow = match release {
        Some((rt, mi)) if (rt - after).abs() <= 1e-12 * after.abs().max(1.0) => {
            flow_base + mi as u64
        }
        _ => 0,
    };
    let pid = chip.trace_pid();
    pim_trace::record_span(
        pid,
        pim_trace::TID_FENCE,
        before,
        after,
        pim_trace::Payload::Fence { kind, flow },
    );
}

/// The `kernel` labels of the `cluster_chip_tape_bytes` gauge.
pub const TAPE_KERNELS: [&str; 5] = ["Halo", "Volume", "Flux", "Integration", "Math"];

/// One chip's kernel programs, compiled once at construction, lowered
/// for the chip, and replayed every step (the compile-once program
/// cache). The mesh topology, shard placement, and kernel structure are
/// fixed for the run, so only Integration varies across LSRK stages —
/// and only in the two staged-coefficient `Read` offsets per variable
/// block; its [`StageProgram`] holds one tape per stage.
struct ChipPrograms {
    /// Halo send snapshot (`StoreOffchip` per variable block of each
    /// boundary element).
    halo_store: Tape,
    /// Ghost landing (`LoadOffchip` per variable block of each ghost).
    halo_load: Tape,
    volume: Tape,
    /// The mapping's runner Flux schedule (phased for one-block
    /// acoustic).
    flux: Tape,
    integration: StageProgram,
    /// The per-stage on-PIM math refinement (`None` without an on-PIM
    /// lane).
    math: Option<Tape>,
}

impl ChipPrograms {
    /// Compiles every kernel of one shard and lowers each for `chip` as
    /// it is compiled. Volume, Integration and the uniform Flux phases
    /// are one run each, lowered once over the shard's block set.
    fn compile<K: ElementKernels>(
        m: &Mapping<K>,
        chip: &PimChip,
        res: &[usize],
        ghosts: &[usize],
        sends: &[usize],
    ) -> Self {
        let lower = |k: &KernelParts| k.lower(chip).expect("compiled streams are well-formed");
        Self {
            halo_store: lower(&m.compile_halo_store_for(sends).into()),
            halo_load: lower(&m.compile_halo_load_for(ghosts).into()),
            volume: lower(&m.volume_parts(res)),
            flux: lower(&m.flux_schedule_parts(res)),
            integration: StageProgram::new(
                (0..Lsrk5::STAGES).map(|s| m.integration_parts(res, s)).collect(),
                lower,
            ),
            math: m
                .math_placement()
                .filter(|p| p.any_onpim())
                .map(|_| lower(&m.compile_math_stage_for(res).into())),
        }
    }

    /// Stable content key of this chip's whole program set: the
    /// [`pim_isa::InstrStream::content_hash`] of every kernel's expanded
    /// stream plus the Integration [`StageProgram::content_key`],
    /// chained in kernel order. Two chips key equal exactly when every
    /// compiled kernel is byte-identical. An installed math placement
    /// (and its refinement stream, when on-PIM) folds in after, so
    /// host-math, on-PIM and legacy programs are always distinguishable.
    ///
    /// The tapes keep no streams, so the kernels are emitted again from
    /// the shard's mapping, which is unchanged since construction, and
    /// hashed as they expand.
    fn content_key<K: ElementKernels>(
        &self,
        m: &Mapping<K>,
        res: &[usize],
        ghosts: &[usize],
        sends: &[usize],
    ) -> u64 {
        let mut h = pim_isa::FNV_OFFSET;
        h = m.compile_halo_store_for(sends).content_hash(h);
        h = m.compile_halo_load_for(ghosts).content_hash(h);
        h = m.volume_parts(res).content_hash(h);
        h = m.flux_schedule_parts(res).content_hash(h);
        h = pim_isa::fnv1a(h, self.integration.content_key());
        if self.math.is_some() {
            h = m.compile_math_stage_for(res).content_hash(h);
        }
        if let Some(p) = m.math_placement() {
            h = pim_isa::fnv1a(h, p.key());
        }
        h
    }

    /// Heap bytes of each kernel's tapes, labelled as in
    /// [`TAPE_KERNELS`]: both halo tapes, then Volume, Flux, every
    /// Integration stage's and the math tape.
    fn tape_bytes(&self) -> [(&'static str, usize); 5] {
        let [halo, volume, flux, integration, math] = TAPE_KERNELS;
        [
            (halo, self.halo_store.heap_bytes() + self.halo_load.heap_bytes()),
            (volume, self.volume.heap_bytes()),
            (flux, self.flux.heap_bytes()),
            (integration, self.integration.heap_bytes()),
            (math, self.math.as_ref().map_or(0, Tape::heap_bytes)),
        ]
    }

    /// Cached instructions across all kernels (one Integration variant).
    fn num_instrs(&self) -> u64 {
        (self.halo_store.len()
            + self.halo_load.len()
            + self.volume.len()
            + self.flux.len()
            + self.integration.len()
            + self.math.as_ref().map_or(0, Tape::len)) as u64
    }
}

/// The multi-chip runner over the element mapping `K`. See the module
/// docs for the per-stage protocol.
pub struct ClusterRunner<K: ElementKernels = NaiveAcoustic> {
    partition: SlicePartition,
    mappings: Vec<Mapping<K>>,
    chips: Vec<PimChip>,
    /// Resident element ids per shard.
    residents: Vec<Vec<usize>>,
    /// Ghost element ids per shard (the receive set).
    ghosts: Vec<Vec<usize>>,
    /// Boundary element ids per shard (the send set).
    send_sets: Vec<Vec<usize>>,
    /// Deduplicated chip blocks holding each shard's ghost elements —
    /// every variable block of every ghost, exactly what the ghost
    /// landing DMAs and the pipelined pre-Flux `fence_blocks` wait on.
    ghost_blocks: Vec<Vec<BlockId>>,
    /// Per chip: each ghost block paired with the index into `messages`
    /// of the inbound message carrying its data — the causal map behind
    /// the per-block `Arrival` instants and the fence-release flow
    /// attribution. Sorted by block id; where several messages feed one
    /// block the highest message index wins (receive charges serialize
    /// in message order, so that is the last contributor).
    ghost_block_msgs: Vec<Vec<(BlockId, usize)>>,
    /// Monotonic causal-id allocator: each stage claims one flow id per
    /// halo message (`flow = flow_counter + message index`), shared by
    /// that message's send charge, receive charge, ghost arrivals and
    /// fence release. Starts at 1 — flow 0 means "untagged".
    flow_counter: u64,
    messages: Vec<HaloMessage>,
    link: InterChipLink,
    dt: f64,
    /// Which per-stage schedule `step` runs.
    protocol: ClusterProtocol,
    /// Per-chip stage-entry times of the previous stage — the left side
    /// of the pipelined skew-bound assertion.
    prev_starts: Vec<f64>,
    /// Cluster-wide simulated clock after each completed LSRK stage
    /// (both protocols), the per-stage makespan record behind the
    /// `pipelined ≤ fenced` comparison.
    stage_makespans: Vec<f64>,
    /// Host-side staging for pre-stage boundary variables in flight.
    staging: State,
    halo: HaloStats,
    /// Per-shard math decision from the placement cost model (`None`
    /// placement = legacy path).
    math_decisions: Vec<MathDecision>,
    /// Per-chip per-stage host window for the host-placed math ops
    /// (ZERO when nothing stays on the host).
    math_host_cost: Vec<OpCost>,
    /// Per-chip host op count behind that window (trace payload).
    math_host_ops: Vec<u64>,
    math: MathStats,
    /// Per-chip compile-once kernel programs.
    programs: Vec<ChipPrograms>,
    /// Host seconds spent compiling the program cache at construction.
    compile_seconds: f64,
    /// The registry this run is metered into ([`ClusterConfig::metrics`]).
    metrics: Option<Arc<MetricsRegistry>>,
}

impl ClusterRunner {
    /// Shards `mesh` under the one-block acoustic mapping with one
    /// material everywhere; see [`Self::with_mapping`].
    ///
    /// # Panics
    /// As [`Self::with_mapping`].
    pub fn new(
        mesh: &HexMesh,
        n: usize,
        flux_kind: FluxKind,
        material: AcousticMaterial,
        initial: &State,
        dt: f64,
        config: ClusterConfig,
    ) -> Self {
        let mapping = AcousticMapping::uniform(mesh.clone(), n, flux_kind, material);
        Self::with_mapping(mapping, initial, dt, config)
    }
}

impl<K: ElementKernels> ClusterRunner<K> {
    /// Shards `template`'s mesh across `config.num_chips()` chips — the
    /// slice deal weighted by each chip's block capacity unless
    /// [`ClusterConfig::weighted_partition`] is off — places each shard
    /// on a copy of `template`, compiles its programs, and preloads every
    /// chip.
    ///
    /// # Panics
    /// Panics if `initial` does not match the mesh and the mapping's
    /// variables, there are more chips than mesh slices, a shard
    /// (residents + ghosts + parking + LUT) does not fit its chip, or
    /// `config.math` would put a math lane on-PIM for a mapping without
    /// on-PIM math streams (the four-block mappings, DESIGN §11) — such a
    /// lane would otherwise be priced as free.
    pub fn with_mapping(
        template: Mapping<K>,
        initial: &State,
        dt: f64,
        config: ClusterConfig,
    ) -> Self {
        let mesh = template.mesh();
        assert_eq!(initial.num_elements(), mesh.num_elements(), "initial state must match mesh");
        assert_eq!(initial.num_vars(), template.num_vars(), "initial state must match mapping");
        let num_chips = config.num_chips();
        let partition = SlicePartition::new_weighted(mesh, &config.partition_weights());
        let messages = halo_messages(&partition);

        // 1. In shard order: each shard's element sets and math decision,
        // and its chip with the trace pid allocated and the metrics
        // attached — so pids and series never depend on the pool width.
        let mut chips = Vec::with_capacity(num_chips);
        let mut residents = Vec::with_capacity(num_chips);
        let mut ghosts = Vec::with_capacity(num_chips);
        let mut send_sets = Vec::with_capacity(num_chips);
        let mut math_decisions = Vec::with_capacity(num_chips);
        let mut math_host_cost = Vec::with_capacity(num_chips);
        let mut math_host_ops = Vec::with_capacity(num_chips);
        let cost_model = CostModel;

        for shard in partition.shards() {
            let chip_config = config.chips[shard.index];
            let res: Vec<usize> = shard.elements.iter().map(|e| e.index()).collect();
            let gho: Vec<usize> = shard.ghosts.iter().map(|e| e.index()).collect();
            let snd: Vec<usize> =
                shard.boundary_elements(&partition).iter().map(|e| e.index()).collect();

            // Per-shard math placement: the cost model prices the host
            // refresh against the on-PIM fragment for *this* shard's
            // element count and operand ranges.
            let site = template.math_site_params(&res);
            let decision = cost_model.resolve(config.math.mode, &site);
            assert!(
                K::ONPIM_MATH || !decision.placement.is_some_and(|p| p.any_onpim()),
                "math mode {:?} puts a lane of shard {} on-PIM, but this mapping has no \
                 on-PIM math streams",
                config.math.mode,
                shard.index
            );
            let host_cost = decision
                .placement
                .map(|p| cost_model.host_stage_cost(p, &site))
                .unwrap_or_default();
            let host_ops = decision
                .placement
                .filter(|p| p.any_host())
                .map_or(0, |_| (site.sqrts_per_elem + site.divs_per_elem) * site.elems as u64);
            math_decisions.push(decision);
            math_host_cost.push(host_cost);
            math_host_ops.push(host_ops);

            let mut chip = PimChip::new(chip_config);
            chip.set_trace_label(format!(
                "pim-cluster chip {} ({})",
                shard.index,
                chip_config.capacity.name()
            ));
            if let Some(reg) = &config.metrics {
                chip.attach_metrics(reg, &shard.index.to_string());
            }
            chips.push(chip);
            residents.push(res);
            ghosts.push(gho);
            send_sets.push(snd);
        }

        // 2. On the pool: each shard's mapping, and the compile-once
        // program cache — every kernel of every chip, compiled and
        // lowered here and only here. The passes run before the preload
        // so the chips' block storage reuses the memory the transient
        // streams freed.
        let t0 = std::time::Instant::now();
        let mut compiled: Vec<Result<(Mapping<K>, ChipPrograms), String>> =
            (0..num_chips).map(|_| Err(String::new())).collect();
        {
            let (chips, residents, ghosts, send_sets) = (&chips, &residents, &ghosts, &send_sets);
            let (template, decisions) = (&template, &math_decisions);
            compiled.par_chunks_mut(1).enumerate().for_each(|(c, slot)| {
                let (res, gho) = (&residents[c], &ghosts[c]);
                slot[0] = Self::place_shard(template, &chips[c], res, gho, decisions[c].placement)
                    .map(|m| {
                        let programs =
                            ChipPrograms::compile(&m, &chips[c], res, gho, &send_sets[c]);
                        (m, programs)
                    })
                    .map_err(|e| format!("shard {c}: {e}"));
            });
        }
        let (mappings, programs): (Vec<Mapping<K>>, Vec<ChipPrograms>) =
            compiled.into_iter().map(|r| r.unwrap_or_else(|e| panic!("{e}"))).unzip();
        let compile_seconds = t0.elapsed().as_secs_f64();

        // 3. On the pool: each chip's one-time set-up — preload DMA, LUT
        // resolution and on-PIM math setup.
        {
            let (mappings, residents, ghosts) = (&mappings, &residents, &ghosts);
            chips.par_chunks_mut(1).enumerate().for_each(|(c, chip)| {
                Self::set_up_shard(
                    &mappings[c],
                    &mut chip[0],
                    (&residents[c], &ghosts[c]),
                    dt,
                    initial,
                );
            });
        }
        for (c, chip) in chips.iter().enumerate() {
            // Everything up to here is the chip's one-time setup; the
            // per-kernel ledgers start from this baseline.
            record_cluster_kernel(config.metrics.as_deref(), c, chip, "Setup", 0.0, 0.0);
        }

        // The chip blocks each shard's ghosts land in, deduplicated in
        // block order — the pipelined protocol's pre-Flux fence set (Flux
        // is the only ghost reader).
        let ghost_blocks: Vec<Vec<BlockId>> = mappings
            .iter()
            .zip(&ghosts)
            .map(|(m, gho)| {
                let mut blocks: Vec<BlockId> = gho.iter().flat_map(|&e| m.var_blocks(e)).collect();
                blocks.sort_unstable_by_key(|b| b.0);
                blocks.dedup();
                blocks
            })
            .collect();

        // The causal map behind the fence/arrival trace spans: which
        // inbound message lands in which ghost block of which chip.
        let mut ghost_block_msgs: Vec<Vec<(BlockId, usize)>> = vec![Vec::new(); num_chips];
        {
            let mut by_block: Vec<std::collections::BTreeMap<u32, usize>> =
                vec![Default::default(); num_chips];
            for (i, m) in messages.iter().enumerate() {
                for &e in &m.elements {
                    for b in mappings[m.dst].var_blocks(e) {
                        by_block[m.dst].insert(b.0, i);
                    }
                }
            }
            for (c, map) in by_block.into_iter().enumerate() {
                ghost_block_msgs[c] = map.into_iter().map(|(b, i)| (BlockId(b), i)).collect();
            }
        }

        // The static opcode mix of every cached kernel program, per
        // chip — the compiler-level breakdown the profiling report
        // scales by replay counts.
        if let Some(reg) = &config.metrics {
            for (c, prog) in programs.iter().enumerate() {
                let c = c.to_string();
                record_program_mix(reg, &c, "HaloStore", prog.halo_store.stats());
                record_program_mix(reg, &c, "HaloLoad", prog.halo_load.stats());
                record_program_mix(reg, &c, "Volume", prog.volume.stats());
                record_program_mix(reg, &c, "Flux", prog.flux.stats());
                record_program_mix(reg, &c, "Integration", prog.integration.stats());
            }
        }

        Self {
            partition,
            mappings,
            chips,
            residents,
            ghosts,
            send_sets,
            ghost_blocks,
            ghost_block_msgs,
            flow_counter: 1,
            messages,
            link: config.link,
            dt,
            protocol: config.protocol,
            prev_starts: vec![0.0; num_chips],
            stage_makespans: Vec::new(),
            staging: initial.clone(),
            halo: HaloStats {
                messages: 0,
                payload_bytes: 0,
                link_seconds: vec![0.0; num_chips],
                exposed_seconds: vec![0.0; num_chips],
                max_skew_seconds: 0.0,
                stages: 0,
            },
            math_decisions,
            math_host_cost,
            math_host_ops,
            math: MathStats {
                host_seconds: vec![0.0; num_chips],
                exposed_seconds: vec![0.0; num_chips],
                onpim_seconds: vec![0.0; num_chips],
                stages: 0,
            },
            programs,
            compile_seconds,
            metrics: config.metrics,
        }
    }

    /// One shard's mapping: `template` with the shard map and math
    /// placement installed.
    ///
    /// # Errors
    /// The shard (residents + ghosts + parking + LUT) does not fit the
    /// chip.
    fn place_shard(
        template: &Mapping<K>,
        chip: &PimChip,
        res: &[usize],
        gho: &[usize],
        placement: Option<MathPlacement>,
    ) -> Result<Mapping<K>, String> {
        let mut mapping = template.clone();
        mapping.install_shard_map(res, gho);
        mapping.set_math_placement(placement);
        // window slots + 1 shared parking slot + the LUT block (+ the
        // math seed-table block when a lane runs on-PIM).
        let capacity = chip.config().capacity.num_blocks();
        if mapping.blocks_required() as u64 > capacity {
            return Err(format!(
                "{} resident + {} ghost elements exceed {capacity} blocks",
                res.len(),
                gho.len()
            ));
        }
        Ok(mapping)
    }

    /// Preloads one shard's chip and runs its one-time LUT and on-PIM
    /// math setup.
    fn set_up_shard(
        mapping: &Mapping<K>,
        chip: &mut PimChip,
        (res, gho): (&[usize], &[usize]),
        dt: f64,
        initial: &State,
    ) {
        // Residents get their full static + dynamic image; ghosts only
        // ever serve variable reads, so variables suffice.
        mapping.preload_static_subset(chip, dt, res);
        mapping.load_vars_subset(chip, initial, res);
        mapping.load_vars_subset(chip, initial, gho);
        mapping.zero_dynamic_subset(chip, res);
        // The block map is static for the whole run, so the LUT
        // constants are resolved once here, not per stage.
        chip.execute(&mapping.compile_lut_setup_for(res));
        // On-PIM math setup (range reduction + seed fetch), once; absent
        // without an on-PIM lane (not even an empty dispatch, so the
        // legacy trace stays untouched).
        let math_setup = mapping.compile_math_setup_for(res);
        if !math_setup.is_empty() {
            chip.execute(&math_setup);
        }
    }

    /// Number of chips.
    pub fn num_chips(&self) -> usize {
        self.chips.len()
    }

    /// The time-step all chips were compiled for.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// The partition driving this cluster.
    pub fn partition(&self) -> &SlicePartition {
        &self.partition
    }

    /// The halo-exchange plan (shared with the analytic estimator).
    pub fn messages(&self) -> &[HaloMessage] {
        &self.messages
    }

    /// Halo accounting so far.
    pub fn halo_stats(&self) -> &HaloStats {
        &self.halo
    }

    /// The per-stage schedule `step` runs.
    pub fn protocol(&self) -> ClusterProtocol {
        self.protocol
    }

    /// Cluster-wide simulated clock after each completed LSRK stage, in
    /// execution order (5 entries per step) — the makespan record
    /// behind the per-stage `pipelined ≤ fenced` guarantee.
    pub fn stage_makespans(&self) -> &[f64] {
        &self.stage_makespans
    }

    /// Transcendental-math accounting so far.
    pub fn math_stats(&self) -> &MathStats {
        &self.math
    }

    /// Per-shard math decisions from the placement cost model.
    pub fn math_decisions(&self) -> &[MathDecision] {
        &self.math_decisions
    }

    /// Per-chip resolved placements (`None` = legacy path), in chip
    /// order.
    pub fn math_placements(&self) -> Vec<Option<MathPlacement>> {
        self.math_decisions.iter().map(|d| d.placement).collect()
    }

    /// Host seconds spent compiling the program cache at construction.
    pub fn program_compile_seconds(&self) -> f64 {
        self.compile_seconds
    }

    /// Cached instructions across all chips and kernels (counting one
    /// Integration variant per chip — the others are patch rows).
    pub fn cached_instrs(&self) -> u64 {
        self.programs.iter().map(ChipPrograms::num_instrs).sum()
    }

    /// Integration patch sites across all chips: instructions the patch
    /// table rewrites between stages (two per variable block of each
    /// resident element).
    pub fn patch_sites(&self) -> u64 {
        self.programs.iter().map(|p| p.integration.num_patch_sites() as u64).sum()
    }

    /// Stable content key of the cluster's entire compiled program set:
    /// each chip's kernel streams and Integration stage variants,
    /// chained in chip order. Two runners key equal exactly when every
    /// compiled instruction of every chip is byte-identical — which is
    /// what lets a fleet-level scheduler treat a key hit as "this runner
    /// already holds my program" and skip recompilation (see
    /// [`Self::reset_state`]). The key hashes the full expanded streams,
    /// whatever form the kernels are lowered from. The runner holds
    /// tapes, not streams, so this emits the kernels again and hashes
    /// their expansion: each repeated run is emitted once, but every
    /// expanded instruction is hashed, so the cost grows with the shard.
    /// Construction pays nothing for a key nobody asks for.
    pub fn program_content_key(&self) -> u64 {
        self.programs.iter().enumerate().fold(pim_isa::FNV_OFFSET, |h, (c, p)| {
            let (m, res) = (&self.mappings[c], &self.residents[c]);
            pim_isa::fnv1a(h, p.content_key(m, res, &self.ghosts[c], &self.send_sets[c]))
        })
    }

    /// Rewinds the cluster to a fresh simulation from `initial` without
    /// recompiling anything: reloads every chip's resident and ghost
    /// variables, zeroes the dynamic scratch columns, and resets the
    /// host staging buffer — exactly the variable-state work
    /// [`Self::new`] does after its one-time static preload. The cached
    /// programs, block maps, and LUT constants are untouched (they
    /// depend only on the mesh, mapping, and chip set), so a reset
    /// runner replays the *same* instruction streams a freshly
    /// constructed one would compile, and `run(steps)` from here is
    /// bit-identical to a brand-new runner on the same configuration.
    ///
    /// Simulated chip clocks and energy ledgers keep accumulating —
    /// the chips are the same physical devices serving a new job — so
    /// only the numerical state rewinds, not the hardware accounting.
    ///
    /// # Panics
    /// Panics if `initial` does not match the mesh the runner was
    /// compiled for.
    pub fn reset_state(&mut self, initial: &State) {
        assert_eq!(
            initial.num_elements(),
            self.partition.num_elements(),
            "reset state must match the compiled mesh"
        );
        for (c, (mapping, chip)) in self.mappings.iter().zip(self.chips.iter_mut()).enumerate() {
            mapping.load_vars_subset(chip, initial, &self.residents[c]);
            mapping.load_vars_subset(chip, initial, &self.ghosts[c]);
            mapping.zero_dynamic_subset(chip, &self.residents[c]);
        }
        self.staging = initial.clone();
    }

    /// Advances one time-step: five LSRK stages of the stage body
    /// (module docs) under the configured [`ClusterProtocol`].
    pub fn step(&mut self) {
        for stage in 0..Lsrk5::STAGES {
            self.run_stage(stage);
        }
        self.publish_step_gauges();
    }

    /// One LSRK stage on every chip: entry → { Volume ∥ halo } → fence →
    /// Flux → Integration. The protocol decides exactly three things
    /// (module docs): the stage-entry clocks, whether the outbound link
    /// charges ride ahead of or behind the ghost landing, and which
    /// pre-Flux fence joins the lanes. Everything else — the instruction
    /// streams, their per-chip order, and the accounting — is shared.
    fn run_stage(&mut self, stage: usize) {
        let elem_bytes = self.mappings[0].halo_bytes_per_element();
        let message_bytes = |m: &HaloMessage| m.elements.len() as u64 * elem_bytes;
        let fenced = self.protocol == ClusterProtocol::Fenced;
        let registry = self.metrics.clone();
        let metrics = registry.as_deref();
        // One causal flow id per halo message this stage, shared by the
        // message's link endpoints, ghost arrivals and fence release so a
        // trace consumer can walk the dependency edge (and, for the
        // inbound charge, to the sender's stage entry that floors it).
        let flow_base = self.flow_counter;
        self.flow_counter += self.messages.len() as u64;

        // 1. Stage entry (protocol decision 1). Fenced: the lockstep
        // barrier at the cluster-wide simulated time, both lanes
        // counted (a chip still draining its off-chip port holds the
        // whole cluster back). Pipelined: each chip at its own compute
        // clock, which already covers everything its last Flux fenced;
        // an outbound tail still draining is *not* waited for.
        let starts: Vec<f64> = match self.protocol {
            ClusterProtocol::Fenced => vec![self.elapsed(); self.chips.len()],
            ClusterProtocol::Pipelined => self.chips.iter().map(|c| c.elapsed()).collect(),
        };

        // The skew bound: entering this stage, every chip that sends to
        // `dst` must have entered the previous one — guaranteed because
        // last stage's fence floored `dst` at `prev_starts[src]` plus a
        // positive link duration. Link neighbors are therefore never
        // more than one stage apart (trivially so at a barrier).
        for m in &self.messages {
            assert!(
                starts[m.dst] >= self.prev_starts[m.src] - 1e-12,
                "pipelined skew bound violated: chip {} entered a stage at {:.6e}s \
                 before its in-neighbor {} entered the previous one ({:.6e}s)",
                m.dst,
                starts[m.dst],
                m.src,
                self.prev_starts[m.src],
            );
        }
        let spread = starts.iter().fold(0.0f64, |m, &s| m.max(s))
            - starts.iter().fold(f64::INFINITY, |m, &s| m.min(s));
        let spread = spread.max(0.0);
        self.halo.max_skew_seconds = self.halo.max_skew_seconds.max(spread);
        if let Some(reg) = metrics {
            // Fixed-bucket histogram so a scrape sees the whole skew
            // distribution across stages, not just the last sample.
            reg.histogram("cluster_stage_skew_seconds", &[], SKEW_BUCKETS).observe(spread);
        }
        for (c, chip) in self.chips.iter_mut().enumerate() {
            chip.advance_barrier(starts[c]);
        }

        // 1b. Host-placed math: the per-stage sqrt/inverse refresh
        // *gates* this chip's stage (the staged constants it produces
        // are Volume/Flux inputs), so its window anchors at the chip's
        // stage entry and the chip's barrier advances to its end.
        // Nothing happens on the legacy path (cost is ZERO when no
        // placement or nothing stays on the host).
        for (c, chip) in self.chips.iter_mut().enumerate() {
            let cost = self.math_host_cost[c];
            if cost.seconds <= 0.0 {
                continue;
            }
            let (t0, t1) =
                chip.charge_host_math(starts[c], cost.seconds, cost.joules, self.math_host_ops[c]);
            chip.advance_barrier(t1);
            end_kernel_span_at(chip, Kernel::HostPreprocess, stage as u8, t0, t1);
            self.math.host_seconds[c] += t1 - t0;
            self.math.exposed_seconds[c] += (t1 - starts[c]).max(0.0);
            if let Some(reg) = metrics {
                chip_float(reg, "cluster_math_host_seconds_total", c).add(t1 - t0);
                chip_float(reg, "cluster_math_exposed_seconds_total", c)
                    .add((t1 - starts[c]).max(0.0));
            }
        }

        // The halo window (2a–2d) rides the off-chip lane; snapshot each
        // chip's lane time and energy here so its close can publish the
        // deltas.
        let halo_open: Vec<(f64, f64)> = if metrics.is_some() {
            self.chips.iter().map(|c| (c.offchip_time(), c.ledger().dynamic())).collect()
        } else {
            Vec::new()
        };

        // 2a. Halo send snapshot. Functionally extract the send sets
        // first — every message must carry *pre-stage* variables even
        // though the sequential message loop interleaves sends and
        // receives — and charge the snapshot DMAs to each chip's
        // off-chip lane.
        for (s, sends) in self.send_sets.iter().enumerate() {
            self.mappings[s].extract_vars_subset(&mut self.chips[s], sends, &mut self.staging);
            self.chips[s].replay(&self.programs[s].halo_store);
        }

        // 2b. The link transfers stream while Volume computes: each
        // message occupies both endpoints' off-chip ports. The whole
        // exchange is *enqueued* ahead of the Volume stream (like an
        // async prefetch, before Volume's trailing Sync raises the
        // program-order barrier), but in simulated time it rides the
        // off-chip lane concurrently with the kernel. Inbound charges
        // are floored at the *sender's* stage entry: a chip running
        // ahead cannot take delivery of a payload its producer has not
        // started computing (a no-op at a barrier). Protocol decision 2:
        // the fenced schedule charges the outbound side here too,
        // interleaved per message ahead of the ghost landing.
        for (i, m) in self.messages.iter().enumerate() {
            let bytes = message_bytes(m);
            let flow = flow_base + i as u64;
            if fenced {
                let d_src = self.chips[m.src].link_transfer(&self.link, bytes, 0.0, flow, false);
                self.halo.link_seconds[m.src] += d_src;
            }
            let d_dst =
                self.chips[m.dst].link_transfer(&self.link, bytes, starts[m.src], flow, true);
            self.halo.link_seconds[m.dst] += d_dst;
            self.halo.messages += 1;
            self.halo.payload_bytes += bytes;
        }

        // 2c. Ghost landing: the received variables reach the ghost
        // blocks functionally, and the landing DMAs occupy both the
        // off-chip lane and the ghost blocks — Flux cannot read a ghost
        // before its data arrives.
        let staging = &self.staging;
        let (mappings, ghosts, programs) = (&self.mappings, &self.ghosts, &self.programs);
        let ghost_block_msgs = &self.ghost_block_msgs;
        self.chips.par_chunks_mut(1).enumerate().for_each(|(c, chunk)| {
            let chip = &mut chunk[0];
            mappings[c].load_vars_subset(chip, staging, &ghosts[c]);
            chip.replay(&programs[c].halo_load);
            record_block_arrivals(chip, &ghost_block_msgs[c], flow_base);
        });

        // 2d. The pipelined schedule's outbound charges ride the lane
        // *behind* the ghost landings: its fence waits only for the
        // ghost blocks, so this tail drains concurrently with
        // Flux/Integration. The HaloExchange span closes on the off-chip
        // lane, where the exchange really ends (typically mid-Volume).
        if !fenced {
            for (i, m) in self.messages.iter().enumerate() {
                let flow = flow_base + i as u64;
                let d_src =
                    self.chips[m.src].link_transfer(&self.link, message_bytes(m), 0.0, flow, false);
                self.halo.link_seconds[m.src] += d_src;
            }
        }
        for (c, chip) in self.chips.iter_mut().enumerate() {
            let t1 = chip.offchip_time();
            end_kernel_span_at(chip, Kernel::HaloExchange, stage as u8, starts[c], t1);
            if metrics.is_some() {
                let (busy0, energy0) = halo_open[c];
                record_cluster_kernel(metrics, c, chip, "HaloExchange", busy0, energy0);
            }
        }

        // 2e. Volume at the chip's stage entry on the compute lane: it
        // reads only each element's own columns, so nothing above
        // delays it — the lane ops did not advance `elapsed`, and the
        // resident blocks are not DMA targets.
        let math_onpim = &mut self.math.onpim_seconds;
        let (math_host_cost, starts_ref) = (&self.math_host_cost, &starts);
        self.chips.par_chunks_mut(1).zip(math_onpim.par_chunks_mut(1)).enumerate().for_each(
            |(c, (chunk, onpim))| {
                let chip = &mut chunk[0];
                // Volume opens at the stage entry unless a math window
                // (host gate or on-PIM refine) pushed this chip past it.
                let mut vol_t0 = if math_host_cost[c].seconds > 0.0 {
                    chip.elapsed().max(starts_ref[c])
                } else {
                    starts_ref[c]
                };
                // On-PIM math refinement runs first on the compute lane:
                // the finalize multiplies write the staged constants
                // Volume is about to broadcast.
                if let Some(math) = &programs[c].math {
                    let t0 = begin_kernel_span(chip);
                    let (busy0, energy0) = kernel_window_open(metrics, chip);
                    let before = chip.elapsed();
                    chip.replay(math);
                    onpim[0] += chip.elapsed() - before;
                    end_kernel_span(chip, Kernel::MathRefine, stage as u8, t0);
                    record_cluster_kernel(metrics, c, chip, "MathRefine", busy0, energy0);
                    if let Some(reg) = metrics {
                        chip_float(reg, "cluster_math_onpim_seconds_total", c)
                            .add((chip.elapsed() - before).max(0.0));
                    }
                    vol_t0 = chip.elapsed();
                }
                let (busy0, energy0) = kernel_window_open(metrics, chip);
                chip.replay(&programs[c].volume);
                end_kernel_span(chip, Kernel::Volume, stage as u8, vol_t0);
                record_cluster_kernel(metrics, c, chip, "Volume", busy0, energy0);
            },
        );

        // 3. Fence (protocol decision 3): only Flux waits for the
        // exchange. Fenced joins the chip's whole off-chip lane;
        // pipelined joins only the ghost blocks Flux reads, so its
        // outbound tail is never charged here. Whatever the Volume
        // window could not hide is the stage's exposed halo. A
        // single-chip cluster running its math fully on-PIM has no halo
        // in flight and no host round-trip left mid-stage, so the fence
        // is provably a no-op and is skipped.
        let skip_fence = self.chips.len() == 1
            && self.math_decisions[0].placement.is_some_and(|p| !p.any_host());
        if !skip_fence {
            for (c, chip) in self.chips.iter_mut().enumerate() {
                let before = chip.elapsed();
                let kind = if fenced {
                    chip.fence_offchip();
                    "offchip"
                } else {
                    chip.fence_blocks(&self.ghost_blocks[c]);
                    "blocks"
                };
                let exposed = chip.elapsed() - before;
                self.halo.exposed_seconds[c] += exposed;
                record_fence_wait(chip, kind, &self.ghost_block_msgs[c], flow_base, before);
                if let Some(reg) = metrics {
                    chip_float(reg, "cluster_exposed_halo_seconds_total", c).add(exposed.max(0.0));
                }
            }
        }

        // 4. Flux → Integration on the compute lane. Integration is the
        // one per-stage-varying program: its cache holds one tape per
        // stage.
        self.chips.par_chunks_mut(1).zip(self.programs.par_chunks(1)).enumerate().for_each(
            |(c, (chunk, progs))| {
                let chip = &mut chunk[0];
                let prog = &progs[0];

                let t0 = begin_kernel_span(chip);
                let (busy0, energy0) = kernel_window_open(metrics, chip);
                chip.replay(&prog.flux);
                end_kernel_span(chip, Kernel::Flux, stage as u8, t0);
                record_cluster_kernel(metrics, c, chip, "Flux", busy0, energy0);

                let t0 = begin_kernel_span(chip);
                let (busy0, energy0) = kernel_window_open(metrics, chip);
                chip.replay(prog.integration.for_stage(stage));
                end_kernel_span(chip, Kernel::Integration, stage as u8, t0);
                record_cluster_kernel(metrics, c, chip, "Integration", busy0, energy0);

                end_kernel_span(chip, Kernel::RkStage, stage as u8, starts_ref[c]);
            },
        );

        self.prev_starts = starts;
        self.stage_makespans.push(self.elapsed());
        self.halo.stages += 1;
        self.math.stages += 1;
        if let Some(reg) = metrics {
            reg.counter("cluster_stages_total", &[]).inc();
        }
    }

    /// Per-chip occupancy gauges published at the end of every step:
    /// latest simulated wall-clock, aggregate block-busy time, and
    /// block capacity — everything the capacity-idle share
    /// `1 - block_busy / (num_blocks * elapsed)` needs, measured — and
    /// the heap bytes of each kernel's tapes.
    fn publish_step_gauges(&self) {
        if let Some(reg) = &self.metrics {
            reg.counter("cluster_steps_total", &[]).inc();
            for (c, (chip, programs)) in self.chips.iter().zip(&self.programs).enumerate() {
                let c = c.to_string();
                let labels = [("chip", c.as_str())];
                reg.gauge("cluster_chip_num_blocks", &labels)
                    .set(chip.config().capacity.num_blocks() as f64);
                for (kernel, bytes) in programs.tape_bytes() {
                    reg.gauge(
                        "cluster_chip_tape_bytes",
                        &[("chip", c.as_str()), ("kernel", kernel)],
                    )
                    .set(bytes as f64);
                }
                reg.gauge("cluster_chip_elapsed_seconds", &labels)
                    .set(chip.elapsed().max(chip.offchip_time()));
                reg.gauge("cluster_chip_block_busy_seconds", &labels)
                    .set(chip.total_block_busy_seconds());
            }
        }
    }

    /// Runs `steps` time-steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Merges every chip's resident variables into one global [`State`].
    pub fn state(&mut self) -> State {
        let m = &self.mappings[0];
        let mut out = State::zeros(self.partition.num_elements(), m.num_vars(), m.nodes());
        for c in 0..self.chips.len() {
            self.mappings[c].extract_vars_subset(&mut self.chips[c], &self.residents[c], &mut out);
        }
        out
    }

    /// Finalizes every chip: node-scaled wall-clock and energy ledgers,
    /// in chip order.
    pub fn finish_reports(&self) -> Vec<ExecReport> {
        self.chips.iter().map(|c| c.finish()).collect()
    }

    /// The cluster-wide simulated wall-clock: the slowest chip, counting
    /// any off-chip work still in flight on its lane.
    pub fn elapsed(&self) -> f64 {
        self.chips.iter().fold(0.0f64, |m, c| m.max(c.elapsed()).max(c.offchip_time()))
    }

    /// Per-chip `(compute, off-chip)` lane times, in chip order —
    /// [`pim_sim::PimChip::elapsed`] and [`pim_sim::PimChip::offchip_time`].
    pub fn chip_times(&self) -> Vec<(f64, f64)> {
        self.chips.iter().map(|c| (c.elapsed(), c.offchip_time())).collect()
    }

    /// Per-chip aggregate block-busy seconds, in chip order — the
    /// numerator of the capacity-idle share
    /// `1 − block_busy / (num_blocks × elapsed)`
    /// ([`pim_sim::PimChip::total_block_busy_seconds`]).
    pub fn capacity_busy_seconds(&self) -> Vec<f64> {
        self.chips.iter().map(PimChip::total_block_busy_seconds).collect()
    }

    /// The chips themselves, in chip order, for read-only inspection
    /// (e.g. each block's storage footprint).
    pub fn chips(&self) -> &[PimChip] {
        &self.chips
    }

    /// Per-chip configurations, in chip order.
    pub fn chip_configs(&self) -> Vec<ChipConfig> {
        self.chips.iter().map(PimChip::config).collect()
    }

    /// Per-chip trace process ids (allocated at construction).
    pub fn trace_pids(&mut self) -> Vec<u32> {
        self.chips.iter_mut().map(|c| c.trace_pid()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_isa::InstrStream;
    use wavesim_mesh::Boundary;

    /// The compile-once cache, op for op, against fresh compiles from
    /// each chip's mapping lowered for the same chip — every stage of
    /// Integration included, visited out of order and revisited.
    #[test]
    fn cached_programs_equal_fresh_compiles() {
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let initial = State::zeros(mesh.num_elements(), 4, 8);
        let config = ClusterConfig::new(2).with_math(MathConfig::on_pim());
        let material = AcousticMaterial::new(2.0, 1.0);
        let r = ClusterRunner::new(&mesh, 2, FluxKind::Riemann, material, &initial, 1e-3, config);
        for (c, prog) in r.programs.iter().enumerate() {
            let (m, res, chip) = (&r.mappings[c], &r.residents[c], &r.chips[c]);
            let fresh = |s: InstrStream| chip.lower(&s).unwrap();
            assert_eq!(
                prog.halo_store,
                fresh(m.compile_halo_store_for(&r.send_sets[c])),
                "chip {c}"
            );
            assert_eq!(prog.halo_load, fresh(m.compile_halo_load_for(&r.ghosts[c])), "chip {c}");
            assert_eq!(prog.volume, fresh(m.compile_volume_for(res)), "chip {c}");
            assert_eq!(prog.flux, fresh(m.compile_flux_phased_for(res)), "chip {c}");
            assert_eq!(prog.math, Some(fresh(m.compile_math_stage_for(res))), "chip {c}");
            for s in [4, 0, 3, 1, 2, 4] {
                let stage = fresh(m.compile_integration_for(res, s));
                assert_eq!(prog.integration.for_stage(s), &stage, "chip {c} stage {s}");
            }
        }
    }

    /// The runner keeps tapes instead of streams so the program cache
    /// shrinks: a kernel's tape takes fewer bytes than its stream's
    /// 16-byte instructions, and Volume — one template group —
    /// under a quarter of them.
    #[test]
    fn tapes_take_less_memory_than_their_streams() {
        let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
        let initial = State::zeros(mesh.num_elements(), 4, 8);
        let material = AcousticMaterial::new(2.0, 1.0);
        let r = ClusterRunner::new(
            &mesh,
            2,
            FluxKind::Riemann,
            material,
            &initial,
            1e-3,
            ClusterConfig::new(2),
        );
        let stream_bytes = |t: &Tape| t.len() * std::mem::size_of::<pim_isa::Instr>();
        for prog in &r.programs {
            for (tape, share) in [(&prog.volume, 0.25), (&prog.flux, 1.0)] {
                assert!(
                    (tape.heap_bytes() as f64) < share * stream_bytes(tape) as f64,
                    "{} tape bytes for a {}-byte stream",
                    tape.heap_bytes(),
                    stream_bytes(tape)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "no on-PIM math streams")]
    fn four_block_mappings_refuse_onpim_math() {
        use wave_pim::compiler_elastic::ElasticMapping;
        use wavesim_dg::ElasticMaterial;
        let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
        let initial = State::zeros(mesh.num_elements(), 9, 8);
        let mapping = ElasticMapping::uniform(mesh, 2, FluxKind::Riemann, ElasticMaterial::UNIT);
        let config = ClusterConfig::new(2).with_math(MathConfig::on_pim());
        let _ = ClusterRunner::with_mapping(mapping, &initial, 1e-3, config);
    }
}

//! Lowered programs: the two tapes [`crate::PimChip::lower`] makes of an
//! instruction stream and [`crate::PimChip::replay`] runs.
//!
//! A [`Tape`] splits one stream into
//! - a *functional tape* of 8-byte ops that move and compute cell data.
//!   Block-local ops name no block: they act on the *current* block,
//!   which a `Block` op sets and a `Copy` moves to its destination. A
//!   same-block `Read` followed by a `Write` of as many words is one
//!   `Move`;
//! - a *timing tape* of steps in issue order. A run of consecutive
//!   block-local ops on one block is one step plus one cost id per op
//!   (1 byte, 2 when a tape holds more than 256 distinct block-op
//!   costs). Transfers, DMAs and barriers are one step each, and a
//!   transfer's route is stored as the dense resource slots it holds,
//!   once per change of route.
//!
//! Everything a stream's timing needs except the LUT fault outcome is
//! static, so the seconds and joules of every op sit in two small
//! per-tape cost tables.
//!
//! A kernel runs one run per element on each element's block, and
//! consecutive elements' runs are the same ops on different blocks. A
//! run whose entries equal the run just before it, on a block that run's
//! *template group* does not hold yet, is not stored again: its block
//! joins the group's block list. A group is the first run's entries in
//! both tapes, then one `Repeat` op and step naming its `Group`; it
//! never spans a transfer, a DMA, a `Lut` or a `Sync`. The grouping is
//! a function of the stream alone, so a stream lowered in parts gives
//! the tape it gives lowered whole.
//!
//! The compilers hand such a kernel phase over as one run and its block
//! set ([`crate::Lowering::repeat`]): the run is lowered op by op once,
//! and each further block joins its group without being lowered again,
//! so lowering a phase costs one element's ops plus one block id per
//! element.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use pim_isa::{AluOp, Instr, StreamStats, BLOCK_ROWS, WORDS_PER_ROW};
use pim_trace::Payload;

use crate::block::OpCost;
use crate::chip::ChipConfig;
use crate::params;

/// A stream lowered for one chip configuration: what
/// [`crate::PimChip::replay`] runs. It keeps the stream's length and
/// [`StreamStats`] for host dispatch and metrics, so the stream itself
/// can be dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    pub(crate) config: ChipConfig,
    len: usize,
    stats: StreamStats,
    pub(crate) fops: Vec<FOp>,
    /// The `Lut` instructions, in issue order; `FKind::Lut` ops index it.
    pub(crate) luts: Vec<Instr>,
    pub(crate) steps: Vec<Step>,
    /// One cost id per block-local op of every `Step::Run`, in issue
    /// order; the `Step::Run`s consume them.
    pub(crate) run_ids: RunIds,
    /// The template groups, in issue order; `Repeat` ops and steps
    /// index it.
    pub(crate) groups: Vec<Group>,
    /// The groups' repeat blocks, each group's a consecutive range.
    pub(crate) blocks: Vec<u32>,
    pub(crate) op_costs: Vec<Cost>,
    /// Costs of transfers and DMAs, indexed by their steps.
    pub(crate) xfer_costs: Vec<Cost>,
    /// Transfer routes as resource slots, length-prefixed, in issue
    /// order; a transfer over the same slots as the one before it adds
    /// none.
    pub(crate) routes: Vec<u32>,
}

impl Tape {
    /// Instructions in the lowered stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream was empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lowered stream's statistics.
    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Heap bytes the tape holds.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        let ids = match &self.run_ids {
            RunIds::Narrow(v) => size_of_val(&v[..]),
            RunIds::Wide(v) => size_of_val(&v[..]),
        };
        size_of_val(&self.fops[..])
            + size_of_val(&self.luts[..])
            + size_of_val(&self.steps[..])
            + ids
            + size_of_val(&self.groups[..])
            + size_of_val(&self.blocks[..])
            + size_of_val(&self.op_costs[..])
            + size_of_val(&self.xfer_costs[..])
            + size_of_val(&self.routes[..])
    }
}

/// Why a stream cannot be lowered: the first instruction that breaks a
/// bound of the chip or of the block it addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerError {
    /// Position of the offending instruction in the stream.
    pub index: usize,
    pub instr: Instr,
    pub violation: Violation,
}

/// The bound a malformed instruction breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A block id at or past the chip's block count.
    Block { block: u32, num_blocks: u64 },
    /// A row range that is empty or leaves the block's rows.
    Rows { first: u32, last: u32 },
    /// A column span that crosses the row's edge.
    Columns { offset: u32, words: u32 },
    /// A transfer, DMA, `Lut` or barrier in a run repeated over a block
    /// set, which holds block-local instructions only.
    NotBlockLocal,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::Block { block, num_blocks } => {
                write!(f, "block {block} exceeds the chip's {num_blocks} blocks")
            }
            Violation::Rows { first, last } => {
                write!(f, "rows {first}..={last} are not a range inside the block's {BLOCK_ROWS}")
            }
            Violation::Columns { offset, words } => write!(
                f,
                "words {offset}..{} cross the row's {WORDS_PER_ROW}-word edge",
                offset + words
            ),
            Violation::NotBlockLocal => {
                write!(f, "a repeated run holds only Read, Write, Broadcast and Arith")
            }
        }
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed stream: instruction {} ({:?}): {}",
            self.index, self.instr, self.violation
        )
    }
}

impl std::error::Error for LowerError {}

/// One functional op: a kind, three byte operands and two row operands
/// (or one 32-bit operand split across them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FOp {
    pub(crate) kind: FKind,
    pub(crate) c: [u8; 3],
    pub(crate) r: [u16; 2],
}

const _: () = assert!(std::mem::size_of::<FOp>() == 8);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FKind {
    /// Block [`FOp::wide`] becomes current.
    Block,
    /// Row `r[0]`, words `c[0]..c[0] + c[1]` → row buffer.
    Read,
    /// Row buffer → row `r[0]`, words `c[0]..c[0] + c[1]`.
    Write,
    /// A same-block `Read` then `Write` of `c[2]` words: row `r[0]` at
    /// `c[0]` through the row buffer to row `r[1]` at `c[1]`.
    Move,
    /// Row buffer → rows `r[0]..=r[1]`, words `c[0]..c[0] + c[1]`.
    Broadcast,
    /// `c[0] ← c[1] op c[2]` over rows `r[0]..=r[1]`.
    Arith(AluOp),
    /// The first `c[0]` words of the current block's row buffer into
    /// block [`FOp::wide`]'s, which becomes current.
    Copy,
    /// Algorithm 1 for lookup [`FOp::wide`] of [`Tape::luts`].
    Lut,
    /// The body of group [`FOp::wide`] of [`Tape::groups`] — the
    /// functional ops right before this one, which ran on the group's
    /// first block — on each of the group's repeat blocks. The last
    /// becomes current.
    Repeat,
}

impl FOp {
    #[inline]
    fn new(kind: FKind, c: [u8; 3], r: [u16; 2]) -> Self {
        Self { kind, c, r }
    }

    #[inline]
    fn with_wide(kind: FKind, c0: u8, x: u32) -> Self {
        Self { kind, c: [c0, 0, 0], r: [x as u16, (x >> 16) as u16] }
    }

    /// The 32-bit operand of `Block`, `Copy`, `Lut` and `Repeat`.
    #[inline]
    pub(crate) fn wide(&self) -> usize {
        self.r[0] as usize | (self.r[1] as usize) << 16
    }
}

/// One timing step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// `len` consecutive block-local ops on `block`, costed by the next
    /// `len` run ids.
    Run { block: u32, len: u32 },
    /// An interconnect copy, over the next route when `rerouted`, else
    /// over the previous transfer's.
    Copy { src: u32, dst: u32, cost: u32, rerouted: bool },
    /// Algorithm 1 on `holder` and `lut`; `cost` prices its one-word
    /// transfer, routed like a copy's.
    Lut { holder: u32, lut: u32, cost: u32, rerouted: bool },
    /// An off-chip DMA into or out of `block`.
    Dma { block: u32, cost: u32 },
    /// The barrier.
    Sync,
    /// The `Run` step right before, with its run ids, on each repeat
    /// block of group `group`, in order.
    Repeat { group: u32 },
}

/// A template group: consecutive runs of the same ops on distinct
/// blocks. The first run is stored as any run is; the group adds how
/// many functional ops that run holds and the blocks it repeats on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Group {
    /// The first run's functional ops, which the `Repeat` op follows.
    pub(crate) body: u32,
    /// The repeat blocks: `Tape::blocks[start..end]`.
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Group {
    pub(crate) fn blocks(&self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Cost ids of the block-local ops: one byte each while a tape has at
/// most 256 distinct block-op costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RunIds {
    Narrow(Vec<u8>),
    Wide(Vec<u16>),
}

/// Seconds and joules of one op, and where they are charged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cost {
    pub(crate) seconds: f64,
    pub(crate) joules: f64,
    pub(crate) charge: Charge,
}

/// The ledger field and trace payload of a cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Charge {
    Read,
    Write,
    Broadcast,
    Arith(AluOp),
    Transfer { bytes: u64 },
    Offchip { bytes: u64 },
}

impl Cost {
    fn new(cost: OpCost, charge: Charge) -> Self {
        Self { seconds: cost.seconds, joules: cost.joules, charge }
    }

    /// The span payload the interpreter traced for this op.
    pub(crate) fn payload(&self) -> Payload {
        let energy_j = self.joules;
        let op = |op| Payload::BlockOp { op, nor_cycles: 0, energy_j };
        match self.charge {
            Charge::Read => op("read"),
            Charge::Write => op("write"),
            Charge::Broadcast => op("broadcast"),
            Charge::Arith(alu) => Payload::BlockOp {
                op: alu_name(alu),
                nor_cycles: params::alu_cycles(alu),
                energy_j,
            },
            Charge::Transfer { bytes } => Payload::Transfer { bytes, energy_j },
            Charge::Offchip { bytes } => Payload::Offchip { bytes, energy_j },
        }
    }
}

/// Static op name for trace payloads.
fn alu_name(op: AluOp) -> &'static str {
    match op {
        AluOp::Add => "add",
        AluOp::Sub => "sub",
        AluOp::Mul => "mul",
        AluOp::Mac => "mac",
        AluOp::Neg => "neg",
        AluOp::Mov => "mov",
    }
}

/// The per-tape cost tables, each distinct cost once.
struct Costs {
    /// Block-op costs; the run ids index this table.
    ops: Vec<Cost>,
    /// Position in `ops` of each block-op cost by its dense key (below),
    /// `u16::MAX` until seen; allocated on the first block op.
    op_index: Vec<u16>,
    /// Transfer and DMA costs; their steps index this table.
    xfers: Vec<Cost>,
    xfer_index: HashMap<u64, u32>,
    /// The transfer keys seen last, with their ids: a kernel's copies
    /// take few distinct route lengths.
    recent_xfers: [(u64, u32); 4],
}

impl Default for Costs {
    fn default() -> Self {
        Self {
            ops: Vec::new(),
            op_index: Vec::new(),
            xfers: Vec::new(),
            xfer_index: HashMap::new(),
            recent_xfers: [(u64::MAX, 0); 4],
        }
    }
}

/// Dense keys of block-op costs: `Read`, then `Write` by words, `Arith`
/// by op and rows, `Broadcast` by rows and words.
const READ_KEY: usize = 0;
const WRITE_KEYS: usize = READ_KEY + 1;
const ARITH_KEYS: usize = WRITE_KEYS + WORDS_PER_ROW + 1;
const BROADCAST_KEYS: usize = ARITH_KEYS + AluOp::ALL.len() * BLOCK_ROWS;
const OP_KEYS: usize = BROADCAST_KEYS + BLOCK_ROWS * (WORDS_PER_ROW + 1);

impl Costs {
    #[inline]
    fn op_id(&mut self, key: usize, cost: impl FnOnce() -> Cost) -> usize {
        if self.op_index.is_empty() {
            self.op_index = vec![u16::MAX; OP_KEYS];
        }
        let id = &mut self.op_index[key];
        if *id == u16::MAX {
            *id = self.ops.len() as u16;
            self.ops.push(cost());
        }
        *id as usize
    }

    fn xfer_id(&mut self, key: u64, cost: impl FnOnce() -> Cost) -> u32 {
        if let Some(&(_, id)) = self.recent_xfers.iter().find(|(k, _)| *k == key) {
            return id;
        }
        let id = *self.xfer_index.entry(key).or_insert_with(|| {
            self.xfers.push(cost());
            self.xfers.len() as u32 - 1
        });
        self.recent_xfers.rotate_right(1);
        self.recent_xfers[0] = (key, id);
        id
    }
}

impl RunIds {
    fn len(&self) -> usize {
        match self {
            RunIds::Narrow(ids) => ids.len(),
            RunIds::Wide(ids) => ids.len(),
        }
    }

    fn truncate(&mut self, len: usize) {
        match self {
            RunIds::Narrow(ids) => ids.truncate(len),
            RunIds::Wide(ids) => ids.truncate(len),
        }
    }

    /// Whether the ids from `at` on equal those of `earlier`.
    fn tail_equals(&self, at: usize, earlier: Range<usize>) -> bool {
        match self {
            RunIds::Narrow(ids) => ids[at..] == ids[earlier],
            RunIds::Wide(ids) => ids[at..] == ids[earlier],
        }
    }

    fn copy_out(&self, from: usize, into: &mut Vec<u16>) {
        into.clear();
        match self {
            RunIds::Narrow(ids) => into.extend(ids[from..].iter().map(|&i| i as u16)),
            RunIds::Wide(ids) => into.extend_from_slice(&ids[from..]),
        }
    }

    fn extend(&mut self, from: &[u16]) {
        match self {
            RunIds::Narrow(ids) if from.iter().all(|&i| i <= u8::MAX as u16) => {
                ids.extend(from.iter().map(|&i| i as u8))
            }
            _ => from.iter().for_each(|&i| self.push(i as usize)),
        }
    }

    #[inline]
    fn push(&mut self, id: usize) {
        match self {
            RunIds::Narrow(ids) if id <= u8::MAX as usize => ids.push(id as u8),
            RunIds::Narrow(ids) => {
                let mut wide: Vec<u16> = ids.iter().map(|&i| i as u16).collect();
                wide.push(id as u16);
                *self = RunIds::Wide(wide);
            }
            RunIds::Wide(ids) => ids.push(id as u16),
        }
    }
}

/// Builds a [`Tape`] one checked instruction at a time.
pub(crate) struct TapeBuilder {
    config: ChipConfig,
    len: usize,
    stats: StreamStats,
    fops: Vec<FOp>,
    luts: Vec<Instr>,
    steps: Vec<Step>,
    run_ids: RunIds,
    groups: Vec<Group>,
    blocks: Vec<u32>,
    costs: Costs,
    routes: Vec<u32>,
    /// Where the last route starts in `routes`.
    last_route: usize,
    /// The functional pass's current block at this point of the tape.
    current: Option<u32>,
    /// The open run of block-local ops.
    run: Option<OpenRun>,
    /// The last run stored, while nothing but runs that joined its group
    /// came after it: what the next run to close is compared with.
    last: Option<LastRun>,
    /// The blocks of `last` and its group, one bit each.
    members: Vec<u64>,
}

/// A run of block-local ops still being lowered.
struct OpenRun {
    block: u32,
    len: u32,
    /// Where its entries start: its `Block` op (if it has one) in the
    /// functional tape, its first op there, its first run id.
    mark: usize,
    fops: usize,
    ids: usize,
}

/// The entries of the last run stored, and the group of runs that
/// repeat it.
struct LastRun {
    block: u32,
    fops: Range<usize>,
    ids: Range<usize>,
    group: Option<usize>,
}

impl TapeBuilder {
    pub(crate) fn new(config: ChipConfig) -> Self {
        Self {
            config,
            len: 0,
            stats: StreamStats::default(),
            fops: Vec::new(),
            luts: Vec::new(),
            steps: Vec::new(),
            run_ids: RunIds::Narrow(Vec::new()),
            groups: Vec::new(),
            blocks: Vec::new(),
            costs: Costs::default(),
            routes: Vec::new(),
            last_route: 0,
            current: None,
            run: None,
            last: None,
            members: Vec::new(),
        }
    }

    /// Accounts for the next `len` instructions, with `stats`, and
    /// returns how many came before them.
    pub(crate) fn add_part(&mut self, len: usize, stats: &StreamStats) -> usize {
        self.stats.merge(stats);
        let before = self.len;
        self.len += len;
        before
    }

    #[inline]
    fn make_current(&mut self, block: u32) {
        if self.current != Some(block) {
            self.fops.push(FOp::with_wide(FKind::Block, 0, block));
            self.current = Some(block);
        }
    }

    /// The block of the open run of block-local ops, if any.
    pub(crate) fn open_run(&self) -> Option<u32> {
        self.run.as_ref().map(|run| run.block)
    }

    /// How many functional ops and run ids the tape holds so far.
    fn marks(&self) -> (usize, usize) {
        (self.fops.len(), self.run_ids.len())
    }

    /// Copies the open run's functional ops and run ids out of the tape
    /// (nothing without an open run).
    pub(crate) fn copy_open_run(&self, into: (&mut Vec<FOp>, &mut Vec<u16>)) {
        into.0.clear();
        into.1.clear();
        if let Some(run) = &self.run {
            into.0.extend_from_slice(&self.fops[run.fops..]);
            self.run_ids.copy_out(run.ids, into.1);
        }
    }

    /// Opens a run on `block` of the functional ops `fops` and the run
    /// ids `ids`, copied out of this tape's open run before.
    pub(crate) fn repeat_run(&mut self, block: u32, fops: &[FOp], ids: &[u16]) {
        self.start_run(block);
        self.fops.extend_from_slice(fops);
        self.run_ids.extend(ids);
        if let Some(run) = &mut self.run {
            run.len = ids.len() as u32;
        }
    }

    /// Closes the open run and opens an empty one on `block`.
    fn start_run(&mut self, block: u32) {
        self.close_run();
        let mark = self.fops.len();
        self.make_current(block);
        let (fops, ids) = self.marks();
        self.run = Some(OpenRun { block, len: 0, mark, fops, ids });
    }

    /// Stores the open run, if any: as one more block of the last run's
    /// group when its entries equal the last run's and its block is new
    /// to the group, else as a run of its own, which the next run is
    /// compared with.
    fn close_run(&mut self) {
        let Some(run) = self.run.take() else { return };
        if let Some(last) = &mut self.last {
            let joins = run.len as usize == last.ids.len()
                && !bit(&self.members, run.block)
                && self.run_ids.tail_equals(run.ids, last.ids.clone())
                && self.fops[run.fops..] == self.fops[last.fops.clone()];
            if joins {
                self.fops.truncate(run.mark);
                self.run_ids.truncate(run.ids);
                self.join(run.block);
                return;
            }
        }
        self.steps.push(Step::Run { block: run.block, len: run.len });
        self.end_group();
        set_bit(&mut self.members, run.block, true);
        self.last = Some(LastRun {
            block: run.block,
            fops: run.fops..self.fops.len(),
            ids: run.ids..self.run_ids.len(),
            group: None,
        });
    }

    /// Adds `block` to the group of the last run stored, opening the
    /// group if it has none.
    fn join(&mut self, block: u32) {
        let Some(last) = &mut self.last else { return };
        let g = match last.group {
            Some(g) => g,
            None => {
                let g = self.groups.len();
                let start = self.blocks.len() as u32;
                self.groups.push(Group { body: last.fops.len() as u32, start, end: start });
                self.fops.push(FOp::with_wide(FKind::Repeat, 0, g as u32));
                self.steps.push(Step::Repeat { group: g as u32 });
                *last.group.insert(g)
            }
        };
        self.groups[g].end += 1;
        self.blocks.push(block);
        set_bit(&mut self.members, block, true);
    }

    /// [`Self::repeat_run`], closed at once. The entries must equal
    /// those of the run before, still open or stored last, so the block
    /// alone decides whether the run joins that run's group, and nothing
    /// is copied when it does.
    pub(crate) fn repeat_closed(&mut self, block: u32, fops: &[FOp], ids: &[u16]) {
        self.close_run();
        if self.last.is_some() && !bit(&self.members, block) {
            self.current = Some(block);
            self.join(block);
        } else {
            self.repeat_run(block, fops, ids);
            self.close_run();
        }
    }

    /// Closes the open run and its group: the next run starts afresh.
    fn end_runs(&mut self) {
        self.close_run();
        self.end_group();
    }

    fn end_group(&mut self) {
        if let Some(last) = self.last.take() {
            set_bit(&mut self.members, last.block, false);
            if let Some(g) = last.group {
                for &block in &self.blocks[self.groups[g].blocks()] {
                    set_bit(&mut self.members, block, false);
                }
            }
        }
    }

    /// Adds a block-local op on `block` to its run of the timing tape —
    /// `key` names its cost ([`OP_KEYS`]), which `cost` computes on
    /// first sight — and returns whether the run was already open.
    /// Within an open run the functional tape's current block is
    /// `block`; a new run selects it.
    #[inline]
    fn extend_run(&mut self, block: u32, key: usize, cost: impl FnOnce() -> Cost) -> bool {
        let continued = self.open_run() == Some(block);
        if !continued {
            self.start_run(block);
        }
        self.run_ids.push(self.costs.op_id(key, cost));
        if let Some(run) = &mut self.run {
            run.len += 1;
        }
        continued
    }

    #[inline]
    pub(crate) fn read(&mut self, block: u32, row: u16, offset: u8, words: u8) {
        self.extend_run(block, READ_KEY, || Cost::new(OpCost::read(), Charge::Read));
        self.fops.push(FOp::new(FKind::Read, [offset, words, 0], [row, 0]));
    }

    /// A `Write` right after a `Read` of as many words in the same run
    /// fuses with it into one `Move`.
    #[inline]
    pub(crate) fn write(&mut self, block: u32, row: u16, offset: u8, words: u8) {
        let cost = || Cost::new(OpCost::write(words as usize), Charge::Write);
        let continued = self.extend_run(block, WRITE_KEYS + words as usize, cost);
        match self.fops.last_mut() {
            Some(read) if continued && read.kind == FKind::Read && read.c[1] == words => {
                *read = FOp::new(FKind::Move, [read.c[0], offset, words], [read.r[0], row]);
            }
            _ => self.fops.push(FOp::new(FKind::Write, [offset, words, 0], [row, 0])),
        }
    }

    #[inline]
    pub(crate) fn broadcast(&mut self, block: u32, first: u16, last: u16, offset: u8, words: u8) {
        let rows = (last - first + 1) as usize;
        let cost = || Cost::new(OpCost::broadcast(rows, words as usize), Charge::Broadcast);
        let key = BROADCAST_KEYS + (rows - 1) * (WORDS_PER_ROW + 1) + words as usize;
        self.extend_run(block, key, cost);
        self.fops.push(FOp::new(FKind::Broadcast, [offset, words, 0], [first, last]));
    }

    #[inline]
    pub(crate) fn arith(&mut self, block: u32, alu: AluOp, rows: (u16, u16), cols: [u8; 3]) {
        let n = (rows.1 - rows.0 + 1) as usize;
        let cost = || Cost::new(OpCost::arith(alu, n as u64), Charge::Arith(alu));
        self.extend_run(block, ARITH_KEYS + alu as usize * BLOCK_ROWS + n - 1, cost);
        self.fops.push(FOp::new(FKind::Arith(alu), cols, [rows.0, rows.1]));
    }

    /// Records a transfer of `words` words over `slots`, priced
    /// `(seconds, joules)`: its cost id, and whether it needed a new
    /// route.
    fn transfer(
        &mut self,
        words: u16,
        slots: &[u32],
        (seconds, joules): (f64, f64),
    ) -> (u32, bool) {
        let last = &self.routes[self.last_route..];
        let rerouted = last.first() != Some(&(slots.len() as u32)) || last[1..] != *slots;
        if rerouted {
            self.last_route = self.routes.len();
            self.routes.push(slots.len() as u32);
            self.routes.extend_from_slice(slots);
        }
        let charge = Charge::Transfer { bytes: words as u64 * 4 };
        // Transfers keyed by words and hops; DMAs (below) by bytes.
        let key = (words as u64) << 32 | slots.len() as u64;
        (self.costs.xfer_id(key, || Cost { seconds, joules, charge }), rerouted)
    }

    pub(crate) fn copy(
        &mut self,
        (src, dst, words): (u32, u32, u16),
        slots: &[u32],
        cost: (f64, f64),
    ) {
        self.end_runs();
        self.make_current(src);
        let moved = (words as usize).min(WORDS_PER_ROW) as u8;
        self.fops.push(FOp::with_wide(FKind::Copy, moved, dst));
        self.current = Some(dst);
        let (cost, rerouted) = self.transfer(words, slots, cost);
        self.steps.push(Step::Copy { src, dst, cost, rerouted });
    }

    pub(crate) fn lut(
        &mut self,
        instr: Instr,
        (holder, lut): (u32, u32),
        slots: &[u32],
        cost: (f64, f64),
    ) {
        self.end_runs();
        self.fops.push(FOp::with_wide(FKind::Lut, 0, self.luts.len() as u32));
        self.luts.push(instr);
        let (cost, rerouted) = self.transfer(1, slots, cost);
        self.steps.push(Step::Lut { holder, lut, cost, rerouted });
    }

    pub(crate) fn dma(&mut self, block: u32, bytes: u32) {
        self.end_runs();
        let bytes = bytes as u64;
        let cost = self
            .costs
            .xfer_id(1 << 48 | bytes, || Cost::new(OpCost::dma(bytes), Charge::Offchip { bytes }));
        self.steps.push(Step::Dma { block, cost });
    }

    pub(crate) fn sync(&mut self) {
        self.end_runs();
        self.steps.push(Step::Sync);
    }

    pub(crate) fn finish(mut self) -> Tape {
        self.close_run();
        let (mut fops, mut steps, mut routes, mut run_ids, mut groups, mut blocks) =
            (self.fops, self.steps, self.routes, self.run_ids, self.groups, self.blocks);
        fops.shrink_to_fit();
        steps.shrink_to_fit();
        routes.shrink_to_fit();
        groups.shrink_to_fit();
        blocks.shrink_to_fit();
        match &mut run_ids {
            RunIds::Narrow(ids) => ids.shrink_to_fit(),
            RunIds::Wide(ids) => ids.shrink_to_fit(),
        }
        Tape {
            config: self.config,
            len: self.len,
            stats: self.stats,
            fops,
            luts: self.luts,
            steps,
            run_ids,
            groups,
            blocks,
            op_costs: self.costs.ops,
            xfer_costs: self.costs.xfers,
            routes,
        }
    }
}

/// Bit `block` of a growable bit set.
fn bit(set: &[u64], block: u32) -> bool {
    set.get(block as usize / 64).is_some_and(|word| word >> (block % 64) & 1 != 0)
}

fn set_bit(set: &mut Vec<u64>, block: u32, on: bool) {
    let word = block as usize / 64;
    if word >= set.len() {
        set.resize(word + 1, 0);
    }
    let mask = 1 << (block % 64);
    if on {
        set[word] |= mask;
    } else {
        set[word] &= !mask;
    }
}

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
//! Two idioms of the element kernels are one op each, and each names a
//! table of row pairs; each distinct table is stored once:
//! - a *fetch run* is a face's ghost fetch: consecutive `Read` on a
//!   neighbor, `Copy` to the home block and `Write` there, every triple
//!   from one source into one destination over one column span and word
//!   count, so they differ in their rows alone. It is one `Fetch` op
//!   naming a `Fetch` entry (the two blocks and the rows' table) and one
//!   `Fetch` step that times each triple's read, copy and write in that
//!   order, every read costed by the next run id and every write by the
//!   one after. A lone triple is a run of one;
//! - a *gather* is a run of `Move`s in one run that share their columns
//!   and word count, as Volume's derivative gathers are: one `Gather` op
//!   naming its rows' table. Its ops keep their run ids, so the timing
//!   tape does not change.
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
    /// The fetch runs, in issue order; `Fetch` ops index it.
    pub(crate) fetches: Vec<Fetch>,
    /// Each row-pair table: `table_rows[start..end]`, in order of first
    /// use; `Gather` ops and fetch runs index it.
    pub(crate) tables: Vec<[u32; 2]>,
    pub(crate) table_rows: Vec<[u16; 2]>,
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
            + size_of_val(&self.fetches[..])
            + size_of_val(&self.tables[..])
            + size_of_val(&self.table_rows[..])
    }

    /// The row pairs of table `id`.
    #[inline]
    pub(crate) fn table(&self, id: usize) -> &[[u16; 2]] {
        let [start, end] = self.tables[id];
        &self.table_rows[start as usize..end as usize]
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
    /// Fetch run [`FOp::wide`] of [`Tape::fetches`]: for each row pair
    /// of its table, in order, `c[2]` words of the first row of its
    /// source at column `c[0]` through both row buffers into the second
    /// row of its destination at column `c[1]`. The destination becomes
    /// current.
    Fetch,
    /// The `Move`s of `c[2]` words from column `c[0]` to column `c[1]`
    /// over the row pairs of table [`FOp::wide`], in order.
    Gather,
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
        Self::with_cols(kind, [c0, 0, 0], x)
    }

    #[inline]
    fn with_cols(kind: FKind, c: [u8; 3], x: u32) -> Self {
        Self { kind, c, r: [x as u16, (x >> 16) as u16] }
    }

    /// The 32-bit operand of `Block`, `Copy`, `Lut`, `Fetch`, `Gather`
    /// and `Repeat`.
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
    /// A fetch run of `count` fetches from `src` into `dst`, each the
    /// read on `src`, the copy to `dst` and the write on `dst`, in that
    /// order. Every read is costed by the next run id and every write by
    /// the run id after; every copy is costed by `cost` and routed like
    /// a `Copy`, the first over the next route when `rerouted`, the rest
    /// over the first's.
    Fetch { src: u32, dst: u32, cost: u32, count: u16, rerouted: bool },
}

const _: () = assert!(std::mem::size_of::<Step>() == 16);

/// A fetch run's blocks and the table of its `[source row, destination
/// row]` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fetch {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) table: u32,
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

    #[inline]
    pub(crate) fn get(&self, i: usize) -> usize {
        match self {
            RunIds::Narrow(ids) => ids[i] as usize,
            RunIds::Wide(ids) => ids[i] as usize,
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
    fetches: Vec<Fetch>,
    tables: Vec<[u32; 2]>,
    table_rows: Vec<[u16; 2]>,
    /// The first table stored with each fingerprint ([`fingerprint`]).
    table_ids: HashMap<u64, u32>,
    /// The gather op or fetch run still growing, whose table id is stale
    /// until it is sealed, and its row pairs so far. An open fetch run's
    /// op, entry and step are the last of their tapes.
    pending: Option<Pending>,
    pending_rows: Vec<[u16; 2]>,
}

/// What the pending row pairs belong to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// The gather op at this place in the functional tape.
    Gather(usize),
    /// The last fetch run.
    Fetch,
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
            fetches: Vec::new(),
            tables: Vec::new(),
            table_rows: Vec::new(),
            table_ids: HashMap::new(),
            pending: None,
            pending_rows: Vec::new(),
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
    /// (nothing without an open run), its gathers sealed.
    pub(crate) fn copy_open_run(&mut self, into: (&mut Vec<FOp>, &mut Vec<u16>)) {
        self.seal();
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
        self.seal();
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
                self.gather_move();
            }
            _ => self.fops.push(FOp::new(FKind::Write, [offset, words, 0], [row, 0])),
        }
    }

    /// Folds the `Move` just lowered into the op before it when that op
    /// is a `Move` or a gather of the same run with the same columns and
    /// words: the two `Move`s open a gather, or the gather grows by one
    /// row pair (a sealed one is reopened; its sealed table stays for
    /// the ops that name it).
    #[inline(never)]
    fn gather_move(&mut self) {
        let n = self.fops.len();
        let run_start = self.run.as_ref().map_or(n, |run| run.fops);
        if n < run_start + 2 || self.fops[n - 2].c != self.fops[n - 1].c {
            return;
        }
        let (prev, pair) = (self.fops[n - 2], self.fops[n - 1].r);
        let pending = Some(Pending::Gather(n - 2));
        match prev.kind {
            FKind::Gather if self.pending == pending => self.pending_rows.push(pair),
            FKind::Gather => {
                self.seal();
                self.pending = pending;
                let [start, end] = self.tables[prev.wide()];
                for i in start..end {
                    self.pending_rows.push(self.table_rows[i as usize]);
                }
                self.pending_rows.push(pair);
            }
            FKind::Move => {
                self.seal();
                self.pending = pending;
                self.pending_rows.push(prev.r);
                self.pending_rows.push(pair);
                self.fops[n - 2].kind = FKind::Gather;
            }
            _ => return,
        }
        self.fops.pop();
    }

    /// Gives the pending gather or fetch run, if any, the id of its row
    /// pairs' table, storing the table on first sight: equal row pairs
    /// name one table, so a run compares equal to the runs it repeats. A
    /// run repeating the last run stored names that run's table at the
    /// same place, so for a gather that table is tried before any
    /// lookup.
    fn seal(&mut self) {
        let Some(pending) = self.pending.take() else { return };
        let rows = &self.pending_rows[..];
        let (tables, stored) = (&self.tables, &self.table_rows);
        let table = |id: usize| &stored[tables[id][0] as usize..tables[id][1] as usize];
        let same_place = match (pending, &self.run, &self.last) {
            (Pending::Gather(at), Some(run), Some(last)) => {
                last.fops.clone().nth(at - run.fops).map(|i| self.fops[i])
            }
            _ => None,
        };
        let found = match same_place {
            Some(op) if op.kind == FKind::Gather && table(op.wide()) == rows => Some(op.wide()),
            // A fingerprint that names another table sends the search
            // over every table.
            _ => match self.table_ids.get(&fingerprint(rows)) {
                Some(&id) if table(id as usize) == rows => Some(id as usize),
                Some(_) => (0..tables.len()).find(|&id| table(id) == rows),
                None => None,
            },
        };
        let id = found.unwrap_or_else(|| {
            let id = self.tables.len();
            let start = self.table_rows.len() as u32;
            self.table_rows.extend_from_slice(&self.pending_rows);
            self.tables.push([start, self.table_rows.len() as u32]);
            self.table_ids.entry(fingerprint(&self.pending_rows)).or_insert(id as u32);
            id
        }) as u32;
        self.pending_rows.clear();
        match pending {
            Pending::Gather(at) => {
                self.fops[at] = FOp::with_cols(FKind::Gather, self.fops[at].c, id)
            }
            Pending::Fetch => {
                if let Some(fetch) = self.fetches.last_mut() {
                    fetch.table = id;
                }
            }
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

    /// A fetch from row `rows[0]` of `src` at column `cols[0]` into row
    /// `rows[1]` of `dst` at column `cols[1]`, of `cols[2]` words over
    /// `slots`, its transfer priced `cost`. It joins the fetch run just
    /// before it when nothing came between them and the run has the same
    /// blocks and columns; the same blocks mean the same route and cost.
    pub(crate) fn fetch(
        &mut self,
        (src, dst): (u32, u32),
        rows: [u16; 2],
        cols: [u8; 3],
        slots: &[u32],
        cost: (f64, f64),
    ) {
        if self.pending == Some(Pending::Fetch) {
            let last = (self.fops.last(), self.steps.last_mut());
            if let (Some(op), Some(Step::Fetch { src: s, dst: d, count, .. })) = last {
                if (*s, *d) == (src, dst) && op.c == cols && *count < u16::MAX {
                    *count += 1;
                    self.pending_rows.push(rows);
                    return;
                }
            }
        }
        self.end_runs();
        let words = cols[2];
        let read = self.costs.op_id(READ_KEY, || Cost::new(OpCost::read(), Charge::Read));
        let write = self.costs.op_id(WRITE_KEYS + words as usize, || {
            Cost::new(OpCost::write(words as usize), Charge::Write)
        });
        self.run_ids.push(read);
        self.run_ids.push(write);
        self.fops.push(FOp::with_cols(FKind::Fetch, cols, self.fetches.len() as u32));
        self.fetches.push(Fetch { src, dst, table: 0 });
        self.pending = Some(Pending::Fetch);
        self.pending_rows.push(rows);
        self.current = Some(dst);
        let (cost, rerouted) = self.transfer(words as u16, slots, cost);
        self.steps.push(Step::Fetch { src, dst, cost, count: 1, rerouted });
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
        let (tables, table_rows) = self.renumber_tables();
        let (mut fops, mut steps, mut routes, mut run_ids, mut groups, mut blocks) =
            (self.fops, self.steps, self.routes, self.run_ids, self.groups, self.blocks);
        let mut fetches = self.fetches;
        fetches.shrink_to_fit();
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
            fetches,
            tables,
            table_rows,
        }
    }

    /// The tables the gathers and fetch runs name, renumbered in order of
    /// first use. A reopened gather can leave a table nothing names, or
    /// store tables out of that order; this drops and reorders them, so
    /// the tables are a function of the functional tape alone.
    fn renumber_tables(&mut self) -> (Vec<[u32; 2]>, Vec<[u16; 2]>) {
        let mut ids = vec![u32::MAX; self.tables.len()];
        let (mut tables, mut rows) = (Vec::new(), Vec::new());
        for op in &mut self.fops {
            let old = match op.kind {
                FKind::Gather => op.wide(),
                FKind::Fetch => self.fetches[op.wide()].table as usize,
                _ => continue,
            };
            if ids[old] == u32::MAX {
                ids[old] = tables.len() as u32;
                let [start, end] = self.tables[old];
                let first = rows.len() as u32;
                rows.extend_from_slice(&self.table_rows[start as usize..end as usize]);
                tables.push([first, rows.len() as u32]);
            }
            match op.kind {
                FKind::Gather => *op = FOp::with_cols(FKind::Gather, op.c, ids[old]),
                _ => self.fetches[op.wide()].table = ids[old],
            }
        }
        (tables, rows)
    }
}

/// A table's fingerprint: FNV-1a over its row pairs, one pair a
/// step.
fn fingerprint(rows: &[[u16; 2]]) -> u64 {
    rows.iter().fold(0xcbf2_9ce4_8422_2325, |h, &[from, to]| {
        (h ^ ((from as u64) << 16 | to as u64)).wrapping_mul(0x100_0000_01b3)
    })
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

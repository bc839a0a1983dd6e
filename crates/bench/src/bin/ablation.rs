//! Ablation studies of the design choices the paper argues for:
//!
//! 1. pipelining (§6.3 / §7.5),
//! 2. the expansion technique (§6.2),
//! 3. the H-tree vs the bus, per benchmark (§4.2 / §7.6),
//! 4. the H-tree fanout ("the number of children of a tree node does
//!    not have to be 4", §4.2.1),
//! 5. the process node (§7.3).

use pim_isa::BlockId;
use pim_sim::{
    BusNetwork, ChipCapacity, HTreeNetwork, Interconnect, InterconnectKind, ProcessNode, Transfer,
};
use wave_pim::estimate::{estimate, estimate_with_technique, PimSetup};
use wave_pim::planner::Technique;
use wavepim_bench::report::Table;
use wavesim_dg::opcount::Benchmark;

fn main() {
    // 1. Pipelining.
    let mut t = Table::new(
        "Ablation 1: pipelining (2GB, 28nm; time per benchmark, s)",
        &["Benchmark", "Pipelined", "Serial", "Throughput ratio"],
    );
    for b in Benchmark::ALL {
        let mut s = PimSetup::new(ChipCapacity::Gb2, ProcessNode::Nm28);
        let piped = estimate(b, s).total_seconds;
        s.pipelined = false;
        let serial = estimate(b, s).total_seconds;
        t.row(vec![
            b.name().into(),
            format!("{piped:.2}"),
            format!("{serial:.2}"),
            format!("{:.2}x", piped / serial),
        ]);
    }
    t.print();
    println!("(paper §7.5: without pipelining, 0.77x throughput)\n");

    // 2. Expansion: force the naive technique where the planner expands.
    let mut t2 = Table::new(
        "Ablation 2: expansion (Acoustic_4; time per chip, s, 28nm)",
        &["Chip", "Planned", "Forced naive", "Expansion gain"],
    );
    for c in [ChipCapacity::Gb2, ChipCapacity::Gb8, ChipCapacity::Gb16] {
        let s = PimSetup::new(c, ProcessNode::Nm28);
        let planned = estimate(Benchmark::Acoustic4, s);
        let naive = estimate_with_technique(
            Benchmark::Acoustic4,
            s,
            Technique { row_expansion: false, parallel_expansion: false, batches: 1 },
        );
        t2.row(vec![
            c.name().into(),
            format!("{:.2} ({})", planned.total_seconds, planned.technique.label()),
            format!("{:.2}", naive.total_seconds),
            format!("{:.2}x", naive.total_seconds / planned.total_seconds),
        ]);
    }
    t2.print();
    println!("(expansion buys ~2-3x once the chip has 4x the blocks)\n");

    // 3. Interconnect, whole-simulation view.
    let mut t3 = Table::new(
        "Ablation 3: interconnect (unpipelined fetch share per stage, 28nm)",
        &["Benchmark", "Chip", "H-tree time", "Bus time", "Bus/H-tree fetch"],
    );
    for (b, c) in [
        (Benchmark::Acoustic4, ChipCapacity::Mb512),
        (Benchmark::ElasticRiemann4, ChipCapacity::Gb2),
        (Benchmark::Acoustic5, ChipCapacity::Gb8),
    ] {
        let mut s = PimSetup::new(c, ProcessNode::Nm28);
        s.pipelined = false;
        let h = estimate(b, s);
        s.interconnect = InterconnectKind::Bus;
        let bus = estimate(b, s);
        t3.row(vec![
            b.name().into(),
            c.name().into(),
            format!("{:.2}s", h.total_seconds),
            format!("{:.2}s", bus.total_seconds),
            format!("{:.2}x", bus.breakdown.flux_fetch / h.breakdown.flux_fetch),
        ]);
    }
    t3.print();
    println!("(paper: H-tree ≈2.16x fetch-time saving)\n");

    // 4. H-tree fanout on a flux-like transfer batch.
    let mut batch = Vec::new();
    for pair in 0..64u32 {
        for _ in 0..64 {
            batch.push(Transfer { src: BlockId(pair * 4), dst: BlockId(pair * 4 + 1), words: 4 });
        }
    }
    let mut t4 = Table::new(
        "Ablation 4: H-tree fanout (64 sibling pairs x 64 copies)",
        &["Fanout", "Levels", "Switches/tile", "Makespan", "Energy"],
    );
    for fanout in [2u32, 4, 16] {
        let net = HTreeNetwork::with_fanout(fanout);
        let s = net.schedule(&batch);
        t4.row(vec![
            fanout.to_string(),
            net.levels().to_string(),
            net.switches_per_tile().to_string(),
            format!("{:.2}us", s.makespan * 1e6),
            format!("{:.2}nJ", s.energy * 1e9),
        ]);
    }
    let bus = BusNetwork::new().schedule(&batch);
    t4.row(vec![
        "bus".into(),
        "-".into(),
        "1".into(),
        format!("{:.2}us", bus.makespan * 1e6),
        format!("{:.2}nJ", bus.energy * 1e9),
    ]);
    t4.print();
    println!();

    // 5. Process node.
    let mut t5 =
        Table::new("Ablation 5: process node (Acoustic_5, 16GB)", &["Node", "Time", "Energy"]);
    for node in [ProcessNode::Nm28, ProcessNode::Nm12] {
        let e = estimate(Benchmark::Acoustic5, PimSetup::new(ChipCapacity::Gb16, node));
        t5.row(vec![
            node.name().into(),
            format!("{:.3}s", e.total_seconds),
            format!("{:.1}J", e.total_joules()),
        ]);
    }
    t5.print();
    println!("(§7.3: 12nm = 3.81x performance, 2.0x energy)");
}

//! Regenerates the paper's evaluation in paper order — Table 1, the §3.1
//! motivation, Tables 2–6, Figures 11–14 and the §7.3/§7.4/§8
//! aggregates — printing every value from the one document that it then
//! writes as `BENCH_paper.json`.

use wavepim_bench::paper::{paper, Json};
use wavepim_bench::report::{fmt_ratio, fmt_seconds, Table};

fn main() {
    let doc = paper();
    table1(&doc["table1"]);
    println!();
    section3_1(&doc["section3_1"]);
    println!();
    table2(&doc["table2"], &doc["table3"]["Total"]["power_w"]);
    println!();
    table3(&doc["table3"]);
    println!();
    table4(&doc["table4"]);
    println!();
    table5(&doc["table5"]);
    println!();
    table6(&doc["table6"]);
    println!();
    normalized(&doc["fig11"], "Figure 11", "Time", "speedup view", "time");
    println!();
    normalized(&doc["fig12"], "Figure 12", "Energy", "savings view", "energy");
    println!();
    fig13(&doc["fig13"]);
    println!();
    fig14(&doc["fig14"], &doc["summary"]["headline"]["htree_over_bus"]);
    println!();
    summary(&doc["summary"]);

    let path = wavepim_bench::artifacts::write_artifact("BENCH_paper.json", &doc.render())
        .expect("write BENCH_paper.json");
    println!("\nWrote {}.", path.display());
}

/// Prints one row per entry of `rows`: the entry's key, then each of its
/// fields through `cell`.
fn keyed_table(title: &str, headers: &[&str], rows: &Json, cell: impl Fn(&Json) -> String) {
    let mut t = Table::new(title, headers);
    for (key, row) in rows.entries() {
        t.row([vec![key.clone()], row.entries().iter().map(|(_, v)| cell(v)).collect()].concat());
    }
    t.print();
}

fn table1(doc: &Json) {
    let title = "Table 1: Terms Used in dG Discretization (and where they live here)";
    keyed_table(title, &["Term", "Meaning", "Implemented in"], doc, |v| v.str().into());
}

fn section3_1(doc: &Json) {
    let paper = ["94.35x / 100.25x / 123.38x", "131.10x / 223.95x / 369.05x"];
    let mut t = Table::new(
        "Section 3.1: GPU Speedup over Dual Xeon Platinum 8160 (48 cores)",
        &["Level", "CPU time", "GTX 1080Ti", "Tesla P100", "Tesla V100", "Paper"],
    );
    for ((_, r), paper) in doc.entries().iter().zip(paper) {
        let mut row = vec![r["level"].num().to_string(), fmt_seconds(r["cpu_seconds"].num())];
        row.extend(r["speedup"].entries().iter().map(|(_, v)| fmt_ratio(v.num())));
        row.push(paper.into());
        t.row(row);
    }
    t.print();
    println!("\nThe 1080Ti column is the calibration anchor (see gpu_model::cpu);");
    println!("the P100/V100 columns are predictions of the GPU roofline model.");
}

fn table2(doc: &Json, static_power: &Json) {
    let mut t = Table::new(
        "Table 2: Hardware Configurations",
        &["Platform", "Name", "Process", "Clock", "Memory", "Mem BW", "FP32 peak"],
    );
    for (name, r) in doc.entries() {
        let tflops = r["peak_fp32"].num() / 1e12;
        t.row(vec![
            r["platform"].str().into(),
            name.clone(),
            format!("{}nm", r["process_nm"].num()),
            format!("{:.0}MHz", r["clock_hz"].num() / 1e6),
            r["memory"].str().into(),
            format!("{:.0}GBps", r["mem_bandwidth"].num() / 1e9),
            match r["platform"].str() {
                "PIM" => format!("{tflops:.2}TFLOPS (2GB)"),
                _ => format!("{tflops:.1}TFLOPS"),
            },
        ]);
    }
    t.print();
    let (htree, bus) = (static_power["htree"].num(), static_power["bus"].num());
    println!("\nPIM static power (2GB): {htree:.2}W (H-tree) / {bus:.2}W (Bus)");
}

fn table3(doc: &Json) {
    let cell = |v: &Json| match v {
        Json::Str(s) => s.clone(),
        Json::Num(w) if *w < 1.0 => format!("{:.2}mW", w * 1e3),
        Json::Num(w) => format!("{w:.2}W"),
        pair => format!("{:.2}W (H-tree) / {:.2}W (Bus)", pair["htree"].num(), pair["bus"].num()),
    };
    let headers = ["Component", "Param", "Value", "Power"];
    keyed_table("Table 3: PIM Parameters (2GB capacity)", &headers, doc, cell);
    println!("\nPaper totals: 115.02W (H-tree) / 109.25W (Bus); our component roll-up");
    println!("differs by ~2W because the paper's own rows do not sum to its total.");
}

fn table4(doc: &Json) {
    let mut t = Table::new(
        "Table 4: PIM Basic Operation Energy (E) and Time (T)",
        &["E_set", "E_reset", "E_NOR", "E_search", "T_NOR", "T_search"],
    );
    t.row(vec![
        format!("{:.1}fJ", doc["e_set_j"].num() * 1e15),
        format!("{:.2}fJ", doc["e_reset_j"].num() * 1e15),
        format!("{:.2}fJ", doc["e_nor_j"].num() * 1e15),
        format!("{:.2}pJ", doc["e_search_j"].num() * 1e12),
        format!("{:.1}ns", doc["t_nor_s"].num() * 1e9),
        format!("{:.1}ns", doc["t_search_s"].num() * 1e9),
    ]);
    t.print();
    println!("\nDerived bit-serial FP32 latencies (calibrated to the Table 2 throughput):");
    let [add, mul, mac] = ["add", "mul", "mac"].map(|op| doc[&format!("fp32_{op}_cycles")].num());
    println!("  add: {add} NOR cycles   mul: {mul} NOR cycles   mac: {mac} NOR cycles");
}

fn table5(doc: &Json) {
    let cell = |c: &Json| match c["batches"].num() {
        b if b > 1.0 => format!("{}({b})", c["technique"].str()),
        _ => c["technique"].str().to_string(),
    };
    let headers = ["Configuration", "512MB", "2GB", "8GB", "16GB"];
    keyed_table("Table 5: PIM Implementation Configuration", &headers, doc, cell);
    println!("\nN = naive, E_p = parallelism expansion, E_r = row-size expansion,");
    println!("B = batching (batch count in parentheses).");
    println!("Paper Table 5: Acoustic_4: N E_p E_p E_p | Elastic_4: E_r&B E_r E_p&E_r E_p&E_r");
    println!("               Acoustic_5: B B N E_p    | Elastic_5: E_r&B E_r&B E_r&B E_r");
}

fn table6(doc: &Json) {
    let paper_fp = [391380992, 990117888, 1472200704, 3131047936_u64, 7920943104, 11777661440];
    let mut t = Table::new(
        "Table 6: Characteristics of Benchmarks Used for Evaluation",
        &["Benchmark", "Level", "Elements", "Instructions", "FP Ops", "Paper FP Ops"],
    );
    for ((name, r), paper) in doc.entries().iter().zip(paper_fp) {
        let mut row = vec![name.clone()];
        row.extend(r.entries().iter().map(|(_, v)| v.num().to_string()));
        row.push(paper.to_string());
        t.row(row);
    }
    t.print();
    println!("\nCounts are for one launch of each kernel (Volume, Flux, Integration),");
    println!("derived analytically from the kernel structure; the paper's came from");
    println!("nvprof on its CUDA implementation. Shape relations (elastic > acoustic,");
    println!("Riemann > central, level 5 = 8 x level 4) hold in both.");
}

/// Figs. 11/12: the normalized matrix, then its reciprocal view.
fn normalized(doc: &Json, fig: &str, quantity: &str, view: &str, noun: &str) {
    let mut headers = vec!["Benchmark"];
    headers.extend(doc.entries()[0].1.entries().iter().map(|(label, _)| label.as_str()));
    let title = format!("{fig}: {quantity} Normalized to Unfused GTX 1080Ti (lower is better)");
    keyed_table(&title, &headers, doc, |v| format!("{:.4}", v.num()));
    println!();
    let title = format!("{fig} ({view}): Unfused-1080Ti {noun} / config {noun}");
    keyed_table(&title, &headers, doc, |v| fmt_ratio(1.0 / v.num()));
}

fn fig13(doc: &Json) {
    let analytic = &doc["analytic"];
    let makespan = analytic["makespan"].num();
    let segments = analytic["segments"].items();
    let span = |s: &Json| (fmt_seconds(s["start"].num()), fmt_seconds(s["end"].num()));
    println!("== Figure 13: Pipeline Breakdown (Acoustic_4, PIM-2GB, one LSRK stage) ==");
    println!("{:<14} {:<16} {:>10} {:>10}", "Lane", "Segment", "Start", "End");
    println!("{}", "-".repeat(54));
    for s in segments {
        let (start, end) = span(s);
        println!("{:<14} {:<16} {start:>10} {end:>10}", s["lane"].str(), s["label"].str());
    }
    println!("{}", "-".repeat(54));
    println!("Pipelined stage makespan: {}", fmt_seconds(makespan));
    let serial = fmt_ratio(analytic["throughput_without_pipelining"].num());
    println!("Throughput without pipelining: {serial} of pipelined (paper reports 0.77x)");
    // ASCII rendering of the swimlanes.
    println!("\nTimeline ({} total):", fmt_seconds(makespan));
    let width = 64.0;
    for s in segments {
        let a = (s["start"].num() / makespan * width) as usize;
        let b = ((s["end"].num() / makespan * width) as usize).max(a + 1);
        let bar: String =
            (0..width as usize).map(|i| if i >= a && i < b { '#' } else { '.' }).collect();
        println!("{:<14} |{bar}| {}", s["lane"].str(), s["label"].str());
    }

    // The same stage picture rebuilt from an actual traced run of the
    // functional simulator (quickstart problem, one time-step).
    let obs = &doc["observed"];
    println!("\n== Observed (traced run, Acoustic n=4, level-1 mesh, 5 LSRK stages) ==");
    println!("{:<14} {:>6} {:>12} {:>12}", "Kernel", "Stage", "Start", "End");
    println!("{}", "-".repeat(48));
    for s in obs["segments"].items() {
        let (start, end) = span(s);
        println!("{:<14} {:>6} {start:>12} {end:>12}", s["kernel"].str(), s["stage"].num());
    }
    println!("{}", "-".repeat(48));
    let busy: Vec<String> =
        obs["breakdown"].entries().iter().map(|(_, v)| fmt_seconds(v.num())).collect();
    println!(
        "Per-stage busy time: volume {}, flux fetch {}, flux compute {}, integration {}",
        busy[0], busy[1], busy[2], busy[3]
    );
    println!("Traced step makespan: {}", fmt_seconds(obs["makespan"].num()));
    let order = if obs["order_ok"].bool() { "yes" } else { "NO" };
    println!("Observed kernel ordering matches the pipeline model: {order}");
    let rebuilt = fmt_seconds(obs["rebuilt_makespan"].num());
    println!("Pipeline schedule rebuilt from observed per-stage times: makespan {rebuilt}");
}

fn fig14(doc: &Json, htree_over_bus: &Json) {
    let mut t = Table::new(
        "Figure 14: Comparison between H-Tree and Bus (per-stage time, us)",
        &["Case", "Interconnect", "Intra-element", "Inter-element", "Inter share"],
    );
    for (case, r) in doc.entries() {
        let case = format!("{case}{}", if r["expansion"].bool() { " (expanded)" } else { "" });
        for (name, key) in [("H-tree", "htree"), ("Bus", "bus")] {
            let (intra, inter) = (r[key]["intra"].num(), r[key]["inter"].num());
            t.row(vec![
                case.clone(),
                name.into(),
                format!("{:.1}", intra * 1e6),
                format!("{:.1}", inter * 1e6),
                format!("{:.1}%", 100.0 * inter / (intra + inter)),
            ]);
        }
    }
    t.print();
    let saving = fmt_ratio(htree_over_bus.num());
    println!("\nAverage H-tree fetch-time saving over Bus: {saving} (paper: ~2.16x)");
    println!("Paper inter-element shares: 21.62% (H-tree) / 58.41% (Bus) without");
    println!("expansion; 42.77% / 69.96% with expansion.");
}

fn summary(doc: &Json) {
    // The paper's values: per capacity from §7.3/§7.4, per GPU from §1.
    versus(
        "Average PIM speedup / energy savings by capacity (vs Unfused GTX 1080Ti)",
        &["Capacity", "Speedup (12nm)", "Paper", "Energy savings (28nm)", "Paper"],
        &[
            (&doc["speedup_vs_unfused_1080ti"], &["10.28x", "35.80x", "72.21x", "172.76x"]),
            (&doc["energy_vs_unfused_1080ti"], &["26.62x", "26.82x", "14.28x", "16.01x"]),
        ],
    );
    println!();
    versus(
        "Average PIM speedup vs Fused Tesla V100 (12nm)",
        &["Capacity", "Speedup", "Paper"],
        &[(&doc["speedup_vs_fused_v100"], &["2.30x", "7.89x", "15.97x", "37.39x"])],
    );
    println!();
    versus(
        "16GB PIM vs each GPU platform (averaged over the six benchmarks)",
        &["GPU", "Speedup (12nm)", "Paper", "Energy savings (28nm)", "Paper"],
        &[
            (&doc["speedup_vs_each_gpu"], &["45.31x", "34.52x", "15.89x"]),
            (&doc["energy_vs_each_gpu"], &["13.75x", "10.67x", "5.66x"]),
        ],
    );

    let h = &doc["headline"];
    println!();
    println!("Headline (average over the three GPUs):");
    println!("  speedup        {}   (paper: 41.98x)", fmt_ratio(h["speedup"].num()));
    println!("  energy savings {}   (paper: 12.66x)", fmt_ratio(h["energy_savings"].num()));
    let saving = fmt_ratio(h["htree_over_bus"].num());
    println!("  H-tree fetch-time saving over Bus: {saving} (paper: ~2.16x)");
    for (chip, seconds) in doc["dma_volume_overlap_seconds"].entries() {
        println!("  measured DMA ∩ Volume overlap, {chip}: {:.3} µs/step", seconds.num() * 1e6);
    }
}

/// Our ratios beside the paper's: one `(ours, paper)` column pair per
/// series, one row per key of the first series.
fn versus(title: &str, headers: &[&str], series: &[(&Json, &[&str])]) {
    let mut t = Table::new(title, headers);
    for (i, (key, _)) in series[0].0.entries().iter().enumerate() {
        let mut row = vec![key.clone()];
        for (ours, paper) in series {
            row.extend([fmt_ratio(ours.entries()[i].1.num()), paper[i].to_string()]);
        }
        t.row(row);
    }
    t.print();
}

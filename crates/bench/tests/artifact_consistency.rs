//! Cross-artifact consistency: the tables and figures must tell one
//! coherent story, because they are generated from the same models.

use gpu_model::{benchmark_seconds, GpuImpl, GpuModel};
use pim_sim::{ChipCapacity, ProcessNode};
use wave_pim::estimate::{estimate, PimSetup};
use wave_pim::planner::plan;
use wavepim_bench::cluster::{cluster_json, cluster_scaling_data};
use wavepim_bench::figures::{fig11_data, fig12_data, EvalColumn, PricedPoints};
use wavesim_dg::opcount::Benchmark;

/// The paper's points, priced once for every test in this file.
fn points() -> &'static PricedPoints {
    static POINTS: std::sync::OnceLock<PricedPoints> = std::sync::OnceLock::new();
    POINTS.get_or_init(PricedPoints::paper)
}

#[test]
fn fig11_times_are_reciprocal_consistent_with_raw_models() {
    // The normalized figure must equal the raw model ratio for a spot
    // check on every benchmark.
    for (b, row) in fig11_data(points()) {
        let baseline = benchmark_seconds(b, GpuModel::Gtx1080Ti, GpuImpl::Unfused);
        let v100 = benchmark_seconds(b, GpuModel::TeslaV100, GpuImpl::Unfused);
        let cell = row.iter().find(|(l, _)| l == "Unfused-TeslaV100").map(|(_, v)| *v).unwrap();
        assert!((cell - v100 / baseline).abs() < 1e-12, "{}", b.name());
    }
}

#[test]
fn fig11_jumps_align_with_table5_technique_changes() {
    // Where Table 5 keeps the technique fixed across capacities, the
    // normalized time must not change (same mapping, same chip-internal
    // behavior in our model); where it changes, time must improve.
    for b in Benchmark::ALL {
        let caps = ChipCapacity::ALL;
        for w in caps.windows(2) {
            let (c1, c2) = (w[0], w[1]);
            let t1 = plan(b, c1);
            let t2 = plan(b, c2);
            let e1 = estimate(b, PimSetup::new(c1, ProcessNode::Nm12)).total_seconds;
            let e2 = estimate(b, PimSetup::new(c2, ProcessNode::Nm12)).total_seconds;
            if t1 == t2 {
                assert!(
                    (e1 - e2).abs() < 1e-9 * e1,
                    "{} {}->{}: same technique, different time {e1} vs {e2}",
                    b.name(),
                    c1.name(),
                    c2.name()
                );
            } else {
                assert!(
                    e2 < e1,
                    "{} {}->{}: technique changed ({} -> {}) but no speedup",
                    b.name(),
                    c1.name(),
                    c2.name(),
                    t1.label(),
                    t2.label()
                );
            }
        }
    }
}

#[test]
fn energy_and_time_figures_share_the_pim_ranking_per_benchmark() {
    // Within one benchmark, if a PIM config is slower AND burns more
    // power (bigger chip), it must not come out cheaper in energy at the
    // same process node… energy = power × time makes faster+smaller
    // dominate. (Spot-check with 512MB vs 16GB on a level-4 workload,
    // where 16GB has idle tiles.)
    let small = estimate(Benchmark::Acoustic4, PimSetup::new(ChipCapacity::Gb2, ProcessNode::Nm28));
    let big = estimate(Benchmark::Acoustic4, PimSetup::new(ChipCapacity::Gb16, ProcessNode::Nm28));
    assert!(big.total_seconds <= small.total_seconds * 1.0001);
    assert!(
        big.total_joules() > small.total_joules(),
        "idle capacity must cost energy: {} vs {}",
        big.total_joules(),
        small.total_joules()
    );
}

#[test]
fn fig12_normalization_is_consistent_with_fig11_columns() {
    // Same column set, same order.
    let t = fig11_data(points());
    let e = fig12_data(points());
    for ((b1, r1), (b2, r2)) in t.iter().zip(&e) {
        assert_eq!(b1.name(), b2.name());
        let l1: Vec<&String> = r1.iter().map(|(l, _)| l).collect();
        let l2: Vec<&String> = r2.iter().map(|(l, _)| l).collect();
        assert_eq!(l1, l2);
    }
}

#[test]
fn nopipeline_column_is_slower_than_its_pipelined_twin() {
    for (b, row) in fig11_data(points()) {
        let piped = row.iter().find(|(l, _)| l == "PIM-2GB-12nm").unwrap().1;
        let nopipe = row.iter().find(|(l, _)| l == "PIM-2GB-12nm-nopipe").unwrap().1;
        assert!(nopipe > piped, "{}: {nopipe} vs {piped}", b.name());
    }
}

#[test]
fn cluster_artifact_schema_tells_a_coherent_scaling_story() {
    // Same schema the `scaling_cluster` binary writes, on a reduced
    // sweep so the test stays fast; the invariants are what the full
    // BENCH_cluster.json must also satisfy.
    let rows = cluster_scaling_data(&[3, 4], &[1, 2, 4]);
    let doc = cluster_json(&rows);
    let v = pim_trace::json::parse(&doc).expect("BENCH_cluster.json schema must parse");
    assert_eq!(v.get("schema_version").and_then(|x| x.as_f64()), Some(2.0));
    let points = v.get("points").and_then(|x| x.as_array()).unwrap();
    // 2 levels × 3 chip counts × 2 interconnects × 2 link arms.
    assert_eq!(points.len(), 24);

    let field = |p: &pim_trace::json::Value, k: &str| p.get(k).and_then(|x| x.as_f64()).unwrap();
    for p in points {
        // Time shares decompose exactly: compute + swap + *exposed* halo
        // = overlapped stage, and compute + swap + raw halo = the
        // bulk-synchronous baseline; the pipelined arm replays the same
        // decomposition on the inbound-only port term.
        let stage = field(p, "stage_seconds");
        let parts = field(p, "compute_seconds_per_stage")
            + field(p, "swap_seconds_per_stage")
            + field(p, "halo_seconds_per_stage");
        assert!((stage - parts).abs() <= 1e-12 * stage, "stage decomposition broke");
        let bulk = field(p, "bulk_stage_seconds");
        let bulk_parts = field(p, "compute_seconds_per_stage")
            + field(p, "swap_seconds_per_stage")
            + field(p, "halo_link_seconds_per_stage");
        assert!((bulk - bulk_parts).abs() <= 1e-12 * bulk, "bulk decomposition broke");
        let pipelined = field(p, "pipelined_stage_seconds");
        let pipelined_parts = field(p, "compute_seconds_per_stage")
            + field(p, "swap_seconds_per_stage")
            + field(p, "pipelined_halo_seconds_per_stage");
        assert!(
            (pipelined - pipelined_parts).abs() <= 1e-12 * pipelined,
            "pipelined decomposition broke"
        );
        let shares = field(p, "utilization") + field(p, "exposed_halo_share");
        assert!(shares <= 1.0 + 1e-12, "shares exceed the stage: {shares}");
        // The exposed halo is exactly the part of the raw port time the
        // Volume window could not hide, and overlap never loses time:
        // for multi-chip points (halo > 0) it must strictly win, since
        // the Volume window is never empty.
        let raw = field(p, "halo_link_seconds_per_stage");
        let exposed = field(p, "halo_seconds_per_stage");
        let volume = field(p, "volume_seconds_per_stage");
        assert!(volume > 0.0 && volume <= field(p, "compute_seconds_per_stage"));
        assert!((exposed - (raw - volume).max(0.0)).abs() <= 1e-15_f64.max(1e-12 * raw));
        assert!(stage <= bulk);
        if raw > 0.0 {
            assert!(stage < bulk, "overlapped stage must beat bulk-synchronous: {stage} vs {bulk}");
        } else {
            assert_eq!(stage, bulk);
        }
        // The pipelined fence waits only for inbound traffic, so its
        // port term and stage are bounded by the fenced ones; slab
        // shards send as many bytes as they receive, so on multi-chip
        // points the inbound-only term is strictly smaller.
        let p_raw = field(p, "pipelined_halo_link_seconds_per_stage");
        let p_exposed = field(p, "pipelined_halo_seconds_per_stage");
        assert!(p_raw <= raw);
        assert!((p_exposed - (p_raw - volume).max(0.0)).abs() <= 1e-15_f64.max(1e-12 * p_raw));
        assert!(pipelined <= stage);
        if raw > 0.0 {
            assert!(p_raw > 0.0 && p_raw < raw);
        } else {
            assert_eq!(pipelined, stage);
        }
        let p_share = field(p, "pipelined_exposed_halo_share");
        assert!((0.0..1.0).contains(&p_share));
    }

    // The halo-wall records: one per (interconnect, level, link arm),
    // and the pipelined wall (if inside the sweep) never sits at a
    // smaller chip count than the fenced one — an inbound-only fence
    // exposes halo no earlier. 0 means the wall is beyond the swept
    // chip counts.
    let walls = v.get("halo_wall").and_then(|x| x.as_array()).unwrap();
    assert_eq!(walls.len(), 8);
    for w in walls {
        let fenced = field(w, "fenced_wall_chips");
        let pipelined = field(w, "pipelined_wall_chips");
        assert!(fenced >= 0.0 && pipelined >= 0.0);
        if fenced > 0.0 && pipelined > 0.0 {
            assert!(pipelined >= fenced);
        }
        assert!(w.get("interconnect").and_then(|x| x.as_str()).is_some());
        assert!(field(w, "link_bandwidth_share") > 0.0);
    }

    // Within one (level, interconnect) series at the *default* link,
    // more chips never slows the fixed problem down — the acceptance
    // bound of the study. (The narrow-link arm exists precisely to put
    // the halo wall inside the sweep, where this can stop holding.)
    for interconnect in ["H-tree", "Bus"] {
        for level in [3.0, 4.0] {
            let series: Vec<f64> = points
                .iter()
                .filter(|p| {
                    p.get("interconnect").and_then(|x| x.as_str()) == Some(interconnect)
                        && field(p, "level") == level
                        && field(p, "link_bandwidth_share") == 1.0
                })
                .map(|p| field(p, "total_seconds"))
                .collect();
            assert_eq!(series.len(), 3);
            for w in series.windows(2) {
                assert!(w[1] <= w[0] * 1.0001, "{interconnect} level {level}: {series:?}");
            }
        }
    }
}

#[test]
fn lens_artifact_schema_decomposes_and_locates_the_wall() {
    // Same schema the `lens_report` binary writes. Real traced runs are
    // exercised in the `lens_analysis` suite (which owns the
    // process-global trace in its own binary); here the points are
    // synthetic so this test can run alongside the other traced tests,
    // and the invariants are purely about the rendered document.
    use pim_cluster::ClusterProtocol;
    use pim_lens::{Analysis, Edge, OverlapBudget, SkewStats};
    use pim_sim::InterconnectKind;
    use std::collections::BTreeMap;
    use wavepim_bench::lens::{lens_json, LensPoint, WallSeries};

    let point = |chips: usize,
                 protocol: ClusterProtocol,
                 blame: &[(&str, f64)],
                 link_seconds: f64,
                 volume_seconds: f64| {
        let blame: BTreeMap<String, f64> = blame.iter().map(|&(k, v)| (k.to_string(), v)).collect();
        let makespan: f64 = blame.values().sum();
        LensPoint {
            level: 3,
            chips,
            protocol,
            interconnect: InterconnectKind::HTree,
            link_share: 1.0 / 64.0,
            steps: 1,
            analysis: Analysis {
                makespan,
                blame,
                critical_path: vec![Edge {
                    chip: 0,
                    t0: 0.0,
                    t1: makespan,
                    category: "compute:Flux".into(),
                }],
                skew: SkewStats::default(),
            },
            budget: OverlapBudget { link_seconds, volume_seconds },
        }
    };
    let below = point(
        2,
        ClusterProtocol::Fenced,
        &[("compute:Volume", 2e-3), ("compute:Flux", 3e-3), ("link_serialization", 1e-4)],
        1.3e-3,
        1.7e-3,
    );
    let past = point(
        4,
        ClusterProtocol::Pipelined,
        &[
            ("compute:Volume", 1e-3),
            ("compute:Flux", 2e-3),
            ("link_serialization", 4e-4),
            ("inbound_ghost_wait", 2e-4),
        ],
        1.3e-3,
        1.2e-3,
    );
    let series = WallSeries {
        interconnect: InterconnectKind::HTree,
        level: 3,
        link_share: 1.0 / 64.0,
        points: vec![below, past],
        lens_wall_chips: Some(4),
    };
    let points = vec![
        point(2, ClusterProtocol::Fenced, &[("compute:Volume", 5e-3)], 0.0, 2e-3),
        point(
            2,
            ClusterProtocol::Pipelined,
            &[("compute:Volume", 4e-3), ("inbound_ghost_wait", 5e-4)],
            0.0,
            2e-3,
        ),
    ];
    let doc = lens_json(&points, &[(series, Some(4))]);
    let v = pim_trace::json::parse(&doc).expect("BENCH_lens.json schema must parse");
    assert_eq!(v.get("schema_version").and_then(|x| x.as_f64()), Some(1.0));
    let field = |obj: &pim_trace::json::Value, k: &str| {
        obj.get(k)
            .and_then(|x| x.as_f64())
            .unwrap_or_else(|| panic!("BENCH_lens.json missing numeric field {k}"))
    };

    let rendered = v.get("points").and_then(|x| x.as_array()).unwrap();
    assert_eq!(rendered.len(), 2);
    for p in rendered {
        // The acceptance arithmetic must be checkable from the artifact
        // alone: the blame map re-sums to the recorded total, and the
        // recorded residual against the makespan stays within 1e-9.
        let blame = p.get("blame").unwrap();
        let total: f64 = ["compute:Volume", "compute:Flux", "inbound_ghost_wait"]
            .iter()
            .filter_map(|k| blame.get(k).and_then(|x| x.as_f64()))
            .sum();
        assert!((total - field(p, "blame_total_seconds")).abs() <= 1e-15);
        assert!(field(p, "blame_residual_seconds") <= 1e-9);
        assert!(field(p, "makespan_seconds") > 0.0);
        assert_eq!(field(p, "critical_path_edges"), 1.0);
        assert!(!p.get("critical_path").and_then(|x| x.as_array()).unwrap().is_empty());
        let protocol = p.get("protocol").and_then(|x| x.as_str()).unwrap();
        if protocol == "fenced" {
            assert!(
                blame.get("inbound_ghost_wait").is_none(),
                "fenced artifact points must carry zero inbound-ghost-wait blame"
            );
        }
        let skew = p.get("skew").expect("points must carry the skew distribution");
        for k in ["count", "min", "mean", "max", "p50", "p95"] {
            assert!(field(skew, k) >= 0.0);
        }
    }

    let walls = v.get("walls").and_then(|x| x.as_array()).unwrap();
    assert_eq!(walls.len(), 1);
    let w = &walls[0];
    assert_eq!(field(w, "estimator_wall_chips"), 4.0);
    assert_eq!(field(w, "lens_wall_chips"), 4.0);
    let series = w.get("series").and_then(|x| x.as_array()).unwrap();
    assert_eq!(series.len(), 2);
    for p in series {
        // The wall condition is recomputable from the recorded budget.
        let exposed = p.get("link_exposed").and_then(|x| x.as_bool()).unwrap();
        assert_eq!(exposed, field(p, "link_seconds") > field(p, "volume_seconds"));
        assert_eq!(exposed, field(p, "chips") >= field(w, "lens_wall_chips"));
        assert!(field(p, "halo_blame_share") >= 0.0);
        assert!(field(p, "compute_share") > 0.0);
        assert!(p.get("dominant").and_then(|x| x.as_str()).is_some());
    }
}

#[test]
fn metrics_artifact_schema_reconciles_and_stays_bounded() {
    // Same schema and invariants the `profile_report` binary gates CI
    // on, at the smoke configuration: every utilization-like share in
    // [0, 1], every reconciliation ≤ 1e-9, exact byte accounting, and
    // the capacity-weighted deal strictly lowering the worst chip's
    // capacity-idle share.
    use wavepim_bench::metrics_report::{
        check_report, metrics_json, profile_report_data, MetricsReportConfig,
    };
    let r = profile_report_data(&MetricsReportConfig::smoke());
    let violations = check_report(&r);
    assert!(violations.is_empty(), "metrics report invariants violated: {violations:#?}");

    let doc = metrics_json(&r);
    let v = pim_trace::json::parse(&doc).expect("BENCH_metrics.json schema must parse");
    assert_eq!(v.get("schema_version").and_then(|x| x.as_f64()), Some(1.0));

    let chips = v.get("chips").and_then(|x| x.as_array()).unwrap();
    assert_eq!(chips.len(), 2);
    for c in chips {
        let f = |k: &str| {
            c.get(k)
                .and_then(|x| x.as_f64())
                .unwrap_or_else(|| panic!("chip row missing numeric field {k}"))
        };
        assert!(f("ledger_rel_err") <= 1e-9);
        assert!(f("trace_rel_err") <= 1e-9);
        assert!(f("kernel_attribution_rel_err") <= 1e-9);
        assert!(f("exposed_rel_err") <= 1e-9);
        assert_eq!(f("dma_bytes") + f("link_bytes"), f("traced_offchip_bytes"));
        assert!((0.0..=1.0).contains(&f("capacity_idle_share")));
        let kernels = c.get("kernels").and_then(|x| x.as_array()).unwrap();
        assert_eq!(kernels.len(), 5, "Setup/Volume/Flux/Integration/HaloExchange rows");
        for k in kernels {
            let u = k.get("utilization").and_then(|x| x.as_f64()).unwrap();
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of bounds");
        }
        assert!(!c.get("opcodes").and_then(|x| x.as_array()).unwrap().is_empty());
    }

    let steps = v.get("per_step").and_then(|x| x.as_array()).unwrap();
    assert_eq!(steps.len(), 2);
    for s in steps {
        assert_eq!(s.get("stages").and_then(|x| x.as_f64()), Some(5.0));
        assert!(s.get("busy_seconds").and_then(|x| x.as_f64()).unwrap() > 0.0);
    }

    let roofline = v.get("roofline").and_then(|x| x.as_array()).unwrap();
    assert_eq!(roofline.len(), 3);
    for k in roofline {
        assert!(k.get("flops").and_then(|x| x.as_f64()).unwrap() > 0.0);
        assert!(k.get("intensity").and_then(|x| x.as_f64()).unwrap() > 0.0);
    }
    // The three kernels run as one fused pass per stage: one measured record.
    let fused = v.get("fused_stage").unwrap();
    assert!(fused.get("seconds").and_then(|x| x.as_f64()).unwrap() > 0.0);
    assert!(fused.get("gflops").and_then(|x| x.as_f64()).unwrap().is_finite());

    let hetero = v.get("heterogeneous").unwrap();
    let drop = hetero.get("idle_drop").and_then(|x| x.as_f64()).unwrap();
    assert!(drop > 0.0, "weighted deal must lower the worst capacity-idle share");
    let weighted = hetero.get("weighted").unwrap();
    assert!(weighted.get("weighted").and_then(|x| x.as_bool()).is_some());

    // Reproducible: every sub-run owns its registry, so a second report
    // renders the same document — except the fused stage's wall-clock
    // seconds and GFLOP/s — whatever else runs in this process meanwhile.
    let again = metrics_json(&profile_report_data(&MetricsReportConfig::smoke()));
    let (first, second) = (mask_wall_clock(&doc), mask_wall_clock(&again));
    assert_eq!(first.len(), second.len(), "BENCH_metrics.json changed shape between runs");
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "BENCH_metrics.json line {} differs between two runs", i + 1);
    }
}

/// The lines of a `BENCH_metrics.json` document with the `fused_stage`
/// row reduced to its deterministic fields (stages, FLOPs, bytes).
fn mask_wall_clock(doc: &str) -> Vec<String> {
    doc.lines()
        .map(|line| match line.trim_start().strip_prefix("\"fused_stage\": ") {
            Some(row) => {
                let v = pim_trace::json::parse(row.trim_end_matches(',')).unwrap();
                let f = |k: &str| v.get(k).and_then(|x| x.as_f64()).unwrap();
                format!("fused_stage {} {} {}", f("stages"), f("flops"), f("bytes"))
            }
            None => line.to_string(),
        })
        .collect()
}

#[test]
fn artifact_writer_honors_the_directory_override() {
    // The bins resolve their output directory through one helper; the
    // env override is how CI or a user redirects every artifact at once.
    let dir = std::env::temp_dir().join(format!("wavepim-artifact-dir-{}", std::process::id()));
    std::env::set_var(wavepim_bench::artifacts::ARTIFACT_DIR_ENV, &dir);
    assert_eq!(wavepim_bench::artifacts::artifact_dir(), dir);
    let path =
        wavepim_bench::artifacts::write_artifact("BENCH_probe.json", "{\"schema_version\": 1}\n")
            .unwrap();
    assert_eq!(path, dir.join("BENCH_probe.json"));
    assert!(path.is_file());
    std::env::remove_var(wavepim_bench::artifacts::ARTIFACT_DIR_ENV);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fleet_artifact_schema_shows_cache_aware_placement_never_losing() {
    // Same schema and gates the `fleet_bench` binary writes CI on, at
    // the smoke configuration: both policy arms account for every job,
    // the pair-swapped trace makes the cache-aware plan hit where the
    // oblivious control cannot and finish sooner, and the sampled jobs
    // replay bit-identically solo. Only deterministic quantities are
    // compared; the wall-clock fields are checked for presence.
    use wavepim_bench::fleet::{check_fleet, fleet_bench_data, fleet_json, FleetBenchConfig};
    let cfg = FleetBenchConfig::smoke();
    let r = fleet_bench_data(&cfg);
    check_fleet(&r).expect("fleet bench invariants");

    let doc = fleet_json(&r);
    let v = pim_trace::json::parse(&doc).expect("BENCH_fleet.json schema must parse");
    assert_eq!(v.get("schema_version").and_then(|x| x.as_f64()), Some(1.0));
    let field = |obj: &pim_trace::json::Value, k: &str| {
        obj.get(k)
            .and_then(|x| x.as_f64())
            .unwrap_or_else(|| panic!("BENCH_fleet.json missing numeric field {k}"))
    };

    let fleet = v.get("fleet").and_then(|x| x.as_array()).unwrap();
    assert_eq!(fleet.len(), 2);
    assert!(fleet.iter().all(|c| c.as_str() == Some("2GB")));
    assert_eq!(field(&v, "trace_jobs") as usize, cfg.rounds * 2 + 2);

    let aware = v.get("cache_aware").unwrap();
    let oblivious = v.get("cache_oblivious").unwrap();
    for arm in [aware, oblivious] {
        assert_eq!(field(arm, "done") + field(arm, "rejected"), field(arm, "jobs"));
        for k in ["wall_seconds", "jobs_per_hour", "p50_latency_seconds", "p99_latency_seconds"] {
            field(arm, k);
        }
        assert!((0.0..=1.0).contains(&field(arm, "worst_idle_share")));
        assert_eq!(field(arm, "deadline_misses"), 0.0);
    }
    assert_eq!(aware.get("policy").and_then(|x| x.as_str()), Some("cache-aware"));
    assert_eq!(oblivious.get("policy").and_then(|x| x.as_str()), Some("cache-oblivious"));

    // The structural cache story: every post-prologue round repeats
    // both program keys, so the aware arm must keep hitting residents,
    // while the swapped submission order starves the oblivious
    // tie-break of every hit, and each hit skips a compile on the
    // virtual timeline. Plans are deterministic, so these are exact
    // properties of the trace, not wall-clock luck.
    assert_eq!(field(aware, "cache_hits"), 3.0);
    assert_eq!(field(oblivious, "cache_hits"), 0.0);
    assert_eq!(field(aware, "plan_makespan"), 688.0);
    assert_eq!(field(oblivious, "plan_makespan"), 720.0);
    field(&v, "throughput_ratio");

    // Equivalence sample: covered at least one pooled-runner reuse and
    // agreed exactly.
    assert!(field(&v, "verified_jobs") >= 1.0);
    assert_eq!(field(&v, "max_solo_diff"), 0.0);
    assert!(field(&v, "max_native_diff") <= 1e-12);

    let jobs = v.get("jobs").and_then(|x| x.as_array()).unwrap();
    assert_eq!(jobs.len(), field(&v, "trace_jobs") as usize);
    assert!(jobs.iter().any(|j| j.get("cache_hit").and_then(|x| x.as_bool()) == Some(true)));
    for j in jobs {
        let chips = j.get("chips").and_then(|x| x.as_array()).unwrap();
        assert!(!chips.is_empty() && chips.len() <= fleet.len());
        field(j, "wait_seconds");
        field(j, "run_seconds");
        let compile = field(j, "compile_seconds");
        if j.get("cache_hit").and_then(|x| x.as_bool()).unwrap() {
            assert_eq!(compile, 0.0, "a cache hit pays no compile");
        }
    }
}

#[test]
fn eval_columns_cover_the_paper_legend() {
    let labels: Vec<String> = EvalColumn::all().iter().map(|c| c.label()).collect();
    for needed in [
        "Unfused-GTX1080Ti",
        "Unfused-TeslaP100",
        "Unfused-TeslaV100",
        "Fused-TeslaV100",
        "PIM-512MB-12nm",
        "PIM-2GB-12nm",
        "PIM-8GB-12nm",
        "PIM-16GB-12nm",
        "PIM-16GB-28nm",
    ] {
        assert!(labels.iter().any(|l| l == needed), "missing column {needed}");
    }
}

#[test]
fn math_artifact_schema_holds_the_accuracy_and_placement_gates() {
    // Same schema and gates the `math_bench` binary writes CI on, at
    // the smoke configuration: the LUT + Newton sequences sit inside
    // the documented ULP bound from the first stage on, every per-op
    // cost is a real measurement, the fully PIM-placed arm exposes no
    // host-math window while the host arm does, and every arm stays
    // within its divergence bound of the native solver.
    use wavepim_bench::math::{check_math, math_bench_data, math_json, MathBenchConfig};
    let cfg = MathBenchConfig::smoke();
    let r = math_bench_data(&cfg);
    check_math(&r).expect("math bench invariants");

    let doc = math_json(&r);
    let v = pim_trace::json::parse(&doc).expect("BENCH_math.json schema must parse");
    assert_eq!(v.get("schema_version").and_then(|x| x.as_f64()), Some(1.0));
    let field = |obj: &pim_trace::json::Value, k: &str| {
        obj.get(k)
            .and_then(|x| x.as_f64())
            .unwrap_or_else(|| panic!("BENCH_math.json missing numeric field {k}"))
    };

    assert_eq!(field(&v, "ulp_bound"), pim_math::ULP_BOUND);
    assert_eq!(field(&v, "cluster_math_bound"), pim_math::CLUSTER_MATH_BOUND);

    // Accuracy rows: seed only, then the per-stage refinement levels.
    let ulp = v.get("ulp").and_then(|x| x.as_array()).unwrap();
    assert_eq!(ulp.len(), 3);
    for row in ulp {
        if field(row, "iters") >= 2.0 {
            assert!(field(row, "sqrt_max_ulp") <= pim_math::ULP_BOUND);
            assert!(field(row, "recip_max_ulp") <= pim_math::ULP_BOUND);
        }
        assert!(field(row, "sqrt_mean_ulp") <= field(row, "sqrt_max_ulp"));
        assert!(field(row, "recip_mean_ulp") <= field(row, "recip_max_ulp"));
    }

    // Per-op rows: positive measured costs for every alternative.
    let per_op = v.get("per_op").and_then(|x| x.as_array()).unwrap();
    assert_eq!(per_op.len(), 2);
    for row in per_op {
        for k in [
            "host_seconds",
            "host_joules",
            "lut_only_seconds",
            "lut_only_joules",
            "lut_newton_seconds",
            "lut_newton_joules",
        ] {
            assert!(field(row, k) > 0.0, "per-op field {k} must be positive");
        }
    }

    // Cluster arms: the exposed-window story and the divergence bounds.
    let host = v.get("host").unwrap();
    let onpim = v.get("onpim").unwrap();
    let auto = v.get("auto").unwrap();
    assert!(field(host, "exposed_seconds_per_stage") > 0.0);
    assert_eq!(field(onpim, "exposed_seconds_per_stage"), 0.0);
    assert_eq!(onpim.get("fully_onpim").and_then(|x| x.as_bool()), Some(true));
    assert!(field(&v, "exposed_reduction_per_stage") > 0.0);
    assert!(field(host, "native_diff") <= 1e-12);
    assert!(field(onpim, "native_diff") <= pim_math::CLUSTER_MATH_BOUND);
    assert!(field(auto, "native_diff") <= pim_math::CLUSTER_MATH_BOUND);
    for arm in [host, onpim, auto] {
        assert!(field(arm, "makespan_per_stage") > 0.0);
        assert_eq!(arm.get("placements").and_then(|x| x.as_array()).unwrap().len(), cfg.chips);
    }
    // The smoke shard sits below the crossover: Auto must resolve to
    // the host and match the host arm's pricing exactly.
    assert!(auto
        .get("placements")
        .and_then(|x| x.as_array())
        .unwrap()
        .iter()
        .all(|p| p.as_str() == Some("host")));
    assert_eq!(field(auto, "host_seconds_per_stage"), field(host, "host_seconds_per_stage"));
}

//! The observability acceptance run behind the `profile_report` binary:
//! one fully instrumented cluster execution whose per-kernel utilization,
//! energy, and opcode breakdown (the Table 6 / Fig. 13 view) is read
//! back *from the metrics registry* and reconciled three ways —
//! metrics ↔ chip energy ledgers ↔ pim-trace aggregates — to ≤1e-9
//! relative, plus a mixed-capacity (2GB + 8GB) partition study showing
//! what the capacity-weighted slice deal buys on the measured
//! capacity-idle share.
//!
//! Everything numeric in [`MetricsReport`] comes out of [`pim_metrics`]
//! snapshots, not out of the runner's own accessors, so the report is an
//! end-to-end test of the instrumentation: a counter wired to the wrong
//! lane or a missed energy charge breaks a reconciliation bound rather
//! than silently misreporting. Each of the four sub-runs (the metered
//! cluster run, the roofline pass and the two partition-study sides)
//! records into its own registry, so no run can see another's series.

use std::sync::Arc;

use pim_cluster::cluster::TAPE_KERNELS;
use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_metrics::{MetricsRegistry, Snapshot};
use pim_sim::{ChipCapacity, ChipConfig};
use pim_trace::TID_OFFCHIP;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

/// The kernels the cluster runner attributes busy time and energy to.
pub const CLUSTER_KERNELS: [&str; 5] = ["Setup", "Volume", "Flux", "Integration", "HaloExchange"];

/// The reconciliation bound every energy cross-check must meet.
pub const RECONCILE_REL: f64 = 1e-9;

/// Problem sizes for [`profile_report_data`].
#[derive(Debug, Clone, Copy)]
pub struct MetricsReportConfig {
    /// Mesh refinement level of the instrumented 2-chip run.
    pub level: u32,
    /// Polynomial order.
    pub n: usize,
    /// Time-steps of the instrumented run.
    pub steps: usize,
    /// Mesh level of the mixed-capacity partition study.
    pub hetero_level: u32,
    /// Time-steps per side of the partition study.
    pub hetero_steps: usize,
}

impl MetricsReportConfig {
    /// The CI smoke configuration: smallest problems that still exercise
    /// every counter and every reconciliation.
    pub fn smoke() -> Self {
        Self { level: 2, n: 2, steps: 2, hetero_level: 3, hetero_steps: 1 }
    }

    /// The full report configuration.
    pub fn full() -> Self {
        Self { level: 3, n: 2, steps: 3, hetero_level: 3, hetero_steps: 3 }
    }
}

/// One kernel's share of a chip's run, read back from the registry.
#[derive(Debug, Clone)]
pub struct KernelRow {
    pub kernel: String,
    pub busy_seconds: f64,
    /// `busy_seconds / elapsed` on the lane the kernel occupies.
    pub utilization: f64,
    pub energy_joules: f64,
    /// Share of the chip's dynamic energy.
    pub energy_share: f64,
}

/// One chip of the instrumented run, with its three-way reconciliation.
#[derive(Debug, Clone)]
pub struct ChipReport {
    pub chip: usize,
    pub capacity: String,
    pub num_blocks: u64,
    pub elapsed_seconds: f64,
    pub block_busy_seconds: f64,
    /// `1 − block_busy / (num_blocks × elapsed)`: the share of the
    /// chip's block-seconds that sat idle.
    pub capacity_idle_share: f64,
    pub exposed_halo_seconds: f64,
    pub barrier_stall_seconds: f64,
    pub dma_bytes: u64,
    pub link_bytes: u64,
    pub traced_offchip_bytes: u64,
    pub metrics_dynamic_joules: f64,
    pub ledger_dynamic_joules: f64,
    pub traced_joules: f64,
    /// |metrics − ledger| / ledger, worst mechanism.
    pub ledger_rel_err: f64,
    /// |traced − ledger| / ledger.
    pub trace_rel_err: f64,
    /// |Σ per-kernel energy − ledger dynamic| / ledger dynamic.
    pub kernel_attribution_rel_err: f64,
    /// |exposed-halo counter − runner accounting| / max(runner, tiny).
    pub exposed_rel_err: f64,
    pub kernels: Vec<KernelRow>,
    /// Executed opcode totals, `(op, count)`.
    pub opcodes: Vec<(String, u64)>,
    /// Heap bytes of each kernel's tapes, `(kernel, bytes)`.
    pub tape_bytes: Vec<(String, u64)>,
}

/// One step's registry delta over the whole cluster.
#[derive(Debug, Clone)]
pub struct StepRow {
    pub step: usize,
    /// LSRK stages the delta saw (must be 5).
    pub stages: u64,
    pub busy_seconds: f64,
    pub energy_joules: f64,
}

/// One cached kernel program's opcode mix on chip 0.
#[derive(Debug, Clone)]
pub struct ProgramMixRow {
    pub kernel: String,
    pub op: String,
    pub count: u64,
}

/// Per-kernel analytic FLOPs/bytes of the native dG solver (roofline).
#[derive(Debug, Clone)]
pub struct RooflineRow {
    pub kernel: String,
    pub flops: u64,
    pub bytes: u64,
    /// FLOPs per byte.
    pub intensity: f64,
}

/// The native solver's measured time: its three kernels run as one fused
/// element pass per LSRK stage, so the wall seconds are one record for
/// all three, against the sum of their analytic FLOPs/bytes.
#[derive(Debug, Clone)]
pub struct FusedStageRow {
    pub stages: u64,
    pub seconds: f64,
    pub flops: u64,
    pub bytes: u64,
    pub gflops: f64,
}

/// One side (weighted or unweighted slice deal) of the mixed-capacity
/// partition study, measured from the per-chip occupancy gauges.
#[derive(Debug, Clone)]
pub struct HeteroSide {
    pub weighted: bool,
    pub slices: Vec<usize>,
    pub elements: Vec<usize>,
    pub elapsed_seconds: f64,
    pub per_chip_idle: Vec<f64>,
    pub max_capacity_idle_share: f64,
}

/// The full report; see the module docs.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    pub level: u32,
    pub n: usize,
    pub steps: usize,
    pub elements: usize,
    pub max_abs_diff_vs_native: f64,
    pub chips: Vec<ChipReport>,
    pub per_step: Vec<StepRow>,
    pub program_mix: Vec<ProgramMixRow>,
    pub roofline: Vec<RooflineRow>,
    pub fused_stage: FusedStageRow,
    pub hetero_level: u32,
    pub hetero_capacities: Vec<String>,
    pub weighted: HeteroSide,
    pub unweighted: HeteroSide,
    /// Unweighted minus weighted max capacity-idle share (must be > 0).
    pub idle_drop: f64,
    /// Lines in the Prometheus text exposition of the metered cluster
    /// run's registry.
    pub prometheus_lines: usize,
}

/// Extracts the value of `label` from a [`pim_metrics::metric_key`]
/// formatted key, e.g. `chip` from `x_total{chip="0",op="read"}`.
fn label_value<'a>(key: &'a str, label: &str) -> Option<&'a str> {
    let needle = format!("{label}=\"");
    let rest = &key[key.find(&needle)? + needle.len()..];
    rest.split('"').next()
}

fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

fn initial_solver(mesh: &HexMesh, n: usize, material: AcousticMaterial) -> Solver<Acoustic> {
    let mut s = Solver::<Acoustic>::uniform(mesh.clone(), n, FluxKind::Riemann, material);
    let tau = std::f64::consts::TAU;
    s.set_initial(|v, x| match v {
        0 => (tau * x.x).sin() + 0.25 * (tau * x.y).cos(),
        1 => 0.5 * (tau * x.y).sin(),
        2 => 0.25 * (tau * (x.x + x.z)).cos(),
        _ => 0.125 * (tau * x.z).sin(),
    });
    s
}

fn fkey(name: &str, labels: &[(&str, &str)]) -> String {
    pim_metrics::metric_key(name, labels)
}

fn fget(d: &Snapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    d.float_counters.get(&fkey(name, labels)).copied().unwrap_or(0.0)
}

fn cget(d: &Snapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    d.counters.get(&fkey(name, labels)).copied().unwrap_or(0)
}

fn gget(d: &Snapshot, name: &str, labels: &[(&str, &str)]) -> f64 {
    d.gauges.get(&fkey(name, labels)).copied().unwrap_or(0.0)
}

fn rel_err(measured: f64, truth: f64) -> f64 {
    if truth == 0.0 {
        measured.abs()
    } else {
        (measured - truth).abs() / truth.abs()
    }
}

/// Runs the instrumented 2-chip cluster, the dG roofline pass, and the
/// mixed-capacity partition study; reads everything back from their
/// registries. The tracer is process-global, so concurrent callers must
/// not trace in between.
pub fn profile_report_data(cfg: &MetricsReportConfig) -> MetricsReport {
    profile_report_into(cfg, &Arc::default())
}

/// [`profile_report_data`] with the metered cluster run recording into
/// `registry` — one a caller may be serving while the report runs.
pub fn profile_report_into(
    cfg: &MetricsReportConfig,
    registry: &Arc<MetricsRegistry>,
) -> MetricsReport {
    let material = AcousticMaterial::new(2.0, 1.0);
    let dt = 1e-3;

    // ---- instrumented + traced cluster run -------------------------------
    let mesh = HexMesh::refinement_level(cfg.level, Boundary::Periodic);
    let mut reference = initial_solver(&mesh, cfg.n, material);

    pim_trace::set_ring_capacity(1 << 23);
    let _ = pim_trace::drain();
    pim_trace::enable();

    let mut cluster = ClusterRunner::new(
        &mesh,
        cfg.n,
        FluxKind::Riemann,
        material,
        reference.state(),
        dt,
        ClusterConfig::new(2).with_metrics(Arc::clone(registry)),
    );
    let mut per_step = Vec::with_capacity(cfg.steps);
    let mut before = registry.snapshot();
    for step in 0..cfg.steps {
        cluster.step();
        let after = registry.snapshot();
        let d = after.delta(&before);
        per_step.push(StepRow {
            step,
            stages: cget(&d, "cluster_stages_total", &[]),
            busy_seconds: d.float_total("cluster_kernel_busy_seconds_total"),
            energy_joules: d.float_total("cluster_kernel_energy_joules_total"),
        });
        before = after;
    }

    let merged = cluster.state();
    let pids = cluster.trace_pids();
    let chip_times = cluster.chip_times();
    let chip_configs = cluster.chip_configs();
    let exposed_runner = cluster.halo_stats().exposed_seconds.clone();
    let reports = cluster.finish_reports();
    pim_trace::disable();
    let (events, dropped) = pim_trace::drain();
    assert_eq!(dropped, 0, "trace ring must hold the whole instrumented run");
    let d = registry.snapshot();

    reference.run(dt, cfg.steps);
    let max_abs_diff_vs_native = merged.max_abs_diff(reference.state());

    const MECHANISMS: [&str; 6] = ["compute", "reads", "writes", "interconnect", "offchip", "host"];
    let mut chips = Vec::with_capacity(reports.len());
    for (i, report) in reports.iter().enumerate() {
        let chip = i.to_string();
        let c: &str = &chip;
        let ledger = [
            report.ledger.compute,
            report.ledger.reads,
            report.ledger.writes,
            report.ledger.interconnect,
            report.ledger.offchip,
            report.ledger.host,
        ];
        let mut ledger_rel_err = 0.0f64;
        let mut metrics_dynamic = 0.0;
        for (mech, truth) in MECHANISMS.iter().zip(ledger) {
            let v = fget(&d, "pim_chip_energy_joules_total", &[("chip", c), ("mechanism", mech)]);
            metrics_dynamic += v;
            if truth > 0.0 || v > 0.0 {
                ledger_rel_err = ledger_rel_err.max(rel_err(v, truth));
            }
        }
        let ledger_dynamic = report.ledger.dynamic();

        let traced_joules: f64 =
            events.iter().filter(|e| e.pid == pids[i]).map(|e| e.payload.energy_j()).sum();
        let traced_offchip_bytes: u64 = events
            .iter()
            .filter(|e| e.pid == pids[i] && e.tid == TID_OFFCHIP)
            .map(|e| e.payload.bytes())
            .sum();

        let elapsed = chip_times[i].0.max(chip_times[i].1);
        let mut kernels = Vec::new();
        let mut attributed = 0.0;
        for kernel in CLUSTER_KERNELS {
            let labels = [("chip", c), ("kernel", kernel)];
            let busy = fget(&d, "cluster_kernel_busy_seconds_total", &labels);
            let energy = fget(&d, "cluster_kernel_energy_joules_total", &labels);
            attributed += energy;
            kernels.push(KernelRow {
                kernel: kernel.to_string(),
                busy_seconds: busy,
                utilization: busy / elapsed,
                energy_joules: energy,
                energy_share: energy / ledger_dynamic,
            });
        }

        let exposed = fget(&d, "cluster_exposed_halo_seconds_total", &[("chip", c)]);
        let opcodes: Vec<(String, u64)> = d
            .counters
            .iter()
            .filter(|(k, _)| {
                base_name(k) == "pim_chip_instrs_total" && label_value(k, "chip") == Some(c)
            })
            .map(|(k, &v)| (label_value(k, "op").unwrap_or("?").to_string(), v))
            .collect();

        let num_blocks = chip_configs[i].capacity.num_blocks();
        let block_busy = gget(&d, "cluster_chip_block_busy_seconds", &[("chip", c)]);
        chips.push(ChipReport {
            chip: i,
            capacity: chip_configs[i].capacity.name().to_string(),
            num_blocks,
            elapsed_seconds: elapsed,
            block_busy_seconds: block_busy,
            capacity_idle_share: 1.0 - block_busy / (num_blocks as f64 * elapsed),
            exposed_halo_seconds: exposed,
            barrier_stall_seconds: fget(&d, "pim_chip_barrier_stall_seconds_total", &[("chip", c)]),
            dma_bytes: cget(&d, "pim_chip_dma_bytes_total", &[("chip", c)]),
            link_bytes: cget(&d, "pim_chip_link_bytes_total", &[("chip", c)]),
            traced_offchip_bytes,
            metrics_dynamic_joules: metrics_dynamic,
            ledger_dynamic_joules: ledger_dynamic,
            traced_joules,
            ledger_rel_err,
            trace_rel_err: rel_err(traced_joules, ledger_dynamic),
            kernel_attribution_rel_err: rel_err(attributed, ledger_dynamic),
            exposed_rel_err: rel_err(exposed, exposed_runner[i]),
            kernels,
            opcodes,
            tape_bytes: TAPE_KERNELS
                .iter()
                .map(|&k| {
                    let bytes = gget(&d, "cluster_chip_tape_bytes", &[("chip", c), ("kernel", k)]);
                    (k.to_string(), bytes as u64)
                })
                .collect(),
        });
    }

    let program_mix: Vec<ProgramMixRow> = d
        .counters
        .iter()
        .filter(|(k, _)| {
            base_name(k) == "cluster_program_instrs_total" && label_value(k, "chip") == Some("0")
        })
        .map(|(k, &v)| ProgramMixRow {
            kernel: label_value(k, "kernel").unwrap_or("?").to_string(),
            op: label_value(k, "op").unwrap_or("?").to_string(),
            count: v,
        })
        .collect();

    // ---- dG roofline pass ------------------------------------------------
    let roofline_registry = MetricsRegistry::new();
    let mut solver = initial_solver(&mesh, cfg.n, material);
    solver.attach_metrics(&roofline_registry);
    solver.run(dt, cfg.steps.max(1));
    let dr = roofline_registry.snapshot();
    let roofline: Vec<RooflineRow> = ["Volume", "Flux", "Integration"]
        .iter()
        .map(|kernel| {
            let labels = [("kernel", *kernel)];
            let flops = cget(&dr, "dg_kernel_flops_total", &labels);
            let bytes = cget(&dr, "dg_kernel_bytes_total", &labels);
            RooflineRow {
                kernel: kernel.to_string(),
                flops,
                bytes,
                intensity: flops as f64 / bytes.max(1) as f64,
            }
        })
        .collect();
    let fused_stage = {
        let seconds = fget(&dr, "dg_stage_seconds_total", &[]);
        let flops = roofline.iter().map(|k| k.flops).sum::<u64>();
        FusedStageRow {
            stages: cget(&dr, "dg_stages_total", &[]),
            seconds,
            flops,
            bytes: roofline.iter().map(|k| k.bytes).sum(),
            gflops: flops as f64 / seconds.max(1e-12) / 1e9,
        }
    };

    // ---- mixed-capacity partition study ----------------------------------
    let hetero_mesh = HexMesh::refinement_level(cfg.hetero_level, Boundary::Periodic);
    let hetero_caps = [ChipCapacity::Gb2, ChipCapacity::Gb8];
    let hetero_side = |weighted: bool| -> HeteroSide {
        let reference = initial_solver(&hetero_mesh, cfg.n, material);
        let mut chip_cfgs = Vec::new();
        for cap in hetero_caps {
            let mut cc = ChipConfig::default_2gb();
            cc.capacity = cap;
            chip_cfgs.push(cc);
        }
        let side_registry = Arc::new(MetricsRegistry::new());
        let mut config =
            ClusterConfig::heterogeneous(chip_cfgs).with_metrics(Arc::clone(&side_registry));
        config.weighted_partition = weighted;

        let mut runner = ClusterRunner::new(
            &hetero_mesh,
            cfg.n,
            FluxKind::Riemann,
            material,
            reference.state(),
            dt,
            config,
        );
        runner.run(cfg.hetero_steps);
        let dh = side_registry.snapshot();

        let slices: Vec<usize> =
            runner.partition().shards().iter().map(|s| s.slice_end - s.slice_begin).collect();
        let elements: Vec<usize> =
            runner.partition().shards().iter().map(|s| s.elements.len()).collect();
        // The cluster clock: the slowest chip's latest gauge.
        let elapsed = (0..2)
            .map(|i| gget(&dh, "cluster_chip_elapsed_seconds", &[("chip", &i.to_string())]))
            .fold(0.0f64, f64::max);
        let per_chip_idle: Vec<f64> = (0..2)
            .map(|i| {
                let c = i.to_string();
                let blocks = gget(&dh, "cluster_chip_num_blocks", &[("chip", &c)]);
                let busy = gget(&dh, "cluster_chip_block_busy_seconds", &[("chip", &c)]);
                1.0 - busy / (blocks * elapsed)
            })
            .collect();
        HeteroSide {
            weighted,
            slices,
            elements,
            elapsed_seconds: elapsed,
            max_capacity_idle_share: per_chip_idle.iter().fold(0.0f64, |m, &x| m.max(x)),
            per_chip_idle,
        }
    };
    let weighted = hetero_side(true);
    let unweighted = hetero_side(false);
    let idle_drop = unweighted.max_capacity_idle_share - weighted.max_capacity_idle_share;

    let prometheus_lines = pim_metrics::export::prometheus_text(&d).lines().count();

    MetricsReport {
        level: cfg.level,
        n: cfg.n,
        steps: cfg.steps,
        elements: mesh.num_elements(),
        max_abs_diff_vs_native,
        chips,
        per_step,
        program_mix,
        roofline,
        fused_stage,
        hetero_level: cfg.hetero_level,
        hetero_capacities: hetero_caps.iter().map(|c| c.name().to_string()).collect(),
        weighted,
        unweighted,
        idle_drop,
        prometheus_lines,
    }
}

/// Every violated invariant of the report, empty when it passes: all
/// utilization-like shares in [0, 1], every reconciliation ≤
/// [`RECONCILE_REL`], byte accounting exact, numerics at roundoff, and
/// the weighted deal strictly lowering the worst capacity-idle share.
pub fn check_report(r: &MetricsReport) -> Vec<String> {
    let mut bad = Vec::new();
    let mut unit = |what: String, x: f64| {
        if !((-1e-12..=1.0 + 1e-12).contains(&x)) {
            bad.push(format!("{what} = {x} outside [0, 1]"));
        }
    };
    for c in &r.chips {
        for k in &c.kernels {
            unit(format!("chip {} {} utilization", c.chip, k.kernel), k.utilization);
            unit(format!("chip {} {} energy share", c.chip, k.kernel), k.energy_share);
        }
        unit(format!("chip {} capacity-idle share", c.chip), c.capacity_idle_share);
    }
    for (side, name) in [(&r.weighted, "weighted"), (&r.unweighted, "unweighted")] {
        for (i, &x) in side.per_chip_idle.iter().enumerate() {
            unit(format!("{name} chip {i} capacity-idle share"), x);
        }
    }

    for c in &r.chips {
        for (what, err) in [
            ("metrics vs ledger", c.ledger_rel_err),
            ("trace vs ledger", c.trace_rel_err),
            ("kernel attribution vs ledger", c.kernel_attribution_rel_err),
            ("exposed halo vs runner", c.exposed_rel_err),
        ] {
            if err > RECONCILE_REL {
                bad.push(format!("chip {}: {what} rel err {err:e} > {RECONCILE_REL:e}", c.chip));
            }
        }
        if c.dma_bytes + c.link_bytes != c.traced_offchip_bytes {
            bad.push(format!(
                "chip {}: metrics bytes {} + {} != traced off-chip bytes {}",
                c.chip, c.dma_bytes, c.link_bytes, c.traced_offchip_bytes
            ));
        }
        if c.kernels.iter().all(|k| k.busy_seconds == 0.0) {
            bad.push(format!("chip {}: no kernel busy time recorded", c.chip));
        }
        if c.opcodes.is_empty() {
            bad.push(format!("chip {}: no opcode counters recorded", c.chip));
        }
    }
    if r.max_abs_diff_vs_native > 1e-12 {
        bad.push(format!("cluster diverged from native dG: {:e}", r.max_abs_diff_vs_native));
    }
    for s in &r.per_step {
        if s.stages != 5 {
            bad.push(format!("step {}: {} stages in delta, expected 5", s.step, s.stages));
        }
        if s.busy_seconds <= 0.0 || s.energy_joules <= 0.0 {
            bad.push(format!("step {}: empty per-step delta", s.step));
        }
    }
    if r.program_mix.is_empty() {
        bad.push("no cached-program opcode mix recorded".into());
    }
    for row in &r.roofline {
        if row.flops == 0 || row.bytes == 0 {
            bad.push(format!("roofline kernel {} has empty counters", row.kernel));
        }
    }
    let fused = &r.fused_stage;
    if fused.stages == 0 || fused.seconds <= 0.0 || !fused.gflops.is_finite() {
        bad.push(format!(
            "fused-stage record is empty: {} stages, {} s, {} GFLOP/s",
            fused.stages, fused.seconds, fused.gflops
        ));
    }
    if r.idle_drop <= 0.0 {
        bad.push(format!(
            "capacity-weighted deal did not lower the worst capacity-idle share: \
             weighted {} vs unweighted {}",
            r.weighted.max_capacity_idle_share, r.unweighted.max_capacity_idle_share
        ));
    }
    bad
}

/// Renders the report as the stable-schema `BENCH_metrics.json`.
pub fn metrics_json(r: &MetricsReport) -> String {
    use std::fmt::Write as _;

    use pim_trace::json::{escape, number};

    let mut out = String::with_capacity(8192);
    out.push_str("{\n  \"schema_version\": 1,\n");
    let _ = writeln!(out, "  \"level\": {},", r.level);
    let _ = writeln!(out, "  \"n\": {},", r.n);
    let _ = writeln!(out, "  \"steps\": {},", r.steps);
    let _ = writeln!(out, "  \"elements\": {},", r.elements);
    let _ = writeln!(out, "  \"max_abs_diff_vs_native\": {},", number(r.max_abs_diff_vs_native));
    let _ = writeln!(out, "  \"prometheus_lines\": {},", r.prometheus_lines);

    out.push_str("  \"chips\": [\n");
    for (ci, c) in r.chips.iter().enumerate() {
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"chip\": {},", c.chip);
        let _ = writeln!(out, "      \"capacity\": {},", escape(&c.capacity));
        let _ = writeln!(out, "      \"num_blocks\": {},", c.num_blocks);
        let _ = writeln!(out, "      \"elapsed_seconds\": {},", number(c.elapsed_seconds));
        let _ = writeln!(out, "      \"block_busy_seconds\": {},", number(c.block_busy_seconds));
        let _ = writeln!(out, "      \"capacity_idle_share\": {},", number(c.capacity_idle_share));
        let _ =
            writeln!(out, "      \"exposed_halo_seconds\": {},", number(c.exposed_halo_seconds));
        let _ =
            writeln!(out, "      \"barrier_stall_seconds\": {},", number(c.barrier_stall_seconds));
        let _ = writeln!(out, "      \"dma_bytes\": {},", c.dma_bytes);
        let _ = writeln!(out, "      \"link_bytes\": {},", c.link_bytes);
        let _ = writeln!(out, "      \"traced_offchip_bytes\": {},", c.traced_offchip_bytes);
        let _ = writeln!(
            out,
            "      \"metrics_dynamic_joules\": {},",
            number(c.metrics_dynamic_joules)
        );
        let _ =
            writeln!(out, "      \"ledger_dynamic_joules\": {},", number(c.ledger_dynamic_joules));
        let _ = writeln!(out, "      \"traced_joules\": {},", number(c.traced_joules));
        let _ = writeln!(out, "      \"ledger_rel_err\": {},", number(c.ledger_rel_err));
        let _ = writeln!(out, "      \"trace_rel_err\": {},", number(c.trace_rel_err));
        let _ = writeln!(
            out,
            "      \"kernel_attribution_rel_err\": {},",
            number(c.kernel_attribution_rel_err)
        );
        let _ = writeln!(out, "      \"exposed_rel_err\": {},", number(c.exposed_rel_err));
        out.push_str("      \"kernels\": [\n");
        for (ki, k) in c.kernels.iter().enumerate() {
            let _ = write!(
                out,
                "        {{\"kernel\": {}, \"busy_seconds\": {}, \"utilization\": {}, \
                 \"energy_joules\": {}, \"energy_share\": {}}}",
                escape(&k.kernel),
                number(k.busy_seconds),
                number(k.utilization),
                number(k.energy_joules),
                number(k.energy_share)
            );
            out.push_str(if ki + 1 < c.kernels.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ],\n");
        out.push_str("      \"opcodes\": [\n");
        for (oi, (op, count)) in c.opcodes.iter().enumerate() {
            let _ = write!(out, "        {{\"op\": {}, \"count\": {}}}", escape(op), count);
            out.push_str(if oi + 1 < c.opcodes.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ],\n");
        out.push_str("      \"tape_bytes\": [\n");
        for (ti, (kernel, bytes)) in c.tape_bytes.iter().enumerate() {
            let _ = write!(out, "        {{\"kernel\": {}, \"bytes\": {}}}", escape(kernel), bytes);
            out.push_str(if ti + 1 < c.tape_bytes.len() { ",\n" } else { "\n" });
        }
        out.push_str("      ]\n");
        out.push_str(if ci + 1 < r.chips.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ],\n");

    out.push_str("  \"per_step\": [\n");
    for (i, s) in r.per_step.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"step\": {}, \"stages\": {}, \"busy_seconds\": {}, \"energy_joules\": {}}}",
            s.step,
            s.stages,
            number(s.busy_seconds),
            number(s.energy_joules)
        );
        out.push_str(if i + 1 < r.per_step.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    out.push_str("  \"program_mix\": [\n");
    for (i, m) in r.program_mix.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kernel\": {}, \"op\": {}, \"count\": {}}}",
            escape(&m.kernel),
            escape(&m.op),
            m.count
        );
        out.push_str(if i + 1 < r.program_mix.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");

    out.push_str("  \"roofline\": [\n");
    for (i, k) in r.roofline.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"kernel\": {}, \"flops\": {}, \"bytes\": {}, \"intensity\": {}}}",
            escape(&k.kernel),
            k.flops,
            k.bytes,
            number(k.intensity)
        );
        out.push_str(if i + 1 < r.roofline.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let f = &r.fused_stage;
    let _ = writeln!(
        out,
        "  \"fused_stage\": {{\"stages\": {}, \"seconds\": {}, \"flops\": {}, \"bytes\": {}, \
         \"gflops\": {}}},",
        f.stages,
        number(f.seconds),
        f.flops,
        f.bytes,
        number(f.gflops)
    );

    let side = |out: &mut String, s: &HeteroSide| {
        let ints = |v: &[usize]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
        let floats = |v: &[f64]| v.iter().map(|&x| number(x)).collect::<Vec<_>>().join(", ");
        let _ = write!(
            out,
            "{{\"weighted\": {}, \"slices\": [{}], \"elements\": [{}], \
             \"elapsed_seconds\": {}, \"per_chip_idle\": [{}], \
             \"max_capacity_idle_share\": {}}}",
            s.weighted,
            ints(&s.slices),
            ints(&s.elements),
            number(s.elapsed_seconds),
            floats(&s.per_chip_idle),
            number(s.max_capacity_idle_share)
        );
    };
    out.push_str("  \"heterogeneous\": {\n");
    let _ = writeln!(out, "    \"level\": {},", r.hetero_level);
    let caps = r.hetero_capacities.iter().map(|c| escape(c)).collect::<Vec<_>>().join(", ");
    let _ = writeln!(out, "    \"capacities\": [{caps}],");
    out.push_str("    \"weighted\": ");
    side(&mut out, &r.weighted);
    out.push_str(",\n    \"unweighted\": ");
    side(&mut out, &r.unweighted);
    out.push_str(",\n");
    let _ = writeln!(out, "    \"idle_drop\": {}", number(r.idle_drop));
    out.push_str("  }\n}\n");
    out
}

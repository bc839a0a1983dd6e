//! Data assembly for Figures 11–14.
//!
//! [`PricedPoints::paper`] prices every (benchmark, PIM setup) point the
//! figures and the summary read, once each; the figure functions and
//! [`crate::summary::headline`] only look those estimates up.

use gpu_model::energy::benchmark_joules;
use gpu_model::{benchmark_seconds, GpuImpl, GpuModel};
use pim_sim::{ChipCapacity, InterconnectKind, ProcessNode};
use wave_pim::estimate::{estimate, Estimate, PimSetup};
use wave_pim::pipeline::{pipelined_timeline, serial_timeline, StageTimeline};
use wavesim_dg::opcount::Benchmark;

/// One column of Figs. 11/12: a platform/configuration under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalColumn {
    Gpu(GpuModel, GpuImpl),
    Pim(ChipCapacity, ProcessNode),
    /// The §7.5 ablation: the 2 GB PIM with pipelining disabled.
    PimNoPipeline(ChipCapacity, ProcessNode),
}

impl EvalColumn {
    /// The paper's Fig. 11/12 column set: three unfused GPUs, two fused
    /// GPUs, the four PIM capacities at 12 nm, the 16 GB PIM at 28 nm,
    /// and the unpipelined ablation.
    pub fn all() -> Vec<EvalColumn> {
        let mut cols = vec![
            EvalColumn::Gpu(GpuModel::Gtx1080Ti, GpuImpl::Unfused),
            EvalColumn::Gpu(GpuModel::TeslaP100, GpuImpl::Unfused),
            EvalColumn::Gpu(GpuModel::TeslaV100, GpuImpl::Unfused),
            EvalColumn::Gpu(GpuModel::Gtx1080Ti, GpuImpl::Fused),
            EvalColumn::Gpu(GpuModel::TeslaV100, GpuImpl::Fused),
        ];
        for c in ChipCapacity::ALL {
            cols.push(EvalColumn::Pim(c, ProcessNode::Nm12));
        }
        cols.push(EvalColumn::Pim(ChipCapacity::Gb16, ProcessNode::Nm28));
        cols.push(EvalColumn::PimNoPipeline(ChipCapacity::Gb2, ProcessNode::Nm12));
        cols
    }

    /// Column label matching the paper's legend style.
    pub fn label(&self) -> String {
        match self {
            EvalColumn::Gpu(g, v) => format!("{}-{}", v.name(), g.name().replace(' ', "")),
            EvalColumn::Pim(c, n) => format!("PIM-{}-{}", c.name(), n.name()),
            EvalColumn::PimNoPipeline(c, n) => {
                format!("PIM-{}-{}-nopipe", c.name(), n.name())
            }
        }
    }

    /// The PIM setup this column evaluates; `None` for a GPU.
    fn setup(&self) -> Option<PimSetup> {
        match *self {
            EvalColumn::Gpu(..) => None,
            EvalColumn::Pim(c, n) => Some(PimSetup::new(c, n)),
            EvalColumn::PimNoPipeline(c, n) => {
                Some(PimSetup { pipelined: false, ..PimSetup::new(c, n) })
            }
        }
    }

    /// Wall-clock seconds and joules for a benchmark on this column.
    fn cost(&self, b: Benchmark, points: &PricedPoints) -> (f64, f64) {
        match (*self, self.setup()) {
            (EvalColumn::Gpu(g, v), _) => (benchmark_seconds(b, g, v), benchmark_joules(b, g, v)),
            (_, setup) => {
                let e = points.get(b, setup.expect("every non-GPU column is a PIM setup"));
                (e.total_seconds, e.total_joules())
            }
        }
    }
}

/// The baseline every bar is normalized to (§7.2: "The unfused GPU
/// implementation runs on GTX 1080Ti is used as the baseline").
pub fn baseline() -> EvalColumn {
    EvalColumn::Gpu(GpuModel::Gtx1080Ti, GpuImpl::Unfused)
}

/// The four case studies of Fig. 14 (§7.6).
const FIG14_CASES: [(Benchmark, ChipCapacity); 4] = [
    (Benchmark::Acoustic4, ChipCapacity::Mb512),
    (Benchmark::Acoustic4, ChipCapacity::Gb2),
    (Benchmark::ElasticCentral4, ChipCapacity::Gb2),
    (Benchmark::ElasticCentral4, ChipCapacity::Gb8),
];

/// A Fig. 14 point: unpipelined at 28 nm on interconnect `ic`.
fn fig14_setup(c: ChipCapacity, ic: InterconnectKind) -> PimSetup {
    PimSetup { interconnect: ic, pipelined: false, ..PimSetup::new(c, ProcessNode::Nm28) }
}

/// Every (benchmark, PIM setup) point of the paper's evaluation, each
/// priced once by [`estimate`].
#[derive(Debug)]
pub struct PricedPoints(Vec<Estimate>);

impl PricedPoints {
    /// Prices each benchmark on every PIM column of Figs. 11/12 and on
    /// every capacity at 28 nm (the §7.4 energy savings), plus the
    /// Fig. 14 cases on both interconnects.
    pub fn paper() -> Self {
        let columns = EvalColumn::all().iter().filter_map(EvalColumn::setup).collect::<Vec<_>>();
        let energy = ChipCapacity::ALL.map(|c| PimSetup::new(c, ProcessNode::Nm28));
        let figures = Benchmark::ALL
            .iter()
            .flat_map(|&b| columns.iter().chain(&energy).map(move |&s| (b, s)));
        let fig14 = FIG14_CASES.iter().flat_map(|&(b, c)| {
            [InterconnectKind::HTree, InterconnectKind::Bus].map(|ic| (b, fig14_setup(c, ic)))
        });
        let mut points: Vec<(Benchmark, PimSetup)> = Vec::new();
        for point in figures.chain(fig14) {
            if !points.contains(&point) {
                points.push(point);
            }
        }
        Self(points.into_iter().map(|(b, s)| estimate(b, s)).collect())
    }

    /// The estimate of one point.
    ///
    /// # Panics
    /// Panics if the point was not priced.
    pub fn get(&self, b: Benchmark, setup: PimSetup) -> &Estimate {
        let found = self.0.iter().find(|e| e.benchmark == b && e.setup == setup);
        found.unwrap_or_else(|| panic!("{} on {setup:?} was not priced", b.name()))
    }
}

/// Per benchmark, (column label, `metric` of the column's
/// `(seconds, joules)` normalized to the unfused 1080Ti).
fn normalized(
    points: &PricedPoints,
    metric: fn((f64, f64)) -> f64,
) -> Vec<(Benchmark, Vec<(String, f64)>)> {
    let cols = EvalColumn::all();
    Benchmark::ALL
        .iter()
        .map(|&b| {
            let base = metric(baseline().cost(b, points));
            let row = cols.iter().map(|c| (c.label(), metric(c.cost(b, points)) / base)).collect();
            (b, row)
        })
        .collect()
}

/// Fig. 11: per benchmark, (column label, time normalized to the
/// unfused 1080Ti).
pub fn fig11_data(points: &PricedPoints) -> Vec<(Benchmark, Vec<(String, f64)>)> {
    normalized(points, |(seconds, _)| seconds)
}

/// Fig. 12: per benchmark, (column label, energy normalized to the
/// unfused 1080Ti).
pub fn fig12_data(points: &PricedPoints) -> Vec<(Benchmark, Vec<(String, f64)>)> {
    normalized(points, |(_, joules)| joules)
}

/// Fig. 13: the pipelined stage timeline of Acoustic_4 on the 2 GB chip,
/// plus the serial/pipelined throughput ratio (§7.5's 0.77×).
pub fn fig13_data(points: &PricedPoints) -> (StageTimeline, f64) {
    let setup = PimSetup::new(ChipCapacity::Gb2, ProcessNode::Nm28);
    let breakdown = &points.get(Benchmark::Acoustic4, setup).breakdown;
    let timeline = pipelined_timeline(breakdown);
    let throughput_without_pipelining = timeline.makespan / serial_timeline(breakdown).makespan;
    (timeline, throughput_without_pipelining)
}

/// Fig. 13 rebuilt from *observed* trace spans: a traced one-step PIM
/// run whose kernel windows and instruction events reproduce the stage
/// picture the analytic model predicts.
#[derive(Debug, Clone)]
pub struct ObservedFig13 {
    /// Kernel windows of the traced run, in start order.
    pub segments: Vec<pim_trace::timeline::ObservedSegment>,
    /// Per-stage busy-time averages derived from the trace.
    pub breakdown: pim_trace::timeline::ObservedBreakdown,
    /// The pipeline timeline rebuilt by feeding the observed per-stage
    /// times through the same scheduler as the analytic figure.
    pub rebuilt: StageTimeline,
    /// Does the observed kernel ordering satisfy the pipeline model's
    /// stage ordering (Volume ≤ Flux ≤ Integration per stage)?
    pub order_ok: bool,
    /// Total simulated seconds of the traced step.
    pub makespan: f64,
}

/// Runs one traced time-step of the quickstart problem (Acoustic, n = 4,
/// level-1 mesh, one element per block on the 2 GB chip) and rebuilds the
/// Fig. 13 stage timeline from the drained spans.
///
/// Uses the global tracer: any events already buffered are drained and
/// discarded first so the observation covers exactly this run.
pub fn fig13_observed() -> ObservedFig13 {
    use pim_sim::{ChipConfig, PimChip};
    use pim_trace::timeline::{
        kernel_segments, observed_breakdown, stage_order_is_pipeline_compatible,
    };
    use pim_trace::Kernel;
    use wave_pim::compiler::AcousticMapping;
    use wave_pim::pipeline::StageBreakdown;
    use wave_pim::tracehooks::traced_execute;
    use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
    use wavesim_mesh::{Boundary, HexMesh};

    let mesh = HexMesh::refinement_level(1, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let mapping = AcousticMapping::uniform(mesh.clone(), 4, FluxKind::Riemann, material);
    let mut solver = Solver::<Acoustic>::uniform(mesh, 4, FluxKind::Riemann, material);
    solver.set_initial(|v, x| if v == 0 { (x.x * std::f64::consts::TAU).sin() } else { 0.1 });
    let dt = solver.stable_dt(0.25);

    let _ = pim_trace::drain();
    pim_trace::enable();
    let mut chip = PimChip::new(ChipConfig::default_2gb());
    mapping.preload(&mut chip, solver.state(), dt);
    chip.execute(&mapping.compile_lut_setup());
    let elems: Vec<usize> = (0..mapping.mesh().num_elements()).collect();
    for stage in 0..5usize {
        traced_execute(&mut chip, Kernel::Volume, stage as u8, &mapping.compile_volume_for(&elems));
        traced_execute(
            &mut chip,
            Kernel::Flux,
            stage as u8,
            &mapping.compile_flux_phased_for(&elems),
        );
        traced_execute(
            &mut chip,
            Kernel::Integration,
            stage as u8,
            &mapping.compile_integration_for(&elems, stage),
        );
    }
    let makespan = chip.elapsed();
    let pid = chip.trace_pid();
    pim_trace::disable();
    let (events, _) = pim_trace::drain();

    let segments = kernel_segments(&events, pid);
    let breakdown = observed_breakdown(&events, pid);
    let order_ok = stage_order_is_pipeline_compatible(&segments);
    let rebuilt = pipelined_timeline(&StageBreakdown {
        volume: breakdown.volume,
        flux_fetch: breakdown.flux_fetch,
        flux_compute: breakdown.flux_compute,
        integration: breakdown.integration,
        host_preprocess: breakdown.host_preprocess,
    });
    ObservedFig13 { segments, breakdown, rebuilt, order_ok, makespan }
}

/// One Fig. 14 case: intra/inter-element time (seconds per stage) for
/// both interconnects.
#[derive(Debug, Clone)]
pub struct Fig14Case {
    pub name: String,
    pub expansion: bool,
    /// (intra, inter) for the H-tree.
    pub htree: (f64, f64),
    /// (intra, inter) for the bus.
    pub bus: (f64, f64),
}

/// Fig. 14: the four case studies of §7.6. Intra-element time is the
/// element-local kernels (Volume, Flux compute, Integration) of one
/// unpipelined stage; inter-element time is its neighbor fetch.
pub fn fig14_data(points: &PricedPoints) -> Vec<Fig14Case> {
    FIG14_CASES
        .iter()
        .map(|&(b, c)| {
            let run = |ic| {
                let s = &points.get(b, fig14_setup(c, ic)).breakdown;
                (s.volume + s.flux_compute + s.integration, s.flux_fetch)
            };
            let technique = wave_pim::planner::plan(b, c);
            Fig14Case {
                name: format!("{} / PIM-{}", b.name(), c.name()),
                expansion: technique.parallel_expansion,
                htree: run(InterconnectKind::HTree),
                bus: run(InterconnectKind::Bus),
            }
        })
        .collect()
}

/// The paper's points, priced once per test process.
#[cfg(test)]
pub(crate) fn test_points() -> &'static PricedPoints {
    static POINTS: std::sync::OnceLock<PricedPoints> = std::sync::OnceLock::new();
    POINTS.get_or_init(PricedPoints::paper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_distinct_point_is_priced_once() {
        // 6 PIM setups of Figs. 11/12 and 3 more 28 nm capacities per
        // benchmark, and 4 Fig. 14 cases on 2 interconnects.
        let points = &test_points().0;
        assert_eq!(points.len(), 6 * 9 + 4 * 2);
        for (i, e) in points.iter().enumerate() {
            let twin = points[..i].iter().any(|o| o.benchmark == e.benchmark && o.setup == e.setup);
            assert!(!twin, "{} on {:?} priced twice", e.benchmark.name(), e.setup);
        }
    }

    #[test]
    fn columns_have_unique_labels() {
        let cols = EvalColumn::all();
        let mut labels: Vec<String> = cols.iter().map(|c| c.label()).collect();
        let before = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), before);
        assert!(before >= 10, "the paper's figure shows ≥10 configurations");
    }

    #[test]
    fn baseline_normalizes_to_one() {
        let data = fig11_data(test_points());
        for (b, row) in &data {
            let base = row.iter().find(|(l, _)| l == "Unfused-GTX1080Ti").unwrap();
            assert!((base.1 - 1.0).abs() < 1e-12, "{}", b.name());
        }
    }

    #[test]
    fn pim_beats_every_gpu_everywhere_in_fig11() {
        // The paper's headline: all PIM configurations outperform all GPU
        // configurations on all six benchmarks.
        for (b, row) in fig11_data(test_points()) {
            let worst_pim = row
                .iter()
                .filter(|(l, _)| l.starts_with("PIM") && !l.ends_with("nopipe"))
                .map(|(_, v)| *v)
                .fold(0.0f64, f64::max);
            let best_gpu = row
                .iter()
                .filter(|(l, _)| !l.starts_with("PIM"))
                .map(|(_, v)| *v)
                .fold(f64::INFINITY, f64::min);
            assert!(
                worst_pim < best_gpu,
                "{}: worst PIM {worst_pim} vs best GPU {best_gpu}",
                b.name()
            );
        }
    }

    #[test]
    fn fig12_pim_energy_is_far_below_gpu_energy() {
        for (b, row) in fig12_data(test_points()) {
            for (label, v) in &row {
                if label.starts_with("PIM") {
                    assert!(*v < 0.5, "{}: {label} normalized energy {v}", b.name());
                }
            }
        }
    }

    #[test]
    fn fig13_ratio_is_near_the_paper_value() {
        // §7.5: without pipelining only 0.77× throughput, i.e. the
        // pipelined stage is ~77% of the serial stage length.
        let (timeline, ratio) = fig13_data(test_points());
        assert!((0.55..0.95).contains(&ratio), "ratio {ratio}");
        assert!(!timeline.segments.is_empty());
    }

    #[test]
    fn fig14_htree_always_wins_and_expansion_raises_inter_share() {
        let cases = fig14_data(test_points());
        assert_eq!(cases.len(), 4);
        for c in &cases {
            assert!(c.htree.1 < c.bus.1, "{}: H-tree must fetch faster", c.name);
        }
        // §7.6: expansion raises the inter-element share on both
        // interconnects (21.62→42.77% for H-tree).
        let share = |(intra, inter): (f64, f64)| inter / (intra + inter);
        let naive = &cases[0];
        let expanded = &cases[1];
        assert!(share(expanded.htree) > share(naive.htree));
    }
}

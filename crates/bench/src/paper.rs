//! The paper's evaluation as one document: every value of Tables 1–6,
//! the §3.1 motivation, Figs. 11–14 and the §7.3/§7.4/§8 aggregates,
//! built once by [`paper`]. The `paper` binary prints it section by
//! section and writes it as `BENCH_paper.json`; `tests/paper_golden.rs`
//! pins the rendered document byte for byte, so a change to any model's
//! pricing shows up as a reviewed diff of that golden.

use std::ops::Index;

use gpu_model::cpu::{cpu_seconds, predicted_speedup};
use gpu_model::GpuModel;
use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_sim::params as p;
use pim_sim::{ChipCapacity, HTreeNetwork, InterconnectKind};
use pim_trace::json::{escape, number};
use pim_trace::Kernel;
use wave_pim::planner::plan;
use wavesim_dg::opcount::Benchmark;
use wavesim_dg::{Acoustic, AcousticMaterial, FluxKind, Solver};
use wavesim_mesh::{Boundary, HexMesh};

use crate::figures::{
    fig11_data, fig12_data, fig13_data, fig13_observed, fig14_data, PricedPoints,
};
use crate::summary::headline;

/// A JSON value whose objects keep insertion order, so the document
/// lists sections and rows in paper order and renders byte-stably.
#[derive(Debug)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn num(&self) -> f64 {
        let Json::Num(x) = self else { panic!("not a number: {self:?}") };
        *x
    }

    pub fn str(&self) -> &str {
        let Json::Str(s) = self else { panic!("not a string: {self:?}") };
        s
    }

    pub fn bool(&self) -> bool {
        let Json::Bool(b) = self else { panic!("not a bool: {self:?}") };
        *b
    }

    pub fn items(&self) -> &[Json] {
        let Json::Arr(v) = self else { panic!("not an array: {self:?}") };
        v
    }

    /// An object's `(key, value)` pairs in insertion order.
    pub fn entries(&self) -> &[(String, Json)] {
        let Json::Obj(v) = self else { panic!("not an object: {self:?}") };
        v
    }

    /// Renders with two-space indentation, one value per line, and a
    /// trailing newline; numbers go through [`pim_trace::json::number`].
    pub fn render(&self) -> String {
        self.render_at(0) + "\n"
    }

    fn render_at(&self, depth: usize) -> String {
        let (open, close, items): (&str, &str, Vec<String>) = match self {
            Json::Bool(b) => return b.to_string(),
            Json::Num(x) => return number(*x),
            Json::Str(s) => return escape(s),
            Json::Arr(v) => ("[", "]", v.iter().map(|v| v.render_at(depth + 1)).collect()),
            Json::Obj(v) => {
                let entry =
                    |(k, v): &(String, Json)| format!("{}: {}", escape(k), v.render_at(depth + 1));
                ("{", "}", v.iter().map(entry).collect())
            }
        };
        let pad = "  ".repeat(depth);
        format!("{open}\n{pad}  {}\n{pad}{close}", items.join(&format!(",\n{pad}  ")))
    }
}

impl Index<&str> for Json {
    type Output = Json;

    fn index(&self, key: &str) -> &Json {
        let entry = self.entries().iter().find(|(k, _)| k == key);
        &entry.unwrap_or_else(|| panic!("missing key {key:?}")).1
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// An object literal, `obj!["key" => value, ..]`, each value taken
/// through `Json::from`.
macro_rules! obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        Json::Obj(vec![$(($key.into(), Json::from($value))),*])
    };
}

/// An object from `(key, value)` pairs, in order.
fn keyed<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v.into())).collect())
}

/// Table 1, one `term | meaning | where it is implemented here` a line.
const GLOSSARY: &str = "\
Mass Inverse | inverse diagonal mass matrix (constant) | folded into geometry::lift_factor (GLL collocation)
Unknown variables | p and v per node (4 acoustic / 9 elastic) | dg::state::State, physics::{acoustic,elastic}_vars
Contributions | incremental updates from Volume and Flux | dg::Solver::contributions
Auxiliaries | temporary storage for temporal integration | dg::integrator::Lsrk5 registers
GLL Weight | Gauss-Legendre-Lobatto weights | numerics::gll::GllRule::weights
GLL Point | Gauss-Legendre-Lobatto points | numerics::gll::GllRule::points
jacobian_det_w_star | volume-integration constant | mesh::ElementGeometry::jacobian_det_w_star
jacobian_det_domain | volume Jacobian determinant | mesh::ElementGeometry::jacobian_det_domain
jacobian_inverse_domain | reference-to-physical derivative factor | mesh::ElementGeometry::jacobian_inverse_domain
jacobian_det_boundary | face Jacobian determinant | mesh::ElementGeometry::jacobian_det_boundary
dshape | derivative values of shape functions | numerics::lagrange::DiffMatrix::entries
K, rho / lambda, mu | material constants | dg::material::{AcousticMaterial, ElasticMaterial}
grad p / div v / grad v / div S | derivative fields | dg::physics::{Acoustic,Elastic}::volume
Refinement Level n | (2^n)^3 elements | mesh::HexMesh::refinement_level";

/// Builds the whole document. The observed Fig. 13 step and the
/// overlap probe record on the process-global tracer, so no other
/// traced run may share the process's rings while this runs.
pub fn paper() -> Json {
    let points = PricedPoints::paper();
    let normalized = |data: Vec<(Benchmark, Vec<(String, f64)>)>| {
        keyed(data.into_iter().map(|(b, row)| (b.name(), keyed(row))))
    };
    obj![
        "schema_version" => 1.0,
        "table1" => keyed(GLOSSARY.lines().map(|line| {
            let cols: Vec<&str> = line.split(" | ").collect();
            (cols[0], obj!["meaning" => cols[1], "implemented_in" => cols[2]])
        })),
        // §3.1: GPU-over-CPU speedups for levels 4 and 5 (1,024 time-steps).
        "section3_1" => keyed([Benchmark::Acoustic4, Benchmark::Acoustic5].map(|b| {
            let speedup = keyed(GpuModel::ALL.map(|g| (g.name(), predicted_speedup(b, g))));
            let row = obj![
                "level" => f64::from(b.level()),
                "cpu_seconds" => cpu_seconds(b),
                "speedup" => speedup,
            ];
            (b.name(), row)
        })),
        "table2" => table2(),
        "table3" => table3(),
        "table4" => obj![
            "e_set_j" => p::E_SET,
            "e_reset_j" => p::E_RESET,
            "e_nor_j" => p::E_NOR,
            "e_search_j" => p::E_SEARCH,
            "t_nor_s" => p::T_NOR,
            "t_search_s" => p::T_SEARCH,
            "fp32_add_cycles" => p::FP32_ADD_CYCLES as f64,
            "fp32_mul_cycles" => p::FP32_MUL_CYCLES as f64,
            "fp32_mac_cycles" => p::FP32_MAC_CYCLES as f64,
        ],
        // Table 5: the planned technique and batch count per capacity.
        "table5" => keyed([
            ("Acoustic_4", Benchmark::Acoustic4),
            ("Elastic_4", Benchmark::ElasticCentral4),
            ("Acoustic_5", Benchmark::Acoustic5),
            ("Elastic_5", Benchmark::ElasticCentral5),
        ]
        .map(|(label, b)| {
            let cells = ChipCapacity::ALL.map(|c| {
                let t = plan(b, c);
                let (technique, batches) = (t.label(), f64::from(t.batches));
                (c.name(), obj!["technique" => technique.as_str(), "batches" => batches])
            });
            (label, keyed(cells))
        })),
        "table6" => keyed(Benchmark::ALL.map(|b| {
            let row = obj![
                "level" => f64::from(b.level()),
                "elements" => b.num_elements() as f64,
                "instructions" => b.total_instructions() as f64,
                "fp_ops" => b.total_flops() as f64,
            ];
            (b.name(), row)
        })),
        // Figs. 11/12: per benchmark, each column normalized to the unfused GTX 1080Ti.
        "fig11" => normalized(fig11_data(&points)),
        "fig12" => normalized(fig12_data(&points)),
        "fig13" => fig13(&points),
        "fig14" => keyed(fig14_data(&points).into_iter().map(|c| {
            let times = |(intra, inter): (f64, f64)| obj!["intra" => intra, "inter" => inter];
            let (htree, bus) = (times(c.htree), times(c.bus));
            (c.name, obj!["expansion" => Json::Bool(c.expansion), "htree" => htree, "bus" => bus])
        })),
        "summary" => summary(&points),
    ]
}

fn table2() -> Json {
    let row = |platform: &str, process_nm: u32, clock_hz: f64, memory: &str, bw: f64, peak: f64| {
        obj![
            "platform" => platform,
            "process_nm" => f64::from(process_nm),
            "clock_hz" => clock_hz,
            "memory" => memory,
            "mem_bandwidth" => bw,
            "peak_fp32" => peak,
        ]
    };
    let gpus = GpuModel::ALL.map(|g| {
        let s = g.spec();
        let memory = if g == GpuModel::Gtx1080Ti { "11GB GDDR5X" } else { "16GB HBM2" };
        (s.name, row("GPU", s.process_nm, s.clock_hz, memory, s.mem_bandwidth, s.peak_fp32))
    });
    let caps = ChipCapacity::ALL.map(|c| c.name()).join("/");
    // Throughput: the 2 GB chip's parallel rows under a 50/50 add/mul mix.
    let parallel_rows = ChipCapacity::Gb2.max_parallel_rows() as f64;
    let avg_cycles = (p::FP32_ADD_CYCLES + p::FP32_MUL_CYCLES) as f64 / 2.0;
    let peak = parallel_rows / (avg_cycles * p::T_NOR);
    let pim = row("PIM", 28, p::CLOCK_HZ, &caps, p::OFFCHIP_BANDWIDTH, peak);
    keyed(gpus.into_iter().chain([("Wave-PIM", pim)]))
}

/// Table 3: the 2 GB chip's components; a power is watts, or an
/// `{htree, bus}` pair where the interconnect changes it.
fn table3() -> Json {
    let pair = |htree: f64, bus: f64| obj!["htree" => htree, "bus" => bus];
    fn row(param: &str, value: &str, power_w: Json) -> Json {
        obj!["param" => param, "value" => value, "power_w" => power_w]
    }
    let switches = HTreeNetwork::new().switches_per_tile().to_string();
    let gb2 = |ic| ChipCapacity::Gb2.static_power(ic);
    let total = pair(gb2(InterconnectKind::HTree), gb2(InterconnectKind::Bus));
    obj![
        "Crossbar Array" => row("size", "1Mb", 6.14e-3.into()),
        "Sense Amp" => row("number", "1K", 2.38e-3.into()),
        "Decoder" => row("number", "1", 0.31e-3.into()),
        "Memory Block" => row("number", "1", p::BLOCK_POWER.into()),
        "Tile Memory" => row("num_block", "256", p::TILE_MEMORY_POWER.into()),
        "H-tree Switch" => row("number", &switches, p::TILE_HTREE_POWER.into()),
        "Bus Switch" => row("number", "1", p::TILE_BUS_POWER.into()),
        "Tile" => row("size", "32MB", pair(p::TILE_POWER_HTREE, p::TILE_POWER_BUS)),
        "Central Controller" => row("number", "1", p::CONTROLLER_POWER.into()),
        "CPU Host" => row("number", "1", p::HOST_POWER.into()),
        "Total" => row("size", "2GB", total),
    ]
}

/// Fig. 13: the analytic pipelined stage (Acoustic_4 on 2 GB) and the
/// stage picture observed in a traced functional run.
fn fig13(points: &PricedPoints) -> Json {
    let (timeline, ratio) = fig13_data(points);
    let analytic = timeline
        .segments
        .iter()
        .map(|s| obj!["lane" => s.lane, "label" => s.label, "start" => s.start, "end" => s.end]);
    let obs = fig13_observed();
    let observed = obs.segments.iter().map(|s| {
        let kernel = format!("{:?}", s.kernel);
        let stage = f64::from(s.stage);
        obj!["kernel" => kernel.as_str(), "stage" => stage, "start" => s.t0, "end" => s.t1]
    });
    let b = obs.breakdown;
    obj![
        "analytic" => obj![
            "segments" => Json::Arr(analytic.collect()),
            "makespan" => timeline.makespan,
            "throughput_without_pipelining" => ratio,
        ],
        "observed" => obj![
            "segments" => Json::Arr(observed.collect()),
            "breakdown" => obj![
                "volume" => b.volume,
                "flux_fetch" => b.flux_fetch,
                "flux_compute" => b.flux_compute,
                "integration" => b.integration,
            ],
            "makespan" => obs.makespan,
            "order_ok" => Json::Bool(obs.order_ok),
            "rebuilt_makespan" => obs.rebuilt.makespan,
        ],
    ]
}

/// §7.3/§7.4/§8: the [`crate::summary::Summary`] fields plus the
/// measured DMA ∩ Volume overlap.
fn summary(points: &PricedPoints) -> Json {
    let s = headline(points);
    let by_capacity =
        |rows: &[(ChipCapacity, f64)]| keyed(rows.iter().map(|&(c, v)| (c.name(), v)));
    let by_gpu = |rows: &[(GpuModel, f64)]| keyed(rows.iter().map(|&(g, v)| (g.name(), v)));
    obj![
        "speedup_vs_unfused_1080ti" => by_capacity(&s.speedup_vs_unfused_1080ti),
        "speedup_vs_fused_v100" => by_capacity(&s.speedup_vs_fused_v100),
        "energy_vs_unfused_1080ti" => by_capacity(&s.energy_vs_unfused_1080ti),
        "speedup_vs_each_gpu" => by_gpu(&s.speedup_vs_each_gpu),
        "energy_vs_each_gpu" => by_gpu(&s.energy_vs_each_gpu),
        "headline" => obj![
            "speedup" => s.headline_speedup,
            "energy_savings" => s.headline_energy,
            "htree_over_bus" => s.htree_over_bus,
        ],
        "dma_volume_overlap_seconds" => measured_dma_volume_overlap(),
    ]
}

/// Measures, per chip, how many DMA seconds of the halo exchange the
/// Volume kernel's window actually hid — straight from a traced 2-chip
/// cluster step via [`pim_trace::timeline::offchip_kernel_overlap`],
/// not from the analytic estimate.
fn measured_dma_volume_overlap() -> Json {
    let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
    let material = AcousticMaterial::new(2.0, 1.0);
    let mut s = Solver::<Acoustic>::uniform(mesh.clone(), 2, FluxKind::Riemann, material);
    s.set_initial(|v, x| match v {
        0 => (x.x * std::f64::consts::TAU).sin(),
        _ => 0.25 * (x.y * std::f64::consts::TAU).cos(),
    });

    pim_trace::set_ring_capacity(1 << 21);
    let _ = pim_trace::drain();
    pim_trace::enable();
    let config = ClusterConfig::new(2);
    let mut cluster =
        ClusterRunner::new(&mesh, 2, FluxKind::Riemann, material, s.state(), 1e-3, config);
    cluster.step();
    let pids = cluster.trace_pids();
    pim_trace::disable();
    let (events, dropped) = pim_trace::drain();
    assert_eq!(dropped, 0, "trace ring must hold the overlap probe step");

    keyed(pids.iter().enumerate().map(|(i, &pid)| {
        let overlap = pim_trace::timeline::offchip_kernel_overlap(&events, pid, Kernel::Volume);
        assert!(overlap > 0.0, "chip {i}: Volume hid none of the halo DMA");
        (format!("chip{i}"), overlap)
    }))
}

//! Golden simulated-time schedule of the cluster runner.
//!
//! Both protocols run one stage body that differs in exactly three
//! decisions: stage entry, where the outbound link charges sit on the
//! off-chip lane, and the pre-Flux fence. The state is covered by the
//! bit-identity tests; this file pins the *timing* — per-stage makespans,
//! both lane clocks, halo and math accounting, per-chip dynamic energy,
//! and a digest of every span on each chip's off-chip lane — compared
//! with `to_bits` against values recorded from the earlier
//! implementation that ran each protocol in its own step function.
//!
//! The lane digest is what sees the charge *order*: under the fenced
//! protocol the whole lane is joined before Flux, so moving its outbound
//! charges behind the ghost landing leaves every clock above unchanged
//! but shifts the spans. The starved-link cases expose halo, so the
//! stage-entry and fence decisions show up in the clocks as well.
//!
//! On a mismatch the test prints the full observed table in the layout
//! of [`GOLDEN`], so an intended timing change can be re-recorded
//! deliberately.

use std::sync::Mutex;

use pim_cluster::{ClusterConfig, ClusterProtocol, ClusterRunner};
use pim_math::MathConfig;
use pim_sim::InterChipLink;
use pim_trace::TID_OFFCHIP;
use wavesim_dg::{AcousticMaterial, FluxKind, State};
use wavesim_mesh::{Boundary, HexMesh};

const LEVEL: u32 = 3;
const CHIPS: usize = 4;
const STEPS: usize = 2;

/// The tracer is process-global: one traced run at a time.
static TRACE: Mutex<()> = Mutex::new(());

/// One observed quantity: its label, its bits, and a readable form.
type Observed = (String, u64, String);

/// One golden configuration: the link is `1/link_divisor` as wide as
/// the default.
struct Case {
    protocol: ClusterProtocol,
    link_divisor: f64,
    math: MathConfig,
    boundary: Boundary,
}

/// Runs one golden case and returns every observed quantity in a fixed
/// order.
fn observe(case: &Case) -> Vec<Observed> {
    let mesh = HexMesh::refinement_level(LEVEL, case.boundary);
    let n = 2;
    let nodes = n * n * n;
    let mut initial = State::zeros(mesh.num_elements(), 4, nodes);
    for e in 0..mesh.num_elements() {
        for v in 0..4 {
            for node in 0..nodes {
                initial.set_value(e, v, node, ((e * 31 + v * 7 + node) % 97) as f64 * 1e-2);
            }
        }
    }
    let mut config = ClusterConfig::new(CHIPS).with_protocol(case.protocol).with_math(case.math);
    config.link.bandwidth = InterChipLink::default().bandwidth / case.link_divisor;

    let _guard = TRACE.lock().unwrap_or_else(|p| p.into_inner());
    let _ = pim_trace::drain();
    pim_trace::set_summary_lanes_only(true);
    pim_trace::enable();
    let mut cluster = ClusterRunner::new(
        &mesh,
        n,
        FluxKind::Riemann,
        AcousticMaterial::new(2.0, 1.0),
        &initial,
        1e-3,
        config,
    );
    cluster.run(STEPS);
    pim_trace::disable();
    pim_trace::set_summary_lanes_only(false);
    let (mut events, dropped) = pim_trace::drain();
    assert_eq!(dropped, 0, "the trace ring must hold the whole run");
    events.sort_by_key(|e| e.seq);

    let mut out = Vec::new();
    let mut push_all = |name: &str, values: &[f64]| {
        for (i, &v) in values.iter().enumerate() {
            out.push((format!("{name}[{i}]"), v.to_bits(), format!("{v:e}")));
        }
    };
    push_all("stage_makespans", cluster.stage_makespans());
    let times = cluster.chip_times();
    push_all("chip_times.compute", &times.iter().map(|t| t.0).collect::<Vec<_>>());
    push_all("chip_times.offchip", &times.iter().map(|t| t.1).collect::<Vec<_>>());
    let halo = cluster.halo_stats();
    push_all("halo.link_seconds", &halo.link_seconds);
    push_all("halo.exposed_seconds", &halo.exposed_seconds);
    push_all("halo.max_skew_seconds", &[halo.max_skew_seconds]);
    let m = cluster.math_stats();
    push_all("math.host_seconds", &m.host_seconds);
    push_all("math.exposed_seconds", &m.exposed_seconds);
    push_all("math.onpim_seconds", &m.onpim_seconds);
    let energy: Vec<f64> = cluster.finish_reports().iter().map(|r| r.ledger.dynamic()).collect();
    push_all("finish.dynamic_joules", &energy);
    // Every off-chip-lane span of each chip, in recording order.
    for (c, pid) in cluster.trace_pids().into_iter().enumerate() {
        let lane = events.iter().filter(|e| e.pid == pid && e.tid == TID_OFFCHIP);
        let (count, digest) = lane.fold((0u64, pim_isa::FNV_OFFSET), |(k, h), e| {
            (k + 1, pim_isa::fnv1a(pim_isa::fnv1a(h, e.t0.to_bits()), e.t1.to_bits()))
        });
        out.push((format!("offchip_lane_digest[{c}]"), digest, format!("{count} spans")));
    }
    out
}

/// Runs `case` and compares every observed value bit for bit with the
/// [`GOLDEN`] row `name`.
fn check(name: &str, protocol: ClusterProtocol, link_divisor: f64, math: MathConfig) {
    check_case(name, &Case { protocol, link_divisor, math, boundary: Boundary::Periodic });
}

fn check_case(case: &str, config: &Case) {
    let observed = observe(config);
    let golden = GOLDEN.iter().find(|(name, _)| *name == case).map(|(_, g)| *g).unwrap_or(&[]);
    let first = observed
        .iter()
        .zip(golden)
        .find(|((_, bits, _), &g)| *bits != g)
        .map(|((label, _, shown), &g)| format!("{label} = {shown}, golden {g:#018x}"))
        .or_else(|| {
            (observed.len() != golden.len())
                .then(|| format!("{} values observed, {} golden", observed.len(), golden.len()))
        });
    let Some(first) = first else { return };
    let mut table = format!("    (\"{case}\", &[\n");
    for (label, bits, shown) in &observed {
        table += &format!("        {bits:#018x}, // {label} = {shown}\n");
    }
    table += "    ]),\n";
    panic!("{case}: schedule diverged from the golden record ({first}); observed:\n{table}");
}

#[test]
fn fenced_default_link_math_off() {
    check("fenced/default/off", ClusterProtocol::Fenced, 1.0, MathConfig::off());
}

#[test]
fn fenced_narrow_link_host_math() {
    check("fenced/narrow/host", ClusterProtocol::Fenced, 64.0, MathConfig::host());
}

#[test]
fn fenced_narrow_link_on_pim_math() {
    check("fenced/narrow/on_pim", ClusterProtocol::Fenced, 64.0, MathConfig::on_pim());
}

#[test]
fn fenced_starved_link_math_off() {
    check("fenced/starved/off", ClusterProtocol::Fenced, 1024.0, MathConfig::off());
}

#[test]
fn fenced_starved_link_wall_boundary() {
    // Wall boundaries leave the two end chips one neighbor each, so the
    // chips' loads differ and the stage-entry decision shows.
    let case = Case {
        protocol: ClusterProtocol::Fenced,
        link_divisor: 1024.0,
        math: MathConfig::off(),
        boundary: Boundary::Wall,
    };
    check_case("fenced/starved_wall/off", &case);
}

#[test]
fn pipelined_default_link_math_off() {
    check("pipelined/default/off", ClusterProtocol::Pipelined, 1.0, MathConfig::off());
}

#[test]
fn pipelined_narrow_link_host_math() {
    check("pipelined/narrow/host", ClusterProtocol::Pipelined, 64.0, MathConfig::host());
}

#[test]
fn pipelined_narrow_link_on_pim_math() {
    check("pipelined/narrow/on_pim", ClusterProtocol::Pipelined, 64.0, MathConfig::on_pim());
}

#[test]
fn pipelined_starved_link_math_off() {
    check("pipelined/starved/off", ClusterProtocol::Pipelined, 1024.0, MathConfig::off());
}

#[test]
fn pipelined_starved_link_wall_boundary() {
    let case = Case {
        protocol: ClusterProtocol::Pipelined,
        link_divisor: 1024.0,
        math: MathConfig::off(),
        boundary: Boundary::Wall,
    };
    check_case("pipelined/starved_wall/off", &case);
}

/// Recorded values, `f64::to_bits` per quantity in [`observe`] order
/// (the lane digests are FNV-1a hashes, not floats).
#[rustfmt::skip]
const GOLDEN: &[(&str, &[u64])] = &[
    ("fenced/default/off", &[
        0x3f41394609737fce, // stage_makespans[0] = 5.256263711110821e-4
        0x3f50df144af0b689, // stage_makespans[1] = 1.0297487422223103e-3
        0x3f5921859127a7c5, // stage_makespans[2] = 1.5338711133332389e-3
        0x3f60b1fb6baf4c77, // stage_makespans[3] = 2.0379934844441633e-3
        0x3f64d3340ecac7c5, // stage_makespans[4] = 2.54211585555539e-3
        0x3f68f46cb1e64313, // stage_makespans[5] = 3.046238226666617e-3
        0x3f6d15a55501be61, // stage_makespans[6] = 3.550360597777844e-3
        0x3f709b6efc0e9cf4, // stage_makespans[7] = 4.054482968889096e-3
        0x3f72ac0b4d9c5ab4, // stage_makespans[8] = 4.558605340000344e-3
        0x3f74bca79f2a1874, // stage_makespans[9] = 5.062727711111593e-3
        0x3f74bca79f2a1874, // chip_times.compute[0] = 5.062727711111593e-3
        0x3f74bca79f2a1874, // chip_times.compute[1] = 5.062727711111593e-3
        0x3f74bca79f2a1874, // chip_times.compute[2] = 5.062727711111593e-3
        0x3f74bca79f2a1874, // chip_times.compute[3] = 5.062727711111593e-3
        0x3f72aeb762efa4a8, // chip_times.offchip[0] = 4.5611537488891365e-3
        0x3f72aeb762efa4a8, // chip_times.offchip[1] = 4.5611537488891365e-3
        0x3f72aeb762efa4a8, // chip_times.offchip[2] = 4.5611537488891365e-3
        0x3f72aeb762efa4a8, // chip_times.offchip[3] = 4.5611537488891365e-3
        0x3efa5719416f8c04, // halo.link_seconds[0] = 2.5120000000000017e-5
        0x3efa5719416f8c04, // halo.link_seconds[1] = 2.5120000000000017e-5
        0x3efa5719416f8c04, // halo.link_seconds[2] = 2.5120000000000017e-5
        0x3efa5719416f8c04, // halo.link_seconds[3] = 2.5120000000000017e-5
        0x0000000000000000, // halo.exposed_seconds[0] = 0e0
        0x0000000000000000, // halo.exposed_seconds[1] = 0e0
        0x0000000000000000, // halo.exposed_seconds[2] = 0e0
        0x0000000000000000, // halo.exposed_seconds[3] = 0e0
        0x0000000000000000, // halo.max_skew_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[1] = 0e0
        0x0000000000000000, // math.host_seconds[2] = 0e0
        0x0000000000000000, // math.host_seconds[3] = 0e0
        0x0000000000000000, // math.exposed_seconds[0] = 0e0
        0x0000000000000000, // math.exposed_seconds[1] = 0e0
        0x0000000000000000, // math.exposed_seconds[2] = 0e0
        0x0000000000000000, // math.exposed_seconds[3] = 0e0
        0x0000000000000000, // math.onpim_seconds[0] = 0e0
        0x0000000000000000, // math.onpim_seconds[1] = 0e0
        0x0000000000000000, // math.onpim_seconds[2] = 0e0
        0x0000000000000000, // math.onpim_seconds[3] = 0e0
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[0] = 1.9321169688709672e-3
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[1] = 1.9321169688709672e-3
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[2] = 1.9321169688709672e-3
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[3] = 1.9321169688709672e-3
        0x825742e937797e4c, // offchip_lane_digest[0] = 2600 spans
        0x825742e937797e4c, // offchip_lane_digest[1] = 2600 spans
        0x825742e937797e4c, // offchip_lane_digest[2] = 2600 spans
        0x825742e937797e4c, // offchip_lane_digest[3] = 2600 spans
    ]),
    ("fenced/narrow/host", &[
        0x3f41525b2f50ae45, // stage_makespans[0] = 5.286164511110822e-4
        0x3f50f82970cde501, // stage_makespans[1] = 1.0357289022223106e-3
        0x3f59472549f36d78, // stage_makespans[2] = 1.542841353333239e-3
        0x3f60cb10918c7aec, // stage_makespans[3] = 2.0499538044441625e-3
        0x3f64f28e7e1f41d8, // stage_makespans[4] = 2.5570662555553896e-3
        0x3f691a0c6ab208c4, // stage_makespans[5] = 3.0641787066666166e-3
        0x3f6d418a5744cfb0, // stage_makespans[6] = 3.5712911577778436e-3
        0x3f70b48421ebcb70, // stage_makespans[7] = 4.0784036088891e-3
        0x3f72c84318352eff, // stage_makespans[8] = 4.585516060000349e-3
        0x3f74dc020e7e928e, // stage_makespans[9] = 5.092628511111598e-3
        0x3f74dc020e7e928e, // chip_times.compute[0] = 5.092628511111598e-3
        0x3f74dc020e7e928e, // chip_times.compute[1] = 5.092628511111598e-3
        0x3f74dc020e7e928e, // chip_times.compute[2] = 5.092628511111598e-3
        0x3f74dc020e7e928e, // chip_times.compute[3] = 5.092628511111598e-3
        0x3f72efe479b52b3a, // chip_times.offchip[0] = 4.623310548889143e-3
        0x3f72efe479b52b3a, // chip_times.offchip[1] = 4.623310548889143e-3
        0x3f72efe479b52b3a, // chip_times.offchip[2] = 4.623310548889143e-3
        0x3f72efe479b52b3a, // chip_times.offchip[3] = 4.623310548889143e-3
        0x3f36c91a3abec2c6, // halo.link_seconds[0] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[1] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[2] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[3] = 3.4767999999999984e-4
        0x0000000000000000, // halo.exposed_seconds[0] = 0e0
        0x0000000000000000, // halo.exposed_seconds[1] = 0e0
        0x0000000000000000, // halo.exposed_seconds[2] = 0e0
        0x0000000000000000, // halo.exposed_seconds[3] = 0e0
        0x0000000000000000, // halo.max_skew_seconds[0] = 0e0
        0x3eff5a6f547a1537, // math.host_seconds[0] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.host_seconds[1] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.host_seconds[2] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.host_seconds[3] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.exposed_seconds[0] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.exposed_seconds[1] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.exposed_seconds[2] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.exposed_seconds[3] = 2.9900800000000698e-5
        0x0000000000000000, // math.onpim_seconds[0] = 0e0
        0x0000000000000000, // math.onpim_seconds[1] = 0e0
        0x0000000000000000, // math.onpim_seconds[2] = 0e0
        0x0000000000000000, // math.onpim_seconds[3] = 0e0
        0x3f60963f7d0bc700, // finish.dynamic_joules[0] = 2.0247688302043043e-3
        0x3f60963f7d0bc700, // finish.dynamic_joules[1] = 2.0247688302043043e-3
        0x3f60963f7d0bc700, // finish.dynamic_joules[2] = 2.0247688302043043e-3
        0x3f60963f7d0bc700, // finish.dynamic_joules[3] = 2.0247688302043043e-3
        0xa71324e4c767dd09, // offchip_lane_digest[0] = 2600 spans
        0xa71324e4c767dd09, // offchip_lane_digest[1] = 2600 spans
        0xa71324e4c767dd09, // offchip_lane_digest[2] = 2600 spans
        0xa71324e4c767dd09, // offchip_lane_digest[3] = 2600 spans
    ]),
    ("fenced/narrow/on_pim", &[
        0x3f429120c070eced, // stage_makespans[0] = 5.666170044444065e-4
        0x3f520c8ac53ffaa9, // stage_makespans[1] = 1.101623075555539e-3
        0x3f5ad0852a477b33, // stage_makespans[2] = 1.6366291466664684e-3
        0x3f61ca3fc7a77f47, // stage_makespans[3] = 2.171635217777554e-3
        0x3f662c3cfa2b4238, // stage_makespans[4] = 2.70664128888878e-3
        0x3f6a8e3a2caf0529, // stage_makespans[5] = 3.241647360000006e-3
        0x3f6ef0375f32c81a, // stage_makespans[6] = 3.7766534311112323e-3
        0x3f71a91a48db45d3, // stage_makespans[7] = 4.3116595022225255e-3
        0x3f73da18e21d276a, // stage_makespans[8] = 4.846665573333778e-3
        0x3f760b177b5f0901, // stage_makespans[9] = 5.3816716444450305e-3
        0x3f760b177b5f0901, // chip_times.compute[0] = 5.3816716444450305e-3
        0x3f760b177b5f0901, // chip_times.compute[1] = 5.3816716444450305e-3
        0x3f760b177b5f0901, // chip_times.compute[2] = 5.3816716444450305e-3
        0x3f760b177b5f0901, // chip_times.compute[3] = 5.3816716444450305e-3
        0x3f73fe979ee17dd6, // chip_times.offchip[0] = 4.881469982222572e-3
        0x3f73fe979ee17dd6, // chip_times.offchip[1] = 4.881469982222572e-3
        0x3f73fe979ee17dd6, // chip_times.offchip[2] = 4.881469982222572e-3
        0x3f73fe979ee17dd6, // chip_times.offchip[3] = 4.881469982222572e-3
        0x3f36c91a3abec2c6, // halo.link_seconds[0] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[1] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[2] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[3] = 3.4767999999999984e-4
        0x0000000000000000, // halo.exposed_seconds[0] = 0e0
        0x0000000000000000, // halo.exposed_seconds[1] = 0e0
        0x0000000000000000, // halo.exposed_seconds[2] = 0e0
        0x0000000000000000, // halo.exposed_seconds[3] = 0e0
        0x0000000000000000, // halo.max_skew_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[1] = 0e0
        0x0000000000000000, // math.host_seconds[2] = 0e0
        0x0000000000000000, // math.host_seconds[3] = 0e0
        0x0000000000000000, // math.exposed_seconds[0] = 0e0
        0x0000000000000000, // math.exposed_seconds[1] = 0e0
        0x0000000000000000, // math.exposed_seconds[2] = 0e0
        0x0000000000000000, // math.exposed_seconds[3] = 0e0
        0x3f34407ab092226d, // math.onpim_seconds[0] = 3.0901904444439223e-4
        0x3f34407ab092226d, // math.onpim_seconds[1] = 3.0901904444439223e-4
        0x3f34407ab092226d, // math.onpim_seconds[2] = 3.0901904444439223e-4
        0x3f34407ab092226d, // math.onpim_seconds[3] = 3.0901904444439223e-4
        0x3f601e04421dd500, // finish.dynamic_joules[0] = 1.9674380463877705e-3
        0x3f601e04421dd500, // finish.dynamic_joules[1] = 1.9674380463877705e-3
        0x3f601e04421dd500, // finish.dynamic_joules[2] = 1.9674380463877705e-3
        0x3f601e04421dd500, // finish.dynamic_joules[3] = 1.9674380463877705e-3
        0x0853ea682ae2f590, // offchip_lane_digest[0] = 2600 spans
        0x0853ea682ae2f590, // offchip_lane_digest[1] = 2600 spans
        0x0853ea682ae2f590, // offchip_lane_digest[2] = 2600 spans
        0x0853ea682ae2f590, // offchip_lane_digest[3] = 2600 spans
    ]),
    ("fenced/starved/off", &[
        0x3f4f5406b207bdd0, // stage_makespans[0] = 9.560616200001096e-4
        0x3f5ef9d4f384ec8f, // stage_makespans[1] = 1.8906192399999221e-3
        0x3f6724d34702ff7b, // stage_makespans[2] = 2.8251768599999983e-3
        0x3f6eccbc144388ae, // stage_makespans[3] = 3.7597344800000742e-3
        0x3f733a5270c20901, // stage_makespans[4] = 4.6942921000001645e-3
        0x3f770e46d7624d6b, // stage_makespans[5] = 5.628849720000199e-3
        0x3f7ae23b3e0291d5, // stage_makespans[6] = 6.563407340000234e-3
        0x3f7eb62fa4a2d63f, // stage_makespans[7] = 7.497964960000269e-3
        0x3f81451205a18d1a, // stage_makespans[8] = 8.432522580000202e-3
        0x3f832f0c38f1af14, // stage_makespans[9] = 9.367080200000134e-3
        0x3f832f0c38f1af14, // chip_times.compute[0] = 9.367080200000134e-3
        0x3f832f0c38f1af14, // chip_times.compute[1] = 9.367080200000134e-3
        0x3f832f0c38f1af14, // chip_times.compute[2] = 9.367080200000134e-3
        0x3f832f0c38f1af14, // chip_times.compute[3] = 9.367080200000134e-3
        0x3f825904169dfee2, // chip_times.offchip[0] = 8.958846988888994e-3
        0x3f825904169dfee2, // chip_times.offchip[1] = 8.958846988888994e-3
        0x3f825904169dfee2, // chip_times.offchip[2] = 8.958846988888994e-3
        0x3f825904169dfee2, // chip_times.offchip[3] = 8.958846988888994e-3
        0x3f758e8797b96fa1, // halo.link_seconds[0] = 5.262879999999998e-3
        0x3f758e8797b96fa1, // halo.link_seconds[1] = 5.262879999999998e-3
        0x3f758e8797b96fa1, // halo.link_seconds[2] = 5.262879999999998e-3
        0x3f758e8797b96fa1, // halo.link_seconds[3] = 5.262879999999998e-3
        0x3f71aa6ece6a09c6, // halo.exposed_seconds[0] = 4.312928044444003e-3
        0x3f71aa6ece6a09c6, // halo.exposed_seconds[1] = 4.312928044444003e-3
        0x3f71aa6ece6a09c6, // halo.exposed_seconds[2] = 4.312928044444003e-3
        0x3f71aa6ece6a09c6, // halo.exposed_seconds[3] = 4.312928044444003e-3
        0x0000000000000000, // halo.max_skew_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[1] = 0e0
        0x0000000000000000, // math.host_seconds[2] = 0e0
        0x0000000000000000, // math.host_seconds[3] = 0e0
        0x0000000000000000, // math.exposed_seconds[0] = 0e0
        0x0000000000000000, // math.exposed_seconds[1] = 0e0
        0x0000000000000000, // math.exposed_seconds[2] = 0e0
        0x0000000000000000, // math.exposed_seconds[3] = 0e0
        0x0000000000000000, // math.onpim_seconds[0] = 0e0
        0x0000000000000000, // math.onpim_seconds[1] = 0e0
        0x0000000000000000, // math.onpim_seconds[2] = 0e0
        0x0000000000000000, // math.onpim_seconds[3] = 0e0
        0x3f5fa7e2cc5fd000, // finish.dynamic_joules[0] = 1.9321169688710782e-3
        0x3f5fa7e2cc5fd000, // finish.dynamic_joules[1] = 1.9321169688710782e-3
        0x3f5fa7e2cc5fd000, // finish.dynamic_joules[2] = 1.9321169688710782e-3
        0x3f5fa7e2cc5fd000, // finish.dynamic_joules[3] = 1.9321169688710782e-3
        0x8f2f34932ab1b269, // offchip_lane_digest[0] = 2600 spans
        0x8f2f34932ab1b269, // offchip_lane_digest[1] = 2600 spans
        0x8f2f34932ab1b269, // offchip_lane_digest[2] = 2600 spans
        0x8f2f34932ab1b269, // offchip_lane_digest[3] = 2600 spans
    ]),
    ("fenced/starved_wall/off", &[
        0x3f4f4a0231bee55f, // stage_makespans[0] = 9.548674311112107e-4
        0x3f5eefd0733c149b, // stage_makespans[1] = 1.8882308622221514e-3
        0x3f671d4fe6cc5d6f, // stage_makespans[2] = 2.821594293333333e-3
        0x3f6ec2b793fab090, // stage_makespans[3] = 3.7549577244445145e-3
        0x3f73340fa09481e3, // stage_makespans[4] = 4.688321155555705e-3
        0x3f7706c3772bab3e, // stage_makespans[5] = 5.62168458666684e-3
        0x3f7ad9774dc2d499, // stage_makespans[6] = 6.555048017777975e-3
        0x3f7eac2b2459fdf4, // stage_makespans[7] = 7.48841144888911e-3
        0x3f813f6f7d78936e, // stage_makespans[8] = 8.421774880000146e-3
        0x3f8328c968c427e2, // stage_makespans[9] = 9.355138311111181e-3
        0x3f829d09c8389a03, // chip_times.compute[0] = 9.088589117777884e-3
        0x3f8328c968c427e2, // chip_times.compute[1] = 9.355138311111181e-3
        0x3f8328c968c427e2, // chip_times.compute[2] = 9.355138311111181e-3
        0x3f829d0961245292, // chip_times.compute[3] = 9.088586117777884e-3
        0x3f81c96885f6cc52, // chip_times.offchip[0] = 8.684937084444542e-3
        0x3f8253618e750536, // chip_times.offchip[1] = 8.948099288888938e-3
        0x3f8253618e750536, // chip_times.offchip[2] = 8.948099288888938e-3
        0x3f81c96885f6cc52, // chip_times.offchip[3] = 8.684937084444542e-3
        0x3f658e8797b96fa2, // halo.link_seconds[0] = 2.6314399999999996e-3
        0x3f758e8797b96fa1, // halo.link_seconds[1] = 5.262879999999998e-3
        0x3f758e8797b96fa1, // halo.link_seconds[2] = 5.262879999999998e-3
        0x3f658e8797b96fa2, // halo.link_seconds[3] = 2.6314399999999996e-3
        0x3f5b8c4a4e35d202, // halo.exposed_seconds[0] = 1.6813970222219203e-3
        0x3f71aa6ece6a09c4, // halo.exposed_seconds[1] = 4.312928044444001e-3
        0x3f71aa6ece6a09c4, // halo.exposed_seconds[2] = 4.312928044444001e-3
        0x3f5b8c4a4e35d202, // halo.exposed_seconds[3] = 1.6813970222219203e-3
        0x0000000000000000, // halo.max_skew_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[1] = 0e0
        0x0000000000000000, // math.host_seconds[2] = 0e0
        0x0000000000000000, // math.host_seconds[3] = 0e0
        0x0000000000000000, // math.exposed_seconds[0] = 0e0
        0x0000000000000000, // math.exposed_seconds[1] = 0e0
        0x0000000000000000, // math.exposed_seconds[2] = 0e0
        0x0000000000000000, // math.exposed_seconds[3] = 0e0
        0x0000000000000000, // math.onpim_seconds[0] = 0e0
        0x0000000000000000, // math.onpim_seconds[1] = 0e0
        0x0000000000000000, // math.onpim_seconds[2] = 0e0
        0x0000000000000000, // math.onpim_seconds[3] = 0e0
        0x3f5efcc85984a800, // finish.dynamic_joules[0] = 1.8913227596137894e-3
        0x3f5f81686a570c00, // finish.dynamic_joules[1] = 1.9229430848646256e-3
        0x3f5f81686a570c00, // finish.dynamic_joules[2] = 1.9229430848646256e-3
        0x3f5efcc85984a800, // finish.dynamic_joules[3] = 1.8913227596137894e-3
        0xbfeded583a45a7df, // offchip_lane_digest[0] = 1300 spans
        0x2c86d465b9ed109a, // offchip_lane_digest[1] = 2600 spans
        0x2c86d465b9ed109a, // offchip_lane_digest[2] = 2600 spans
        0xbfeded583a45a7df, // offchip_lane_digest[3] = 1300 spans
    ]),
    ("pipelined/default/off", &[
        0x3f41394609737fce, // stage_makespans[0] = 5.256263711110821e-4
        0x3f50df144af0b689, // stage_makespans[1] = 1.0297487422223103e-3
        0x3f5921859127a7c5, // stage_makespans[2] = 1.5338711133332389e-3
        0x3f60b1fb6baf4c77, // stage_makespans[3] = 2.0379934844441633e-3
        0x3f64d3340ecac7c5, // stage_makespans[4] = 2.54211585555539e-3
        0x3f68f46cb1e64313, // stage_makespans[5] = 3.046238226666617e-3
        0x3f6d15a55501be61, // stage_makespans[6] = 3.550360597777844e-3
        0x3f709b6efc0e9cf4, // stage_makespans[7] = 4.054482968889096e-3
        0x3f72ac0b4d9c5ab4, // stage_makespans[8] = 4.558605340000344e-3
        0x3f74bca79f2a1874, // stage_makespans[9] = 5.062727711111593e-3
        0x3f74bca79f2a1874, // chip_times.compute[0] = 5.062727711111593e-3
        0x3f74bca79f2a1874, // chip_times.compute[1] = 5.062727711111593e-3
        0x3f74bca79f2a1874, // chip_times.compute[2] = 5.062727711111593e-3
        0x3f74bca79f2a1874, // chip_times.compute[3] = 5.062727711111593e-3
        0x3f72aeb762efa4a8, // chip_times.offchip[0] = 4.5611537488891365e-3
        0x3f72aeb762efa4a8, // chip_times.offchip[1] = 4.5611537488891365e-3
        0x3f72aeb762efa4a8, // chip_times.offchip[2] = 4.5611537488891365e-3
        0x3f72aeb762efa4a8, // chip_times.offchip[3] = 4.5611537488891365e-3
        0x3efa5719416f8c04, // halo.link_seconds[0] = 2.5120000000000017e-5
        0x3efa5719416f8c04, // halo.link_seconds[1] = 2.5120000000000017e-5
        0x3efa5719416f8c04, // halo.link_seconds[2] = 2.5120000000000017e-5
        0x3efa5719416f8c04, // halo.link_seconds[3] = 2.5120000000000017e-5
        0x0000000000000000, // halo.exposed_seconds[0] = 0e0
        0x0000000000000000, // halo.exposed_seconds[1] = 0e0
        0x0000000000000000, // halo.exposed_seconds[2] = 0e0
        0x0000000000000000, // halo.exposed_seconds[3] = 0e0
        0x0000000000000000, // halo.max_skew_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[1] = 0e0
        0x0000000000000000, // math.host_seconds[2] = 0e0
        0x0000000000000000, // math.host_seconds[3] = 0e0
        0x0000000000000000, // math.exposed_seconds[0] = 0e0
        0x0000000000000000, // math.exposed_seconds[1] = 0e0
        0x0000000000000000, // math.exposed_seconds[2] = 0e0
        0x0000000000000000, // math.exposed_seconds[3] = 0e0
        0x0000000000000000, // math.onpim_seconds[0] = 0e0
        0x0000000000000000, // math.onpim_seconds[1] = 0e0
        0x0000000000000000, // math.onpim_seconds[2] = 0e0
        0x0000000000000000, // math.onpim_seconds[3] = 0e0
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[0] = 1.9321169688709672e-3
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[1] = 1.9321169688709672e-3
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[2] = 1.9321169688709672e-3
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[3] = 1.9321169688709672e-3
        0xbb53460072c6ea80, // offchip_lane_digest[0] = 2600 spans
        0xbb53460072c6ea80, // offchip_lane_digest[1] = 2600 spans
        0xbb53460072c6ea80, // offchip_lane_digest[2] = 2600 spans
        0xbb53460072c6ea80, // offchip_lane_digest[3] = 2600 spans
    ]),
    ("pipelined/narrow/host", &[
        0x3f41525b2f50ae45, // stage_makespans[0] = 5.286164511110822e-4
        0x3f50f82970cde501, // stage_makespans[1] = 1.0357289022223106e-3
        0x3f59472549f36d78, // stage_makespans[2] = 1.542841353333239e-3
        0x3f60cb10918c7aec, // stage_makespans[3] = 2.0499538044441625e-3
        0x3f64f28e7e1f41d8, // stage_makespans[4] = 2.5570662555553896e-3
        0x3f691a0c6ab208c4, // stage_makespans[5] = 3.0641787066666166e-3
        0x3f6d418a5744cfb0, // stage_makespans[6] = 3.5712911577778436e-3
        0x3f70b48421ebcb70, // stage_makespans[7] = 4.0784036088891e-3
        0x3f72c84318352eff, // stage_makespans[8] = 4.585516060000349e-3
        0x3f74dc020e7e928e, // stage_makespans[9] = 5.092628511111598e-3
        0x3f74dc020e7e928e, // chip_times.compute[0] = 5.092628511111598e-3
        0x3f74dc020e7e928e, // chip_times.compute[1] = 5.092628511111598e-3
        0x3f74dc020e7e928e, // chip_times.compute[2] = 5.092628511111598e-3
        0x3f74dc020e7e928e, // chip_times.compute[3] = 5.092628511111598e-3
        0x3f72efe479b52b3a, // chip_times.offchip[0] = 4.623310548889143e-3
        0x3f72efe479b52b3a, // chip_times.offchip[1] = 4.623310548889143e-3
        0x3f72efe479b52b3a, // chip_times.offchip[2] = 4.623310548889143e-3
        0x3f72efe479b52b3a, // chip_times.offchip[3] = 4.623310548889143e-3
        0x3f36c91a3abec2c6, // halo.link_seconds[0] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[1] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[2] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[3] = 3.4767999999999984e-4
        0x0000000000000000, // halo.exposed_seconds[0] = 0e0
        0x0000000000000000, // halo.exposed_seconds[1] = 0e0
        0x0000000000000000, // halo.exposed_seconds[2] = 0e0
        0x0000000000000000, // halo.exposed_seconds[3] = 0e0
        0x0000000000000000, // halo.max_skew_seconds[0] = 0e0
        0x3eff5a6f547a1537, // math.host_seconds[0] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.host_seconds[1] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.host_seconds[2] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.host_seconds[3] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.exposed_seconds[0] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.exposed_seconds[1] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.exposed_seconds[2] = 2.9900800000000698e-5
        0x3eff5a6f547a1537, // math.exposed_seconds[3] = 2.9900800000000698e-5
        0x0000000000000000, // math.onpim_seconds[0] = 0e0
        0x0000000000000000, // math.onpim_seconds[1] = 0e0
        0x0000000000000000, // math.onpim_seconds[2] = 0e0
        0x0000000000000000, // math.onpim_seconds[3] = 0e0
        0x3f60963f7d0bc700, // finish.dynamic_joules[0] = 2.0247688302043043e-3
        0x3f60963f7d0bc700, // finish.dynamic_joules[1] = 2.0247688302043043e-3
        0x3f60963f7d0bc700, // finish.dynamic_joules[2] = 2.0247688302043043e-3
        0x3f60963f7d0bc700, // finish.dynamic_joules[3] = 2.0247688302043043e-3
        0x8313218c1a656e8d, // offchip_lane_digest[0] = 2600 spans
        0x8313218c1a656e8d, // offchip_lane_digest[1] = 2600 spans
        0x8313218c1a656e8d, // offchip_lane_digest[2] = 2600 spans
        0x8313218c1a656e8d, // offchip_lane_digest[3] = 2600 spans
    ]),
    ("pipelined/narrow/on_pim", &[
        0x3f429120c070eced, // stage_makespans[0] = 5.666170044444065e-4
        0x3f520c8ac53ffaa9, // stage_makespans[1] = 1.101623075555539e-3
        0x3f5ad0852a477b33, // stage_makespans[2] = 1.6366291466664684e-3
        0x3f61ca3fc7a77f47, // stage_makespans[3] = 2.171635217777554e-3
        0x3f662c3cfa2b4238, // stage_makespans[4] = 2.70664128888878e-3
        0x3f6a8e3a2caf0529, // stage_makespans[5] = 3.241647360000006e-3
        0x3f6ef0375f32c81a, // stage_makespans[6] = 3.7766534311112323e-3
        0x3f71a91a48db45d3, // stage_makespans[7] = 4.3116595022225255e-3
        0x3f73da18e21d276a, // stage_makespans[8] = 4.846665573333778e-3
        0x3f760b177b5f0901, // stage_makespans[9] = 5.3816716444450305e-3
        0x3f760b177b5f0901, // chip_times.compute[0] = 5.3816716444450305e-3
        0x3f760b177b5f0901, // chip_times.compute[1] = 5.3816716444450305e-3
        0x3f760b177b5f0901, // chip_times.compute[2] = 5.3816716444450305e-3
        0x3f760b177b5f0901, // chip_times.compute[3] = 5.3816716444450305e-3
        0x3f73fe979ee17dd6, // chip_times.offchip[0] = 4.881469982222572e-3
        0x3f73fe979ee17dd6, // chip_times.offchip[1] = 4.881469982222572e-3
        0x3f73fe979ee17dd6, // chip_times.offchip[2] = 4.881469982222572e-3
        0x3f73fe979ee17dd6, // chip_times.offchip[3] = 4.881469982222572e-3
        0x3f36c91a3abec2c6, // halo.link_seconds[0] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[1] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[2] = 3.4767999999999984e-4
        0x3f36c91a3abec2c6, // halo.link_seconds[3] = 3.4767999999999984e-4
        0x0000000000000000, // halo.exposed_seconds[0] = 0e0
        0x0000000000000000, // halo.exposed_seconds[1] = 0e0
        0x0000000000000000, // halo.exposed_seconds[2] = 0e0
        0x0000000000000000, // halo.exposed_seconds[3] = 0e0
        0x0000000000000000, // halo.max_skew_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[1] = 0e0
        0x0000000000000000, // math.host_seconds[2] = 0e0
        0x0000000000000000, // math.host_seconds[3] = 0e0
        0x0000000000000000, // math.exposed_seconds[0] = 0e0
        0x0000000000000000, // math.exposed_seconds[1] = 0e0
        0x0000000000000000, // math.exposed_seconds[2] = 0e0
        0x0000000000000000, // math.exposed_seconds[3] = 0e0
        0x3f34407ab092226d, // math.onpim_seconds[0] = 3.0901904444439223e-4
        0x3f34407ab092226d, // math.onpim_seconds[1] = 3.0901904444439223e-4
        0x3f34407ab092226d, // math.onpim_seconds[2] = 3.0901904444439223e-4
        0x3f34407ab092226d, // math.onpim_seconds[3] = 3.0901904444439223e-4
        0x3f601e04421dd500, // finish.dynamic_joules[0] = 1.9674380463877705e-3
        0x3f601e04421dd500, // finish.dynamic_joules[1] = 1.9674380463877705e-3
        0x3f601e04421dd500, // finish.dynamic_joules[2] = 1.9674380463877705e-3
        0x3f601e04421dd500, // finish.dynamic_joules[3] = 1.9674380463877705e-3
        0x6fcdd2631fd77b60, // offchip_lane_digest[0] = 2600 spans
        0x6fcdd2631fd77b60, // offchip_lane_digest[1] = 2600 spans
        0x6fcdd2631fd77b60, // offchip_lane_digest[2] = 2600 spans
        0x6fcdd2631fd77b60, // offchip_lane_digest[3] = 2600 spans
    ]),
    ("pipelined/starved/off", &[
        0x3f46b49d4223f5b8, // stage_makespans[0] = 6.929176200000586e-4
        0x3f565a6b83a12521, // stage_makespans[1] = 1.3643312399998569e-3
        0x3f60ad44331827ea, // stage_makespans[2] = 2.035744859999679e-3
        0x3f662d52a45fbf8d, // stage_makespans[3] = 2.707158479999755e-3
        0x3f6bad6115a75730, // stage_makespans[4] = 3.378572099999831e-3
        0x3f7096b7c3777785, // stage_makespans[5] = 4.049985719999931e-3
        0x3f7356befc1b4327, // stage_makespans[6] = 4.721399339999966e-3
        0x3f7616c634bf0ec9, // stage_makespans[7] = 5.392812960000001e-3
        0x3f78d6cd6d62da6b, // stage_makespans[8] = 6.064226580000036e-3
        0x3f7b96d4a606a60d, // stage_makespans[9] = 6.7356402000000705e-3
        0x3f7b96d4a606a60d, // chip_times.compute[0] = 6.7356402000000705e-3
        0x3f7b96d4a606a60d, // chip_times.compute[1] = 6.7356402000000705e-3
        0x3f7b96d4a606a60d, // chip_times.compute[2] = 6.7356402000000705e-3
        0x3f7b96d4a606a60d, // chip_times.compute[3] = 6.7356402000000705e-3
        0x3f7afeb18f5bbdfb, // chip_times.offchip[0] = 6.590550988888828e-3
        0x3f7afeb18f5bbdfb, // chip_times.offchip[1] = 6.590550988888828e-3
        0x3f7afeb18f5bbdfb, // chip_times.offchip[2] = 6.590550988888828e-3
        0x3f7afeb18f5bbdfb, // chip_times.offchip[3] = 6.590550988888828e-3
        0x3f758e8797b96fa1, // halo.link_seconds[0] = 5.262879999999998e-3
        0x3f758e8797b96fa1, // halo.link_seconds[1] = 5.262879999999998e-3
        0x3f758e8797b96fa1, // halo.link_seconds[2] = 5.262879999999998e-3
        0x3f758e8797b96fa1, // halo.link_seconds[3] = 5.262879999999998e-3
        0x3f5b8cac0a3546da, // halo.exposed_seconds[0] = 1.681488044443949e-3
        0x3f5b8cac0a3546da, // halo.exposed_seconds[1] = 1.681488044443949e-3
        0x3f5b8cac0a3546da, // halo.exposed_seconds[2] = 1.681488044443949e-3
        0x3f5b8cac0a3546da, // halo.exposed_seconds[3] = 1.681488044443949e-3
        0x0000000000000000, // halo.max_skew_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[1] = 0e0
        0x0000000000000000, // math.host_seconds[2] = 0e0
        0x0000000000000000, // math.host_seconds[3] = 0e0
        0x0000000000000000, // math.exposed_seconds[0] = 0e0
        0x0000000000000000, // math.exposed_seconds[1] = 0e0
        0x0000000000000000, // math.exposed_seconds[2] = 0e0
        0x0000000000000000, // math.exposed_seconds[3] = 0e0
        0x0000000000000000, // math.onpim_seconds[0] = 0e0
        0x0000000000000000, // math.onpim_seconds[1] = 0e0
        0x0000000000000000, // math.onpim_seconds[2] = 0e0
        0x0000000000000000, // math.onpim_seconds[3] = 0e0
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[0] = 1.9321169688709672e-3
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[1] = 1.9321169688709672e-3
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[2] = 1.9321169688709672e-3
        0x3f5fa7e2cc5fce00, // finish.dynamic_joules[3] = 1.9321169688709672e-3
        0x72ebae49378f9ffe, // offchip_lane_digest[0] = 2600 spans
        0x72ebae49378f9ffe, // offchip_lane_digest[1] = 2600 spans
        0x72ebae49378f9ffe, // offchip_lane_digest[2] = 2600 spans
        0x72ebae49378f9ffe, // offchip_lane_digest[3] = 2600 spans
    ]),
    ("pipelined/starved_wall/off", &[
        0x3f46aa98c1db1d57, // stage_makespans[0] = 6.917234311111614e-4
        0x3f56506703584d35, // stage_makespans[1] = 1.3619428622220879e-3
        0x3f60a5c0d2e18617, // stage_makespans[2] = 2.0321622933330385e-3
        0x3f66234e2416e7a8, // stage_makespans[3] = 2.70238172444422e-3
        0x3f6ba0db754c4939, // stage_makespans[4] = 3.3726011555554017e-3
        0x3f708f346340d57d, // stage_makespans[5] = 4.042820586666604e-3
        0x3f734dfb0bdb8610, // stage_makespans[6] = 4.713040017777739e-3
        0x3f760cc1b47636a3, // stage_makespans[7] = 5.3832594488888745e-3
        0x3f78cb885d10e736, // stage_makespans[8] = 6.05347888000001e-3
        0x3f7b8a4f05ab97c9, // stage_makespans[9] = 6.723698311111145e-3
        0x3f7afcc3ea12bbee, // chip_times.compute[0] = 6.588712015555649e-3
        0x3f7b8a4f05ab97c9, // chip_times.compute[1] = 6.723698311111145e-3
        0x3f7b8a4f05ab97c9, // chip_times.compute[2] = 6.723698311111145e-3
        0x3f7afcc31bea2d0c, // chip_times.compute[3] = 6.588709015555649e-3
        0x3f79df77fc8d5c7e, // chip_times.offchip[0] = 6.316631982222208e-3
        0x3f7af36c7f09cac6, // chip_times.offchip[1] = 6.579803288888802e-3
        0x3f7af36c7f09cac6, // chip_times.offchip[2] = 6.579803288888802e-3
        0x3f79df77fc8d5c7e, // chip_times.offchip[3] = 6.316631982222208e-3
        0x3f658e8797b96fa2, // halo.link_seconds[0] = 2.6314399999999996e-3
        0x3f758e8797b96fa1, // halo.link_seconds[1] = 5.262879999999998e-3
        0x3f758e8797b96fa1, // halo.link_seconds[2] = 5.262879999999998e-3
        0x3f658e8797b96fa2, // halo.link_seconds[3] = 2.6314399999999996e-3
        0x3f59e4f0dbfbdcf2, // halo.exposed_seconds[0] = 1.5804626599996122e-3
        0x3f5b8cac0a3546da, // halo.exposed_seconds[1] = 1.681488044443949e-3
        0x3f5b8cac0a3546da, // halo.exposed_seconds[2] = 1.681488044443949e-3
        0x3f59e50dd9aff3d9, // halo.exposed_seconds[3] = 1.5804896599995648e-3
        0x3f21b17d382d6640, // halo.max_skew_seconds[0] = 1.3498929555559765e-4
        0x0000000000000000, // math.host_seconds[0] = 0e0
        0x0000000000000000, // math.host_seconds[1] = 0e0
        0x0000000000000000, // math.host_seconds[2] = 0e0
        0x0000000000000000, // math.host_seconds[3] = 0e0
        0x0000000000000000, // math.exposed_seconds[0] = 0e0
        0x0000000000000000, // math.exposed_seconds[1] = 0e0
        0x0000000000000000, // math.exposed_seconds[2] = 0e0
        0x0000000000000000, // math.exposed_seconds[3] = 0e0
        0x0000000000000000, // math.onpim_seconds[0] = 0e0
        0x0000000000000000, // math.onpim_seconds[1] = 0e0
        0x0000000000000000, // math.onpim_seconds[2] = 0e0
        0x0000000000000000, // math.onpim_seconds[3] = 0e0
        0x3f5efcc85984a800, // finish.dynamic_joules[0] = 1.8913227596137894e-3
        0x3f5f81686a570c00, // finish.dynamic_joules[1] = 1.9229430848646256e-3
        0x3f5f81686a570c00, // finish.dynamic_joules[2] = 1.9229430848646256e-3
        0x3f5efcc85984a800, // finish.dynamic_joules[3] = 1.8913227596137894e-3
        0xac454e246b5e9aaa, // offchip_lane_digest[0] = 1300 spans
        0x57b415292ba0607b, // offchip_lane_digest[1] = 2600 spans
        0x57b415292ba0607b, // offchip_lane_digest[2] = 2600 spans
        0x949d92ad95b0e1be, // offchip_lane_digest[3] = 1300 spans
    ]),
];

//! Golden instruction streams of all three element mappings.
//!
//! Every compiled stream is pinned by its [`InstrStream::content_hash`]
//! on one configuration: a level-2 mesh (64 elements), n = 3, Riemann
//! flux, heterogeneous materials (so the LUT holds several pairs). The
//! values were recorded from the implementation that kept one compiler
//! per mapping, so any refactor of the mapping code must reproduce each
//! mapping's streams byte for byte.
//!
//! On a mismatch the test prints the full observed table in the layout
//! of [`GOLDEN`], so an intended stream change can be re-recorded
//! deliberately.

use pim_isa::{InstrStream, FNV_OFFSET};
use pim_math::MathPlacement;
use wave_pim::compiler::AcousticMapping;
use wave_pim::compiler_elastic::ElasticMapping;
use wave_pim::compiler_expanded::ExpandedAcousticMapping;
use wavesim_dg::{AcousticMaterial, ElasticMaterial, FluxKind, Lsrk5};
use wavesim_mesh::{Boundary, HexMesh};

const LEVEL: u32 = 2;
const N: usize = 3;

/// `(label, content hash)` of every stream, in a fixed order.
const GOLDEN: &[(&str, u64)] = &[
    ("acoustic.volume", 0xcd80b3f7cb41b7c5),
    ("acoustic.flux", 0xcf3bad30c9e05b05),
    ("acoustic.flux_phased", 0x0780d5cfdd34ae25),
    ("acoustic.integration[0]", 0x3218729d6fdec5c5),
    ("acoustic.integration[1]", 0xc06d9f9fb8a2f245),
    ("acoustic.integration[2]", 0x78c9d66bbc75a4c5),
    ("acoustic.integration[3]", 0xa3bd50d5ea87d3c5),
    ("acoustic.integration[4]", 0x565bfefcc24f7345),
    ("acoustic.lut_setup", 0x1c78500b63cd1dc5),
    ("acoustic.halo_store", 0x9bb8930653cbc71d),
    ("acoustic.halo_load", 0xf71b5bc923530b15),
    ("acoustic.math_setup", 0x8d91d33e81f7c105),
    ("acoustic.math_stage", 0x23194e8d05ae3605),
    ("expanded.stage[0]", 0x0d70a5e0f6be1b05),
    ("expanded.stage[1]", 0xba2d7ea0a8156305),
    ("expanded.stage[2]", 0xd8a4bbbaeb7c4705),
    ("expanded.stage[3]", 0xa5756d0693242305),
    ("expanded.stage[4]", 0xd15147716cce0705),
    ("expanded.lut_setup", 0x0b57c4baacec9345),
    ("elastic.stage[0]", 0xd118d68f3fb6ab85),
    ("elastic.stage[1]", 0x92c6b8a05a2b4785),
    ("elastic.stage[2]", 0x4188e2a618707b85),
    ("elastic.stage[3]", 0x173034f7ce404685),
    ("elastic.stage[4]", 0xe31f873fe76d2b85),
    ("elastic.lut_setup", 0xd2ae32624e632dc5),
];

fn hash(s: &InstrStream) -> u64 {
    s.content_hash(FNV_OFFSET)
}

fn mesh() -> HexMesh {
    HexMesh::refinement_level(LEVEL, Boundary::Periodic)
}

/// Three acoustic materials in a repeating pattern; every `κρ` and `ρ`
/// lies inside the on-PIM seed table's operand range.
fn acoustic_materials(count: usize) -> Vec<AcousticMaterial> {
    let kinds = [
        AcousticMaterial::new(2.0, 1.0),
        AcousticMaterial::new(1.0, 2.0),
        AcousticMaterial::new(4.0, 0.5),
    ];
    (0..count).map(|e| kinds[(e * 7 / 3) % 3]).collect()
}

fn elastic_materials(count: usize) -> Vec<ElasticMaterial> {
    let kinds = [ElasticMaterial::new(2.0, 1.0, 1.0), ElasticMaterial::new(4.0, 2.0, 2.0)];
    (0..count).map(|e| kinds[(e / 3) % 2]).collect()
}

fn observe() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mesh = mesh();
    let total = mesh.num_elements();
    let all: Vec<usize> = (0..total).collect();

    let acoustic =
        AcousticMapping::new(mesh.clone(), N, FluxKind::Riemann, acoustic_materials(total));
    out.push(("acoustic.volume".into(), hash(&acoustic.compile_volume_for(&all))));
    out.push(("acoustic.flux".into(), hash(&acoustic.compile_flux_for(&all))));
    out.push(("acoustic.flux_phased".into(), hash(&acoustic.compile_flux_phased_for(&all))));
    for s in 0..Lsrk5::STAGES {
        out.push((
            format!("acoustic.integration[{s}]"),
            hash(&acoustic.compile_integration_for(&all, s)),
        ));
    }
    out.push(("acoustic.lut_setup".into(), hash(&acoustic.compile_lut_setup())));

    // A shard of the first 16 elements with the next 16 as ghosts; the
    // first 8 residents are its send set.
    let mut sharded =
        AcousticMapping::new(mesh.clone(), N, FluxKind::Riemann, acoustic_materials(total));
    let residents: Vec<usize> = (0..16).collect();
    let ghosts: Vec<usize> = (16..32).collect();
    sharded.install_shard_map(&residents, &ghosts);
    out.push((
        "acoustic.halo_store".into(),
        hash(&sharded.compile_halo_store_for(&residents[..8])),
    ));
    out.push(("acoustic.halo_load".into(), hash(&sharded.compile_halo_load_for(&ghosts))));

    let mut onpim =
        AcousticMapping::new(mesh.clone(), N, FluxKind::Riemann, acoustic_materials(total));
    onpim.set_math_placement(Some(MathPlacement::all_onpim()));
    out.push(("acoustic.math_setup".into(), hash(&onpim.compile_math_setup_for(&all))));
    out.push(("acoustic.math_stage".into(), hash(&onpim.compile_math_stage_for(&all))));

    let expanded =
        ExpandedAcousticMapping::new(mesh.clone(), N, FluxKind::Riemann, acoustic_materials(total));
    for (s, stream) in expanded.compile_step().iter().enumerate() {
        out.push((format!("expanded.stage[{s}]"), hash(stream)));
    }
    out.push(("expanded.lut_setup".into(), hash(&expanded.compile_lut_setup())));

    let elastic = ElasticMapping::new(mesh, N, FluxKind::Riemann, elastic_materials(total));
    for (s, stream) in elastic.compile_step().iter().enumerate() {
        out.push((format!("elastic.stage[{s}]"), hash(stream)));
    }
    out.push(("elastic.lut_setup".into(), hash(&elastic.compile_lut_setup())));
    out
}

#[test]
fn every_mapping_stream_matches_its_recorded_hash() {
    let observed = observe();
    let table: String =
        observed.iter().map(|(label, h)| format!("    (\"{label}\", {h:#018x}),\n")).collect();
    let expected: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    assert!(observed == expected, "stream hashes changed; observed table:\n{table}");
}

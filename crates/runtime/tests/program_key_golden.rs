//! Pins every chip's compiled kernel streams. Each shard's mapping is
//! rebuilt through the public API the way the runner builds it (the
//! template with the shard map and the runner's math placement
//! installed), and [`InstrStream::content_hash`] is folded over its halo
//! store and load, Volume, Flux schedule, five Integration stages and
//! math stage, chip by chip, so any change to what a shard compiles to
//! moves the values. The runner's cached tapes are the lowering of these
//! streams (`cluster::tests::cached_programs_equal_fresh_compiles`, on
//! the same four configurations).

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_isa::{InstrStream, FNV_OFFSET};
use pim_math::MathConfig;
use wave_pim::compiler::AcousticMapping;
use wave_pim::compiler_elastic::ElasticMapping;
use wave_pim::mapping::{ElementKernels, Mapping};
use wavesim_dg::{AcousticMaterial, ElasticMaterial, FluxKind, Lsrk5, State};
use wavesim_mesh::{Boundary, HexMesh};

/// Builds a runner from `template` and folds every shard's streams.
fn streams_key<K: ElementKernels>(template: Mapping<K>, config: ClusterConfig) -> u64 {
    let initial = State::zeros(template.mesh().num_elements(), template.num_vars(), 8);
    let runner = ClusterRunner::with_mapping(template.clone(), &initial, 1e-3, config);
    let placements = runner.math_placements();
    let partition = runner.partition();
    partition.shards().iter().fold(FNV_OFFSET, |h, shard| {
        let res: Vec<usize> = shard.elements.iter().map(|e| e.index()).collect();
        let ghosts: Vec<usize> = shard.ghosts.iter().map(|e| e.index()).collect();
        let sends: Vec<usize> =
            shard.boundary_elements(partition).iter().map(|e| e.index()).collect();
        let mut m = template.clone();
        m.install_shard_map(&res, &ghosts);
        m.set_math_placement(placements[shard.index]);
        let streams = [
            m.compile_halo_store_for(&sends),
            m.compile_halo_load_for(&ghosts),
            m.compile_volume_for(&res),
            m.compile_flux_schedule_for(&res),
        ]
        .into_iter()
        .chain((0..Lsrk5::STAGES).map(|s| m.compile_integration_for(&res, s)))
        .chain([m.compile_math_stage_for(&res)]);
        streams.fold(h, |h, s: InstrStream| s.content_hash(h))
    })
}

#[test]
fn four_chip_acoustic_keys_are_pinned() {
    let cases = [
        (Boundary::Periodic, FluxKind::Riemann, MathConfig::off(), 0x4837_288b_315e_c225u64),
        (Boundary::Wall, FluxKind::Central, MathConfig::off(), 0x37f6_6079_2a8c_0605),
        (Boundary::Periodic, FluxKind::Riemann, MathConfig::on_pim(), 0x1b28_0789_68ad_9a25),
    ];
    for (boundary, flux, math, key) in cases {
        let mesh = HexMesh::refinement_level(2, boundary);
        let template = AcousticMapping::uniform(mesh, 2, flux, AcousticMaterial::new(2.0, 1.0));
        let observed = streams_key(template, ClusterConfig::new(4).with_math(math));
        assert_eq!(observed, key, "{boundary:?}/{flux:?}/{:?}: {observed:#x}", math.mode);
    }
}

#[test]
fn two_chip_elastic_key_is_pinned() {
    let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
    let materials: Vec<ElasticMaterial> = (0..mesh.num_elements())
        .map(|e| {
            if (e / 3) % 2 == 0 {
                ElasticMaterial::new(2.0, 1.0, 1.0)
            } else {
                ElasticMaterial::new(4.0, 2.0, 1.5)
            }
        })
        .collect();
    let template = ElasticMapping::new(mesh, 2, FluxKind::Riemann, materials);
    let observed = streams_key(template, ClusterConfig::new(2));
    assert_eq!(observed, 0x339d_b239_f233_6de5, "{observed:#x}");
}

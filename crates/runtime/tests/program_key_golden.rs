//! Pins [`ClusterRunner::program_content_key`]: the key hashes every
//! chip's kernels as the full expanded instruction streams, so a fleet
//! that scores cache affinity by key sees the same keys whatever form
//! the compiler emits the kernels in. The values were recorded when the
//! runners still compiled one instruction stream per kernel.

use pim_cluster::{ClusterConfig, ClusterRunner};
use pim_math::MathConfig;
use wave_pim::compiler_elastic::ElasticMapping;
use wavesim_dg::{AcousticMaterial, ElasticMaterial, FluxKind, State};
use wavesim_mesh::{Boundary, HexMesh};

fn acoustic_key(boundary: Boundary, flux: FluxKind, math: MathConfig) -> u64 {
    let mesh = HexMesh::refinement_level(2, boundary);
    let initial = State::zeros(mesh.num_elements(), 4, 8);
    let material = AcousticMaterial::new(2.0, 1.0);
    let config = ClusterConfig::new(4).with_math(math);
    ClusterRunner::new(&mesh, 2, flux, material, &initial, 1e-3, config).program_content_key()
}

#[test]
fn four_chip_acoustic_keys_are_pinned() {
    let cases = [
        (Boundary::Periodic, FluxKind::Riemann, MathConfig::off(), 0xc2c6_dc40_9950_a4d9u64),
        (Boundary::Wall, FluxKind::Central, MathConfig::off(), 0xb9c1_c711_54e1_2b9f),
        (Boundary::Periodic, FluxKind::Riemann, MathConfig::on_pim(), 0x8432_9e00_8eff_9975),
    ];
    for (boundary, flux, math, key) in cases {
        let observed = acoustic_key(boundary, flux, math);
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
    let initial = State::zeros(mesh.num_elements(), 9, 8);
    let mapping = ElasticMapping::new(mesh, 2, FluxKind::Riemann, materials);
    let runner = ClusterRunner::with_mapping(mapping, &initial, 1e-3, ClusterConfig::new(2));
    let observed = runner.program_content_key();
    assert_eq!(observed, 0x20dc_ffe9_5f4c_6b4d, "{observed:#x}");
}

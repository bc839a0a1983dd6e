//! Block-set lowering: a kernel handed to the chip as parts — each
//! uniform phase one run over the shard's block set — lowers to the tape
//! its expanded stream lowers to, op for op.
//!
//! Every kernel of the one-block acoustic mapping (Volume, phased and
//! unphased Flux, all five Integration stages), for Riemann and central
//! flux on periodic and wall meshes, over the whole mesh and over one
//! shard of a four-chip partition. The four-block mappings emit every
//! phase element by element; `stream_golden.rs` pins their expansions.

use pim_sim::{ChipConfig, PimChip};
use wave_pim::compiler::AcousticMapping;
use wave_pim::program_cache::{KernelParts, Part};
use wavesim_dg::{AcousticMaterial, FluxKind, Lsrk5};
use wavesim_mesh::{Boundary, HexMesh, SlicePartition};

/// The mapping of a level-2 mesh, and the elements one chip holds: all
/// of them, or shard 1 of four under the shard placement.
fn mapping(boundary: Boundary, flux: FluxKind, sharded: bool) -> (AcousticMapping, Vec<usize>) {
    let mesh = HexMesh::refinement_level(2, boundary);
    let partition = SlicePartition::new(&mesh, 4);
    let mut m = AcousticMapping::uniform(mesh, 2, flux, AcousticMaterial::new(2.0, 1.0));
    if !sharded {
        let all = (0..m.mesh().num_elements()).collect();
        return (m, all);
    }
    let shard = &partition.shards()[1];
    let res: Vec<usize> = shard.elements.iter().map(|e| e.index()).collect();
    let ghosts: Vec<usize> = shard.ghosts.iter().map(|e| e.index()).collect();
    m.install_shard_map(&res, &ghosts);
    (m, res)
}

/// Whether `k` repeats at least one run over more than one block.
fn repeats_a_run(k: &KernelParts) -> bool {
    k.parts().iter().any(|p| matches!(p, Part::Repeat { blocks, .. } if blocks.len() > 1))
}

#[test]
fn every_kernel_lowers_from_its_parts_to_the_tape_of_its_expansion() {
    let chip = PimChip::new(ChipConfig::default_2gb());
    for boundary in [Boundary::Periodic, Boundary::Wall] {
        for flux in [FluxKind::Riemann, FluxKind::Central] {
            for sharded in [false, true] {
                let (m, elems) = mapping(boundary, flux, sharded);
                let mut kernels = vec![
                    ("volume", m.volume_parts(&elems)),
                    ("flux", m.flux_parts(&elems)),
                    ("flux_phased", m.flux_phased_parts(&elems)),
                ];
                for stage in 0..Lsrk5::STAGES {
                    kernels.push(("integration", m.integration_parts(&elems, stage)));
                }
                for (name, parts) in kernels {
                    let label = format!("{boundary:?}/{flux:?}/sharded {sharded}: {name}");
                    let expanded = parts.expand();
                    assert_eq!(parts.len(), expanded.len(), "{label}");
                    assert_eq!(&parts.stats(), expanded.stats(), "{label}");
                    let whole = chip.lower(&expanded).unwrap();
                    assert_eq!(parts.lower(&chip).unwrap(), whole, "{label}");
                    if name != "flux" {
                        assert!(repeats_a_run(&parts), "{label}: no phase was emitted once");
                    }
                }
            }
        }
    }
}

#[test]
fn expansions_are_what_the_compile_entry_points_return() {
    let (m, elems) = mapping(Boundary::Wall, FluxKind::Riemann, true);
    assert_eq!(m.volume_parts(&elems).expand(), m.compile_volume_for(&elems));
    assert_eq!(m.flux_phased_parts(&elems).expand(), m.compile_flux_phased_for(&elems));
    assert_eq!(m.integration_parts(&elems, 3).expand(), m.compile_integration_for(&elems, 3));
    let stream = m.compile_flux_for(&elems);
    assert_eq!(m.flux_parts(&elems).content_hash(7), stream.content_hash(7));
}

//! Storage-footprint regression guard: a block allocates only the row
//! tiles a kernel writes. The acoustic n = 2 element uses compute rows
//! 0..8 and a few constant rows from 512 up, so after preload and a
//! cached step every block on every chip must hold at most two tiles.
//! A compiler change that writes a whole column (say, a broadcast over
//! all 512 compute rows) would quietly re-inflate host memory 30×;
//! this test catches it.

use pim_cluster::{ClusterConfig, ClusterRunner};
use wavesim_dg::{AcousticMaterial, FluxKind, State};
use wavesim_mesh::{Boundary, HexMesh};

#[test]
fn element_blocks_hold_at_most_two_tiles_after_a_cached_step() {
    let mesh = HexMesh::refinement_level(2, Boundary::Periodic);
    let n = 2;
    let nodes = n * n * n;
    let mut initial = State::zeros(mesh.num_elements(), 4, nodes);
    for e in 0..mesh.num_elements() {
        for v in 0..4 {
            for node in 0..nodes {
                initial.set_value(e, v, node, (e * 31 + v * 7 + node) as f64 * 1e-3);
            }
        }
    }
    let mut cluster = ClusterRunner::new(
        &mesh,
        n,
        FluxKind::Riemann,
        AcousticMaterial::new(2.0, 1.0),
        &initial,
        1e-3,
        ClusterConfig::new(2),
    );
    cluster.step();

    let (mut blocks, mut most) = (0, 0);
    for (c, chip) in cluster.chips().iter().enumerate() {
        for (id, block) in chip.resident_blocks() {
            blocks += 1;
            most = most.max(block.resident_tiles());
            assert!(
                block.resident_tiles() <= 2,
                "chip {c} block {} holds {} tiles",
                id.0,
                block.resident_tiles()
            );
        }
    }
    // Every element is resident on exactly one chip, so at least that
    // many blocks were checked (ghosts and the LUT add more).
    assert!(blocks >= mesh.num_elements(), "only {blocks} blocks materialized");
    assert_eq!(most, 2, "element blocks use the compute tile and the constants tile");
}

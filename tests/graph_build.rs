//! The BFS graph build's output bytes, pinned.
//!
//! `rmat::generate_with` and `Csr::build` split their work over worker
//! threads; the graph they produce must be the same bytes as the
//! single-threaded build it replaced, on every host. Each digest below is
//! FNV-1a over the CSR offsets (`u64` little-endian, `n + 1` of them)
//! followed by the adjacency (`u32` little-endian), for the seed-500
//! graph500 R-MAT graphs at edgefactor 16 that `table4` and the
//! benchmark traverse.

use apenet::apps::bfs::csr::Csr;
use apenet::apps::bfs::rmat;

/// FNV-1a over `(offsets, adjacency)`, read through the public API.
fn digest(g: &Csr) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    let mut offset = 0u64;
    feed(&offset.to_le_bytes());
    for v in 0..g.n() as u32 {
        offset += g.degree(v);
        feed(&offset.to_le_bytes());
    }
    for v in 0..g.n() as u32 {
        for &w in g.neighbors(v) {
            feed(&w.to_le_bytes());
        }
    }
    h
}

#[test]
fn seed_500_graphs_keep_their_bytes() {
    for (scale, permute, want) in [
        (14, false, 0x057e_dbac_7cda_2f7fu64),
        (14, true, 0xd51f_15d9_d5f8_8eec),
        (16, false, 0x0f12_611e_f6e8_1ee4),
        (16, true, 0x8e6a_fa46_0948_42a4),
    ] {
        let edges = rmat::generate_with(scale, 16, 500, permute);
        let g = Csr::build(1 << scale, &edges);
        assert_eq!(
            digest(&g),
            want,
            "scale {scale} permute {permute}: {:#018x}",
            digest(&g)
        );
    }
}

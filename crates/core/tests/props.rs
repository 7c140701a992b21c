//! Property tests for the APEnet+ card building blocks.

use apenet_core::coord::{Coord, TorusDims};
use apenet_core::nios::{BufEntry, BufKind, BufList, GpuV2p, PageDesc};
use apenet_core::packet::{fragments, ApePacket, MsgId, APE_MAX_PAYLOAD};
use apenet_gpu::GPU_PAGE_SIZE;
use apenet_sim::check::{self, Gen};

fn gen_dims(g: &mut Gen) -> TorusDims {
    TorusDims::new(g.u32(1, 6) as u8, g.u32(1, 6) as u8, g.u32(1, 4) as u8)
}

/// Dimension-ordered routing always terminates in exactly `hops()`
/// steps, for every torus shape and coordinate pair.
#[test]
fn routing_terminates() {
    check::check("routing_terminates", |g| {
        let dims = gen_dims(g);
        let a = dims.coord_of(g.usize(0, 120) % dims.nodes());
        let b = dims.coord_of(g.usize(0, 120) % dims.nodes());
        let mut at = a;
        let mut steps = 0;
        while let Some(h) = dims.next_hop(at, b) {
            at = dims.neighbor(at, h);
            steps += 1;
            assert!(steps <= 32, "routing loop {a} -> {b}");
        }
        assert_eq!(at, b);
        assert_eq!(steps, dims.hops(a, b));
        // Routes are never longer than half of each ring summed.
        let bound = (dims.x / 2 + dims.y / 2 + dims.z / 2) as u32;
        assert!(steps <= bound.max(1));
    });
}

/// rank_of/coord_of are inverse bijections.
#[test]
fn rank_coord_bijection() {
    check::check("rank_coord_bijection", |g| {
        let dims = gen_dims(g);
        let mut seen = std::collections::HashSet::new();
        for r in 0..dims.nodes() {
            let c = dims.coord_of(r);
            assert_eq!(dims.rank_of(c), r);
            assert!(seen.insert(c));
        }
    });
}

/// Fragmentation is a contiguous exact partition into ≤4 KB pieces.
#[test]
fn fragments_partition() {
    check::check("fragments_partition", |g| {
        let len = g.u64(0, 1 << 24);
        let mut expect_off = 0u64;
        for (off, l) in fragments(len) {
            assert_eq!(off, expect_off);
            assert!(l > 0 && l <= APE_MAX_PAYLOAD);
            expect_off = off + l as u64;
        }
        assert_eq!(expect_off, len);
    });
}

/// The packet CRC catches any single bit flip in the payload.
#[test]
fn crc_catches_bit_flips() {
    check::check("crc_catches_bit_flips", |g| {
        let payload = g.bytes(1, 2048);
        let flip = g.u64(0, u64::MAX);
        let mut p = ApePacket::new(
            Coord::new(1, 0, 0),
            Coord::new(0, 0, 0),
            MsgId {
                src_rank: 0,
                seq: 1,
            },
            0x1000,
            payload.len() as u64,
            payload,
        );
        assert!(p.verify());
        let bit = (flip as usize) % (p.payload().len() * 8);
        p.payload_mut()[bit / 8] ^= 1 << (bit % 8);
        assert!(!p.verify(), "undetected bit flip at {bit}");
    });
}

/// The 4-level page table is a faithful map over arbitrary page sets.
#[test]
fn v2p_faithful() {
    check::check("v2p_faithful", |g| {
        let pages: std::collections::BTreeSet<u64> = {
            let n = g.usize(1, 200);
            (0..n).map(|_| g.u64(0, 1 << 22)).collect()
        };
        let mut pt = GpuV2p::new();
        for &p in &pages {
            pt.insert(
                p * GPU_PAGE_SIZE,
                PageDesc {
                    phys: p * GPU_PAGE_SIZE,
                    token: p,
                },
            );
        }
        assert_eq!(pt.mapped_pages(), pages.len() as u64);
        for &p in &pages {
            let (d, _) = pt.walk(p * GPU_PAGE_SIZE + (p % GPU_PAGE_SIZE));
            assert_eq!(d.unwrap().phys, p * GPU_PAGE_SIZE);
        }
        // A page just past the set's maximum is unmapped.
        let probe = (pages.iter().max().unwrap() + 1) * GPU_PAGE_SIZE;
        if !pages.contains(&(probe / GPU_PAGE_SIZE)) {
            assert!(pt.walk(probe).0.is_none());
        }
    });
}

/// BUF_LIST lookups: a registered range is always found; lookup cost
/// grows with scan position.
#[test]
fn buflist_finds_registered() {
    check::check("buflist_finds_registered", |g| {
        let ranges = g.vec_of(1, 30, |g| (g.u64(0, 1000), g.u64(1, 50)));
        let mut bl = BufList::new();
        // Make ranges disjoint by spacing them a MB apart.
        let mut entries = Vec::new();
        for (i, (off, len)) in ranges.iter().enumerate() {
            let vaddr = (i as u64) << 20 | off;
            bl.register(BufEntry {
                vaddr,
                len: *len,
                kind: BufKind::Host,
                pid: 1,
            });
            entries.push((vaddr, *len));
        }
        let mut prev_cost = None;
        for (vaddr, len) in entries {
            let (hit, cost) = bl.lookup(vaddr, len);
            assert!(hit.is_some());
            if let Some(p) = prev_cost {
                assert!(cost >= p, "later entries cost at least as much");
            }
            prev_cost = Some(cost);
        }
    });
}

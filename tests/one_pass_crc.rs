//! No payload CRC pass on a clean run, end to end: the TX stage seals a
//! packet's payload without hashing it, and every link RX checks only
//! the header CRC and the payload's seal state. Only a payload written
//! after its seal (a corrupted, copy-on-write rewritten frame) is
//! hashed: once at the write, once at the check that drops it.
//!
//! This test lives in its own integration binary so no concurrently
//! running test can touch the process-global hashed-bytes counter.

use apenet::cluster::cluster::ClusterBuilder;
use apenet::cluster::harness::{two_node_bandwidth, BufSide, TwoNodeParams};
use apenet::cluster::msg::{HostApi, HostIn, HostProgram, NodeCtx};
use apenet::cluster::presets::cluster_i_default;
use apenet::cluster::NodeConfig;
use apenet::nic::coord::{Coord, TorusDims};
use apenet::rdma::api::SrcHint;
use apenet::sim::bytes::hashed_bytes;
use std::cell::RefCell;
use std::rc::Rc;

const REGION: u64 = 1 << 20;

/// The byte every source and expected destination holds at offset `i`.
fn pattern(i: u64) -> u8 {
    (i % 251) as u8
}

/// Registers one GPU buffer filled with `pattern`; rank 0 PUTs each of
/// `sends` (length, offset) to `dst` at the same offset. Every rank
/// records its `(dst_vaddr, len)` deliveries.
struct Puts {
    dst: Coord,
    sends: Vec<(u64, u64)>,
    delivered: Rc<RefCell<Vec<(u64, u64)>>>,
}

impl HostProgram for Puts {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let buf = node.cuda[0].borrow_mut().malloc(REGION).unwrap();
        node.ep.register(buf, REGION).unwrap();
        let data: Vec<u8> = (0..REGION).map(pattern).collect();
        node.cuda[0].borrow_mut().mem.write(buf, &data).unwrap();
        for (len, off) in std::mem::take(&mut self.sends) {
            let out = node
                .ep
                .put(buf + off, len, self.dst, buf + off, SrcHint::Gpu)
                .unwrap();
            api.submit(out.host_cost, out.desc);
        }
    }

    fn on_event(&mut self, ev: HostIn, _node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { dst_vaddr, len, .. } = ev {
            self.delivered.borrow_mut().push((dst_vaddr, len));
        }
    }
}

/// Run `sends` from rank 0 to `dst` on `dims`; returns the payload bytes
/// hashed and the cluster's freshly transmitted (not replayed) data
/// frames per card, after checking every message landed once and
/// byte-exact.
fn hashed_by_puts(
    dims: TorusDims,
    dst: Coord,
    cfg: NodeConfig,
    sends: &[(u64, u64)],
) -> (u64, Vec<u64>) {
    let delivered = Rc::new(RefCell::new(Vec::new()));
    let programs: Vec<Box<dyn HostProgram>> = (0..dims.nodes())
        .map(|r| {
            Box::new(Puts {
                dst,
                sends: if r == 0 { sends.to_vec() } else { Vec::new() },
                delivered: delivered.clone(),
            }) as Box<dyn HostProgram>
        })
        .collect();
    let before = hashed_bytes();
    let mut cluster = ClusterBuilder::new(dims, cfg).build(programs);
    cluster.run();
    let hashed = hashed_bytes() - before;

    let fresh_frames = (0..dims.nodes())
        .map(|r| {
            let links = cluster.card(r).card().stats.link_sums();
            links.data_frames - links.retransmits
        })
        .collect();

    let delivered = delivered.borrow();
    assert_eq!(delivered.len(), sends.len(), "every message delivered once");
    let mem = cluster.nodes[dims.rank_of(dst)].cuda[0].borrow();
    let base = mem.mem.base();
    for &(addr, len) in delivered.iter() {
        let off = addr - base;
        let exact = (off..off + len)
            .map(pattern)
            .eq(mem.mem.read_vec(addr, len).unwrap());
        assert!(exact, "{len} B at offset {off} not byte-exact");
    }
    (hashed, fresh_frames)
}

#[test]
fn clean_runs_hash_no_payload_bytes() {
    // Two nodes, one hop: 4 × 256 KiB G-G PUTs hash nothing.
    let before = hashed_bytes();
    let r = two_node_bandwidth(
        cluster_i_default(),
        TwoNodeParams {
            src: BufSide::Gpu,
            dst: BufSide::Gpu,
            size: 256 * 1024,
            count: 4,
            staged: false,
        },
    );
    assert!(r.bandwidth.mb_per_sec_f64() > 0.0);
    assert_eq!(hashed_bytes() - before, 0, "clean two-node run hashed");

    // A 4-ring, (0,0,0) -> (2,0,0): two hops, still nothing.
    let dims = TorusDims::new(4, 1, 1);
    let dst = Coord::new(2, 0, 0);
    let sends = [(64 * 1024, 0), (10_001, 128 * 1024), (8192, 256 * 1024)];
    let (clean, _) = hashed_by_puts(dims, dst, cluster_i_default(), &sends);
    assert_eq!(clean, 0, "clean multi-hop run hashed");

    // Every 3rd freshly transmitted packet on each card is corrupted
    // (every frame here carries payload). Each damaged frame is hashed
    // at its write and again at the RX check that drops it, go-back-N
    // replays the clean sealed copy, and the bytes still land exactly.
    let mut faulty = cluster_i_default();
    faulty.card.tx_bit_error_every = Some(3);
    let (hashed, fresh_frames) = hashed_by_puts(dims, dst, faulty, &sends);
    let corrupted: u64 = fresh_frames.iter().map(|f| f / 3).sum();
    assert!(corrupted > 0, "the faulty run corrupted no frame");
    assert!(hashed > 0, "corrupted frames must be hashed");
    assert!(
        hashed <= 2 * 4096 * corrupted,
        "{hashed} B hashed for {corrupted} corrupted frames"
    );
}

//! One CRC pass per payload, end to end: a packet's payload is hashed
//! when the TX stage seals it, and every link RX after that re-hashes
//! only the header onto the payload's memoized CRC. Only a corrupted
//! (copy-on-write rewritten) payload is hashed again.
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
/// hashed, after checking every message landed once and byte-exact.
fn hashed_by_puts(dims: TorusDims, dst: Coord, cfg: NodeConfig, sends: &[(u64, u64)]) -> u64 {
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

    let delivered = delivered.borrow();
    assert_eq!(delivered.len(), sends.len(), "every message delivered once");
    let mut mem = cluster.nodes[dims.rank_of(dst)].cuda[0].borrow_mut();
    let base = mem.mem.base();
    for &(addr, len) in delivered.iter() {
        let off = addr - base;
        let exact = (off..off + len)
            .map(pattern)
            .eq(mem.mem.read_vec(addr, len).unwrap());
        assert!(exact, "{len} B at offset {off} not byte-exact");
    }
    hashed
}

#[test]
fn each_payload_is_hashed_once_however_many_hops() {
    // Two nodes, one hop: 4 × 256 KiB G-G PUTs hash exactly 1 MiB.
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
    assert_eq!(hashed_bytes() - before, 1 << 20);

    // A 4-ring, (0,0,0) -> (2,0,0): two hops, still one pass.
    let dims = TorusDims::new(4, 1, 1);
    let dst = Coord::new(2, 0, 0);
    let sends = [(64 * 1024, 0), (10_001, 128 * 1024), (8192, 256 * 1024)];
    let payload: u64 = sends.iter().map(|&(len, _)| len).sum();
    let clean = hashed_by_puts(dims, dst, cluster_i_default(), &sends);
    assert_eq!(clean, payload, "multi-hop transfer hashes its payload once");

    // Every 3rd TX packet corrupted: each damaged frame is re-hashed at
    // RX (and fails), go-back-N replays the clean memoized copy, and
    // the bytes still land exactly.
    let mut faulty = cluster_i_default();
    faulty.card.tx_bit_error_every = Some(3);
    let hashed = hashed_by_puts(dims, dst, faulty, &sends);
    assert!(
        hashed > clean,
        "corrupted frames must be re-hashed: {hashed} vs clean {clean}"
    );
}

//! Workspace integration tests: whole-stack behaviours that span every
//! crate (driver → card → torus → card → memory).

use apenet::cluster::cluster::ClusterBuilder;
use apenet::cluster::msg::{HostApi, HostIn, HostProgram, NodeCtx};
use apenet::cluster::presets::cluster_i_default;
use apenet::nic::coord::{Coord, TorusDims};
use apenet::rdma::api::SrcHint;
use apenet::sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

type Deliveries = Rc<RefCell<Vec<(u32, u64, u64, SimTime)>>>; // (rank, addr, len, at)

/// A host program that registers one GPU + one host buffer and records
/// deliveries; rank 0 additionally sends a scripted list of messages.
struct Script {
    sends: Vec<(Coord, u64 /*len*/, SrcHint, u64 /*dst offset*/)>,
    deliveries: Deliveries,
    gpu_buf: u64,
    host_buf: u64,
}

const REGION: u64 = 1 << 20;

impl HostProgram for Script {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        self.gpu_buf = node.cuda[0].borrow_mut().malloc(REGION).unwrap();
        self.host_buf = node.hostmem.borrow_mut().alloc(REGION).unwrap();
        node.ep.register(self.gpu_buf, REGION).unwrap();
        node.ep.register(self.host_buf, REGION).unwrap();
        // Deterministic fill patterns.
        let gpu_data: Vec<u8> = (0..REGION).map(|i| (i % 253) as u8).collect();
        let host_data: Vec<u8> = (0..REGION).map(|i| (i % 241) as u8).collect();
        node.cuda[0]
            .borrow_mut()
            .mem
            .write(self.gpu_buf, &gpu_data)
            .unwrap();
        node.hostmem
            .borrow_mut()
            .write(self.host_buf, &host_data)
            .unwrap();
        let sends = std::mem::take(&mut self.sends);
        for (dst, len, hint, off) in sends {
            let src = match hint {
                SrcHint::Host => self.host_buf,
                _ => self.gpu_buf,
            };
            let dst_vaddr = match hint {
                // Cross-kind: GPU source lands in the peer's GPU buffer,
                // host source in the peer's host buffer (same layout).
                SrcHint::Host => self.host_buf + off,
                _ => self.gpu_buf + off,
            };
            let out = node.ep.put(src, len, dst, dst_vaddr, hint).unwrap();
            api.submit(out.host_cost, out.desc);
        }
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { dst_vaddr, len, .. } = ev {
            self.deliveries
                .borrow_mut()
                .push((node.rank, dst_vaddr, len, api.now));
        }
    }
}

fn run_scripted(
    dims: TorusDims,
    sends: Vec<(Coord, u64, SrcHint, u64)>,
) -> (Deliveries, Vec<apenet::cluster::cluster::NodeHandles>) {
    let deliveries: Deliveries = Rc::new(RefCell::new(Vec::new()));
    let programs: Vec<Box<dyn HostProgram>> = (0..dims.nodes())
        .map(|r| {
            Box::new(Script {
                sends: if r == 0 { sends.clone() } else { Vec::new() },
                deliveries: deliveries.clone(),
                gpu_buf: 0,
                host_buf: 0,
            }) as Box<dyn HostProgram>
        })
        .collect();
    let mut cluster = ClusterBuilder::new(dims, cluster_i_default()).build(programs);
    cluster.run();
    (deliveries, cluster.nodes)
}

#[test]
fn multi_hop_delivery_across_the_torus() {
    // 4x2 torus: (0,0,0) -> (2,1,0) is a 3-hop dimension-ordered route.
    let dims = TorusDims::new(4, 2, 1);
    let dst = Coord::new(2, 1, 0);
    let (deliveries, nodes) = run_scripted(dims, vec![(dst, 100_000, SrcHint::Gpu, 8192)]);
    let d = deliveries.borrow();
    assert_eq!(d.len(), 1);
    let (rank, addr, len, _at) = d[0];
    assert_eq!(rank as usize, dims.rank_of(dst));
    assert_eq!(len, 100_000);
    // Bytes intact at the destination GPU.
    let got = nodes[rank as usize].cuda[0]
        .borrow_mut()
        .mem
        .read_vec(addr, len)
        .unwrap();
    // PUTs read from the start of the source region.
    let expect: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
    assert_eq!(got, expect);
    // Intermediate cards forwarded without consuming the packets.
    // (3 hops => 2 transit cards; 25 packets each.)
    let _ = _at;
}

#[test]
fn odd_sizes_and_offsets_arrive_exactly() {
    let dims = TorusDims::new(2, 1, 1);
    let sends = vec![
        (Coord::new(1, 0, 0), 1u64, SrcHint::Gpu, 0),
        (Coord::new(1, 0, 0), 4095, SrcHint::Gpu, 4096),
        (Coord::new(1, 0, 0), 4097, SrcHint::Gpu, 16384),
        (Coord::new(1, 0, 0), 65_537, SrcHint::Gpu, 65536),
        (Coord::new(1, 0, 0), 333, SrcHint::Host, 1000),
    ];
    let (deliveries, nodes) = run_scripted(dims, sends.clone());
    let d = deliveries.borrow();
    assert_eq!(d.len(), sends.len());
    for (rank, addr, len, _) in d.iter() {
        assert_eq!(*rank, 1);
        let gpu_base = nodes[1].cuda[0].borrow().mem.base();
        let is_gpu = *addr >= gpu_base;
        let got = if is_gpu {
            nodes[1].cuda[0]
                .borrow_mut()
                .mem
                .read_vec(*addr, *len)
                .unwrap()
        } else {
            nodes[1].hostmem.borrow_mut().read_vec(*addr, *len).unwrap()
        };
        // PUTs read from the start of the source region.
        let modulus = if is_gpu { 253 } else { 241 };
        let expect: Vec<u8> = (0..*len).map(|i| (i % modulus) as u8).collect();
        assert_eq!(&got, &expect, "payload mismatch, len {len}");
    }
}

#[test]
fn zero_length_put_completes() {
    let dims = TorusDims::new(2, 1, 1);
    let (deliveries, _) = run_scripted(dims, vec![(Coord::new(1, 0, 0), 0, SrcHint::Gpu, 0)]);
    let d = deliveries.borrow();
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].2, 0);
}

#[test]
fn deterministic_replay() {
    let dims = TorusDims::new(2, 1, 1);
    let sends = vec![
        (Coord::new(1, 0, 0), 12_345, SrcHint::Gpu, 0),
        (Coord::new(1, 0, 0), 54_321, SrcHint::Host, 0),
    ];
    let (d1, _) = run_scripted(dims, sends.clone());
    let (d2, _) = run_scripted(dims, sends);
    assert_eq!(*d1.borrow(), *d2.borrow(), "bit-identical event timing");
}

#[test]
fn many_messages_keep_order_per_flow() {
    let dims = TorusDims::new(2, 1, 1);
    let sends: Vec<_> = (0..20u64)
        .map(|i| (Coord::new(1, 0, 0), 4096, SrcHint::Gpu, i * 4096))
        .collect();
    let (deliveries, _) = run_scripted(dims, sends);
    let d = deliveries.borrow();
    assert_eq!(d.len(), 20);
    // Deliveries of one flow arrive in submission order.
    for w in d.windows(2) {
        assert!(w[0].3 <= w[1].3, "delivery times must be monotone");
        assert!(w[0].1 < w[1].1, "addresses in submission order");
    }
}

fn run_faulty(link_retrans: bool) -> (Deliveries, apenet::cluster::cluster::Cluster) {
    use apenet::cluster::cluster::ClusterBuilder;
    use apenet::cluster::presets::cluster_i_default;
    let deliveries: Deliveries = Rc::new(RefCell::new(Vec::new()));
    // 6 messages of 2 packets each => 12 packets, every 3rd corrupted:
    // packets 3, 6, 9, 12 hit messages 2, 3, 5, 6.
    let sends: Vec<_> = (0..6u64)
        .map(|i| (Coord::new(1, 0, 0), 8192, SrcHint::Gpu, i * 8192))
        .collect();
    let mut cfg = cluster_i_default();
    cfg.card.tx_bit_error_every = Some(3);
    cfg.card.link_retrans = link_retrans;
    let programs: Vec<Box<dyn HostProgram>> = (0..2)
        .map(|r| {
            Box::new(Script {
                sends: if r == 0 { sends.clone() } else { Vec::new() },
                deliveries: deliveries.clone(),
                gpu_buf: 0,
                host_buf: 0,
            }) as Box<dyn HostProgram>
        })
        .collect();
    let mut cluster = ClusterBuilder::new(TorusDims::new(2, 1, 1), cfg).build(programs);
    cluster.run();
    (deliveries, cluster)
}

#[test]
fn fault_injection_is_recovered_by_link_retransmission() {
    // A marginal link flips a bit in every 3rd packet. The receiving
    // card's CRC catches each one and NAKs; go-back-N replays from the
    // sender's clean replay buffer, so every message still arrives
    // exactly once with intact bytes.
    let (deliveries, cluster) = run_faulty(true);
    assert_eq!(deliveries.borrow().len(), 6, "all messages delivered");
    let tx_stats = cluster.card(0).card().stats;
    let rx_stats = cluster.card(1).card().stats;
    let retransmits = tx_stats.link_sums().retransmits;
    assert!(
        retransmits >= 4,
        "each of the 4 corrupted frames forces at least one replay, got {retransmits}"
    );
    assert_eq!(
        rx_stats.link_sums().crc_dropped,
        0,
        "nothing is dropped on the floor"
    );
    assert!(rx_stats.links.iter().any(|l| l.naks_sent > 0));
    for (_, addr, len, _) in deliveries.borrow().iter() {
        let got = cluster.nodes[1].cuda[0]
            .borrow_mut()
            .mem
            .read_vec(*addr, *len)
            .unwrap();
        let expect: Vec<u8> = (0..*len).map(|i| (i % 253) as u8).collect();
        assert_eq!(got, expect);
    }
}

#[test]
fn fault_injection_without_retransmission_loses_messages() {
    // Kill switch thrown: the pre-reliability datapath. The CRC still
    // catches every corrupted packet, but they are simply dropped —
    // their messages never complete.
    let (deliveries, cluster) = run_faulty(false);
    let tx_stats = cluster.card(0).card().stats;
    let rx_stats = cluster.card(1).card().stats;
    assert_eq!(
        rx_stats.link_sums().crc_dropped,
        4,
        "every corrupted packet dropped"
    );
    // Only the sender could replay; with the kill switch thrown it never
    // does.
    assert_eq!(tx_stats.link_sums().retransmits, 0);
    assert_eq!(
        deliveries.borrow().len(),
        2,
        "only the untouched messages complete"
    );
    for (_, addr, len, _) in deliveries.borrow().iter() {
        let got = cluster.nodes[1].cuda[0]
            .borrow_mut()
            .mem
            .read_vec(*addr, *len)
            .unwrap();
        let expect: Vec<u8> = (0..*len).map(|i| (i % 253) as u8).collect();
        assert_eq!(got, expect);
    }
}

#[test]
fn healthy_links_have_zero_crc_errors() {
    let dims = TorusDims::new(2, 1, 1);
    let (deliveries, _) = run_scripted(dims, vec![(Coord::new(1, 0, 0), 100_000, SrcHint::Gpu, 0)]);
    assert_eq!(deliveries.borrow().len(), 1);
}

//! The benchmark programs of §V, coded against the RDMA API.
//!
//! * [`flush_read_bandwidth`] — the Table I / Fig. 4 memory-read test:
//!   "the test allocates a single receive buffer, then it enters a tight
//!   loop, enqueuing as many RDMA PUT as possible as to keep the
//!   transmission queue constantly full", with TX injection FIFOs flushed;
//! * [`loopback_bandwidth`] — the same loop against the internal switch
//!   (Table I loop-back rows, Fig. 5);
//! * [`two_node_bandwidth`] — the Fig. 6/7 uni-directional bandwidth test
//!   for every source/destination buffer-kind combination, with optional
//!   host staging (P2P=OFF);
//! * [`pingpong_half_rtt`] — the Fig. 8/9 latency test (half round-trip);
//! * sender-side submit intervals for the Fig. 10 host-overhead plot.
//!
//! Each workload whose callers want what the observation planes
//! recorded has one `*_with(…, planes)` entry point returning its report
//! plus the run's [`RunArtifacts`]; the plain entry points run with
//! every plane off ([`Planes::off`]).

use crate::cluster::{Cluster, ClusterBuilder};
use crate::msg::{HostApi, HostIn, HostProgram, IdleProgram, NodeCtx};
use crate::node::NodeConfig;
use crate::planes::{Planes, RunArtifacts};
use apenet_core::config::TxSinkMode;
use apenet_core::coord::{Coord, TorusDims};
use apenet_gpu::mem::{MemError, Memory, CHUNK_SIZE};
use apenet_obs::report::RunReport;
use apenet_obs::slo::SloConfig;
use apenet_obs::{CounterSnapshot, Registry};
use apenet_rdma::api::{RdmaError, SrcHint};
use apenet_rdma::completion::CompletionError;
use apenet_rdma::pacing::{self, Pacer, PacerConfig};
use apenet_rdma::signal::{self, SendQueue, SignalConfig};
use apenet_rdma::staging::{staged_put, staged_recv_finish};
use apenet_sim::bytes::PayloadSlice;
use apenet_sim::profile::SimProfile;
use apenet_sim::trace::{SharedSink, TraceRecord};
use apenet_sim::{Bandwidth, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Which memory a test buffer lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufSide {
    /// Host memory ("H" in the figures).
    Host,
    /// GPU device memory ("G").
    Gpu,
}

impl BufSide {
    fn hint(self) -> SrcHint {
        match self {
            BufSide::Host => SrcHint::Host,
            BufSide::Gpu => SrcHint::Gpu,
        }
    }
}

/// Shared measurement records filled in by the programs.
#[derive(Debug, Default)]
pub struct BenchRecords {
    /// Times each PUT was handed to the card (sender side).
    pub submits: Vec<SimTime>,
    /// TX-complete times (sender side).
    pub tx_done: Vec<SimTime>,
    /// Delivery times (receiver side, message granularity).
    pub deliveries: Vec<SimTime>,
    /// Post-processed completion `(time, bytes)` records (e.g. after the
    /// staged H2D copy; staged transfers complete chunk-wise).
    pub completions: Vec<(SimTime, u64)>,
}

type Shared = Rc<RefCell<BenchRecords>>;

fn alloc_buf(node: &NodeCtx, side: BufSide, len: u64) -> u64 {
    match side {
        BufSide::Host => node.hostmem.borrow_mut().alloc(len).expect("host alloc"),
        BufSide::Gpu => node.cuda[0].borrow_mut().malloc(len).expect("gpu alloc"),
    }
}

/// Fill `len` bytes at `addr` with the benchmark stream of `seed`.
fn fill_buf(node: &NodeCtx, side: BufSide, addr: u64, len: u64, seed: u8) {
    let tile = Tile::new(|i| (i as u8).wrapping_mul(31) ^ seed);
    match side {
        BufSide::Host => tile.fill(&mut node.hostmem.borrow_mut(), addr, len),
        BufSide::Gpu => tile.fill(&mut node.cuda[0].borrow_mut().mem, addr, len),
    }
    .expect("a benchmark fills only its own allocation");
}

/// Every harness payload stream reads its byte offset only through
/// `off as u8`, so it repeats every 256 bytes.
const STREAM_PERIOD: u64 = 256;

const _: () = assert!(
    CHUNK_SIZE.is_multiple_of(STREAM_PERIOD),
    "a chunk must hold whole stream periods for one tile to stand for every chunk"
);

/// One [`CHUNK_SIZE`] period of a payload stream, which repeats every
/// [`STREAM_PERIOD`] bytes. Every chunk-aligned chunk of a stream holds
/// these bytes, so a filled region shares this one buffer, and a check
/// compares memory against it in place.
struct Tile(PayloadSlice);

impl Tile {
    /// The tile of the stream whose byte at offset `off` is `byte(off)`.
    fn new(byte: impl Fn(u64) -> u8) -> Self {
        Tile(PayloadSlice::from_vec((0..CHUNK_SIZE).map(byte).collect()))
    }

    /// The tile of `src_rank`'s chaos stream.
    fn chaos(src_rank: u32) -> Self {
        Tile::new(|off| chaos_byte(src_rank, off))
    }

    /// Write the stream's first `len` bytes at `addr`. Each whole chunk
    /// at a chunk-aligned offset adopts the tile by reference; unaligned
    /// or partial edges are written as bytes (the rule of
    /// [`Memory::copy_from`]).
    fn fill(&self, mem: &mut Memory, addr: u64, len: u64) -> Result<(), MemError> {
        if !mem.contains(addr, len) {
            return Err(MemError::OutOfRange);
        }
        let mut done = 0;
        while done < len {
            let at = addr + done;
            let (s, n) = Tile::piece(done, len - done);
            if n == CHUNK_SIZE && (at - mem.base()).is_multiple_of(CHUNK_SIZE) {
                mem.write_payload(at, &self.0)?;
            } else {
                mem.write(at, &self.0[s..s + n as usize])?;
            }
            done += n;
        }
        Ok(())
    }

    /// True when the `len` bytes at `addr` hold the stream from offset
    /// `stream_off`, every byte compared in place.
    fn matches(
        &self,
        mem: &Memory,
        addr: u64,
        stream_off: u64,
        len: u64,
    ) -> Result<bool, MemError> {
        let mut done = 0;
        while done < len {
            let (s, n) = Tile::piece(stream_off + done, len - done);
            if !mem.eq_at(addr + done, &self.0[s..s + n as usize])? {
                return Ok(false);
            }
            done += n;
        }
        Ok(true)
    }

    /// Where stream offset `off` falls in the tile, and how many of the
    /// `left` bytes from there lie before the tile wraps.
    fn piece(off: u64, left: u64) -> (usize, u64) {
        let s = off % CHUNK_SIZE;
        (s as usize, (CHUNK_SIZE - s).min(left))
    }
}

/// The streaming sender: keeps `window` PUTs outstanding until `count`
/// have been issued.
struct StreamSender {
    peer: Coord,
    src: BufSide,
    src_addr: u64,
    dst_vaddr: u64,
    size: u64,
    count: u32,
    window: u32,
    issued: u32,
    records: Shared,
}

impl StreamSender {
    /// A sender of `count` PUTs of `size` bytes from `src_addr` to
    /// `peer`'s `dst_vaddr`, keeping eight outstanding.
    fn new(
        peer: Coord,
        src: BufSide,
        src_addr: u64,
        dst_vaddr: u64,
        size: u64,
        count: u32,
        records: Shared,
    ) -> Self {
        StreamSender {
            peer,
            src,
            src_addr,
            dst_vaddr,
            size,
            count,
            window: 8,
            issued: 0,
            records,
        }
    }

    fn send_one(
        &mut self,
        node: &mut NodeCtx,
        api: &mut HostApi<'_, '_>,
        mut clock: SimDuration,
    ) -> SimDuration {
        let out = node
            .ep
            .put(
                self.src_addr,
                self.size,
                self.peer,
                self.dst_vaddr,
                self.src.hint(),
            )
            .expect("put");
        clock += out.host_cost;
        self.records.borrow_mut().submits.push(api.now + clock);
        api.submit(clock, out.desc);
        self.issued += 1;
        clock
    }
}

impl HostProgram for StreamSender {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let reg = node
            .ep
            .register(self.src_addr, self.size)
            .expect("register src");
        let mut clock = reg;
        let burst = self.window.min(self.count);
        for _ in 0..burst {
            clock = self.send_one(node, api, clock);
        }
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::TxDone { .. } = ev {
            self.records.borrow_mut().tx_done.push(api.now);
            if self.issued < self.count {
                self.send_one(node, api, SimDuration::ZERO);
            }
        }
    }
}

/// The receiving side: registers the destination buffer and records
/// deliveries; optionally finishes staged receptions with an H2D copy.
struct StreamReceiver {
    dst_vaddr: u64,
    size: u64,
    /// For staged (P2P=OFF) reception: copy up to this GPU address.
    staged_gpu_dst: Option<u64>,
    records: Shared,
}

impl HostProgram for StreamReceiver {
    fn start(&mut self, node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        node.ep
            .register(self.dst_vaddr, self.size)
            .expect("register dst");
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { dst_vaddr, len, .. } = ev {
            let mut rec = self.records.borrow_mut();
            rec.deliveries.push(api.now);
            let done = if let Some(gpu_dst) = self.staged_gpu_dst {
                let mut dev = node.cuda[0].borrow_mut();
                let mut hm = node.hostmem.borrow_mut();
                staged_recv_finish(&mut dev, &mut hm, api.now, dst_vaddr, gpu_dst, len)
                    .expect("harness staging ranges are self-allocated")
            } else {
                api.now
            };
            rec.completions.push((done, len));
        }
    }
}

/// The staged (P2P=OFF) sender: `cudaMemcpy` into a bounce buffer, then
/// pipelined PUTs of the bounce.
struct StagedSender {
    peer: Coord,
    src_dev: u64,
    bounce: u64,
    dst_vaddr: u64,
    size: u64,
    count: u32,
    issued: u32,
    chunks_left: u32,
    records: Shared,
}

impl StagedSender {
    fn send_one(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let mut dev = node.cuda[0].borrow_mut();
        let mut hm = node.hostmem.borrow_mut();
        // Split the borrow: staged_put needs the endpoint too.
        let plan = {
            let NodeCtx { ep, .. } = node;
            staged_put(
                ep,
                &mut dev,
                &mut hm,
                api.now,
                self.src_dev,
                self.bounce,
                self.size,
                self.peer,
                self.dst_vaddr,
            )
            .expect("staged put")
        };
        self.chunks_left = plan.submissions.len() as u32;
        let mut rec = self.records.borrow_mut();
        for (at, desc) in plan.submissions {
            rec.submits.push(at);
            api.submit(at.since(api.now), desc);
        }
        self.issued += 1;
    }
}

impl HostProgram for StagedSender {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        node.ep
            .register(self.bounce, self.size)
            .expect("register bounce");
        self.send_one(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::TxDone { .. } = ev {
            self.records.borrow_mut().tx_done.push(api.now);
            self.chunks_left -= 1;
            if self.chunks_left == 0 && self.issued < self.count {
                self.send_one(node, api);
            }
        }
    }
}

/// A host program built at start, once its node's memory can be
/// allocated: `make` allocates and fills the buffers and returns the
/// program, which then starts.
struct Deferred<F, P> {
    make: Option<F>,
    inner: Option<P>,
}

fn deferred<F, P>(make: F) -> Box<dyn HostProgram>
where
    F: FnOnce(&mut NodeCtx) -> P + 'static,
    P: HostProgram + 'static,
{
    Box::new(Deferred {
        make: Some(make),
        inner: None,
    })
}

impl<F: FnOnce(&mut NodeCtx) -> P, P: HostProgram> HostProgram for Deferred<F, P> {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let make = self.make.take().expect("a program starts once");
        self.inner.insert(make(node)).start(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let Some(p) = &mut self.inner {
            p.on_event(ev, node, api);
        }
    }
}

/// A sender and a receiver sharing one node (loop-back and
/// bi-directional tests): deliveries go to the receiver, everything
/// else to the sender.
struct SendRecv {
    send: StreamSender,
    recv: StreamReceiver,
}

impl HostProgram for SendRecv {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        self.recv.start(node, api);
        self.send.start(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        match ev {
            HostIn::Delivered { .. } => self.recv.on_event(ev, node, api),
            _ => self.send.on_event(ev, node, api),
        }
    }
}

/// Result of a bandwidth-style run.
#[derive(Debug, Clone, Copy)]
pub struct BwResult {
    /// Steady-state delivered bandwidth.
    pub bandwidth: Bandwidth,
    /// Mean sender-side inter-submit interval (the Fig. 10 host overhead).
    pub submit_interval: SimDuration,
    /// Completion time of the first message (startup latency).
    pub first_completion: SimTime,
    /// Time the first PUT was handed to the card (the Fig. 3 trigger).
    pub first_submit: SimTime,
}

fn measure(records: &BenchRecords, size: u64) -> BwResult {
    // Completion records carry byte counts (staged transfers complete in
    // chunks); TX-done records are per whole message.
    let comps: Vec<(SimTime, u64)> = if records.completions.is_empty() {
        records.tx_done.iter().map(|&t| (t, size)).collect()
    } else {
        records.completions.clone()
    };
    assert!(comps.len() >= 2, "need at least two completions to measure");
    let first_submit = records.submits.first().copied().unwrap_or(SimTime::ZERO);
    let bytes: u64 = comps.iter().skip(1).map(|&(_, b)| b).sum();
    let span = comps[comps.len() - 1].0.since(comps[0].0);
    let bandwidth = Bandwidth::measured(bytes, span.max(SimDuration::from_ps(1)));
    let submits = &records.submits;
    let submit_interval = if submits.len() >= 2 {
        submits[submits.len() - 1].since(submits[0]) / (submits.len() as u64 - 1)
    } else {
        SimDuration::ZERO
    };
    BwResult {
        bandwidth,
        submit_interval,
        first_completion: comps[0].0,
        first_submit,
    }
}

/// Fig. 4 / Table I memory-read rows: single node, TX FIFO flushed.
pub fn flush_read_bandwidth(node_cfg: NodeConfig, src: BufSide, size: u64, count: u32) -> BwResult {
    flush_read_with(node_cfg, src, size, count, Planes::off()).0
}

/// [`flush_read_bandwidth`] observed by `planes`. The Fig. 3 setup sets
/// `pcie` to interpose a bus analyzer on the card's PCIe uplink.
pub fn flush_read_with(
    mut node_cfg: NodeConfig,
    src: BufSide,
    size: u64,
    count: u32,
    planes: Planes,
) -> (BwResult, RunArtifacts) {
    node_cfg.card.tx_sink = TxSinkMode::Flush;
    let dims = TorusDims::new(1, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    let rec = records.clone();
    let sender = deferred(move |node| {
        let src_addr = alloc_buf(node, src, size);
        fill_buf(node, src, src_addr, size, 0xA5);
        // Self-addressed: the flushed TX FIFO drops every message.
        StreamSender::new(node.coord, src, src_addr, src_addr, size, count, rec)
    });
    let mut cluster = ClusterBuilder::new(dims, node_cfg)
        .planes(planes)
        .build(vec![sender]);
    cluster.run();
    let r = records.borrow();
    (measure(&r, size), cluster.take_artifacts())
}

/// Single-node loop-back test (Table I loop-back rows, Fig. 5): the
/// message goes through the full TX *and* RX datapaths of one card.
pub fn loopback_bandwidth(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    count: u32,
) -> BwResult {
    loopback_with(node_cfg, src, dst, size, count, Planes::off()).0
}

/// [`loopback_bandwidth`] observed by `planes`.
pub fn loopback_with(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    count: u32,
    planes: Planes,
) -> (BwResult, RunArtifacts) {
    let dims = TorusDims::new(1, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    let rec = records.clone();
    let prog = deferred(move |node| {
        let src_addr = alloc_buf(node, src, size);
        let dst_addr = alloc_buf(node, dst, size);
        fill_buf(node, src, src_addr, size, 0x3C);
        let recv = StreamReceiver {
            dst_vaddr: dst_addr,
            size,
            staged_gpu_dst: None,
            records: rec.clone(),
        };
        let send = StreamSender::new(node.coord, src, src_addr, dst_addr, size, count, rec);
        SendRecv { send, recv }
    });
    let mut cluster = ClusterBuilder::new(dims, node_cfg)
        .planes(planes)
        .build(vec![prog]);
    cluster.run();
    let r = records.borrow();
    let comps = &r.deliveries;
    assert!(comps.len() >= 2);
    let n = comps.len() as u64;
    let span = comps[n as usize - 1].since(comps[0]);
    let bw = BwResult {
        bandwidth: Bandwidth::measured((n - 1) * size, span.max(SimDuration::from_ps(1))),
        submit_interval: SimDuration::ZERO,
        first_completion: comps[0],
        first_submit: r.submits.first().copied().unwrap_or(SimTime::ZERO),
    };
    (bw, cluster.take_artifacts())
}

/// Parameters of a two-node transfer test.
#[derive(Debug, Clone, Copy)]
pub struct TwoNodeParams {
    /// Source buffer side on the sender.
    pub src: BufSide,
    /// Destination buffer side on the receiver.
    pub dst: BufSide,
    /// Message size.
    pub size: u64,
    /// Number of messages.
    pub count: u32,
    /// Use host staging instead of peer-to-peer for GPU buffers (P2P=OFF).
    pub staged: bool,
}

/// Fig. 6/7 two-node uni-directional bandwidth test.
pub fn two_node_bandwidth(node_cfg: NodeConfig, p: TwoNodeParams) -> BwResult {
    two_node_with(node_cfg, p, Planes::off()).0
}

/// [`two_node_bandwidth`] with the sim-time profiler attached: returns
/// the measurement plus the exact (component, event-kind) partition of
/// the run's simulated time — the Fig. 3/4-style "where do the
/// nanoseconds go" view, computed instead of sampled.
pub fn two_node_profiled(node_cfg: NodeConfig, p: TwoNodeParams) -> (BwResult, SimProfile) {
    let planes = Planes {
        profile: true,
        ..Planes::off()
    };
    let (bw, artifacts) = two_node_with(node_cfg, p, planes);
    (bw, artifacts.profile.expect("profile plane on"))
}

/// [`two_node_bandwidth`] observed by `planes`. With `trace` on, the
/// capture merges the sender's fetch/stage/frame-tx and the receiver's
/// frame-rx/rx-write/delivered records, span-correlated.
pub fn two_node_with(
    node_cfg: NodeConfig,
    p: TwoNodeParams,
    planes: Planes,
) -> (BwResult, RunArtifacts) {
    let dims = TorusDims::new(2, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    // Destination addresses are deterministic: first allocation on the
    // receiver's memory. Compute them from the allocator's behaviour.
    let dst_vaddr = first_alloc_addr(&node_cfg, p.dst, p.size, p.staged);
    let rec = records.clone();
    let sender = if p.staged && p.src == BufSide::Gpu {
        deferred(move |node| {
            let src_dev = alloc_buf(node, BufSide::Gpu, p.size);
            let bounce = alloc_buf(node, BufSide::Host, p.size);
            fill_buf(node, BufSide::Gpu, src_dev, p.size, 0x5A);
            StagedSender {
                peer: node.dims.coord_of(1),
                src_dev,
                bounce,
                dst_vaddr,
                size: p.size,
                count: p.count,
                issued: 0,
                chunks_left: 0,
                records: rec,
            }
        })
    } else {
        deferred(move |node| {
            let src_addr = alloc_buf(node, p.src, p.size);
            fill_buf(node, p.src, src_addr, p.size, 0x5A);
            let peer = node.dims.coord_of(1);
            StreamSender::new(peer, p.src, src_addr, dst_vaddr, p.size, p.count, rec)
        })
    };
    let rec = records.clone();
    let receiver = deferred(move |node| {
        let (dst_vaddr, staged_gpu_dst) = if p.staged && p.dst == BufSide::Gpu {
            let bounce = alloc_buf(node, BufSide::Host, p.size);
            (bounce, Some(alloc_buf(node, BufSide::Gpu, p.size)))
        } else {
            (alloc_buf(node, p.dst, p.size), None)
        };
        StreamReceiver {
            dst_vaddr,
            size: p.size,
            staged_gpu_dst,
            records: rec,
        }
    });
    let mut cluster = ClusterBuilder::new(dims, node_cfg)
        .planes(planes)
        .build(vec![sender, receiver]);
    cluster.run();
    let r = records.borrow();
    (measure(&r, p.size), cluster.take_artifacts())
}

/// The address the first allocation of `size` bytes lands at.
fn first_alloc_addr(node_cfg: &NodeConfig, side: BufSide, size: u64, staged: bool) -> u64 {
    let probe = crate::node::build_node(9, Coord::new(0, 0, 0), TorusDims::new(1, 1, 1), node_cfg);
    match (side, staged) {
        (BufSide::Host, _) => probe.hostmem.borrow_mut().alloc(size).unwrap(),
        // Staged GPU reception lands in a host bounce buffer first.
        (BufSide::Gpu, true) => probe.hostmem.borrow_mut().alloc(size).unwrap(),
        (BufSide::Gpu, false) => probe.cuda[0].borrow_mut().malloc(size).unwrap(),
    }
}

/// Ping-pong latency test: returns the half round-trip time.
pub fn pingpong_half_rtt(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    iters: u32,
    staged: bool,
) -> SimDuration {
    pingpong_with(node_cfg, src, dst, size, iters, staged, Planes::off()).0
}

/// [`pingpong_half_rtt`] observed by `planes`. With `trace` and `sample`
/// on, spans and occupancy series share one timeline — the input to the
/// Perfetto exporter (counter tracks under the message slices).
pub fn pingpong_with(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    iters: u32,
    staged: bool,
    planes: Planes,
) -> (SimDuration, RunArtifacts) {
    let dims = TorusDims::new(2, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    let peer_dst = first_alloc_addr(&node_cfg, dst, size, staged);
    let initiator = Box::new(PingPongProgram {
        initiator: true,
        src,
        dst,
        size,
        iters,
        staged,
        peer_dst,
        addrs: None,
        done: 0,
        timer_start: None,
        records: records.clone(),
    });
    let responder = Box::new(PingPongProgram {
        initiator: false,
        src,
        dst,
        size,
        iters,
        staged,
        peer_dst,
        addrs: None,
        done: 0,
        timer_start: None,
        records: records.clone(),
    });
    let mut cluster = ClusterBuilder::new(dims, node_cfg)
        .planes(planes)
        .build(vec![initiator, responder]);
    cluster.run();
    let r = records.borrow();
    // completions[0] is the timer start (after warm-up); the last is the
    // final pong. Each iteration is one full round trip.
    assert!(
        r.completions.len() >= 2,
        "pingpong produced no measurements"
    );
    let span = r.completions[r.completions.len() - 1]
        .0
        .since(r.completions[0].0);
    (
        span / (2 * (r.completions.len() as u64 - 1)),
        cluster.take_artifacts(),
    )
}

/// Both sides of the ping-pong. The destination buffer layout is
/// symmetric, so `peer_dst` is the same on both nodes.
struct PingPongProgram {
    initiator: bool,
    src: BufSide,
    dst: BufSide,
    size: u64,
    iters: u32,
    staged: bool,
    peer_dst: u64,
    addrs: Option<(u64, u64, Option<u64>, Option<u64>)>, // src, dst, bounce_tx, gpu_dst
    done: u32,
    timer_start: Option<SimTime>,
    records: Shared,
}

const PINGPONG_WARMUP: u32 = 2;

impl PingPongProgram {
    fn peer(&self, node: &NodeCtx) -> Coord {
        node.dims.coord_of(if self.initiator { 1 } else { 0 })
    }

    fn send(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>, at: SimTime) {
        let (src_addr, _dst, bounce_tx, _gpu) = self.addrs.expect("addresses set in start");
        let peer = self.peer(node);
        if self.staged && self.src == BufSide::Gpu {
            let bounce = bounce_tx.expect("staged sender has a bounce");
            let mut dev = node.cuda[0].borrow_mut();
            let mut hm = node.hostmem.borrow_mut();
            let plan = staged_put(
                &mut node.ep,
                &mut dev,
                &mut hm,
                at,
                src_addr,
                bounce,
                self.size,
                peer,
                self.peer_dst,
            )
            .expect("staged put");
            for (t, desc) in plan.submissions {
                api.submit(t.since(api.now), desc);
            }
        } else {
            let out = node
                .ep
                .put(src_addr, self.size, peer, self.peer_dst, self.src.hint())
                .expect("put");
            api.submit(at.since(api.now) + out.host_cost, out.desc);
        }
    }
}

impl HostProgram for PingPongProgram {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        // Allocation order must match `first_alloc_addr`: destination first.
        let (dst_addr, gpu_dst) = if self.staged && self.dst == BufSide::Gpu {
            let bounce = alloc_buf(node, BufSide::Host, self.size);
            let gpu = alloc_buf(node, BufSide::Gpu, self.size);
            (bounce, Some(gpu))
        } else {
            (alloc_buf(node, self.dst, self.size), None)
        };
        let src_addr = alloc_buf(node, self.src, self.size);
        fill_buf(
            node,
            self.src,
            src_addr,
            self.size,
            if self.initiator { 1 } else { 2 },
        );
        let bounce_tx = if self.staged && self.src == BufSide::Gpu {
            Some(alloc_buf(node, BufSide::Host, self.size))
        } else {
            None
        };
        node.ep.register(dst_addr, self.size).expect("register dst");
        self.addrs = Some((src_addr, dst_addr, bounce_tx, gpu_dst));
        if self.initiator {
            self.send(node, api, api.now);
        }
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { dst_vaddr, len, .. } = ev {
            // Staged reception must land in the GPU before replying.
            let usable = if let (true, Some((_, _, _, Some(gpu_dst)))) =
                (self.staged && self.dst == BufSide::Gpu, self.addrs)
            {
                let mut dev = node.cuda[0].borrow_mut();
                let mut hm = node.hostmem.borrow_mut();
                staged_recv_finish(&mut dev, &mut hm, api.now, dst_vaddr, gpu_dst, len)
                    .expect("harness staging ranges are self-allocated")
            } else {
                api.now
            };
            if self.initiator {
                self.done += 1;
                if self.done >= PINGPONG_WARMUP {
                    self.timer_start.get_or_insert(usable);
                    self.records.borrow_mut().completions.push((usable, len));
                }
                if self.done < self.iters + PINGPONG_WARMUP {
                    self.send(node, api, usable);
                }
            } else {
                // Echo.
                self.send(node, api, usable);
            }
        }
    }
}

/// Two-node bi-directional bandwidth: both nodes stream to each other
/// simultaneously (the bi-directional test the paper alludes to: "the
/// APEnet+ bi-directional bandwidth … will reflect a similar behaviour"
/// to the loop-back plot, §IV); returns the *aggregate* (sum of both
/// directions) steady bandwidth.
pub fn two_node_bidir_bandwidth(
    node_cfg: NodeConfig,
    src: BufSide,
    dst: BufSide,
    size: u64,
    count: u32,
) -> BwResult {
    let dims = TorusDims::new(2, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    let dst_vaddr = first_alloc_addr(&node_cfg, dst, size, false);
    let programs: Vec<Box<dyn HostProgram>> = (0..2)
        .map(|rank| {
            let rec = records.clone();
            deferred(move |node| {
                // Allocation order matches on both ranks: dst first, then src.
                let dst_addr = alloc_buf(node, dst, size);
                let src_addr = alloc_buf(node, src, size);
                fill_buf(node, src, src_addr, size, node.rank as u8);
                let recv = StreamReceiver {
                    dst_vaddr: dst_addr,
                    size,
                    staged_gpu_dst: None,
                    records: rec.clone(),
                };
                let peer = node.dims.coord_of(1 - rank);
                let send = StreamSender::new(peer, src, src_addr, dst_vaddr, size, count, rec);
                SendRecv { send, recv }
            })
        })
        .collect();
    let mut cluster = ClusterBuilder::new(dims, node_cfg).build(programs);
    cluster.run();
    let r = records.borrow();
    // Deliveries from both directions interleave; aggregate rate over the
    // combined completion stream.
    measure(&r, size)
}

// ---------------------------------------------------------------------------
// Chaos harness: exactly-once delivery under injected link faults.
// ---------------------------------------------------------------------------

/// Parameters of one chaos run (see [`chaos_run`]).
#[derive(Debug, Clone)]
pub struct ChaosParams {
    /// Messages each rank streams to its ring successor.
    pub msgs_per_rank: u32,
    /// Length of each message in bytes.
    pub msg_len: u64,
    /// Poll the driver watchdog from host wake-ups and re-issue expired
    /// messages (application-level recovery above the link layer).
    pub watchdog_reissue: bool,
}

/// Everything a chaos run proves or measures, aggregated over the
/// cluster.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Messages the run expected to deliver.
    pub expected: u64,
    /// Distinct messages actually delivered.
    pub delivered: u64,
    /// Repeat deliveries seen by any completion queue (exactly-once
    /// requires 0).
    pub duplicates: u64,
    /// Every delivered payload byte-exact at its destination GPU.
    pub payload_ok: bool,
    /// Every card drained all queues, replay buffers and partial
    /// reassembly state.
    pub quiesced: bool,
    /// Driver-watchdog alarms (0 while link-level recovery is healthy).
    pub watchdog_fired: u64,
    /// Messages re-issued by the watchdog path.
    pub watchdog_reissues: u64,
    /// Messages the watchdog escalated to typed error completions after
    /// exhausting its re-issue budget (unreachable destinations).
    pub watchdog_failed: u64,
    /// Error completions recorded across all completion queues.
    pub error_completions: u64,
    /// Card ports declared dead (2 per killed cable: one per endpoint).
    pub dead_links: u64,
    /// Packets routed the long way round a dead ring arc.
    pub detours: u64,
    /// Packets dropped because every arc to their destination was dead.
    pub unreachable_drops: u64,
    /// In-flight frames moved from dead ports onto detour routes.
    pub requeued: u64,
    /// End-to-end duplicate fragments suppressed at destinations.
    pub rx_dup_fragments: u64,
    /// Link-layer replays across all cards.
    pub retransmits: u64,
    /// Retransmit-timer expirations that triggered a replay.
    pub timeouts: u64,
    /// Duplicate data frames discarded (and re-ACKed) on receive.
    pub dup_frames: u64,
    /// Frames dropped on CRC failure (only with retransmission disabled).
    pub crc_dropped: u64,
    /// NAKs sent across all cards.
    pub naks: u64,
    /// Injected (corruptions, drops, stalls) across all cards.
    pub injected: (u64, u64, u64),
    /// Total injected stall time across all links, in picoseconds.
    pub stall_ps: u64,
    /// Latest delivery timestamp across all ranks (effective-bandwidth
    /// endpoint; `end` includes trailing watchdog poll wake-ups).
    pub last_delivery: SimTime,
    /// Simulated end time.
    pub end: SimTime,
    /// Signaled WQEs posted across all send queues (0 on PUT runs).
    pub cq_signaled: u64,
    /// Posts whose doorbell was covered by a batched ring (0 on PUT runs).
    pub doorbell_batched: u64,
    /// WQEs posted into send-queue moderation (0 on PUT runs).
    pub sq_posted: u64,
    /// WQEs retired through batched CQEs (must equal `sq_posted` when
    /// the run drains; 0 on PUT runs).
    pub sq_retired: u64,
    /// The run's full counter snapshot from its private metrics registry
    /// (link-reliability ids from `apenet_core::card::metrics` plus the
    /// watchdog ids from `apenet_rdma::driver::metrics` and the signaling
    /// ids from `apenet_rdma::signal::metrics`). The scalar counter
    /// fields above are views into this snapshot.
    pub metrics: CounterSnapshot,
}

/// A re-issuable chaos descriptor: the verb decides how the watchdog
/// hands an expired message back to the card.
#[derive(Debug, Clone)]
enum ChaosDesc {
    Put(apenet_core::card::TxDesc),
    Get(apenet_core::card::GetDesc),
}

impl ChaosDesc {
    /// Hand the descriptor to the card `delay` from now.
    fn submit(self, api: &mut HostApi<'_, '_>, delay: SimDuration) {
        match self {
            ChaosDesc::Put(d) => api.submit(delay, d),
            ChaosDesc::Get(d) => api.submit_get(delay, d),
        }
    }
}

struct ChaosShared {
    watchdog: apenet_rdma::driver::Watchdog,
    delivered: std::collections::BTreeSet<apenet_core::packet::MsgId>,
    descs: std::collections::BTreeMap<apenet_core::packet::MsgId, ChaosDesc>,
    /// Expired messages routed back to their source rank for re-issue.
    reissue: Vec<std::collections::VecDeque<ChaosDesc>>,
    /// Escalated messages routed back to their source rank, to complete
    /// with a typed error on that rank's completion queue.
    failed: Vec<std::collections::VecDeque<apenet_core::packet::MsgId>>,
    /// Per-rank send-queue moderation models (GET chaos runs only;
    /// empty otherwise).
    sendqs: Vec<SendQueue>,
}

impl ChaosShared {
    /// Record a delivery: disarm its watchdog and retire its send-queue
    /// WQE (GET chaos runs).
    fn deliver(&mut self, rank: usize, msg: apenet_core::packet::MsgId) {
        self.delivered.insert(msg);
        self.watchdog.disarm(&msg);
        if let Some(sq) = self.sendqs.get_mut(rank) {
            sq.complete(&msg);
            reap_if_due(sq);
        }
    }

    /// Watchdog duty on a wake-up of `rank`: route every globally-expired
    /// message to its source rank (the watchdog re-armed each with a
    /// backed-off deadline), re-issue this rank's own, and complete its
    /// escalated ones with a typed error on its completion queue — the
    /// watchdog's bounded give-up is never a silent drop. An escalated
    /// GET still retires its WQE so the batch behind it can drain.
    fn poll_watchdog(&mut self, rank: usize, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let ex = self.watchdog.poll_expired(api.now);
        for msg in ex.reissue {
            let desc = self.descs[&msg].clone();
            self.reissue[msg.src_rank as usize].push_back(desc);
        }
        for msg in ex.failed {
            self.failed[msg.src_rank as usize].push_back(msg);
        }
        while let Some(desc) = self.reissue[rank].pop_front() {
            desc.submit(api, SimDuration::ZERO);
        }
        while let Some(msg) = self.failed[rank].pop_front() {
            node.cq
                .push_error(msg, api.now, CompletionError::Unreachable);
            if let Some(sq) = self.sendqs.get_mut(rank) {
                sq.complete(&msg);
                reap_if_due(sq);
            }
        }
    }

    /// Anything in the cluster still armed or queued for re-issue or
    /// escalation — reason to keep polling.
    fn busy(&self) -> bool {
        self.watchdog.outstanding() > 0
            || self.reissue.iter().any(|q| !q.is_empty())
            || self.failed.iter().any(|q| !q.is_empty())
    }
}

/// Reap `sq` at the latest when its CQ is half full, so moderation keeps
/// retiring in batches without ever overflowing the depth.
fn reap_if_due(sq: &mut SendQueue) {
    if sq.cq_occupancy() * 2 >= sq.cq_depth().max(1) {
        let _ = sq.reap();
    }
}

/// One rank of the chaos ring. PUT: stream the TX region into the ring
/// successor's RX region. GET: *read* the successor's TX region into
/// this rank's RX region with one-sided GETs, posting each through
/// send-queue moderation (selective signaling + doorbell batching); the
/// requester is the completion side, so the watchdog, re-issue and
/// Unreachable escalation all run here — composed with whatever the
/// fault plan does to the request and reply streams.
struct ChaosRank {
    rank: u32,
    msgs: u32,
    msg_len: u64,
    get: bool,
    reissue: bool,
    poll: SimDuration,
    peer: Coord,
    shared: Rc<RefCell<ChaosShared>>,
}

/// The deterministic payload byte of `(src_rank, byte offset)` — the
/// whole TX region of one rank is one stream of these ([`Tile::chaos`]).
fn chaos_byte(src_rank: u32, off: u64) -> u8 {
    (off as u8)
        .wrapping_mul(31)
        .wrapping_add((src_rank as u8).wrapping_mul(97))
        ^ 0x5A
}

impl HostProgram for ChaosRank {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let region = (self.msgs as u64 * self.msg_len).max(1);
        // Allocation order is identical on every rank, so this rank's RX
        // and TX addresses equal its peer's — ranks can name peer memory
        // without an out-of-band exchange.
        let rx_buf = node.cuda[0].borrow_mut().malloc(region).unwrap();
        let tx_buf = node.cuda[0].borrow_mut().malloc(region).unwrap();
        node.ep.register(rx_buf, region).unwrap();
        node.ep.register(tx_buf, region).unwrap();
        Tile::chaos(self.rank)
            .fill(&mut node.cuda[0].borrow_mut().mem, tx_buf, region)
            .expect("the TX region is this rank's own allocation");
        for i in 0..self.msgs {
            let (off, len, peer) = (i as u64 * self.msg_len, self.msg_len, self.peer);
            let (msg, desc, host_cost) = if self.get {
                let out = node
                    .ep
                    .get(rx_buf + off, len, peer, tx_buf + off, SrcHint::Gpu)
                    .unwrap();
                (out.desc.msg, ChaosDesc::Get(out.desc), out.host_cost)
            } else {
                let out = node
                    .ep
                    .put(tx_buf + off, len, peer, rx_buf + off, SrcHint::Gpu)
                    .unwrap();
                (out.desc.msg, ChaosDesc::Put(out.desc), out.host_cost)
            };
            let mut sh = self.shared.borrow_mut();
            sh.watchdog.arm(msg, api.now);
            sh.descs.insert(msg, desc.clone());
            if let Some(sq) = sh.sendqs.get_mut(self.rank as usize) {
                // The last post of the burst is force-signaled so the
                // tail of unsignaled WQEs always retires.
                sq.post(msg, i + 1 == self.msgs);
            }
            drop(sh);
            desc.submit(api, host_cost);
        }
        if self.reissue {
            api.wake(self.poll, 0);
        }
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let mut sh = self.shared.borrow_mut();
        match ev {
            HostIn::Delivered { msg, .. } => sh.deliver(self.rank as usize, msg),
            HostIn::Wake(_) if self.reissue => {
                sh.poll_watchdog(self.rank as usize, node, api);
                if sh.busy() {
                    api.wake(self.poll, 0);
                }
            }
            _ => {}
        }
    }
}

/// Run a seeded chaos workload: every rank of `dims` streams
/// `msgs_per_rank` GPU-to-GPU PUTs to its ring successor while the fault
/// plan in `node_cfg.faults` corrupts, drops and stalls link frames. The
/// report carries everything the exactly-once proof needs: distinct
/// deliveries, duplicate completions, byte-exactness of every destination
/// region, card quiescence and the fault/recovery counter totals.
pub fn chaos_run(dims: TorusDims, node_cfg: NodeConfig, p: ChaosParams) -> ChaosReport {
    chaos_run_with(dims, node_cfg, p, Planes::off()).0
}

/// [`chaos_run`] observed by `planes`. The tail and SLO planes publish
/// only into their own registries and no plane schedules anything, so
/// the report is identical to [`chaos_run`]'s with any planes on.
pub fn chaos_run_with(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: ChaosParams,
    planes: Planes,
) -> (ChaosReport, RunArtifacts) {
    chaos_impl(dims, node_cfg, p, None, planes)
}

/// [`chaos_run`] with the GET verb: every rank *reads* its ring
/// successor's TX region with one-sided GETs posted through send-queue
/// moderation tuned by `sig`. Exactly-once, byte-exactness, quiescence
/// and watchdog composition are proven the same way; the report
/// additionally carries the signaling counters and the send-queue
/// retirement totals (`sq_retired` must equal `sq_posted`).
pub fn get_chaos_run(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: ChaosParams,
    sig: SignalConfig,
) -> ChaosReport {
    get_chaos_run_with(dims, node_cfg, p, sig, Planes::off()).0
}

/// [`get_chaos_run`] observed by `planes`; the report is identical with
/// any planes on.
pub fn get_chaos_run_with(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: ChaosParams,
    sig: SignalConfig,
    planes: Planes,
) -> (ChaosReport, RunArtifacts) {
    chaos_impl(dims, node_cfg, p, Some(sig), planes)
}

/// The per-run state every chaos and incast run starts from. Every
/// counter a report quotes flows through the returned private registry:
/// the watchdog mirrors its alarms in, each card publishes its
/// link-reliability totals after the run, and send queues and pacers
/// mirror their activity. The signaling and pacing ids are pre-created
/// at zero so every run publishes the full id set. Also returns the
/// watchdog poll period.
fn run_state(node_cfg: &NodeConfig, n: usize) -> (Registry, SimDuration, ChaosShared) {
    let reg = Registry::new();
    signal::register_metrics(&reg);
    pacing::register_metrics(&reg);
    let wd_cfg = node_cfg.driver.watchdog.clone();
    let poll = SimDuration::from_ps((wd_cfg.timeout.as_ps() / 4).max(1));
    let mut watchdog = apenet_rdma::driver::Watchdog::new(wd_cfg);
    watchdog.attach_metrics(&reg);
    let shared = ChaosShared {
        watchdog,
        delivered: Default::default(),
        descs: Default::default(),
        reissue: (0..n).map(|_| Default::default()).collect(),
        failed: (0..n).map(|_| Default::default()).collect(),
        sendqs: Vec::new(),
    };
    (reg, poll, shared)
}

/// Completion-queue and card totals over every rank of a finished run.
struct RankTotals {
    duplicates: u64,
    error_completions: u64,
    last_delivery: SimTime,
    quiesced: bool,
}

/// Sum every rank's completion queue and card state; each card also
/// publishes its link counters into `reg`.
fn rank_totals(cluster: &Cluster, reg: &Registry) -> RankTotals {
    let mut t = RankTotals {
        duplicates: 0,
        error_completions: 0,
        last_delivery: SimTime::ZERO,
        quiesced: true,
    };
    for r in 0..cluster.dims.nodes() {
        let cq = &cluster.host(r).node.cq;
        t.duplicates += cq.duplicate_count();
        t.error_completions += cq.error_count() as u64;
        if let Some(at) = cq.last_delivery() {
            t.last_delivery = t.last_delivery.max(at);
        }
        let card = cluster.card(r).card();
        t.quiesced &= card.quiesced();
        card.publish_link_metrics(reg);
    }
    t
}

fn chaos_impl(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: ChaosParams,
    get_verb: Option<SignalConfig>,
    planes: Planes,
) -> (ChaosReport, RunArtifacts) {
    let n = dims.nodes();
    assert!(n >= 2, "the ring workload needs at least two nodes");
    let (reg, poll, mut state) = run_state(&node_cfg, n);
    let is_get = get_verb.is_some();
    if let Some(sig) = &get_verb {
        state.sendqs = (0..n)
            .map(|_| {
                let mut sq = SendQueue::new(sig.clone());
                sq.attach_metrics(&reg);
                sq
            })
            .collect();
    }
    let shared = Rc::new(RefCell::new(state));
    let programs: Vec<Box<dyn HostProgram>> = (0..n)
        .map(|r| {
            Box::new(ChaosRank {
                rank: r as u32,
                msgs: p.msgs_per_rank,
                msg_len: p.msg_len,
                get: is_get,
                reissue: p.watchdog_reissue,
                poll,
                peer: dims.coord_of((r + 1) % n),
                shared: shared.clone(),
            }) as Box<dyn HostProgram>
        })
        .collect();
    let mut cluster = ClusterBuilder::new(dims, node_cfg)
        .planes(planes)
        .build(programs);
    let end = cluster.run();

    // Drain the send queues' final CQEs and collect retirement totals
    // before taking the long immutable borrow below.
    let (sq_posted, sq_retired) = {
        let mut sh = shared.borrow_mut();
        let mut posted = 0;
        let mut retired = 0;
        for sq in sh.sendqs.iter_mut() {
            let _ = sq.reap();
            posted += sq.posted;
            retired += sq.retired;
        }
        (posted, retired)
    };

    // Verify every destination region byte-exactly: rank d's RX buffer
    // must hold its predecessor's TX stream (PUT: the predecessor wrote
    // it here; GET: rank d read its successor's stream into it).
    let region = p.msgs_per_rank as u64 * p.msg_len;
    let mut payload_ok = true;
    let sh = shared.borrow();
    if region > 0 {
        // Every delivered slot, keyed by the rank that issued its
        // message and the slot's address on the rank that holds it.
        let delivered_slots: std::collections::HashSet<(u32, u64)> = sh
            .descs
            .iter()
            .filter(|(m, _)| sh.delivered.contains(m))
            .map(|(m, desc)| match desc {
                ChaosDesc::Put(t) => (m.src_rank, t.dst_vaddr),
                ChaosDesc::Get(g) => (m.src_rank, g.local_vaddr),
            })
            .collect();
        for d in 0..n {
            // PUT: rank d receives from its ring predecessor, which
            // issued the message. GET: rank d pulled from its ring
            // successor and issued the message itself.
            let (src, issuer) = if is_get {
                ((d + 1) % n, d)
            } else {
                let pred = (d + n - 1) % n;
                (pred, pred)
            };
            let tile = Tile::chaos(src as u32);
            let mem = &cluster.host(d).node.cuda[0];
            let mem = &mem.borrow().mem;
            // Same deterministic allocation order as the rank programs'
            // start(): the RX region is the first GPU allocation.
            let rx_buf = mem.base();
            // Only fully-delivered slots are checked: with recovery
            // disabled, lost messages leave their slots unwritten.
            for i in 0..p.msgs_per_rank {
                let off = i as u64 * p.msg_len;
                if delivered_slots.contains(&(issuer as u32, rx_buf + off)) {
                    payload_ok &= tile
                        .matches(mem, rx_buf + off, off, p.msg_len)
                        .expect("RX slots lie in the RX region");
                }
            }
        }
    }

    let totals = rank_totals(&cluster, &reg);
    let metrics = reg.counters();
    use apenet_core::card::metrics as lm;
    use apenet_rdma::driver::metrics as wm;
    use apenet_rdma::signal::metrics as sm;
    let report = ChaosReport {
        expected: n as u64 * p.msgs_per_rank as u64,
        delivered: sh.delivered.len() as u64,
        duplicates: totals.duplicates,
        payload_ok,
        quiesced: totals.quiesced,
        watchdog_fired: metrics.get(wm::FIRED),
        watchdog_reissues: metrics.get(wm::REISSUES),
        watchdog_failed: metrics.get(wm::UNREACHABLE),
        error_completions: totals.error_completions,
        dead_links: metrics.get(lm::LINK_DEAD),
        detours: metrics.get(lm::ROUTE_DETOUR),
        unreachable_drops: metrics.get(lm::ROUTE_UNREACHABLE),
        requeued: metrics.get(lm::ROUTE_REQUEUED),
        rx_dup_fragments: metrics.get(lm::RX_DUP_FRAGMENTS),
        retransmits: metrics.get(lm::RETRANSMITS),
        timeouts: metrics.get(lm::TIMEOUTS),
        dup_frames: metrics.get(lm::DUP_FRAMES),
        crc_dropped: metrics.get(lm::CRC_DROPPED),
        naks: metrics.get(lm::NAKS_SENT),
        injected: (
            metrics.get(lm::INJECTED_CORRUPT),
            metrics.get(lm::INJECTED_DROPS),
            metrics.get(lm::INJECTED_STALLS),
        ),
        stall_ps: metrics.get(lm::STALL_PS),
        last_delivery: totals.last_delivery,
        end,
        cq_signaled: metrics.get(sm::CQ_SIGNALED),
        doorbell_batched: metrics.get(sm::DOORBELL_BATCHED),
        sq_posted,
        sq_retired,
        metrics,
    };

    (report, cluster.take_artifacts())
}

// ---------------------------------------------------------------------------
// Incast/hotspot harness: overload-plane survival proofs.
// ---------------------------------------------------------------------------

/// Which verb an incast storm uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncastVerb {
    /// N senders PUT into disjoint slots of rank 0's RX region.
    Put,
    /// N requesters GET rank 0's TX region (the hotspot-responder
    /// shape: the reply fan-out congests rank 0's own egress ports).
    Get,
}

/// Parameters of one incast run (see [`incast_run`]).
#[derive(Debug, Clone)]
pub struct IncastParams {
    /// Storming ranks (`1..=senders`), all aimed at rank 0.
    pub senders: u32,
    /// Messages each storming rank issues.
    pub msgs_per_sender: u32,
    /// Length of each message in bytes.
    pub msg_len: u64,
    /// Offered-load multiplier: the aggregate submit rate is this many
    /// times one torus link's line rate, split evenly across senders.
    pub offered: u32,
    /// PUT storm or GET (hotspot) storm.
    pub verb: IncastVerb,
    /// Host half of the overload plane: `Some` arms a per-sender
    /// [`Pacer`] (AIMD on the card's ECN echoes) plus endpoint
    /// admission control; `None` leaves submission open-loop.
    pub pacer: Option<PacerConfig>,
}

/// Everything an incast run proves or measures.
#[derive(Debug, Clone)]
pub struct IncastReport {
    /// Storming ranks.
    pub senders: u32,
    /// Offered-load multiplier the run was driven at.
    pub offered: u32,
    /// Messages the run expected to deliver.
    pub expected: u64,
    /// Distinct messages actually delivered.
    pub delivered: u64,
    /// Repeat deliveries seen by any completion queue (exactly-once
    /// requires 0).
    pub duplicates: u64,
    /// Every delivered payload byte-exact at its destination GPU.
    pub payload_ok: bool,
    /// Every card drained all queues, replay buffers and reassembly
    /// state.
    pub quiesced: bool,
    /// Unique delivered payload bytes over the time of the last
    /// delivery, in MB/s — the goodput the collapse proofs compare.
    pub goodput_mb_s: f64,
    /// Latest delivery timestamp across all ranks.
    pub last_delivery: SimTime,
    /// Simulated end time (includes trailing poll wake-ups).
    pub end: SimTime,
    /// Frames freshly CE-marked by overloaded cards.
    pub ecn_marked: u64,
    /// Congestion echoes generated back toward sources.
    pub ecn_echoed: u64,
    /// Additive window increases across all pacers.
    pub cwnd_increases: u64,
    /// Multiplicative window cuts across all pacers.
    pub cwnd_decreases: u64,
    /// Admission rejections (pacer gate plus endpoint budget).
    pub throttled: u64,
    /// Admission deadlines that expired before completion.
    pub deadline_expired: u64,
    /// Driver-watchdog alarms.
    pub watchdog_fired: u64,
    /// Messages re-issued by the watchdog path.
    pub watchdog_reissues: u64,
    /// Messages the watchdog escalated to typed error completions.
    pub watchdog_failed: u64,
    /// Error completions recorded across all completion queues.
    pub error_completions: u64,
    /// The run's full counter snapshot (card, watchdog, signaling and
    /// pacing ids; the scalar fields above are views into it).
    pub metrics: CounterSnapshot,
}

/// One storming rank of an incast run. Submission is paced open-loop at
/// the offered rate; with the overload plane armed, every send first
/// passes the pacer's window/budget gate and the endpoint's admission
/// budget, backing off exponentially on a throttle. Completion,
/// watchdog re-issue and Unreachable escalation follow the chaos-rank
/// pattern (cluster-shared watchdog, per-source re-issue queues).
struct IncastSender {
    rank: u32,
    senders: u32,
    msgs: u32,
    msg_len: u64,
    /// Submit interval implementing the offered rate.
    interval: SimDuration,
    poll: SimDuration,
    target: Coord,
    verb: IncastVerb,
    pacer: Option<Pacer>,
    /// Next unsubmitted message index.
    next: u32,
    /// Consecutive throttled attempts on the pending message.
    attempts: u32,
    /// Messages submitted and not yet settled on this rank.
    inflight: Vec<apenet_core::packet::MsgId>,
    rx_buf: u64,
    tx_buf: u64,
    shared: Rc<RefCell<ChaosShared>>,
}

impl IncastSender {
    /// Target-side slot offset of this rank's message `i`: senders own
    /// disjoint blocks of rank 0's RX region.
    fn put_slot(&self, i: u32) -> u64 {
        ((self.rank - 1) as u64 * self.msgs as u64 + i as u64) * self.msg_len
    }

    /// The submit schedule: message `i` is due at `start + i·interval`.
    fn due_at(&self, i: u32) -> SimDuration {
        SimDuration::from_ps(self.interval.as_ps() * i as u64)
    }

    /// Settle every in-flight message the cluster has delivered or
    /// failed since the last poll (PUT completions land on rank 0, so
    /// senders observe them through the shared delivery set).
    fn settle(&mut self, node: &mut NodeCtx, now: SimTime) {
        let sh = self.shared.borrow();
        let done: Vec<_> = self
            .inflight
            .iter()
            .copied()
            .filter(|m| sh.delivered.contains(m) || node.cq.is_failed(*m))
            .collect();
        drop(sh);
        for msg in done {
            self.inflight.retain(|m| *m != msg);
            if let Some(p) = self.pacer.as_mut() {
                p.on_complete(msg, now);
            }
            node.ep.op_complete();
        }
    }

    /// Issue every due message the plane admits; schedule the next
    /// wake-up for the earliest of schedule, backoff and poll.
    fn pump(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let now = api.now;
        let elapsed = now.since(SimTime::ZERO);
        self.settle(node, now);
        if let Some(p) = self.pacer.as_mut() {
            let _ = p.poll_deadlines(now);
        }
        // Cluster-wide watchdog duty: route expired messages home, then
        // drain this rank's own re-issue and escalation queues.
        self.shared
            .borrow_mut()
            .poll_watchdog(self.rank as usize, node, api);
        self.settle(node, now);
        // Open-loop schedule, gated by the plane when armed.
        let mut backoff: Option<SimDuration> = None;
        while self.next < self.msgs && self.due_at(self.next) <= elapsed {
            let admitted = match self.pacer.as_mut() {
                Some(p) => p.try_admit(0),
                None => true,
            };
            if !admitted {
                backoff = Some(
                    self.pacer
                        .as_ref()
                        .expect("gate implies pacer")
                        .backoff_for(self.attempts),
                );
                self.attempts += 1;
                break;
            }
            let i = self.next;
            let off = i as u64 * self.msg_len;
            let res = match self.verb {
                IncastVerb::Put => node
                    .ep
                    .put(
                        self.tx_buf + off,
                        self.msg_len,
                        self.target,
                        self.rx_buf + self.put_slot(i),
                        SrcHint::Gpu,
                    )
                    .map(|out| (out.desc.msg, ChaosDesc::Put(out.desc), out.host_cost)),
                IncastVerb::Get => node
                    .ep
                    .get(
                        self.rx_buf + off,
                        self.msg_len,
                        self.target,
                        self.tx_buf + off,
                        SrcHint::Gpu,
                    )
                    .map(|out| (out.desc.msg, ChaosDesc::Get(out.desc), out.host_cost)),
            };
            match res {
                Err(RdmaError::Throttled) => {
                    // The endpoint's own admission budget said no: same
                    // backed-off retry as a pacer rejection.
                    let delay = self
                        .pacer
                        .as_ref()
                        .map(|p| p.backoff_for(self.attempts))
                        .unwrap_or(self.poll);
                    backoff = Some(delay);
                    self.attempts += 1;
                    break;
                }
                Err(e) => panic!("incast submit failed: {e}"),
                Ok((msg, desc, host_cost)) => {
                    self.attempts = 0;
                    self.next += 1;
                    self.inflight.push(msg);
                    if let Some(p) = self.pacer.as_mut() {
                        p.on_submit(msg, 0, now);
                    }
                    let mut sh = self.shared.borrow_mut();
                    sh.watchdog.arm(msg, now);
                    sh.descs.insert(msg, desc.clone());
                    drop(sh);
                    desc.submit(api, host_cost);
                }
            }
        }
        // Earliest reason to wake again: the throttle backoff (which
        // owns the overdue schedule — re-polling sooner would just spin
        // on the closed gate), the next scheduled submit, or the
        // completion/watchdog poll.
        let outstanding = !self.inflight.is_empty() || self.shared.borrow().busy();
        let mut delay: Option<SimDuration> = backoff;
        if backoff.is_none() && self.next < self.msgs {
            let sched = self.due_at(self.next);
            let wait = if sched > elapsed {
                SimDuration::from_ps(sched.as_ps() - elapsed.as_ps())
            } else {
                SimDuration::ZERO
            };
            delay = Some(wait);
        }
        if outstanding {
            delay = Some(delay.map_or(self.poll, |d| d.min(self.poll)));
        }
        if let Some(d) = delay {
            api.wake(d.max(SimDuration::from_ns(1)), 0);
        }
    }
}

impl HostProgram for IncastSender {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        // Identical allocation order on every rank: buffer A (rank 0's
        // RX landing region) then buffer B (rank 0's hotspot TX
        // region), so storms can name rank-0 memory without an
        // out-of-band exchange.
        let region_a = self.senders as u64 * self.msgs as u64 * self.msg_len;
        let region_b = (self.msgs as u64 * self.msg_len).max(1);
        self.rx_buf = node.cuda[0].borrow_mut().malloc(region_a.max(1)).unwrap();
        self.tx_buf = node.cuda[0].borrow_mut().malloc(region_b).unwrap();
        match self.verb {
            IncastVerb::Put => {
                // This rank's stream lives in buffer B; fill and map it.
                node.ep.register(self.tx_buf, region_b).unwrap();
                Tile::chaos(self.rank)
                    .fill(&mut node.cuda[0].borrow_mut().mem, self.tx_buf, region_b)
                    .expect("buffer B is this rank's own allocation");
            }
            IncastVerb::Get => {
                // Replies land in this rank's buffer A prefix.
                node.ep.register(self.rx_buf, region_b).unwrap();
            }
        }
        if let Some(p) = &self.pacer {
            node.ep.set_admission(Some(p.config().admission));
        }
        self.pump(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        match ev {
            HostIn::Delivered { msg, .. } => {
                // GET completions land on the requester: settle in place.
                self.shared.borrow_mut().deliver(self.rank as usize, msg);
                self.inflight.retain(|m| *m != msg);
                if let Some(p) = self.pacer.as_mut() {
                    p.on_complete(msg, api.now);
                }
                node.ep.op_complete();
            }
            HostIn::EcnEcho { msg } => {
                if let Some(p) = self.pacer.as_mut() {
                    p.on_echo(msg, api.now);
                }
            }
            HostIn::Wake(_) => self.pump(node, api),
            _ => {}
        }
    }
}

/// The incast target (rank 0): registers the landing region (PUT) or
/// serves the hotspot TX region (GET) and records deliveries into the
/// cluster-shared exactly-once set.
struct IncastTarget {
    senders: u32,
    msgs: u32,
    msg_len: u64,
    verb: IncastVerb,
    shared: Rc<RefCell<ChaosShared>>,
}

impl HostProgram for IncastTarget {
    fn start(&mut self, node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        let region_a = (self.senders as u64 * self.msgs as u64 * self.msg_len).max(1);
        let region_b = (self.msgs as u64 * self.msg_len).max(1);
        let rx = node.cuda[0].borrow_mut().malloc(region_a).unwrap();
        let tx = node.cuda[0].borrow_mut().malloc(region_b).unwrap();
        match self.verb {
            IncastVerb::Put => {
                node.ep.register(rx, region_a).unwrap();
            }
            IncastVerb::Get => {
                node.ep.register(tx, region_b).unwrap();
                Tile::chaos(0)
                    .fill(&mut node.cuda[0].borrow_mut().mem, tx, region_b)
                    .expect("buffer B is this rank's own allocation");
            }
        }
    }

    fn on_event(&mut self, ev: HostIn, _node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { msg, .. } = ev {
            self.shared.borrow_mut().deliver(0, msg);
        }
    }
}

/// Run a seeded incast/hotspot storm: ranks `1..=p.senders` of `dims`
/// storm rank 0 at `p.offered`× one link's line rate, optionally gated
/// by the overload plane's host half (`p.pacer`) on top of whatever
/// card-side marking `node_cfg.card.overload` arms. Composable with the
/// chaos and hard-fault planes through `node_cfg.faults` exactly like
/// [`chaos_run`]. The report carries goodput plus everything the
/// collapse proofs need.
pub fn incast_run(dims: TorusDims, node_cfg: NodeConfig, p: IncastParams) -> IncastReport {
    incast_run_with(dims, node_cfg, p, Planes::off()).0
}

/// [`incast_run`] with the streaming SLO engine attached: alongside the
/// (unchanged) incast report, returns the [`RunReport`] evaluating the
/// declared objective over the storm — the plane that proves the
/// burn-rate pager fires during an unprotected collapse and stays
/// silent when the overload plane survives it.
pub fn incast_run_slo(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: IncastParams,
    cfg: SloConfig,
) -> (IncastReport, RunReport) {
    let planes = Planes {
        slo: Some(cfg),
        ..Planes::off()
    };
    let (report, artifacts) = incast_run_with(dims, node_cfg, p, planes);
    (report, artifacts.slo.expect("slo plane on"))
}

/// [`incast_run_slo`] also handing back a capture of every span record,
/// for the trace-export path that renders storm spans plus counter
/// tracks.
pub fn incast_run_slo_traced(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: IncastParams,
    cfg: SloConfig,
) -> (IncastReport, RunReport, Vec<TraceRecord>) {
    let planes = Planes {
        trace: Some(SharedSink::capturing()),
        slo: Some(cfg),
        ..Planes::off()
    };
    let (report, artifacts) = incast_run_with(dims, node_cfg, p, planes);
    (
        report,
        artifacts.slo.expect("slo plane on"),
        artifacts.trace,
    )
}

/// [`incast_run`] observed by `planes`. With the SLO plane on, the run's
/// `cwnd.r*` time series are mirrored into the SLO report's registry so
/// viewers see congestion-window collapse next to the window p99 track.
pub fn incast_run_with(
    dims: TorusDims,
    node_cfg: NodeConfig,
    p: IncastParams,
    planes: Planes,
) -> (IncastReport, RunArtifacts) {
    let n = dims.nodes();
    assert!(
        (p.senders as usize) < n,
        "rank 0 is the target; senders must fit in the remaining ranks"
    );
    let (reg, poll, state) = run_state(&node_cfg, n);
    let shared = Rc::new(RefCell::new(state));
    // One message serializes on the wire in `msg_len · 8 / link_gbps`
    // ns; the aggregate offered rate is `offered`× that line rate,
    // split evenly, so each sender submits every
    // `senders · serialize / offered`.
    let ser_ps = p.msg_len * 8000 / node_cfg.card.link_gbps.max(1);
    let interval =
        SimDuration::from_ps((p.senders as u64 * ser_ps / p.offered.max(1) as u64).max(1));
    let programs: Vec<Box<dyn HostProgram>> = (0..n)
        .map(|r| {
            if r == 0 {
                Box::new(IncastTarget {
                    senders: p.senders,
                    msgs: p.msgs_per_sender,
                    msg_len: p.msg_len,
                    verb: p.verb,
                    shared: shared.clone(),
                }) as Box<dyn HostProgram>
            } else if r <= p.senders as usize {
                let pacer = p.pacer.clone().map(|cfg| {
                    let mut pc = Pacer::new(cfg);
                    pc.attach_metrics(&reg);
                    pc.attach_series(&reg, r as u32);
                    pc
                });
                Box::new(IncastSender {
                    rank: r as u32,
                    senders: p.senders,
                    msgs: p.msgs_per_sender,
                    msg_len: p.msg_len,
                    interval,
                    poll,
                    target: dims.coord_of(0),
                    verb: p.verb,
                    pacer,
                    next: 0,
                    attempts: 0,
                    inflight: Vec::new(),
                    rx_buf: 0,
                    tx_buf: 0,
                    shared: shared.clone(),
                }) as Box<dyn HostProgram>
            } else {
                Box::new(IdleProgram) as Box<dyn HostProgram>
            }
        })
        .collect();
    let mut cluster = ClusterBuilder::new(dims, node_cfg)
        .planes(planes)
        .build(programs);
    let end = cluster.run();

    // Byte-exact verification of every delivered slot.
    let sh = shared.borrow();
    let mut payload_ok = true;
    let delivered = sh.descs.iter().filter(|(m, _)| sh.delivered.contains(m));
    match p.verb {
        IncastVerb::Put => {
            // Rank 0's buffer A holds sender blocks; slot (s, i) must
            // carry sender s's stream at offset i·msg_len.
            let tiles: Vec<Tile> = (0..n as u32).map(Tile::chaos).collect();
            let mem = &cluster.host(0).node.cuda[0];
            let mem = &mem.borrow().mem;
            let rx = mem.base();
            for (m, desc) in delivered {
                let ChaosDesc::Put(d) = desc else { continue };
                let i = ((d.dst_vaddr - rx) / p.msg_len) % p.msgs_per_sender as u64;
                let tile = &tiles[m.src_rank as usize];
                payload_ok &= tile
                    .matches(mem, d.dst_vaddr, i * p.msg_len, d.len)
                    .expect("a delivered PUT lies in the landing region");
            }
        }
        IncastVerb::Get => {
            // Each requester's buffer A prefix must mirror rank 0's
            // hotspot stream: the slot offset within the requester's
            // landing region equals the stream offset within rank 0's
            // TX region (both are i·msg_len).
            let tile = Tile::chaos(0);
            for (m, desc) in delivered {
                let ChaosDesc::Get(g) = desc else { continue };
                let mem = &cluster.host(m.src_rank as usize).node.cuda[0];
                let mem = &mem.borrow().mem;
                let off = g.local_vaddr - mem.base();
                payload_ok &= tile
                    .matches(mem, g.local_vaddr, off, g.len)
                    .expect("a delivered GET lies in the landing region");
            }
        }
    }

    let totals = rank_totals(&cluster, &reg);
    let delivered = sh.delivered.len() as u64;
    let span_ps = totals.last_delivery.since(SimTime::ZERO).as_ps();
    let goodput_mb_s = if span_ps == 0 {
        0.0
    } else {
        (delivered * p.msg_len) as f64 * 1e6 / span_ps as f64
    };
    let metrics = reg.counters();
    use apenet_core::card::metrics as lm;
    use apenet_rdma::driver::metrics as wm;
    use apenet_rdma::pacing::metrics as pm;
    let report = IncastReport {
        senders: p.senders,
        offered: p.offered,
        expected: p.senders as u64 * p.msgs_per_sender as u64,
        delivered,
        duplicates: totals.duplicates,
        payload_ok,
        quiesced: totals.quiesced,
        goodput_mb_s,
        last_delivery: totals.last_delivery,
        end,
        ecn_marked: metrics.get(lm::ECN_MARKED),
        ecn_echoed: metrics.get(lm::ECN_ECHOED),
        cwnd_increases: metrics.get(pm::CWND_INCREASES),
        cwnd_decreases: metrics.get(pm::CWND_DECREASES),
        throttled: metrics.get(pm::THROTTLED),
        deadline_expired: metrics.get(pm::DEADLINE_EXPIRED),
        watchdog_fired: metrics.get(wm::FIRED),
        watchdog_reissues: metrics.get(wm::REISSUES),
        watchdog_failed: metrics.get(wm::UNREACHABLE),
        error_completions: totals.error_completions,
        metrics,
    };
    let artifacts = cluster.take_artifacts();
    // Mirror the run's pacer series into the SLO plane's registry so
    // `cwnd.r*` collapse renders next to the `window.p99` track.
    if let Some(slo) = &artifacts.slo {
        for id in reg.series_ids() {
            if id.starts_with("cwnd.") {
                let dst = slo.registry.series(&id);
                for (ps, v) in reg.series(&id).points() {
                    dst.push(SimTime::from_ps(ps), v);
                }
            }
        }
    }
    (report, artifacts)
}

/// The single-flow baseline the collapse proofs normalise against: one
/// sender at 1× offered load over the same configuration, plane off.
pub fn incast_single_flow_baseline(
    dims: TorusDims,
    node_cfg: NodeConfig,
    msgs: u32,
    msg_len: u64,
    verb: IncastVerb,
) -> IncastReport {
    incast_run(
        dims,
        node_cfg,
        IncastParams {
            senders: 1,
            msgs_per_sender: msgs,
            msg_len,
            offered: 1,
            verb,
            pacer: None,
        },
    )
}

// ---------------------------------------------------------------------------
// GET stream harness: the batch-size-vs-throughput sweep workload.
// ---------------------------------------------------------------------------

/// Parameters of a two-node GET stream (the `get_sweep` workload).
#[derive(Debug, Clone)]
pub struct GetStreamParams {
    /// Bytes per GET.
    pub size: u64,
    /// Number of GETs.
    pub count: u32,
    /// GETs kept outstanding.
    pub window: u32,
    /// Send-queue moderation tuning (`doorbell_batch` is the swept knob).
    pub sig: SignalConfig,
}

/// The GET requester: keeps `window` reads outstanding against the
/// responder's source buffer, charging the *moderated* host cost per
/// post — every post builds a descriptor, only batch-closing posts ring
/// the doorbell. This is the sweep's measurement loop: with doorbell
/// batching off (batch = 1) the per-post host cost caps small-message
/// throughput; with it on, the wire saturates at large batches.
struct GetStreamRequester {
    peer: Coord,
    peer_vaddr: u64,
    size: u64,
    count: u32,
    window: u32,
    issued: u32,
    rx_buf: u64,
    /// When the host core finishes its current post (posts serialize on
    /// the issuing CPU — this is the LogP *o* bound the doorbell batch
    /// amortises).
    host_free: SimTime,
    sendq: SendQueue,
    drv: apenet_rdma::driver::DriverConfig,
    records: Shared,
}

impl GetStreamRequester {
    fn issue_one(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let out = node
            .ep
            .get(
                self.rx_buf,
                self.size,
                self.peer,
                self.peer_vaddr,
                SrcHint::Gpu,
            )
            .expect("get");
        let force = self.issued + 1 == self.count;
        let info = self.sendq.post(out.desc.msg, force);
        // The issuing core serializes descriptor builds and doorbells:
        // each post occupies it for its host cost after the previous
        // post retires, regardless of how the card pipeline is doing.
        let end = self.host_free.max(api.now) + info.host_cost(&self.drv);
        self.host_free = end;
        self.records.borrow_mut().submits.push(end);
        api.submit_get(end.since(api.now), out.desc);
        self.issued += 1;
        if force && self.sendq.flush_doorbell() {
            // Tail flush: the last burst may not land on a batch
            // boundary; the ring is charged but gates nothing.
        }
    }
}

impl HostProgram for GetStreamRequester {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        self.rx_buf = alloc_buf(node, BufSide::Gpu, self.size);
        node.ep
            .register(self.rx_buf, self.size)
            .expect("register rx");
        let burst = self.window.min(self.count);
        for _ in 0..burst {
            self.issue_one(node, api);
        }
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        if let HostIn::Delivered { msg, len, .. } = ev {
            self.sendq.complete(&msg);
            reap_if_due(&mut self.sendq);
            self.records.borrow_mut().completions.push((api.now, len));
            if self.issued < self.count {
                self.issue_one(node, api);
            }
        }
    }
}

/// The GET responder: owns the source buffer the requester reads. All
/// serving happens on the card (BUF_LIST walk + reply stream), so the
/// host just registers and idles — the one-sided half of the verb.
struct GetStreamResponder {
    size: u64,
}

impl HostProgram for GetStreamResponder {
    fn start(&mut self, node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        let src = alloc_buf(node, BufSide::Gpu, self.size);
        fill_buf(node, BufSide::Gpu, src, self.size, 0x6E);
        node.ep.register(src, self.size).expect("register src");
    }

    fn on_event(&mut self, _ev: HostIn, _node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {}
}

/// Two-node GET stream bandwidth: rank 0 reads rank 1's GPU buffer with
/// `count` pipelined GETs through send-queue moderation.
pub fn get_stream_bandwidth(node_cfg: NodeConfig, p: GetStreamParams) -> BwResult {
    let dims = TorusDims::new(2, 1, 1);
    let records: Shared = Rc::new(RefCell::new(BenchRecords::default()));
    // Both ranks' first GPU allocation lands at the same address, so the
    // requester can name the responder's buffer without an exchange.
    let peer_vaddr = first_alloc_addr(&node_cfg, BufSide::Gpu, p.size, false);
    let drv = node_cfg.driver.clone();
    let requester = Box::new(GetStreamRequester {
        peer: dims.coord_of(1),
        peer_vaddr,
        size: p.size,
        count: p.count,
        window: p.window,
        issued: 0,
        rx_buf: 0,
        host_free: SimTime::ZERO,
        sendq: SendQueue::new(p.sig.clone()),
        drv,
        records: records.clone(),
    });
    let responder = Box::new(GetStreamResponder { size: p.size });
    let mut cluster = ClusterBuilder::new(dims, node_cfg).build(vec![requester, responder]);
    cluster.run();
    let r = records.borrow();
    measure(&r, p.size)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A memory the size of a few GPU pages, to fill and check.
    fn gpu_mem() -> Memory {
        Memory::new(0x7000_0000_0000, 1 << 20, apenet_gpu::GPU_PAGE_SIZE)
    }

    #[test]
    fn tile_fill_is_the_per_byte_stream() {
        let seeded = |i: u64| (i as u8).wrapping_mul(31) ^ 0x5A;
        let (rank0, rank7) = (|o| chaos_byte(0, o), |o| chaos_byte(7, o));
        let rank_max = |o| chaos_byte(u32::MAX, o);
        let streams: [(Tile, &dyn Fn(u64) -> u8); 4] = [
            (Tile::new(seeded), &seeded),
            (Tile::chaos(0), &rank0),
            (Tile::chaos(7), &rank7),
            (Tile::chaos(u32::MAX), &rank_max),
        ];
        // Lengths and offsets straddle the stream's 256-byte wrap and
        // the tile's chunk edges; an unaligned start writes every byte.
        for (tile, byte) in &streams {
            for (at, len) in [
                (0, 0),
                (0, 1),
                (0, 255),
                (0, CHUNK_SIZE),
                (0, 3 * CHUNK_SIZE + 777),
                (CHUNK_SIZE, 2 * CHUNK_SIZE),
                (1, CHUNK_SIZE),
                (511, 2 * CHUNK_SIZE + 13),
            ] {
                let mut mem = gpu_mem();
                let addr = mem.base() + at;
                tile.fill(&mut mem, addr, len).unwrap();
                let got = mem.read_vec(addr, len).unwrap();
                let want: Vec<u8> = (0..len).map(byte).collect();
                assert_eq!(got, want, "fill at +{at}, {len} bytes");
                assert_eq!(mem.read_vec(addr + len, 1).unwrap(), [0], "fill overran");
                assert!(tile.matches(&mem, addr, 0, len).unwrap());
            }
        }
    }

    #[test]
    fn tile_matches_every_delivered_byte() {
        let tile = Tile::chaos(3);
        let mut mem = gpu_mem();
        let base = mem.base();
        tile.fill(&mut mem, base, 8 * CHUNK_SIZE).unwrap();
        // A delivered slot at an offset inside the stream: right offset
        // matches, a shifted one does not.
        let (slot, len) = (base + 2 * CHUNK_SIZE + 100, 3 * CHUNK_SIZE);
        let off = slot - base;
        assert!(tile.matches(&mem, slot, off, len).unwrap());
        assert!(!tile.matches(&mem, slot, off + 1, len).unwrap());
        // One flipped byte anywhere in the slot fails the check, while
        // the chunks around it still share the tile's buffer.
        for at in [0, CHUNK_SIZE - 100, len / 2, len - 1] {
            let mut m = gpu_mem();
            tile.fill(&mut m, base, 8 * CHUNK_SIZE).unwrap();
            let b = m.read_vec(slot + at, 1).unwrap()[0];
            m.write(slot + at, &[b ^ 0x10]).unwrap();
            assert!(!tile.matches(&m, slot, off, len).unwrap(), "flip at +{at}");
        }
        assert_eq!(
            tile.matches(&mem, base + (1 << 20) - 8, 0, 16),
            Err(MemError::OutOfRange)
        );
    }
}

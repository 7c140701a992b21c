//! Distributed BFS runs: APEnet+ (event-driven, GPU peer-to-peer) and the
//! MPI/InfiniBand baseline of Table IV.
//!
//! Every rank owns a contiguous vertex range; each level it scans its
//! frontier on the GPU, then exchanges newly discovered remote vertices
//! all-to-all — "the typical traffic among nodes can be hardly predicted
//! and, depending on the graph partitioning, easily shows an all-to-all
//! pattern. The messages size varies as well during the different stages
//! of the traversal" (§V.E).

use crate::bfs::cost::BfsCost;
use crate::bfs::csr::Csr;
use crate::bfs::dist::{decode, encode, Expansion, Partition, RankState};
use crate::bfs::seq::{self, BfsTree};
use crate::hsg::run::{coord_for, dims_for};
use apenet_cluster::cluster::ClusterBuilder;
use apenet_cluster::msg::{HostApi, HostIn, HostProgram, NodeCtx};
use apenet_cluster::node::NodeConfig;
use apenet_cluster::presets::cluster_i_default;
use apenet_ib::{CudaAwareMpi, IbConfig};
use apenet_rdma::api::SrcHint;
use apenet_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex, PoisonError};

/// Run parameters.
#[derive(Debug, Clone)]
pub struct BfsConfig {
    /// Graph scale (2^scale vertices).
    pub scale: u32,
    /// Edges per vertex.
    pub edgefactor: u32,
    /// Ranks.
    pub np: usize,
    /// BFS root.
    pub root: u32,
    /// Graph seed.
    pub seed: u64,
    /// Kernel cost model.
    pub cost: BfsCost,
    /// GPUs per node for the IB baseline (Cluster II has two; pairs on
    /// one node exchange over the local PCIe instead of the network).
    pub ib_gpus_per_node: usize,
    /// Apply the graph500 vertex relabelling (ablation; the paper's runs
    /// behave like the raw R-MAT labelling, see DESIGN.md).
    pub permute: bool,
}

impl BfsConfig {
    /// The paper's Table IV configuration (|V| = 2^20, edgefactor 16).
    pub fn paper(np: usize) -> Self {
        BfsConfig {
            scale: 20,
            edgefactor: 16,
            np,
            root: 1,
            seed: 500,
            cost: BfsCost::default(),
            ib_gpus_per_node: 1,
            permute: false,
        }
    }

    /// A small configuration for tests.
    pub fn small(scale: u32, np: usize) -> Self {
        BfsConfig {
            scale,
            edgefactor: 16,
            np,
            root: 1,
            seed: 500,
            cost: BfsCost::default(),
            ib_gpus_per_node: 1,
            permute: false,
        }
    }
}

/// Aggregated result.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Traversed edges per second (the graph500 metric).
    pub teps: f64,
    /// Undirected edges of the traversed component.
    pub traversed_edges: u64,
    /// Total traversal wall time.
    pub wall: SimDuration,
    /// BFS levels run (including the final empty round).
    pub levels: u32,
    /// Per-rank `(compute, comm)` time split (Fig. 12).
    pub breakdown: Vec<(SimDuration, SimDuration)>,
    /// The merged BFS tree (validated by the test-suite).
    pub tree: BfsTree,
}

#[derive(Default)]
struct RankDone {
    wall_end: SimTime,
    comp: SimDuration,
    comm: SimDuration,
    level: Vec<i32>,
    parent: Vec<i64>,
    levels: u32,
}

struct BfsRank {
    cfg: BfsConfig,
    g: Arc<Csr>,
    state: RankState,
    rank: usize,
    // GPU buffer layout: send and recv slots by peer *position*
    // (0..np-1, senders ordered by rank skipping self), double-buffered
    // by level parity. Identical layout on every rank.
    send_slots: Vec<[u64; 2]>,
    recv_slots: Vec<[u64; 2]>,
    slot_bytes: u64,
    // Level machinery.
    level: i32,
    my_frontier_len: u32,
    kernel_done: bool,
    kernel_end: SimTime,
    expansion: Option<Expansion>,
    msgs_in: [u8; 2],
    frontier_global: [u64; 2],
    pending_pairs: [Vec<(u32, u32)>; 2],
    pairs_in_prev: u64,
    tx_expect_total: u32,
    tx_seen_total: u32,
    tx_barrier: u32,
    comp_acc: SimDuration,
    comm_acc: SimDuration,
    done: Rc<RefCell<Vec<RankDone>>>,
}

const WAKE_KERNEL: u64 = 1;

impl BfsRank {
    fn np(&self) -> usize {
        self.cfg.np
    }

    /// Peer rank at position `pos` of my table.
    fn rank_at(&self, pos: usize) -> usize {
        if pos < self.rank {
            pos
        } else {
            pos + 1
        }
    }

    /// Address of *peer `p`'s* recv slot for messages from me: layouts
    /// are identical on every rank, so it is my own recv address at my
    /// position within p's table.
    fn peer_recv_addr(&self, p: usize, parity: usize) -> u64 {
        let my_pos_at_p = if self.rank < p {
            self.rank
        } else {
            self.rank - 1
        };
        self.recv_slots[my_pos_at_p][parity]
    }

    /// Start level `self.level`: expand the frontier and charge the
    /// kernel.
    fn start_level(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        self.tx_barrier = self.tx_expect_total;
        self.kernel_done = false;
        self.my_frontier_len = self.state.frontier.len() as u32;
        let expansion = self.state.expand(&self.g, self.level + 1);
        let dur = self
            .cfg
            .cost
            .level_kernel(expansion.edges_scanned, self.pairs_in_prev);
        self.expansion = Some(expansion);
        let stream = apenet_gpu::cuda::CudaDevice::default_stream();
        let end = node.cuda[0].borrow_mut().launch(api.now, stream, dur);
        self.kernel_end = end;
        self.comp_acc += dur;
        api.wake(end.since(api.now), WAKE_KERNEL);
    }

    /// Kernel finished: emit the all-to-all exchange.
    fn on_kernel_done(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        self.kernel_done = true;
        let parity = (self.level & 1) as usize;
        let expansion = self.expansion.take().expect("expansion planned");
        if self.np() > 1 {
            for pos in 0..self.np() - 1 {
                let p = self.rank_at(pos);
                let bytes = encode(self.my_frontier_len, &expansion.to_rank[p]);
                assert!(bytes.len() as u64 <= self.slot_bytes, "slot overflow");
                let src = self.send_slots[pos][parity];
                node.cuda[0].borrow_mut().mem.write(src, &bytes).unwrap();
                let dst = self.peer_recv_addr(p, parity);
                let out = node
                    .ep
                    .put(
                        src,
                        bytes.len() as u64,
                        coord_for(self.np(), p, false),
                        dst,
                        SrcHint::Gpu,
                    )
                    .expect("frontier put");
                self.tx_expect_total += 1;
                api.submit(out.host_cost, out.desc);
            }
        }
        self.try_advance(node, api);
    }

    fn on_delivery(
        &mut self,
        node: &mut NodeCtx,
        api: &mut HostApi<'_, '_>,
        dst_vaddr: u64,
        len: u64,
    ) {
        // Identify (position, parity) by address.
        let mut found = None;
        for (pos, slots) in self.recv_slots.iter().enumerate() {
            for (parity, &addr) in slots.iter().enumerate() {
                if dst_vaddr == addr {
                    found = Some((pos, parity));
                }
            }
        }
        let (_pos, parity) = found.expect("delivery into a known slot");
        let bytes = node.cuda[0]
            .borrow_mut()
            .mem
            .read_vec(dst_vaddr, len)
            .unwrap();
        let (header, pairs) = decode(&bytes);
        self.frontier_global[parity] += header as u64;
        self.pending_pairs[parity].extend(pairs);
        self.msgs_in[parity] += 1;
        self.try_advance(node, api);
    }

    fn try_advance(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let parity = (self.level & 1) as usize;
        let all_in = self.np() == 1 || self.msgs_in[parity] as usize == self.np() - 1;
        if !(self.kernel_done && all_in && self.tx_seen_total >= self.tx_barrier) {
            return;
        }
        // Integrate and account.
        let pairs = std::mem::take(&mut self.pending_pairs[parity]);
        let fresh = self.state.apply(&pairs, self.level + 1);
        let _ = fresh;
        self.pairs_in_prev = pairs.len() as u64;
        let total_frontier = self.my_frontier_len as u64 + self.frontier_global[parity];
        self.msgs_in[parity] = 0;
        self.frontier_global[parity] = 0;
        self.comm_acc += api.now.since(self.kernel_end);
        if total_frontier == 0 {
            // Global termination: the round just exchanged was empty.
            let mut done = self.done.borrow_mut();
            let slot = &mut done[self.rank];
            slot.wall_end = api.now;
            slot.comp = self.comp_acc;
            slot.comm = self.comm_acc;
            slot.level = std::mem::take(&mut self.state.level);
            slot.parent = std::mem::take(&mut self.state.parent);
            slot.levels = self.level as u32 + 1;
            return;
        }
        self.level += 1;
        self.start_level(node, api);
    }
}

impl HostProgram for BfsRank {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let np = self.np();
        if np > 1 {
            let mut dev = node.cuda[0].borrow_mut();
            for _pos in 0..np - 1 {
                let s0 = dev.malloc(self.slot_bytes).unwrap();
                let s1 = dev.malloc(self.slot_bytes).unwrap();
                self.send_slots.push([s0, s1]);
            }
            for _pos in 0..np - 1 {
                let r0 = dev.malloc(self.slot_bytes).unwrap();
                let r1 = dev.malloc(self.slot_bytes).unwrap();
                self.recv_slots.push([r0, r1]);
            }
            drop(dev);
            // Hot RX buffers first in the BUF_LIST.
            for slots in &self.recv_slots {
                for &a in slots {
                    node.ep.register(a, self.slot_bytes).unwrap();
                }
            }
            for slots in &self.send_slots {
                for &a in slots {
                    node.ep.register(a, self.slot_bytes).unwrap();
                }
            }
        }
        self.start_level(node, api);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        match ev {
            HostIn::Wake(WAKE_KERNEL) => self.on_kernel_done(node, api),
            HostIn::Wake(_) => {}
            HostIn::Delivered { dst_vaddr, len, .. } => self.on_delivery(node, api, dst_vaddr, len),
            HostIn::TxDone { .. } => {
                self.tx_seen_total += 1;
                self.try_advance(node, api);
            }
            HostIn::Fault(_) => {}       // apps run on healthy clusters
            HostIn::EcnEcho { .. } => {} // apps run without the overload plane
            HostIn::Start => unreachable!(),
        }
    }
}

/// What identifies a graph: `(scale, edgefactor, seed, permute)`.
type GraphKey = (u32, u32, u64, bool);

/// The graph cache: the last graph built, with its key.
static GRAPH: Mutex<Option<(GraphKey, Arc<Csr>)>> = Mutex::new(None);

/// The graph `cfg` traverses: the R-MAT graph of `cfg`'s scale,
/// edgefactor, seed and labelling, in CSR form.
///
/// A process-wide cache holds the last graph built, so the runs of one
/// table share one build. It holds one entry: a new key drops the old
/// graph before building, so at most one cached graph is ever resident
/// (a scale-20 CSR is over 100 MB). The build runs under the cache
/// lock, so concurrent callers asking for one key build it once.
pub fn graph(cfg: &BfsConfig) -> Arc<Csr> {
    let key = (cfg.scale, cfg.edgefactor, cfg.seed, cfg.permute);
    let mut slot = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((k, g)) = slot.as_ref() {
        if *k == key {
            return g.clone();
        }
    }
    *slot = None;
    let edges = crate::bfs::rmat::generate_with(cfg.scale, cfg.edgefactor, cfg.seed, cfg.permute);
    let g = Arc::new(Csr::build(1 << cfg.scale, &edges));
    *slot = Some((key, g.clone()));
    g
}

/// Run the APEnet+ version (GPU peer-to-peer, Table IV left column).
pub fn run_apenet(cfg: &BfsConfig) -> BfsResult {
    run_apenet_on(cfg, cluster_i_default())
}

/// Run the APEnet+ version on a custom node configuration.
pub fn run_apenet_on(cfg: &BfsConfig, node_cfg: NodeConfig) -> BfsResult {
    let n = 1usize << cfg.scale;
    let g = graph(cfg);
    let part = Partition { n, np: cfg.np };
    let slot_bytes = 4 + 8 * max_message_pairs(&g, part, cfg.root);
    let done = Rc::new(RefCell::new(
        (0..cfg.np).map(|_| RankDone::default()).collect::<Vec<_>>(),
    ));
    let dims = dims_for(cfg.np);
    let programs: Vec<Box<dyn HostProgram>> = (0..cfg.np)
        .map(|rank| {
            Box::new(BfsRank {
                cfg: cfg.clone(),
                g: g.clone(),
                state: RankState::new(rank, part, cfg.root),
                rank,
                send_slots: Vec::new(),
                recv_slots: Vec::new(),
                slot_bytes,
                level: 0,
                my_frontier_len: 0,
                kernel_done: false,
                kernel_end: SimTime::ZERO,
                expansion: None,
                msgs_in: [0; 2],
                frontier_global: [0; 2],
                pending_pairs: [Vec::new(), Vec::new()],
                pairs_in_prev: 0,
                tx_expect_total: 0,
                tx_seen_total: 0,
                tx_barrier: 0,
                comp_acc: SimDuration::ZERO,
                comm_acc: SimDuration::ZERO,
                done: done.clone(),
            }) as Box<dyn HostProgram>
        })
        .collect();
    let mut cluster = ClusterBuilder::new(dims, node_cfg).build(programs);
    cluster.run();
    let ranks = done.borrow();
    finish(cfg, &g, part, &ranks)
}

/// Dry-run the distributed algorithm (perfect transport) to size the
/// exchange buffers: the largest per-(src,dst) candidate list of any
/// level.
fn max_message_pairs(g: &Csr, part: Partition, root: u32) -> u64 {
    let mut ranks: Vec<RankState> = (0..part.np)
        .map(|r| RankState::new(r, part, root))
        .collect();
    let mut level = 0i32;
    let mut max_pairs = 1u64;
    loop {
        let total: usize = ranks.iter().map(|r| r.frontier.len()).sum();
        if total == 0 {
            return max_pairs;
        }
        let exps: Vec<Expansion> = ranks.iter_mut().map(|r| r.expand(g, level + 1)).collect();
        for e in &exps {
            for pairs in &e.to_rank {
                max_pairs = max_pairs.max(pairs.len() as u64);
            }
        }
        for (dst, r) in ranks.iter_mut().enumerate() {
            for e in &exps {
                r.apply(&e.to_rank[dst], level + 1);
            }
        }
        level += 1;
        assert!(level < 1000);
    }
}

fn finish(_cfg: &BfsConfig, g: &Csr, part: Partition, ranks: &[RankDone]) -> BfsResult {
    let mut tree = BfsTree {
        level: vec![-1; g.n()],
        parent: vec![-1; g.n()],
    };
    for (r, d) in ranks.iter().enumerate() {
        assert!(!d.level.is_empty(), "rank {r} never finished");
        let (lo, hi) = part.range(r);
        for v in lo..hi {
            tree.level[v as usize] = d.level[v as usize];
            tree.parent[v as usize] = d.parent[v as usize];
        }
    }
    let wall = ranks
        .iter()
        .map(|d| d.wall_end)
        .fold(SimTime::ZERO, SimTime::max)
        .since(SimTime::ZERO);
    let m = seq::traversed_edges(g, &tree);
    BfsResult {
        teps: m as f64 / wall.as_secs_f64(),
        traversed_edges: m,
        wall,
        levels: ranks.iter().map(|d| d.levels).max().unwrap_or(0),
        breakdown: ranks.iter().map(|d| (d.comp, d.comm)).collect(),
        tree,
    }
}

/// Run the MPI/InfiniBand baseline analytically (Table IV right column):
/// ranks are packed `ib_gpus_per_node` per node; same-node pairs exchange
/// over the local PCIe (device-to-device copy) instead of the wire.
pub fn run_ib(cfg: &BfsConfig, ib: IbConfig) -> BfsResult {
    let n = 1usize << cfg.scale;
    let g = graph(cfg);
    let part = Partition { n, np: cfg.np };
    let cost = BfsCost {
        derate: BfsCost::cluster_ii().derate,
        ..cfg.cost.clone()
    };
    let mut states: Vec<RankState> = (0..cfg.np)
        .map(|r| RankState::new(r, part, cfg.root))
        .collect();
    let mut mpi = CudaAwareMpi::new(cfg.np.max(2), ib.clone());
    // Device-to-device rate for same-node pairs (cudaMemcpyPeer class).
    let d2d = apenet_sim::Bandwidth::from_mb_per_sec(5000);
    let d2d_overhead = SimDuration::from_us(12);
    let mut clocks = vec![SimTime::ZERO; cfg.np];
    let mut pairs_in_prev = vec![0u64; cfg.np];
    let mut comp = vec![SimDuration::ZERO; cfg.np];
    let mut comm = vec![SimDuration::ZERO; cfg.np];
    let mut level = 0i32;
    loop {
        let frontier_total: u64 = states.iter().map(|s| s.frontier.len() as u64).sum();
        let mut kernel_end = vec![SimTime::ZERO; cfg.np];
        let mut expansions: Vec<Expansion> = Vec::with_capacity(cfg.np);
        for (r, s) in states.iter_mut().enumerate() {
            let e = s.expand(&g, level + 1);
            let dur = cost.level_kernel(e.edges_scanned, pairs_in_prev[r]);
            comp[r] += dur;
            kernel_end[r] = clocks[r] + dur;
            expansions.push(e);
        }
        // Exchange.
        let mut arrive = kernel_end.clone();
        if cfg.np > 1 {
            for src in 0..cfg.np {
                for pos in 0..cfg.np - 1 {
                    let dst = if pos < src { pos } else { pos + 1 };
                    let bytes = 4 + 8 * expansions[src].to_rank[dst].len() as u64;
                    let same_node = src / cfg.ib_gpus_per_node == dst / cfg.ib_gpus_per_node;
                    let t = if same_node {
                        kernel_end[src] + d2d_overhead + d2d.time_for(bytes)
                    } else {
                        mpi.send_gg(kernel_end[src], src, dst, bytes).complete
                    };
                    arrive[dst] = arrive[dst].max(t);
                }
            }
        }
        for (src, e) in expansions.iter().enumerate() {
            for dstr in 0..cfg.np {
                if src != dstr {
                    pairs_in_prev[dstr] += e.to_rank[dstr].len() as u64;
                    states[dstr].apply(&e.to_rank[dstr], level + 1);
                }
            }
        }
        for r in 0..cfg.np {
            comm[r] += arrive[r].since(kernel_end[r]);
            clocks[r] = arrive[r];
            pairs_in_prev[r] = states[r].frontier.len() as u64; // approx: integration cost next level
        }
        if frontier_total == 0 {
            break;
        }
        level += 1;
        assert!(level < 1000);
    }
    let mut tree = BfsTree {
        level: vec![-1; n],
        parent: vec![-1; n],
    };
    for (r, s) in states.iter().enumerate() {
        let (lo, hi) = part.range(r);
        for v in lo..hi {
            tree.level[v as usize] = s.level[v as usize];
            tree.parent[v as usize] = s.parent[v as usize];
        }
    }
    let wall = clocks
        .iter()
        .fold(SimTime::ZERO, |a, &t| a.max(t))
        .since(SimTime::ZERO);
    let m = seq::traversed_edges(&g, &tree);
    BfsResult {
        teps: m as f64 / wall.as_secs_f64(),
        traversed_edges: m,
        wall,
        levels: level as u32 + 1,
        breakdown: comp.into_iter().zip(comm).collect(),
        tree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, MutexGuard};

    /// The cache is process-wide: its tests take turns.
    fn lock() -> MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        TURN.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn cfg(scale: u32, seed: u64) -> BfsConfig {
        BfsConfig {
            seed,
            ..BfsConfig::small(scale, 2)
        }
    }

    #[test]
    fn a_hit_returns_the_cached_graph() {
        let _turn = lock();
        let a = graph(&cfg(8, 1));
        let mut other_np = cfg(8, 1);
        other_np.np = 8;
        other_np.root = 3;
        assert!(
            Arc::ptr_eq(&a, &graph(&other_np)),
            "np and root are not in the key"
        );
        let edges = crate::bfs::rmat::generate_with(8, 16, 1, false);
        assert_eq!(
            a.undirected_edges(),
            Csr::build(256, &edges).undirected_edges()
        );
    }

    #[test]
    fn a_new_key_evicts_the_old_graph() {
        let _turn = lock();
        let old = graph(&cfg(8, 2));
        let weak = Arc::downgrade(&old);
        drop(old);
        let mut permuted = cfg(8, 2);
        permuted.permute = true;
        let new = graph(&permuted);
        assert!(weak.upgrade().is_none(), "the old graph is no longer held");
        assert!(
            !Arc::ptr_eq(&new, &graph(&cfg(8, 2))),
            "rebuilt after eviction"
        );
    }

    #[test]
    fn concurrent_callers_of_one_key_build_once() {
        let _turn = lock();
        graph(&cfg(6, 3)); // another key, so both callers miss
        let start = Barrier::new(2);
        let key = cfg(12, 3);
        let (a, b) = std::thread::scope(|s| {
            let get = || {
                start.wait();
                graph(&key)
            };
            let a = s.spawn(get);
            let b = s.spawn(get);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn warm_runs_equal_cold_runs() {
        let _turn = lock();
        type Summary = (BfsTree, u64, Vec<(SimDuration, SimDuration)>, u64, u32);
        let summary = |r: BfsResult| {
            (
                r.tree,
                r.teps.to_bits(),
                r.breakdown,
                r.traversed_edges,
                r.levels,
            )
        };
        let apenet = |c: &BfsConfig| summary(run_apenet(c));
        let ib = |c: &BfsConfig| summary(run_ib(c, IbConfig::cluster_ii()));
        for np in [1, 4] {
            let key = BfsConfig::small(10, np);
            for run in [&apenet as &dyn Fn(&BfsConfig) -> Summary, &ib] {
                graph(&cfg(6, 4)); // evict `key`
                let cold = run(&key);
                let warm = run(&key);
                assert_eq!(cold, warm, "np {np}");
            }
        }
    }
}

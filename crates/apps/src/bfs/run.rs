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
use crate::bfs::dist::{decode, encode, Expansion, Partition, RankState, Traversal};
use crate::bfs::seq::BfsTree;
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
    // The counts every level must reproduce (checked in debug builds).
    trav: Rc<Traversal>,
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
        let counts = &self.trav.levels[self.level as usize];
        debug_assert_eq!(
            (
                expansion.edges_scanned,
                expansion
                    .to_rank
                    .iter()
                    .map(|p| p.len() as u64)
                    .collect::<Vec<_>>()
            ),
            (
                counts.edges_scanned[self.rank],
                counts.pairs[self.rank].clone()
            ),
            "rank {} level {}: expansion differs from the traversal",
            self.rank,
            self.level
        );
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
        self.state.apply(&pairs, self.level + 1);
        debug_assert_eq!(
            self.state.frontier.len() as u64,
            self.trav.levels[self.level as usize].frontier[self.rank],
            "rank {} level {}: frontier differs from the traversal",
            self.rank,
            self.level
        );
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

fn graph_key(cfg: &BfsConfig) -> GraphKey {
    (cfg.scale, cfg.edgefactor, cfg.seed, cfg.permute)
}

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
    let key = graph_key(cfg);
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

/// What identifies a traversal: the graph, the rank count and the root.
type TraversalKey = (GraphKey, usize, u32);

thread_local! {
    /// This thread's traversal cache: the last traversal built, with its
    /// key.
    static TRAVERSAL: RefCell<Option<(TraversalKey, Rc<Traversal>)>> =
        const { RefCell::new(None) };
}

/// The traversal of `cfg`'s graph from `cfg.root` over `cfg.np` ranks.
///
/// A per-thread cache holds the last traversal built, so `run_apenet`
/// then `run_ib` of one configuration traverse once. Like the graph
/// cache it holds one entry, dropped before a new key is built. It is
/// per thread, not per process, because `table4` runs each rank count
/// on its own `sweep` worker: one shared entry would make the workers
/// wait on each other's builds and evict each other's traversals.
pub fn traversal(cfg: &BfsConfig) -> Rc<Traversal> {
    let key = (graph_key(cfg), cfg.np, cfg.root);
    let hit = TRAVERSAL.with_borrow(|slot| {
        slot.as_ref()
            .filter(|(k, _)| *k == key)
            .map(|(_, t)| t.clone())
    });
    if let Some(t) = hit {
        return t;
    }
    TRAVERSAL.with_borrow_mut(|slot| *slot = None);
    let g = graph(cfg);
    let part = Partition {
        n: g.n(),
        np: cfg.np,
    };
    let t = Rc::new(Traversal::build(&g, part, cfg.root));
    TRAVERSAL.with_borrow_mut(|slot| *slot = Some((key, t.clone())));
    t
}

/// Run the APEnet+ version (GPU peer-to-peer, Table IV left column).
pub fn run_apenet(cfg: &BfsConfig) -> BfsResult {
    run_apenet_on(cfg, cluster_i_default())
}

/// Run the APEnet+ version on a custom node configuration.
pub fn run_apenet_on(cfg: &BfsConfig, node_cfg: NodeConfig) -> BfsResult {
    let n = 1usize << cfg.scale;
    let g = graph(cfg);
    let trav = traversal(cfg);
    let part = Partition { n, np: cfg.np };
    let slot_bytes = 4 + 8 * trav.max_pairs();
    let done = Rc::new(RefCell::new(
        (0..cfg.np).map(|_| RankDone::default()).collect::<Vec<_>>(),
    ));
    let dims = dims_for(cfg.np);
    let programs: Vec<Box<dyn HostProgram>> = (0..cfg.np)
        .map(|rank| {
            Box::new(BfsRank {
                cfg: cfg.clone(),
                g: g.clone(),
                trav: trav.clone(),
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
    finish(&trav, part, &ranks)
}

fn finish(trav: &Traversal, part: Partition, ranks: &[RankDone]) -> BfsResult {
    let mut tree = BfsTree {
        level: vec![-1; part.n],
        parent: vec![-1; part.n],
    };
    for (r, d) in ranks.iter().enumerate() {
        assert!(d.levels > 0, "rank {r} never finished");
        let lo = part.range(r).0 as usize;
        tree.level[lo..lo + d.level.len()].copy_from_slice(&d.level);
        tree.parent[lo..lo + d.parent.len()].copy_from_slice(&d.parent);
    }
    debug_assert_eq!(
        tree.level.iter().map(|&l| l >= 0).collect::<Vec<_>>(),
        trav.tree.level.iter().map(|&l| l >= 0).collect::<Vec<_>>(),
        "the run reached other vertices than the traversal"
    );
    let wall = ranks
        .iter()
        .map(|d| d.wall_end)
        .fold(SimTime::ZERO, SimTime::max)
        .since(SimTime::ZERO);
    let levels = ranks.iter().map(|d| d.levels).max().unwrap_or(0);
    debug_assert_eq!(levels as usize, trav.levels.len());
    BfsResult {
        teps: trav.traversed_edges as f64 / wall.as_secs_f64(),
        traversed_edges: trav.traversed_edges,
        wall,
        levels,
        breakdown: ranks.iter().map(|d| (d.comp, d.comm)).collect(),
        tree,
    }
}

/// Run the MPI/InfiniBand baseline analytically (Table IV right column):
/// ranks are packed `ib_gpus_per_node` per node; same-node pairs exchange
/// over the local PCIe (device-to-device copy) instead of the wire. The
/// run replays the timing over the cached [`traversal`]'s counts and
/// reports its tree.
pub fn run_ib(cfg: &BfsConfig, ib: IbConfig) -> BfsResult {
    let np = cfg.np;
    let trav = traversal(cfg);
    let cost = BfsCost {
        derate: BfsCost::cluster_ii().derate,
        ..cfg.cost.clone()
    };
    let mut mpi = CudaAwareMpi::new(np.max(2), ib);
    // Device-to-device rate for same-node pairs (cudaMemcpyPeer class).
    let d2d = apenet_sim::Bandwidth::from_mb_per_sec(5000);
    let d2d_overhead = SimDuration::from_us(12);
    let mut clocks = vec![SimTime::ZERO; np];
    // Approx: a level's integration cost is charged on the frontier the
    // previous level's `apply` left.
    let mut pairs_in_prev = vec![0u64; np];
    let mut comp = vec![SimDuration::ZERO; np];
    let mut comm = vec![SimDuration::ZERO; np];
    for counts in &trav.levels {
        let kernel_end: Vec<SimTime> = (0..np)
            .map(|r| {
                let dur = cost.level_kernel(counts.edges_scanned[r], pairs_in_prev[r]);
                comp[r] += dur;
                clocks[r] + dur
            })
            .collect();
        // Exchange.
        let mut arrive = kernel_end.clone();
        for (src, &sent) in kernel_end.iter().enumerate() {
            for pos in 0..np - 1 {
                let dst = if pos < src { pos } else { pos + 1 };
                let bytes = 4 + 8 * counts.pairs[src][dst];
                let same_node = src / cfg.ib_gpus_per_node == dst / cfg.ib_gpus_per_node;
                let t = if same_node {
                    sent + d2d_overhead + d2d.time_for(bytes)
                } else {
                    mpi.send_gg(sent, src, dst, bytes).complete
                };
                arrive[dst] = arrive[dst].max(t);
            }
        }
        for ((c, &end), &at) in comm.iter_mut().zip(&kernel_end).zip(&arrive) {
            *c += at.since(end);
        }
        clocks = arrive;
        pairs_in_prev.clone_from(&counts.frontier);
    }
    let wall = clocks
        .iter()
        .fold(SimTime::ZERO, |a, &t| a.max(t))
        .since(SimTime::ZERO);
    BfsResult {
        teps: trav.traversed_edges as f64 / wall.as_secs_f64(),
        traversed_edges: trav.traversed_edges,
        wall,
        levels: trav.levels.len() as u32,
        breakdown: comp.into_iter().zip(comm).collect(),
        tree: trav.tree.clone(),
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
                traversal(&cfg(6, 4)); // evict `key`'s graph and traversal
                let cold = run(&key);
                let warm = run(&key);
                assert_eq!(cold, warm, "np {np}");
            }
        }
    }
}

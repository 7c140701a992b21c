//! The InfiniBand BFS baseline replayed over cached level counts equals
//! the level-synchronous loop it replaced.
//!
//! `run_ib` times each level from the cached `Traversal`'s counts: each
//! rank's scanned edges, each `(src, dst)` pair count and each rank's
//! frontier after `apply`. The oracle below is that loop run directly:
//! every rank expands its frontier, the exchange is timed from the real
//! candidate lists, and the candidates are applied in source-rank order.
//! Both must give the same tree, wall time, per-rank breakdown, TEPS,
//! level count and traversed edges, bit for bit.

use apenet::apps::bfs::dist::{Expansion, Partition, RankState};
use apenet::apps::bfs::seq::BfsTree;
use apenet::apps::bfs::{graph, run_apenet, run_ib, traversal, BfsConfig, BfsCost, BfsResult};
use apenet::ib::{CudaAwareMpi, IbConfig};
use apenet::sim::{Bandwidth, SimDuration, SimTime};

/// The baseline as a loop over real rank states.
fn oracle(cfg: &BfsConfig, ib: IbConfig) -> BfsResult {
    let g = graph(cfg);
    let n = g.n();
    let part = Partition { n, np: cfg.np };
    let cost = BfsCost {
        derate: BfsCost::cluster_ii().derate,
        ..cfg.cost.clone()
    };
    let mut states: Vec<RankState> = (0..cfg.np)
        .map(|r| RankState::new(r, part, cfg.root))
        .collect();
    let mut mpi = CudaAwareMpi::new(cfg.np.max(2), ib);
    let d2d = Bandwidth::from_mb_per_sec(5000);
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
            for (dst, s) in states.iter_mut().enumerate() {
                if src != dst {
                    s.apply(&e.to_rank[dst], level + 1);
                }
            }
        }
        for r in 0..cfg.np {
            comm[r] += arrive[r].since(kernel_end[r]);
            clocks[r] = arrive[r];
            pairs_in_prev[r] = states[r].frontier.len() as u64;
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
    for s in &states {
        for (i, (&l, &p)) in s.level.iter().zip(&s.parent).enumerate() {
            tree.level[s.lo as usize + i] = l;
            tree.parent[s.lo as usize + i] = p;
        }
    }
    let wall = clocks
        .iter()
        .fold(SimTime::ZERO, |a, &t| a.max(t))
        .since(SimTime::ZERO);
    let m = apenet::apps::bfs::seq::traversed_edges(&g, &tree);
    BfsResult {
        teps: m as f64 / wall.as_secs_f64(),
        traversed_edges: m,
        wall,
        levels: level as u32 + 1,
        breakdown: comp.into_iter().zip(comm).collect(),
        tree,
    }
}

type Summary = (BfsTree, u64, Vec<(SimDuration, SimDuration)>, u64, u32, u64);

/// Everything a result reports, floats as bits.
fn summary(r: BfsResult) -> Summary {
    (
        r.tree,
        r.wall.as_ps(),
        r.breakdown,
        r.teps.to_bits(),
        r.levels,
        r.traversed_edges,
    )
}

#[test]
fn replayed_ib_runs_equal_the_rank_state_loop() {
    let mut isolated_roots = 0;
    for scale in 8..=12 {
        for permute in [false, true] {
            let base = BfsConfig {
                permute,
                ..BfsConfig::small(scale, 1)
            };
            let g = graph(&base);
            let isolated = (0..g.n() as u32).find(|&v| g.degree(v) == 0);
            isolated_roots += usize::from(isolated.is_some());
            for np in [1, 2, 3, 4, 5, 8] {
                let part = Partition { n: g.n(), np };
                let (lo, hi) = part.range(np - 1);
                let last = (lo..hi).find(|&v| g.degree(v) > 0).expect("an edge");
                for root in [Some(1), Some(last), isolated].into_iter().flatten() {
                    for ib_gpus_per_node in [1, 2] {
                        let cfg = BfsConfig {
                            np,
                            root,
                            ib_gpus_per_node,
                            ..base.clone()
                        };
                        let ib = IbConfig::cluster_ii();
                        assert_eq!(
                            summary(run_ib(&cfg, ib.clone())),
                            summary(oracle(&cfg, ib)),
                            "scale {scale} permute {permute} np {np} root {root} \
                             gpus/node {ib_gpus_per_node}"
                        );
                    }
                }
            }
        }
    }
    assert!(isolated_roots > 0, "some graph has an isolated root");
}

#[test]
fn runs_after_a_traversal_eviction_equal_warm_runs() {
    let other = BfsConfig::small(8, 4);
    let configs = [
        BfsConfig {
            permute: true,
            ib_gpus_per_node: 2,
            ..BfsConfig::small(9, 2)
        },
        BfsConfig {
            root: 1000,
            ..BfsConfig::small(10, 8)
        },
    ];
    for cfg in &configs {
        traversal(&other);
        let cold = summary(run_apenet(cfg));
        assert_eq!(cold, summary(run_apenet(cfg)), "APEnet+ np {}", cfg.np);
        traversal(&other);
        let cold = summary(run_ib(cfg, IbConfig::cluster_ii()));
        assert_eq!(
            cold,
            summary(run_ib(cfg, IbConfig::cluster_ii())),
            "IB np {}",
            cfg.np
        );
    }
}

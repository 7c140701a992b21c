//! `bfs_strong`: the Table IV strong-scaling shape — one R-MAT graph per
//! round, traversed by the APEnet+ BFS (through the event simulator) and
//! the analytic InfiniBand baseline at 1, 2, 4 and 8 ranks. Each call
//! builds its graph itself, so app kernels dominate and the simulator
//! handles few events: simulator-side speed-ups should not move it.
//!
//! Round `r` of seed `S` uses R-MAT seed `499 + S + 1000·r`: the eight
//! ops of a round share a graph, as the eight runs of `table4` do, and
//! no two rounds do, so a graph cache can save what it saves `table4`
//! and no more.

use super::{Metric, Outcome, Workload};
use crate::stats::Fnv;
use apenet_apps::bfs::csr::Csr;
use apenet_apps::bfs::seq::{self, BfsTree};
use apenet_apps::bfs::{rmat, run_apenet, run_ib, BfsConfig, BfsResult};
use apenet_ib::IbConfig;
use std::time::Instant;

/// Graph scale (`2^SCALE` vertices, edgefactor 16).
pub const SCALE: u32 = 16;
/// Rank counts of the strong-scaling sweep.
pub const NPS: [usize; 4] = [1, 2, 4, 8];

/// One op: a BFS of the round's graph.
#[derive(Debug)]
pub struct Op {
    /// Run configuration (scale, rank count, graph seed).
    pub cfg: BfsConfig,
    /// The InfiniBand baseline instead of APEnet+.
    pub ib: bool,
}

/// The workload. Holds the current round's trees until they are
/// validated.
#[derive(Default)]
pub struct BfsStrong {
    trees: Vec<(BfsTree, u64)>,
}

/// The graph seed of round `round` for workload seed `seed`.
pub fn graph_seed(seed: u64, round: u32) -> u64 {
    499 + seed + 1000 * round as u64
}

/// The Table IV configuration at [`SCALE`] with graph seed `seed`.
fn config(np: usize, seed: u64) -> BfsConfig {
    BfsConfig {
        scale: SCALE,
        seed,
        ..BfsConfig::paper(np)
    }
}

fn run(op: &Op) -> BfsResult {
    if op.ib {
        run_ib(&op.cfg, IbConfig::cluster_ii())
    } else {
        run_apenet(&op.cfg)
    }
}

/// The graph `cfg` traverses, built the way the runs build it; returns
/// it with the R-MAT and CSR build times.
fn graph(cfg: &BfsConfig) -> (Csr, f64, f64) {
    let t = Instant::now();
    let edges = rmat::generate_with(cfg.scale, cfg.edgefactor, cfg.seed, cfg.permute);
    let rmat_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let g = Csr::build(1 << cfg.scale, &edges);
    (g, rmat_s, t.elapsed().as_secs_f64())
}

/// Digest one result, its tree included.
fn digest(r: &BfsResult) -> u64 {
    let mut h = Fnv::default();
    h.u64(r.traversed_edges)
        .u64(r.levels as u64)
        .u64(r.wall.as_ps())
        .f64(r.teps);
    for &(comp, comm) in &r.breakdown {
        h.u64(comp.as_ps()).u64(comm.as_ps());
    }
    for &l in &r.tree.level {
        h.bytes(&l.to_le_bytes());
    }
    for &p in &r.tree.parent {
        h.bytes(&p.to_le_bytes());
    }
    h.finish()
}

/// Validate every tree against the sequential BFS of `cfg`'s graph.
fn validate(cfg: &BfsConfig, trees: &[(BfsTree, u64)]) -> Result<(), String> {
    let (g, _, _) = graph(cfg);
    let reference = seq::bfs(&g, cfg.root);
    let edges = seq::traversed_edges(&g, &reference);
    for (i, (tree, traversed)) in trees.iter().enumerate() {
        seq::validate(&g, cfg.root, tree, &reference).map_err(|e| format!("tree {i}: {e}"))?;
        if *traversed != edges {
            return Err(format!(
                "tree {i}: {traversed} traversed edges, expected {edges}"
            ));
        }
    }
    Ok(())
}

impl Workload for BfsStrong {
    type Op = Op;

    fn ops(&self, seed: u64, round: u32) -> Vec<Op> {
        let gs = graph_seed(seed, round);
        NPS.iter()
            .flat_map(|&np| {
                [false, true].map(|ib| Op {
                    cfg: config(np, gs),
                    ib,
                })
            })
            .collect()
    }

    fn op_name(&self, op: &Op) -> String {
        format!("{}.np{}", if op.ib { "ib" } else { "apenet" }, op.cfg.np)
    }

    fn warm_up(&self) -> Outcome {
        let cfg = BfsConfig::small(14, 2);
        let r = run_apenet(&cfg);
        let error = validate(&cfg, &[(r.tree.clone(), r.traversed_edges)]).err();
        Outcome {
            digest: digest(&r),
            error,
        }
    }

    fn run(&mut self, op: &Op) -> Outcome {
        let r = run(op);
        let error =
            (r.levels == 0 || r.traversed_edges == 0).then(|| "empty traversal".to_string());
        let d = digest(&r);
        self.trees.push((r.tree, r.traversed_edges));
        Outcome { digest: d, error }
    }

    fn end_round(&mut self, seed: u64, round: u32) -> Result<(), String> {
        let trees = std::mem::take(&mut self.trees);
        validate(&config(1, graph_seed(seed, round)), &trees)
    }

    fn rounds_repeat(&self) -> bool {
        false
    }

    /// Times the app kernels once on round 0's graph (R-MAT, CSR build,
    /// sequential BFS), then round 0's ops again, split by back end.
    fn trace(&mut self, seed: u64) -> Vec<Metric> {
        let cfg = config(1, graph_seed(seed, 0));
        let (g, rmat_s, csr_s) = graph(&cfg);
        let t = Instant::now();
        let reference = seq::bfs(&g, cfg.root);
        let seq_s = t.elapsed().as_secs_f64();
        drop((g, reference));
        let (mut apenet_s, mut ib_s, mut levels, mut traversed) = (0.0, 0.0, 0, 0);
        for op in self.ops(seed, 0) {
            let t = Instant::now();
            let r = run(&op);
            let s = t.elapsed().as_secs_f64();
            if op.ib {
                ib_s += s;
            } else {
                apenet_s += s;
            }
            levels += r.levels as u64;
            traversed += r.traversed_edges;
        }
        vec![
            Metric::new("apps.rmat_s", rmat_s, "s"),
            Metric::new("apps.csr_s", csr_s, "s"),
            Metric::new("apps.bfs_seq_s", seq_s, "s"),
            Metric::new("apps.run_apenet_s", apenet_s, "s"),
            Metric::new("ib.run_ib_s", ib_s, "s"),
            Metric::new("apps.levels", levels as f64, "count"),
            Metric::new("apps.traversed_edges", traversed as f64, "count"),
        ]
    }
}

//! End-to-end BFS tests: traversal correctness through the simulated
//! fabric plus Table IV / Fig. 12 shape checks.
//!
//! The graph cache holds one graph, so the tests take turns. The
//! scale-20 checks run in sequence in one test, so each graph is built
//! once; the permuted graph comes last.

use apenet_apps::bfs::csr::Csr;
use apenet_apps::bfs::run::{run_apenet, run_ib};
use apenet_apps::bfs::{graph, seq, BfsConfig};
use apenet_ib::IbConfig;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The graph cache is process-wide: its tests take turns.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn reference(cfg: &BfsConfig) -> (Arc<Csr>, seq::BfsTree) {
    let g = graph(cfg);
    let t = seq::bfs(&g, cfg.root);
    (g, t)
}

#[test]
fn distributed_traversal_is_correct() {
    let _turn = turn();
    for np in [1usize, 2, 4, 8] {
        let cfg = BfsConfig::small(10, np);
        let r = run_apenet(&cfg);
        let (g, reference) = reference(&cfg);
        seq::validate(&g, cfg.root, &r.tree, &reference).unwrap_or_else(|e| panic!("np={np}: {e}"));
        assert!(r.traversed_edges > 1000);
    }
}

#[test]
fn permuted_graph_traversal_is_correct() {
    let _turn = turn();
    let mut cfg = BfsConfig::small(10, 4);
    cfg.permute = true;
    let r = run_apenet(&cfg);
    let (g, reference) = reference(&cfg);
    seq::validate(&g, cfg.root, &r.tree, &reference).unwrap();
}

#[test]
fn ib_traversal_is_correct_too() {
    let _turn = turn();
    let cfg = BfsConfig::small(10, 4);
    let r = run_ib(&cfg, IbConfig::cluster_ii());
    let (g, reference) = reference(&cfg);
    seq::validate(&g, cfg.root, &r.tree, &reference).unwrap();
}

#[test]
fn paper_scale_table4_fig12_and_ablation() {
    let _turn = turn();
    table4_single_gpu_teps();
    table4_scaling_and_crossover();
    fig12_comm_breakdown_favors_apenet();
    ablation_relabelling_restores_scaling();
}

fn table4_single_gpu_teps() {
    let r = run_apenet(&BfsConfig::paper(1));
    assert!(
        (5.8e7..7.6e7).contains(&r.teps),
        "NP=1 TEPS {:.2e} (paper 6.7e7)",
        r.teps
    );
    let i = run_ib(&BfsConfig::paper(1), IbConfig::cluster_ii());
    assert!(
        (5.4e7..7.0e7).contains(&i.teps),
        "IB NP=1 TEPS {:.2e} (paper 6.2e7)",
        i.teps
    );
    assert!(r.teps > i.teps, "C2050 beats the S2075 module");
}

fn table4_scaling_and_crossover() {
    // Table IV: APEnet 6.7/9.8/13/17 e7, IB 6.2/7.8/8.2/20 e7:
    // "APEnet+ performs better than InfiniBand up to four nodes/GPUs".
    let a1 = run_apenet(&BfsConfig::paper(1)).teps;
    let a2 = run_apenet(&BfsConfig::paper(2)).teps;
    let i2 = run_ib(&BfsConfig::paper(2), IbConfig::cluster_ii()).teps;
    let a8 = run_apenet(&BfsConfig::paper(8)).teps;
    let i8 = run_ib(&BfsConfig::paper(8), IbConfig::cluster_ii()).teps;
    let a4 = run_apenet(&BfsConfig::paper(4)).teps;
    let i4 = run_ib(&BfsConfig::paper(4), IbConfig::cluster_ii()).teps;
    assert!(a2 > i2, "APEnet wins at 2 ({a2:.2e} vs {i2:.2e})");
    assert!(a4 > i4, "APEnet wins at 4 ({a4:.2e} vs {i4:.2e})");
    // Strong-scaling gains near the paper's (1.46x at 2, 1.94x at 4,
    // 2.54x at 8 — sub-linear because the hub-heavy partition imbalances
    // every level).
    let (s2, s4, s8) = (a2 / a1, a4 / a1, a8 / a1);
    assert!((1.15..1.65).contains(&s2), "NP=2 speedup {s2} (paper 1.46)");
    assert!((1.45..2.15).contains(&s4), "NP=4 speedup {s4} (paper 1.94)");
    assert!((1.9..2.9).contains(&s8), "NP=8 speedup {s8} (paper 2.54)");
    // At 8 the torus all-to-all erodes the APEnet advantage; IB draws
    // level (the paper even saw it ahead).
    assert!(i8 > a8 * 0.85, "IB catches up at 8 ({i8:.2e} vs {a8:.2e})");
    assert!(i8 / i4 > 1.2, "IB keeps scaling 4->8");
}

fn fig12_comm_breakdown_favors_apenet() {
    // Fig. 12, four tasks: communication lower on APEnet+ (the paper
    // measured 50% on its hardware; waiting on the slow rank dominates
    // both transports in the model, so the margin is thinner here).
    let ape = run_apenet(&BfsConfig::paper(4));
    let ib = run_ib(&BfsConfig::paper(4), IbConfig::cluster_ii());
    let ape_comm: f64 = ape.breakdown.iter().map(|(_, c)| c.as_secs_f64()).sum();
    let ib_comm: f64 = ib.breakdown.iter().map(|(_, c)| c.as_secs_f64()).sum();
    assert!(
        ape_comm < ib_comm,
        "APEnet comm {ape_comm:.4}s vs IB {ib_comm:.4}s"
    );
    // Computation splits are nearly identical (same kernels, §V.E).
    let ape_comp: f64 = ape.breakdown.iter().map(|(c, _)| c.as_secs_f64()).sum();
    let ib_comp: f64 = ib.breakdown.iter().map(|(c, _)| c.as_secs_f64()).sum();
    assert!((ib_comp - ape_comp).abs() / ape_comp < 0.15);
}

fn ablation_relabelling_restores_scaling() {
    // With the graph500 permutation the per-level load balances and the
    // strong scaling sharpens — evidence that the paper's sub-linear
    // Table IV is an artifact of the hub-heavy contiguous partition.
    let raw = run_apenet(&BfsConfig::paper(4)).teps;
    let mut cfg = BfsConfig::paper(4);
    cfg.permute = true;
    let permuted = run_apenet(&cfg).teps;
    assert!(
        permuted > raw * 1.3,
        "permuted {permuted:.2e} vs raw {raw:.2e}"
    );
}

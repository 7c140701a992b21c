//! Distributed BFS on an R-MAT graph (the §V.E application): real
//! traversal over the simulated interconnect, validated against a
//! sequential reference, reported in TEPS.
//!
//! Usage: `cargo run --release --example bfs_traversal -- [scale] [np]`
//! (defaults: scale 14, 4 ranks).

use apenet::apps::bfs::run::run_apenet;
use apenet::apps::bfs::{graph, seq, BfsConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: u32 = args.get(1).map_or(14, |s| s.parse().expect("scale"));
    let np: usize = args.get(2).map_or(4, |s| s.parse().expect("np"));
    let cfg = BfsConfig::small(scale, np);
    println!(
        "# BFS over APEnet+: |V| = 2^{scale}, edgefactor {}, {np} GPUs",
        cfg.edgefactor
    );
    let r = run_apenet(&cfg);
    println!(
        "traversed {} edges in {} over {} levels -> {:.3e} TEPS",
        r.traversed_edges, r.wall, r.levels, r.teps
    );
    for (rank, (comp, comm)) in r.breakdown.iter().enumerate() {
        println!("  rank {rank}: compute {comp}, comm+wait {comm}");
    }
    // Validate against the sequential reference, on the graph the run
    // traversed.
    let g = graph(&cfg);
    let reference = seq::bfs(&g, cfg.root);
    seq::validate(&g, cfg.root, &r.tree, &reference).expect("distributed tree valid");
    println!("BFS tree validated against the sequential reference ✓");
}

//! Fig. 6 — two-node uni-directional bandwidth for every combination of
//! source and destination buffer type.

use crate::{count_for, emit, sizes_32b_4mb, sweep};
use apenet_cluster::harness::{two_node_bandwidth, BufSide, BwResult, TwoNodeParams};
use apenet_cluster::presets::cluster_i_default;
use apenet_cluster::NodeConfig;
use apenet_sim::stats::{render_table, Series};

/// Regenerate this experiment.
pub fn run() {
    render(two_node_bandwidth);
}

/// Regenerate the figure, measuring each point with `two_node`, a
/// [`two_node_bandwidth`]-shaped call.
pub fn render(two_node: impl Fn(NodeConfig, TwoNodeParams) -> BwResult + Sync) {
    let combos = [
        ("H-H", BufSide::Host, BufSide::Host),
        ("H-G", BufSide::Host, BufSide::Gpu),
        ("G-H", BufSide::Gpu, BufSide::Host),
        ("G-G", BufSide::Gpu, BufSide::Gpu),
    ];
    let sizes = sizes_32b_4mb();
    let points: Vec<(BufSide, BufSide, u64)> = combos
        .iter()
        .flat_map(|&(_, src, dst)| sizes.iter().map(move |&size| (src, dst, size)))
        .collect();
    let values = sweep::map(&points, |&(src, dst, size)| {
        let r = two_node(
            cluster_i_default(),
            TwoNodeParams {
                src,
                dst,
                size,
                count: count_for(size),
                staged: false,
            },
        );
        r.bandwidth.mb_per_sec_f64()
    });
    let mut series = Vec::new();
    let mut it = values.into_iter();
    for (label, _, _) in combos {
        let mut s = Series::new(label);
        for (&size, v) in sizes.iter().zip(it.by_ref()) {
            s.push(size as f64, v);
        }
        series.push(s);
    }
    let mut out = String::from(
        "# Fig. 6 — two-node uni-directional bandwidth (paper: H-H plateaus at 1.2 GB/s,\n\
         # GPU destinations pay ~10%, GPU sources are less steep and plateau beyond 32 KB;\n\
         # at 8 KB the G-G bandwidth is about half of H-H)\n",
    );
    out.push_str(&render_table(&series, "msg bytes", "MB/s"));
    emit("fig06", &out);
}

//! Fig. 4 — single-node GPU memory reading bandwidth vs message size,
//! with TX injection FIFOs flushed; one curve per GPU_P2P_TX generation
//! and prefetch window.

use crate::{count_for, emit, sizes_4kb_4mb, sweep};
use apenet_cluster::harness::{flush_read_bandwidth, BufSide, BwResult};
use apenet_cluster::presets::plx_node;
use apenet_cluster::NodeConfig;
use apenet_core::config::GpuTxVersion;
use apenet_gpu::GpuArch;
use apenet_sim::stats::{render_table, Series};

/// The figure's seven curves.
pub fn fig04_curves() -> Vec<(String, GpuTxVersion, u64)> {
    vec![
        ("v1".into(), GpuTxVersion::V1, 4 * 1024),
        ("v2 window=4KB".into(), GpuTxVersion::V2, 4 * 1024),
        ("v2 window=8KB".into(), GpuTxVersion::V2, 8 * 1024),
        ("v2 window=16KB".into(), GpuTxVersion::V2, 16 * 1024),
        ("v2 window=32KB".into(), GpuTxVersion::V2, 32 * 1024),
        ("v3 window=64KB".into(), GpuTxVersion::V3, 64 * 1024),
        ("v3 window=128KB".into(), GpuTxVersion::V3, 128 * 1024),
    ]
}

/// Regenerate this experiment.
pub fn run() {
    render(flush_read_bandwidth);
}

/// Regenerate the figure, measuring each point with `flush_read`, a
/// [`flush_read_bandwidth`]-shaped call.
pub fn render(flush_read: impl Fn(NodeConfig, BufSide, u64, u32) -> BwResult + Sync) {
    let sizes = sizes_4kb_4mb();
    let curves = fig04_curves();
    let points: Vec<(GpuTxVersion, u64, u64)> = curves
        .iter()
        .flat_map(|&(_, version, window)| sizes.iter().map(move |&size| (version, window, size)))
        .collect();
    let values = sweep::map(&points, |&(version, window, size)| {
        let cfg = plx_node(GpuArch::Fermi2050, version, window);
        let r = flush_read(cfg, BufSide::Gpu, size, count_for(size));
        r.bandwidth.mb_per_sec_f64()
    });
    let mut series = Vec::new();
    let mut it = values.into_iter();
    for (label, _, _) in curves {
        let mut s = Series::new(label);
        for (&size, v) in sizes.iter().zip(it.by_ref()) {
            s.push(size as f64, v);
        }
        series.push(s);
    }
    let mut out = String::from(
        "# Fig. 4 — GPU read bandwidth, flushed TX (paper: v1 ~600 MB/s; v2 +20% per window\n\
         # doubling, ~1.5 GB/s at 32 KB; v3 at the 1536 MB/s architectural cap)\n",
    );
    out.push_str(&render_table(&series, "msg bytes", "MB/s"));
    emit("fig04", &out);
}

//! Table I — APEnet+ low-level bandwidths, single-board loop-back tests.

use crate::{cmp_header, cmp_row, emit, sweep};
use apenet_cluster::harness::{flush_read_bandwidth, loopback_bandwidth, BufSide, BwResult};
use apenet_cluster::presets::{cluster_i_default, plx_node, plx_node_bar1};
use apenet_cluster::NodeConfig;
use apenet_core::config::GpuTxVersion;
use apenet_gpu::GpuArch;

/// One measurement job: row label, the paper's value, the model runner.
type Job<'a> = (&'static str, f64, Box<dyn Fn() -> f64 + Sync + 'a>);

/// Regenerate this experiment.
pub fn run() {
    render(flush_read_bandwidth, loopback_bandwidth);
}

/// Regenerate the table, measuring the memory-read rows with
/// `flush_read` ([`flush_read_bandwidth`]-shaped) and the loop-back rows
/// with `loopback` ([`loopback_bandwidth`]-shaped).
pub fn render(
    flush_read: impl Fn(NodeConfig, BufSide, u64, u32) -> BwResult + Sync,
    loopback: impl Fn(NodeConfig, BufSide, BufSide, u64, u32) -> BwResult + Sync,
) {
    let (flush_read, loopback) = (&flush_read, &loopback);
    let mb = 1u64 << 20;
    let jobs: Vec<Job> = vec![
        (
            "Host mem read",
            2400.0,
            Box::new(move || {
                flush_read(cluster_i_default(), BufSide::Host, mb, 16)
                    .bandwidth
                    .mb_per_sec_f64()
            }),
        ),
        (
            "GPU mem read (Fermi / P2P)",
            1500.0,
            Box::new(move || {
                flush_read(
                    plx_node(GpuArch::Fermi2050, GpuTxVersion::V3, 128 * 1024),
                    BufSide::Gpu,
                    mb,
                    16,
                )
                .bandwidth
                .mb_per_sec_f64()
            }),
        ),
        (
            "GPU mem read (Fermi / BAR1)",
            150.0,
            Box::new(move || {
                flush_read(
                    plx_node_bar1(GpuArch::Fermi2050, 128 * 1024),
                    BufSide::Gpu,
                    mb,
                    8,
                )
                .bandwidth
                .mb_per_sec_f64()
            }),
        ),
        (
            "GPU mem read (Kepler / P2P)",
            1600.0,
            Box::new(move || {
                flush_read(
                    plx_node(GpuArch::KeplerK20, GpuTxVersion::V3, 128 * 1024),
                    BufSide::Gpu,
                    mb,
                    16,
                )
                .bandwidth
                .mb_per_sec_f64()
            }),
        ),
        (
            "GPU mem read (Kepler / BAR1)",
            1600.0,
            Box::new(move || {
                flush_read(
                    plx_node_bar1(GpuArch::KeplerK20, 128 * 1024),
                    BufSide::Gpu,
                    mb,
                    8,
                )
                .bandwidth
                .mb_per_sec_f64()
            }),
        ),
        (
            "GPU-to-GPU loop-back",
            1100.0,
            Box::new(move || {
                loopback(cluster_i_default(), BufSide::Gpu, BufSide::Gpu, mb, 16)
                    .bandwidth
                    .mb_per_sec_f64()
            }),
        ),
        (
            "Host-to-Host loop-back",
            1200.0,
            Box::new(move || {
                loopback(cluster_i_default(), BufSide::Host, BufSide::Host, mb, 16)
                    .bandwidth
                    .mb_per_sec_f64()
            }),
        ),
    ];
    let values = sweep::map(&jobs, |(_, _, job)| job());
    let mut out = cmp_header("Table I — APEnet+ low-level bandwidths (MB/s)");
    for ((label, paper, _), model) in jobs.iter().zip(values) {
        out.push_str(&cmp_row(label, *paper, model, "MB/s"));
        out.push('\n');
    }
    emit("table1", &out);
}

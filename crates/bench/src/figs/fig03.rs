//! Fig. 3 — "Sketch of the PCIe timings related to peer-to-peer
//! transactions": repeated transmission of a 4 MB GPU buffer through the
//! v2 engine with a 32 KB prefetch window, captured by a bus-analyzer
//! interposer on the card's slot.

use crate::{cmp_header, cmp_row, emit};
use apenet_cluster::harness::{flush_read_with, BufSide};
use apenet_cluster::presets::plx_node;
use apenet_cluster::Planes;
use apenet_core::config::GpuTxVersion;
use apenet_gpu::GpuArch;
use apenet_pcie::analyzer::{render_trace, summarize_p2p_read};
use apenet_sim::trace::SharedSink;
use std::fmt::Write;

/// Regenerate this experiment.
pub fn run() {
    let cfg = plx_node(GpuArch::Fermi2050, GpuTxVersion::V2, 32 * 1024);
    let planes = Planes {
        pcie: Some(SharedSink::capturing()),
        ..Planes::off()
    };
    let (bw, artifacts) = flush_read_with(cfg, BufSide::Gpu, 4 << 20, 2, planes);
    let records = artifacts.pcie;
    // The analyzer trigger of Fig. 3 is the moment the PUT reaches the
    // card (transaction "1").
    let summary = summarize_p2p_read(&records, bw.first_submit).expect("read traffic captured");
    let mut out = cmp_header("Fig. 3 — PCIe bus-analyzer timings (v2, 32 KB window, 4 MB GPU TX)");
    out.push_str(&cmp_row(
        "GPU_P2P_TX setup (PUT -> first MRd)",
        3.0,
        summary.setup.as_us_f64(),
        "us",
    ));
    out.push('\n');
    out.push_str(&cmp_row(
        "GPU head read latency (MRd -> CplD)",
        1.8,
        summary.head_latency.as_us_f64(),
        "us",
    ));
    out.push('\n');
    out.push_str(&cmp_row(
        "sustained completion throughput",
        1536.0,
        summary.throughput.mb_per_sec_f64(),
        "MB/s",
    ));
    out.push('\n');
    out.push_str(&cmp_row(
        "time per 1 MB of completions",
        663.0,
        1e6 / summary.throughput.mb_per_sec_f64() * 1.048_576,
        "us",
    ));
    out.push('\n');
    let _ = writeln!(
        out,
        "\nread requests: {} ({} mean cadence; the model issues one fabric read\n\
         transaction per prefetch window — the real card emitted one 256 B request\n\
         every 80 ns inside each window)",
        summary.read_requests, summary.request_cadence
    );
    let _ = writeln!(out, "\nfirst analyzer records:");
    out.push_str(&render_trace(&records, 12));
    emit("fig03", &out);
}

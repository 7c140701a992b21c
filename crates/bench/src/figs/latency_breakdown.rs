//! Per-stage latency decomposition from span-correlated traces — the
//! Fig. 3 / Fig. 4-style break-down the paper obtained from the PCIe
//! bus analyzer and the Nios II cycle counters, regenerated here from
//! the observability plane instead of ad-hoc instrumentation.
//!
//! Two sections:
//!
//! * **GPU read path** (the Fig. 3/4 setup: PLX node, v2 engine, 32 KB
//!   window, TX FIFO flushed) — setup, head latency and stream duration
//!   per message size from the virtual bus-analyzer capture, with the
//!   bandwidth column matching Fig. 4's "v2 window=32KB" curve exactly;
//! * **two-node G-G path** (Cluster I) — tx-pipeline / link / rx phase
//!   partition per message size, projected from each complete message's
//!   latency ledger ([`MsgLedger::phases`]: post, first frame-tx, last
//!   frame-rx, delivered); the three phases sum to the total by
//!   construction.

use crate::{count_for, emit, sizes_4kb_4mb, sweep};
use apenet_cluster::harness::{flush_read_with, two_node_with, BufSide, TwoNodeParams};
use apenet_cluster::presets::{cluster_i_default, plx_node};
use apenet_cluster::Planes;
use apenet_core::config::GpuTxVersion;
use apenet_gpu::GpuArch;
use apenet_obs::latency::{collect_ledgers, MsgLedger};
use apenet_pcie::analyzer::summarize_p2p_read;
use apenet_sim::trace::SharedSink;
use std::fmt::Write;

/// One row of the GPU-read section.
#[derive(Debug, Clone, Copy)]
pub struct ReadStageRow {
    /// Message size in bytes.
    pub size: u64,
    /// PUT posted → first fabric read request, µs.
    pub setup_us: f64,
    /// First read request → first completion data, µs.
    pub head_us: f64,
    /// Completion stream duration, µs.
    pub stream_us: f64,
    /// Steady bandwidth — identical to Fig. 4's "v2 window=32KB" value.
    pub mb_per_sec: f64,
}

/// The GPU-read per-stage rows (Fig. 3/4 configuration) for `sizes`.
pub fn read_stages(sizes: &[u64]) -> Vec<ReadStageRow> {
    sweep::map(sizes, |&size| {
        let cfg = plx_node(GpuArch::Fermi2050, GpuTxVersion::V2, 32 * 1024);
        let planes = Planes {
            pcie: Some(SharedSink::capturing()),
            ..Planes::off()
        };
        let (bw, artifacts) = flush_read_with(cfg, BufSide::Gpu, size, count_for(size), planes);
        let s =
            summarize_p2p_read(&artifacts.pcie, bw.first_submit).expect("read traffic captured");
        ReadStageRow {
            size,
            setup_us: s.setup.as_us_f64(),
            head_us: s.head_latency.as_us_f64(),
            stream_us: s.stream.as_us_f64(),
            mb_per_sec: bw.bandwidth.mb_per_sec_f64(),
        }
    })
}

/// One row of the two-node G-G section: mean per-message phase lengths.
#[derive(Debug, Clone, Copy)]
pub struct GgStageRow {
    /// Message size in bytes.
    pub size: u64,
    /// Post accepted → first frame on the wire, µs.
    pub tx_pipeline_us: f64,
    /// First frame TX → last in-order frame RX, µs.
    pub link_us: f64,
    /// Last frame RX → delivery notification, µs.
    pub rx_us: f64,
    /// Post → delivery, µs (= tx_pipeline + link + rx exactly).
    pub total_us: f64,
    /// Mean torus frames per message (retransmits included; 0 expected).
    pub frames_per_msg: f64,
}

/// The two-node G-G per-stage rows (Cluster I) for `sizes`.
pub fn gg_stages(sizes: &[u64]) -> Vec<GgStageRow> {
    sweep::map(sizes, |&size| {
        let (_bw, artifacts) = two_node_with(
            cluster_i_default(),
            TwoNodeParams {
                src: BufSide::Gpu,
                dst: BufSide::Gpu,
                size,
                count: count_for(size),
                staged: false,
            },
            Planes {
                trace: Some(SharedSink::capturing()),
                ..Planes::off()
            },
        );
        let msgs: Vec<MsgLedger> = collect_ledgers(&artifacts.trace)
            .into_iter()
            .filter(|l| l.complete)
            .collect();
        assert!(!msgs.is_empty(), "no delivered spans at size {size}");
        let n = msgs.len() as f64;
        let mean_us = |a: usize, b: usize| {
            let gaps = msgs.iter().map(|l| l.phases()).map(|p| p[b].since(p[a]));
            gaps.map(|d| d.as_us_f64()).sum::<f64>() / n
        };
        GgStageRow {
            size,
            tx_pipeline_us: mean_us(0, 1),
            link_us: mean_us(1, 2),
            rx_us: mean_us(2, 3),
            total_us: mean_us(0, 3),
            frames_per_msg: msgs.iter().map(|l| l.frames as f64).sum::<f64>() / n,
        }
    })
}

/// Regenerate this experiment.
pub fn run() {
    let sizes = sizes_4kb_4mb();
    let mut out = String::from(
        "# Latency break-down from span traces (paper: Fig. 3 annotations and the\n\
         # per-stage decomposition behind Fig. 4/Table 1; stages are measured by the\n\
         # observability plane, not ad-hoc counters)\n\n\
         ## GPU read path — PLX node, v2, 32 KB window, TX flushed\n",
    );
    let _ = writeln!(
        out,
        "{:>9} {:>10} {:>10} {:>12} {:>10}",
        "msg bytes", "setup us", "head us", "stream us", "MB/s"
    );
    for r in read_stages(&sizes) {
        let _ = writeln!(
            out,
            "{:>9} {:>10.3} {:>10.3} {:>12.3} {:>10.1}",
            r.size, r.setup_us, r.head_us, r.stream_us, r.mb_per_sec
        );
    }
    out.push_str("\n## Two-node G-G path — Cluster I, mean per message\n");
    let _ = writeln!(
        out,
        "{:>9} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "msg bytes", "tx-pipe us", "link us", "rx us", "total us", "frames"
    );
    for r in gg_stages(&sizes) {
        let _ = writeln!(
            out,
            "{:>9} {:>12.3} {:>10.3} {:>10.3} {:>10.3} {:>10.1}",
            r.size, r.tx_pipeline_us, r.link_us, r.rx_us, r.total_us, r.frames_per_msg
        );
    }
    emit("latency_breakdown", &out);
}

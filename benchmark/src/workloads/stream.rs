//! `p2p_stream`: the paper's headline comparison (Figs. 6/7), GPU to GPU
//! over two nodes, peer-to-peer against host staging, across message
//! sizes. No random inputs: the seed changes nothing.

use super::{Metric, Outcome, Workload};
use crate::stats::Fnv;
use apenet_cluster::harness::{
    two_node_bandwidth, two_node_profiled, BufSide, BwResult, TwoNodeParams,
};
use apenet_cluster::presets::cluster_i_default;
use std::time::Instant;

/// Message sizes of the cost curve, with their metric labels.
pub const SIZES: [(u64, &str); 6] = [
    (4 << 10, "4k"),
    (16 << 10, "16k"),
    (64 << 10, "64k"),
    (256 << 10, "256k"),
    (1 << 20, "1m"),
    (4 << 20, "4m"),
];

/// Bytes streamed per op (`count = POINT_BYTES / size`).
pub const POINT_BYTES: u64 = 32 << 20;

/// The workload.
pub struct P2pStream;

fn params(size: u64, count: u32, staged: bool) -> TwoNodeParams {
    TwoNodeParams {
        src: BufSide::Gpu,
        dst: BufSide::Gpu,
        size,
        count,
        staged,
    }
}

fn mode(staged: bool) -> &'static str {
    if staged {
        "staged"
    } else {
        "p2p"
    }
}

fn label(size: u64) -> &'static str {
    SIZES
        .iter()
        .find(|&&(s, _)| s == size)
        .map_or("other", |&(_, l)| l)
}

/// Digest and check one stream result.
fn outcome(bw: &BwResult) -> Outcome {
    let digest = Fnv::default()
        .u64(bw.bandwidth.bytes_per_sec())
        .u64(bw.submit_interval.as_ps())
        .u64(bw.first_completion.as_ps())
        .u64(bw.first_submit.as_ps())
        .finish();
    let error = if bw.bandwidth.bytes_per_sec() == 0 {
        Some("zero bandwidth".to_string())
    } else if bw.first_completion <= bw.first_submit {
        Some("first completion not after first submit".to_string())
    } else {
        None
    };
    Outcome { digest, error }
}

impl Workload for P2pStream {
    type Op = TwoNodeParams;

    fn ops(&self, _seed: u64, _round: u32) -> Vec<TwoNodeParams> {
        SIZES
            .iter()
            .flat_map(|&(size, _)| {
                let count = (POINT_BYTES / size) as u32;
                [params(size, count, false), params(size, count, true)]
            })
            .collect()
    }

    fn op_name(&self, op: &TwoNodeParams) -> String {
        format!("{}.{}", label(op.size), mode(op.staged))
    }

    /// 64 KiB × 256 once per mode, so both paths start warm.
    fn warm_up(&self) -> Outcome {
        let [p2p, staged] = [false, true].map(|staged| {
            outcome(&two_node_bandwidth(
                cluster_i_default(),
                params(64 << 10, 256, staged),
            ))
        });
        let digest = Fnv::default().u64(p2p.digest).u64(staged.digest).finish();
        Outcome {
            digest,
            error: p2p.error.or(staged.error),
        }
    }

    fn run(&mut self, op: &TwoNodeParams) -> Outcome {
        outcome(&two_node_bandwidth(cluster_i_default(), *op))
    }

    /// The same ops through `two_node_profiled`: the profiler's
    /// per-(component, kind) wall time inside `on_event` splits each call
    /// into card stages and host programs; what is left of the call's wall
    /// time (event dispatch, cluster build, measurement) is
    /// `sim.dispatch_s`. The buckets plus `sim.dispatch_s` sum to the
    /// harness wall time exactly.
    fn trace(&mut self, seed: u64) -> Vec<Metric> {
        // Card event kinds of the data path and their metrics; every other
        // card kind (ack, nak, timeout, keepalive, state) is link control.
        const STAGES: [(&str, &str); 6] = [
            ("fetch", "core.fetch_s"),
            ("push", "core.push_s"),
            ("drain", "core.drain_s"),
            ("tx-submit", "core.tx_submit_s"),
            ("link-data", "core.link_data_s"),
            ("", "core.link_ctrl_s"),
        ];
        let mut card = [0.0; STAGES.len()];
        let mut host = [0.0; 2];
        let (mut wall, mut dispatch) = (0.0, 0.0);
        let mut curve = Vec::new();
        for op in self.ops(seed, 0) {
            let t = Instant::now();
            let (_, prof) = two_node_profiled(cluster_i_default(), op);
            let call = t.elapsed().as_secs_f64();
            let mut inside = 0.0;
            for row in &prof.rows {
                let s = row.bucket.wall_ns as f64 * 1e-9;
                inside += s;
                if row.component == "host" {
                    host[op.staged as usize] += s;
                } else {
                    let i = STAGES[..5].iter().position(|&(k, _)| k == row.kind);
                    card[i.unwrap_or(5)] += s;
                }
            }
            dispatch += call - inside;
            wall += call;
            let kib = (op.size * op.count as u64) as f64 / 1024.0;
            curve.push(Metric::new(
                format!("core.host_ns_per_kib.{}", self.op_name(&op)),
                call * 1e9 / kib,
                "ns/KiB",
            ));
        }
        let mut out = vec![
            Metric::new("cluster.harness_s", wall, "s"),
            Metric::new("sim.dispatch_s", dispatch, "s"),
        ];
        out.extend(
            STAGES
                .iter()
                .zip(card)
                .map(|(&(_, n), v)| Metric::new(n, v, "s")),
        );
        out.push(Metric::new("cluster.host_s.p2p", host[0], "s"));
        out.push(Metric::new("cluster.host_s.staged", host[1], "s"));
        out.extend(curve);
        out
    }
}

//! `chaos_ring`: every rank of the 4×2 torus streams GPU-to-GPU PUTs to
//! its ring successor while seeded faults corrupt, drop and stall link
//! frames. Multi-hop traffic, go-back-N replays, NAKs and timers, with
//! watchdog re-issue armed; fault injection rewrites payloads through
//! the copy-on-write path. Seeded: op `i` uses fault seed `16·S + i`.

use super::{Metric, Outcome, Workload};
use crate::stats::Fnv;
use apenet_cluster::harness::{chaos_run, ChaosParams, ChaosReport};
use apenet_cluster::presets::{cluster_i_chaos, cluster_i_dims};
use apenet_sim::fault::FaultSpec;

/// Ops per round, one fault seed each.
pub const OPS: u64 = 10;
/// Messages each rank sends per op.
pub const MSGS_PER_RANK: u32 = 64;
/// Message length.
pub const MSG_LEN: u64 = 64 << 10;
/// Per-frame corrupt, drop and stall rate.
pub const FAULT_RATE: f64 = 0.01;

/// The workload.
pub struct ChaosRing;

fn run_seeded(seed: u64, msgs_per_rank: u32) -> ChaosReport {
    chaos_run(
        cluster_i_dims(),
        cluster_i_chaos(seed, FaultSpec::chaos(FAULT_RATE)),
        ChaosParams {
            msgs_per_rank,
            msg_len: MSG_LEN,
            watchdog_reissue: true,
        },
    )
}

/// Digest and check one chaos report.
fn outcome(r: &ChaosReport) -> Outcome {
    let mut h = Fnv::default();
    for v in [
        r.expected,
        r.delivered,
        r.duplicates,
        r.payload_ok as u64,
        r.quiesced as u64,
        r.watchdog_fired,
        r.watchdog_reissues,
        r.watchdog_failed,
        r.error_completions,
        r.retransmits,
        r.timeouts,
        r.dup_frames,
        r.crc_dropped,
        r.naks,
        r.injected.0,
        r.injected.1,
        r.injected.2,
        r.stall_ps,
        r.last_delivery.as_ps(),
        r.end.as_ps(),
    ] {
        h.u64(v);
    }
    let error = if r.delivered != r.expected {
        Some(format!("delivered {} of {}", r.delivered, r.expected))
    } else if r.duplicates != 0 {
        Some(format!("{} duplicate deliveries", r.duplicates))
    } else if !r.payload_ok {
        Some("payload mismatch".to_string())
    } else if !r.quiesced {
        Some("cards did not quiesce".to_string())
    } else {
        None
    };
    Outcome {
        digest: h.finish(),
        error,
    }
}

impl Workload for ChaosRing {
    /// `(i, fault seed)`.
    type Op = (u64, u64);

    fn ops(&self, seed: u64, _round: u32) -> Vec<(u64, u64)> {
        (0..OPS).map(|i| (i, 16 * seed + i)).collect()
    }

    fn op_name(&self, &(i, _): &(u64, u64)) -> String {
        format!("op{i}")
    }

    fn warm_up(&self) -> Outcome {
        outcome(&run_seeded(0, 32))
    }

    fn run(&mut self, &(_, seed): &(u64, u64)) -> Outcome {
        outcome(&run_seeded(seed, MSGS_PER_RANK))
    }

    /// The link-layer counts come from the process-wide registry for
    /// every workload; this adds the host-side recovery counts the
    /// reports carry: wasted re-issues against useful deliveries.
    fn trace(&mut self, seed: u64) -> Vec<Metric> {
        let (mut reissues, mut delivered) = (0, 0);
        for (_, fault_seed) in self.ops(seed, 0) {
            let r = run_seeded(fault_seed, MSGS_PER_RANK);
            reissues += r.watchdog_reissues;
            delivered += r.delivered;
        }
        vec![
            Metric::new("rdma.watchdog_reissues", reissues as f64, "count"),
            Metric::new(
                "cluster.useful_share",
                delivered as f64 / (delivered + reissues).max(1) as f64,
                "ratio",
            ),
        ]
    }
}

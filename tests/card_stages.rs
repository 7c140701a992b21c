//! Tier-1 guard for the card's datapath stages (TX staging, go-back-N
//! link layer, RX delivery, routing): four small deterministic runs
//! whose counters and timestamps are pinned to the values the simulator
//! produced before the card was split into stage modules (the first
//! three) and before the TX drain walked only the jobs that can issue
//! reads (the incast). A change to any stage's scheduling, counting or
//! recovery shows up here as an exact mismatch.
//!
//! * a 4×2 chaos ring with go-back-N replay under corruption, drops and
//!   stalls (`link`, `tx`, `rx`),
//! * the 2×1×1 kill-switch run: link retransmission off, so corrupted
//!   frames are CRC-dropped and their messages never complete,
//! * a clean two-node GPU-to-GPU stream (golden timing),
//! * an 8-to-1 PUT incast at 4× offered load with the overload plane
//!   off: watchdog re-issues pile GPU jobs up behind each sender's
//!   GPU_P2P_TX engine, the backlog the TX drain must skip exactly.

use apenet::cluster::harness::{
    chaos_run_with, incast_run, two_node_with, BufSide, ChaosParams, ChaosReport, IncastParams,
    IncastVerb, TwoNodeParams,
};
use apenet::cluster::presets::{
    cluster_i_chaos, cluster_i_chaos_no_retrans, cluster_i_default, cluster_i_incast, incast_dims,
};
use apenet::cluster::Planes;
use apenet::nic::coord::TorusDims;
use apenet::sim::fault::FaultSpec;

/// Every counter of `r`'s metrics snapshot, in id order.
fn counters(r: &ChaosReport) -> Vec<(&str, u64)> {
    r.metrics.0.iter().map(|(k, &v)| (k.as_str(), v)).collect()
}

/// The snapshot of a run whose only non-zero counters are `nonzero`.
fn snapshot(nonzero: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    const IDS: [&str; 31] = [
        "admission.deadline_expired",
        "admission.throttled",
        "cq.signaled",
        "cwnd.decreases",
        "cwnd.increases",
        "doorbell.batched",
        "ecn.echoed",
        "ecn.marked",
        "get.dup_requests",
        "get.requests",
        "get.served",
        "get.unmatched",
        "link.crc_dropped",
        "link.dead",
        "link.dup_frames",
        "link.injected_corrupt",
        "link.injected_drops",
        "link.injected_stalls",
        "link.naks_sent",
        "link.retransmits",
        "link.stall_ps",
        "link.timeouts",
        "rdma.unreachable",
        "route.detour",
        "route.requeued",
        "route.unreachable_drops",
        "rx.dup_fragments",
        "rx.ring_stall",
        "watchdog.fired",
        "watchdog.gave_up",
        "watchdog.reissues",
    ];
    IDS.iter()
        .map(|&id| {
            let v = nonzero
                .iter()
                .find(|(k, _)| *k == id)
                .map_or(0, |&(_, v)| v);
            (id, v)
        })
        .collect()
}

#[test]
fn seeded_chaos_ring_replays_exactly_as_recorded() {
    let (r, _) = chaos_run_with(
        TorusDims::new(4, 2, 1),
        cluster_i_chaos(7, FaultSpec::chaos(1.0 / 50.0)),
        ChaosParams {
            msgs_per_rank: 4,
            msg_len: 8192,
            watchdog_reissue: true,
        },
        Planes::off(),
    );
    assert_eq!((r.delivered, r.expected), (32, 32));
    assert!(r.payload_ok && r.quiesced && r.duplicates == 0);
    assert_eq!(r.last_delivery.as_ps(), 62_765_528);
    assert_eq!(r.end.as_ps(), 5_000_000_000);
    assert_eq!(
        counters(&r),
        snapshot(&[
            ("link.injected_corrupt", 4),
            ("link.injected_drops", 6),
            ("link.injected_stalls", 1),
            ("link.naks_sent", 5),
            ("link.retransmits", 9),
            ("link.stall_ps", 9_223_126),
        ])
    );
}

#[test]
fn kill_switch_chaos_drops_exactly_as_recorded() {
    let spec = FaultSpec {
        corrupt_rate: 1.0 / 20.0,
        drop_rate: 1.0 / 20.0,
        ..FaultSpec::default()
    };
    let (r, _) = chaos_run_with(
        TorusDims::new(2, 1, 1),
        cluster_i_chaos_no_retrans(11, spec),
        ChaosParams {
            msgs_per_rank: 4,
            msg_len: 16_384,
            watchdog_reissue: false,
        },
        Planes::off(),
    );
    assert_eq!((r.delivered, r.expected), (5, 8));
    assert_eq!(r.last_delivery.as_ps(), 95_663_383);
    assert_eq!(r.end.as_ps(), 95_663_383);
    assert_eq!(
        counters(&r),
        snapshot(&[("link.crc_dropped", 3), ("link.injected_corrupt", 3)])
    );
}

#[test]
fn clean_gg_stream_keeps_golden_timing() {
    let (bw, artifacts) = two_node_with(
        cluster_i_default(),
        TwoNodeParams {
            src: BufSide::Gpu,
            dst: BufSide::Gpu,
            size: 64 << 10,
            count: 4,
            staged: false,
        },
        Planes {
            profile: true,
            ..Planes::off()
        },
    );
    assert_eq!(bw.bandwidth.bytes_per_sec(), 1_121_135_916);
    assert_eq!(bw.submit_interval.as_ps(), 1_000_000);
    assert_eq!(bw.first_completion.as_ps(), 185_910_096);
    assert_eq!(bw.first_submit.as_ps(), 121_000_000);
    let profile = artifacts.profile.expect("profile plane on");
    // The profiler spans the whole run and counts every event dispatched:
    // the clean cable's 64 ACKs settle in closed form, not as events.
    assert_eq!(profile.span_ps, 361_275_096);
    assert_eq!(profile.total_events(), 274);
}

#[test]
fn incast_reissue_backlog_replays_exactly_as_recorded() {
    let r = incast_run(
        incast_dims(),
        cluster_i_incast(false),
        IncastParams {
            senders: 8,
            msgs_per_sender: 32,
            msg_len: 32 << 10,
            offered: 4,
            verb: IncastVerb::Put,
            pacer: None,
        },
    );
    // The backlog really forms: the watchdog re-issues queued messages.
    assert!(r.watchdog_reissues > 0);
    assert!(r.payload_ok && r.quiesced);
    assert_eq!((r.delivered, r.expected), (256, 256));
    assert_eq!(r.watchdog_reissues, 820);
    assert_eq!(r.watchdog_fired, 870);
    assert_eq!(r.last_delivery.as_ps(), 18_179_885_667);
    assert_eq!(r.end.as_ps(), 35_540_499_667);
    assert_eq!(r.duplicates, 0);
}

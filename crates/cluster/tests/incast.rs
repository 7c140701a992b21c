//! Overload-plane survival proofs: seeded incast (N→1 PUT storms) and
//! hotspot-responder (N×GET) workloads at multiples of a link's line
//! rate, with and without the congestion plane, composed with the
//! hard-fault plane (a mid-incast cable kill) and a partitioned peer.
//!
//! The collapse mechanism under proof: without the plane, open-loop
//! senders overrun the two-cable funnel into rank 0, queueing delay
//! crosses the (deliberately tight) watchdog timeout, every still-queued
//! message re-fires each millisecond, and the duplicate wire traffic
//! steals bottleneck capacity from undelivered originals — goodput
//! collapses and the watchdog spuriously escalates healthy ops. With
//! the plane, ECN marks cut the per-destination windows, admission
//! bounds the outstanding ops, queues never outlive the timeout, and
//! the storm drains at near the funnel's line rate.

use apenet_cluster::harness::{
    incast_run, incast_single_flow_baseline, IncastParams, IncastReport, IncastVerb,
};
use apenet_cluster::node::FaultPlan;
use apenet_cluster::presets::{cluster_i_hotspot, cluster_i_incast, incast_dims};
use apenet_core::coord::LinkDir;
use apenet_rdma::pacing::PacerConfig;
use apenet_sim::{SimDuration, SimTime};
use std::sync::mpsc;
use std::time::Duration;

/// Messages each storming rank issues.
const MSGS: u32 = 32;
/// Message length: large enough that a handful in flight fills the
/// funnel, small enough that the suite stays fast.
const MSG_LEN: u64 = 32 * 1024;
/// Storming ranks (the 9-node ring minus the target).
const SENDERS: u32 = 8;
/// The offered-load multiplier of the survival proofs.
const OFFERED: u32 = 4;
/// Wall-clock limit of a run that must end (each takes well under a
/// second).
const WALL_LIMIT: Duration = Duration::from_secs(20);

fn params(offered: u32, verb: IncastVerb, pacer: Option<PacerConfig>) -> IncastParams {
    IncastParams {
        senders: SENDERS,
        msgs_per_sender: MSGS,
        msg_len: MSG_LEN,
        offered,
        verb,
        pacer,
    }
}

fn storm(plane: bool) -> IncastReport {
    incast_run(
        incast_dims(),
        cluster_i_incast(plane),
        params(OFFERED, IncastVerb::Put, plane.then(PacerConfig::default)),
    )
}

fn baseline_put() -> IncastReport {
    incast_single_flow_baseline(
        incast_dims(),
        cluster_i_incast(false),
        MSGS,
        MSG_LEN,
        IncastVerb::Put,
    )
}

/// Run `f` on its own thread and fail if it has not returned within
/// `WALL_LIMIT`, so a run that never ends fails instead of hanging the
/// suite. A panic inside `f` is re-raised here.
fn within_wall_limit(f: fn()) {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WALL_LIMIT) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("the run did not end within {WALL_LIMIT:?}: livelock?")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(e) = run.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

/// Exactly-once and byte-exactness must hold in every configuration —
/// overload may slow a storm down or waste capacity, never corrupt it.
fn assert_exactly_once(r: &IncastReport) {
    assert_eq!(r.delivered, r.expected, "every message delivered: {r:?}");
    assert_eq!(r.duplicates, 0, "no duplicate completions: {r:?}");
    assert!(r.payload_ok, "every delivered byte exact: {r:?}");
    assert!(r.quiesced, "all cards drained: {r:?}");
}

/// The closed-form quiescence bound: submission takes the offered
/// window, every attempt of every message crosses at most the ring
/// diameter's worth of hops (each a serialization slot on some cable),
/// the watchdog re-fires at most `max_attempts` times spaced one
/// timeout apart, and everything else (DMA, host costs, trailing polls)
/// fits in a flat slack. An `end` beyond this would mean livelock.
fn quiescence_bound(offered: u32) -> SimTime {
    let cfg = cluster_i_incast(false);
    let ser_ps = MSG_LEN * 8000 / cfg.card.link_gbps;
    let submit_window = MSGS as u64 * SENDERS as u64 * ser_ps / offered as u64;
    let attempts = 1 + cfg.driver.watchdog.max_attempts as u64;
    let hops = 8; // ring diameter 4, doubled for kill-detour paths
    let drain = SENDERS as u64 * MSGS as u64 * attempts * ser_ps * hops;
    let alarms = cfg.driver.watchdog.max_attempts as u64 * cfg.driver.watchdog.timeout.as_ps();
    let slack = SimDuration::from_ms(50).as_ps();
    SimTime::ZERO + SimDuration::from_ps(submit_window + drain + alarms + slack)
}

/// The headline proof: at 4× offered load into the 8→1 funnel, the
/// armed plane keeps goodput at ≥70% of the single-flow baseline and at
/// ≥1.5× the unprotected run, which collapses under its own duplicate
/// traffic — while both stay exactly-once and quiesce inside the
/// closed-form bound (no livelock either way).
#[test]
fn incast_4x_storm_survives_with_the_plane() {
    let base = baseline_put();
    let off = storm(false);
    let on = storm(true);
    assert_exactly_once(&base);
    assert_exactly_once(&off);
    assert_exactly_once(&on);

    assert!(
        on.goodput_mb_s >= 0.70 * base.goodput_mb_s,
        "plane-on goodput {:.1} MB/s under 70% of the single-flow baseline {:.1} MB/s",
        on.goodput_mb_s,
        base.goodput_mb_s
    );
    assert!(
        on.goodput_mb_s >= 1.5 * off.goodput_mb_s,
        "plane-on goodput {:.1} MB/s not ≥1.5× the unprotected {:.1} MB/s",
        on.goodput_mb_s,
        off.goodput_mb_s
    );

    // The collapse is real: the unprotected run re-fires by the
    // hundreds and spuriously escalates healthy ops to typed errors;
    // the protected run never gives a single op up.
    assert!(
        off.watchdog_reissues > 100,
        "no collapse to survive: {off:?}"
    );
    assert!(off.watchdog_failed > 0, "collapse never escalated: {off:?}");
    assert_eq!(
        on.watchdog_failed, 0,
        "plane-on spurious escalations: {on:?}"
    );

    // And it is the plane doing the work, visibly: cards marked, echoes
    // travelled back, windows were cut, admission pushed back.
    assert!(on.ecn_marked > 0, "no frame ever marked: {on:?}");
    assert!(on.ecn_echoed > 0, "no echo ever generated: {on:?}");
    assert!(on.cwnd_decreases > 0, "no window ever cut: {on:?}");
    assert!(on.throttled > 0, "admission never pushed back: {on:?}");

    // No livelock, by the closed-form bound.
    let bound = quiescence_bound(OFFERED);
    assert!(
        off.end < bound,
        "unprotected run past the bound: {:?} ≥ {bound:?}",
        off.end
    );
    assert!(
        on.end < bound,
        "protected run past the bound: {:?} ≥ {bound:?}",
        on.end
    );
}

/// The same survival criteria with a mid-incast cable kill: 800 µs into
/// the storm the 3↔2 cable dies, rank 3's and 4's traffic reroutes the
/// long way round the ring, and the plane still clears both goodput
/// bars while the unprotected run collapses even deeper.
#[test]
fn incast_survives_a_mid_storm_cable_kill() {
    let base = baseline_put();
    let kill_at = SimTime::ZERO + SimDuration::from_us(800);
    let run = |plane: bool| {
        let mut cfg = cluster_i_incast(plane);
        cfg.card.route_around_faults = true;
        cfg.faults = FaultPlan::none().kill_link(3, LinkDir::Xm, kill_at);
        incast_run(
            incast_dims(),
            cfg,
            params(OFFERED, IncastVerb::Put, plane.then(PacerConfig::default)),
        )
    };
    let off = run(false);
    let on = run(true);
    assert_exactly_once(&off);
    assert_exactly_once(&on);
    assert!(
        on.goodput_mb_s >= 0.70 * base.goodput_mb_s,
        "plane-on goodput {:.1} MB/s under 70% of baseline {:.1} MB/s despite reroute",
        on.goodput_mb_s,
        base.goodput_mb_s
    );
    assert!(
        on.goodput_mb_s >= 1.5 * off.goodput_mb_s,
        "plane-on {:.1} MB/s not ≥1.5× unprotected {:.1} MB/s under the kill",
        on.goodput_mb_s,
        off.goodput_mb_s
    );
    assert_eq!(
        on.watchdog_failed, 0,
        "plane-on spurious escalations: {on:?}"
    );
    let bound = quiescence_bound(OFFERED);
    assert!(off.end < bound && on.end < bound, "kill run past the bound");
}

/// The same kill with route-around off: nothing reroutes, so the cut
/// cable's port times out until the retry bound retires it (16 barren
/// timeouts), its frames drop as unreachable and the watchdog fails
/// their ops typed. With the plane on every op ends exactly once —
/// delivered or `Unreachable`; with it off the collapse also fails 25
/// healthy ops that deliver later. Either way the run ends inside the
/// bound plus the retry ladder.
#[test]
fn incast_cable_cut_without_route_around_ends_typed() {
    within_wall_limit(cable_cut_without_route_around);
}

fn cable_cut_without_route_around() {
    let kill_at = SimTime::ZERO + SimDuration::from_us(800);
    for plane in [false, true] {
        let mut cfg = cluster_i_incast(plane);
        assert!(!cfg.card.route_around_faults);
        cfg.faults = FaultPlan::none().kill_link(3, LinkDir::Xm, kill_at);
        let rto = cfg.card.link_rto.as_ps();
        let r = incast_run(
            incast_dims(),
            cfg,
            params(OFFERED, IncastVerb::Put, plane.then(PacerConfig::default)),
        );
        assert_eq!(r.duplicates, 0, "{r:?}");
        assert!(r.payload_ok, "{r:?}");
        // Ops that both failed and delivered: the collapse's spurious
        // escalations (the uncut plane-off storm has 50 of them).
        let twice = if plane { 0 } else { 25 };
        assert_eq!(
            r.delivered + r.error_completions,
            r.expected + twice,
            "{r:?}"
        );
        assert!(r.error_completions > 0, "the cut stranded no op: {r:?}");
        let ladder: u64 = (0..16).map(|i| rto << i.min(6)).sum();
        let bound = quiescence_bound(OFFERED) + SimDuration::from_ps(ladder);
        assert!(r.end < bound, "cut run past the bound: {r:?}");
    }
}

/// The hotspot-responder storm: 8 ranks GET rank 0's TX region at 4×
/// line rate, so the congestion is rank 0's *egress* reply fan-out. The
/// responder's GPU read is the honest bottleneck here, so goodput
/// cannot collapse the same way — the damage plane-off is spurious
/// escalation (healthy ops completed as Unreachable). The plane keeps
/// goodput at ≥70% of the single-flow GET baseline with zero spurious
/// failures, and its marking demonstrably fires on the reply path.
#[test]
fn hotspot_get_storm_survives_with_the_plane() {
    let gbase = incast_single_flow_baseline(
        incast_dims(),
        cluster_i_hotspot(false),
        MSGS,
        MSG_LEN,
        IncastVerb::Get,
    );
    let run = |plane: bool| {
        incast_run(
            incast_dims(),
            cluster_i_hotspot(plane),
            params(OFFERED, IncastVerb::Get, plane.then(PacerConfig::default)),
        )
    };
    let off = run(false);
    let on = run(true);
    assert_exactly_once(&off);
    assert_exactly_once(&on);
    assert!(
        on.goodput_mb_s >= 0.70 * gbase.goodput_mb_s,
        "hotspot plane-on {:.1} MB/s under 70% of GET baseline {:.1} MB/s",
        on.goodput_mb_s,
        gbase.goodput_mb_s
    );
    assert!(
        off.watchdog_failed > 0,
        "hotspot never hurt plane-off: {off:?}"
    );
    assert_eq!(on.watchdog_failed, 0, "hotspot plane-on escalated: {on:?}");
    assert!(
        on.ecn_marked > 0 && on.ecn_echoed > 0,
        "reply path never marked: {on:?}"
    );
}

/// Disabled means inert: a plane-off run must show zero activity on
/// every `ecn.*`, `cwnd.*` and `admission.*` counter — the ids exist
/// (registered at zero) but nothing ever moves them.
#[test]
fn disabled_plane_is_inert() {
    let off = storm(false);
    assert_eq!(off.ecn_marked, 0);
    assert_eq!(off.ecn_echoed, 0);
    assert_eq!(off.cwnd_increases, 0);
    assert_eq!(off.cwnd_decreases, 0);
    assert_eq!(off.throttled, 0);
    assert_eq!(off.deadline_expired, 0);
    // And the ids are present in the snapshot regardless.
    for id in apenet_rdma::pacing::metrics::ALL {
        assert_eq!(off.metrics.get(id), 0, "{id} registered at zero");
    }
}

/// Same seed, same storm: the whole report — goodput, counters, the
/// full metric snapshot — is reproduced bit-for-bit.
#[test]
fn incast_runs_are_deterministic() {
    let a = storm(true);
    let b = storm(true);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

/// The partitioned-peer half of the backoff-determinism satellite: both
/// of rank 0's cables die 1 µs in, so no storm message can ever arrive.
/// Every op must end in exactly one typed `Unreachable` completion on
/// its issuing rank — none delivered, none dropped silently, none
/// completed twice — and the cluster still quiesces inside the bound.
#[test]
fn partitioned_target_yields_exactly_one_unreachable_per_op() {
    let kill_at = SimTime::ZERO + SimDuration::from_us(1);
    let mut cfg = cluster_i_incast(false);
    cfg.card.route_around_faults = true;
    cfg.faults = FaultPlan::none()
        .kill_link(0, LinkDir::Xp, kill_at)
        .kill_link(0, LinkDir::Xm, kill_at);
    let p = IncastParams {
        senders: SENDERS,
        msgs_per_sender: 4,
        msg_len: MSG_LEN,
        offered: OFFERED,
        verb: IncastVerb::Put,
        pacer: None,
    };
    let expected = p.senders as u64 * p.msgs_per_sender as u64;
    let r = incast_run(incast_dims(), cfg, p);
    assert_eq!(r.delivered, 0, "a message crossed a dead partition: {r:?}");
    assert_eq!(
        r.error_completions, expected,
        "exactly one typed Unreachable per op: {r:?}"
    );
    assert_eq!(
        r.watchdog_failed, expected,
        "every op escalated once: {r:?}"
    );
    assert_eq!(r.duplicates, 0);
    assert!(r.quiesced, "partitioned cluster failed to quiesce: {r:?}");
    assert!(
        r.end < quiescence_bound(OFFERED),
        "partition livelocked: {r:?}"
    );
}

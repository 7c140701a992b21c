//! A cable cut with route-around off ends the run: the go-back-N retry
//! loop is bounded. The cut port's retransmit timer fires, backs off
//! and fires again; after `RETRY_LIMIT` (16) barren timeouts the port is
//! retired without a flood or a reroute, its frames drop as unreachable,
//! and the RDMA watchdog fails their ops typed `Unreachable`.
//!
//! Before the bound, this scenario re-armed the timer forever (12.6 M
//! timeouts in 25 s of wall time). The run goes on its own thread under
//! a wall-clock limit, so such a regression fails the test instead of
//! hanging the suite.

use apenet::cluster::harness::{incast_run_with, IncastParams, IncastVerb};
use apenet::cluster::node::FaultPlan;
use apenet::cluster::presets::{cluster_i_incast, incast_dims};
use apenet::cluster::Planes;
use apenet::nic::coord::LinkDir;
use apenet::sim::{SimDuration, SimTime};
use std::sync::mpsc;
use std::time::Duration;

const SENDERS: u32 = 8;
const MSGS: u32 = 8;
const MSG_LEN: u64 = 16 * 1024;
const OFFERED: u32 = 4;
/// Consecutive barren timeouts before a port is retired.
const RETRY_LIMIT: u32 = 16;
/// Wall-clock limit on the run (it takes well under a second).
const WALL_LIMIT: Duration = Duration::from_secs(10);

#[test]
fn cut_cable_without_route_around_ends_in_typed_errors() {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        cut_cable_run();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WALL_LIMIT) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("the cut-cable run did not end within {WALL_LIMIT:?}: unbounded retry loop?")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The run panicked: re-raise its panic here.
            if let Err(e) = run.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

fn cut_cable_run() {
    let mut cfg = cluster_i_incast(false);
    assert!(!cfg.card.route_around_faults);
    cfg.faults = FaultPlan::none().kill_link(0, LinkDir::Xp, SimTime::from_ps(40_000_000));
    let (rto, watchdog, gbps) = (
        cfg.card.link_rto,
        cfg.driver.watchdog.clone(),
        cfg.card.link_gbps,
    );
    let params = IncastParams {
        senders: SENDERS,
        msgs_per_sender: MSGS,
        msg_len: MSG_LEN,
        offered: OFFERED,
        verb: IncastVerb::Put,
        pacer: None,
    };
    // The test reads only the final sample. A sample per simulated
    // second keeps the series short even on a run that never ends.
    let planes = Planes {
        sample: Some(SimDuration::from_secs(1)),
        ..Planes::off()
    };
    let (r, artifacts) = incast_run_with(incast_dims(), cfg, params, planes);

    // Every op ends exactly once: delivered, or failed typed.
    assert_eq!(r.duplicates, 0, "{r:?}");
    assert!(r.payload_ok, "{r:?}");
    assert_eq!(
        r.delivered + r.error_completions,
        r.expected,
        "each op delivered or failed Unreachable: {r:?}"
    );
    assert!(r.error_completions > 0, "the cut stranded no op: {r:?}");
    assert!(
        r.delivered > 0,
        "the far side of the ring still delivers: {r:?}"
    );
    assert!(
        r.metrics.get(apenet::nic::card::metrics::LINK_DEAD) > 0,
        "{r:?}"
    );
    // No card holds a frame or a TX job at the end. The target may keep
    // the reassembly of a message cut mid-way, which failed typed.
    let sampler = artifacts.sampler.expect("sample plane on");
    for (id, points) in sampler.series() {
        let last = points.last().map_or(0, |&(_, v)| v);
        let held = [
            ".replay",
            ".pending",
            ".tx_jobs",
            ".tx_fifo_packets",
            ".push_wait",
        ];
        if held.iter().any(|s| id.ends_with(s)) {
            assert_eq!(last, 0, "{id} still holds {last} at the end: {r:?}");
        }
        if id.ends_with(".rx_partial") {
            assert!(last <= r.error_completions, "{id} = {last}: {r:?}");
        }
    }

    // Closed-form bound: the offered window, every attempt of every
    // message crossing the ring diameter twice over, the retry ladder
    // of the cut port (RTO doubling up to 64×), every watchdog alarm,
    // and a flat slack.
    let ser_ps = MSG_LEN * 8000 / gbps;
    let submit = SENDERS as u64 * MSGS as u64 * ser_ps / OFFERED as u64;
    let attempts = 1 + watchdog.max_attempts as u64;
    let drain = SENDERS as u64 * MSGS as u64 * attempts * ser_ps * 8;
    let ladder: u64 = (0..RETRY_LIMIT).map(|i| rto.as_ps() << i.min(6)).sum();
    let alarms = watchdog.max_attempts as u64 * watchdog.timeout.as_ps();
    let slack = SimDuration::from_ms(50).as_ps();
    let bound = SimTime::from_ps(submit + drain + ladder + alarms + slack);
    assert!(
        r.end < bound,
        "end {:?} past the bound {bound:?}: {r:?}",
        r.end
    );
}

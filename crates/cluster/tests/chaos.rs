//! Seeded chaos suite: exactly-once RDMA delivery under injected link
//! faults.
//!
//! Every case draws a random fault schedule (bit corruption, whole-frame
//! drops, link stalls — rates up to 1-in-20 per frame), runs a ring of
//! GPU-to-GPU PUTs over it, and asserts the full delivery contract:
//!
//! * every message arrives **byte-exact** at its destination GPU,
//! * **exactly once** (no duplicate completions),
//! * every card **quiesces** (no stuck replay buffers or partial
//!   reassembly state),
//! * the **driver watchdog never fires** — link-level go-back-N recovers
//!   everything long before the RDMA layer's deadline.
//!
//! Case counts scale with `APENET_CHAOS_CASES` (default 200 across the
//! suite); a failing case prints its seed for exact replay via
//! `APENET_PROP_SEED`.

use apenet_cluster::harness::{chaos_run, ChaosParams, ChaosReport};
use apenet_cluster::presets::{cluster_i_chaos, cluster_i_chaos_no_retrans};
use apenet_core::card::metrics as lm;
use apenet_core::coord::TorusDims;
use apenet_rdma::driver::metrics as wm;
use apenet_sim::check::{self, Gen};
use apenet_sim::fault::FaultSpec;

/// A random fault spec with per-frame rates up to 1-in-20.
fn random_spec(g: &mut Gen) -> FaultSpec {
    let rate = |g: &mut Gen| match g.usize(0, 4) {
        0 => 0.0,
        1 => 1.0 / 1000.0,
        2 => 1.0 / 100.0,
        _ => 1.0 / 20.0,
    };
    FaultSpec {
        corrupt_rate: rate(g),
        drop_rate: rate(g),
        stall_rate: rate(g),
        stall_min: apenet_sim::SimDuration::from_ns(g.u64(100, 2_000)),
        stall_max: apenet_sim::SimDuration::from_us(g.u64(1, 20)),
    }
}

fn assert_exactly_once(r: &ChaosReport, ctx: &str) {
    assert_eq!(r.delivered, r.expected, "{ctx}: every message delivered");
    assert_eq!(r.duplicates, 0, "{ctx}: no duplicate completions");
    assert!(r.payload_ok, "{ctx}: payloads byte-exact");
    assert!(r.quiesced, "{ctx}: cards drained");
    // Counters are read through the run's metrics registry snapshot —
    // the same ids every other consumer (repro-all, ad-hoc debugging)
    // sees — not bespoke per-test plumbing.
    assert_eq!(
        r.metrics.get(wm::FIRED),
        0,
        "{ctx}: link recovery beat the driver watchdog \
         (retransmits {}, injected {:?})",
        r.metrics.get(lm::RETRANSMITS),
        r.injected
    );
    // The scalar report fields are views into the same snapshot.
    assert_eq!(r.watchdog_fired, r.metrics.get(wm::FIRED), "{ctx}");
    assert_eq!(r.retransmits, r.metrics.get(lm::RETRANSMITS), "{ctx}");
}

#[test]
fn two_node_chaos_delivers_exactly_once() {
    check::cases("two-node chaos", check::chaos_budget(55), |g| {
        let seed = g.u64(0, u64::MAX - 1);
        let spec = random_spec(g);
        let cfg = cluster_i_chaos(seed, spec);
        let p = ChaosParams {
            msgs_per_rank: g.u32(1, 9),
            msg_len: g.u64(1, 20_000),
            watchdog_reissue: true,
        };
        let r = chaos_run(TorusDims::new(2, 1, 1), cfg, p);
        assert_exactly_once(&r, &format!("seed {seed:#x}"));
        // The schedule must actually have bitten when rates are hot,
        // otherwise the suite silently tests nothing.
        if spec.corrupt_rate >= 0.05 && r.metrics.get(lm::INJECTED_CORRUPT) > 0 {
            assert!(
                r.metrics.get(lm::RETRANSMITS) > 0,
                "corruption recovered by replay"
            );
        }
    });
}

#[test]
fn multi_node_chaos_delivers_exactly_once() {
    check::cases("multi-node chaos", check::chaos_budget(30), |g| {
        let seed = g.u64(0, u64::MAX - 1);
        let spec = random_spec(g);
        let cfg = cluster_i_chaos(seed, spec);
        let dims = *g.pick(&[
            TorusDims::new(4, 1, 1),
            TorusDims::new(2, 2, 1),
            TorusDims::new(4, 2, 1),
        ]);
        let p = ChaosParams {
            msgs_per_rank: g.u32(1, 5),
            msg_len: g.u64(1, 10_000),
            watchdog_reissue: true,
        };
        let r = chaos_run(dims, cfg, p);
        assert_exactly_once(&r, &format!("seed {seed:#x} dims {dims:?}"));
    });
}

/// Kill-switch check: with link retransmission disabled the same
/// schedules must make the contract fail — this is the proof that the
/// suite can detect a broken reliability layer at all.
#[test]
fn kill_switch_chaos_loses_messages() {
    let mut broken = 0u32;
    let cases = check::chaos_budget(10);
    check::cases("kill-switch chaos", cases, |g| {
        let seed = g.u64(0, u64::MAX - 1);
        // Hot rates so nearly every schedule actually bites.
        let spec = FaultSpec {
            corrupt_rate: 1.0 / 20.0,
            drop_rate: 1.0 / 20.0,
            ..FaultSpec::default()
        };
        let cfg = cluster_i_chaos_no_retrans(seed, spec);
        let p = ChaosParams {
            msgs_per_rank: 4,
            msg_len: 16_384,
            watchdog_reissue: false,
        };
        let r = chaos_run(TorusDims::new(2, 1, 1), cfg, p);
        assert_eq!(
            r.metrics.get(lm::RETRANSMITS),
            0,
            "reliability layer is off"
        );
        if r.delivered < r.expected {
            broken += 1;
            assert!(
                r.metrics.get(lm::CRC_DROPPED) > 0 || r.metrics.get(lm::INJECTED_DROPS) > 0,
                "losses must trace back to injected faults"
            );
        }
    });
    assert!(
        broken > cases / 2,
        "the kill switch must visibly break delivery \
         (only {broken}/{cases} cases lost messages)"
    );
}

/// With the link layer disabled, the driver watchdog's bounded-backoff
/// re-issue is the only recovery path — single-packet messages make its
/// retries idempotent, so delivery completes despite drops.
#[test]
fn watchdog_recovers_when_link_layer_cannot() {
    check::cases("watchdog recovery", check::chaos_budget(5), |g| {
        let seed = g.u64(0, u64::MAX - 1);
        let spec = FaultSpec {
            drop_rate: 1.0 / 20.0,
            corrupt_rate: 1.0 / 20.0,
            ..FaultSpec::default()
        };
        let cfg = cluster_i_chaos_no_retrans(seed, spec);
        let p = ChaosParams {
            msgs_per_rank: 6,
            msg_len: 2_048, // single packet: re-issue is idempotent
            watchdog_reissue: true,
        };
        let r = chaos_run(TorusDims::new(2, 1, 1), cfg, p);
        assert_eq!(
            r.delivered, r.expected,
            "seed {seed:#x}: watchdog recovered"
        );
        assert!(r.payload_ok, "seed {seed:#x}");
        assert!(r.quiesced, "seed {seed:#x}");
        if r.metrics.get(lm::CRC_DROPPED) > 0 || r.metrics.get(lm::INJECTED_DROPS) > 0 {
            assert!(
                r.metrics.get(wm::FIRED) > 0 && r.metrics.get(wm::REISSUES) > 0,
                "seed {seed:#x}: losses with no link recovery imply alarms"
            );
        }
    });
}

/// The whole suite is deterministic: one schedule, two runs, identical
/// reports.
#[test]
fn chaos_runs_replay_bit_identically() {
    let cfg = || cluster_i_chaos(0xC0FFEE, FaultSpec::chaos(1.0 / 50.0));
    let p = || ChaosParams {
        msgs_per_rank: 6,
        msg_len: 12_345,
        watchdog_reissue: true,
    };
    let r1 = chaos_run(TorusDims::new(2, 2, 1), cfg(), p());
    let r2 = chaos_run(TorusDims::new(2, 2, 1), cfg(), p());
    assert_eq!(r1.end, r2.end, "same final event time");
    // Determinism holds for the entire counter snapshot, not just a few
    // hand-picked fields.
    assert_eq!(r1.metrics, r2.metrics, "identical registry snapshots");
    assert_eq!(r1.injected, r2.injected);
    assert_exactly_once(&r1, "replay");
}

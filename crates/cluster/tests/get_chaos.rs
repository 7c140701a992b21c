//! Seeded GET chaos suite: exactly-once one-sided reads under injected
//! link faults, composed with selective signaling.
//!
//! The mirror image of the PUT chaos suite (`chaos.rs`): every rank
//! *reads* its ring successor's GPU region with one-sided GETs while
//! the fault plan corrupts, drops and stalls both the request and the
//! reply streams. Each case asserts the full delivery contract:
//!
//! * every GET lands **byte-exact** in the requester's GPU buffer,
//! * **exactly once** (no duplicate completions, re-served replies
//!   deduplicated at the requester),
//! * every card **quiesces** (no stuck reply jobs or reassembly state),
//! * the **driver watchdog stays silent** while link recovery is on,
//! * send-queue moderation **retires every WQE** through batched CQEs
//!   (`sq_retired == sq_posted`), and the moderated run's completion
//!   counts match a naive `sig_all = true` oracle on the same seed.
//!
//! Case counts scale with `APENET_CHAOS_CASES` (default 200 across the
//! suite); a failing case prints its seed for exact replay via
//! `APENET_PROP_SEED`.

use apenet_cluster::cluster::ClusterBuilder;
use apenet_cluster::harness::{get_chaos_run, ChaosParams, ChaosReport};
use apenet_cluster::msg::{HostApi, HostIn, HostProgram, Msg, NodeCtx};
use apenet_cluster::node::FaultPlan;
use apenet_cluster::presets::{cluster_i_chaos, cluster_i_default, cluster_i_hard_fault};
use apenet_core::card::metrics as lm;
use apenet_core::card::{CardError, CardIn};
use apenet_core::coord::{Coord, LinkDir, TorusDims};
use apenet_core::packet::MsgId;
use apenet_rdma::api::SrcHint;
use apenet_rdma::driver::metrics as wm;
use apenet_rdma::driver::Watchdog;
use apenet_rdma::signal::SignalConfig;
use apenet_sim::check::{self, Gen};
use apenet_sim::fault::FaultSpec;
use apenet_sim::{SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

fn us(n: u64) -> SimTime {
    SimTime::from_ps(n * 1_000_000)
}

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
        stall_min: SimDuration::from_ns(g.u64(100, 2_000)),
        stall_max: SimDuration::from_us(g.u64(1, 20)),
    }
}

/// A random moderation tuning: every (batch size, CQ depth, high-water)
/// combination the model admits, including the hw == depth corner.
fn random_sig(g: &mut Gen) -> SignalConfig {
    let cq_depth = *g.pick(&[1usize, 2, 4, 16, 64]);
    SignalConfig {
        sig_all: false,
        cq_depth,
        high_water: g.usize(1, cq_depth + 1),
        doorbell_batch: *g.pick(&[1usize, 2, 8, 32]),
    }
}

fn assert_get_exactly_once(r: &ChaosReport, ctx: &str) {
    assert_eq!(r.delivered, r.expected, "{ctx}: every GET delivered");
    assert_eq!(r.duplicates, 0, "{ctx}: no duplicate completions");
    assert!(r.payload_ok, "{ctx}: payloads byte-exact");
    assert!(r.quiesced, "{ctx}: cards drained");
    assert_eq!(
        r.metrics.get(wm::FIRED),
        0,
        "{ctx}: link recovery beat the driver watchdog \
         (retransmits {}, injected {:?})",
        r.metrics.get(lm::RETRANSMITS),
        r.injected
    );
    // Send-queue moderation: every WQE posted came back through a
    // batched CQE, none lost, none duplicated.
    assert_eq!(r.sq_posted, r.expected, "{ctx}: one WQE per GET");
    assert_eq!(r.sq_retired, r.sq_posted, "{ctx}: moderation drained");
    assert!(r.cq_signaled >= 1, "{ctx}: the forced tail signal posted");
    assert!(r.cq_signaled <= r.sq_posted, "{ctx}");
    // The card-level GET protocol counters are consistent: every
    // delivered read was served at least once, and every serve came
    // from some request.
    let served = r.metrics.get(lm::GET_SERVED);
    let requests = r.metrics.get(lm::GET_REQUESTS);
    assert!(served >= r.delivered, "{ctx}: served {served} < delivered");
    assert!(requests >= r.expected, "{ctx}: requests {requests}");
}

#[test]
fn two_node_get_chaos_delivers_exactly_once() {
    check::cases("two-node GET chaos", check::chaos_budget(30), |g| {
        let seed = g.u64(0, u64::MAX - 1);
        let spec = random_spec(g);
        let cfg = cluster_i_chaos(seed, spec);
        let p = ChaosParams {
            msgs_per_rank: g.u32(1, 9),
            msg_len: g.u64(1, 20_000),
            watchdog_reissue: true,
        };
        let sig = random_sig(g);
        let r = get_chaos_run(TorusDims::new(2, 1, 1), cfg, p, sig);
        assert_get_exactly_once(&r, &format!("seed {seed:#x}"));
        if spec.corrupt_rate >= 0.05 && r.metrics.get(lm::INJECTED_CORRUPT) > 0 {
            assert!(
                r.metrics.get(lm::RETRANSMITS) > 0,
                "corruption recovered by replay"
            );
        }
    });
}

#[test]
fn multi_node_get_chaos_delivers_exactly_once() {
    check::cases("multi-node GET chaos", check::chaos_budget(20), |g| {
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
        let sig = random_sig(g);
        let r = get_chaos_run(dims, cfg, p, sig);
        assert_get_exactly_once(&r, &format!("seed {seed:#x} dims {dims:?}"));
    });
}

/// Satellite: moderated completion counts match a naive `sig_all = true`
/// oracle run on the same seed — and because moderation is host-side
/// bookkeeping, the two runs are *timing-identical* too. This covers the
/// "signaled WQE itself dropped then retransmitted" corner implicitly:
/// the fault schedule hits whichever frames it hits in both runs.
#[test]
fn get_moderation_matches_sig_all_oracle_on_same_seed() {
    check::cases("GET moderation vs oracle", check::chaos_budget(15), |g| {
        let seed = g.u64(0, u64::MAX - 1);
        let spec = random_spec(g);
        let p = ChaosParams {
            msgs_per_rank: g.u32(1, 6),
            msg_len: g.u64(1, 12_000),
            watchdog_reissue: true,
        };
        let sig = random_sig(g);
        let oracle_sig = SignalConfig {
            sig_all: true,
            ..sig.clone()
        };
        let dims = TorusDims::new(2, 1, 1);
        let moderated = get_chaos_run(dims, cluster_i_chaos(seed, spec), p.clone(), sig);
        let oracle = get_chaos_run(dims, cluster_i_chaos(seed, spec), p, oracle_sig);
        let ctx = format!("seed {seed:#x}");
        assert_eq!(moderated.delivered, oracle.delivered, "{ctx}");
        assert_eq!(moderated.duplicates, oracle.duplicates, "{ctx}");
        assert_eq!(moderated.sq_posted, oracle.sq_posted, "{ctx}");
        assert_eq!(
            moderated.sq_retired, oracle.sq_retired,
            "{ctx}: moderation retires exactly what sig_all retires"
        );
        assert!(
            moderated.cq_signaled <= oracle.cq_signaled,
            "{ctx}: moderation never signals more than the oracle"
        );
        assert_eq!(
            moderated.end, oracle.end,
            "{ctx}: signaling policy never perturbs the schedule"
        );
        assert_eq!(moderated.last_delivery, oracle.last_delivery, "{ctx}");
    });
}

/// Clean runs (no faults scheduled) deliver everything, keep the
/// watchdog and every fault counter at zero, and replay to identical
/// timing — the GET verb inherits the determinism contract.
#[test]
fn clean_get_runs_are_silent_and_deterministic() {
    let run = || {
        get_chaos_run(
            TorusDims::new(4, 2, 1),
            cluster_i_default(),
            ChaosParams {
                msgs_per_rank: 3,
                msg_len: 24 * 1024,
                watchdog_reissue: true,
            },
            SignalConfig::default(),
        )
    };
    let a = run();
    let b = run();
    assert_get_exactly_once(&a, "clean GET run");
    assert_eq!(a.retransmits, 0, "clean runs replay nothing");
    assert_eq!(a.timeouts, 0, "clean runs arm no link timers");
    assert_eq!(a.watchdog_fired, 0);
    assert_eq!(a.rx_dup_fragments, 0, "no re-serves on a clean run");
    assert_eq!(a.metrics.get(lm::GET_DUP_REQUESTS), 0);
    assert_eq!(a.end, b.end, "identical end time");
    assert_eq!(a.last_delivery, b.last_delivery);
    assert_eq!(a.cq_signaled, b.cq_signaled);
    assert_eq!(a.doorbell_batched, b.doorbell_batched);
}

/// Hard-fault composition: a cable killed mid-transfer on the Cluster I
/// torus. GET requests and reply streams both reroute the long way
/// round; the contract holds and the fault plane's counters prove the
/// detour actually happened.
#[test]
fn mid_transfer_link_kill_get_delivers_exactly_once_via_detour() {
    let dims = TorusDims::new(4, 2, 1);
    let mut cfg = cluster_i_hard_fault();
    cfg.faults = FaultPlan::none().kill_link(0, LinkDir::Xp, us(20));
    let r = get_chaos_run(
        dims,
        cfg,
        ChaosParams {
            msgs_per_rank: 4,
            msg_len: 64 * 1024,
            watchdog_reissue: true,
        },
        SignalConfig::default(),
    );
    assert_eq!(r.delivered, r.expected, "every GET delivered");
    assert_eq!(r.duplicates, 0);
    assert!(r.payload_ok, "payloads byte-exact after rerouting");
    assert!(r.quiesced);
    assert_eq!(r.dead_links, 2, "one port declared dead per cable end");
    assert!(r.detours > 0, "traffic took the long way round");
    assert_eq!(r.error_completions, 0, "no host-visible failures");
    assert_eq!(r.sq_retired, r.sq_posted, "moderation drained");
}

/// Satellite negative path: a fully partitioned responder. Every GET
/// targeting it completes with a typed `Unreachable` error within the
/// watchdog's closed-form escalation bound — and the error completions
/// still retire their WQEs, so send-queue moderation drains even though
/// nothing was delivered.
#[test]
fn partitioned_responder_fails_gets_with_typed_error_within_bound() {
    let dims = TorusDims::new(2, 1, 1);
    let mut cfg = cluster_i_hard_fault();
    cfg.faults = FaultPlan::none().kill_node(1, dims.coord_of(1), dims, us(10));
    let wd = cfg.driver.watchdog.clone();
    let r = get_chaos_run(
        dims,
        cfg,
        ChaosParams {
            msgs_per_rank: 4,
            msg_len: 32 * 1024,
            watchdog_reissue: true,
        },
        SignalConfig::default(),
    );
    assert_eq!(
        r.delivered + r.error_completions,
        r.expected,
        "delivered + typed errors account for every GET"
    );
    assert!(r.error_completions > 0, "the partition failed some GETs");
    assert_eq!(
        r.watchdog_failed, r.error_completions,
        "every escalation became exactly one error completion"
    );
    assert_eq!(r.duplicates, 0);
    assert!(r.payload_ok, "delivered payloads still byte-exact");
    assert_eq!(r.dead_links, 4, "both ends of both cables retired");
    // Error completions terminate WQEs too: moderation drains fully.
    assert_eq!(r.sq_retired, r.sq_posted, "failed WQEs retired via errors");
    let mut bound = r.last_delivery.max(us(10));
    let poll = SimDuration::from_ps(wd.timeout.as_ps() / 4);
    for k in 0..wd.max_attempts {
        let shift = k.min(wd.backoff_cap);
        bound = bound + SimDuration::from_ps(wd.timeout.as_ps() << shift) + poll;
    }
    assert!(
        r.end <= bound,
        "typed errors within the escalation bound: end {:?} > bound {:?}",
        r.end,
        bound
    );
}

// ---------------------------------------------------------------------------
// Watchdog re-issue of an unsignaled GET WQE (late responder
// registration), and RX-ring backpressure with GETs in flight.
// ---------------------------------------------------------------------------

struct LateShared {
    watchdog: Watchdog,
    descs: std::collections::BTreeMap<MsgId, apenet_core::card::GetDesc>,
    sendq: apenet_rdma::signal::SendQueue,
    delivered: u64,
}

/// Rank 0: issues `msgs` GETs against rank 1's buffer immediately and
/// runs its own watchdog loop. The GETs arrive before the responder has
/// registered the buffer, are dropped as unmatched, and only succeed on
/// watchdog re-issue.
struct LateRequester {
    msgs: u32,
    len: u64,
    poll: SimDuration,
    shared: Rc<RefCell<LateShared>>,
}

impl HostProgram for LateRequester {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let region = self.msgs as u64 * self.len;
        let rx = node.cuda[0].borrow_mut().malloc(region).unwrap();
        let tx_mirror = node.cuda[0].borrow_mut().malloc(region).unwrap();
        node.ep.register(rx, region).unwrap();
        let mut sh = self.shared.borrow_mut();
        for i in 0..self.msgs {
            let off = i as u64 * self.len;
            // The peer's source buffer sits at this rank's mirror
            // address (identical allocation order on both ranks).
            let out = node
                .ep
                .get(
                    rx + off,
                    self.len,
                    node.dims.coord_of(1),
                    tx_mirror + off,
                    SrcHint::Gpu,
                )
                .unwrap();
            sh.watchdog.arm(out.desc.msg, api.now);
            // Every WQE unsignaled except the forced tail.
            sh.sendq.post(out.desc.msg, i + 1 == self.msgs);
            sh.descs.insert(out.desc.msg, out.desc.clone());
            api.submit_get(out.host_cost, out.desc);
        }
        drop(sh);
        api.wake(self.poll, 0);
    }

    fn on_event(&mut self, ev: HostIn, _node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let mut sh = self.shared.borrow_mut();
        match ev {
            HostIn::Delivered { msg, .. } => {
                sh.delivered += 1;
                sh.watchdog.disarm(&msg);
                sh.sendq.complete(&msg);
                let _ = sh.sendq.reap();
            }
            HostIn::Wake(_) => {
                let ex = sh.watchdog.poll_expired(api.now);
                assert!(ex.failed.is_empty(), "late registration must recover");
                for msg in ex.reissue {
                    let desc = sh.descs[&msg].clone();
                    api.submit_get(SimDuration::ZERO, desc);
                }
                if sh.watchdog.outstanding() > 0 {
                    api.wake(self.poll, 0);
                }
            }
            _ => {}
        }
    }
}

/// Rank 1: allocates and fills its source buffer at start but only
/// *registers* it at `register_at` — until then inbound GETs miss the
/// BUF_LIST and are dropped unmatched.
struct LateResponder {
    msgs: u32,
    len: u64,
    register_at: SimDuration,
    src: u64,
}

impl HostProgram for LateResponder {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let region = self.msgs as u64 * self.len;
        // Mirror the requester's allocation order so addresses line up.
        let _rx_mirror = node.cuda[0].borrow_mut().malloc(region).unwrap();
        self.src = node.cuda[0].borrow_mut().malloc(region).unwrap();
        let data: Vec<u8> = (0..region)
            .map(|o| (o as u8).wrapping_mul(7) ^ 0x2B)
            .collect();
        node.cuda[0]
            .borrow_mut()
            .mem
            .write(self.src, &data)
            .unwrap();
        api.wake(self.register_at, 1);
    }

    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {
        if let HostIn::Wake(1) = ev {
            let region = self.msgs as u64 * self.len;
            node.ep.register(self.src, region).unwrap();
        }
    }
}

/// Satellite edge case: watchdog re-issue of *unsignaled* WQEs. The
/// responder registers its buffer only after the watchdog deadline, so
/// the first wave of GETs is dropped unmatched and every delivery comes
/// from a re-issued request. Completion counts still match the post
/// count exactly — no WQE lost, none duplicated — and the responder's
/// `get.unmatched` counter proves the first wave really missed.
#[test]
fn watchdog_reissue_of_unsignaled_gets_recovers_late_registration() {
    let dims = TorusDims::new(2, 1, 1);
    let cfg = cluster_i_default();
    let wd_cfg = cfg.driver.watchdog.clone();
    let poll = SimDuration::from_ps(wd_cfg.timeout.as_ps() / 4);
    let shared = Rc::new(RefCell::new(LateShared {
        watchdog: Watchdog::new(wd_cfg.clone()),
        descs: Default::default(),
        sendq: apenet_rdma::signal::SendQueue::new(SignalConfig {
            high_water: 2,
            ..SignalConfig::default()
        }),
        delivered: 0,
    }));
    let msgs = 3u32;
    let len = 4096u64;
    let programs: Vec<Box<dyn HostProgram>> = vec![
        Box::new(LateRequester {
            msgs,
            len,
            poll,
            shared: shared.clone(),
        }),
        Box::new(LateResponder {
            msgs,
            len,
            // Past the first watchdog deadline (20 ms default).
            register_at: wd_cfg.timeout + SimDuration::from_ms(5),
            src: 0,
        }),
    ];
    let mut cluster = ClusterBuilder::new(dims, cfg).build(programs);
    cluster.run();
    let mut sh = shared.borrow_mut();
    let _ = sh.sendq.reap();
    assert_eq!(sh.delivered, msgs as u64, "every GET recovered");
    assert!(sh.watchdog.fired >= msgs as u64, "first wave expired");
    assert_eq!(sh.watchdog.gave_up, 0);
    assert_eq!(sh.sendq.posted, msgs as u64);
    assert_eq!(
        sh.sendq.retired, sh.sendq.posted,
        "re-issued unsignaled WQEs retired exactly once"
    );
    assert!(sh.sendq.drained());
    assert_eq!(cluster.host(0).node.cq.duplicate_count(), 0);
    let responder = cluster.card(1).card();
    assert!(
        responder.stats.get_unmatched >= msgs as u64,
        "the early wave missed the BUF_LIST"
    );
    assert_eq!(responder.stats.get_served, msgs as u64);
    assert!(cluster.card(0).card().quiesced());
    assert!(responder.quiesced());
}

/// Rank 0 GETs `msgs` reads from rank 1; replies land against rank 0's
/// one-entry RX event ring.
struct RingGetter {
    msgs: u32,
    len: u64,
    peer: Coord,
    requester: bool,
}

impl HostProgram for RingGetter {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let region = self.msgs as u64 * self.len;
        let rx = node.cuda[0].borrow_mut().malloc(region).unwrap();
        let tx = node.cuda[0].borrow_mut().malloc(region).unwrap();
        node.ep.register(rx, region).unwrap();
        node.ep.register(tx, region).unwrap();
        if !self.requester {
            let data: Vec<u8> = (0..region).map(|o| (o as u8) ^ 0x77).collect();
            node.cuda[0].borrow_mut().mem.write(tx, &data).unwrap();
            return;
        }
        for i in 0..self.msgs {
            let off = i as u64 * self.len;
            let out = node
                .ep
                .get(rx + off, self.len, self.peer, tx + off, SrcHint::Gpu)
                .unwrap();
            api.submit_get(out.host_cost, out.desc);
        }
    }

    fn on_event(&mut self, _ev: HostIn, _node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {}
}

/// Satellite negative path: RX-ring backpressure with GETs in flight.
/// The *requester's* ring fills (GET completions arrive there), held
/// replies raise typed `RxRingFull` errors, and host pops release them
/// one at a time — nothing dropped, exactly-once preserved.
#[test]
fn get_rx_ring_exhaustion_backpressures_then_recovers() {
    let dims = TorusDims::new(2, 1, 1);
    let mut cfg = cluster_i_hard_fault();
    cfg.card.rx_ring_entries = Some(1);
    let programs: Vec<Box<dyn HostProgram>> = vec![
        Box::new(RingGetter {
            msgs: 3,
            len: 4096,
            peer: dims.coord_of(1),
            requester: true,
        }),
        Box::new(RingGetter {
            msgs: 3,
            len: 4096,
            peer: dims.coord_of(0),
            requester: false,
        }),
    ];
    let mut cluster = ClusterBuilder::new(dims, cfg).build(programs);
    let end = cluster.run();

    // Phase 1 — exhaustion at the *requester*: one reply delivered, the
    // other two held behind ring credit with typed errors raised.
    assert_eq!(cluster.host(0).node.cq.delivered_count(), 1);
    let stalls = cluster
        .card(0)
        .errors
        .iter()
        .filter(|(_, e)| matches!(e, CardError::RxRingFull { .. }))
        .count();
    assert_eq!(stalls, 2, "two GET replies hit the full ring");
    assert!(!cluster.card(0).card().quiesced(), "held events pending");

    // Phase 2 — recovery: each pop releases exactly one held reply.
    let card0 = cluster.cards[0];
    for i in 0..3u64 {
        cluster.sim.send(
            card0,
            end + SimDuration::from_us(10 * (i + 1)),
            Msg::Card(CardIn::RxRingPop { n: 1 }),
        );
    }
    cluster.run();
    assert_eq!(cluster.host(0).node.cq.delivered_count(), 3);
    assert_eq!(cluster.host(0).node.cq.duplicate_count(), 0);
    assert!(
        cluster.card(0).card().quiesced(),
        "ring drained, card clean"
    );
    assert!(cluster.card(1).card().quiesced(), "responder clean too");
}

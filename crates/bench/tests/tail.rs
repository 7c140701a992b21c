//! Tail-forensics plane integration tests: the plane is invisible to
//! the chaos report, its metric surface matches the declared ids both
//! ways, every per-message stage decomposition telescopes exactly
//! under clean, chaos and kill regimes, and the flight recorder
//! retains (and eagerly dumps) the spans of typed-error messages.

use apenet_cluster::harness::{chaos_run, chaos_run_with, ChaosParams, ChaosReport};
use apenet_cluster::msg::{HostApi, HostIn, HostProgram, NodeCtx};
use apenet_cluster::node::FaultPlan;
use apenet_cluster::planes::TailReport;
use apenet_cluster::presets::{cluster_i_chaos, cluster_i_default, cluster_i_hard_fault};
use apenet_cluster::Msg;
use apenet_cluster::{ClusterBuilder, NodeConfig, Planes};
use apenet_core::card::CardIn;
use apenet_core::coord::{Coord, LinkDir, TorusDims};
use apenet_obs::latency::{collect_ledgers, metrics as tail_metrics, Stage, TailConfig};
use apenet_obs::recorder::RetainReason;
use apenet_rdma::api::SrcHint;
use apenet_sim::fault::FaultSpec;
use apenet_sim::trace::SharedSink;
use apenet_sim::{SimDuration, SimTime};

fn chaos_cfg() -> NodeConfig {
    let mut cfg = cluster_i_chaos(0x0B5E_7E57, FaultSpec::chaos(1.0 / 50.0));
    cfg.card.route_around_faults = true;
    cfg.faults = cfg
        .faults
        .kill_link(0, LinkDir::Xp, SimTime::from_ps(20_000_000));
    cfg
}

fn chaos_params() -> ChaosParams {
    ChaosParams {
        msgs_per_rank: 8,
        msg_len: 32 * 1024,
        watchdog_reissue: true,
    }
}

/// A chaos run with the default tail plane attached.
fn tailed_chaos_run(dims: TorusDims, cfg: NodeConfig, p: ChaosParams) -> (ChaosReport, TailReport) {
    let planes = Planes {
        tail: Some(TailConfig::default()),
        ..Planes::off()
    };
    let (report, artifacts) = chaos_run_with(dims, cfg, p, planes);
    (report, artifacts.tail.expect("tail plane on"))
}

#[test]
fn tail_plane_is_invisible_to_the_chaos_report() {
    // Clean and chaos-plus-kill regimes, with and without the plane:
    // the chaos report must be identical field for field. The tail
    // plane folds every span record and keeps a capture for its flight
    // recorder, but its counters and digests live in the TailReport's
    // own registry, never the run's.
    for cfg in [cluster_i_default as fn() -> NodeConfig, chaos_cfg] {
        let dims = TorusDims::new(4, 2, 1);
        let plain = chaos_run(dims, cfg(), chaos_params());
        let (tailed, tail) = tailed_chaos_run(dims, cfg(), chaos_params());
        assert_eq!(
            format!("{plain:?}"),
            format!("{tailed:?}"),
            "the tail plane must not change a single report field"
        );
        assert!(tail.summary.messages() > 0, "the plane observed the run");
    }
}

#[test]
fn tail_registry_and_declared_ids_agree_both_ways() {
    let (_, tail) = tailed_chaos_run(TorusDims::new(4, 2, 1), chaos_cfg(), chaos_params());
    // Counters: everything published is declared, everything declared
    // is published (even at zero).
    let declared: std::collections::BTreeSet<&str> =
        tail_metrics::COUNTERS.iter().copied().collect();
    let published: std::collections::BTreeSet<String> =
        tail.registry.counters().0.keys().cloned().collect();
    for id in &published {
        assert!(
            declared.contains(id.as_str()),
            "counter {id:?} published but missing from tail metrics::COUNTERS"
        );
    }
    for id in &declared {
        assert!(
            published.contains(*id),
            "counter {id:?} declared but never registered by publish()"
        );
    }
    // Digests: same contract, via the registry's digest id listing.
    let declared: std::collections::BTreeSet<String> =
        tail_metrics::all_digests().into_iter().collect();
    let published: std::collections::BTreeSet<String> =
        tail.registry.digest_ids().into_iter().collect();
    assert_eq!(
        declared, published,
        "latency.* digest surface must match all_digests() exactly"
    );
    // And the whole tail registry snapshots to strict JSON.
    apenet_obs::perfetto::json_sanity(&tail.registry.snapshot_json())
        .expect("tail registry snapshot parses");
}

#[test]
fn stage_decompositions_telescope_across_regimes() {
    let dims = TorusDims::new(4, 2, 1);
    // Clean: every message lands, recovery stages are exactly zero.
    let (r, t) = tailed_chaos_run(dims, cluster_i_default(), chaos_params());
    assert_eq!(t.summary.messages(), r.expected);
    assert_eq!(t.summary.incomplete(), 0);
    for l in &t.summary.ledgers {
        l.assert_telescopes();
        assert_eq!(l.stage(Stage::Replay), SimDuration::ZERO, "clean run");
        assert_eq!(l.stage(Stage::RxRingWait), SimDuration::ZERO);
        assert!(l.total().as_ps() > 0);
    }
    assert!(t.summary.threshold_ps > 0);
    assert!(!t.summary.tail.is_empty(), "nearest-rank p99 keeps the max");

    // Soft chaos + a cable kill: replay and detour time show up, and
    // the decomposition still telescopes for every message.
    let (r, t) = tailed_chaos_run(dims, chaos_cfg(), chaos_params());
    assert_eq!(t.summary.messages(), r.expected, "reissue delivers all");
    for l in &t.summary.ledgers {
        l.assert_telescopes();
    }
    assert!(
        t.summary
            .ledgers
            .iter()
            .any(|l| l.retransmits > 0 && l.stage(Stage::Replay) > SimDuration::ZERO),
        "chaos must put replay time on some ledger"
    );
    assert!(
        t.summary.ledgers.iter().any(|l| l.detours > 0),
        "the killed cable must force detour decisions"
    );
    // The on-demand recorder dump must validate even though retained
    // chaos-burst messages from one rank overlap in time (each span
    // gets its own Perfetto track). dump_perfetto self-validates
    // nesting and JSON before returning.
    assert!(t
        .recorder
        .dump_perfetto()
        .expect("retained spans validate")
        .contains("\"traceEvents\""));

    // Node partition: PUTs to the isolated rank end in typed errors;
    // their spans telescope as incomplete ledgers and the recorder
    // freezes a fault dump on the first one.
    let dims = TorusDims::new(2, 1, 1);
    let mut cfg = cluster_i_hard_fault();
    cfg.faults =
        FaultPlan::none().kill_node(1, dims.coord_of(1), dims, SimTime::from_ps(10_000_000));
    let (r, t) = tailed_chaos_run(
        dims,
        cfg,
        ChaosParams {
            msgs_per_rank: 4,
            msg_len: 32 * 1024,
            watchdog_reissue: true,
        },
    );
    assert!(r.error_completions > 0, "the partition failed some PUTs");
    assert_eq!(t.summary.errors(), r.error_completions);
    for l in &t.summary.ledgers {
        l.assert_telescopes();
        if let Some(e) = l.error {
            assert_eq!(e, "unreachable");
            assert!(!l.complete, "an errored PUT never delivered");
        }
    }
    // Every error span is retained in full, with the error reason.
    let retained_errors = t
        .recorder
        .retained()
        .filter(|s| matches!(s.reason, RetainReason::Error("unreachable")))
        .count() as u64;
    assert!(retained_errors > 0, "error spans retained");
    let dump = t.recorder.fault_dump().expect("first error froze a dump");
    apenet_obs::perfetto::json_sanity(dump).expect("fault dump is valid JSON");
    assert_eq!(
        t.registry.counters().get(tail_metrics::RETAINED_SPANS),
        t.recorder.len() as u64
    );
}

/// Rank 0 streams PUTs at a receiver whose RX event ring holds a single
/// entry; held completions must be charged to `rx_ring_wait` — cleanly
/// separated from `host_post` (doorbell batching) and `rx_notify` — and
/// the boundaries still telescope.
struct Streamer {
    msgs: u32,
    len: u64,
    peer: Coord,
    send: bool,
}

impl HostProgram for Streamer {
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>) {
        let region = self.msgs as u64 * self.len;
        let rx = node.cuda[0].borrow_mut().malloc(region).unwrap();
        node.ep.register(rx, region).unwrap();
        if !self.send {
            return;
        }
        let tx = node.cuda[0].borrow_mut().malloc(region).unwrap();
        node.ep.register(tx, region).unwrap();
        for i in 0..self.msgs {
            let off = i as u64 * self.len;
            let out = node
                .ep
                .put(tx + off, self.len, self.peer, rx + off, SrcHint::Gpu)
                .unwrap();
            api.submit(out.host_cost, out.desc);
        }
    }

    fn on_event(&mut self, _ev: HostIn, _node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {}
}

#[test]
fn rx_ring_backpressure_is_attributed_to_ring_wait() {
    let dims = TorusDims::new(2, 1, 1);
    let mut cfg = cluster_i_hard_fault();
    cfg.card.rx_ring_entries = Some(1);
    let programs: Vec<Box<dyn HostProgram>> = vec![
        Box::new(Streamer {
            msgs: 3,
            len: 4096,
            peer: dims.coord_of(1),
            send: true,
        }),
        Box::new(Streamer {
            msgs: 3,
            len: 4096,
            peer: dims.coord_of(0),
            send: false,
        }),
    ];
    let sink = SharedSink::capturing();
    let planes = Planes {
        trace: Some(sink.clone()),
        ..Planes::off()
    };
    let mut cluster = ClusterBuilder::new(dims, cfg)
        .planes(planes)
        .build(programs);
    let end = cluster.run();
    // Before the host reaps, the two completions behind the full ring
    // are parked, never delivered: the fold labels them itself.
    let mut records = sink.take();
    let held = collect_ledgers(&records);
    let ring_full = held.iter().filter(|l| l.error == Some("rx-ring-full"));
    assert_eq!(ring_full.count(), 2);
    // Reap the ring one entry at a time, well after the stream landed:
    // each pop releases one held completion, stamping its delivery.
    let card1 = cluster.cards[1];
    for i in 0..3u64 {
        cluster.sim.send(
            card1,
            end + SimDuration::from_us(10 * (i + 1)),
            Msg::Card(CardIn::RxRingPop { n: 1 }),
        );
    }
    cluster.run();
    assert_eq!(cluster.host(1).node.cq.delivered_count(), 3);

    records.extend(sink.take());
    let ledgers = collect_ledgers(&records);
    assert_eq!(ledgers.len(), 3);
    let mut waited = 0;
    for l in &ledgers {
        assert!(l.complete);
        assert_eq!(l.error, None, "delivered once reaped");
        l.assert_telescopes();
        if l.stage(Stage::RxRingWait) > SimDuration::ZERO {
            waited += 1;
            // The wait dwarfs the notify cost: the pops came 10 us+
            // after the card finished its work.
            assert!(l.stage(Stage::RxRingWait) > l.stage(Stage::RxNotify));
            assert_eq!(l.dominant_stage(), Stage::RxRingWait);
        }
    }
    assert_eq!(
        waited, 2,
        "the two completions behind the full ring are charged to rx_ring_wait"
    );
}

//! The observation planes through the facade: switching every plane on
//! changes nothing a run reports, every plane hands back what it
//! recorded, the tail and SLO planes read one ledger fold, and folding
//! as records arrive equals folding the capture afterwards. Planes are set
//! only in code, as a `Planes` value handed to a `*_with` entry point.

use apenet::cluster::harness::{
    chaos_run_with, incast_run_with, ChaosParams, ChaosReport, IncastParams, IncastReport,
    IncastVerb,
};
use apenet::cluster::node::FaultPlan;
use apenet::cluster::planes::{Planes, TailReport};
use apenet::cluster::presets::{
    cluster_i_chaos, cluster_i_hard_fault, cluster_i_hotspot, incast_dims,
};
use apenet::cluster::{NodeConfig, RunArtifacts};
use apenet::nic::coord::TorusDims;
use apenet::obs::alert::RuleSet;
use apenet::obs::latency::{collect_ledgers, TailConfig};
use apenet::obs::report::RunReport;
use apenet::obs::slo::SloConfig;
use apenet::sim::fault::FaultSpec;
use apenet::sim::trace::SharedSink;
use apenet::sim::{SimDuration, SimTime};

fn all_on() -> Planes {
    Planes {
        trace: Some(SharedSink::capturing()),
        sample: Some(SimDuration::from_us(2)),
        profile: true,
        tail: Some(TailConfig::default()),
        slo: Some(SloConfig::default()),
        pcie: Some(SharedSink::capturing()),
    }
}

/// Four messages of `msg_len` bytes per rank around a 2x1 ring.
fn ring_run(cfg: NodeConfig, msg_len: u64, planes: Planes) -> (ChaosReport, RunArtifacts) {
    let p = ChaosParams {
        msgs_per_rank: 4,
        msg_len,
        watchdog_reissue: true,
    };
    chaos_run_with(TorusDims::new(2, 1, 1), cfg, p, planes)
}

#[test]
fn every_plane_on_reports_identically_and_returns_artifacts() {
    let run = |planes| {
        let cfg = cluster_i_chaos(0x0091_A7E5, FaultSpec::chaos(1.0 / 50.0));
        ring_run(cfg, 16 * 1024, planes)
    };
    let (plain, none) = run(Planes::off());
    let (observed, art) = run(all_on());
    assert_eq!(
        format!("{plain:?}"),
        format!("{observed:?}"),
        "observation planes must not change a single report field"
    );
    assert_eq!(observed.delivered, observed.expected);

    assert!(none.trace.is_empty() && none.pcie.is_empty());
    assert!(none.profile.is_none() && none.sampler.is_none());
    assert!(none.tail.is_none() && none.slo.is_none());

    assert!(!art.trace.is_empty(), "span trace captured");
    assert!(!art.pcie.is_empty(), "bus analyzer saw the GPU reads");
    assert!(art.profile.expect("profile").total_events() > 0);
    assert!(art.sampler.expect("sampler").samples() > 0);
    assert_eq!(art.tail.expect("tail").summary.messages(), plain.expected);
    assert!(!art.slo.expect("slo").windows.is_empty());
}

#[test]
fn tail_and_slo_count_the_same_typed_errors() {
    // A node partition: PUTs to the isolated rank end in typed errors.
    // One fold of the capture feeds both planes, so the SLO windows,
    // the tail summary and the completion queues agree on the count.
    let dims = TorusDims::new(2, 1, 1);
    let mut cfg = cluster_i_hard_fault();
    cfg.faults =
        FaultPlan::none().kill_node(1, dims.coord_of(1), dims, SimTime::from_ps(10_000_000));
    let planes = Planes {
        tail: Some(TailConfig::default()),
        slo: Some(SloConfig::default()),
        ..Planes::off()
    };
    let (report, art) = ring_run(cfg, 32 * 1024, planes);
    assert!(
        report.error_completions > 0,
        "the partition failed some PUTs"
    );
    let slo = art.slo.expect("slo");
    let tail = art.tail.expect("tail");
    let window_errors: u64 = slo.windows.iter().map(|w| w.errors).sum();
    assert_eq!(window_errors, report.error_completions);
    assert_eq!(tail.summary.errors(), report.error_completions);
}

/// An unpaced 8→1 GET hotspot: queueing on rank 0's reply path
/// outlasts the watchdog, so some delivered ops also complete as
/// `Unreachable` (spurious escalations) and the completion-queue overlay
/// relabels spans the trace shows as complete.
fn hotspot_storm(planes: Planes) -> (IncastReport, RunArtifacts) {
    let p = IncastParams {
        senders: 8,
        msgs_per_sender: 16,
        msg_len: 32 * 1024,
        offered: 4,
        verb: IncastVerb::Get,
        pacer: None,
    };
    incast_run_with(incast_dims(), cluster_i_hotspot(false), p, planes)
}

#[test]
fn online_ledger_fold_equals_the_post_hoc_fold() {
    let slo_cfg = SloConfig {
        window: SimDuration::from_us(500),
        ..SloConfig::default()
    };
    let tail_cfg = TailConfig::default();
    let (report, art) = hotspot_storm(Planes {
        trace: Some(SharedSink::capturing()),
        tail: Some(tail_cfg),
        slo: Some(slo_cfg),
        ..Planes::off()
    });
    assert_eq!(report.delivered, report.expected);
    let (slo, tail) = (art.slo.expect("slo"), art.tail.expect("tail"));

    // Post hoc: fold the whole capture, then overlay the CQ errors. The
    // capture cannot name them, so the overlay takes the spans the run
    // labelled, checked against the completion queues' own count.
    let mut ledgers = collect_ledgers(&art.trace);
    let unreachable: Vec<_> = tail
        .summary
        .ledgers
        .iter()
        .filter(|l| l.error == Some("unreachable"))
        .map(|l| l.span)
        .collect();
    assert!(!unreachable.is_empty(), "the watchdog escalated some GETs");
    assert_eq!(unreachable.len() as u64, report.error_completions);
    for l in ledgers.iter_mut().filter(|l| unreachable.contains(&l.span)) {
        assert_eq!(l.error, None, "the trace alone labels no CQ error");
        l.error = Some("unreachable");
    }
    let post_slo = RunReport::build(&ledgers, slo_cfg, &RuleSet::default());
    let post_tail = TailReport::build(ledgers, &art.trace, tail_cfg);
    assert_eq!(format!("{slo:?}"), format!("{post_slo:?}"));
    assert_eq!(
        slo.registry.snapshot_json(),
        post_slo.registry.snapshot_json()
    );
    assert_eq!(format!("{tail:?}"), format!("{post_tail:?}"));
    assert_eq!(
        tail.registry.snapshot_json(),
        post_tail.registry.snapshot_json()
    );

    // SLO alone keeps no record and reports the same.
    let (slo_report, slo_art) = hotspot_storm(Planes {
        slo: Some(slo_cfg),
        ..Planes::off()
    });
    assert_eq!(format!("{report:?}"), format!("{slo_report:?}"));
    assert!(slo_art.trace.is_empty(), "an SLO-only run captures nothing");
    assert!(slo_art.tail.is_none());
    let slo_only = slo_art.slo.expect("slo");
    assert_eq!(format!("{slo:?}"), format!("{slo_only:?}"));
    assert_eq!(
        slo.registry.snapshot_json(),
        slo_only.registry.snapshot_json()
    );
}

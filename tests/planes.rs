//! The observation planes through the facade: switching every plane on
//! changes nothing a run reports, every plane hands back what it
//! recorded, the tail and SLO planes read one fold of the capture, and
//! each env grammar rejects malformed values loudly.

use apenet::cluster::harness::{chaos_run_with, ChaosParams, ChaosReport};
use apenet::cluster::node::FaultPlan;
use apenet::cluster::planes::{
    parse_profile, parse_sample, parse_slo, parse_tail, parse_trace, Planes,
};
use apenet::cluster::presets::{cluster_i_chaos, cluster_i_hard_fault};
use apenet::cluster::{NodeConfig, RunArtifacts};
use apenet::nic::coord::TorusDims;
use apenet::obs::latency::TailConfig;
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

#[test]
fn each_grammar_rejects_a_malformed_value() {
    assert_eq!(parse_trace("ring:0").err().unwrap().var, "APENET_TRACE");
    assert_eq!(parse_sample("5s").unwrap_err().var, "APENET_SAMPLE");
    assert_eq!(parse_profile("yes").unwrap_err().var, "APENET_PROFILE");
    assert_eq!(parse_tail("p95").unwrap_err().var, "APENET_TAIL");
    let e = parse_slo("garbage").unwrap_err();
    assert_eq!((e.var, e.value.as_str()), ("APENET_SLO", "garbage"));
    assert!(e.to_string().contains(e.grammar));
    // `ms` is a duration suffix, not a silent fallback.
    let cfg = parse_slo("5ms").unwrap().unwrap();
    assert_eq!(cfg.window, SimDuration::from_us(5_000));
}

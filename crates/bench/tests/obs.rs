//! Observability-plane integration tests: the Perfetto export of a real
//! two-node ping-pong loads with correctly nested spans, the span-trace
//! latency breakdown agrees with Fig. 4's bandwidth values, and enabling
//! tracing never changes what a run measures.

use apenet_bench::count_for;
use apenet_bench::figs::latency_breakdown;
use apenet_cluster::harness::{
    chaos_run, chaos_run_with, flush_read_bandwidth, get_chaos_run, pingpong_with,
    two_node_bandwidth, two_node_profiled, two_node_with, BufSide, ChaosParams, TwoNodeParams,
};
use apenet_cluster::presets::{cluster_i_chaos, cluster_i_default, plx_node};
use apenet_cluster::{OccupancySampler, Planes};
use apenet_core::config::GpuTxVersion;
use apenet_core::coord::{LinkDir, TorusDims};
use apenet_gpu::GpuArch;
use apenet_obs::perfetto;
use apenet_sim::fault::FaultSpec;
use apenet_sim::trace::{kind, SharedSink};
use apenet_sim::{SimDuration, SimTime};

fn chaos_cfg() -> apenet_cluster::NodeConfig {
    // Soft chaos on every link *and* a hard cable kill mid-run, with
    // fault-aware routing so delivery still completes: together they
    // light up every metric family the cards and watchdog publish.
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

fn trace_plane() -> Planes {
    Planes {
        trace: Some(SharedSink::capturing()),
        ..Planes::off()
    }
}

fn sample_plane() -> Planes {
    Planes {
        sample: Some(SimDuration::from_us(2)),
        ..Planes::off()
    }
}

#[test]
fn pingpong_perfetto_export_nests_and_parses() {
    let (half_rtt, artifacts) = pingpong_with(
        cluster_i_default(),
        BufSide::Gpu,
        BufSide::Gpu,
        4096,
        4,
        false,
        trace_plane(),
    );
    let records = artifacts.trace;
    assert!(half_rtt.as_ps() > 0);
    assert!(!records.is_empty(), "tracing captured the exchange");
    // Both directions of the exchange carry spans: rank 0's and rank 1's
    // messages each produce post → … → delivered chains.
    assert!(records.iter().any(|r| r.kind == kind::POST));
    assert!(records.iter().any(|r| r.kind == kind::FRAME_RX));
    assert!(records.iter().any(|r| r.kind == kind::DELIVERED));
    let spans: std::collections::BTreeSet<_> = records.iter().filter_map(|r| r.span).collect();
    assert!(spans.len() >= 2, "one span per PUT in the exchange");

    let events = perfetto::export(&records);
    let slices = perfetto::validate_nesting(&events).expect("slices nest");
    assert!(slices >= spans.len(), "a parent slice per span at least");
    let json = perfetto::to_json(&events);
    perfetto::json_sanity(&json).expect("export is valid JSON");
    assert!(json.contains("\"traceEvents\""));
}

#[test]
fn latency_breakdown_matches_fig04_bandwidth() {
    // The breakdown's GPU-read section runs the exact Fig. 4 "v2
    // window=32KB" configuration with tracing added; observation must
    // not move a single measured value.
    let sizes = [4096u64, 32 * 1024];
    let rows = latency_breakdown::read_stages(&sizes);
    for (row, &size) in rows.iter().zip(&sizes) {
        let cfg = plx_node(GpuArch::Fermi2050, GpuTxVersion::V2, 32 * 1024);
        let fig04 = flush_read_bandwidth(cfg, BufSide::Gpu, size, count_for(size));
        assert_eq!(
            row.mb_per_sec.to_bits(),
            fig04.bandwidth.mb_per_sec_f64().to_bits(),
            "size {size}: breakdown bandwidth must equal fig04's bit-exactly"
        );
        assert!(row.setup_us > 0.0 && row.head_us > 0.0, "size {size}");
    }
}

#[test]
fn gg_stage_partition_is_exact() {
    let rows = latency_breakdown::gg_stages(&[4096, 65_536]);
    for r in rows {
        let sum = r.tx_pipeline_us + r.link_us + r.rx_us;
        assert!(
            (sum - r.total_us).abs() < 1e-6,
            "size {}: phases must partition the span ({sum} vs {})",
            r.size,
            r.total_us
        );
        assert!(r.total_us > 0.0, "size {}", r.size);
        assert!(r.frames_per_msg >= 1.0, "size {}", r.size);
    }
}

#[test]
fn tracing_does_not_change_measurements() {
    let p = TwoNodeParams {
        src: BufSide::Gpu,
        dst: BufSide::Gpu,
        size: 32 * 1024,
        count: 8,
        staged: false,
    };
    let plain = two_node_bandwidth(cluster_i_default(), p);
    let (traced, artifacts) = two_node_with(cluster_i_default(), p, trace_plane());
    assert!(!artifacts.trace.is_empty());
    // BwResult is plain data: Debug formatting covers every field.
    assert_eq!(
        format!("{plain:?}"),
        format!("{traced:?}"),
        "trace-on and trace-off runs must measure identically"
    );
}

#[test]
fn sampling_is_deterministic_and_never_perturbs() {
    let cfg = || cluster_i_chaos(0x5A3D_1E57, FaultSpec::chaos(1.0 / 50.0));
    let dims = TorusDims::new(2, 1, 1);
    let plain = chaos_run(dims, cfg(), chaos_params());
    let (sampled, artifacts) = chaos_run_with(dims, cfg(), chaos_params(), sample_plane());
    let s1: OccupancySampler = artifacts.sampler.expect("sample plane on");
    // The sampler observes between events and schedules nothing: the
    // sampled run's report — end time, deliveries, every fault counter —
    // is identical to the unsampled run's. ChaosReport is plain data,
    // so Debug formatting covers every field.
    assert_eq!(
        format!("{plain:?}"),
        format!("{sampled:?}"),
        "sampling must not change a single scheduled event"
    );
    assert!(s1.samples() > 0, "the run is long enough to tick");
    assert!(!s1.series().is_empty());
    // Same seed, same period: the recorded series are byte-identical.
    let (_, artifacts) = chaos_run_with(dims, cfg(), chaos_params(), sample_plane());
    let s2 = artifacts.sampler.expect("sample plane on");
    assert_eq!(
        s1.registry().snapshot_json(),
        s2.registry().snapshot_json(),
        "sampled time series must replay bit-exactly"
    );
    // The wire-byte series the heatmap differentiates is cumulative.
    let series = s1.series();
    let (_, wire) = series
        .iter()
        .find(|(id, _)| id == "card0.link.x+.wire_bytes")
        .expect("rank 0's x+ port carried the ring traffic");
    assert!(wire.windows(2).all(|w| w[0].1 <= w[1].1), "cumulative");
    assert!(wire.last().unwrap().1 > 0);
}

#[test]
fn profiler_partitions_a_real_run_exactly() {
    let p = TwoNodeParams {
        src: BufSide::Gpu,
        dst: BufSide::Gpu,
        size: 64 * 1024,
        count: 8,
        staged: false,
    };
    let plain = two_node_bandwidth(cluster_i_default(), p);
    let (profiled, prof) = two_node_profiled(cluster_i_default(), p);
    assert_eq!(
        format!("{plain:?}"),
        format!("{profiled:?}"),
        "profiling must not change what a run measures"
    );
    // The 100 % property on a real workload: buckets + idle == span.
    prof.assert_exact();
    assert!(prof.span_ps > 0);
    assert!(prof.total_events() > 0);
    assert_eq!(prof.idle_ps, 0, "run() never idles forward");
    // Both actor kinds of a cluster run show up as components.
    let comps = prof.by_component();
    assert!(comps.iter().any(|(c, _)| c == "apenet-card"));
    assert!(comps.iter().any(|(c, _)| c == "host"));
}

#[test]
fn sampled_pingpong_exports_valid_counter_tracks() {
    // The trace-export bin's exact recipe: spans and counter tracks from
    // one sampled ping-pong, merged into a single validated trace.
    let planes = Planes {
        sample: Some(SimDuration::from_us(2)),
        ..trace_plane()
    };
    let (half_rtt, artifacts) = pingpong_with(
        cluster_i_default(),
        BufSide::Gpu,
        BufSide::Gpu,
        4096,
        4,
        false,
        planes,
    );
    assert!(half_rtt.as_ps() > 0);
    let mut events = perfetto::export(&artifacts.trace);
    let series: Vec<_> = artifacts
        .sampler
        .expect("sample plane on")
        .series()
        .into_iter()
        .filter(|(_, pts)| pts.iter().any(|&(_, v)| v != 0))
        .collect();
    assert!(!series.is_empty(), "a live run leaves nonzero series");
    events.extend(perfetto::counter_events(&series));
    let checked = perfetto::validate_nesting(&events).expect("slices and counters validate");
    assert!(checked > 0);
    let json = perfetto::to_json(&events);
    perfetto::json_sanity(&json).expect("merged export is valid JSON");
    assert!(json.contains("\"ph\": \"C\""), "counter samples present");
}

#[test]
fn metrics_all_declares_every_published_id() {
    // A GET run under the same chaos-plus-cable-kill plan: one-sided
    // reads light up the `get.*` protocol counters and the send-queue
    // moderation ids on top of every family the PUT path publishes.
    let report = get_chaos_run(
        TorusDims::new(4, 2, 1),
        chaos_cfg(),
        chaos_params(),
        apenet_rdma::signal::SignalConfig::default(),
    );
    let declared: std::collections::BTreeSet<&str> = apenet_core::card::metrics::ALL
        .iter()
        .chain(apenet_rdma::driver::metrics::ALL.iter())
        .chain(apenet_rdma::signal::metrics::ALL.iter())
        .chain(apenet_rdma::pacing::metrics::ALL.iter())
        .copied()
        .collect();
    for id in report.metrics.0.keys() {
        assert!(
            declared.contains(id.as_str()),
            "metric {id:?} was published but is missing from metrics::ALL \
             (add it so dashboards and the completeness check see it)"
        );
    }
    // The run must actually have exercised every publisher: soft-chaos
    // link counters from the cards, the GET protocol, and send-queue
    // moderation. (The watchdog registers its ids even while silent.)
    assert!(report.metrics.get(apenet_core::card::metrics::RETRANSMITS) > 0);
    assert!(report.metrics.get(apenet_core::card::metrics::LINK_DEAD) > 0);
    assert!(report.metrics.get(apenet_core::card::metrics::GET_REQUESTS) > 0);
    assert!(report.metrics.get(apenet_core::card::metrics::GET_SERVED) > 0);
    assert!(
        report
            .metrics
            .get(apenet_rdma::signal::metrics::CQ_SIGNALED)
            > 0
    );
    assert!(
        report
            .metrics
            .get(apenet_rdma::signal::metrics::DOORBELL_BATCHED)
            > 0,
        "default batch=8 must cover some doorbells"
    );
    assert!(
        report.metrics.0.keys().count() >= declared.len(),
        "every declared id is registered by attach/publish, even at zero"
    );
}

#[test]
fn overload_metric_ids_are_complete_both_ways() {
    use apenet_cluster::harness::{incast_run, IncastParams, IncastVerb};
    use apenet_cluster::presets::{cluster_i_incast, incast_dims};
    use apenet_rdma::pacing::PacerConfig;

    // A plane-on incast storm exercises every `ecn.*`, `cwnd.*` and
    // `admission.*` publisher at once (the pacer's deadline counter is
    // registered at zero — a healthy storm never expires an op).
    let report = incast_run(
        incast_dims(),
        cluster_i_incast(true),
        IncastParams {
            senders: 8,
            msgs_per_sender: 32,
            msg_len: 32 * 1024,
            offered: 4,
            verb: IncastVerb::Put,
            pacer: Some(PacerConfig::default()),
        },
    );
    // Forward: nothing published that isn't declared. The incast run
    // publishes the same card/watchdog families as a chaos run plus the
    // pacing ids and the per-pacer `cwnd.r<rank>.d<dst>` gauges mirrored
    // from the congestion-window time series.
    let declared: std::collections::BTreeSet<&str> = apenet_core::card::metrics::ALL
        .iter()
        .chain(apenet_rdma::driver::metrics::ALL.iter())
        .chain(apenet_rdma::signal::metrics::ALL.iter())
        .chain(apenet_rdma::pacing::metrics::ALL.iter())
        .copied()
        .collect();
    for id in report.metrics.0.keys() {
        assert!(
            declared.contains(id.as_str()) || id.starts_with("cwnd.r"),
            "metric {id:?} was published but is missing from metrics::ALL"
        );
    }
    // Backward: every declared overload id is present in the snapshot —
    // and the storm genuinely moved the ones a clean run can't.
    for id in apenet_rdma::pacing::metrics::ALL {
        assert!(
            report.metrics.0.contains_key(id),
            "declared id {id:?} missing from the run's snapshot"
        );
    }
    assert!(report.metrics.get(apenet_core::card::metrics::ECN_MARKED) > 0);
    assert!(report.metrics.get(apenet_core::card::metrics::ECN_ECHOED) > 0);
    assert!(
        report
            .metrics
            .get(apenet_rdma::pacing::metrics::CWND_DECREASES)
            > 0
    );
    assert!(
        report
            .metrics
            .get(apenet_rdma::pacing::metrics::CWND_INCREASES)
            > 0
    );
    assert!(report.metrics.get(apenet_rdma::pacing::metrics::THROTTLED) > 0);
}

#[test]
fn registry_snapshot_is_valid_json() {
    // The global registry serializes to JSON that our own strict parser
    // accepts, whatever state previous tests left it in.
    apenet_obs::global().add("obs.test.counter", 3);
    let json = apenet_obs::global().snapshot_json();
    perfetto::json_sanity(&json).expect("registry snapshot parses");
    assert!(json.contains("\"obs.test.counter\": 3"));
}

#[test]
fn slo_metric_ids_are_complete_both_ways() {
    use apenet_cluster::harness::{incast_run_slo, IncastParams, IncastVerb};
    use apenet_cluster::presets::{cluster_i_incast, incast_dims};
    use apenet_obs::report::metrics;
    use apenet_obs::slo::SloConfig;
    use apenet_rdma::pacing::PacerConfig;

    // A paced storm held to the tight default objective (50 µs
    // threshold — multi-hop 16 KiB PUTs can't make that) lights up
    // every SLO-plane publisher at once: windows fold, the budget
    // burns, and the pager fires, so even `alert.timeline` gets points.
    let (_, slo) = incast_run_slo(
        incast_dims(),
        cluster_i_incast(true),
        IncastParams {
            senders: 8,
            msgs_per_sender: 8,
            msg_len: 16 * 1024,
            offered: 4,
            verb: IncastVerb::Put,
            pacer: Some(PacerConfig::default()),
        },
        SloConfig::default(),
    );
    // Forward: nothing published into the plane's registry that isn't
    // declared. The SLO report owns its registry, so the only residents
    // beyond `window.*`/`slo.*`/`alert.*` are the `cwnd.r<rank>.d<dst>`
    // series mirrored from the storm for the trace-export counter view.
    let declared: std::collections::BTreeSet<&str> = metrics::COUNTERS
        .iter()
        .chain(metrics::SERIES.iter())
        .copied()
        .collect();
    for id in slo.registry.counters().0.keys() {
        assert!(
            declared.contains(id.as_str()),
            "counter {id:?} was published but is missing from report::metrics"
        );
    }
    for id in slo.registry.series_ids() {
        assert!(
            declared.contains(id.as_str()) || id.starts_with("cwnd.r"),
            "series {id:?} was published but is missing from report::metrics"
        );
    }
    // Backward: every declared id is present — registration is
    // unconditional, so a silent regime publishes zeros, not holes.
    let snapshot = slo.registry.counters();
    for id in metrics::COUNTERS {
        assert!(
            snapshot.0.contains_key(id),
            "declared counter {id:?} missing from the SLO registry"
        );
    }
    for id in metrics::SERIES {
        assert!(
            slo.registry.series_ids().iter().any(|s| s == id),
            "declared series {id:?} missing from the SLO registry"
        );
    }
    // The storm genuinely moved the plane: windows folded, the tight
    // objective burned, the pager fired, and both series carry points.
    assert!(snapshot.get(metrics::WINDOW_COUNT) > 0);
    assert!(snapshot.get(metrics::SLO_TOTAL) > 0);
    assert!(snapshot.get(metrics::SLO_BAD) > 0);
    assert_eq!(snapshot.get(metrics::SLO_MET), 0, "tight objective missed");
    assert!(snapshot.get(metrics::ALERT_FIRED) > 0);
    assert!(!slo.registry.series(metrics::WINDOW_P99).is_empty());
    assert!(!slo.registry.series(metrics::ALERT_TIMELINE).is_empty());
    assert!(
        slo.registry
            .series_ids()
            .iter()
            .any(|s| s.starts_with("cwnd.r")),
        "paced storm mirrors its cwnd series into the SLO registry"
    );
}

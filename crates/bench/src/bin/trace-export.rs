//! Capture a two-node G-G RDMA ping-pong with span tracing enabled and
//! export it as Chrome/Perfetto `trace_event` JSON
//! (`results/trace_pingpong.json`; open in <https://ui.perfetto.dev> or
//! `chrome://tracing`). The same run is occupancy-sampled, so the file
//! also carries counter tracks (queue depths, link wire bytes, firmware
//! busy time) under the message slices — one shared timeline. Exits
//! non-zero if the export fails to parse as JSON or its slices/counters
//! do not validate — this is the CI smoke test for the exporter.
//!
//! A second export (`results/trace_incast.json`) captures a small paced
//! incast storm with the SLO plane on: message spans plus the overload
//! plane's per-destination congestion windows (`cwnd.r*`) and the SLO
//! engine's per-window p99 (`window.p99`) as counter tracks, so the
//! AIMD sawtooth and the latency envelope it produces are visible on
//! one timeline under the spans they shaped.

use apenet_bench::results_dir;
use apenet_cluster::harness::{
    incast_run_slo_traced, pingpong_with, BufSide, IncastParams, IncastVerb,
};
use apenet_cluster::presets::{cluster_i_default, cluster_i_incast, incast_dims};
use apenet_cluster::Planes;
use apenet_obs::perfetto;
use apenet_obs::report::metrics;
use apenet_obs::slo::SloConfig;
use apenet_rdma::pacing::PacerConfig;
use apenet_sim::trace::SharedSink;
use apenet_sim::SimDuration;

/// Validate `events`, render to JSON, sanity-check, and write
/// `results/<name>`. Exits non-zero on any validation failure.
fn validate_and_write(name: &str, events: &[perfetto::TraceEvent]) -> usize {
    let checked = match perfetto::validate_nesting(events) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("[trace-export] FAIL {name}: slices/counters do not validate: {e}");
            std::process::exit(1);
        }
    };
    let json = perfetto::to_json(events);
    if let Err(e) = perfetto::json_sanity(&json) {
        eprintln!("[trace-export] FAIL {name}: export is not valid JSON: {e}");
        std::process::exit(1);
    }
    let path = results_dir().join(name);
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {name}: {e}"));
    checked
}

/// The incast-storm export: spans + `cwnd.r*`/`window.p99` counters.
fn export_incast() {
    let (report, slo, records) = incast_run_slo_traced(
        incast_dims(),
        cluster_i_incast(true),
        IncastParams {
            senders: 8,
            msgs_per_sender: 4,
            msg_len: 32 * 1024,
            offered: 4,
            verb: IncastVerb::Put,
            pacer: Some(PacerConfig::default()),
        },
        SloConfig::default(),
    );
    assert!(report.payload_ok, "incast storm delivers byte-exact");
    // Paced storm messages from one rank overlap in time, so the
    // per-rank shared tracks of `export` would straddle; the per-span
    // view keeps nesting by construction.
    let mut events = perfetto::export_per_span(&records);
    let series: Vec<_> = slo
        .registry
        .series_ids()
        .into_iter()
        .filter(|id| id.starts_with("cwnd.") || id == metrics::WINDOW_P99)
        .map(|id| {
            let pts = slo.registry.series(&id).points();
            (id, pts)
        })
        .filter(|(_, pts)| !pts.is_empty())
        .collect();
    assert!(
        series.iter().any(|(id, _)| id.starts_with("cwnd.")),
        "paced storm publishes cwnd tracks"
    );
    assert!(
        series.iter().any(|(id, _)| id == metrics::WINDOW_P99),
        "SLO plane publishes the per-window p99 track"
    );
    let counters = perfetto::counter_events(&series);
    let n_counters = counters.len();
    events.extend(counters);
    let checked = validate_and_write("trace_incast.json", &events);
    eprintln!(
        "[trace-export] {} storm records -> {} events ({checked} slices+counters validated, \
         {} counter tracks x {n_counters} samples) -> trace_incast.json",
        records.len(),
        events.len(),
        series.len(),
    );
}

fn main() {
    let planes = Planes {
        trace: Some(SharedSink::capturing()),
        sample: Some(SimDuration::from_us(2)),
        ..Planes::off()
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
    let records = artifacts.trace;
    let mut events = perfetto::export(&records);
    // Counter tracks: every sampled series that ever left zero (the
    // all-zero ones add bulk, not information).
    let series: Vec<_> = artifacts
        .sampler
        .expect("sample plane on")
        .series()
        .into_iter()
        .filter(|(_, pts)| pts.iter().any(|&(_, v)| v != 0))
        .collect();
    let counters = perfetto::counter_events(&series);
    let n_counters = counters.len();
    events.extend(counters);
    let checked = validate_and_write("trace_pingpong.json", &events);
    eprintln!(
        "[trace-export] {} trace records -> {} events ({checked} slices+counters validated, \
         {} counter tracks x {n_counters} samples), half RTT {half_rtt} -> trace_pingpong.json",
        records.len(),
        events.len(),
        series.len(),
    );
    export_incast();
}

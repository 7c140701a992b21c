//! The two Perfetto `trace_event` exports behind the `trace-export`
//! binary, as functions that return the JSON text, so a test can
//! regenerate them in-process and compare them byte for byte with
//! `results/`.
//!
//! * [`pingpong`] — a two-node G-G RDMA ping-pong with span tracing and
//!   occupancy sampling: message slices over counter tracks (queue
//!   depths, replay occupancy, link wire bytes, firmware busy time).
//! * [`incast`] — a small paced incast storm with the SLO plane on:
//!   message spans plus the overload plane's per-destination congestion
//!   windows (`cwnd.r*`) and the SLO engine's per-window p99
//!   (`window.p99`).

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

/// One rendered export and what went into it.
pub struct Export {
    /// The `trace_event` JSON text.
    pub json: String,
    /// Trace records captured by the run.
    pub records: usize,
    /// Events exported (slices, counters, metadata).
    pub events: usize,
    /// Slices and counters that passed the nesting check.
    pub checked: usize,
    /// Counter tracks exported.
    pub tracks: usize,
    /// Counter samples exported.
    pub samples: usize,
}

/// Validate `events` and render them to JSON. Errors when slices or
/// counters do not nest, or the rendering is not valid JSON.
fn render(
    events: &[perfetto::TraceEvent],
    records: usize,
    tracks: usize,
    samples: usize,
) -> Result<Export, String> {
    let checked = perfetto::validate_nesting(events)
        .map_err(|e| format!("slices/counters do not validate: {e}"))?;
    let json = perfetto::to_json(events);
    perfetto::json_sanity(&json).map_err(|e| format!("export is not valid JSON: {e}"))?;
    Ok(Export {
        json,
        records,
        events: events.len(),
        checked,
        tracks,
        samples,
    })
}

/// The ping-pong export (`trace_pingpong.json`) and the half round-trip
/// time it measured.
pub fn pingpong() -> Result<(Export, SimDuration), String> {
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
    let samples = counters.len();
    events.extend(counters);
    let export = render(&events, records.len(), series.len(), samples)?;
    Ok((export, half_rtt))
}

/// The incast-storm export (`trace_incast.json`): spans plus the
/// `cwnd.r*` and `window.p99` counter tracks.
pub fn incast() -> Result<Export, String> {
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
    if !report.payload_ok {
        return Err("incast storm delivered corrupted bytes".into());
    }
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
    if !series.iter().any(|(id, _)| id.starts_with("cwnd.")) {
        return Err("paced storm published no cwnd track".into());
    }
    if !series.iter().any(|(id, _)| id == metrics::WINDOW_P99) {
        return Err("SLO plane published no per-window p99 track".into());
    }
    let counters = perfetto::counter_events(&series);
    let samples = counters.len();
    events.extend(counters);
    render(&events, records.len(), series.len(), samples)
}

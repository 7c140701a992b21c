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
//!
//! Both exports are built by [`apenet_bench::trace_export`].

use apenet_bench::results_dir;
use apenet_bench::trace_export::{self, Export};

/// Write `export` to `results/<name>`, or exit non-zero on `Err`.
fn write(name: &str, export: Result<Export, String>, what: &str) {
    let e = export.unwrap_or_else(|e| {
        eprintln!("[trace-export] FAIL {name}: {e}");
        std::process::exit(1);
    });
    let path = results_dir().join(name);
    std::fs::write(&path, &e.json).unwrap_or_else(|err| panic!("write {name}: {err}"));
    eprintln!(
        "[trace-export] {} {what} -> {} events ({} slices+counters validated, \
         {} counter tracks x {} samples) -> {name}",
        e.records, e.events, e.checked, e.tracks, e.samples,
    );
}

fn main() {
    let pingpong = trace_export::pingpong().map(|(export, half_rtt)| {
        eprintln!("[trace-export] ping-pong half RTT {half_rtt}");
        export
    });
    write("trace_pingpong.json", pingpong, "trace records");
    write("trace_incast.json", trace_export::incast(), "storm records");
}

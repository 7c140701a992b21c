//! # apenet-obs — the observability plane
//!
//! The paper's evaluation is built on instrumentation: a PCIe bus
//! analyzer interposed on the Gen2 link (Fig. 3) and Nios II cycle
//! counters decomposing per-message latency (Fig. 4, Table 1). This
//! crate is the reproduction's equivalent — a measurement substrate
//! that every perf PR can use to prove where simulated nanoseconds go:
//!
//! * [`registry`] — a deterministic typed metrics registry (counters,
//!   percentile digests, sampled time series) keyed by stable string ids
//!   and snapshotted to sorted JSON.
//! * [`breakdown`] — folds span-correlated [`apenet_sim::trace`]
//!   records into per-message phase decompositions (post → fetch →
//!   wire → delivery).
//! * [`latency`] — the tail-forensics ledger: per-message exact stage
//!   decompositions (telescoping to end-to-end latency), tail
//!   selection above a configurable quantile, and dominant-stage
//!   blame attribution.
//! * [`digest`] — deterministic streaming percentile digests with
//!   exact nearest-rank p50/p90/p99/p999 at the repo's event counts.
//! * [`recorder`] — the flight recorder: bounded retroactive
//!   retention of full span traces for tail and error messages, with
//!   self-validating Perfetto dumps (on demand or on first fault).
//! * [`perfetto`] — exports those spans as Chrome/Perfetto
//!   `trace_event` JSON keyed by simulated time — span slices plus
//!   counter tracks fed by the occupancy sampler — with a
//!   dependency-free JSON sanity parser and a nesting/counter
//!   validator used by CI.
//! * [`heatmap`] — deterministic ASCII congestion heatmaps (per-link
//!   utilization over time) rendered from sampled byte counters.
//! * [`gate`] — the perf-regression comparator: fresh `BENCH_*.json`
//!   vs. committed baselines with per-metric tolerances.
//! * [`window`] — tumbling sim-time windows folding per-message
//!   latency ledgers into per-window percentile digests, with a
//!   merge whose window-split result provably bounds the whole-run
//!   digest.
//! * [`slo`] — declared objectives (latency threshold + good-fraction
//!   target) with exact integer error-budget accounting per window.
//! * [`alert`] — the deterministic rule engine: single-window
//!   threshold rules plus SRE-style multi-window burn-rate rules,
//!   emitting a typed sim-timestamped alert timeline.
//! * [`report`] — the unified run report: fold + evaluate + alert +
//!   publish `window.*`/`slo.*`/`alert.*` into the plane's own
//!   registry, rendered as a CI-diffable text artifact.
//! * [`error`] — typed errors ([`ObsError`]) for the plane's
//!   user-facing surfaces (registry lookups, exporter output).
//!
//! Everything here is observation-only: sinks and registries never
//! schedule events, so metrics-on and metrics-off runs are
//! byte-identical (the golden-digest tests enforce this).

pub mod alert;
pub mod breakdown;
pub mod digest;
pub mod error;
pub mod gate;
pub mod heatmap;
pub mod latency;
pub mod perfetto;
pub mod recorder;
pub mod registry;
pub mod report;
pub mod slo;
pub mod window;

pub use error::ObsError;
pub use registry::{global, Counter, CounterSnapshot, Digest, Registry, TimeSeries};

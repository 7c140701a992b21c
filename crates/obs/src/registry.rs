//! Deterministic typed metrics registry.
//!
//! Stable string ids map to typed metric slots. Handles are cheap
//! `Arc` clones, so hot paths pay one relaxed atomic op per update and
//! never touch the registry map again after the first lookup. The
//! registry is `Send + Sync` (the parallel sweep harness runs clusters
//! on worker threads), but it only *accumulates* — nothing in here can
//! schedule simulation events, so metrics-on runs stay byte-identical
//! with metrics-off runs.
//!
//! Snapshots are sorted (BTreeMap order), so two runs of the same
//! schedule serialize to the same bytes — snapshot JSON is diffable and digestable like every
//! other artifact in this repo.

use crate::digest::PercentileDigest;
use crate::error::ObsError;
use apenet_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Monotonic event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sampled time series: `(simulated ps, value)` observations appended
/// by the occupancy sampler. Append-only and sim-time-keyed, so a
/// deterministic schedule produces a byte-identical series; the sampler
/// reads component state and never schedules events.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    inner: Arc<Mutex<Vec<(u64, u64)>>>,
}

impl TimeSeries {
    /// Append one observation at simulated time `at`.
    pub fn push(&self, at: SimTime, value: u64) {
        self.inner.lock().unwrap().push((at.as_ps(), value));
    }

    /// All `(ps, value)` observations in append order.
    pub fn points(&self) -> Vec<(u64, u64)> {
        self.inner.lock().unwrap().clone()
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// True when no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest observed value (0 for an empty series).
    pub fn max_value(&self) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .iter()
            .map(|&(_, v)| v)
            .max()
            .unwrap_or(0)
    }
}

/// Exact-quantile digest backed by [`PercentileDigest`] (nearest-rank
/// p50/p90/p99/p999 — real quantiles, not power-of-two bucket bounds).
#[derive(Debug, Clone, Default)]
pub struct Digest(Arc<Mutex<PercentileDigest>>);

impl Digest {
    /// Record one value (typically a duration in picoseconds).
    pub fn record(&self, v: u64) {
        self.0.lock().unwrap().record(v);
    }

    /// Record a simulated duration in picoseconds.
    pub fn record_duration(&self, d: SimDuration) {
        self.record(d.as_ps());
    }

    /// The nearest-rank `q`-quantile, `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.0.lock().unwrap().quantile(q)
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.0.lock().unwrap().count()
    }

    /// Run `f` against the underlying digest.
    pub fn with<R>(&self, f: impl FnOnce(&mut PercentileDigest) -> R) -> R {
        f(&mut self.0.lock().unwrap())
    }
}

#[derive(Debug, Clone)]
enum Slot {
    Counter(Counter),
    Digest(Digest),
    Series(TimeSeries),
}

impl Slot {
    fn type_name(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Digest(_) => "digest",
            Slot::Series(_) => "series",
        }
    }
}

/// Sorted point-in-time copy of every counter, used for deltas across a
/// run (the repro-all `link_reliability` section) and equality asserts
/// in the chaos suite.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot(pub BTreeMap<String, u64>);

impl CounterSnapshot {
    /// Value of `id`, or 0 when the counter was never registered.
    pub fn get(&self, id: &str) -> u64 {
        self.0.get(id).copied().unwrap_or(0)
    }

    /// Per-id difference `self - earlier` (counters are monotonic, so
    /// this is the activity between the two snapshots). Ids absent from
    /// `earlier` count from zero.
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot(
            self.0
                .iter()
                .map(|(k, &v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }

    /// True when every counter is zero.
    pub fn is_all_zero(&self) -> bool {
        self.0.values().all(|&v| v == 0)
    }
}

/// Typed metrics registry: stable string id -> metric slot.
///
/// Get-or-create semantics — asking for `counter("x")` twice yields two
/// handles on the same atomic. Asking for the same id with a different
/// type is a programming error and panics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    slots: Arc<Mutex<BTreeMap<String, Slot>>>,
}

impl Registry {
    /// A fresh, empty registry (per-experiment scopes, tests).
    pub fn new() -> Self {
        Registry::default()
    }

    fn slot(&self, id: &str, make: impl FnOnce() -> Slot) -> Slot {
        let mut slots = self.slots.lock().unwrap();
        slots.entry(id.to_string()).or_insert_with(make).clone()
    }

    fn mismatch(id: &str, want: &'static str, got: &Slot) -> ObsError {
        ObsError::MetricType {
            id: id.to_string(),
            want,
            got: got.type_name(),
        }
    }

    /// Get or create the counter `id`; `Err` when the id is already
    /// registered under a different metric type.
    pub fn try_counter(&self, id: &str) -> Result<Counter, ObsError> {
        match self.slot(id, || Slot::Counter(Counter::default())) {
            Slot::Counter(c) => Ok(c),
            other => Err(Self::mismatch(id, "counter", &other)),
        }
    }

    /// Get or create the counter `id` (panics on a type mismatch — the
    /// infallible form for statically-known ids; user-driven lookups
    /// should prefer [`Registry::try_counter`]).
    pub fn counter(&self, id: &str) -> Counter {
        self.try_counter(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Get or create the percentile digest `id`; `Err` on a type
    /// mismatch.
    pub fn try_digest(&self, id: &str) -> Result<Digest, ObsError> {
        match self.slot(id, || Slot::Digest(Digest::default())) {
            Slot::Digest(d) => Ok(d),
            other => Err(Self::mismatch(id, "digest", &other)),
        }
    }

    /// Get or create the percentile digest `id` (panics on a type
    /// mismatch).
    pub fn digest(&self, id: &str) -> Digest {
        self.try_digest(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Ids of every registered digest (sorted).
    pub fn digest_ids(&self) -> Vec<String> {
        let slots = self.slots.lock().unwrap();
        slots
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Digest(_) => Some(k.clone()),
                _ => None,
            })
            .collect()
    }

    /// Get or create the sampled time series `id`; `Err` on a type
    /// mismatch.
    pub fn try_series(&self, id: &str) -> Result<TimeSeries, ObsError> {
        match self.slot(id, || Slot::Series(TimeSeries::default())) {
            Slot::Series(s) => Ok(s),
            other => Err(Self::mismatch(id, "series", &other)),
        }
    }

    /// Get or create the sampled time series `id` (panics on a type
    /// mismatch).
    pub fn series(&self, id: &str) -> TimeSeries {
        self.try_series(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Ids of every registered time series (sorted).
    pub fn series_ids(&self) -> Vec<String> {
        let slots = self.slots.lock().unwrap();
        slots
            .iter()
            .filter_map(|(k, s)| match s {
                Slot::Series(_) => Some(k.clone()),
                _ => None,
            })
            .collect()
    }

    /// Convenience: add `n` to counter `id` (creating it at zero first).
    pub fn add(&self, id: &str, n: u64) {
        self.counter(id).add(n);
    }

    /// Snapshot every counter (sorted by id).
    pub fn counters(&self) -> CounterSnapshot {
        let slots = self.slots.lock().unwrap();
        CounterSnapshot(
            slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Counter(c) => Some((k.clone(), c.get())),
                    _ => None,
                })
                .collect(),
        )
    }

    /// Render every metric as sorted, fixed-precision JSON. Two runs of
    /// the same deterministic schedule produce byte-identical output.
    pub fn snapshot_json(&self) -> String {
        let slots = self.slots.lock().unwrap();
        let mut counters = String::new();
        let mut digs = String::new();
        let mut sers = String::new();
        for (id, slot) in slots.iter() {
            match slot {
                Slot::Counter(c) => {
                    push_entry(&mut counters, id, &c.get().to_string());
                }
                Slot::Digest(d) => d.with(|d| {
                    push_entry(&mut digs, id, &d.snapshot_json());
                }),
                Slot::Series(s) => {
                    let pts: Vec<String> = s
                        .points()
                        .iter()
                        .map(|&(ps, v)| format!("[{ps}, {v}]"))
                        .collect();
                    let body = format!("{{\"points\": [{}]}}", pts.join(", "));
                    push_entry(&mut sers, id, &body);
                }
            }
        }
        format!(
            "{{\n  \"counters\": {{{counters}}},\n  \"digests\": {{{digs}}},\n  \"series\": {{{sers}}}\n}}\n"
        )
    }
}

fn push_entry(buf: &mut String, id: &str, body: &str) {
    if !buf.is_empty() {
        buf.push_str(", ");
    }
    buf.push_str(&format!("\"{id}\": {body}"));
}

/// The process-wide registry. Fault-free components must not touch it
/// from hot paths (clean runs keep shared state untouched — see
/// `Card::drop`); it exists so cross-cluster aggregates like repro-all's
/// `link_reliability` section have one place to look.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let reg = Registry::new();
        reg.counter("z.late").add(3);
        reg.counter("a.early").incr();
        reg.add("a.early", 1);
        let snap = reg.counters();
        assert_eq!(snap.get("a.early"), 2);
        assert_eq!(snap.get("z.late"), 3);
        assert_eq!(snap.get("never.registered"), 0);
        let keys: Vec<&String> = snap.0.keys().collect();
        assert_eq!(keys, ["a.early", "z.late"]);
    }

    #[test]
    fn delta_since_subtracts_per_id() {
        let reg = Registry::new();
        reg.add("x", 5);
        let before = reg.counters();
        reg.add("x", 7);
        reg.add("y", 2);
        let d = reg.counters().delta_since(&before);
        assert_eq!(d.get("x"), 7);
        assert_eq!(d.get("y"), 2);
        assert!(!d.is_all_zero());
        assert!(reg.counters().delta_since(&reg.counters()).is_all_zero());
    }

    #[test]
    fn handles_share_the_underlying_metric() {
        let reg = Registry::new();
        let a = reg.counter("shared");
        let b = reg.counter("shared");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);

        reg.series("depth").push(SimTime::from_ps(1), 9);
        assert_eq!(reg.series("depth").max_value(), 9);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("oops");
        reg.series("oops");
    }

    #[test]
    fn try_accessors_surface_type_mismatches_as_errors() {
        let reg = Registry::new();
        reg.counter("x");
        let err = reg.try_digest("x").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("\"x\"") && msg.contains("digest") && msg.contains("counter"));
        // The happy path still hands back a live handle.
        reg.try_counter("x").unwrap().add(2);
        assert_eq!(reg.counter("x").get(), 2);
        assert!(reg.try_series("s").is_ok());
        assert!(reg.try_counter("s").is_err());
    }

    #[test]
    fn time_series_records_and_renders() {
        let reg = Registry::new();
        let s = reg.series("card0.tx_fifo");
        s.push(SimTime::from_ps(1_000), 4);
        s.push(SimTime::from_ps(2_000), 9);
        assert_eq!(s.points(), vec![(1_000, 4), (2_000, 9)]);
        assert_eq!(s.max_value(), 9);
        assert_eq!(reg.series_ids(), ["card0.tx_fifo"]);
        let json = reg.snapshot_json();
        assert!(json.contains("\"series\": {\"card0.tx_fifo\""));
        assert!(json.contains("[[1000, 4], [2000, 9]]"));
        crate::perfetto::json_sanity(&json).expect("snapshot JSON parses");
    }

    #[test]
    fn digest_slot_records_and_renders() {
        let reg = Registry::new();
        let d = reg.digest("latency.total");
        assert_eq!(d.quantile(0.99), None);
        for v in [10u64, 20, 30, 40] {
            d.record(v);
        }
        d.record_duration(SimDuration::from_ps(50));
        assert_eq!(
            reg.digest("latency.total").count(),
            5,
            "handles share state"
        );
        assert_eq!(
            d.quantile(0.5),
            Some(30),
            "exact nearest-rank, not a bucket bound"
        );
        assert_eq!(d.quantile(1.0), Some(50));
        let json = reg.snapshot_json();
        assert!(json.contains("\"digests\": {\"latency.total\": {\"count\": 5"));
        assert!(json.contains("\"p50\": 30"));
        assert_eq!(reg.digest_ids(), ["latency.total"]);
        crate::perfetto::json_sanity(&json).expect("snapshot JSON parses");

        // An empty digest renders count-only: no bound reads as a
        // measurement.
        reg.digest("latency.untouched");
        assert!(reg
            .snapshot_json()
            .contains("\"latency.untouched\": {\"count\": 0}"));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn digest_type_mismatch_panics() {
        let reg = Registry::new();
        reg.digest("d");
        reg.counter("d");
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<TimeSeries>();
    }
}

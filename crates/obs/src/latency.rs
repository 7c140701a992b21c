//! Per-message latency ledger and tail attribution.
//!
//! Folds a span-correlated trace stream — online through [`LedgerFold`]
//! or from a capture through [`collect_ledgers`] — into one
//! [`MsgLedger`] per message: an ordered, monotone-clamped chain of time
//! boundaries whose consecutive differences are the pipeline **stages**
//! — and those stages telescope *exactly* to the end-to-end latency, the
//! same 100 % property `SimProfile::assert_exact` enforces for wall
//! time. On top of the ledgers, [`TailSummary`] finds the messages above
//! a configurable quantile of total latency and attributes each to its
//! dominant stage, answering the question aggregate bandwidth curves
//! cannot: *which stage makes a p99 message slow, and where does the
//! bottleneck move under faults?*
//!
//! Stage model (queueing and service separated — `tx_drain` is FIFO
//! queueing ahead of the wire, `wire` is the service time itself,
//! `rx_ring_wait` is host-side backpressure):
//!
//! | stage          | boundary interval              | kind     |
//! |----------------|--------------------------------|----------|
//! | `host_post`    | submit → post                  | queueing (descriptor build + doorbell batch) |
//! | `tx_fetch`     | post → first fetch             | service (descriptor decode, Nios V2P, PCIe read) |
//! | `tx_stage`     | first fetch → first stage      | service (packetization) |
//! | `tx_drain`     | first stage → first frame-tx   | queueing (TX FIFO) |
//! | `wire`         | first frame-tx → first retransmit (or last frame-rx) | service (serialization + hops + detours) |
//! | `replay`       | first retransmit → last frame-rx | recovery (go-back-N; zero on clean runs) |
//! | `rx_write`     | last frame-rx → last rx-write  | service (BUF_LIST lookup) |
//! | `rx_notify`    | last rx-write → rx-held or delivered | service (RX DMA + event write) |
//! | `rx_ring_wait` | rx-held → delivered            | queueing (RX event-ring backpressure) |
//!
//! Missing observations collapse their stage to zero length, so partial
//! captures (ring-sink evictions) still telescope.

use crate::digest::PercentileDigest;
use crate::recorder::RetainReason;
use crate::registry::Registry;
use apenet_sim::idhash::IdMap;
use apenet_sim::trace::{kind, SpanId, TracePayload, TraceRecord};
use apenet_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One pipeline stage of a message's life (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Host submit → card post: descriptor build and doorbell-batch
    /// delay (the driver's moderated ring kick).
    HostPost,
    /// Post → first payload fetch arrival: descriptor decode, Nios V2P
    /// walk, PCIe read round trip.
    TxFetch,
    /// First fetch → first packet staged: packetization.
    TxStage,
    /// First stage → first frame on the wire: TX FIFO queueing.
    TxDrain,
    /// First frame TX → first retransmission (or last in-order RX when
    /// clean): the clean wire window — serialization, torus hops,
    /// detour hops.
    Wire,
    /// First retransmission → last in-order frame RX: go-back-N
    /// recovery. Zero on clean runs.
    Replay,
    /// Last frame RX → last destination write: RX BUF_LIST lookup and
    /// payload write start.
    RxWrite,
    /// Last RX write → completion written (or parked): RX Nios notify.
    RxNotify,
    /// Completion parked on a full RX event ring → host notified:
    /// credit backpressure wait. Zero unless the ring filled.
    RxRingWait,
}

/// How a stage's time comes about, for queueing-vs-service separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Waiting for a resource (FIFO slot, doorbell batch, ring credit).
    Queueing,
    /// Being actively worked on (Nios, PCIe, wire serialization).
    Service,
    /// Re-doing work lost to faults (go-back-N replay).
    Recovery,
}

impl Stage {
    /// Every stage in pipeline order.
    pub const ALL: [Stage; 9] = [
        Stage::HostPost,
        Stage::TxFetch,
        Stage::TxStage,
        Stage::TxDrain,
        Stage::Wire,
        Stage::Replay,
        Stage::RxWrite,
        Stage::RxNotify,
        Stage::RxRingWait,
    ];

    /// Stable snake_case name (used in metric ids and reports).
    pub fn name(self) -> &'static str {
        match self {
            Stage::HostPost => "host_post",
            Stage::TxFetch => "tx_fetch",
            Stage::TxStage => "tx_stage",
            Stage::TxDrain => "tx_drain",
            Stage::Wire => "wire",
            Stage::Replay => "replay",
            Stage::RxWrite => "rx_write",
            Stage::RxNotify => "rx_notify",
            Stage::RxRingWait => "rx_ring_wait",
        }
    }

    /// Queueing/service/recovery classification.
    pub fn kind(self) -> StageKind {
        match self {
            Stage::HostPost | Stage::TxDrain | Stage::RxRingWait => StageKind::Queueing,
            Stage::Replay => StageKind::Recovery,
            _ => StageKind::Service,
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).unwrap()
    }
}

/// Message-size classes for per-class digests. Fixed set (not derived
/// from observed sizes) so metric ids are enumerable by the
/// completeness test.
pub const CLASSES: [&str; 4] = ["le4k", "le64k", "le1m", "gt1m"];

/// The size class of a message of `len` bytes.
pub fn class_of(len: u64) -> &'static str {
    match len {
        0..=4096 => "le4k",
        4097..=65536 => "le64k",
        65537..=1048576 => "le1m",
        _ => "gt1m",
    }
}

/// One message's exact stage decomposition: ten monotone boundaries
/// whose nine consecutive gaps are the [`Stage`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct MsgLedger {
    /// The message span.
    pub span: SpanId,
    /// Message length in bytes (from post/delivery records).
    pub len: u64,
    /// The ten stage boundaries, monotone by construction:
    /// `bounds[i+1] - bounds[i]` is `Stage::ALL[i]`'s duration.
    pub bounds: [SimTime; 10],
    /// Frames transmitted (including retransmits) / retransmits alone.
    pub frames: u64,
    /// Go-back-N retransmissions observed on the span.
    pub retransmits: u64,
    /// Fault-detour routing decisions taken by packets of this span.
    pub detours: u64,
    /// Payload bytes fetched, summed over every fetch of the span.
    pub fetch_bytes: u64,
    /// Both a post and a delivery were observed: the totals are real
    /// end-to-end latencies, not a truncated capture.
    pub complete: bool,
    /// Typed error the message ended in: "rx-ring-full" (labelled by
    /// the fold) or a completion-queue error such as "unreachable".
    pub error: Option<&'static str>,
}

impl MsgLedger {
    /// Duration of one stage.
    pub fn stage(&self, s: Stage) -> SimDuration {
        let i = s.index();
        self.bounds[i + 1].since(self.bounds[i])
    }

    /// End-to-end latency: submit → delivered.
    pub fn total(&self) -> SimDuration {
        self.bounds[9].since(self.bounds[0])
    }

    /// The coarse three-phase view `[post, first frame-tx, last
    /// frame-rx, delivered]` (boundaries 1, 4, 6 and 9): tx pipeline,
    /// link and rx, the split the Perfetto slices and the G-G latency
    /// breakdown show.
    pub fn phases(&self) -> [SimTime; 4] {
        let b = &self.bounds;
        [b[1], b[4], b[6], b[9]]
    }

    /// The stage decomposition telescopes exactly: summing every
    /// stage's duration reproduces the end-to-end latency with no gap
    /// and no overlap (the ledger's `SimProfile::assert_exact`).
    pub fn assert_telescopes(&self) {
        let mut sum = SimDuration::ZERO;
        for s in Stage::ALL {
            sum += self.stage(s);
        }
        assert_eq!(
            sum,
            self.total(),
            "span {}: stages must telescope to the end-to-end latency",
            self.span
        );
        for w in self.bounds.windows(2) {
            assert!(
                w[0] <= w[1],
                "span {}: boundaries must be monotone",
                self.span
            );
        }
    }

    /// The stage this message spent the most time in (earliest stage
    /// wins ties, deterministically).
    pub fn dominant_stage(&self) -> Stage {
        let mut best = Stage::HostPost;
        let mut best_d = SimDuration::ZERO;
        for s in Stage::ALL {
            let d = self.stage(s);
            if d > best_d {
                best = s;
                best_d = d;
            }
        }
        best
    }
}

#[derive(Default)]
struct RawSpan {
    first: Option<SimTime>,
    submit: Option<SimTime>,
    post: Option<SimTime>,
    first_fetch: Option<SimTime>,
    first_stage: Option<SimTime>,
    first_frame_tx: Option<SimTime>,
    first_retrans: Option<SimTime>,
    last_frame_rx: Option<SimTime>,
    last_rx_write: Option<SimTime>,
    rx_held: Option<SimTime>,
    delivered: Option<SimTime>,
    len: u64,
    frames: u64,
    retransmits: u64,
    detours: u64,
    fetch_bytes: u64,
}

fn min_t(slot: &mut Option<SimTime>, at: SimTime) {
    *slot = Some(slot.map_or(at, |t| t.min(at)));
}

fn max_t(slot: &mut Option<SimTime>, at: SimTime) {
    *slot = Some(slot.map_or(at, |t| t.max(at)));
}

/// The online span fold: [`LedgerFold::observe`] each record as it
/// arrives, then [`LedgerFold::finish`] once for the ledgers.
///
/// Every per-span field is a min, a max or a sum, so the fold is
/// commutative: the ledgers do not depend on the order records arrive
/// in, and folding during the run equals folding a capture after it.
/// Spans are indexed by a hash map into a vector, with a shortcut for a
/// run of records of the same span; the map is never iterated, and
/// `finish` sorts by span once, so the output order is deterministic.
#[derive(Default)]
pub struct LedgerFold {
    index: IdMap<SpanId, u32>,
    spans: Vec<(SpanId, RawSpan)>,
    last: Option<(SpanId, u32)>,
}

impl LedgerFold {
    /// An empty fold.
    pub fn new() -> Self {
        LedgerFold::default()
    }

    /// The raw span of `id`, created on first sight.
    fn span(&mut self, id: SpanId) -> &mut RawSpan {
        let i = match self.last {
            Some((last, i)) if last == id => i,
            _ => {
                let next = u32::try_from(self.spans.len()).expect("under 2^32 spans");
                let i = *self.index.entry(id).or_insert(next);
                if i == next {
                    self.spans.push((id, RawSpan::default()));
                }
                self.last = Some((id, i));
                i
            }
        };
        &mut self.spans[i as usize].1
    }

    /// Fold one record. Records without a span (bare interposer TLPs)
    /// are ignored.
    pub fn observe(&mut self, r: &TraceRecord) {
        let Some(id) = r.span else { return };
        let sp = self.span(id);
        min_t(&mut sp.first, r.at);
        match r.kind {
            kind::SUBMIT => min_t(&mut sp.submit, r.at),
            kind::POST => {
                min_t(&mut sp.post, r.at);
                if let TracePayload::Msg { len } = r.payload {
                    sp.len = sp.len.max(len);
                }
            }
            kind::FETCH => {
                min_t(&mut sp.first_fetch, r.at);
                sp.fetch_bytes += r.payload.data_len();
            }
            kind::STAGE => min_t(&mut sp.first_stage, r.at),
            kind::FRAME_TX => {
                min_t(&mut sp.first_frame_tx, r.at);
                sp.frames += 1;
                if let TracePayload::Frame { retrans: true, .. } = r.payload {
                    sp.retransmits += 1;
                    min_t(&mut sp.first_retrans, r.at);
                }
            }
            kind::FRAME_RX => max_t(&mut sp.last_frame_rx, r.at),
            kind::RX_WRITE => max_t(&mut sp.last_rx_write, r.at),
            kind::RX_HELD => min_t(&mut sp.rx_held, r.at),
            kind::DETOUR => sp.detours += 1,
            kind::DELIVERED => {
                max_t(&mut sp.delivered, r.at);
                if let TracePayload::Msg { len } = r.payload {
                    sp.len = sp.len.max(len);
                }
            }
            _ => {}
        }
    }

    /// One ledger per observed span, in span order. A span whose
    /// completion was parked on a full RX event ring (`RX_HELD`) and
    /// never delivered ends in the typed error "rx-ring-full".
    pub fn finish(self) -> Vec<MsgLedger> {
        let mut spans = self.spans;
        // Span ids are unique, so the unstable sort is deterministic.
        spans.sort_unstable_by_key(|&(span, _)| span);
        spans
            .into_iter()
            .map(|(span, sp)| {
                let origin = sp.first.unwrap_or(SimTime::ZERO);
                // The monotone clamp chain: each boundary collapses onto
                // its predecessor when unobserved, so stages of events
                // that never happened (no retransmit, no ring stall) are
                // exactly zero and the telescoping property holds
                // unconditionally.
                let b0 = sp.submit.or(sp.post).unwrap_or(origin);
                let b1 = sp.post.unwrap_or(b0).max(b0);
                let b2 = sp.first_fetch.unwrap_or(b1).max(b1);
                let b3 = sp.first_stage.unwrap_or(b2).max(b2);
                let b4 = sp.first_frame_tx.unwrap_or(b3).max(b3);
                let lfr = sp.last_frame_rx.unwrap_or(b4).max(b4);
                let b5 = if sp.retransmits > 0 {
                    sp.first_retrans.unwrap_or(lfr).clamp(b4, lfr)
                } else {
                    lfr
                };
                let b6 = lfr.max(b5);
                let b7 = sp.last_rx_write.unwrap_or(b6).max(b6);
                let b8 = sp.rx_held.or(sp.delivered).unwrap_or(b7).max(b7);
                let b9 = sp.delivered.unwrap_or(b8).max(b8);
                MsgLedger {
                    span,
                    len: sp.len,
                    bounds: [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9],
                    frames: sp.frames,
                    retransmits: sp.retransmits,
                    detours: sp.detours,
                    fetch_bytes: sp.fetch_bytes,
                    complete: sp.post.is_some() && sp.delivered.is_some(),
                    error: (sp.rx_held.is_some() && sp.delivered.is_none())
                        .then_some("rx-ring-full"),
                }
            })
            .collect()
    }
}

/// Fold a captured `records` stream into one ledger per span, in span
/// order: [`LedgerFold`] over the capture.
pub fn collect_ledgers(records: &[TraceRecord]) -> Vec<MsgLedger> {
    let mut fold = LedgerFold::new();
    for r in records {
        fold.observe(r);
    }
    fold.finish()
}

/// Tail-plane configuration, as set in the
/// `apenet_cluster::planes::Planes::tail` plane.
#[derive(Debug, Clone, Copy)]
pub struct TailConfig {
    /// Messages at or above this total-latency quantile are "tail".
    pub quantile: f64,
    /// Stable label for the quantile ("p99"), used in reports.
    pub label: &'static str,
    /// Flight-recorder capacity in retained spans.
    pub capacity: usize,
}

impl Default for TailConfig {
    fn default() -> Self {
        TailConfig {
            quantile: 0.99,
            label: "p99",
            capacity: 64,
        }
    }
}

/// Stable metric ids the tail plane publishes. `COUNTERS` and
/// `DIGESTS` are exhaustive: the metrics-completeness test walks a
/// tail run's registry against them both ways.
pub mod metrics {
    use super::{Stage, CLASSES};

    /// Spans with both post and delivery observed.
    pub const MESSAGES: &str = "tail.messages";
    /// Spans observed without a completion (truncated capture or dead).
    pub const INCOMPLETE: &str = "tail.incomplete";
    /// Messages at or above the tail quantile threshold.
    pub const TAIL_MESSAGES: &str = "tail.tail_messages";
    /// The tail threshold itself, in picoseconds.
    pub const THRESHOLD_PS: &str = "tail.threshold_ps";
    /// Messages that ended in a typed error.
    pub const ERRORS: &str = "tail.errors";
    /// Spans the flight recorder retained in full.
    pub const RETAINED_SPANS: &str = "tail.retained_spans";
    /// Retained spans evicted by the recorder's capacity bound.
    pub const DROPPED_SPANS: &str = "tail.dropped_spans";

    /// Every tail counter id.
    pub const COUNTERS: [&str; 7] = [
        MESSAGES,
        INCOMPLETE,
        TAIL_MESSAGES,
        THRESHOLD_PS,
        ERRORS,
        RETAINED_SPANS,
        DROPPED_SPANS,
    ];

    /// End-to-end latency digest over every complete message.
    pub const TOTAL: &str = "latency.total";

    /// Digest id for one stage.
    pub fn stage_id(s: Stage) -> String {
        format!("latency.stage.{}", s.name())
    }

    /// Digest id for one size class.
    pub fn class_id(class: &str) -> String {
        format!("latency.class.{class}")
    }

    /// Every digest id the tail plane publishes.
    pub fn all_digests() -> Vec<String> {
        let mut ids = vec![TOTAL.to_string()];
        ids.extend(Stage::ALL.iter().map(|&s| stage_id(s)));
        ids.extend(CLASSES.iter().map(|c| class_id(c)));
        ids
    }
}

/// The tail-attribution summary of one run: ledgers, the tail set, and
/// the blamed-stage histogram.
#[derive(Debug, Clone)]
pub struct TailSummary {
    /// Configuration the summary was built with.
    pub cfg: TailConfig,
    /// One ledger per observed span, in span order.
    pub ledgers: Vec<MsgLedger>,
    /// Total-latency threshold (nearest-rank `cfg.quantile` over
    /// complete messages), in ps. Zero when nothing completed.
    pub threshold_ps: u64,
    /// Indices into `ledgers` of the tail messages (complete, total ≥
    /// threshold), span order.
    pub tail: Vec<usize>,
    /// Dominant-stage histogram over the tail messages.
    pub blame: BTreeMap<Stage, u64>,
}

/// A digest of `ps` over the complete messages of `ledgers`.
fn complete_digest(ledgers: &[MsgLedger], ps: impl Fn(&MsgLedger) -> u64) -> PercentileDigest {
    let mut d = PercentileDigest::new();
    for l in ledgers.iter().filter(|l| l.complete) {
        d.record(ps(l));
    }
    d
}

impl TailSummary {
    /// Pick the tail set of `ledgers` and blame dominant stages.
    /// Asserts every ledger telescopes (debug + release: this is the
    /// plane's core invariant).
    pub fn build(ledgers: Vec<MsgLedger>, cfg: TailConfig) -> TailSummary {
        for l in &ledgers {
            l.assert_telescopes();
        }
        let threshold_ps = complete_digest(&ledgers, |l| l.total().as_ps())
            .quantile(cfg.quantile)
            .unwrap_or(0);
        let tail: Vec<usize> = ledgers
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.complete && l.total().as_ps() >= threshold_ps && l.total().as_ps() > 0
            })
            .map(|(i, _)| i)
            .collect();
        let mut blame = BTreeMap::new();
        for &i in &tail {
            *blame.entry(ledgers[i].dominant_stage()).or_insert(0) += 1;
        }
        TailSummary {
            cfg,
            ledgers,
            threshold_ps,
            tail,
            blame,
        }
    }

    /// Complete-message count.
    pub fn messages(&self) -> u64 {
        self.ledgers.iter().filter(|l| l.complete).count() as u64
    }

    /// Spans without a completion.
    pub fn incomplete(&self) -> u64 {
        self.ledgers.iter().filter(|l| !l.complete).count() as u64
    }

    /// Messages carrying a typed error.
    pub fn errors(&self) -> u64 {
        self.ledgers.iter().filter(|l| l.error.is_some()).count() as u64
    }

    /// The stage blamed for the most tail messages (earliest stage on
    /// ties), `None` when the tail set is empty.
    pub fn dominant_tail_stage(&self) -> Option<Stage> {
        let mut best: Option<(Stage, u64)> = None;
        for s in Stage::ALL {
            if let Some(&n) = self.blame.get(&s) {
                if best.is_none_or(|(_, bn)| n > bn) {
                    best = Some((s, n));
                }
            }
        }
        best.map(|(s, _)| s)
    }

    /// Spans the flight recorder should retain, in span order: tail
    /// messages plus every message that ended in a typed error, the
    /// error reason winning when a span is both (the forensically
    /// stronger label).
    pub fn retain_set(&self) -> Vec<(SpanId, RetainReason)> {
        self.ledgers
            .iter()
            .enumerate()
            .filter_map(|(i, l)| match l.error {
                Some(e) => Some((l.span, RetainReason::Error(e))),
                None => self
                    .tail
                    .binary_search(&i)
                    .is_ok()
                    .then_some((l.span, RetainReason::Tail)),
            })
            .collect()
    }

    /// Publish counters and per-stage/per-class digests into `reg`
    /// under the ids declared in [`metrics`]. Every declared id is
    /// registered even at zero, so completeness checks see the full
    /// surface on every run.
    pub fn publish(&self, reg: &Registry) {
        reg.add(metrics::MESSAGES, self.messages());
        reg.add(metrics::INCOMPLETE, self.incomplete());
        reg.add(metrics::TAIL_MESSAGES, self.tail.len() as u64);
        reg.add(metrics::THRESHOLD_PS, self.threshold_ps);
        reg.add(metrics::ERRORS, self.errors());
        reg.counter(metrics::RETAINED_SPANS);
        reg.counter(metrics::DROPPED_SPANS);
        let total = reg.digest(metrics::TOTAL);
        let stage_handles: Vec<_> = Stage::ALL
            .iter()
            .map(|&s| (s, reg.digest(&metrics::stage_id(s))))
            .collect();
        let class_handles: BTreeMap<&str, _> = CLASSES
            .iter()
            .map(|&c| (c, reg.digest(&metrics::class_id(c))))
            .collect();
        for l in self.ledgers.iter().filter(|l| l.complete) {
            total.record(l.total().as_ps());
            for (s, h) in &stage_handles {
                h.record(l.stage(*s).as_ps());
            }
            class_handles[class_of(l.len)].record(l.total().as_ps());
        }
    }

    /// Render the deterministic tail-attribution report section for one
    /// regime (the committed `results/tail_attribution.txt` artifact).
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {title} ==");
        let _ = writeln!(
            out,
            "messages: {} complete, {} incomplete, {} with typed errors",
            self.messages(),
            self.incomplete(),
            self.errors()
        );
        let _ = writeln!(
            out,
            "tail set: {} message(s) at or above {} = {} ps",
            self.tail.len(),
            self.cfg.label,
            self.threshold_ps
        );
        let dominant = self.dominant_tail_stage().map_or("none", |s| s.name());
        let _ = writeln!(out, "dominant tail stage: {dominant}");
        let _ = writeln!(out, "blame histogram (dominant stage per tail message):");
        for s in Stage::ALL {
            if let Some(&n) = self.blame.get(&s) {
                let _ = writeln!(out, "  {:<13} {:>5}", s.name(), n);
            }
        }
        let _ = writeln!(
            out,
            "stage digests over {} complete message(s), ps:",
            self.messages()
        );
        let _ = writeln!(
            out,
            "  {:<13} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "stage", "k", "p50", "p90", "p99", "p999", "max"
        );
        let mut row = |name: &str, k: &str, mut d: PercentileDigest| {
            let mut q = |q: f64| d.quantile(q).unwrap_or(0);
            let _ = writeln!(
                out,
                "  {:<13} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12}",
                name,
                k,
                q(0.50),
                q(0.90),
                q(0.99),
                q(0.999),
                d.max()
            );
        };
        for s in Stage::ALL {
            let k = match s.kind() {
                StageKind::Queueing => "q",
                StageKind::Service => "s",
                StageKind::Recovery => "r",
            };
            let d = complete_digest(&self.ledgers, |l| l.stage(s).as_ps());
            row(s.name(), k, d);
        }
        let d = complete_digest(&self.ledgers, |l| l.total().as_ps());
        row("total", "=", d);
        let retrans: u64 = self.ledgers.iter().map(|l| l.retransmits).sum();
        let detours: u64 = self.ledgers.iter().map(|l| l.detours).sum();
        let _ = writeln!(out, "retransmits: {retrans}  detour decisions: {detours}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apenet_sim::check::{check, Gen};
    use apenet_sim::trace::TracePayload as P;

    fn rec(at_ns: u64, k: &'static str, span: SpanId, payload: P) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_ps(at_ns * 1000),
            source: "card",
            kind: k,
            span: Some(span),
            payload,
        }
    }

    fn frame(retrans: bool) -> P {
        P::Frame {
            seq: 0,
            wire: 4200,
            retrans,
        }
    }

    fn full_span(s: SpanId) -> Vec<TraceRecord> {
        vec![
            rec(5, kind::SUBMIT, s, P::Msg { len: 4096 }),
            rec(10, kind::POST, s, P::Msg { len: 4096 }),
            rec(20, kind::FETCH, s, P::Bytes { len: 4096 }),
            rec(24, kind::STAGE, s, P::Bytes { len: 4096 }),
            rec(30, kind::FRAME_TX, s, frame(false)),
            rec(50, kind::FRAME_RX, s, frame(false)),
            rec(55, kind::RX_WRITE, s, P::Bytes { len: 4096 }),
            rec(70, kind::DELIVERED, s, P::Msg { len: 4096 }),
        ]
    }

    #[test]
    fn clean_span_telescopes_with_zero_fault_stages() {
        let s = SpanId::from_msg(0, 1);
        let mut records = full_span(s);
        // A second fetch inside the tx_fetch → tx_stage window adds its
        // bytes without moving a boundary.
        records.push(rec(22, kind::FETCH, s, P::Bytes { len: 512 }));
        let ledgers = collect_ledgers(&records);
        assert_eq!(ledgers.len(), 1);
        let l = &ledgers[0];
        assert!(l.complete);
        assert_eq!(l.error, None);
        assert_eq!(l.fetch_bytes, 4096 + 512);
        assert_eq!(l.len, 4096);
        l.assert_telescopes();
        assert_eq!(l.total(), SimDuration::from_ns(65));
        assert_eq!(l.stage(Stage::HostPost), SimDuration::from_ns(5));
        assert_eq!(l.stage(Stage::TxFetch), SimDuration::from_ns(10));
        assert_eq!(l.stage(Stage::TxStage), SimDuration::from_ns(4));
        assert_eq!(l.stage(Stage::TxDrain), SimDuration::from_ns(6));
        assert_eq!(l.stage(Stage::Wire), SimDuration::from_ns(20));
        assert_eq!(l.stage(Stage::Replay), SimDuration::ZERO);
        assert_eq!(l.stage(Stage::RxWrite), SimDuration::from_ns(5));
        assert_eq!(l.stage(Stage::RxNotify), SimDuration::from_ns(15));
        assert_eq!(l.stage(Stage::RxRingWait), SimDuration::ZERO);
        assert_eq!(l.dominant_stage(), Stage::Wire);
    }

    #[test]
    fn retransmits_split_wire_from_replay() {
        let s = SpanId::from_msg(1, 2);
        let mut records = full_span(s);
        // A retransmission at 40 ns pushes last frame-rx out to 90 ns.
        records.push(rec(40, kind::FRAME_TX, s, frame(true)));
        records.push(rec(90, kind::FRAME_RX, s, frame(false)));
        let l = &collect_ledgers(&records)[0];
        l.assert_telescopes();
        assert_eq!(l.retransmits, 1);
        assert_eq!(l.frames, 2, "the retransmitted frame counts as a frame");
        assert_eq!(
            l.stage(Stage::Wire),
            SimDuration::from_ns(10),
            "tx 30 → retrans 40"
        );
        assert_eq!(
            l.stage(Stage::Replay),
            SimDuration::from_ns(50),
            "retrans 40 → rx 90"
        );
        assert_eq!(l.dominant_stage(), Stage::Replay);
    }

    #[test]
    fn rx_held_opens_the_ring_wait_stage() {
        let s = SpanId::from_msg(0, 3);
        let mut records = full_span(s);
        // Completion parked at 70 ns, host notified at 200 ns.
        records.retain(|r| r.kind != kind::DELIVERED);
        records.push(rec(70, kind::RX_HELD, s, P::Msg { len: 4096 }));
        records.push(rec(200, kind::DELIVERED, s, P::Msg { len: 4096 }));
        let l = &collect_ledgers(&records)[0];
        l.assert_telescopes();
        assert_eq!(l.stage(Stage::RxNotify), SimDuration::from_ns(15));
        assert_eq!(l.stage(Stage::RxRingWait), SimDuration::from_ns(130));
        assert_eq!(l.dominant_stage(), Stage::RxRingWait);
        assert_eq!(l.error, None, "a held completion that was delivered");
        // Never drained: the fold labels the span's typed error itself.
        records.retain(|r| r.kind != kind::DELIVERED);
        let l = &collect_ledgers(&records)[0];
        assert!(!l.complete);
        assert_eq!(l.error, Some("rx-ring-full"));
    }

    #[test]
    fn partial_spans_collapse_and_still_telescope() {
        let s = SpanId::from_msg(2, 9);
        let records = vec![
            // A bare interposer TLP belongs to no message.
            TraceRecord {
                span: None,
                ..rec(
                    0,
                    "MRd",
                    s,
                    P::Tlp {
                        len: 0,
                        wire: 24,
                        up: true,
                    },
                )
            },
            rec(100, kind::POST, s, P::Msg { len: 64 }),
        ];
        let ledgers = collect_ledgers(&records);
        assert_eq!(ledgers.len(), 1, "spanless records are ignored");
        let l = &ledgers[0];
        assert_eq!(l.span, s);
        assert!(!l.complete);
        assert_eq!(l.error, None);
        l.assert_telescopes();
        assert_eq!(l.total(), SimDuration::ZERO);
    }

    #[test]
    fn summary_blames_the_slow_stage_and_counts_errors() {
        let fast = SpanId::from_msg(0, 1);
        let slow = SpanId::from_msg(0, 2);
        let dead = SpanId::from_msg(0, 3);
        let mut records = full_span(fast);
        for r in full_span(slow) {
            let mut r = r;
            if r.kind == kind::DELIVERED {
                r.at = SimTime::from_ps(900_000); // 900 ns: rx_notify blows up
            }
            records.push(r);
        }
        records.push(rec(10, kind::POST, dead, P::Msg { len: 64 }));
        let cfg = TailConfig {
            quantile: 0.5,
            label: "p50",
            capacity: 8,
        };
        let mut ledgers = collect_ledgers(&records);
        assert_eq!(ledgers[2].span, dead);
        ledgers[2].error = Some("unreachable");
        let sum = TailSummary::build(ledgers, cfg);
        assert_eq!(sum.messages(), 2);
        assert_eq!(sum.incomplete(), 1);
        assert_eq!(sum.errors(), 1);
        // p50 of {65ns, 895ns} (nearest-rank) = 65ns: both are tail,
        // but the slow one's dominant stage is rx_notify.
        assert!(!sum.tail.is_empty());
        assert!(sum.blame.values().sum::<u64>() == sum.tail.len() as u64);
        let retain = sum.retain_set();
        assert!(
            retain.contains(&(dead, RetainReason::Error("unreachable"))),
            "error spans always retained"
        );
        // Publishing registers every declared id, even untouched ones.
        let reg = Registry::new();
        sum.publish(&reg);
        let counters = reg.counters();
        for id in metrics::COUNTERS {
            assert!(counters.0.contains_key(id), "{id} registered");
        }
        let render = sum.render("unit");
        assert!(render.contains("dominant tail stage:"));
        assert!(render.contains("host_post"));
        // Deterministic render.
        assert_eq!(render, sum.render("unit"));
    }

    /// A random record: any kind the fold reads (plus ones it ignores),
    /// one of `spans` or none, any time in a 1 µs range.
    fn random_record(g: &mut Gen, spans: &[SpanId]) -> TraceRecord {
        const KINDS: [&str; 12] = [
            kind::SUBMIT,
            kind::POST,
            kind::FETCH,
            kind::STAGE,
            kind::FRAME_TX,
            kind::FRAME_RX,
            kind::RX_WRITE,
            kind::RX_HELD,
            kind::DETOUR,
            kind::DELIVERED,
            kind::TX_DONE,
            "MRd",
        ];
        let k = *g.pick(&KINDS);
        let payload = match k {
            kind::FRAME_TX | kind::FRAME_RX => P::Frame {
                seq: g.u64(0, 8),
                wire: 4200,
                retrans: g.chance(0.3),
            },
            kind::SUBMIT | kind::POST | kind::RX_HELD | kind::DELIVERED => P::Msg {
                len: g.u64(0, 1 << 21),
            },
            kind::FETCH | kind::STAGE | kind::RX_WRITE => P::Bytes {
                len: g.u64(0, 1 << 16),
            },
            _ => P::None,
        };
        TraceRecord {
            at: SimTime::from_ps(g.u64(0, 1_000_000)),
            source: "card",
            kind: k,
            span: (!g.chance(0.1)).then(|| *g.pick(spans)),
            payload,
        }
    }

    fn fold(records: &[TraceRecord]) -> Vec<MsgLedger> {
        let mut fold = LedgerFold::new();
        for r in records {
            fold.observe(r);
        }
        fold.finish()
    }

    #[test]
    fn fold_is_independent_of_record_order() {
        check("ledger fold order invariance", |g| {
            let spans: Vec<SpanId> = (0..g.u64(1, 8))
                .map(|seq| SpanId::from_msg(g.u32(0, 4), seq))
                .collect();
            let records = g.vec_of(0, 96, |g| random_record(g, &spans));
            let mut shuffled = records.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, g.usize(0, i + 1));
            }
            let ledgers = fold(&records);
            assert_eq!(ledgers, fold(&shuffled), "a shuffled stream folds the same");
            assert_eq!(ledgers, collect_ledgers(&records));
            assert!(ledgers.windows(2).all(|w| w[0].span < w[1].span));
            for l in &ledgers {
                l.assert_telescopes();
            }
        });
    }

    #[test]
    fn class_buckets_are_total() {
        assert_eq!(class_of(0), "le4k");
        assert_eq!(class_of(4096), "le4k");
        assert_eq!(class_of(4097), "le64k");
        assert_eq!(class_of(65_536), "le64k");
        assert_eq!(class_of(1 << 20), "le1m");
        assert_eq!(class_of((1 << 20) + 1), "gt1m");
        for len in [0u64, 100, 10_000, 100_000, 10_000_000] {
            assert!(CLASSES.contains(&class_of(len)));
        }
    }
}

//! Flight recorder: bounded retroactive retention of full span traces.
//!
//! Aggregates (digests, blame histograms) compress the tail away; when
//! a p999 message or a typed error needs *forensics*, you want every
//! trace record of exactly that message — and nothing else. The
//! recorder builds on the same bounded-ring idea as
//! [`apenet_sim::trace::SharedSink::ring`], but the unit of retention
//! is a whole span, selected retroactively: after a run, the tail
//! plane hands it the capture plus the set of spans worth keeping
//! (tail messages, messages ending in typed errors such as
//! `Unreachable` or `RxRingFull`), and the recorder keeps the
//! newest `capacity` of them, evicting oldest-first with an eviction
//! count — exactly a crash-survivable black box, minus the crash.
//!
//! Dumps are self-validating Perfetto traces: [`FlightRecorder::
//! dump_perfetto`] runs the exporter's nesting validator and the
//! in-tree strict JSON parser before returning, so a dump that loads
//! in the UI is the only kind that can exist. The first error-flagged
//! ingest also snapshots a dump eagerly ([`FlightRecorder::
//! fault_dump`]), mirroring a hardware recorder that freezes its
//! buffer on the first hard fault.

use crate::error::ObsError;
use crate::perfetto;
use apenet_sim::trace::{SpanId, TraceRecord};
use std::collections::VecDeque;

/// Why a span was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainReason {
    /// Total latency at or above the tail threshold.
    Tail,
    /// The message ended in a typed error (kind attached).
    Error(&'static str),
}

/// One retained span: its id, why it was kept, and its full record
/// stream in capture order.
#[derive(Debug, Clone)]
pub struct RetainedSpan {
    /// The span.
    pub span: SpanId,
    /// Why it survived selection.
    pub reason: RetainReason,
    /// Every trace record of the span, in capture order.
    pub records: Vec<TraceRecord>,
}

/// The recorder (see module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    retained: VecDeque<RetainedSpan>,
    evicted: u64,
    fault_dump: Option<String>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            retained: VecDeque::new(),
            evicted: 0,
            fault_dump: None,
        }
    }

    /// Retroactively retain the full traces of `keep` spans out of
    /// `records`. Spans are admitted in the given order; when the ring
    /// is full the oldest retained span is evicted (and counted). A
    /// span with no records in the capture is skipped — there is
    /// nothing to retain. The first `Error`-flagged admission freezes
    /// an eager [`FlightRecorder::fault_dump`].
    pub fn ingest(&mut self, records: &[TraceRecord], keep: &[(SpanId, RetainReason)]) {
        for &(span, reason) in keep {
            let recs: Vec<TraceRecord> = records
                .iter()
                .filter(|r| r.span == Some(span))
                .cloned()
                .collect();
            if recs.is_empty() {
                continue;
            }
            if self.retained.len() == self.capacity {
                self.retained.pop_front();
                self.evicted += 1;
            }
            let is_error = matches!(reason, RetainReason::Error(_));
            self.retained.push_back(RetainedSpan {
                span,
                reason,
                records: recs,
            });
            if is_error && self.fault_dump.is_none() {
                // Internal invariant: records straight from the sim
                // always nest. A failure here is a bug, not a condition
                // the ingest caller can handle.
                self.fault_dump = Some(
                    self.dump_perfetto()
                        .unwrap_or_else(|e| panic!("flight-recorder fault dump: {e}")),
                );
            }
        }
    }

    /// Retained spans, oldest first.
    pub fn retained(&self) -> impl Iterator<Item = &RetainedSpan> {
        self.retained.iter()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.retained.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.retained.is_empty()
    }

    /// Spans evicted by the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The Perfetto dump frozen when the first error-flagged span was
    /// admitted (the "first hard fault" trigger), if any.
    pub fn fault_dump(&self) -> Option<&str> {
        self.fault_dump.as_deref()
    }

    /// Render every retained span as one Perfetto trace — on-demand
    /// forensics. Self-validating: the exporter's nesting validator
    /// and the strict JSON parser both run before the dump is
    /// returned, so an unloadable dump surfaces as a typed
    /// [`ObsError`] instead of reaching disk.
    pub fn dump_perfetto(&self) -> Result<String, ObsError> {
        let mut all: Vec<TraceRecord> = self
            .retained
            .iter()
            .flat_map(|rs| rs.records.iter().cloned())
            .collect();
        all.sort_by_key(|r| r.at);
        let events = perfetto::export_per_span(&all);
        perfetto::validate_nesting(&events).map_err(ObsError::InvalidTrace)?;
        let json = perfetto::to_json(&events);
        perfetto::json_sanity(&json).map_err(ObsError::InvalidJson)?;
        Ok(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apenet_sim::trace::{kind, TracePayload as P};
    use apenet_sim::SimTime;

    fn span_records(s: SpanId, base_ns: u64) -> Vec<TraceRecord> {
        let frame = P::Frame {
            seq: 0,
            wire: 4200,
            retrans: false,
        };
        let rec = |at_ns: u64, k: &'static str, p: P| TraceRecord {
            at: SimTime::from_ps((base_ns + at_ns) * 1000),
            source: "card",
            kind: k,
            span: Some(s),
            payload: p,
        };
        vec![
            rec(0, kind::POST, P::Msg { len: 4096 }),
            rec(10, kind::FRAME_TX, frame),
            rec(20, kind::FRAME_RX, frame),
            rec(30, kind::DELIVERED, P::Msg { len: 4096 }),
        ]
    }

    #[test]
    fn retains_only_flagged_spans_and_bounds_memory() {
        let spans: Vec<SpanId> = (0..5).map(|i| SpanId::from_msg(0, i)).collect();
        let mut records = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            records.extend(span_records(*s, i as u64 * 100));
        }
        let mut fr = FlightRecorder::new(2);
        let keep: Vec<_> = spans[..4]
            .iter()
            .map(|&s| (s, RetainReason::Tail))
            .collect();
        fr.ingest(&records, &keep);
        assert_eq!(fr.len(), 2, "capacity bounds retention");
        assert_eq!(fr.evicted(), 2);
        let kept: Vec<SpanId> = fr.retained().map(|r| r.span).collect();
        assert_eq!(kept, vec![spans[2], spans[3]], "oldest evicted first");
        assert!(
            fr.retained().all(|r| r.records.len() == 4),
            "full span traces"
        );
        assert!(fr.fault_dump().is_none(), "no error span, no fault dump");
    }

    #[test]
    fn unknown_spans_are_skipped() {
        let s = SpanId::from_msg(0, 1);
        let ghost = SpanId::from_msg(9, 9);
        let mut fr = FlightRecorder::new(4);
        fr.ingest(
            &span_records(s, 0),
            &[(ghost, RetainReason::Tail), (s, RetainReason::Tail)],
        );
        assert_eq!(fr.len(), 1);
        assert!(!fr.is_empty());
    }

    #[test]
    fn first_error_freezes_a_fault_dump_and_dumps_validate() {
        let a = SpanId::from_msg(0, 1);
        let b = SpanId::from_msg(0, 2);
        let mut records = span_records(a, 0);
        records.extend(span_records(b, 500));
        let mut fr = FlightRecorder::new(8);
        fr.ingest(&records, &[(a, RetainReason::Error("unreachable"))]);
        let frozen = fr
            .fault_dump()
            .expect("first error freezes a dump")
            .to_string();
        // Later ingests don't overwrite the frozen first-fault dump.
        fr.ingest(&records, &[(b, RetainReason::Error("rx-ring-full"))]);
        assert_eq!(fr.fault_dump().unwrap(), frozen);
        // The on-demand dump now covers both spans and still validates
        // (dump_perfetto re-validates internally).
        let dump = fr.dump_perfetto().expect("retained spans validate");
        assert!(dump.contains("\"traceEvents\""));
        assert!(dump.len() > frozen.len());
        perfetto::json_sanity(&dump).unwrap();
    }
}

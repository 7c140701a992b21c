//! Lightweight span-correlated event tracing.
//!
//! The PCIe bus-analyzer model (paper §V.A, Fig. 3) is a trace sink attached
//! between two link endpoints. The null sink costs nothing on hot paths;
//! `enabled()` lets callers skip even the construction of payloads.
//!
//! Every record optionally carries a [`SpanId`] — a deterministic id derived
//! from the RDMA message identity — so the observability plane can stitch the
//! full lifecycle of one message (post → fetch → TLP stream → torus frames →
//! RX write → completion) back together from a flat capture. Payloads are a
//! typed enum, not free-form strings, so consumers match on fields instead of
//! string-parsing; the `Display` impls reproduce the legacy text for human
//! renderings.

use crate::time::SimTime;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// Deterministic id correlating every trace record of one RDMA message.
///
/// Packs the message identity — `(src_rank, seq)` — into one u64:
/// the source rank in the top 24 bits, the per-rank sequence number in
/// the low 40. Derived, not allocated, so replays of the same schedule
/// produce the same ids with no shared counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    const SEQ_BITS: u32 = 40;
    const SEQ_MASK: u64 = (1u64 << Self::SEQ_BITS) - 1;

    /// Span for the message `(src_rank, seq)`.
    pub fn from_msg(src_rank: u32, seq: u64) -> Self {
        SpanId(((src_rank as u64) << Self::SEQ_BITS) | (seq & Self::SEQ_MASK))
    }

    /// Rank that posted the message.
    pub fn src_rank(self) -> u32 {
        (self.0 >> Self::SEQ_BITS) as u32
    }

    /// Per-rank message sequence number.
    pub fn seq(self) -> u64 {
        self.0 & Self::SEQ_MASK
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}#{}", self.src_rank(), self.seq())
    }
}

/// Typed record payload. Variants cover the observation points of the
/// reproduction; `Display` renders the historical detail-string format
/// so committed trace renderings stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePayload {
    /// Marker events with no data.
    None,
    /// One PCIe TLP as seen by the virtual interposer: `len` payload
    /// bytes, `wire` bytes including headers/DLL framing, direction
    /// relative to the analyzed link (`up` = toward the root complex).
    Tlp { len: u64, wire: u64, up: bool },
    /// One torus link frame: go-back-N sequence number, wire bytes,
    /// and whether this transmission is a retransmit.
    Frame { seq: u64, wire: u64, retrans: bool },
    /// A byte quantity (fetched, staged, written).
    Bytes { len: u64 },
    /// A whole-message event (post, delivery, completion).
    Msg { len: u64 },
}

impl TracePayload {
    /// Data bytes this record accounts for (0 for markers and frames,
    /// whose `wire` field is overhead-inclusive).
    pub fn data_len(&self) -> u64 {
        match *self {
            TracePayload::Tlp { len, .. }
            | TracePayload::Bytes { len }
            | TracePayload::Msg { len } => len,
            TracePayload::None | TracePayload::Frame { .. } => 0,
        }
    }
}

impl fmt::Display for TracePayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TracePayload::None => Ok(()),
            TracePayload::Tlp { len, wire, up } => {
                let dir = if up { "Up" } else { "Down" };
                write!(f, "len={len} wire={wire} dir={dir}")
            }
            TracePayload::Frame { seq, wire, retrans } => {
                write!(f, "seq={seq} wire={wire} retrans={retrans}")
            }
            TracePayload::Bytes { len } | TracePayload::Msg { len } => write!(f, "len={len}"),
        }
    }
}

/// Well-known record kinds emitted by the card along a message span, in
/// lifecycle order. The interposer's TLP mnemonics ("MRd", "CplD",
/// "MWr32"...) come from the PCIe layer and are not listed here.
pub mod kind {
    /// Host software handed a descriptor to the driver (before the
    /// modelled host-side cost: descriptor build + doorbell-batch
    /// delay). `POST − SUBMIT` is the tail ledger's `host_post` stage.
    pub const SUBMIT: &str = "submit";
    /// Host posted a TX descriptor (span birth).
    pub const POST: &str = "post";
    /// Payload bytes arrived from the GPU/host fetch engine.
    pub const FETCH: &str = "fetch";
    /// A packet was staged into a link TX queue.
    pub const STAGE: &str = "stage";
    /// A frame started serializing onto a torus/loopback wire.
    pub const FRAME_TX: &str = "frame-tx";
    /// A frame was accepted in-order by the receiving link layer.
    pub const FRAME_RX: &str = "frame-rx";
    /// Payload write toward the destination buffer began.
    pub const RX_WRITE: &str = "rx-write";
    /// Delivery completed on the card but the RX event ring was full:
    /// the completion is parked until the host pops an entry.
    /// `DELIVERED − RX_HELD` is the tail ledger's `rx_ring_wait` stage.
    pub const RX_HELD: &str = "rx-held";
    /// A packet left its minimal torus path to route around a dead
    /// link (annotation for tail attribution; not a time boundary).
    pub const DETOUR: &str = "detour";
    /// Destination host was notified of the delivery.
    pub const DELIVERED: &str = "delivered";
    /// Source host reaped the TX completion (span end).
    pub const TX_DONE: &str = "tx-done";
}

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// When the event happened.
    pub at: SimTime,
    /// Which component produced it.
    pub source: &'static str,
    /// Event kind (e.g. "MRd", "CplD", [`kind::FRAME_TX`]).
    pub kind: &'static str,
    /// The message span this record belongs to, when known.
    pub span: Option<SpanId>,
    /// Typed payload.
    pub payload: TracePayload,
}

#[derive(Clone)]
enum SinkImpl {
    Null,
    Vec(Rc<RefCell<Vec<TraceRecord>>>),
    Ring {
        buf: Rc<RefCell<VecDeque<TraceRecord>>>,
        cap: usize,
        dropped: Rc<Cell<u64>>,
    },
    Fold {
        subscriber: Rc<dyn Fn(&TraceRecord)>,
        inner: Box<SharedSink>,
    },
}

/// A cheaply clonable, shareable trace sink — components of a
/// single-threaded simulation share one capture buffer through this handle.
///
/// Four flavours: [`SharedSink::null`] discards, [`SharedSink::capturing`]
/// keeps everything, [`SharedSink::ring`] keeps the most recent `cap`
/// records in bounded memory (the virtual bus-analyzer's capture buffer),
/// counting evictions in [`SharedSink::dropped`], and
/// [`SharedSink::folding`] wraps one of the others, showing every record
/// to a subscriber first — an online fold sees the whole stream whatever
/// the wrapped sink keeps.
#[derive(Clone)]
pub struct SharedSink {
    inner: SinkImpl,
}

impl SharedSink {
    /// A disabled sink: records are discarded without construction cost.
    pub fn null() -> Self {
        SharedSink {
            inner: SinkImpl::Null,
        }
    }

    /// A capturing sink; read it back with [`SharedSink::take`] or
    /// [`SharedSink::snapshot`].
    pub fn capturing() -> Self {
        SharedSink {
            inner: SinkImpl::Vec(Rc::new(RefCell::new(Vec::new()))),
        }
    }

    /// A bounded ring sink keeping the most recent `cap` records; older
    /// records are evicted and counted in [`SharedSink::dropped`].
    pub fn ring(cap: usize) -> Self {
        SharedSink {
            inner: SinkImpl::Ring {
                buf: Rc::new(RefCell::new(VecDeque::with_capacity(cap.max(1)))),
                cap: cap.max(1),
                dropped: Rc::new(Cell::new(0)),
            },
        }
    }

    /// A sink handing every record to `subscriber`, then to `inner`.
    /// Reads ([`SharedSink::take`], [`SharedSink::len`],
    /// [`SharedSink::dropped`], [`SharedSink::snapshot`]) see `inner`
    /// alone; wrapping a null sink folds without keeping anything.
    pub fn folding(inner: SharedSink, subscriber: impl Fn(&TraceRecord) + 'static) -> Self {
        SharedSink {
            inner: SinkImpl::Fold {
                subscriber: Rc::new(subscriber),
                inner: Box::new(inner),
            },
        }
    }

    /// True when records are observed. Check before constructing
    /// payloads on hot paths.
    pub fn enabled(&self) -> bool {
        !matches!(self.inner, SinkImpl::Null)
    }

    /// Record one event (no-op when disabled).
    pub fn record(
        &self,
        at: SimTime,
        source: &'static str,
        kind: &'static str,
        span: Option<SpanId>,
        payload: TracePayload,
    ) {
        self.push(TraceRecord {
            at,
            source,
            kind,
            span,
            payload,
        });
    }

    fn push(&self, rec: TraceRecord) {
        match &self.inner {
            SinkImpl::Null => {}
            SinkImpl::Vec(v) => v.borrow_mut().push(rec),
            SinkImpl::Ring { buf, cap, dropped } => {
                let mut buf = buf.borrow_mut();
                if buf.len() == *cap {
                    buf.pop_front();
                    dropped.set(dropped.get() + 1);
                }
                buf.push_back(rec);
            }
            SinkImpl::Fold { subscriber, inner } => {
                subscriber(&rec);
                inner.push(rec);
            }
        }
    }

    /// Clone out the captured records (`None` for a null sink). Prefer
    /// [`SharedSink::take`] when the capture is consumed once.
    pub fn snapshot(&self) -> Option<Vec<TraceRecord>> {
        match &self.inner {
            SinkImpl::Null => None,
            SinkImpl::Vec(v) => Some(v.borrow().clone()),
            SinkImpl::Ring { buf, .. } => Some(buf.borrow().iter().cloned().collect()),
            SinkImpl::Fold { inner, .. } => inner.snapshot(),
        }
    }

    /// Drain the captured records without cloning them, leaving the sink
    /// empty (and reusable). Returns an empty vec for a null sink.
    pub fn take(&self) -> Vec<TraceRecord> {
        match &self.inner {
            SinkImpl::Null => Vec::new(),
            SinkImpl::Vec(v) => std::mem::take(&mut *v.borrow_mut()),
            SinkImpl::Ring { buf, .. } => buf.borrow_mut().drain(..).collect(),
            SinkImpl::Fold { inner, .. } => inner.take(),
        }
    }

    /// Records evicted from a ring sink, wrapped or not, because it was
    /// full (0 for the other flavours).
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            SinkImpl::Ring { dropped, .. } => dropped.get(),
            SinkImpl::Fold { inner, .. } => inner.dropped(),
            _ => 0,
        }
    }

    /// Number of captured records (0 for a null sink).
    pub fn len(&self) -> usize {
        match &self.inner {
            SinkImpl::Null => 0,
            SinkImpl::Vec(v) => v.borrow().len(),
            SinkImpl::Ring { buf, .. } => buf.borrow().len(),
            SinkImpl::Fold { inner, .. } => inner.len(),
        }
    }

    /// True when no records have been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_discards() {
        let s = SharedSink::null();
        assert!(!s.enabled());
        s.record(SimTime::ZERO, "x", "y", None, TracePayload::None);
        assert_eq!(s.snapshot(), None);
        assert_eq!(s.len(), 0);
        assert!(s.take().is_empty());
    }

    #[test]
    fn capturing_sink_keeps_order() {
        let s = SharedSink::capturing();
        assert!(s.enabled());
        let s2 = s.clone();
        s.record(
            SimTime::from_ps(1),
            "a",
            "MRd",
            None,
            TracePayload::Tlp {
                len: 0,
                wire: 24,
                up: true,
            },
        );
        s2.record(
            SimTime::from_ps(2),
            "b",
            "CplD",
            None,
            TracePayload::Tlp {
                len: 256,
                wire: 280,
                up: false,
            },
        );
        let recs = s.snapshot().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, "MRd");
        assert_eq!(recs[1].source, "b");
        assert!(recs[0].at < recs[1].at);
        assert!(!s.is_empty());
    }

    #[test]
    fn take_drains_without_cloning() {
        let s = SharedSink::capturing();
        for i in 0..4 {
            s.record(
                SimTime::from_ps(i),
                "c",
                kind::POST,
                Some(SpanId::from_msg(0, i)),
                TracePayload::Msg { len: 64 },
            );
        }
        let taken = s.take();
        assert_eq!(taken.len(), 4);
        assert!(s.is_empty(), "take leaves the sink empty");
        assert!(s.take().is_empty());
        // The sink stays usable after draining.
        s.record(SimTime::ZERO, "c", kind::POST, None, TracePayload::None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ring_sink_bounds_memory_and_counts_evictions() {
        let s = SharedSink::ring(3);
        assert!(s.enabled());
        for i in 0..5u64 {
            s.record(
                SimTime::from_ps(i),
                "r",
                kind::FRAME_TX,
                None,
                TracePayload::Frame {
                    seq: i,
                    wire: 100,
                    retrans: false,
                },
            );
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let recs = s.take();
        assert_eq!(recs.len(), 3);
        // Oldest two were evicted; the newest three survive in order.
        assert_eq!(recs[0].at, SimTime::from_ps(2));
        assert_eq!(recs[2].at, SimTime::from_ps(4));
    }

    #[test]
    fn folding_sink_shows_every_record_and_reads_the_wrapped_sink() {
        let seen = Rc::new(Cell::new(0u64));
        let counter = |seen: &Rc<Cell<u64>>| {
            let seen = seen.clone();
            move |r: &TraceRecord| seen.set(seen.get() + r.at.as_ps())
        };
        // Over a ring: the subscriber sees all five, the ring keeps two.
        let s = SharedSink::folding(SharedSink::ring(2), counter(&seen));
        assert!(s.enabled());
        for i in 1..=5u64 {
            s.record(
                SimTime::from_ps(i),
                "f",
                kind::POST,
                None,
                TracePayload::None,
            );
        }
        assert_eq!(seen.get(), 1 + 2 + 3 + 4 + 5);
        assert_eq!((s.len(), s.dropped()), (2, 3));
        assert_eq!(s.snapshot().unwrap().len(), 2);
        assert_eq!(s.take()[0].at, SimTime::from_ps(4));
        // Over a null sink: folded, nothing kept.
        seen.set(0);
        let s = SharedSink::folding(SharedSink::null(), counter(&seen));
        assert!(s.enabled(), "a fold observes even when nothing is kept");
        s.record(
            SimTime::from_ps(7),
            "f",
            kind::POST,
            None,
            TracePayload::None,
        );
        assert_eq!(seen.get(), 7);
        assert_eq!((s.len(), s.dropped()), (0, 0));
        assert_eq!(s.snapshot(), None);
        assert!(s.take().is_empty());
    }

    #[test]
    fn span_id_round_trips_and_orders() {
        let a = SpanId::from_msg(3, 41);
        assert_eq!(a.src_rank(), 3);
        assert_eq!(a.seq(), 41);
        assert_eq!(a.to_string(), "r3#41");
        assert_eq!(a, SpanId::from_msg(3, 41));
        assert!(SpanId::from_msg(0, u64::MAX >> 24) < SpanId::from_msg(1, 0));
    }

    #[test]
    fn payload_display_matches_legacy_detail_format() {
        let tlp = TracePayload::Tlp {
            len: 256,
            wire: 280,
            up: true,
        };
        assert_eq!(tlp.to_string(), "len=256 wire=280 dir=Up");
        let down = TracePayload::Tlp {
            len: 0,
            wire: 24,
            up: false,
        };
        assert_eq!(down.to_string(), "len=0 wire=24 dir=Down");
        assert_eq!(TracePayload::Msg { len: 7 }.to_string(), "len=7");
        assert_eq!(
            TracePayload::Frame {
                seq: 9,
                wire: 128,
                retrans: true
            }
            .to_string(),
            "seq=9 wire=128 retrans=true"
        );
        assert_eq!(TracePayload::None.to_string(), "");
        assert_eq!(tlp.data_len(), 256);
        assert_eq!(
            TracePayload::Frame {
                seq: 0,
                wire: 1,
                retrans: false
            }
            .data_len(),
            0
        );
    }
}

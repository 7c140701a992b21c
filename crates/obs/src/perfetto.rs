//! Chrome/Perfetto `trace_event` JSON export of message spans.
//!
//! Produces the legacy `{"traceEvents": [...]}` format that both
//! `chrome://tracing` and <https://ui.perfetto.dev> load. Timestamps are
//! *simulated* microseconds; each source rank gets its own track (tid),
//! with one complete ("X") slice per message span and its monotonic
//! phase partition nested inside — the [`MsgLedger::phases`] projection
//! of the span's latency ledger. Retransmit-carrying spans are marked
//! with instant ("i") events so injected-fault runs are visible at a
//! glance.
//!
//! The workspace is dependency-free, so this module also carries a
//! minimal hand-rolled JSON parser ([`json_sanity`]) and a nesting
//! validator ([`validate_nesting`]) that CI's trace-export smoke step
//! runs against the generated file.

use crate::latency::{collect_ledgers, MsgLedger};
use apenet_sim::trace::TraceRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One `trace_event`. Times are integer simulated picoseconds; JSON
/// serialization converts to the format's microsecond unit.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Slice/instant name.
    pub name: String,
    /// Phase: 'X' complete slice, 'i' instant, 'M' metadata,
    /// 'C' counter sample.
    pub ph: char,
    /// Start time in simulated ps.
    pub ts_ps: u64,
    /// Duration in ps ('X' only).
    pub dur_ps: u64,
    /// Process id (always 1: the simulation).
    pub pid: u32,
    /// Thread id — one track per source rank.
    pub tid: u64,
    /// `key: value` argument pairs (values pre-rendered as JSON).
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    fn end_ps(&self) -> u64 {
        self.ts_ps + self.dur_ps
    }
}

const PID: u32 = 1;

fn slice(name: String, tid: u64, start: u64, end: u64) -> TraceEvent {
    TraceEvent {
        name,
        ph: 'X',
        ts_ps: start,
        dur_ps: end.saturating_sub(start),
        pid: PID,
        tid,
        args: Vec::new(),
    }
}

/// The metadata event naming track `tid`.
fn thread_name(tid: u64, name: String) -> TraceEvent {
    TraceEvent {
        name: "thread_name".into(),
        ph: 'M',
        ts_ps: 0,
        dur_ps: 0,
        pid: PID,
        tid,
        args: vec![("name".into(), format!("\"{name}\""))],
    }
}

/// Export span-correlated `records` as trace events. Spanless records
/// (bare interposer TLPs) are not exported — the analyzer report covers
/// those; this view is the per-message timeline.
pub fn export(records: &[TraceRecord]) -> Vec<TraceEvent> {
    let spans = collect_ledgers(records);
    let ranks: BTreeSet<u32> = spans.iter().map(|l| l.span.src_rank()).collect();
    let tid = |rank: u32| rank as u64 + 1;
    let tracks = ranks
        .iter()
        .map(|&r| thread_name(tid(r), format!("rank {r} tx")));
    let slices = spans
        .iter()
        .flat_map(|l| span_events(l, tid(l.span.src_rank())));
    tracks.chain(slices).collect()
}

/// Like [`export`], but every span gets its own track (tid), named
/// after the message. This is the flight recorder's view: retained
/// messages from one rank can overlap in time (a burst), which on a
/// shared per-rank track would produce straddling phase slices; one
/// track per message keeps proper nesting by construction. Span order
/// (and so tid assignment) is the deterministic [`SpanId`](apenet_sim::trace::SpanId) order.
pub fn export_per_span(records: &[TraceRecord]) -> Vec<TraceEvent> {
    let spans = collect_ledgers(records);
    let tracks = spans.iter().zip(1..).flat_map(|(l, tid)| {
        let name = format!("rank {} msg {}", l.span.src_rank(), l.span);
        std::iter::once(thread_name(tid, name)).chain(span_events(l, tid))
    });
    tracks.collect()
}

fn span_events(l: &MsgLedger, tid: u64) -> Vec<TraceEvent> {
    let [t0, t1, t2, t3] = l.phases().map(|t| t.as_ps());
    let mut parent = slice(format!("msg {}", l.span), tid, t0, t3.max(t0 + 1));
    parent.args = vec![
        ("len".into(), l.len.to_string()),
        ("frames".into(), l.frames.to_string()),
        ("retransmits".into(), l.retransmits.to_string()),
        ("fetch_bytes".into(), l.fetch_bytes.to_string()),
    ];
    let mut out = vec![parent];
    // The phase partition: children tile [t0, t3] monotonically, so
    // they always nest inside the parent and never overlap each other.
    for (name, a, b) in [("tx-pipeline", t0, t1), ("link", t1, t2), ("rx", t2, t3)] {
        if b > a {
            out.push(slice(name.into(), tid, a, b));
        }
    }
    if l.retransmits > 0 {
        out.push(TraceEvent {
            name: format!("retransmits x{}", l.retransmits),
            ph: 'i',
            ts_ps: t1,
            dur_ps: 0,
            pid: PID,
            tid,
            args: Vec::new(),
        });
    }
    out
}

/// Build counter-track ('C') events from sampled time series. Each
/// `(id, points)` pair becomes one counter track named by the series id
/// (the occupancy sampler's stable metric ids), with one sample per
/// `(simulated ps, value)` observation. Counter tracks sit next to the
/// span tracks in the Perfetto UI, which is exactly the Fig. 3 view:
/// queue depth over the same timeline as the message slices.
pub fn counter_events(series: &[(String, Vec<(u64, u64)>)]) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    for (id, points) in series {
        for &(ps, v) in points {
            events.push(TraceEvent {
                name: id.clone(),
                ph: 'C',
                ts_ps: ps,
                dur_ps: 0,
                pid: PID,
                tid: 0,
                args: vec![("value".into(), v.to_string())],
            });
        }
    }
    events
}

fn ts_us(ps: u64) -> String {
    // Exact: ps -> µs is a /1e6 scale; render with 6 fractional digits
    // so every distinct picosecond keeps a distinct, stable text form.
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Render events as a Chrome/Perfetto `trace_event` JSON document.
pub fn to_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"{}\", \"ts\": {}, ",
            escape(&e.name),
            e.ph,
            ts_us(e.ts_ps)
        );
        if e.ph == 'X' {
            let _ = write!(out, "\"dur\": {}, ", ts_us(e.dur_ps));
        }
        if e.ph == 'i' {
            out.push_str("\"s\": \"t\", ");
        }
        let _ = write!(out, "\"pid\": {}, \"tid\": {}", e.pid, e.tid);
        if !e.args.is_empty() {
            out.push_str(", \"args\": {");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\": {}", escape(k), v);
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Check that 'X' slices obey stack discipline per (pid, tid) — every
/// pair of slices on a track is either disjoint or properly contained —
/// and that 'C' counter samples are well-formed: each carries at least
/// one integer-valued arg, and per (pid, counter name) the samples are
/// sorted by non-decreasing timestamp (the trace_event format renders a
/// counter track from its samples in file order). Returns the number of
/// validated slices plus counter samples.
pub fn validate_nesting(events: &[TraceEvent]) -> Result<usize, String> {
    let mut tracks: BTreeMap<(u32, u64), Vec<&TraceEvent>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.ph == 'X') {
        tracks.entry((e.pid, e.tid)).or_default().push(e);
    }
    let mut checked = 0;
    let mut counter_ts: BTreeMap<(u32, &str), u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.ph == 'C') {
        if e.args.is_empty() {
            return Err(format!("counter {:?} sample carries no value args", e.name));
        }
        for (k, v) in &e.args {
            if v.parse::<i64>().is_err() && v.parse::<f64>().is_err() {
                return Err(format!(
                    "counter {:?} arg {k:?} is not numeric: {v:?}",
                    e.name
                ));
            }
        }
        let last = counter_ts.entry((e.pid, e.name.as_str())).or_insert(0);
        if e.ts_ps < *last {
            return Err(format!(
                "counter {:?} samples go backwards: {} after {}",
                e.name, e.ts_ps, last
            ));
        }
        *last = e.ts_ps;
        checked += 1;
    }
    for ((pid, tid), mut evs) in tracks {
        // Chrome's stacking order: by start time, longer slices first.
        evs.sort_by(|a, b| a.ts_ps.cmp(&b.ts_ps).then(b.dur_ps.cmp(&a.dur_ps)));
        let mut stack: Vec<&TraceEvent> = Vec::new();
        for e in evs {
            while let Some(top) = stack.last() {
                if top.end_ps() <= e.ts_ps {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(top) = stack.last() {
                if e.end_ps() > top.end_ps() {
                    return Err(format!(
                        "track pid={pid} tid={tid}: slice {:?} [{}..{}] straddles the \
                         boundary of enclosing {:?} [{}..{}]",
                        e.name,
                        e.ts_ps,
                        e.end_ps(),
                        top.name,
                        top.ts_ps,
                        top.end_ps()
                    ));
                }
            }
            stack.push(e);
            checked += 1;
        }
    }
    Ok(checked)
}

/// Minimal recursive-descent JSON well-formedness check (the workspace
/// has no serde). Accepts exactly the RFC 8259 grammar; numbers are
/// validated syntactically, not parsed.
pub fn json_sanity(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), String> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {i}", i = *i)),
        None => Err("unexpected end of input".into()),
    }
}

fn object(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *i));
        }
        *i += 1;
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *i)),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), String> {
    *i += 1; // '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *i)),
        }
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *i));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        for k in 1..=4 {
                            if !b.get(*i + k).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {}", *i));
                            }
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at byte {}", *i)),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {}", *i)),
            _ => *i += 1,
        }
    }
    Err("unterminated string".into())
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() >= *i + lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *i))
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let mut digits = 0;
    while b.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        let mut frac = 0;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        let mut exp = 0;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use apenet_sim::trace::{kind, SpanId, TracePayload as P};
    use apenet_sim::SimTime;

    fn rec(at_ns: u64, k: &'static str, span: SpanId, payload: P) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_ps(at_ns * 1000),
            source: "card",
            kind: k,
            span: Some(span),
            payload,
        }
    }

    fn frame(seq: u64, wire: u64, retrans: bool) -> P {
        P::Frame { seq, wire, retrans }
    }

    fn sample_records() -> Vec<TraceRecord> {
        let mut v = Vec::new();
        for (rank, base) in [(0u32, 0u64), (1, 500)] {
            for seq in 0..2u64 {
                let s = SpanId::from_msg(rank, seq);
                let t = base + seq * 200;
                v.push(rec(t + 10, kind::POST, s, P::Msg { len: 4096 }));
                v.push(rec(t + 30, kind::FRAME_TX, s, frame(seq, 4200, false)));
                v.push(rec(t + 60, kind::FRAME_RX, s, frame(seq, 4200, false)));
                v.push(rec(t + 80, kind::DELIVERED, s, P::Msg { len: 4096 }));
            }
        }
        v
    }

    #[test]
    fn export_nests_and_serializes() {
        let events = export(&sample_records());
        // 4 spans x (1 parent + 3 phases) + 2 thread_name metadata.
        assert_eq!(events.iter().filter(|e| e.ph == 'X').count(), 16);
        assert_eq!(events.iter().filter(|e| e.ph == 'M').count(), 2);
        let checked = validate_nesting(&events).expect("phases nest inside parents");
        assert_eq!(checked, 16);
        let json = to_json(&events);
        json_sanity(&json).expect("export is well-formed JSON");
        assert!(json.contains("\"msg r0#0\""));
        assert!(json.contains("\"tx-pipeline\""));
        // ts conversion: 10ns = 0.010000 us.
        assert!(json.contains("\"ts\": 0.010000"));
    }

    #[test]
    fn validator_rejects_straddling_slices() {
        let a = slice("a".into(), 1, 0, 100);
        let b = slice("b".into(), 1, 50, 150); // overlaps a's tail
        assert!(validate_nesting(&[a.clone(), b]).is_err());
        let c = slice("c".into(), 2, 50, 150); // different track: fine
        assert_eq!(validate_nesting(&[a, c]).unwrap(), 2);
    }

    #[test]
    fn overlapping_burst_needs_the_per_span_view() {
        // Two messages from one rank in flight at once (a paced burst):
        // on the shared per-rank track of `export` their phase slices
        // straddle, which the validator must catch; `export_per_span`
        // gives each message its own track and validates clean. This is
        // the trace-export storm path in miniature.
        let mut v = Vec::new();
        for seq in 0..2u64 {
            let s = SpanId::from_msg(0, seq);
            let t = seq * 40; // overlaps the previous message's link phase
            v.push(rec(t + 10, kind::POST, s, P::Msg { len: 4096 }));
            v.push(rec(t + 30, kind::FRAME_TX, s, frame(seq, 4200, false)));
            v.push(rec(t + 120, kind::FRAME_RX, s, frame(seq, 4200, false)));
            v.push(rec(t + 140, kind::DELIVERED, s, P::Msg { len: 4096 }));
        }
        assert!(
            validate_nesting(&export(&v)).is_err(),
            "shared-track export of an overlapping burst must straddle"
        );
        let per_span = export_per_span(&v);
        validate_nesting(&per_span).expect("per-span tracks nest by construction");

        // Counter samples share the timeline without joining the slice
        // nesting: appending them keeps the export valid and only grows
        // the checked-event count (the full trace-export composition).
        let slices_ok = validate_nesting(&per_span).unwrap();
        let mut mixed = per_span;
        let series = vec![("cwnd.r1.d0".to_string(), vec![(0, 4), (50_000, 2)])];
        mixed.extend(counter_events(&series));
        assert_eq!(validate_nesting(&mixed).unwrap(), slices_ok + 2);
        json_sanity(&to_json(&mixed)).expect("mixed export is well-formed JSON");
    }

    #[test]
    fn counter_tracks_validate_and_serialize() {
        let series = vec![
            ("card0.tx_fifo".to_string(), vec![(0, 3), (2_000_000, 7)]),
            ("link.x+.util".to_string(), vec![(1_000_000, 450)]),
        ];
        let events = counter_events(&series);
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.ph == 'C'));
        let checked = validate_nesting(&events).expect("well-formed counters");
        assert_eq!(checked, 3);
        let json = to_json(&events);
        json_sanity(&json).expect("counter export is well-formed JSON");
        assert!(json.contains("\"card0.tx_fifo\""));
        assert!(json.contains("\"args\": {\"value\": 450}"));

        // Out-of-order samples on one counter are rejected...
        let mut bad = counter_events(&series);
        bad[0].ts_ps = 9_000_000;
        assert!(validate_nesting(&bad).is_err());
        // ...as are samples with no args or non-numeric args.
        let mut no_args = counter_events(&series);
        no_args[0].args.clear();
        assert!(validate_nesting(&no_args).is_err());
        let mut bad_arg = counter_events(&series);
        bad_arg[0].args[0].1 = "\"three\"".into();
        assert!(validate_nesting(&bad_arg).is_err());
    }

    #[test]
    fn json_sanity_accepts_and_rejects() {
        json_sanity("{}").unwrap();
        json_sanity("[1, 2.5, -3e4, \"x\\n\", true, null, {\"k\": []}]").unwrap();
        json_sanity("  {\"a\": {\"b\": [1]}}  ").unwrap();
        assert!(json_sanity("{").is_err());
        assert!(json_sanity("{\"a\": }").is_err());
        assert!(json_sanity("[1,]").is_err());
        assert!(json_sanity("1 2").is_err());
        assert!(json_sanity("\"unterminated").is_err());
        assert!(json_sanity("12.").is_err());
        assert!(
            json_sanity("{\"inf\": Infinity}").is_err(),
            "non-JSON floats rejected"
        );
    }

    #[test]
    fn slices_project_the_ledger_for_get_and_incomplete_spans() {
        let get = SpanId::from_msg(0, 0);
        let lost = SpanId::from_msg(1, 0);
        let records = vec![
            // GET: the read request goes onto the wire before the
            // responder fetches, so the link phase starts only once the
            // response is staged, past the request's FRAME_TX.
            rec(10, kind::POST, get, P::Msg { len: 64 }),
            rec(20, kind::FRAME_TX, get, frame(0, 100, false)),
            rec(40, kind::FETCH, get, P::Bytes { len: 64 }),
            rec(45, kind::STAGE, get, P::Bytes { len: 64 }),
            rec(50, kind::FRAME_TX, get, frame(0, 100, false)),
            rec(80, kind::FRAME_RX, get, frame(0, 100, false)),
            rec(100, kind::DELIVERED, get, P::Msg { len: 64 }),
            // Incomplete: never delivered, and a replay long after the
            // last observed boundary does not stretch the message.
            rec(10, kind::POST, lost, P::Msg { len: 64 }),
            rec(30, kind::FRAME_TX, lost, frame(0, 100, false)),
            rec(60, kind::FRAME_RX, lost, frame(0, 100, false)),
            rec(70, kind::RX_WRITE, lost, P::Bytes { len: 64 }),
            rec(5_000, kind::FRAME_TX, lost, frame(0, 100, true)),
        ];
        let events = export_per_span(&records);
        validate_nesting(&events).expect("per-span tracks nest");
        let ledgers = collect_ledgers(&records);
        for (tid, l, ns) in [
            (1, &ledgers[0], [10, 45, 80, 100]),
            (2, &ledgers[1], [10, 30, 60, 70]),
        ] {
            let [t0, t1, t2, t3] = ns.map(|t| t * 1000);
            assert_eq!(l.phases().map(|t| t.as_ps()), [t0, t1, t2, t3]);
            let parent = format!("msg {}", l.span);
            let slices: Vec<(&str, u64, u64)> = events
                .iter()
                .filter(|e| e.ph == 'X' && e.tid == tid)
                .map(|e| (e.name.as_str(), e.ts_ps, e.end_ps()))
                .collect();
            let want = [
                (parent.as_str(), t0, t3),
                ("tx-pipeline", t0, t1),
                ("link", t1, t2),
                ("rx", t2, t3),
            ];
            assert_eq!(slices, want, "{parent}");
        }
    }

    #[test]
    fn instants_mark_retransmitting_spans() {
        let s = SpanId::from_msg(0, 0);
        let records = vec![
            rec(10, kind::POST, s, P::Msg { len: 64 }),
            rec(20, kind::FRAME_TX, s, frame(0, 100, false)),
            rec(40, kind::FRAME_TX, s, frame(0, 100, true)),
            rec(60, kind::FRAME_RX, s, frame(0, 100, false)),
            rec(70, kind::DELIVERED, s, P::Msg { len: 64 }),
        ];
        let events = export(&records);
        let inst: Vec<&TraceEvent> = events.iter().filter(|e| e.ph == 'i').collect();
        assert_eq!(inst.len(), 1);
        assert_eq!(inst[0].name, "retransmits x1");
        json_sanity(&to_json(&events)).unwrap();
    }
}

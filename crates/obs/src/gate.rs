//! Perf-regression gate: compare a fresh `BENCH_*.json` against a
//! committed baseline with per-metric tolerances.
//!
//! The gate is a *pure comparator*: it parses two JSON documents,
//! flattens them to dotted numeric keys, classifies each key by what
//! kind of number it is, and reports regressions. Measuring is the
//! bench bin's job; keeping comparison separate makes the ≥10 %
//! injected-regression property testable without running a benchmark.
//!
//! Key classification:
//!
//! * **exact** — deterministic simulation quantities (`…events`): any
//!   drift is a real behavioural change, tolerance 0.
//! * **lower-is-worse** — throughputs (`events_per_sec`, `mb_s`): fail
//!   when fresh < baseline × (1 − tol).
//! * **higher-is-worse** — latencies (`median_ns`, `…_ps`): fail when
//!   fresh > baseline × (1 + tol). A `_ns` (wall-clock) failure must
//!   also exceed [`MIN_NS_DELTA`] absolutely — relative jitter on a
//!   microsecond-scale bench is runner noise, not signal — otherwise
//!   it is reported as a note.
//! * **skipped** — wall-clock totals, thread counts, iteration counts,
//!   derived ratios (`speedup`), per-thread diagnostics, and best-case
//!   samples (`min_ns`, which only ever inflates under load): too
//!   machine-dependent to gate on.

use apenet_sim::env::{env_var, EnvError};
use std::collections::BTreeMap;

/// Fractional tolerance applied to wall-clock-derived metrics when the
/// caller does not override it (`APENET_GATE_TOL`).
pub const DEFAULT_TOL: f64 = 0.08;

/// Smallest absolute wall-clock regression (in nanoseconds) the gate
/// treats as signal. Shared-runner jitter swamps relative comparisons
/// of microsecond-scale benches; a `_ns` latency regression below this
/// delta is surfaced as a note instead of failing the gate.
/// Deterministic and throughput checks are unaffected.
pub const MIN_NS_DELTA: f64 = 100_000.0;

const TOL_GRAMMAR: &str = "<fraction> (a finite number >= 0, e.g. 0.25)";

/// Tolerance from `APENET_GATE_TOL` (a fraction, e.g. `0.25`), or
/// [`DEFAULT_TOL`] when unset or empty.
///
/// # Panics
///
/// On a malformed value, naming it and the grammar.
pub fn tol_from_env() -> f64 {
    env_var("APENET_GATE_TOL", parse_tol)
}

/// Parse an `APENET_GATE_TOL` value: empty is [`DEFAULT_TOL`].
fn parse_tol(v: &str) -> Result<f64, EnvError> {
    match v.trim() {
        "" => Ok(DEFAULT_TOL),
        t => t
            .parse()
            .ok()
            .filter(|t: &f64| t.is_finite() && *t >= 0.0)
            .ok_or_else(|| EnvError::new("APENET_GATE_TOL", v, TOL_GRAMMAR)),
    }
}

/// Outcome of one baseline-vs-fresh comparison.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Keys compared (exact or within tolerance).
    pub checked: usize,
    /// Keys excluded by policy.
    pub skipped: Vec<String>,
    /// Human-readable regression descriptions; empty means pass.
    pub failures: Vec<String>,
    /// Non-fatal observations (new/missing advisory keys, big wins).
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// True when no regression was detected.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Render the gate report (stable ordering).
    pub fn render(&self, baseline_name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "gate vs {}: {} checked, {} skipped, {} failures\n",
            baseline_name,
            self.checked,
            self.skipped.len(),
            self.failures.len()
        ));
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        for f in &self.failures {
            out.push_str(&format!("  FAIL: {f}\n"));
        }
        out.push_str(if self.passed() {
            "  PASS\n"
        } else {
            "  REGRESSION\n"
        });
        out
    }
}

#[derive(Debug, PartialEq)]
enum Policy {
    Exact,
    LowerWorse,
    HigherWorse,
    Skip,
}

fn policy_for(key: &str) -> Policy {
    let leaf = key.rsplit('.').next().unwrap_or(key);
    if key.contains("speedup")
        || key.contains("threads")
        || key.contains("wall")
        || leaf == "iters"
        || leaf == "warmup"
        || leaf == "busy_ns"
        || leaf == "min_ns"
    {
        Policy::Skip
    } else if leaf == "events" || leaf == "count" {
        Policy::Exact
    } else if leaf.contains("per_sec") || leaf.contains("mb_s") || leaf.contains("bandwidth") {
        Policy::LowerWorse
    } else if leaf.ends_with("_ns") || leaf.ends_with("_ps") || leaf.contains("latency") {
        Policy::HigherWorse
    } else {
        Policy::Skip
    }
}

/// Compare two bench JSON documents. `tol` is the fractional tolerance
/// for wall-derived metrics. Errors only on malformed JSON.
pub fn compare(baseline: &str, fresh: &str, tol: f64) -> Result<GateOutcome, String> {
    let base = flatten_numbers(baseline)?;
    let new = flatten_numbers(fresh)?;
    let mut out = GateOutcome::default();
    for (key, &b) in &base {
        let policy = policy_for(key);
        if policy == Policy::Skip {
            out.skipped.push(key.clone());
            continue;
        }
        let Some(&f) = new.get(key) else {
            out.failures.push(format!(
                "{key}: present in baseline, missing from fresh run"
            ));
            continue;
        };
        out.checked += 1;
        match policy {
            Policy::Exact => {
                if f != b {
                    out.failures.push(format!(
                        "{key}: deterministic value drifted, baseline {b} vs fresh {f}"
                    ));
                }
            }
            Policy::LowerWorse => {
                if f < b * (1.0 - tol) {
                    out.failures.push(format!(
                        "{key}: {f:.1} is {:.1}% below baseline {b:.1} (tol {:.0}%)",
                        (1.0 - f / b) * 100.0,
                        tol * 100.0
                    ));
                } else if f > b * (1.0 + tol) {
                    out.notes.push(format!("{key}: improved, {b:.1} -> {f:.1}"));
                }
            }
            Policy::HigherWorse => {
                if f > b * (1.0 + tol) {
                    if key.ends_with("_ns") && f - b <= MIN_NS_DELTA {
                        out.notes.push(format!(
                            "{key}: {f:.1} is {:.1}% above baseline {b:.1} but within the \
                             gate's {:.0} us wall-clock resolution",
                            (f / b - 1.0) * 100.0,
                            MIN_NS_DELTA / 1000.0
                        ));
                    } else {
                        out.failures.push(format!(
                            "{key}: {f:.1} is {:.1}% above baseline {b:.1} (tol {:.0}%)",
                            (f / b - 1.0) * 100.0,
                            tol * 100.0
                        ));
                    }
                } else if f < b * (1.0 - tol) {
                    out.notes.push(format!("{key}: improved, {b:.1} -> {f:.1}"));
                }
            }
            Policy::Skip => unreachable!(),
        }
    }
    for key in new.keys() {
        if !base.contains_key(key) && policy_for(key) != Policy::Skip {
            out.notes
                .push(format!("{key}: new metric, not in baseline"));
        }
    }
    Ok(out)
}

/// Parse `json` and flatten every numeric leaf to a dotted key.
/// Object members nest with `.`; array elements whose object carries a
/// `"name"` string use that name as the segment, others their index —
/// so `{"benches": [{"name": "x", "median_ns": 5}]}` flattens to
/// `benches.x.median_ns`.
pub fn flatten_numbers(json: &str) -> Result<BTreeMap<String, f64>, String> {
    crate::perfetto::json_sanity(json)?;
    let mut out = BTreeMap::new();
    let v = Parser {
        b: json.as_bytes(),
        i: 0,
    }
    .parse()?;
    flatten(&v, String::new(), &mut out);
    Ok(out)
}

#[derive(Debug)]
enum Val {
    Num(f64),
    Str(String),
    Other,
    Arr(Vec<Val>),
    Obj(Vec<(String, Val)>),
}

fn flatten(v: &Val, prefix: String, out: &mut BTreeMap<String, f64>) {
    match v {
        Val::Num(n) => {
            out.insert(prefix, *n);
        }
        Val::Obj(members) => {
            for (k, m) in members {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(m, key, out);
            }
        }
        Val::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let seg = match item {
                    Val::Obj(members) => members
                        .iter()
                        .find_map(|(k, v)| match (k.as_str(), v) {
                            ("name", Val::Str(s)) => Some(s.clone()),
                            _ => None,
                        })
                        .unwrap_or_else(|| i.to_string()),
                    _ => i.to_string(),
                };
                flatten(item, format!("{prefix}.{seg}"), out);
            }
        }
        Val::Str(_) | Val::Other => {}
    }
}

/// Tiny value-producing JSON parser. Input is pre-validated by
/// [`json_sanity`](crate::perfetto::json_sanity), so error paths here
/// are unreachable in practice and kept terse.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(mut self) -> Result<Val, String> {
        self.ws();
        self.value()
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Val::Str),
            Some(b't') => self.lit(4),
            Some(b'f') => self.lit(5),
            Some(b'n') => self.lit(4),
            Some(_) => self.number(),
            None => Err("eof".into()),
        }
    }

    fn lit(&mut self, n: usize) -> Result<Val, String> {
        self.i += n;
        Ok(Val::Other)
    }

    fn object(&mut self) -> Result<Val, String> {
        self.i += 1;
        let mut members = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Val::Obj(members));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.i += 1; // ':'
            self.ws();
            members.push((k, self.value()?));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                _ => {
                    self.i += 1; // '}'
                    return Ok(Val::Obj(members));
                }
            }
        }
    }

    fn array(&mut self) -> Result<Val, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Val::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                _ => {
                    self.i += 1; // ']'
                    return Ok(Val::Arr(items));
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening '"'
        let mut s = String::new();
        while let Some(&c) = self.b.get(self.i) {
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            // Keep the raw escape: gate keys never need
                            // non-ASCII fidelity, only stability.
                            s.push_str("\\u");
                            for k in 1..=4 {
                                s.push(self.b[self.i + k] as char);
                            }
                            self.i += 4;
                        }
                        Some(&e) => s.push(e as char),
                        None => return Err("eof in escape".into()),
                    }
                    self.i += 1;
                }
                _ => {
                    s.push(c as char);
                    self.i += 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn number(&mut self) -> Result<Val, String> {
        let start = self.i;
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Val::Num)
            .ok_or_else(|| format!("bad number at {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tol_grammar_is_strict() {
        assert_eq!(parse_tol(""), Ok(DEFAULT_TOL));
        assert_eq!(parse_tol(" 0.25 "), Ok(0.25));
        assert_eq!(parse_tol("10"), Ok(10.0));
        assert_eq!(parse_tol("0"), Ok(0.0));
        let e = parse_tol("O.25").unwrap_err();
        assert_eq!(
            e.to_string(),
            "APENET_GATE_TOL=\"O.25\" is malformed; expected <fraction> (a finite number >= 0, e.g. 0.25)"
        );
        for bad in ["-0.1", "inf", "NaN", "25%", "0.25x"] {
            assert!(parse_tol(bad).is_err(), "{bad}");
        }
    }

    const BASE: &str = r#"{
      "threads": 4,
      "parallel": {"wall_s": 110.6, "events": 4753047, "events_per_sec": 42964.1},
      "speedup": 0.899,
      "benches": [
        {"name": "engine_dispatch_100k", "iters": 15, "median_ns": 3320000, "events_per_sec": 30100000.0},
        {"name": "two_node_gg_64k_x4", "iters": 15, "median_ns": 910000, "events_per_sec": 68369.6}
      ]
    }"#;

    fn with(base: &str, from: &str, to: &str) -> String {
        assert!(base.contains(from), "fixture edit must apply");
        base.replacen(from, to, 1)
    }

    #[test]
    fn identical_files_pass() {
        let out = compare(BASE, BASE, 0.08).unwrap();
        assert!(out.passed(), "{:?}", out.failures);
        assert!(out.checked >= 4);
        assert!(out.skipped.iter().any(|k| k.contains("speedup")));
        assert!(out.skipped.iter().any(|k| k.contains("wall_s")));
    }

    #[test]
    fn ten_percent_events_per_sec_regression_fails() {
        let fresh = with(
            BASE,
            "\"events_per_sec\": 68369.6",
            "\"events_per_sec\": 61532.6",
        );
        let out = compare(BASE, &fresh, 0.08).unwrap();
        assert!(!out.passed());
        assert_eq!(out.failures.len(), 1);
        assert!(
            out.failures[0].contains("benches.two_node_gg_64k_x4.events_per_sec"),
            "{}",
            out.failures[0]
        );
        // The same drop is *within* a 15 % tolerance.
        assert!(compare(BASE, &fresh, 0.15).unwrap().passed());
    }

    #[test]
    fn latency_regression_is_higher_is_worse() {
        let fresh = with(BASE, "\"median_ns\": 910000", "\"median_ns\": 1200000");
        let out = compare(BASE, &fresh, 0.08).unwrap();
        assert!(!out.passed());
        // A latency *improvement* must pass (with a note).
        let fresh = with(BASE, "\"median_ns\": 910000", "\"median_ns\": 500000");
        let out = compare(BASE, &fresh, 0.08).unwrap();
        assert!(out.passed());
        assert!(out.notes.iter().any(|n| n.contains("improved")));
    }

    #[test]
    fn deterministic_event_drift_fails_exactly() {
        let fresh = with(BASE, "\"events\": 4753047", "\"events\": 4753048");
        let out = compare(BASE, &fresh, 0.5).unwrap();
        assert!(!out.passed(), "even 1 event of drift is a behaviour change");
        assert!(out.failures[0].contains("parallel.events"));
    }

    #[test]
    fn missing_metric_fails_new_metric_notes() {
        let fresh = with(
            BASE,
            "\"events_per_sec\": 42964.1",
            "\"other_per_sec\": 42964.1",
        );
        let out = compare(BASE, &fresh, 0.08).unwrap();
        assert!(!out.passed());
        assert!(out.failures[0].contains("missing from fresh run"));
        assert!(out.notes.iter().any(|n| n.contains("new metric")));
    }

    #[test]
    fn sub_resolution_latency_jitter_is_a_note_not_a_failure() {
        // A 2 µs bench "regressing" 50% is runner noise (1 µs of drift);
        // the same relative drift on a millisecond bench is real.
        let base = with(
            BASE,
            "\"median_ns\": 910000",
            "\"median_ns\": 910000, \"tiny_ns\": 2000",
        );
        let fresh = with(&base, "\"tiny_ns\": 2000", "\"tiny_ns\": 3000");
        let out = compare(&base, &fresh, 0.08).unwrap();
        assert!(out.passed(), "{:?}", out.failures);
        assert!(out.notes.iter().any(|n| n.contains("resolution")));
    }

    #[test]
    fn best_case_samples_are_diagnostic_not_gated() {
        // `min_ns` of a microsecond-scale bench inflates arbitrarily on a
        // loaded runner; the gate reads it as diagnostic only.
        let base = with(
            BASE,
            "\"median_ns\": 910000",
            "\"median_ns\": 910000, \"min_ns\": 20000",
        );
        let fresh = with(&base, "\"min_ns\": 20000", "\"min_ns\": 90000");
        let out = compare(&base, &fresh, 0.08).unwrap();
        assert!(out.passed(), "{:?}", out.failures);
        assert!(out.skipped.iter().any(|k| k.ends_with("min_ns")));
    }

    #[test]
    fn flatten_uses_bench_names() {
        let flat = flatten_numbers(BASE).unwrap();
        assert_eq!(flat["benches.engine_dispatch_100k.median_ns"], 3_320_000.0);
        assert_eq!(flat["parallel.events"], 4_753_047.0);
        assert_eq!(flat["threads"], 4.0);
    }

    #[test]
    fn render_mentions_verdict() {
        let out = compare(BASE, BASE, 0.08).unwrap();
        let r = out.render("BENCH_x.json");
        assert!(r.contains("PASS"));
        assert!(r.ends_with('\n'));
    }
}

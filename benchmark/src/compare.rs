//! `--compare <runsA> <runsB>`: two sets of run records side by side.
//!
//! A set is a directory of record files (`--json` output, as
//! `run.sh` writes them) or one file; a file holds one record or
//! `{"runs": [record, …]}` (as `baseline.json` does). For every workload,
//! trace mode and metric it prints each set's median and quartiles; for
//! metrics with a bound in the `end_to_end` table of `BENCHMARK.json`
//! (read from the working directory; every bounded metric is
//! lower-is-better) it adds a verdict. It exits 1 when a bounded metric
//! regressed past its bound, when a run failed, or when runs of one
//! workload and seed disagree on their digest or on a deterministic
//! count.

use crate::stats::quartiles;
use apenet_obs::gate::flatten_numbers;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// The benchmark definition holding the bounds, relative to the
/// repository root.
const SPEC: &str = "BENCHMARK.json";

/// One run record.
#[derive(Debug)]
pub struct Record {
    /// Where it came from, for messages.
    pub source: String,
    /// Workload name.
    pub workload: String,
    /// Every numeric field below the workload key, flattened
    /// (`seed`, `trace`, `failed`, `digest_hi`, `metrics.<name>`, …).
    pub fields: BTreeMap<String, f64>,
}

impl Record {
    fn get(&self, key: &str) -> f64 {
        self.fields.get(key).copied().unwrap_or(f64::NAN)
    }

    fn prefixed<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.fields
            .iter()
            .filter_map(move |(k, &v)| Some((k.strip_prefix(prefix)?, v)))
    }
}

/// Split one record file's text into records.
pub fn parse_records(source: &str, json: &str) -> Result<Vec<Record>, String> {
    let flat = flatten_numbers(json).map_err(|e| format!("{source}: {e}"))?;
    let mut out: BTreeMap<(usize, String), Record> = BTreeMap::new();
    for (key, v) in flat {
        // `runs.<i>.<workload>.<field>` in a set file, else
        // `<workload>.<field>`. Workload names hold no dots.
        let (i, rest) = match key.strip_prefix("runs.") {
            Some(r) => {
                let (i, rest) = r
                    .split_once('.')
                    .ok_or(format!("{source}: bad key {key}"))?;
                (
                    i.parse().map_err(|_| format!("{source}: bad key {key}"))?,
                    rest,
                )
            }
            None => (0, key.as_str()),
        };
        let (workload, field) = rest
            .split_once('.')
            .ok_or(format!("{source}: bad key {key}"))?;
        let rec = out
            .entry((i, workload.to_string()))
            .or_insert_with(|| Record {
                source: source.to_string(),
                workload: workload.to_string(),
                fields: BTreeMap::new(),
            });
        rec.fields.insert(field.to_string(), v);
    }
    Ok(out.into_values().collect())
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let p = Path::new(path);
    let mut files = Vec::new();
    if p.is_dir() {
        for e in std::fs::read_dir(p).map_err(|e| format!("{path}: {e}"))? {
            let f = e.map_err(|e| format!("{path}: {e}"))?.path();
            if f.extension().is_some_and(|x| x == "json") {
                files.push(f);
            }
        }
        files.sort();
    } else {
        files.push(p.to_path_buf());
    }
    let mut out = Vec::new();
    for f in files {
        let name = f.display().to_string();
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{name}: {e}"))?;
        out.extend(parse_records(&name, &text)?);
    }
    if out.is_empty() {
        return Err(format!("{path}: no run records"));
    }
    Ok(out)
}

/// `end_to_end.<name>.bound` of a flattened `BENCHMARK.json`.
pub fn bounds(spec_json: &str) -> Result<BTreeMap<String, f64>, String> {
    Ok(flatten_numbers(spec_json)?
        .into_iter()
        .filter_map(|(k, v)| {
            let name = k.strip_prefix("end_to_end.")?.strip_suffix(".bound")?;
            Some((name.to_string(), v))
        })
        .collect())
}

fn fmt_q(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some((q1, m, q3)) => format!("{m:.6} [{q1:.6}, {q3:.6}] n={}", xs.len()),
        None => "-".to_string(),
    }
}

/// Compare two record sets; returns the report and whether they agree.
pub fn compare(a: &[Record], b: &[Record], bounds: &BTreeMap<String, f64>) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for r in a.iter().chain(b) {
        if r.get("failed") != 0.0 {
            ok = false;
            let _ = writeln!(
                out,
                "FAILED RUN {} ({}): {} failed ops",
                r.source,
                r.workload,
                r.get("failed")
            );
        }
    }
    // Digests and deterministic counts must agree within (workload, seed).
    let mut first: BTreeMap<(String, u64), &Record> = BTreeMap::new();
    for r in a.iter().chain(b) {
        let key = (r.workload.clone(), r.get("seed") as u64);
        let Some(f) = first.get(&key) else {
            first.insert(key, r);
            continue;
        };
        for d in ["digest_hi", "digest_lo"] {
            if r.get(d) != f.get(d) {
                ok = false;
                let _ = writeln!(
                    out,
                    "DIGEST DIFFERS {} vs {} ({})",
                    f.source, r.source, r.workload
                );
                break;
            }
        }
        for (k, v) in r.prefixed("counts.") {
            let w = f.fields.get(&format!("counts.{k}"));
            if w.is_some_and(|&w| w != v) {
                ok = false;
                let _ = writeln!(
                    out,
                    "COUNT DIFFERS {}.{k}: {} in {} vs {v} in {}",
                    r.workload,
                    w.unwrap(),
                    f.source,
                    r.source
                );
            }
        }
    }
    // Distributions, per workload, trace mode and metric.
    type Key = (String, u8, String);
    let mut dist: BTreeMap<Key, [Vec<f64>; 2]> = BTreeMap::new();
    for (side, set) in [a, b].into_iter().enumerate() {
        for r in set {
            for (m, v) in r.prefixed("metrics.") {
                let key = (r.workload.clone(), r.get("trace") as u8, m.to_string());
                dist.entry(key).or_default()[side].push(v);
            }
        }
    }
    let _ = writeln!(
        out,
        "{:<14} {:<5} {:<40} {:<44} {:<44} {:>8}  verdict",
        "workload", "trace", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    for ((w, trace, m), [xa, xb]) in &dist {
        if xa.iter().chain(xb).all(|&x| x == 0.0) {
            continue; // work this workload never does
        }
        let (ma, mb) = (quartiles(xa).map(|q| q.1), quartiles(xb).map(|q| q.1));
        let change = match (ma, mb) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:+.1}%", 100.0 * (y / x - 1.0)),
            _ => "-".to_string(),
        };
        let verdict = match (bounds.get(m.as_str()), ma, mb) {
            (Some(&bound), Some(x), Some(y)) if *trace == 0 => {
                if y > x * (1.0 + bound) {
                    ok = false;
                    format!("REGRESSED (bound {:.0}%)", bound * 100.0)
                } else if y < x * (1.0 - bound) {
                    "improved".to_string()
                } else {
                    format!("ok (bound {:.0}%)", bound * 100.0)
                }
            }
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{w:<14} {trace:<5} {m:<40} {:<44} {:<44} {change:>8}  {verdict}",
            fmt_q(xa),
            fmt_q(xb)
        );
    }
    let _ = writeln!(out, "verdict: {}", if ok { "agree" } else { "DISAGREE" });
    (out, ok)
}

/// The `--compare` entry point.
pub fn main(argv: &[String]) -> ExitCode {
    let [a, b] = argv else {
        eprintln!("usage: benchmark --compare <runsA> <runsB>");
        return ExitCode::from(2);
    };
    let run = || -> Result<bool, String> {
        let spec = std::fs::read_to_string(SPEC).map_err(|e| format!("{SPEC}: {e}"))?;
        let (report, ok) = compare(&load(a)?, &load(b)?, &bounds(&spec)?);
        print!("{report}");
        Ok(ok)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark --compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(wall: f64, digest_lo: u64, events: u64) -> String {
        format!(
            "{{\"chaos_ring\": {{\"seed\": 1, \"trace\": 0, \"failed\": 0, \"digest_hi\": 1, \
             \"digest_lo\": {digest_lo}, \"metrics\": {{\"wall_s\": {wall}}}, \
             \"counts\": {{\"sim.events\": {events}}}}}}}"
        )
    }

    fn set(walls: &[f64]) -> Vec<Record> {
        walls
            .iter()
            .flat_map(|&w| parse_records("t", &rec(w, 7, 100)).unwrap())
            .collect()
    }

    fn spec() -> BTreeMap<String, f64> {
        bounds(
            r#"{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn records_parse_single_and_set_files() {
        let one = parse_records("a", &rec(1.5, 7, 100)).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].workload, "chaos_ring");
        assert_eq!(one[0].get("metrics.wall_s"), 1.5);
        assert_eq!(one[0].get("counts.sim.events"), 100.0);
        let many = format!("{{\"runs\": [{}, {}]}}", rec(1.0, 7, 100), rec(2.0, 7, 100));
        let both = parse_records("b", &many).unwrap();
        assert_eq!(both.len(), 2);
        assert_eq!(both[1].get("metrics.wall_s"), 2.0);
    }

    #[test]
    fn bounds_come_from_the_end_to_end_table() {
        assert_eq!(spec().get("wall_s"), Some(&0.1));
    }

    #[test]
    fn equal_sets_agree_and_a_regression_does_not() {
        let a = set(&[1.0, 1.02, 0.98, 1.01, 0.99]);
        assert!(compare(&a, &set(&[1.0, 1.03, 0.97, 1.0, 1.05]), &spec()).1);
        let (report, ok) = compare(&a, &set(&[1.2, 1.25, 1.22, 1.21, 1.3]), &spec());
        assert!(!ok);
        assert!(report.contains("REGRESSED"), "{report}");
        assert!(
            compare(&a, &set(&[0.5, 0.5, 0.5]), &spec()).1,
            "faster is fine"
        );
    }

    #[test]
    fn digest_or_count_disagreement_fails() {
        let a = set(&[1.0]);
        let b = parse_records("t", &rec(1.0, 8, 100)).unwrap();
        assert!(!compare(&a, &b, &spec()).1);
        let c = parse_records("t", &rec(1.0, 7, 101)).unwrap();
        let (report, ok) = compare(&a, &c, &spec());
        assert!(!ok && report.contains("COUNT DIFFERS"), "{report}");
    }
}

//! The simulator benchmark.
//!
//! `benchmark --workload <name> [--seed S] [--seconds T] [--trace 0|1]
//! [--json FILE]` runs one workload in this process, on one thread:
//!
//! 1. the timed phase: the warm-up op, then rounds over the workload's
//!    ops until `T` seconds have passed, every op timed and its output
//!    checked; `wall_s` sums each op's fastest time;
//! 2. set-up, [`SETUP_REPS`] times, spread over the timed phase between
//!    rounds: a fresh process of this binary starts, runs the warm-up op,
//!    checks it and exits. Each is timed from spawn to exit, so one-time
//!    initialisation counts every time; `setup_s` is their median;
//! 3. with `--trace 1`, one more round timed layer by layer from the
//!    outside (calls into each layer's public functions, and the
//!    simulator's own profile where the harness exposes it).
//!
//! It prints every metric as `<workload>.<metric> <value> <unit>`, then
//! one JSON line: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics that every workload reports. `--json FILE` also
//! writes the full run record that `--compare` reads.
//!
//! `benchmark --compare <runsA> <runsB>` compares two
//! sets of run records; see [`compare`].

mod compare;
mod stats;
mod workloads;

use apenet_core::card::metrics as lm;
use apenet_obs::CounterSnapshot;
use stats::Fnv;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Metric, Outcome, Workload};

/// Workload names, in the order the README lists them.
pub const WORKLOADS: [&str; 4] = ["p2p_stream", "chaos_ring", "incast_storm", "bfs_strong"];

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;

/// Round-0 digests for seed 1, per workload.
const EXPECTED: &str = include_str!("../expected.json");

const USAGE: &str = "usage: benchmark --workload <p2p_stream|chaos_ring|incast_storm|bfs_strong> \
[--seed N] [--seconds T] [--trace 0|1] [--json FILE]\n       \
benchmark --compare <runsA> <runsB>";

/// Parsed command line of a run.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<String>,
    /// Run only the warm-up op (one set-up repetition) and exit.
    setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        json: None,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--json" => a.json = Some(value()?.clone()),
            "--setup-only" => a.setup_only = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    Ok(a)
}

/// The first `APENET_*` variable in the environment: those switch
/// observation planes, overload control and routing inside the
/// simulator, so they would change what is measured.
fn apenet_env_var() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| k.starts_with("APENET_"))
}

/// Failed-op bookkeeping.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, out: &Outcome) {
        self.attempted += 1;
        if let Some(e) = &out.error {
            self.fail(what, e);
        }
    }

    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {what}: {why}");
    }
}

/// Everything one run measured.
#[derive(Debug)]
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    rounds: u32,
    tally: Tally,
    digest: u64,
    /// `Some(matched)` when the seed has an expected digest.
    expected: Option<bool>,
    end_to_end: Vec<Metric>,
    /// The per-layer metrics every workload reports (traced runs only).
    layers: Vec<Metric>,
    /// The workload's own layer metrics (traced runs only).
    detail: Vec<Metric>,
    /// Deterministic counts of round 0.
    counts: Vec<Metric>,
}

/// Counters the simulator publishes process-wide, snapshot around a
/// round.
struct Probe {
    events: u64,
    copied: u64,
    links: CounterSnapshot,
}

impl Probe {
    fn now() -> Self {
        Probe {
            events: apenet_sim::engine::thread_events(),
            copied: apenet_sim::bytes::copied_bytes(),
            links: apenet_obs::global().counters(),
        }
    }

    /// The deterministic counts since `self`.
    fn counts_since(&self) -> Vec<Metric> {
        let now = Probe::now();
        let d = now.links.delta_since(&self.links);
        let count = |name: &str, v: u64| Metric::new(name, v as f64, "count");
        vec![
            count("sim.events", now.events - self.events),
            Metric::new("sim.copied_bytes", (now.copied - self.copied) as f64, "B"),
            count("core.retransmits", d.get(lm::RETRANSMITS)),
            count("core.naks", d.get(lm::NAKS_SENT)),
            count("core.timeouts", d.get(lm::TIMEOUTS)),
            count("core.dup_frames", d.get(lm::DUP_FRAMES)),
            count("core.ecn_marked", d.get(lm::ECN_MARKED)),
            count("core.ecn_echoed", d.get(lm::ECN_ECHOED)),
            count(
                "sim.fault.injected",
                d.get(lm::INJECTED_CORRUPT)
                    + d.get(lm::INJECTED_DROPS)
                    + d.get(lm::INJECTED_STALLS),
            ),
        ]
    }
}

/// The expected round-0 digest of `workload` for `seed`, if recorded.
fn expected_digest(workload: &str, seed: u64) -> Option<u64> {
    if seed != 1 {
        return None;
    }
    let flat = apenet_obs::gate::flatten_numbers(EXPECTED).expect("expected.json parses");
    let hi = *flat.get(&format!("{workload}.digest_hi"))? as u64;
    let lo = *flat.get(&format!("{workload}.digest_lo"))? as u64;
    Some(hi << 32 | lo)
}

/// Time one set-up process (`--setup-only`) from spawn to exit.
fn setup_process(workload: &str, tally: &mut Tally) -> f64 {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let t = Instant::now();
    let status = Command::new(&exe)
        .args(["--workload", workload, "--setup-only"])
        .stdout(Stdio::null())
        .status();
    let s = t.elapsed().as_secs_f64();
    tally.attempted += 1;
    match status {
        Ok(st) if st.success() => {}
        Ok(st) => tally.fail("set-up process", &st.to_string()),
        Err(e) => tally.fail("set-up process", &e.to_string()),
    }
    s
}

/// Run the workload. `setup` times one set-up repetition; the
/// [`SETUP_REPS`] repetitions are spread evenly over the timed phase,
/// between rounds, so their median samples the host over the whole run
/// rather than one moment of it.
fn bench<W: Workload>(w: &mut W, args: &Args, mut setup: impl FnMut(&mut Tally) -> f64) -> Run {
    let mut tally = Tally::default();
    let mut setup_s = vec![setup(&mut tally)];
    tally.record("warm-up", &w.warm_up());

    let names: Vec<String> = w.ops(args.seed, 0).iter().map(|o| w.op_name(o)).collect();
    let mut op_s: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut digest = 0;
    let mut counts = Vec::new();
    let t0 = Instant::now();
    let mut round = 0;
    let due = |n: usize| n as f64 * args.seconds / SETUP_REPS as f64;
    while round == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        while setup_s.len() < SETUP_REPS && t0.elapsed().as_secs_f64() >= due(setup_s.len()) {
            setup_s.push(setup(&mut tally));
        }
        let probe = Probe::now();
        let mut h = Fnv::default();
        for (i, op) in w.ops(args.seed, round).iter().enumerate() {
            let t = Instant::now();
            let out = w.run(op);
            op_s[i].push(t.elapsed().as_secs_f64());
            h.u64(out.digest);
            tally.record(&names[i], &out);
        }
        if round == 0 {
            counts = probe.counts_since();
            digest = h.finish();
        } else if w.rounds_repeat() && h.finish() != digest {
            tally.fail(&format!("round {round}"), "digest differs from round 0");
        }
        if let Err(e) = w.end_round(args.seed, round) {
            tally.attempted += 1;
            tally.fail(&format!("round {round} validation"), &e);
        }
        round += 1;
    }
    while setup_s.len() < SETUP_REPS {
        setup_s.push(setup(&mut tally));
    }

    let expected = expected_digest(&args.workload, args.seed).map(|e| e == digest);
    if expected == Some(false) {
        tally.attempted += 1;
        tally.fail("digest", "round-0 digest differs from expected.json");
    }

    // Each op's fastest time: other tenants of the host only ever add
    // time to an op, and the fastest of many repetitions is far steadier
    // from run to run than their median.
    let best: Vec<f64> = op_s
        .iter()
        .map(|xs| xs.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let wall_s: f64 = best.iter().sum();
    let (mut layers, mut detail) = (Vec::new(), Vec::new());
    if args.trace {
        let t = Instant::now();
        detail = w.trace(args.seed);
        let traced_s = t.elapsed().as_secs_f64();
        let events = counts
            .iter()
            .find(|m| m.name == "sim.events")
            .map_or(0.0, |m| m.value);
        layers = counts.clone();
        layers.extend([
            Metric::new("sim.events_per_s", events / wall_s, "1/s"),
            Metric::new(
                "harness.op_s.p50",
                stats::median(&best).expect("ops ran"),
                "s",
            ),
            Metric::new(
                "harness.op_s.max",
                best.iter().copied().fold(0.0, f64::max),
                "s",
            ),
            Metric::new("trace.overhead_s", traced_s - wall_s, "s"),
        ]);
        detail.extend(
            names
                .iter()
                .zip(&best)
                .map(|(n, s)| Metric::new(format!("harness.op_s.{n}"), *s, "s")),
        );
    }
    let end_to_end = vec![
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("setup_s", stats::median(&setup_s).expect("set-up ran"), "s"),
        Metric::new(
            "peak_rss_mb",
            stats::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
        ),
    ];
    Run {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        rounds: round,
        tally,
        digest,
        expected,
        end_to_end,
        layers,
        detail,
        counts,
    }
}

/// A JSON number, or `null` when `v` is not finite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `{"name": value, …}` over `ms`.
fn json_values(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, num(m.value)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl Run {
    /// The metrics the last output line carries.
    fn reported(&self) -> &[Metric] {
        if self.trace {
            &self.layers
        } else {
            &self.end_to_end
        }
    }

    /// Every metric the run printed, in print order.
    fn printed(&self) -> Vec<&Metric> {
        let mut all: Vec<&Metric> = self.end_to_end.iter().collect();
        all.extend(&self.layers);
        all.extend(&self.detail);
        if !self.trace {
            all.extend(&self.counts);
        }
        all
    }

    fn fail_share(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }

    /// The text report: one `<workload>.<metric> <value> <unit>` line per
    /// metric, then the last line.
    fn render(&self) -> String {
        let mut out = String::new();
        let w = &self.workload;
        for m in self.printed() {
            let _ = writeln!(out, "{w}.{} {} {}", m.name, num(m.value), m.unit);
        }
        let _ = writeln!(out, "{w}.fail_share {} ratio", num(self.fail_share()));
        let verdict = match self.expected {
            Some(true) => "matches expected.json",
            Some(false) => "DIFFERS from expected.json",
            None => "not checked (seed has no expected digest)",
        };
        let _ = writeln!(
            out,
            "# {w} seed {} rounds {} digest {:016x}: {verdict}",
            self.seed, self.rounds, self.digest
        );
        let metrics: Vec<String> = self
            .reported()
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
        out
    }

    /// The run record `--compare` reads.
    fn record(&self) -> String {
        let mut metrics: Vec<Metric> = self.printed().into_iter().cloned().collect();
        metrics.push(Metric::new("fail_share", self.fail_share(), "ratio"));
        let mut counts: Vec<Metric> = self.counts.clone();
        counts.extend(self.detail.iter().filter(|m| m.unit == "count").cloned());
        format!(
            "{{\"{}\": {{\"seed\": {}, \"trace\": {}, \"rounds\": {}, \"attempted\": {}, \
             \"failed\": {}, \"digest_hi\": {}, \"digest_lo\": {}, \"metrics\": {}, \
             \"counts\": {}}}}}\n",
            self.workload,
            self.seed,
            self.trace as u8,
            self.rounds,
            self.tally.attempted,
            self.tally.failed,
            self.digest >> 32,
            self.digest & 0xffff_ffff,
            json_values(&metrics),
            json_values(&counts),
        )
    }
}

fn run(args: &Args, setup: impl FnMut(&mut Tally) -> f64) -> Run {
    use workloads::{bfs::BfsStrong, chaos::ChaosRing, incast::IncastStorm, stream::P2pStream};
    match args.workload.as_str() {
        "p2p_stream" => bench(&mut P2pStream, args, setup),
        "chaos_ring" => bench(&mut ChaosRing, args, setup),
        "incast_storm" => bench(&mut IncastStorm, args, setup),
        "bfs_strong" => bench(&mut BfsStrong::default(), args, setup),
        w => unreachable!("parse_args admits only known workloads, not {w}"),
    }
}

/// One set-up repetition: the warm-up op and its check.
fn warm_up(workload: &str) -> Outcome {
    use workloads::{bfs::BfsStrong, chaos::ChaosRing, incast::IncastStorm, stream::P2pStream};
    match workload {
        "p2p_stream" => P2pStream.warm_up(),
        "chaos_ring" => ChaosRing.warm_up(),
        "incast_storm" => IncastStorm.warm_up(),
        "bfs_strong" => BfsStrong::default().warm_up(),
        w => unreachable!("parse_args admits only known workloads, not {w}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(var) = apenet_env_var() {
        eprintln!(
            "benchmark: {var} is set; unset every APENET_* variable, they change what is measured"
        );
        return ExitCode::from(2);
    }
    if argv.first().map(String::as_str) == Some("--compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match warm_up(&args.workload).error {
            None => ExitCode::SUCCESS,
            Some(e) => {
                eprintln!("benchmark: warm-up failed: {e}");
                ExitCode::from(1)
            }
        };
    }
    let r = run(&args, |tally| setup_process(&args.workload, tally));
    print!("{}", r.render());
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, r.record()) {
            eprintln!("benchmark: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn args_parse_with_defaults_and_reject_garbage() {
        let a = parse_args(&argv("--workload chaos_ring")).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.setup_only),
            (1, 10.0, false, false)
        );
        let a = parse_args(&argv(
            "--workload bfs_strong --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        for bad in [
            "",
            "--workload nope",
            "--workload p2p_stream --trace 2",
            "--workload p2p_stream --seed -1",
            "--workload p2p_stream --seconds",
            "--workload p2p_stream --frobnicate 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn expected_digests_cover_every_workload() {
        for w in WORKLOADS {
            assert!(
                expected_digest(w, 1).is_some(),
                "{w} has no expected digest"
            );
            assert!(expected_digest(w, 2).is_none());
        }
    }

    #[test]
    fn warm_ups_pass_their_checks_and_repeat_their_digests() {
        fn check<W: Workload>(w: &W) {
            let a = w.warm_up();
            assert_eq!(a.error, None);
            assert_eq!(a.digest, w.warm_up().digest, "same op, same digest");
        }
        check(&workloads::stream::P2pStream);
        check(&workloads::chaos::ChaosRing);
        check(&workloads::incast::IncastStorm);
        check(&workloads::bfs::BfsStrong::default());
    }

    /// The metric names of one table of `BENCHMARK.json`.
    fn spec_names(table: &str) -> Vec<String> {
        let spec = include_str!("../../BENCHMARK.json");
        let start = spec.find(&format!("\"{table}\"")).expect("table present");
        let body = &spec[start..start + spec[start..].find(']').expect("table closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    }

    fn names(ms: &[Metric]) -> Vec<String> {
        ms.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn printed_names_are_well_formed_and_match_benchmark_json() {
        let args = parse_args(&argv("--workload p2p_stream --seconds 0 --trace 1")).unwrap();
        // Zero seconds still runs one full round, then the traced round.
        let r = run(&args, |_| 0.25);
        let rendered = r.render();
        for line in rendered.lines().filter(|l| !l.starts_with(['#', '{'])) {
            let name = line.split(' ').next().unwrap();
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        for m in r.printed() {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16);
        }
        assert_eq!(names(&r.end_to_end), spec_names("end_to_end"));
        assert_eq!(names(&r.layers), spec_names("per_layer"));
        let last = rendered.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true"), "{last}");
        let flat = apenet_obs::gate::flatten_numbers(last).unwrap();
        let rate = r
            .layers
            .iter()
            .find(|m| m.name == "sim.events_per_s")
            .unwrap();
        assert_eq!(flat["metrics.sim.events_per_s.value"], rate.value);
        let rec = apenet_obs::gate::flatten_numbers(&r.record()).unwrap();
        assert_eq!(rec["p2p_stream.failed"], 0.0);
        assert_eq!(rec["p2p_stream.metrics.setup_s"], 0.25);
    }
}

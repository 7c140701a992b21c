//! Observation planes: which instruments ride a run, and what they hand
//! back afterwards.
//!
//! The paper's per-stage numbers come from instruments — a PCIe bus
//! analyzer on the card's slot (Fig. 3) and Nios II cycle counters. The
//! simulator's equivalents are six planes, all pure observation (none
//! schedules an event, so every plane-on run is bit-identical to its
//! plane-off twin):
//!
//! * `trace` — the span-trace sink every card and host records into;
//! * `sample` — the occupancy sampler's period ([`crate::sampling`]);
//! * `profile` — the sim-time profiler ([`apenet_sim::profile`]);
//! * `tail` — tail forensics: ledgers, blame and the flight recorder;
//! * `slo` — the streaming SLO engine ([`apenet_obs::report`]);
//! * `pcie` — a bus-analyzer interposer on every card's PCIe uplink.
//!
//! A [`Planes`] value is built in code (`Planes { slo: Some(cfg),
//! ..Planes::off() }`) or read once from the environment by
//! [`Planes::from_env`], handed to [`ClusterBuilder::planes`], and
//! collected after the run by [`Cluster::take_artifacts`].
//!
//! The env grammars are strict: a malformed value is an [`EnvError`]
//! naming the variable, the value and the accepted grammar, never a
//! silent default. Every grammar shares the switch words of
//! [`apenet_core::config::switch`] (unset, empty, `0`, `off` = off;
//! `1`, `on` = the plane's default; any case) and one duration
//! form, `<N>ms`, `<N>us`, `<N>ns` or a bare `<N>` in µs, with N > 0.
//!
//! [`ClusterBuilder::planes`]: crate::ClusterBuilder::planes

use crate::cluster::Cluster;
use crate::sampling::OccupancySampler;
use apenet_core::config::{env_var, switch, EnvError};
use apenet_obs::alert::RuleSet;
use apenet_obs::latency::{
    collect_ledgers, metrics as tail_metrics, MsgLedger, TailConfig, TailSummary,
};
use apenet_obs::recorder::FlightRecorder;
use apenet_obs::report::RunReport;
use apenet_obs::slo::SloConfig;
use apenet_obs::Registry;
use apenet_rdma::completion::CompletionError;
use apenet_sim::profile::SimProfile;
use apenet_sim::trace::{SharedSink, TraceRecord};
use apenet_sim::SimDuration;

/// Default sampling period: 2 µs of simulated time — fine enough to
/// resolve the ≈4 µs pingpong round trips, coarse enough that a
/// millisecond-scale run stays in the hundreds of samples per series.
const DEFAULT_SAMPLE_PERIOD: SimDuration = SimDuration::from_us(2);

/// Ring capacity of `APENET_TRACE=1`/`on`.
const DEFAULT_TRACE_RING: usize = 65_536;

const TRACE_GRAMMAR: &str = "off | 0 | on | 1 | capture | ring:<N>";
const SAMPLE_GRAMMAR: &str = "off | 0 | on | 1 | <N>[ms|us|ns]";
const PROFILE_GRAMMAR: &str = "off | 0 | on | 1";
const TAIL_GRAMMAR: &str = "off | 0 | on | 1 | p50|p90|p99|p999[:<capacity>]";
const SLO_GRAMMAR: &str =
    "off | 0 | on | 1 | <window>[:<target_permille 1-999>[:<threshold>]] (durations <N>[ms|us|ns])";

/// Which observation planes ride a run. Every field off is
/// [`Planes::off`]; nothing here can change what the run schedules.
pub struct Planes {
    /// Span-trace sink for every card and host. When off while `tail`
    /// or `slo` is on, the cluster forces an unbounded capture.
    pub trace: Option<SharedSink>,
    /// Occupancy-sampling period; [`Cluster::run`] ticks a sampler.
    pub sample: Option<SimDuration>,
    /// Attach the sim-time profiler.
    pub profile: bool,
    /// Fold the trace into the tail-forensics plane after the run.
    pub tail: Option<TailConfig>,
    /// Fold the trace into the streaming SLO engine after the run.
    pub slo: Option<SloConfig>,
    /// Bus-analyzer sink interposed on every card's PCIe uplink.
    pub pcie: Option<SharedSink>,
}

impl Planes {
    /// Every plane off.
    pub fn off() -> Self {
        Planes {
            trace: None,
            sample: None,
            profile: false,
            tail: None,
            slo: None,
            pcie: None,
        }
    }

    /// The planes the `APENET_TRACE`, `APENET_SAMPLE`, `APENET_PROFILE`,
    /// `APENET_TAIL` and `APENET_SLO` env vars request — the only place
    /// they are read. The bus analyzer has no env switch.
    ///
    /// # Panics
    ///
    /// On a malformed value, with the [`EnvError`] message.
    pub fn from_env() -> Self {
        Planes {
            trace: env_var("APENET_TRACE", parse_trace),
            sample: env_var("APENET_SAMPLE", parse_sample),
            profile: env_var("APENET_PROFILE", parse_profile),
            tail: env_var("APENET_TAIL", parse_tail),
            slo: env_var("APENET_SLO", parse_slo),
            pcie: None,
        }
    }
}

/// One duration of the plane grammars: `<N>ms`, `<N>us`, `<N>ns`, or a
/// bare `<N>` in µs. Zero, overflow and garbage are `None`.
fn parse_duration(s: &str) -> Option<SimDuration> {
    let s = s.trim();
    let (digits, unit_ps) = [("ms", 1_000_000_000), ("us", 1_000_000), ("ns", 1_000)]
        .into_iter()
        .find_map(|(suffix, ps)| s.strip_suffix(suffix).map(|d| (d, ps)))
        .unwrap_or((s, 1_000_000));
    let n: u64 = digits.trim().parse().ok().filter(|&n| n > 0)?;
    n.checked_mul(unit_ps).map(SimDuration::from_ps)
}

/// Parse an `APENET_TRACE` value: `capture` keeps every record,
/// `ring:N` the last N, `1`/`on` the last 65 536.
pub fn parse_trace(v: &str) -> Result<Option<SharedSink>, EnvError> {
    let v = v.trim();
    if let Some(on) = switch(v) {
        return Ok(on.then(|| SharedSink::ring(DEFAULT_TRACE_RING)));
    }
    if v == "capture" {
        return Ok(Some(SharedSink::capturing()));
    }
    v.strip_prefix("ring:")
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .map(|n| Some(SharedSink::ring(n)))
        .ok_or_else(|| EnvError::new("APENET_TRACE", v, TRACE_GRAMMAR))
}

/// Parse an `APENET_SAMPLE` value into a sampling period; `1`/`on` is
/// 2 µs.
pub fn parse_sample(v: &str) -> Result<Option<SimDuration>, EnvError> {
    let v = v.trim();
    match switch(v) {
        Some(on) => Ok(on.then_some(DEFAULT_SAMPLE_PERIOD)),
        None => parse_duration(v)
            .map(Some)
            .ok_or_else(|| EnvError::new("APENET_SAMPLE", v, SAMPLE_GRAMMAR)),
    }
}

/// Parse an `APENET_PROFILE` value.
pub fn parse_profile(v: &str) -> Result<bool, EnvError> {
    let v = v.trim();
    switch(v).ok_or_else(|| EnvError::new("APENET_PROFILE", v, PROFILE_GRAMMAR))
}

/// Parse an `APENET_TAIL` value: `1`/`on` is the p99 default, otherwise
/// a tail quantile with an optional flight-recorder capacity
/// (`p999:256`).
pub fn parse_tail(v: &str) -> Result<Option<TailConfig>, EnvError> {
    let v = v.trim();
    if let Some(on) = switch(v) {
        return Ok(on.then(TailConfig::default));
    }
    let bad = || EnvError::new("APENET_TAIL", v, TAIL_GRAMMAR);
    let (quant, cap) = match v.split_once(':') {
        Some((q, n)) => (q, Some(n)),
        None => (v, None),
    };
    let (quantile, label) = match quant {
        "p50" => (0.50, "p50"),
        "p90" => (0.90, "p90"),
        "p99" => (0.99, "p99"),
        "p999" => (0.999, "p999"),
        _ => return Err(bad()),
    };
    let capacity = match cap {
        None => TailConfig::default().capacity,
        Some(n) => n.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?,
    };
    Ok(Some(TailConfig {
        quantile,
        label,
        capacity,
    }))
}

/// Parse an `APENET_SLO` value: `1`/`on` is [`SloConfig::default`],
/// otherwise `<window>[:<target_permille>[:<threshold>]]` with the
/// unspecified fields at their defaults (`500us:999:20us` = 500 µs
/// windows, 99.9 % of messages within 20 µs).
pub fn parse_slo(v: &str) -> Result<Option<SloConfig>, EnvError> {
    let v = v.trim();
    if let Some(on) = switch(v) {
        return Ok(on.then(SloConfig::default));
    }
    let bad = || EnvError::new("APENET_SLO", v, SLO_GRAMMAR);
    let mut cfg = SloConfig::default();
    let mut fields = v.split(':');
    cfg.window = fields.next().and_then(parse_duration).ok_or_else(bad)?;
    if let Some(t) = fields.next() {
        // A zero or ≥1000 target leaves no budget to burn.
        cfg.target_permille = t
            .trim()
            .parse()
            .ok()
            .filter(|t| (1..1000).contains(t))
            .ok_or_else(bad)?;
    }
    if let Some(th) = fields.next() {
        cfg.threshold = parse_duration(th).ok_or_else(bad)?;
    }
    match fields.next() {
        Some(_) => Err(bad()),
        None => Ok(Some(cfg)),
    }
}

/// What the planes of one run recorded, collected once by
/// [`Cluster::take_artifacts`]. Planes that were off leave their field
/// empty (`None` or no records).
pub struct RunArtifacts {
    /// The span trace, drained once from the cluster's sink.
    pub trace: Vec<TraceRecord>,
    /// The sim-time profile.
    pub profile: Option<SimProfile>,
    /// The occupancy sampler and every series it recorded.
    pub sampler: Option<OccupancySampler>,
    /// The tail-forensics fold of `trace`.
    pub tail: Option<TailReport>,
    /// The SLO engine's fold of `trace`.
    pub slo: Option<RunReport>,
    /// The bus-analyzer capture.
    pub pcie: Vec<TraceRecord>,
}

/// The tail-forensics side channel of a run: the per-message latency
/// ledgers and blame attribution, the flight recorder holding full
/// traces of the tail and error spans, and the plane's *own* metrics
/// registry. Keeping the tail counters and digests out of the run
/// registry is what makes the plane zero-perturbation by construction —
/// a run's report is bit-identical with the plane on or off, which the
/// report-equality tests pin.
#[derive(Debug)]
pub struct TailReport {
    /// Ledgers, tail set and dominant-stage blame.
    pub summary: TailSummary,
    /// Full span traces retained for the tail and error messages.
    pub recorder: FlightRecorder,
    /// The tail plane's private registry: every `tail.*` counter and
    /// `latency.*` digest, snapshot with `registry.snapshot_json()`.
    pub registry: Registry,
}

impl TailReport {
    /// Build the tail plane from the run's ledgers (typed errors
    /// attached); `records` is the capture they were folded from, which
    /// the flight recorder retains spans of.
    fn build(ledgers: Vec<MsgLedger>, records: &[TraceRecord], cfg: TailConfig) -> Self {
        let summary = TailSummary::build(ledgers, cfg);
        let mut recorder = FlightRecorder::new(cfg.capacity);
        recorder.ingest(records, &summary.retain_set());
        let registry = Registry::new();
        summary.publish(&registry);
        registry.add(tail_metrics::RETAINED_SPANS, recorder.len() as u64);
        registry.add(tail_metrics::DROPPED_SPANS, recorder.evicted());
        TailReport {
            summary,
            recorder,
            registry,
        }
    }

    /// Render the deterministic report section for one regime: the
    /// summary's attribution tables plus the recorder's retention line.
    pub fn render(&self, title: &str) -> String {
        let mut out = self.summary.render(title);
        out.push_str(&format!(
            "flight recorder: {} span(s) retained, {} evicted, fault dump: {}\n",
            self.recorder.len(),
            self.recorder.evicted(),
            if self.recorder.fault_dump().is_some() {
                "frozen"
            } else {
                "none"
            },
        ));
        out
    }
}

impl Cluster {
    /// Collect what the planes recorded. The trace is drained once and,
    /// with tail or SLO on, folded into ledgers once; completion-queue
    /// errors overlay the fold's own labels (a watchdog escalation wins),
    /// and both planes are built from those ledgers, each publishing
    /// only into its own registry. Call after the run.
    pub fn take_artifacts(&mut self) -> RunArtifacts {
        let trace = self.trace.take();
        let Planes { tail, slo, .. } = self.planes;
        let ledgers = (tail.is_some() || slo.is_some()).then(|| {
            let mut ledgers = collect_ledgers(&trace);
            for r in 0..self.dims.nodes() {
                // Unreachable is the only CQ error: the watchdog gave up.
                for (m, _, CompletionError::Unreachable) in self.host(r).node.cq.errors() {
                    if let Ok(i) = ledgers.binary_search_by_key(&m.span(), |l| l.span) {
                        ledgers[i].error = Some("unreachable");
                    }
                }
            }
            ledgers
        });
        // The SLO report borrows the ledgers; the tail plane then keeps them.
        RunArtifacts {
            slo: slo
                .zip(ledgers.as_ref())
                .map(|(cfg, l)| RunReport::build(l, cfg, &RuleSet::default())),
            tail: tail
                .zip(ledgers)
                .map(|(cfg, l)| TailReport::build(l, &trace, cfg)),
            profile: self.sim.take_profile(),
            sampler: self.sampler.take(),
            pcie: self
                .planes
                .pcie
                .as_ref()
                .map_or_else(Vec::new, |s| s.take()),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_words_disable_and_default() {
        for v in ["", "0", "off", " off ", "OFF"] {
            assert!(parse_trace(v).unwrap().is_none());
            assert_eq!(parse_sample(v), Ok(None));
            assert_eq!(parse_profile(v), Ok(false));
            assert!(parse_tail(v).unwrap().is_none());
            assert_eq!(parse_slo(v), Ok(None));
        }
        for v in ["1", "on"] {
            assert!(parse_trace(v).unwrap().unwrap().enabled());
            assert_eq!(parse_sample(v), Ok(Some(DEFAULT_SAMPLE_PERIOD)));
            assert_eq!(parse_profile(v), Ok(true));
            let tail = parse_tail(v).unwrap().unwrap();
            assert_eq!((tail.label, tail.capacity), ("p99", 64));
            assert_eq!(parse_slo(v), Ok(Some(SloConfig::default())));
        }
    }

    #[test]
    fn durations_take_ms_us_ns_and_bare_us() {
        assert_eq!(parse_duration("5ms"), Some(SimDuration::from_us(5_000)));
        assert_eq!(parse_duration("5us"), Some(SimDuration::from_us(5)));
        assert_eq!(parse_duration("250ns"), Some(SimDuration::from_ns(250)));
        assert_eq!(parse_duration("10"), Some(SimDuration::from_us(10)));
        assert_eq!(parse_duration(" 3us "), Some(SimDuration::from_us(3)));
        for bad in [
            "0us",
            "0",
            "banana",
            "us",
            "5s",
            "-5us",
            "99999999999999999ms",
        ] {
            assert_eq!(parse_duration(bad), None, "{bad}");
        }
        assert_eq!(parse_sample("500ns"), Ok(Some(SimDuration::from_ns(500))));
    }

    #[test]
    fn trace_grammar() {
        assert!(parse_trace("capture").unwrap().unwrap().enabled());
        assert!(parse_trace("ring:4096").unwrap().unwrap().enabled());
        for bad in ["ring:", "ring:0", "ring:x", "capture:1", "yes"] {
            let e = parse_trace(bad).err().expect(bad);
            assert_eq!(e.var, "APENET_TRACE");
        }
    }

    #[test]
    fn tail_grammar_quantiles_and_capacity() {
        for (v, label, q) in [
            ("p50", "p50", 0.50),
            ("p90", "p90", 0.90),
            ("p99", "p99", 0.99),
            ("p999", "p999", 0.999),
        ] {
            let cfg = parse_tail(v).unwrap().unwrap();
            assert_eq!(cfg.label, label);
            assert_eq!(cfg.quantile, q);
            assert_eq!(cfg.capacity, TailConfig::default().capacity);
        }
        let cfg = parse_tail("p90:8").unwrap().unwrap();
        assert_eq!((cfg.label, cfg.capacity), ("p90", 8));
        for bad in ["garbage", "p90:zap", "p99:0", "p95", "p99:8:1"] {
            assert_eq!(parse_tail(bad).unwrap_err().var, "APENET_TAIL", "{bad}");
        }
    }

    #[test]
    fn slo_grammar_window_target_threshold() {
        let cfg = parse_slo("500us:999:20us").unwrap().unwrap();
        assert_eq!(cfg.window, SimDuration::from_us(500));
        assert_eq!(cfg.target_permille, 999);
        assert_eq!(cfg.threshold, SimDuration::from_us(20));
        let cfg = parse_slo("250").unwrap().unwrap();
        assert_eq!(cfg.window, SimDuration::from_us(250));
        assert_eq!(cfg.target_permille, SloConfig::default().target_permille);
        let cfg = parse_slo("800ns:900").unwrap().unwrap();
        assert_eq!(cfg.window, SimDuration::from_ns(800));
        assert_eq!(cfg.target_permille, 900);
        assert_eq!(cfg.threshold, SloConfig::default().threshold);
        let cfg = parse_slo("5ms").unwrap().unwrap();
        assert_eq!(cfg.window, SimDuration::from_us(5_000));
        for bad in [
            "garbage",
            "100us:1000",
            "100us:0",
            "100us:990:zap",
            "100us::20us",
            "100us:990:20us:1",
        ] {
            assert_eq!(parse_slo(bad).unwrap_err().var, "APENET_SLO", "{bad}");
        }
    }

    #[test]
    fn errors_name_variable_value_and_grammar() {
        let e = parse_profile("yes").unwrap_err();
        assert_eq!(
            e.to_string(),
            "APENET_PROFILE=\"yes\" is malformed; expected off | 0 | on | 1"
        );
        assert_eq!(parse_sample("banana").unwrap_err().grammar, SAMPLE_GRAMMAR);
    }
}

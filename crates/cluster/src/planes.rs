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
//! ..Planes::off() }`), handed to [`ClusterBuilder::planes`] or a
//! `harness::*_with` entry point, and collected after the run by
//! [`Cluster::take_artifacts`]. Nothing reads the environment: a run
//! observes exactly the planes its caller built.
//!
//! [`ClusterBuilder::planes`]: crate::ClusterBuilder::planes

use crate::cluster::Cluster;
use crate::sampling::OccupancySampler;
use apenet_obs::alert::RuleSet;
use apenet_obs::latency::{metrics as tail_metrics, MsgLedger, TailConfig, TailSummary};
use apenet_obs::recorder::FlightRecorder;
use apenet_obs::report::RunReport;
use apenet_obs::slo::SloConfig;
use apenet_obs::Registry;
use apenet_rdma::completion::CompletionError;
use apenet_sim::profile::SimProfile;
use apenet_sim::trace::{SharedSink, TraceRecord};
use apenet_sim::SimDuration;

/// Which observation planes ride a run. Every field off is
/// [`Planes::off`]; nothing here can change what the run schedules.
pub struct Planes {
    /// Span-trace sink for every card and host. The tail and SLO planes
    /// fold records as they arrive whether or not this is on.
    pub trace: Option<SharedSink>,
    /// Occupancy-sampling period; [`Cluster::run`] ticks a sampler.
    pub sample: Option<SimDuration>,
    /// Attach the sim-time profiler.
    pub profile: bool,
    /// Fold the span records into the tail-forensics plane.
    pub tail: Option<TailConfig>,
    /// Fold the span records into the streaming SLO engine.
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
    /// The tail-forensics plane: the run's ledger fold plus the spans it
    /// retained.
    pub tail: Option<TailReport>,
    /// The SLO engine's report over the run's ledger fold.
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
    /// attached); `records` is the span capture, which the flight
    /// recorder retains spans of.
    pub fn build(ledgers: Vec<MsgLedger>, records: &[TraceRecord], cfg: TailConfig) -> Self {
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
    /// with tail or SLO on, the ledger fold the run fed is finished once;
    /// completion-queue errors overlay the fold's own labels (a watchdog
    /// escalation wins), and both planes are built from those ledgers,
    /// each publishing only into its own registry. Call after the run.
    pub fn take_artifacts(&mut self) -> RunArtifacts {
        let trace = self.trace.take();
        let Planes { tail, slo, .. } = self.planes;
        let ledgers = self.fold.as_ref().map(|fold| {
            let mut ledgers = std::mem::take(&mut *fold.borrow_mut()).finish();
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

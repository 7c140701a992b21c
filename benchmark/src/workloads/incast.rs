//! `incast_storm`: eight ranks of a 9-ring storm rank 0 — PUT incasts at
//! several offered loads with the overload plane off and on, and GET
//! hotspots that read rank 0's GPU memory. Event-dense control traffic
//! (ECN marks and echoes, pacer windows, watchdog re-fires) with the
//! span capture and the SLO plane on. No random inputs: the seed
//! changes nothing.

use super::{Metric, Outcome, Workload};
use crate::stats::Fnv;
use apenet_cluster::harness::{
    incast_run, incast_run_slo, incast_run_slo_traced, IncastParams, IncastReport, IncastVerb,
};
use apenet_cluster::node::NodeConfig;
use apenet_cluster::presets::{cluster_i_hotspot, cluster_i_incast, incast_dims};
use apenet_obs::alert::RuleSet;
use apenet_obs::latency::collect_ledgers;
use apenet_obs::report::RunReport;
use apenet_obs::slo::SloConfig;
use apenet_rdma::pacing::PacerConfig;
use apenet_sim::SimDuration;
use std::time::Instant;

/// Storming ranks.
pub const SENDERS: u32 = 8;
/// Messages per sender per op.
pub const MSGS: u32 = 64;
/// Message length.
pub const MSG_LEN: u64 = 32 << 10;

/// One storm regime.
#[derive(Debug, Clone, Copy)]
pub struct Regime {
    /// GET hotspot (`cluster_i_hotspot`) instead of a PUT incast.
    pub get: bool,
    /// Offered load, in multiples of one cable's line rate.
    pub offered: u32,
    /// Overload plane (card ECN marking plus host pacer) armed.
    pub plane: bool,
}

const fn put(offered: u32, plane: bool) -> Regime {
    Regime {
        get: false,
        offered,
        plane,
    }
}

const fn get(offered: u32, plane: bool) -> Regime {
    Regime {
        get: true,
        offered,
        plane,
    }
}

/// The regimes of one round, in op order.
pub const REGIMES: [Regime; 6] = [
    put(2, false),
    put(4, false),
    put(4, true),
    put(8, true),
    get(4, false),
    get(4, true),
];

/// The objective the SLO plane evaluates.
pub fn objective() -> SloConfig {
    SloConfig {
        window: SimDuration::from_us(500),
        ..SloConfig::default()
    }
}

/// The workload.
pub struct IncastStorm;

fn setup(r: &Regime, msgs: u32) -> (NodeConfig, IncastParams) {
    let cfg = if r.get {
        cluster_i_hotspot(r.plane)
    } else {
        cluster_i_incast(r.plane)
    };
    let p = IncastParams {
        senders: SENDERS,
        msgs_per_sender: msgs,
        msg_len: MSG_LEN,
        offered: r.offered,
        verb: if r.get {
            IncastVerb::Get
        } else {
            IncastVerb::Put
        },
        pacer: r.plane.then(PacerConfig::default),
    };
    (cfg, p)
}

/// Digest and check one storm.
fn outcome(r: &IncastReport, slo: &RunReport) -> Outcome {
    let mut h = Fnv::default();
    for v in [
        r.expected,
        r.delivered,
        r.duplicates,
        r.payload_ok as u64,
        r.quiesced as u64,
        r.last_delivery.as_ps(),
        r.end.as_ps(),
        r.ecn_marked,
        r.ecn_echoed,
        r.cwnd_increases,
        r.cwnd_decreases,
        r.throttled,
        r.deadline_expired,
        r.watchdog_fired,
        r.watchdog_reissues,
        r.watchdog_failed,
        r.error_completions,
        slo.windows.len() as u64,
        slo.alerts.len() as u64,
        slo.track.budget_consumed_milli,
        slo.track.max_burn_milli,
    ] {
        h.u64(v);
    }
    h.f64(r.goodput_mb_s);
    let error = if r.delivered != r.expected {
        Some(format!("delivered {} of {}", r.delivered, r.expected))
    } else if r.duplicates != 0 {
        Some(format!("{} duplicate deliveries", r.duplicates))
    } else if !r.payload_ok {
        Some("payload mismatch".to_string())
    } else if !r.quiesced {
        Some("cards did not quiesce".to_string())
    } else {
        None
    };
    Outcome {
        digest: h.finish(),
        error,
    }
}

fn run_regime(r: &Regime, msgs: u32) -> Outcome {
    let (cfg, p) = setup(r, msgs);
    let (report, slo) = incast_run_slo(incast_dims(), cfg, p, objective());
    outcome(&report, &slo)
}

impl Workload for IncastStorm {
    type Op = Regime;

    fn ops(&self, _seed: u64, _round: u32) -> Vec<Regime> {
        REGIMES.to_vec()
    }

    fn op_name(&self, r: &Regime) -> String {
        format!(
            "{}{}x.{}",
            if r.get { "get" } else { "put" },
            r.offered,
            if r.plane { "on" } else { "off" }
        )
    }

    fn warm_up(&self) -> Outcome {
        run_regime(&put(4, true), 32)
    }

    fn run(&mut self, op: &Regime) -> Outcome {
        run_regime(op, MSGS)
    }

    /// Each regime through `incast_run_slo_traced`, whose span capture
    /// is folded again outside the program (`collect_ledgers`, then
    /// `RunReport::build`) to time the observation plane's two passes;
    /// then through plain `incast_run`, so the difference of the two
    /// call totals is the whole plane's cost.
    fn trace(&mut self, seed: u64) -> Vec<Metric> {
        let (mut traced_s, mut plain_s, mut ledgers_s, mut build_s) = (0.0, 0.0, 0.0, 0.0);
        let (mut records, mut windows, mut alerts) = (0, 0, 0);
        let (mut cwnd_dec, mut throttled, mut reissues, mut delivered) = (0, 0, 0, 0);
        for r in &self.ops(seed, 0) {
            let (cfg, p) = setup(r, MSGS);
            let t = Instant::now();
            let (report, slo, trace) = incast_run_slo_traced(incast_dims(), cfg, p, objective());
            traced_s += t.elapsed().as_secs_f64();
            records += trace.len();
            windows += slo.windows.len();
            alerts += slo.alerts.len();
            cwnd_dec += report.cwnd_decreases;
            throttled += report.throttled;
            reissues += report.watchdog_reissues;
            delivered += report.delivered;
            drop(slo);

            let t = Instant::now();
            let ledgers = collect_ledgers(&trace);
            ledgers_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let refold = RunReport::build(&ledgers, objective(), &RuleSet::default());
            build_s += t.elapsed().as_secs_f64();
            drop((refold, ledgers, trace));

            let (cfg, p) = setup(r, MSGS);
            let t = Instant::now();
            incast_run(incast_dims(), cfg, p);
            plain_s += t.elapsed().as_secs_f64();
        }
        vec![
            Metric::new("rdma.cwnd_decreases", cwnd_dec as f64, "count"),
            Metric::new("rdma.throttled", throttled as f64, "count"),
            Metric::new("rdma.watchdog_reissues", reissues as f64, "count"),
            Metric::new(
                "rdma.useful_share",
                delivered as f64 / (delivered + reissues).max(1) as f64,
                "ratio",
            ),
            Metric::new("obs.trace_records", records as f64, "count"),
            Metric::new("obs.windows", windows as f64, "count"),
            Metric::new("obs.alerts", alerts as f64, "count"),
            Metric::new("obs.collect_ledgers_s", ledgers_s, "s"),
            Metric::new("obs.report_build_s", build_s, "s"),
            Metric::new("obs.plane_s", traced_s - plain_s, "s"),
        ]
    }
}

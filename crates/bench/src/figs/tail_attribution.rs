//! Tail-latency attribution across fault regimes.
//!
//! Not a figure of the source paper — its Fig. 4/Table 1 decompose the
//! *mean* message latency — but the natural tail-side companion: run
//! the ring chaos workload under three regimes (clean cables, soft
//! chaos, a degraded route with killed cables) with the tail-forensics
//! plane attached, and report where the slow messages actually spend
//! their time. Every stage decomposition telescopes exactly to the
//! end-to-end latency (asserted for every message by the plane), and
//! the whole artifact is deterministic, so CI diffs it like any other
//! committed result: the *dominant tail stage moving* between regimes
//! is the regression signal.
//!
//! Set `APENET_TAIL_DUMP=<path>` to also write the chaos regime's
//! flight-recorder contents — the full span traces of exactly the tail
//! messages — as a self-validating Perfetto trace.

use crate::emit;
use apenet_cluster::harness::{chaos_run_with, ChaosParams, ChaosReport};
use apenet_cluster::node::FaultPlan;
use apenet_cluster::planes::{Planes, TailReport};
use apenet_cluster::presets::{cluster_i_chaos, cluster_i_default, cluster_i_hard_fault};
use apenet_core::coord::{LinkDir, TorusDims};
use apenet_obs::latency::TailConfig;
use apenet_sim::fault::FaultSpec;
use apenet_sim::SimTime;

/// Fixed seed: the artifact is a regression baseline, not a sample.
const SEED: u64 = 0x7A11_A77B_1B07;

fn dims() -> TorusDims {
    TorusDims::new(4, 2, 1)
}

fn params() -> ChaosParams {
    ChaosParams {
        msgs_per_rank: 4,
        msg_len: 64 * 1024,
        watchdog_reissue: true,
    }
}

/// The tail plane tuned for the artifact: p90 keeps the blame histogram
/// populated at this workload's message count (32 messages → ~4 tail
/// messages) while still isolating the slow end.
fn tail_cfg() -> TailConfig {
    TailConfig {
        quantile: 0.90,
        label: "p90",
        capacity: 16,
    }
}

/// One regime: the chaos run with the tail plane attached.
pub fn regime(name: &str) -> (ChaosReport, TailReport) {
    let cfg = match name {
        "clean" => cluster_i_default(),
        "chaos" => cluster_i_chaos(SEED, FaultSpec::chaos(1.0 / 20.0)),
        "degraded" => {
            let mut cfg = cluster_i_hard_fault();
            cfg.faults = FaultPlan::none()
                .kill_link(0, LinkDir::Xp, SimTime::from_ps(20_000_000))
                .kill_link(4, LinkDir::Xp, SimTime::from_ps(20_000_000));
            cfg
        }
        _ => unreachable!("unknown regime {name}"),
    };
    let planes = Planes {
        tail: Some(tail_cfg()),
        ..Planes::off()
    };
    let (report, artifacts) = chaos_run_with(dims(), cfg, params(), planes);
    (report, artifacts.tail.expect("tail plane on"))
}

/// Regenerate this experiment.
pub fn run() {
    let mut out = String::from(
        "# Tail-latency attribution: where the slow messages spend their time\n\
         # (4x2 torus ring workload, 4 x 64 KiB per rank; per-message stage\n\
         # decompositions telescope exactly to end-to-end latency; the tail\n\
         # set is every complete message at or above the p90 total latency).\n\
         # Regimes: clean cables / soft chaos at 1/20 per frame / two cables\n\
         # killed 20 us in with fault-aware detour routing.\n\n",
    );
    let mut dominants = Vec::new();
    for name in ["clean", "chaos", "degraded"] {
        let (r, t) = regime(name);
        assert_eq!(r.delivered, r.expected, "{name}: every message lands");
        assert_eq!(r.duplicates, 0, "{name}: exactly-once");
        assert!(r.payload_ok && r.quiesced, "{name}: verified");
        dominants.push(t.summary.dominant_tail_stage());
        out.push_str(&t.render(name));
        out.push('\n');
        if name == "chaos" {
            assert!(r.retransmits > 0, "chaos regime must exercise replay");
            if let Ok(path) = std::env::var("APENET_TAIL_DUMP") {
                if !path.is_empty() {
                    let dump = t.recorder.dump_perfetto().expect("retained spans validate");
                    std::fs::write(&path, dump).expect("write APENET_TAIL_DUMP");
                    eprintln!("tail flight-recorder dump written to {path}");
                }
            }
        }
    }
    // The acceptance signal: faults move the bottleneck. Clean tails are
    // wire/queueing-bound; chaos tails are replay-bound.
    assert_ne!(
        dominants[0], dominants[1],
        "chaos must move the dominant tail stage off the clean bottleneck"
    );
    emit("tail_attribution", &out);
}

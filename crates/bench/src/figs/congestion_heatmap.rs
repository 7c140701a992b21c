//! ASCII congestion heatmaps of the 4×2 torus under three regimes.
//!
//! One map per scenario — clean links, seeded soft chaos, and a
//! mid-run double cable kill — with one row per active torus port and
//! one column per time slice. Cells are per-mille link utilization
//! computed from the occupancy sampler's cumulative wire-byte series
//! (replays included), so a hot retransmitting port and a hot detour
//! port are visibly different stories. Deterministic end to end: the
//! rendered maps are committed under `results/`.

use crate::emit;
use apenet_cluster::harness::{chaos_run_with, ChaosParams, ChaosReport};
use apenet_cluster::node::FaultPlan;
use apenet_cluster::presets::{cluster_i_chaos, cluster_i_default, cluster_i_hard_fault};
use apenet_cluster::sampling::PORT_LABELS;
use apenet_cluster::{NodeConfig, Planes};
use apenet_core::coord::{LinkDir, TorusDims};
use apenet_obs::heatmap::{utilization_row, Heatmap};
use apenet_sim::fault::FaultSpec;
use apenet_sim::{Bandwidth, SimDuration, SimTime};

/// Fixed seed of the chaos scenario (a regression artifact, not a sample).
const SEED: u64 = 0x4EA7_3A9C_0DE0;

/// Target column count; the column width rounds up to a whole µs.
const TARGET_COLS: u64 = 64;

fn dims() -> TorusDims {
    TorusDims::new(4, 2, 1)
}

fn params() -> ChaosParams {
    ChaosParams {
        msgs_per_rank: 16,
        msg_len: 128 * 1024,
        watchdog_reissue: true,
    }
}

/// Run one scenario with the sampler ticking every 2 µs and render its
/// map. Exactly-once delivery is asserted — the heatmap may only show
/// congestion, never data loss.
fn scenario(name: &str, cfg: NodeConfig) -> (ChaosReport, String) {
    let gbps = cfg.card.link_gbps;
    let planes = Planes {
        sample: Some(SimDuration::from_us(2)),
        ..Planes::off()
    };
    let (r, artifacts) = chaos_run_with(dims(), cfg, params(), planes);
    let sampler = artifacts.sampler.expect("sample plane on");
    assert_eq!(r.delivered, r.expected, "heatmap run must deliver");
    assert_eq!(r.duplicates, 0, "heatmap run must be exactly-once");
    assert!(r.payload_ok, "heatmap run must verify payloads");

    let end_ps = r.end.as_ps();
    let col_ps = (end_ps / TARGET_COLS).max(1).div_ceil(1_000_000) * 1_000_000;
    let bytes_per_col = (Bandwidth::from_gbit_per_sec(gbps).bytes_per_sec() as u128
        * col_ps as u128
        / 1_000_000_000_000u128) as u64;

    let mut rows = Vec::new();
    for rank in 0..dims().nodes() {
        for label in &PORT_LABELS[..6] {
            let id = format!("card{rank}.link.{label}.wire_bytes");
            let pts = sampler.registry().series(&id).points();
            // Only ports that carried traffic get a row; the ring
            // workload leaves most of the 48 torus ports dark.
            if pts.last().is_none_or(|&(_, cum)| cum == 0) {
                continue;
            }
            rows.push((
                format!("c{rank} {label}"),
                utilization_row(&pts, col_ps, bytes_per_col),
            ));
        }
    }
    let map = Heatmap {
        title: format!(
            "{name}: {}x{} KiB per rank, {gbps} Gbps links, end = {} us",
            params().msgs_per_rank,
            params().msg_len >> 10,
            end_ps / 1_000_000,
        ),
        col_ps,
        rows,
    };
    (r, map.render())
}

/// Regenerate this experiment.
pub fn run() {
    let clean = scenario("clean", cluster_i_default());
    let chaos = scenario(
        "chaos 1/100",
        cluster_i_chaos(SEED, FaultSpec::chaos(1.0 / 100.0)),
    );
    let mut hard_cfg = cluster_i_hard_fault();
    hard_cfg.faults = FaultPlan::none()
        .kill_link(0, LinkDir::Xp, SimTime::from_ps(20_000_000))
        .kill_link(4, LinkDir::Xp, SimTime::from_ps(20_000_000));
    let hard = scenario("hard fault (2 cables cut at 20 us)", hard_cfg);
    assert_eq!(hard.0.dead_links, 4, "both ends of each cut cable");

    let out = format!(
        "# Per-port wire utilization of the 4x2 torus ring workload\n\
         # (rows: cards' torus ports that carried traffic; cells: per-mille\n\
         # of link capacity over one column, from sampled cumulative\n\
         # wire-byte deltas — replays included, so chaos shows up as heat).\n\
         \n{}\n{}\n{}",
        clean.1, chaos.1, hard.1,
    );
    emit("congestion_heatmap", &out);
}

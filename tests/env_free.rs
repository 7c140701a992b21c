//! Library constructors are pure: no `APENET_*` variable reaches a card
//! setting or an observation plane. Planes and card switches are set
//! only in code, so a run with the old knobs set — malformed ones
//! included — reports exactly what it reports with the env clear.
//!
//! One `#[test]` only: it sets process-wide variables, and no other
//! test in this binary may run while they are set.

use apenet::cluster::harness::{
    incast_run_slo_traced, two_node_bandwidth, BufSide, IncastParams, IncastVerb, TwoNodeParams,
};
use apenet::cluster::presets::{cluster_i_default, cluster_i_incast, incast_dims};
use apenet::nic::config::CardConfig;
use apenet::obs::slo::SloConfig;

/// Every value this test observes, rendered with `Debug`.
fn observe() -> Vec<String> {
    let bw = two_node_bandwidth(
        cluster_i_default(),
        TwoNodeParams {
            src: BufSide::Gpu,
            dst: BufSide::Gpu,
            size: 64 * 1024,
            count: 8,
            staged: false,
        },
    );
    let storm = IncastParams {
        senders: 4,
        msgs_per_sender: 4,
        msg_len: 8 * 1024,
        offered: 2,
        verb: IncastVerb::Put,
        pacer: None,
    };
    let (report, slo, records) = incast_run_slo_traced(
        incast_dims(),
        cluster_i_incast(false),
        storm,
        SloConfig::default(),
    );
    assert_eq!(report.delivered, report.expected);
    vec![
        format!("{:?}", CardConfig::default()),
        format!("{:?}", cluster_i_incast(false)),
        format!("{bw:?}"),
        format!("{report:?}"),
        format!("{slo:?}"),
        records.len().to_string(),
    ]
}

#[test]
fn apenet_knobs_change_nothing() {
    const KNOBS: [(&str, &str); 7] = [
        ("APENET_TRACE", "ring:64"),
        ("APENET_SAMPLE", "5s"),
        ("APENET_PROFILE", "yes"),
        ("APENET_TAIL", "p95"),
        ("APENET_SLO", "garbage"),
        ("APENET_OVERLOAD", "on"),
        ("APENET_ROUTE_AROUND_FAULTS", "1"),
    ];
    for (var, _) in KNOBS {
        std::env::remove_var(var);
    }
    let clear = observe();
    for (var, value) in KNOBS {
        std::env::set_var(var, value);
    }
    let set = observe();
    for (var, _) in KNOBS {
        std::env::remove_var(var);
    }
    for (a, b) in clear.iter().zip(&set) {
        assert_eq!(a, b, "an APENET_* variable reached the simulator");
    }
}

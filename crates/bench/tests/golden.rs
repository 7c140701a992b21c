//! Fault-free golden regression: with every injector disabled (the
//! default), the retransmission machinery must cost nothing — fig04,
//! fig06 and table1 regenerate byte-identical to the committed
//! `results/` files, pinned here as FNV-1a digests. A timing shift
//! anywhere in the TX/RX/link datapath shows up as a digest change.

use apenet_bench::figs;
use apenet_cluster::harness::{
    flush_read_with, get_chaos_run_with, loopback_with, two_node_with, BufSide, ChaosParams,
    TwoNodeParams,
};
use apenet_cluster::presets::cluster_i_default;
use apenet_cluster::{NodeConfig, Planes};
use apenet_core::coord::TorusDims;
use apenet_obs::latency::TailConfig;
use apenet_obs::slo::SloConfig;
use apenet_rdma::signal::SignalConfig;
use apenet_sim::trace::SharedSink;
use apenet_sim::SimDuration;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// `cfg` with fault-aware routing on, and every observation plane: a
/// 4096-record trace ring, 5 µs occupancy sampling, the sim-time
/// profiler, a p90 tail with an 8-span flight recorder, a
/// 500 µs / 99.9 % / 20 µs SLO and the PCIe bus analyzer.
fn observed(mut cfg: NodeConfig) -> (NodeConfig, Planes) {
    cfg.card.route_around_faults = true;
    let planes = Planes {
        trace: Some(SharedSink::ring(4096)),
        sample: Some(SimDuration::from_us(5)),
        profile: true,
        tail: Some(TailConfig {
            quantile: 0.90,
            label: "p90",
            capacity: 8,
        }),
        slo: Some(SloConfig {
            window: SimDuration::from_us(500),
            threshold: SimDuration::from_us(20),
            target_permille: 999,
        }),
        pcie: Some(SharedSink::ring(4096)),
    };
    (cfg, planes)
}

#[test]
fn clean_links_reproduce_golden_outputs() {
    // Digests of the committed pre-reliability-layer results/ files.
    let golden = [
        ("fig04.txt", 0x3cc1_5b14_0e58_09ad_u64),
        ("fig06.txt", 0xfebb_d2ba_7908_eca3),
        ("table1.txt", 0xd49b_2204_1a76_0189),
    ];
    // Two regenerations: once as shipped, once with every run observed
    // (fault-aware routing plus all six planes, `observed`). With no
    // faults scheduled the fault plane must be pure dead code, and
    // observation must never perturb scheduling: same digests byte for
    // byte. Each pass also drives a clean GET (RDMA-Read) stream: the
    // one-sided read path — request packets, remote serves, reply
    // assembly, send-queue moderation — must be equally invisible, its
    // full report (end time, deliveries, every counter) byte-identical
    // between the passes.
    let flush_read = |cfg, src, size, count| {
        let (cfg, planes) = observed(cfg);
        flush_read_with(cfg, src, size, count, planes).0
    };
    let two_node = |cfg, p: TwoNodeParams| {
        let (cfg, planes) = observed(cfg);
        two_node_with(cfg, p, planes).0
    };
    let loopback = |cfg, src: BufSide, dst, size, count| {
        let (cfg, planes) = observed(cfg);
        loopback_with(cfg, src, dst, size, count, planes).0
    };
    let mut get_reports: Vec<String> = Vec::new();
    for observe in [false, true] {
        let tmp = std::env::temp_dir().join(format!(
            "apenet-golden-{}-{}",
            std::process::id(),
            observe as u8
        ));
        std::fs::create_dir_all(&tmp).expect("results dir");
        std::env::set_var("APENET_RESULTS", &tmp);
        let (cfg, planes) = if observe {
            figs::fig04::render(flush_read);
            figs::fig06::render(two_node);
            figs::table1::render(flush_read, loopback);
            observed(cluster_i_default())
        } else {
            figs::fig04::run();
            figs::fig06::run();
            figs::table1::run();
            (cluster_i_default(), Planes::off())
        };
        let (get, art) = get_chaos_run_with(
            TorusDims::new(4, 2, 1),
            cfg,
            ChaosParams {
                msgs_per_rank: 3,
                msg_len: 24 * 1024,
                watchdog_reissue: true,
            },
            SignalConfig::default(),
            planes,
        );
        assert_eq!(get.delivered, get.expected);
        assert!(get.payload_ok && get.quiesced);
        // The observed pass really observed: every plane handed back
        // what it recorded.
        assert_eq!(!art.trace.is_empty(), observe);
        assert_eq!(!art.pcie.is_empty(), observe);
        assert_eq!(art.profile.is_some() && art.sampler.is_some(), observe);
        assert_eq!(art.tail.is_some() && art.slo.is_some(), observe);
        get_reports.push(format!("{get:?}"));
        std::env::remove_var("APENET_RESULTS");
        for (name, want) in golden {
            let bytes = std::fs::read(tmp.join(name)).expect("generated output");
            assert!(!bytes.is_empty());
            assert_eq!(
                fnv1a(&bytes),
                want,
                "{name} drifted from the committed golden output (observed={observe})"
            );
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }
    assert_eq!(
        get_reports[0], get_reports[1],
        "GET runs must be byte-identical with fault-aware routing and \
         every observation plane switched on"
    );
}

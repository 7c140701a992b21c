//! Clean cables settle their ACKs in closed form, and nothing a run
//! shows changes: every occupancy sample — replay and in-flight windows,
//! queue depths and the engine's pending-event count, in which a
//! posted, not yet due ACK still counts — and every report field equal
//! what the eager ACK events produced. The digests below were taken
//! from the same runs with one scheduled ACK event per frame.
//!
//! The sampling periods are short against a frame's time on the wire,
//! so ticks land inside the window between a frame's arrival and its
//! ACK's due time.

use apenet::cluster::harness::{
    incast_run_with, two_node_with, BufSide, IncastParams, IncastVerb, TwoNodeParams,
};
use apenet::cluster::presets::{cluster_i_default, cluster_i_incast, incast_dims};
use apenet::cluster::sampling::OccupancySampler;
use apenet::cluster::Planes;
use apenet::rdma::pacing::PacerConfig;
use apenet::sim::SimDuration;

/// FNV-1a over every sampled series: its id, then each `(t, v)` point.
fn digest(sampler: &OccupancySampler) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (id, points) in sampler.series() {
        feed(id.as_bytes());
        for (t, v) in points {
            feed(&t.to_le_bytes());
            feed(&v.to_le_bytes());
        }
    }
    h
}

fn sampled(period_ns: u64) -> Planes {
    Planes {
        sample: Some(SimDuration::from_ns(period_ns)),
        ..Planes::off()
    }
}

#[test]
fn clean_stream_samples_equal_the_eager_acks() {
    let (bw, artifacts) = two_node_with(
        cluster_i_default(),
        TwoNodeParams {
            src: BufSide::Gpu,
            dst: BufSide::Gpu,
            size: 64 << 10,
            count: 8,
            staged: false,
        },
        sampled(50),
    );
    let sampler = artifacts.sampler.expect("sample plane on");
    assert_eq!(bw.bandwidth.bytes_per_sec(), EXPECTED_STREAM_BW);
    assert_eq!(sampler.samples(), EXPECTED_STREAM_SAMPLES);
    assert_eq!(digest(&sampler), EXPECTED_STREAM_DIGEST);
}

#[test]
fn marked_incast_samples_equal_the_eager_acks() {
    // The overload plane reads each egress port's replay depth to mark
    // frames, so a closed-form ACK applied a dispatch too early or too
    // late would move the marks, the echoes and the paced windows.
    let (r, artifacts) = incast_run_with(
        incast_dims(),
        cluster_i_incast(true),
        IncastParams {
            senders: 8,
            msgs_per_sender: 4,
            msg_len: 32 << 10,
            offered: 4,
            verb: IncastVerb::Put,
            pacer: Some(PacerConfig::default()),
        },
        sampled(1_000),
    );
    let sampler = artifacts.sampler.expect("sample plane on");
    assert!(r.ecn_marked > 0, "the storm marks frames: {r:?}");
    assert_eq!(
        (r.ecn_marked, r.ecn_echoed, r.end.as_ps()),
        EXPECTED_INCAST_MARKS
    );
    assert_eq!(sampler.samples(), EXPECTED_INCAST_SAMPLES);
    assert_eq!(digest(&sampler), EXPECTED_INCAST_DIGEST);
}

const EXPECTED_STREAM_BW: u64 = 1_121_135_916;
const EXPECTED_STREAM_SAMPLES: u64 = 11_902;
const EXPECTED_STREAM_DIGEST: u64 = 12_155_241_305_226_601_533;
const EXPECTED_INCAST_MARKS: (u64, u64, u64) = (148, 22, 1_393_216_000);
const EXPECTED_INCAST_SAMPLES: u64 = 1_394;
const EXPECTED_INCAST_DIGEST: u64 = 339_360_313_889_037_420;

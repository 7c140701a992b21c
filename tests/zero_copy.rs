//! The zero-copy guarantee, end to end: a clean (no fault injection)
//! two-node G-G transfer fragments and delivers its payload purely by
//! refcount bumps and range narrowing, and a staged one also moves it
//! through the host bounce buffers by sharing whole memory chunks. The
//! process-global copied-bytes counter (bumped by every copy-on-write
//! and gather fallback in the payload fabric and the memory model) must
//! not move.
//!
//! This test lives in its own integration binary, and runs both
//! transfers in sequence inside one test, so no concurrently running
//! test can touch the global counter.

use apenet::cluster::harness::{two_node_bandwidth, BufSide, TwoNodeParams};
use apenet::cluster::presets::cluster_i_default;
use apenet::sim::bytes;

#[test]
fn clean_gg_transfer_moves_payload_without_copies() {
    for (staged, what) in [
        (false, "clean P2P TX fragmentation and delivery"),
        (true, "a clean, aligned staged transfer"),
    ] {
        let before = bytes::copied_bytes();
        let r = two_node_bandwidth(
            cluster_i_default(),
            TwoNodeParams {
                src: BufSide::Gpu,
                dst: BufSide::Gpu,
                size: 256 * 1024,
                count: 4,
                staged,
            },
        );
        assert!(r.bandwidth.mb_per_sec_f64() > 0.0);
        assert_eq!(
            bytes::copied_bytes() - before,
            0,
            "{what} must not copy payload bytes"
        );
    }
}

//! The two committed Perfetto exports are exact: regenerating
//! `trace_pingpong.json` (sampled replay occupancy, queue depths and
//! firmware counters under the message slices) and `trace_incast.json`
//! (ECN-driven congestion windows and the SLO window p99) in-process
//! gives the committed `results/` files byte for byte.

use apenet_bench::trace_export;

fn committed(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn pingpong_export_equals_the_committed_file() {
    let (export, _) = trace_export::pingpong().expect("ping-pong export validates");
    assert!(
        export.json == committed("trace_pingpong.json"),
        "trace_pingpong.json drifted ({} bytes regenerated)",
        export.json.len()
    );
}

#[test]
fn incast_export_equals_the_committed_file() {
    let export = trace_export::incast().expect("incast export validates");
    assert!(
        export.json == committed("trace_incast.json"),
        "trace_incast.json drifted ({} bytes regenerated)",
        export.json.len()
    );
}

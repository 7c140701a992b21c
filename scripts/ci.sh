#!/usr/bin/env bash
# Full offline CI gate: format, lint, build, test. No network access
# is needed at any step (the workspace has zero crates.io dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (deny warnings: every intra-doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> benchmark package (outside the workspace; compiled against the entry points it times)"
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "==> trace-export smoke (Perfetto exporter self-validates nesting + JSON; exports match committed)"
cargo run --release --offline -q -p apenet-bench --bin trace-export

echo "==> env-leak check (the retired APENET_* plane and card knobs change no artifact)"
# Planes and card switches are set in code only: with every retired
# knob set, the exports and fig06 still match the committed files.
leak=(APENET_TRACE=ring:64 APENET_SAMPLE=1 APENET_PROFILE=1 APENET_TAIL=1 APENET_SLO=1
    APENET_OVERLOAD=on APENET_ROUTE_AROUND_FAULTS=on)
env "${leak[@]}" cargo run --release --offline -q -p apenet-bench --bin trace-export
env "${leak[@]}" cargo run --release --offline -q -p apenet-bench --bin fig06
git diff --exit-code -- results/trace_incast.json results/trace_pingpong.json results/fig06.txt

echo "==> observation-plane artifacts (span-trace breakdown + bus-analyzer capture match committed)"
cargo run --release --offline -q -p apenet-bench --bin latency-breakdown
cargo run --release --offline -q -p apenet-bench --bin fig03
git diff --exit-code -- results/trace_pingpong.json results/trace_incast.json \
    results/latency_breakdown.txt results/fig03.txt

echo "==> deterministic telemetry artifacts (sim-profile + congestion-heatmap match committed)"
cargo run --release --offline -q -p apenet-bench --bin sim-profile
cargo run --release --offline -q -p apenet-bench --bin congestion-heatmap
git diff --exit-code -- results/sim_profile.txt results/congestion_heatmap.txt

echo "==> G-G P2P vs staged bandwidth (fig07, the per-byte datapath, matches committed)"
cargo run --release --offline -q -p apenet-bench --bin fig07
git diff --exit-code -- results/fig07.txt

echo "==> fig06, chaos sweep, degraded route (clean and corrupted payload paths, match committed)"
# chaos_sweep drives the copy-on-write corruption path: each damaged
# frame is the only payload the integrity check ever hashes.
cargo run --release --offline -q -p apenet-bench --bin fig06
cargo run --release --offline -q -p apenet-bench --bin chaos-sweep
cargo run --release --offline -q -p apenet-bench --bin degraded-route
git diff --exit-code -- results/fig06.txt results/chaos_sweep.txt results/degraded_route.txt

echo "==> fig08-10, table2, table3 (H-H, H-G, G-H, G-G latency and host overhead, HSG runs; match committed)"
# Every PCIe path of the card, root-complex hops included: host and GPU
# sources and destinations, each fragment a read request, a completion
# stream and a write stream.
cargo run --release --offline -q -p apenet-bench --bin fig08
cargo run --release --offline -q -p apenet-bench --bin fig09
cargo run --release --offline -q -p apenet-bench --bin fig10
cargo run --release --offline -q -p apenet-bench --bin table2
cargo run --release --offline -q -p apenet-bench --bin table3
git diff --exit-code -- results/fig08.txt results/fig09.txt results/fig10.txt \
    results/table2.txt results/table3.txt

echo "==> fig05, bidir, BAR1 ablation (TX fetch planning, concurrent TX and RX, BAR1 reads; match committed)"
# v1/v2/v3 fetch planning on the loop-back path, TX and RX sharing one
# card, and reads through the BAR1 aperture: every way a TX job issues
# source reads.
cargo run --release --offline -q -p apenet-bench --bin fig05
cargo run --release --offline -q -p apenet-bench --bin bidir
cargo run --release --offline -q -p apenet-bench --bin bar1-ablation
git diff --exit-code -- results/fig05.txt results/bidir.txt results/bar1_ablation.txt

echo "==> BFS strong scaling (table4, fig12: one cached graph per configuration, match committed)"
cargo run --release --offline -q -p apenet-bench --bin table4
cargo run --release --offline -q -p apenet-bench --bin fig12
git diff --exit-code -- results/table4.txt results/fig12.txt

echo "==> table4 on one core (one graph-build worker builds the threaded build's bytes)"
# On one CPU available_parallelism() is 1: R-MAT and the CSR block sort
# run on the calling thread alone, and the table must not change.
taskset -c 0 cargo run --release --offline -q -p apenet-bench --bin table4
git diff --exit-code -- results/table4.txt

echo "==> fig04, fig11, table1 (GPU read bandwidth, HSG halo exchange, loop-back bandwidths; match committed)"
# fig11's halo exchange rewrites GPU send-slot chunks that a receiver
# adopted: the memory model's replace-when-shared whole-chunk write.
cargo run --release --offline -q -p apenet-bench --bin fig04
cargo run --release --offline -q -p apenet-bench --bin fig11
cargo run --release --offline -q -p apenet-bench --bin table1
git diff --exit-code -- results/fig04.txt results/fig11.txt results/table1.txt

echo "==> scheduler equivalence (calendar queue vs heap model, debug assertions on)"
# The test profile keeps debug_assert! live, so the calendar's internal
# invariants (floor monotonicity, cache coherence) are checked on every
# push/pop of the 96 seeded random schedules — not just the pop order.
cargo test --offline -q -p apenet-sim --test calendar_equiv

echo "==> perf-regression gate (fresh microbench vs committed BENCH_microbench.json)"
# Tolerance covers shared-runner noise; the calendar-queue engine bought
# enough headroom (6x on the real-run bench) that a step-function
# regression lands far outside 25%. Deterministic event counts are
# compared exactly regardless of tolerance.
APENET_GATE_TOL="${APENET_GATE_TOL:-0.25}" \
APENET_BENCH_ITERS="${APENET_BENCH_ITERS:-5}" \
    cargo run --release --offline -q -p apenet-bench --bin perf-gate

echo "==> chaos soak (APENET_CHAOS_CASES=${APENET_CHAOS_CASES:-512} seeded fault schedules)"
APENET_CHAOS_CASES="${APENET_CHAOS_CASES:-512}" \
    cargo test --release --offline -q -p apenet-cluster --test chaos

echo "==> GET chaos soak (one-sided reads + selective signaling under the same schedules)"
APENET_CHAOS_CASES="${APENET_CHAOS_CASES:-512}" \
    cargo test --release --offline -q -p apenet-cluster --test get_chaos

echo "==> hard-fault soak (link kills, partitions, RX-ring exhaustion)"
cargo test --release --offline -q -p apenet-cluster --test hard_faults

echo "==> incast/hotspot soak (overload plane off = collapse, on = survival, plus cable-kill and partition composition)"
cargo test --release --offline -q -p apenet-cluster --test incast

echo "==> deterministic incast goodput curve (plane on/off matches committed)"
cargo run --release --offline -q -p apenet-bench --bin incast-goodput
git diff --exit-code -- results/incast_goodput.txt

echo "==> deterministic GET sweep (doorbell-batch saturation matches committed)"
cargo run --release --offline -q -p apenet-bench --bin get-sweep
git diff --exit-code -- results/get_sweep.txt

echo "==> tail-latency attribution (per-stage tail blame matches committed)"
cargo run --release --offline -q -p apenet-bench --bin tail-attribution
git diff --exit-code -- results/tail_attribution.txt

echo "==> SLO window timeline (burn-rate pager fires on the unprotected collapse, silent otherwise; matches committed)"
# The bin itself asserts the regime contract (>=1 burn-rate alert with
# the overload plane off, zero alerts clean and plane-on); the diff pins
# every window digest, budget figure and alert instant byte-for-byte.
cargo run --release --offline -q -p apenet-bench --bin slo-report
git diff --exit-code -- results/slo_timeline.txt

echo "==> ci.sh: all green"

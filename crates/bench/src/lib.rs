//! # apenet-bench — the reproduction harness
//!
//! One binary per table/figure of the paper's evaluation (§V):
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig03` | PCIe bus-analyzer timing sketch |
//! | `table1` | low-level loop-back bandwidths |
//! | `fig04` | GPU read bandwidth vs message size (v1/v2/v3 × window) |
//! | `fig05` | the same sweep through the full loop-back path |
//! | `fig06` | two-node bandwidth, H/G × H/G |
//! | `fig07` | G-G bandwidth: P2P vs staging vs IB/MVAPICH2 |
//! | `fig08` | two-node latency, H/G × H/G |
//! | `fig09` | G-G latency: P2P vs staging vs IB |
//! | `fig10` | LogP host overhead |
//! | `table2` | HSG strong scaling (L = 256) |
//! | `table3` | HSG two-node P2P-mode break-down |
//! | `fig11` | HSG speed-up for L = 128/256/512 × P2P mode |
//! | `table4` | BFS TEPS strong scaling |
//! | `fig12` | BFS per-task compute/communication break-down |
//! | `latency-breakdown` | per-stage latency decomposition from span traces |
//! | `chaos-sweep` | effective bandwidth vs. injected per-frame fault rate |
//! | `degraded-route` | aggregate torus bandwidth vs. failed-link count |
//! | `trace-export` | Perfetto `trace_event` JSON of a 2-node ping-pong |
//! | `repro-all` | everything above, into `results/` |
//!
//! Every binary prints the paper's reference values alongside the
//! simulation's, so the comparison the prompt calls "paper-vs-measured"
//! is in the output itself.
//!
//! The sweeps inside each figure fan out across threads via [`sweep`]
//! (`APENET_SWEEP_THREADS` controls the width; output is byte-identical
//! at any width). The in-tree [`microbench`] harness
//! (`cargo run -p apenet-bench --release --bin microbench`) covers the
//! hot paths of the simulator and replaces the former Criterion benches.

pub mod figs;
pub mod microbench;
pub mod sweep;
pub mod trace_export;

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// The message-size grid of the bandwidth figures (32 B – 4 MB).
pub fn sizes_32b_4mb() -> Vec<u64> {
    (5..=22).map(|p| 1u64 << p).collect()
}

/// The message-size grid of Figs. 4/5 (4 KB – 4 MB).
pub fn sizes_4kb_4mb() -> Vec<u64> {
    (12..=22).map(|p| 1u64 << p).collect()
}

/// The message-size grid of the latency figures (32 B – 4 KB).
pub fn sizes_32b_4kb() -> Vec<u64> {
    (5..=12).map(|p| 1u64 << p).collect()
}

/// How many messages to stream per bandwidth point, scaled down for the
/// big sizes so sweeps stay fast.
pub fn count_for(size: u64) -> u32 {
    match size {
        0..=4096 => 40,
        4097..=262_144 => 24,
        _ => 10,
    }
}

/// Where figure outputs land (`results/` at the workspace root, or
/// `$APENET_RESULTS`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("APENET_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Print a report to stdout and mirror it into `results/<name>.txt`.
pub fn emit(name: &str, body: &str) {
    println!("{body}");
    let path = results_dir().join(format!("{name}.txt"));
    if let Ok(mut f) = fs::File::create(&path) {
        let _ = f.write_all(body.as_bytes());
    }
}

/// Format a `paper vs measured` table row.
pub fn cmp_row(label: &str, paper: f64, measured: f64, unit: &str) -> String {
    let ratio = if paper != 0.0 {
        measured / paper
    } else {
        f64::NAN
    };
    format!("{label:<38} {paper:>10.1} {measured:>10.1} {unit:<6} (x{ratio:.2})")
}

/// Header for `cmp_row` tables.
pub fn cmp_header(title: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let _ = writeln!(s, "{:<38} {:>10} {:>10}", "quantity", "paper", "model");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_sane() {
        let s = sizes_32b_4mb();
        assert_eq!(*s.first().unwrap(), 32);
        assert_eq!(*s.last().unwrap(), 4 << 20);
        assert_eq!(sizes_32b_4kb().last(), Some(&4096));
        assert_eq!(sizes_4kb_4mb().first(), Some(&4096));
    }

    #[test]
    fn counts_shrink_with_size() {
        assert!(count_for(64) > count_for(1 << 20));
    }

    #[test]
    fn cmp_row_formats() {
        let r = cmp_row("latency H-H", 6.3, 6.4, "us");
        assert!(r.contains("6.3"));
        assert!(r.contains("x1.02"));
    }
}

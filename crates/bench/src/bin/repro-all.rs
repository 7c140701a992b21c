//! Regenerate every table and figure into `results/`.
//!
//! Experiments fan out through [`apenet_bench::sweep`], so the driver
//! and the per-figure sweeps share one global thread budget
//! (`APENET_SWEEP_THREADS`). With more than one worker the run is
//! repeated serially to record the parallel payoff in
//! `BENCH_repro_all.json`; set `APENET_REPRO_NO_BASELINE=1` to skip the
//! serial reference pass. With one worker the only pass already is the
//! serial run, and the file records it once. Each pass record carries
//! the process's peak resident set size at the end of that pass
//! (`peak_rss_mb`, from `VmHWM`; `null` where `/proc` is unavailable),
//! and a `jobs` object with each job's `wall_s` and, on a one-worker
//! pass, its `events`. With more workers the jobs run concurrently on
//! one process-wide event counter, so their events are left out; the
//! pass total still counts every event.

use apenet_bench::{figs, sweep};
use apenet_sim::engine;
use std::time::Instant;

fn jobs() -> Vec<(&'static str, fn())> {
    vec![
        ("fig03", figs::fig03::run),
        ("table1", figs::table1::run),
        ("fig04", figs::fig04::run),
        ("fig05", figs::fig05::run),
        ("fig06", figs::fig06::run),
        ("fig07", figs::fig07::run),
        ("fig08", figs::fig08::run),
        ("fig09", figs::fig09::run),
        ("fig10", figs::fig10::run),
        ("table2", figs::table2::run),
        ("table3", figs::table3::run),
        ("fig11", figs::fig11::run),
        ("table4", figs::table4::run),
        ("fig12", figs::fig12::run),
        ("bar1_ablation", figs::bar1_ablation::run),
        ("bidir", figs::bidir::run),
        ("chaos_sweep", figs::chaos_sweep::run),
        ("get_sweep", figs::get_sweep::run),
        ("latency_breakdown", figs::latency_breakdown::run),
        ("sim_profile", figs::sim_profile::run),
        ("congestion_heatmap", figs::congestion_heatmap::run),
        ("tail_attribution", figs::tail_attribution::run),
        ("degraded_route", figs::degraded_route::run),
        ("incast_goodput", figs::incast_goodput::run),
        ("slo_timeline", figs::slo_timeline::run),
    ]
}

/// Render one pass's per-worker accounting as a JSON array. Which
/// worker got which item is scheduling-dependent, so the gate skips
/// everything under a `threads_detail` key; the totals it sums to are
/// what the deterministic `events` field checks.
fn threads_json(stats: &[(usize, sweep::ThreadStat)]) -> String {
    let mut s = String::from("[");
    for (i, (w, st)) in stats.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "{{\"worker\": {w}, \"items\": {}, \"events\": {}, \"busy_ns\": {}}}",
            st.items, st.events, st.busy_ns
        ));
    }
    s.push(']');
    s
}

/// Render the link-reliability counters of a registry snapshot as a JSON
/// object. Every figure of the paper runs on clean links, so only the
/// chaos sweep contributes: with it excluded (or faults off) every field
/// is zero and absent ids read as zero.
fn link_json(t: &apenet_obs::CounterSnapshot) -> String {
    use apenet_core::card::metrics as lm;
    let clean = lm::ALL.iter().all(|id| t.get(id) == 0);
    format!(
        "{{\"retransmits\": {}, \"timeouts\": {}, \"naks\": {}, \"dup_frames\": {}, \
         \"crc_dropped\": {}, \"injected_corrupt\": {}, \"injected_drops\": {}, \
         \"injected_stalls\": {}, \"stall_ms\": {:.3}, \"clean\": {}}}",
        t.get(lm::RETRANSMITS),
        t.get(lm::TIMEOUTS),
        t.get(lm::NAKS_SENT),
        t.get(lm::DUP_FRAMES),
        t.get(lm::CRC_DROPPED),
        t.get(lm::INJECTED_CORRUPT),
        t.get(lm::INJECTED_DROPS),
        t.get(lm::INJECTED_STALLS),
        t.get(lm::STALL_PS) as f64 * 1e-9,
        clean,
    )
}

/// This process's peak resident set size so far in MB (`VmHWM` in
/// `/proc/self/status`), as JSON: `null` when it cannot be read.
fn peak_rss_json() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok());
    kb.map_or("null".into(), |kb| format!("{:.1}", kb / 1024.0))
}

/// Render one pass's per-job records as a JSON object, in job order.
fn jobs_json(jobs: &[(&str, f64, Option<u64>)]) -> String {
    let mut s = String::from("{");
    for (i, (name, wall_s, events)) in jobs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&format!("\"{name}\": {{\"wall_s\": {wall_s:.3}"));
        if let Some(events) = events {
            s.push_str(&format!(", \"events\": {events}"));
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// What one pass measured.
struct Pass {
    wall_s: f64,
    events: u64,
    /// Per job: name, wall seconds and, on one worker, events.
    jobs: Vec<(&'static str, f64, Option<u64>)>,
    workers: Vec<(usize, sweep::ThreadStat)>,
}

/// One full pass over every experiment.
fn run_all(tag: &str) -> Pass {
    let start = Instant::now();
    let ev0 = engine::global_events();
    let _ = sweep::take_thread_stats();
    // On one worker every job runs inline on this thread, so the global
    // counter's delta across a job is exactly that job's events.
    let one_worker = sweep::threads() == 1;
    let jobs = jobs();
    let jobs = sweep::map(&jobs, |&(name, f)| {
        let (t, ev) = (Instant::now(), engine::global_events());
        f();
        let wall_s = t.elapsed().as_secs_f64();
        eprintln!("[repro-all/{tag}] {name} done in {wall_s:.1}s");
        (
            name,
            wall_s,
            one_worker.then(|| engine::global_events() - ev),
        )
    });
    let events = engine::global_events() - ev0;
    if one_worker {
        let per_job: u64 = jobs.iter().filter_map(|j| j.2).sum();
        assert_eq!(per_job, events, "per-job events add up to the pass");
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        events,
        jobs,
        workers: sweep::take_thread_stats(),
    }
}

fn main() {
    let threads = sweep::threads();
    // Cards publish their lifetime link counters into the process-wide
    // registry on drop; the delta across the parallel pass is exactly
    // what this run contributed.
    let links0 = apenet_obs::global().counters();
    let tag = if threads > 1 { "parallel" } else { "serial" };
    let par = run_all(tag);
    let par_rss = peak_rss_json();
    let links = apenet_obs::global().counters().delta_since(&links0);
    let par_eps = par.events as f64 / par.wall_s.max(1e-9);
    eprintln!(
        "[repro-all] {tag} ({threads} threads): {} events in {:.1}s \
         ({par_eps:.0} events/s) -> results/",
        par.events, par.wall_s
    );

    // With one worker the pass above ran the serial inline path of
    // sweep::map: a second pass would only measure first-pass cold start
    // (heap growth, page faults) against a warm heap.
    let baseline = threads > 1 && std::env::var_os("APENET_REPRO_NO_BASELINE").is_none();
    let serial = baseline.then(|| {
        sweep::set_threads(1);
        let ser = run_all("serial");
        let ser_rss = peak_rss_json();
        sweep::set_threads(0);
        eprintln!(
            "[repro-all] serial reference: {} events in {:.1}s ({:.0} events/s); \
             parallel speedup x{:.2}",
            ser.events,
            ser.wall_s,
            ser.events as f64 / ser.wall_s.max(1e-9),
            ser.wall_s / par.wall_s.max(1e-9)
        );
        (ser, ser_rss)
    });

    let pass_json = |p: &Pass, rss: &str| {
        format!(
            "{{\"wall_s\": {:.3}, \"events\": {}, \"events_per_sec\": {:.1}, \
             \"peak_rss_mb\": {rss}, \"jobs\": {}, \"threads_detail\": {}}}",
            p.wall_s,
            p.events,
            p.events as f64 / p.wall_s.max(1e-9),
            jobs_json(&p.jobs),
            threads_json(&p.workers)
        )
    };
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"link_reliability\": {},\n", link_json(&links)));
    json.push_str(&format!("  \"{tag}\": {}", pass_json(&par, &par_rss)));
    if let Some((ser, ser_rss)) = serial {
        json.push_str(",\n");
        json.push_str(&format!("  \"serial\": {},\n", pass_json(&ser, &ser_rss)));
        json.push_str(&format!(
            "  \"speedup\": {:.3}\n",
            ser.wall_s / par.wall_s.max(1e-9)
        ));
    } else {
        json.push('\n');
    }
    json.push_str("}\n");
    std::fs::write("BENCH_repro_all.json", json).expect("write BENCH_repro_all.json");
    eprintln!("[repro-all] wrote BENCH_repro_all.json");
}

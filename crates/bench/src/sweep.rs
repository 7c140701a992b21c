//! Deterministic parallel sweep execution.
//!
//! Every figure of §V is regenerated by sweeping independent simulation
//! points (message size × buffer kind × window, or NP for the application
//! tables). Each point builds its own `Sim`, so points are embarrassingly
//! parallel; [`map`] fans them across `std::thread::scope` workers and
//! reassembles results **in input order**, which keeps the rendered output
//! byte-identical to a serial run regardless of worker count or
//! scheduling.
//!
//! The worker count comes from `APENET_SWEEP_THREADS` (default: available
//! parallelism); `APENET_SWEEP_THREADS=1` is the serial escape hatch. A
//! process-wide permit pool caps *total* concurrency, so nested use — the
//! `repro-all` driver fanning experiments, each experiment fanning sweep
//! points — shares one global thread budget instead of multiplying.

use apenet_sim::env::{env_var, EnvError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Test-only override of the configured thread count (0 = no override).
static OVERRIDE_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Extra workers currently checked out of the global budget. The budget
/// capacity is `threads() - 1` (the calling thread is always a worker and
/// needs no permit), evaluated at claim time so runtime changes to the
/// thread count take effect immediately.
static OUTSTANDING: AtomicI64 = AtomicI64::new(0);

/// The configured sweep width: the override set by [`set_threads`], else
/// `APENET_SWEEP_THREADS`, else the machine's available parallelism.
///
/// # Panics
///
/// On a malformed `APENET_SWEEP_THREADS`, naming it and the grammar.
pub fn threads() -> usize {
    let forced = OVERRIDE_THREADS.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    env_var("APENET_SWEEP_THREADS", parse_threads)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

const THREADS_GRAMMAR: &str = "<workers> (an unsigned integer; 0 and 1 run serially)";

/// Parse an `APENET_SWEEP_THREADS` value: empty is `None` (use the
/// available parallelism), `0` clamps to one worker.
fn parse_threads(v: &str) -> Result<Option<usize>, EnvError> {
    match v.trim() {
        "" => Ok(None),
        n => n
            .parse::<usize>()
            .map(|n| Some(n.max(1)))
            .map_err(|_| EnvError::new("APENET_SWEEP_THREADS", v, THREADS_GRAMMAR)),
    }
}

/// Force the thread count from code (tests compare serial vs parallel
/// runs within one process, where the environment is shared state).
/// `set_threads(0)` removes the override.
pub fn set_threads(n: usize) {
    OVERRIDE_THREADS.store(n, Ordering::Relaxed);
}

/// Claim up to `want` extra-worker permits from the global budget.
fn claim(want: usize) -> usize {
    if want == 0 {
        return 0;
    }
    let capacity = threads() as i64 - 1;
    let mut used = OUTSTANDING.load(Ordering::Relaxed);
    loop {
        let take = (capacity - used).clamp(0, want as i64);
        if take == 0 {
            return 0;
        }
        match OUTSTANDING.compare_exchange_weak(
            used,
            used + take,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return take as usize,
            Err(actual) => used = actual,
        }
    }
}

fn release(n: usize) {
    if n > 0 {
        OUTSTANDING.fetch_sub(n as i64, Ordering::Relaxed);
    }
}

/// What one sweep worker did across every [`map`] call since the last
/// [`take_thread_stats`]: items processed, simulation events dispatched
/// on that worker's thread, and wall-clock time spent inside `f`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStat {
    /// Sweep items this worker executed.
    pub items: u64,
    /// Engine events dispatched on this worker's thread
    /// (via [`apenet_sim::engine::thread_events`]).
    pub events: u64,
    /// Wall-clock nanoseconds the worker spent busy.
    pub busy_ns: u64,
}

/// Accumulated per-worker statistics, keyed by worker index (0 is always
/// the calling thread). Assignment of items to workers ≥ 1 is
/// scheduling-dependent; results never are.
static THREAD_STATS: Mutex<BTreeMap<usize, ThreadStat>> = Mutex::new(BTreeMap::new());

std::thread_local! {
    /// Whether this thread is already inside a [`map`] call. A nested map
    /// running inline (its items, and the events they dispatch) is part of
    /// the outer worker's accounting; recording it again would double-count.
    static IN_MAP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn record(worker: usize, items: u64, events: u64, busy_ns: u64) {
    let mut m = THREAD_STATS.lock().unwrap_or_else(|e| e.into_inner());
    let s = m.entry(worker).or_default();
    s.items += items;
    s.events += events;
    s.busy_ns += busy_ns;
}

/// Drain the per-worker accounting accumulated by [`map`] since the last
/// call, sorted by worker index. `repro-all` publishes this as the
/// `threads_detail` section of its JSON so a parallel-efficiency
/// regression can be attributed to a worker instead of guessed at.
pub fn take_thread_stats() -> Vec<(usize, ThreadStat)> {
    let mut m = THREAD_STATS.lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *m).into_iter().collect()
}

/// Apply `f` to every item, possibly in parallel, returning results in
/// input order. Output is bit-identical to `items.iter().map(f).collect()`
/// for any worker count — parallelism only changes wall-clock.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // The calling thread always works; claim extra workers from the
    // shared budget (never more than there are further items).
    let extra = claim(
        threads()
            .saturating_sub(1)
            .min(items.len().saturating_sub(1)),
    );
    if extra == 0 {
        if IN_MAP.with(|c| c.replace(true)) {
            // Nested inline call: the outer map's record covers it.
            return items.iter().map(&f).collect();
        }
        let ev0 = apenet_sim::engine::thread_events();
        let t0 = Instant::now();
        let out: Vec<R> = items.iter().map(&f).collect();
        record(
            0,
            items.len() as u64,
            apenet_sim::engine::thread_events() - ev0,
            t0.elapsed().as_nanos() as u64,
        );
        IN_MAP.with(|c| c.set(false));
        return out;
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Mutex<Option<R>>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || Mutex::new(None));
    let work = |worker: usize| {
        let nested = IN_MAP.with(|c| c.replace(true));
        let ev0 = apenet_sim::engine::thread_events();
        let t0 = Instant::now();
        let mut done = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let r = f(item);
            *slots[i].lock().expect("result slot") = Some(r);
            done += 1;
        }
        if !nested {
            record(
                worker,
                done,
                apenet_sim::engine::thread_events() - ev0,
                t0.elapsed().as_nanos() as u64,
            );
            IN_MAP.with(|c| c.set(false));
        }
    };
    std::thread::scope(|scope| {
        let work = &work;
        for w in 1..=extra {
            scope.spawn(move || work(w));
        }
        work(0);
    });
    release(extra);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every index visited exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thread override and permit pool are process-global; serialize
    /// the tests that touch them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn threads_grammar_is_strict() {
        assert_eq!(parse_threads(""), Ok(None));
        assert_eq!(parse_threads(" 4 "), Ok(Some(4)));
        assert_eq!(parse_threads("0"), Ok(Some(1)));
        let e = parse_threads("four").unwrap_err();
        assert_eq!((e.var, e.value.as_str()), ("APENET_SWEEP_THREADS", "four"));
        assert!(e.to_string().contains(THREADS_GRAMMAR));
        for bad in ["-1", "2.5", "4 threads", "0x4"] {
            assert!(parse_threads(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn map_preserves_order_and_values() {
        let _guard = lock();
        let items: Vec<u64> = (0..57).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        set_threads(1);
        let one = map(&items, |&x| x * x + 1);
        set_threads(4);
        let four = map(&items, |&x| x * x + 1);
        set_threads(0);
        assert_eq!(one, serial);
        assert_eq!(four, serial);
    }

    #[test]
    fn map_handles_degenerate_inputs() {
        let _guard = lock();
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, |&x| x).is_empty());
        assert_eq!(map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn thread_stats_account_every_item() {
        let _guard = lock();
        let _ = take_thread_stats(); // reset
        set_threads(3);
        let items: Vec<u64> = (0..31).collect();
        let _ = map(&items, |&x| x + 1);
        set_threads(0);
        let stats = take_thread_stats();
        assert!(!stats.is_empty());
        assert_eq!(stats.iter().map(|(_, s)| s.items).sum::<u64>(), 31);
        // Worker 0 (the calling thread) always participates.
        assert_eq!(stats[0].0, 0);
        // Drained: a second take sees nothing.
        assert!(take_thread_stats().is_empty());
    }

    #[test]
    fn nested_maps_record_only_the_outer_call() {
        let _guard = lock();
        let _ = take_thread_stats(); // reset
        set_threads(1);
        let inner: Vec<u64> = (0..3).collect();
        let items: Vec<u64> = (0..4).collect();
        let _ = map(&items, |&x| map(&inner, |&y| y + x).len());
        set_threads(0);
        let stats = take_thread_stats();
        // The 12 inner items ran on a thread the outer map was already
        // accounting; counting them again would double-book the events.
        assert_eq!(stats.iter().map(|(_, s)| s.items).sum::<u64>(), 4);
    }

    #[test]
    fn budget_is_restored_after_map() {
        let _guard = lock();
        let before = OUTSTANDING.load(Ordering::Relaxed);
        set_threads(4);
        let _ = map(&(0..40).collect::<Vec<u32>>(), |&x| x);
        set_threads(0);
        assert_eq!(OUTSTANDING.load(Ordering::Relaxed), before);
    }
}

//! Declared service-level objectives with exact error-budget accounting.
//!
//! An SLO here is the classic latency/availability compound: over the
//! run, at least `target_permille`/1000 of messages must be *good* — a
//! message is good iff it completed without a typed error and its
//! end-to-end latency is at most `threshold`. Everything downstream is
//! pure integer arithmetic over the per-window folds of
//! [`crate::window`]: no floats on the accounting path, so two runs of
//! the same schedule produce byte-identical budget ledgers.
//!
//! Budget and burn follow the SRE convention. The error budget is the
//! tolerated bad fraction, `budget_permille = 1000 - target_permille`.
//! A window's *burn rate* is how fast it spends that budget relative to
//! plan, in milli-units: `burn_milli = 1000` means the window is bad at
//! exactly the tolerated rate (budget exhausts precisely at run end if
//! every window burns like this); `burn_milli = 14_000` means budget
//! burns 14× too fast. The alert engine ([`crate::alert`]) triggers on
//! sustained multiples of this rate, not on raw counts.
//!
//! Good-counting uses [`PercentileDigest::count_le`], which is exact
//! while the digest retains raw samples and a deterministic
//! *undercount* once spilled to coarse buckets — a spilled window can
//! only look worse than reality, never better, so SLO verdicts stay
//! sound under memory pressure.
//!
//! [`PercentileDigest::count_le`]: crate::digest::PercentileDigest::count_le

use crate::window::Window;
use apenet_sim::SimDuration;

/// A declared objective over the message stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// Tumbling window width for the streaming fold.
    pub window: SimDuration,
    /// Good-latency threshold: a completed message is good iff its
    /// end-to-end latency is ≤ this.
    pub threshold: SimDuration,
    /// Target good fraction in permille (990 = 99.0 % of messages
    /// good). Must be < 1000: a zero error budget makes burn rates
    /// undefined.
    pub target_permille: u32,
}

impl Default for SloConfig {
    /// The default objective of the `apenet_cluster::planes::Planes::slo`
    /// plane: 100 µs windows, `p99 < 50 µs` expressed as "99 % of
    /// messages under 50 µs".
    fn default() -> Self {
        SloConfig {
            window: SimDuration::from_us(100),
            threshold: SimDuration::from_us(50),
            target_permille: 990,
        }
    }
}

impl SloConfig {
    /// The tolerated bad fraction in permille (`1000 - target`).
    pub fn budget_permille(&self) -> u64 {
        1000u64.saturating_sub(self.target_permille as u64).max(1)
    }
}

/// One window's budget ledger entry.
#[derive(Debug, Clone, Copy)]
pub struct WindowSlo {
    /// Window index (matches [`Window::index`]).
    pub index: u64,
    /// Messages observed in the window (completed + errored).
    pub total: u64,
    /// Good messages: completed, error-free, latency ≤ threshold.
    pub good: u64,
    /// Bad messages: `total - good` (errors and threshold misses).
    pub bad: u64,
    /// Instantaneous burn rate of this window in milli-units
    /// (1000 = burning exactly at the tolerated rate; 0 for an
    /// empty window — no traffic burns no budget).
    pub burn_milli: u64,
    /// Budget consumed by the run up to and including this window, in
    /// milli-units of the whole-run budget (1000 = the run has spent
    /// its entire tolerated bad fraction so far).
    pub budget_consumed_milli: u64,
}

/// The evaluated objective over a whole run.
#[derive(Debug, Clone)]
pub struct SloTrack {
    /// The objective this track evaluates.
    pub cfg: SloConfig,
    /// Per-window ledger, one entry per fold window (empties included).
    pub windows: Vec<WindowSlo>,
    /// Total messages observed.
    pub total: u64,
    /// Total good messages.
    pub good: u64,
    /// Total bad messages.
    pub bad: u64,
    /// Final cumulative budget consumption in milli-units.
    pub budget_consumed_milli: u64,
    /// The worst single-window burn rate seen.
    pub max_burn_milli: u64,
}

impl SloTrack {
    /// Whether the run met the objective overall (bad fraction within
    /// budget — equivalently `budget_consumed_milli ≤ 1000`).
    pub fn met(&self) -> bool {
        self.budget_consumed_milli <= 1000
    }
}

/// Burn rate of `bad` bads out of `total` events against a
/// `budget_permille` tolerated bad fraction, in milli-units.
fn burn_milli(bad: u64, total: u64, budget_permille: u64) -> u64 {
    if total == 0 {
        return 0;
    }
    // bad/total as a multiple of budget_permille/1000, scaled by 1000:
    // (bad/total) / (budget/1000) * 1000 = bad * 1_000_000 / (total * budget).
    bad.saturating_mul(1_000_000) / (total * budget_permille)
}

/// Evaluate `cfg` over folded windows, producing the budget ledger.
/// Pure and deterministic: integer arithmetic only, same windows in →
/// byte-identical track out.
pub fn evaluate(windows: &mut [Window], cfg: SloConfig) -> SloTrack {
    let budget = cfg.budget_permille();
    let threshold_ps = cfg.threshold.as_ps();
    let mut out = Vec::with_capacity(windows.len());
    let (mut total_cum, mut bad_cum, mut good_cum, mut max_burn) = (0u64, 0u64, 0u64, 0u64);
    for w in windows.iter_mut() {
        let good = w.digest.count_le(threshold_ps);
        let total = w.completed + w.errors;
        let bad = total - good;
        let burn = burn_milli(bad, total, budget);
        total_cum += total;
        bad_cum += bad;
        good_cum += good;
        max_burn = max_burn.max(burn);
        out.push(WindowSlo {
            index: w.index,
            total,
            good,
            bad,
            burn_milli: burn,
            budget_consumed_milli: burn_milli(bad_cum, total_cum, budget),
        });
    }
    SloTrack {
        cfg,
        total: total_cum,
        good: good_cum,
        bad: bad_cum,
        budget_consumed_milli: out.last().map_or(0, |w| w.budget_consumed_milli),
        max_burn_milli: max_burn,
        windows: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::PercentileDigest;
    use apenet_sim::SimTime;

    fn window(index: u64, latencies_ps: &[u64], errors: u64) -> Window {
        let mut digest = PercentileDigest::new();
        for &v in latencies_ps {
            digest.record(v);
        }
        Window {
            index,
            start: SimTime::from_ps(index * 1_000_000),
            end: SimTime::from_ps((index + 1) * 1_000_000),
            digest,
            completed: latencies_ps.len() as u64,
            errors,
        }
    }

    fn cfg_10us_99() -> SloConfig {
        SloConfig {
            window: SimDuration::from_us(1),
            threshold: SimDuration::from_us(10),
            target_permille: 990,
        }
    }

    #[test]
    fn burn_is_in_budget_milliunits() {
        // 1 bad in 100 against a 1 % budget: burning exactly at plan.
        assert_eq!(burn_milli(1, 100, 10), 1000);
        // 14 bad in 100: 14× plan.
        assert_eq!(burn_milli(14, 100, 10), 14_000);
        // No traffic, no burn.
        assert_eq!(burn_milli(0, 0, 10), 0);
    }

    #[test]
    fn threshold_and_errors_both_count_as_bad() {
        // 8 fast, 1 slow (20 µs > 10 µs threshold), 1 typed error.
        let mut ws = vec![window(
            0,
            &[
                5_000_000, 5_000_000, 5_000_000, 5_000_000, 5_000_000, 5_000_000, 5_000_000,
                5_000_000, 20_000_000,
            ],
            1,
        )];
        let track = evaluate(&mut ws, cfg_10us_99());
        assert_eq!(track.total, 10);
        assert_eq!(track.good, 8);
        assert_eq!(track.bad, 2);
        // 2 bad of 10 against a 1 % budget: 20× plan.
        assert_eq!(track.max_burn_milli, 20_000);
        assert!(!track.met());
    }

    #[test]
    fn clean_traffic_meets_the_objective() {
        let mut ws: Vec<Window> = (0..4).map(|i| window(i, &[1_000_000; 50], 0)).collect();
        let track = evaluate(&mut ws, cfg_10us_99());
        assert_eq!(track.total, 200);
        assert_eq!(track.bad, 0);
        assert_eq!(track.budget_consumed_milli, 0);
        assert_eq!(track.max_burn_milli, 0);
        assert!(track.met());
    }

    #[test]
    fn cumulative_budget_tracks_across_windows() {
        // Window 0 clean, window 1 fully bad.
        let mut ws = vec![
            window(0, &[1_000_000; 99], 0),
            window(1, &[99_000_000; 99], 0),
        ];
        let track = evaluate(&mut ws, cfg_10us_99());
        assert_eq!(track.windows[0].budget_consumed_milli, 0);
        // 99 bad of 198 total on a 1 % budget: 50× the whole budget.
        assert_eq!(track.windows[1].burn_milli, 100_000);
        assert_eq!(track.windows[1].budget_consumed_milli, 50_000);
        assert!(!track.met());
    }

    #[test]
    fn empty_windows_burn_nothing() {
        let mut ws = vec![window(0, &[], 0), window(1, &[1_000_000], 0)];
        let track = evaluate(&mut ws, cfg_10us_99());
        assert_eq!(track.windows[0].burn_milli, 0);
        assert_eq!(track.windows[0].total, 0);
        assert!(track.met());
    }
}

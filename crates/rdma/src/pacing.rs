//! Host-side congestion pacing and admission control — the driver half
//! of the overload-protection plane.
//!
//! The card half (ECN-style marking plus CNP echoes, `apenet-core`'s
//! `card::link` and `card::rx`) tells the sending host *that* a path is over its
//! high-water mark; this module decides *what to do about it*: a
//! per-destination congestion window shrunk multiplicatively on every
//! echo and grown additively on clean completions (DCQCN-flavoured
//! AIMD), plus a global outstanding-ops budget so one host cannot bury
//! its own card no matter how many destinations it sprays.
//!
//! The [`Pacer`] is passive and deterministic, like the watchdog it
//! composes with: the owner asks [`Pacer::try_admit`] before building a
//! descriptor, registers the submit, feeds echoes and completions back
//! in, and polls [`Pacer::poll_deadlines`] from its wake-ups. Deadlines
//! here are *admission* deadlines — an op past its deadline releases
//! its budget slot so the flow cannot wedge, while the op itself still
//! terminates through the watchdog's re-issue/give-up escalation. The
//! two timers never fight: the pacer only ever frees capacity, the
//! watchdog only ever retires messages.

use apenet_core::packet::MsgId;
use apenet_obs::{Counter, Registry};
use apenet_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Registry ids for the pacing/admission counters.
pub mod metrics {
    /// Additive window increases (one per cwnd-worth of clean
    /// completions to a destination).
    pub const CWND_INCREASES: &str = "cwnd.increases";
    /// Multiplicative window cuts (at most one per cooldown per
    /// destination, however many echoes arrive inside it).
    pub const CWND_DECREASES: &str = "cwnd.decreases";
    /// Admission attempts rejected because the window or the budget was
    /// full — the caller saw `RdmaError::Throttled` or backed off.
    pub const THROTTLED: &str = "admission.throttled";
    /// Ops whose admission deadline expired before completion: the
    /// budget slot was reclaimed while the watchdog keeps chasing the
    /// op itself.
    pub const DEADLINE_EXPIRED: &str = "admission.deadline_expired";

    /// Every pacing id, in reporting order, for the completeness test.
    pub const ALL: [&str; 4] = [CWND_INCREASES, CWND_DECREASES, THROTTLED, DEADLINE_EXPIRED];
}

/// Pre-create the pacing counters at zero so a run that never admits an
/// op still publishes the full id set.
pub fn register_metrics(reg: &Registry) {
    for id in metrics::ALL {
        let _ = reg.counter(id);
    }
}

/// Pacing and admission tuning.
#[derive(Debug, Clone)]
pub struct PacerConfig {
    /// Starting per-destination window, in outstanding ops.
    pub cwnd_init: u32,
    /// Floor the window never cuts below (keeps every flow live).
    pub cwnd_min: u32,
    /// Ceiling additive growth never exceeds.
    pub cwnd_max: u32,
    /// After a cut, further echoes for the same destination are absorbed
    /// for this long — one mark burst is one congestion event, not N.
    pub md_cooldown: SimDuration,
    /// Global outstanding-ops budget across all destinations.
    pub admission: u32,
    /// Admission deadline per op: past it, the budget slot is reclaimed
    /// (the watchdog still owns the op's fate).
    pub deadline: SimDuration,
    /// Bound on throttle-retry attempts a caller should make before
    /// treating the destination as congested-unreachable.
    pub retry_max: u32,
    /// First throttle-retry backoff; attempt `k` waits
    /// `backoff_base << min(k, backoff_cap)`.
    pub backoff_base: SimDuration,
    /// Cap on the backoff exponent.
    pub backoff_cap: u32,
}

impl Default for PacerConfig {
    fn default() -> Self {
        PacerConfig {
            cwnd_init: 2,
            cwnd_min: 1,
            cwnd_max: 64,
            // One link RTO: echoes from the same queue excursion arrive
            // well inside it.
            md_cooldown: SimDuration::from_us(100),
            admission: 16,
            deadline: SimDuration::from_ms(10),
            retry_max: 8,
            backoff_base: SimDuration::from_us(50),
            backoff_cap: 4,
        }
    }
}

/// Per-destination AIMD window state.
#[derive(Debug, Clone, Copy)]
struct DestState {
    cwnd: u32,
    in_flight: u32,
    /// Clean completions since the last additive increase.
    acked: u32,
    /// Time of the last multiplicative cut (cooldown anchor).
    last_cut: Option<SimTime>,
}

/// One admitted, not-yet-settled op.
#[derive(Debug, Clone, Copy)]
struct Flight {
    dst: u32,
    deadline: SimTime,
    /// Deadline already reclaimed the slot; the eventual completion
    /// must not double-release it.
    expired: bool,
}

#[derive(Debug, Clone)]
struct PacerCounters {
    increases: Counter,
    decreases: Counter,
    throttled: Counter,
    deadline_expired: Counter,
}

/// Per-host congestion pacer: AIMD windows per destination rank plus a
/// global admission budget.
#[derive(Debug, Default)]
pub struct Pacer {
    cfg: PacerConfig,
    dests: BTreeMap<u32, DestState>,
    flights: BTreeMap<MsgId, Flight>,
    /// Live (non-expired) admitted ops, bounded by `cfg.admission`.
    admitted: u32,
    counters: Option<PacerCounters>,
    /// `(registry, local rank)` for the cwnd time series — ids are
    /// `cwnd.r<rank>.d<dst>` so the sampler/heatmap tooling can plot
    /// every flow of a run from one registry.
    series: Option<(Registry, u32)>,
}

impl Pacer {
    /// A pacer with the given tuning.
    pub fn new(cfg: PacerConfig) -> Self {
        Pacer {
            cfg,
            dests: BTreeMap::new(),
            flights: BTreeMap::new(),
            admitted: 0,
            counters: None,
            series: None,
        }
    }

    /// The tuning this pacer runs with.
    pub fn config(&self) -> &PacerConfig {
        &self.cfg
    }

    /// Mirror pacing activity into `reg` under the [`metrics`] ids.
    pub fn attach_metrics(&mut self, reg: &Registry) {
        self.counters = Some(PacerCounters {
            increases: reg.counter(metrics::CWND_INCREASES),
            decreases: reg.counter(metrics::CWND_DECREASES),
            throttled: reg.counter(metrics::THROTTLED),
            deadline_expired: reg.counter(metrics::DEADLINE_EXPIRED),
        });
    }

    /// Record every cwnd change as a `cwnd.r<rank>.d<dst>` time series in
    /// `reg`, feeding the existing sampler/heatmap tooling.
    pub fn attach_series(&mut self, reg: &Registry, rank: u32) {
        self.series = Some((reg.clone(), rank));
    }

    fn dest(&mut self, dst: u32) -> &mut DestState {
        let init = self.cfg.cwnd_init.max(self.cfg.cwnd_min);
        self.dests.entry(dst).or_insert(DestState {
            cwnd: init,
            in_flight: 0,
            acked: 0,
            last_cut: None,
        })
    }

    fn sample(&self, dst: u32, now: SimTime, cwnd: u32) {
        if let Some((reg, rank)) = &self.series {
            reg.series(&format!("cwnd.r{rank}.d{dst}"))
                .push(now, cwnd as u64);
        }
    }

    /// May one more op to `dst` leave the host right now? Counts a
    /// rejection as a throttle event.
    pub fn try_admit(&mut self, dst: u32) -> bool {
        let budget_full = self.admitted >= self.cfg.admission;
        let win = self.dest(dst);
        if budget_full || win.in_flight >= win.cwnd {
            if let Some(c) = &self.counters {
                c.throttled.incr();
            }
            return false;
        }
        true
    }

    /// Register an admitted submit: occupies one budget slot and one
    /// window slot until completion (or admission-deadline expiry).
    pub fn on_submit(&mut self, msg: MsgId, dst: u32, now: SimTime) {
        let deadline = now + self.cfg.deadline;
        self.flights.insert(
            msg,
            Flight {
                dst,
                deadline,
                expired: false,
            },
        );
        self.admitted += 1;
        self.dest(dst).in_flight += 1;
    }

    /// A congestion echo for `msg` reached this host: cut the
    /// destination's window multiplicatively, at most once per cooldown.
    /// Echoes for already-settled messages are ignored (stale news).
    pub fn on_echo(&mut self, msg: MsgId, now: SimTime) {
        let Some(flight) = self.flights.get(&msg) else {
            return;
        };
        let dst = flight.dst;
        let cooldown = self.cfg.md_cooldown;
        let floor = self.cfg.cwnd_min;
        let win = self.dest(dst);
        if let Some(t) = win.last_cut {
            if now.since(t) < cooldown {
                return;
            }
        }
        win.last_cut = Some(now);
        win.acked = 0;
        let cut = (win.cwnd / 2).max(floor);
        if cut < win.cwnd {
            win.cwnd = cut;
            if let Some(c) = &self.counters {
                c.decreases.incr();
            }
            self.sample(dst, now, cut);
        }
    }

    /// `msg` settled (delivered, or failed through the watchdog):
    /// release its slots and grow the window additively — one increment
    /// per cwnd-worth of clean completions.
    pub fn on_complete(&mut self, msg: MsgId, now: SimTime) {
        let Some(flight) = self.flights.remove(&msg) else {
            return;
        };
        let ceil = self.cfg.cwnd_max;
        if !flight.expired {
            self.admitted -= 1;
        }
        let win = self.dest(flight.dst);
        if !flight.expired {
            win.in_flight = win.in_flight.saturating_sub(1);
        }
        win.acked += 1;
        if win.acked >= win.cwnd && win.cwnd < ceil {
            win.acked = 0;
            win.cwnd += 1;
            let cwnd = win.cwnd;
            if let Some(c) = &self.counters {
                c.increases.incr();
            }
            self.sample(flight.dst, now, cwnd);
        }
    }

    /// Reclaim the budget and window slots of every op past its
    /// admission deadline. The ops themselves stay tracked: their
    /// eventual watchdog-driven completion is still fed to
    /// [`Pacer::on_complete`], which knows not to double-release.
    /// Returns the newly expired ids (for logging/metrics only).
    pub fn poll_deadlines(&mut self, now: SimTime) -> Vec<MsgId> {
        let due: Vec<MsgId> = self
            .flights
            .iter()
            .filter(|(_, f)| !f.expired && f.deadline <= now)
            .map(|(&m, _)| m)
            .collect();
        for msg in &due {
            let f = self.flights.get_mut(msg).expect("just listed");
            f.expired = true;
            let dst = f.dst;
            self.admitted = self.admitted.saturating_sub(1);
            self.dest(dst).in_flight = self.dest(dst).in_flight.saturating_sub(1);
            if let Some(c) = &self.counters {
                c.deadline_expired.incr();
            }
        }
        due
    }

    /// Earliest admission deadline among live ops (wake-up scheduling).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.flights
            .values()
            .filter(|f| !f.expired)
            .map(|f| f.deadline)
            .min()
    }

    /// Throttle-retry backoff for attempt `k`:
    /// `backoff_base << min(k, backoff_cap)`. Pure, so retry schedules
    /// are reproducible from the config alone.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        SimDuration::from_ps(self.cfg.backoff_base.as_ps() << attempt.min(self.cfg.backoff_cap))
    }

    /// The current window to `dst` (the initial window if untouched).
    pub fn cwnd_of(&self, dst: u32) -> u32 {
        self.dests
            .get(&dst)
            .map(|w| w.cwnd)
            .unwrap_or(self.cfg.cwnd_init.max(self.cfg.cwnd_min))
    }

    /// Live admitted ops (budget occupancy).
    pub fn admitted(&self) -> u32 {
        self.admitted
    }

    /// Ops admitted and not yet settled, expired ones included.
    pub fn outstanding(&self) -> usize {
        self.flights.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64) -> MsgId {
        MsgId { src_rank: 0, seq }
    }

    #[test]
    fn aimd_cuts_on_echo_and_grows_on_completions() {
        let mut p = Pacer::new(PacerConfig {
            cwnd_init: 8,
            ..PacerConfig::default()
        });
        let t0 = SimTime::ZERO;
        assert_eq!(p.cwnd_of(3), 8);
        // Cut halves, floored at cwnd_min.
        p.on_submit(msg(0), 3, t0);
        p.on_echo(msg(0), t0 + SimDuration::from_us(1));
        assert_eq!(p.cwnd_of(3), 4);
        // Second echo inside the cooldown is absorbed.
        p.on_echo(msg(0), t0 + SimDuration::from_us(2));
        assert_eq!(p.cwnd_of(3), 4);
        // Past the cooldown, another echo cuts again.
        p.on_echo(msg(0), t0 + SimDuration::from_us(200));
        assert_eq!(p.cwnd_of(3), 2);
        p.on_complete(msg(0), t0 + SimDuration::from_us(300));
        // Additive growth: one increment per cwnd-worth of completions.
        let mut t = t0 + SimDuration::from_ms(1);
        for s in 1..=2 {
            p.on_submit(msg(s), 3, t);
            p.on_complete(msg(s), t);
            t += SimDuration::from_us(10);
        }
        assert_eq!(p.cwnd_of(3), 3, "2 completions at cwnd 2 grow by one");
    }

    #[test]
    fn windows_are_per_destination() {
        let mut p = Pacer::new(PacerConfig::default());
        let t0 = SimTime::ZERO;
        p.on_submit(msg(0), 1, t0);
        p.on_submit(msg(1), 2, t0);
        p.on_echo(msg(0), t0 + SimDuration::from_us(1));
        assert_eq!(p.cwnd_of(1), 1, "dst 1 cut");
        assert_eq!(p.cwnd_of(2), 2, "dst 2 untouched");
    }

    #[test]
    fn admission_budget_and_window_both_gate() {
        let mut p = Pacer::new(PacerConfig {
            cwnd_init: 2,
            admission: 3,
            ..PacerConfig::default()
        });
        let reg = Registry::new();
        p.attach_metrics(&reg);
        let t0 = SimTime::ZERO;
        // Window gate: two to dst 5, then throttled.
        assert!(p.try_admit(5));
        p.on_submit(msg(0), 5, t0);
        assert!(p.try_admit(5));
        p.on_submit(msg(1), 5, t0);
        assert!(!p.try_admit(5), "window full");
        // Budget gate: dst 6's window is fresh but the budget is full.
        assert!(p.try_admit(6));
        p.on_submit(msg(2), 6, t0);
        assert!(!p.try_admit(6), "budget full");
        assert_eq!(reg.counters().get(metrics::THROTTLED), 2);
        // Completion frees both gates.
        p.on_complete(msg(0), t0 + SimDuration::from_us(1));
        assert!(p.try_admit(5));
        assert_eq!(p.admitted(), 2);
    }

    #[test]
    fn deadline_expiry_reclaims_slots_exactly_once() {
        let mut p = Pacer::new(PacerConfig {
            cwnd_init: 1,
            admission: 1,
            deadline: SimDuration::from_us(10),
            ..PacerConfig::default()
        });
        let reg = Registry::new();
        p.attach_metrics(&reg);
        let t0 = SimTime::ZERO;
        p.on_submit(msg(0), 4, t0);
        assert!(!p.try_admit(4));
        assert_eq!(p.next_deadline(), Some(t0 + SimDuration::from_us(10)));
        // Expiry frees the flow; the op stays tracked.
        let due = p.poll_deadlines(t0 + SimDuration::from_us(10));
        assert_eq!(due, vec![msg(0)]);
        assert_eq!(p.admitted(), 0);
        assert_eq!(p.outstanding(), 1);
        assert!(p.try_admit(4), "slot reclaimed");
        // A second poll reports nothing (no double release)...
        assert!(p.poll_deadlines(t0 + SimDuration::from_ms(1)).is_empty());
        // ...and the late completion does not underflow the budget.
        p.on_submit(msg(1), 4, t0 + SimDuration::from_ms(1));
        p.on_complete(msg(0), t0 + SimDuration::from_ms(2));
        assert_eq!(p.admitted(), 1, "late settle released nothing");
        assert_eq!(reg.counters().get(metrics::DEADLINE_EXPIRED), 1);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        let p = Pacer::new(PacerConfig::default());
        let q = Pacer::new(PacerConfig::default());
        let base = p.config().backoff_base;
        let cap = p.config().backoff_cap;
        let mut prev = SimDuration::ZERO;
        for k in 0..(p.config().retry_max + 4) {
            let a = p.backoff_for(k);
            let b = q.backoff_for(k);
            assert_eq!(a, b, "schedule depends on config alone");
            assert_eq!(a, SimDuration::from_ps(base.as_ps() << k.min(cap)));
            assert!(a >= prev, "monotone non-decreasing");
            prev = a;
        }
        // Capped: attempts past the cap stop growing.
        assert_eq!(p.backoff_for(cap), p.backoff_for(cap + 100));
    }

    #[test]
    fn cwnd_series_feeds_the_registry() {
        let mut p = Pacer::new(PacerConfig {
            cwnd_init: 4,
            ..PacerConfig::default()
        });
        let reg = Registry::new();
        p.attach_series(&reg, 7);
        let t0 = SimTime::ZERO;
        p.on_submit(msg(0), 2, t0);
        p.on_echo(msg(0), t0 + SimDuration::from_us(1));
        let pts = reg.series("cwnd.r7.d2").points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].1, 2, "cut from 4 to 2 was sampled");
    }

    #[test]
    fn registered_ids_match_all() {
        let reg = Registry::new();
        register_metrics(&reg);
        let snap = reg.counters();
        for id in metrics::ALL {
            assert_eq!(snap.get(id), 0, "{id} pre-registered at zero");
        }
        assert_eq!(snap.0.len(), metrics::ALL.len());
    }
}

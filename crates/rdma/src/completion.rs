//! Completion bookkeeping for the host side.
//!
//! The cluster host actor feeds card notifications (`Delivered`,
//! `TxComplete`) into a [`CompletionQueue`]; benchmark harnesses and
//! applications poll it to sequence their next steps and to timestamp
//! results.

use apenet_core::packet::MsgId;
use apenet_sim::idhash::IdMap;
use apenet_sim::SimTime;

/// Why an operation completed with an error instead of a delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionError {
    /// The driver watchdog exhausted its re-issue budget: as far as the
    /// host can tell, the destination node is unreachable.
    Unreachable,
}

impl std::fmt::Display for CompletionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompletionError::Unreachable => write!(f, "destination unreachable"),
        }
    }
}

impl std::error::Error for CompletionError {}

/// Arrival records of one host.
#[derive(Debug, Default, Clone)]
pub struct CompletionQueue {
    delivered: IdMap<MsgId, (SimTime, u64)>,
    tx_done: IdMap<MsgId, SimTime>,
    errors: IdMap<MsgId, (SimTime, CompletionError)>,
    delivered_bytes: u64,
    last_delivery: Option<SimTime>,
    duplicates: u64,
}

impl CompletionQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an RX completion. A second completion for the same message
    /// keeps the first record and bumps [`CompletionQueue::duplicate_count`]
    /// — the chaos suite's exactly-once proof rests on that counter
    /// staying at zero.
    pub fn push_delivered(&mut self, msg: MsgId, at: SimTime, len: u64) {
        if self.delivered.contains_key(&msg) {
            self.duplicates += 1;
            return;
        }
        self.delivered.insert(msg, (at, len));
        self.delivered_bytes += len;
        self.last_delivery = Some(self.last_delivery.map_or(at, |t| t.max(at)));
    }

    /// Record a TX completion.
    pub fn push_tx_done(&mut self, msg: MsgId, at: SimTime) {
        self.tx_done.insert(msg, at);
    }

    /// Record a typed error completion: the operation terminated without
    /// delivery (e.g. watchdog escalation on an unreachable node). The
    /// first record wins; repeats are ignored.
    pub fn push_error(&mut self, msg: MsgId, at: SimTime, err: CompletionError) {
        self.errors.entry(msg).or_insert((at, err));
    }

    /// Did `msg` complete with an error?
    pub fn is_failed(&self, msg: MsgId) -> bool {
        self.errors.contains_key(&msg)
    }

    /// The error completion of `msg`, if it failed.
    pub fn error_of(&self, msg: MsgId) -> Option<(SimTime, CompletionError)> {
        self.errors.get(&msg).copied()
    }

    /// Number of error completions.
    pub fn error_count(&self) -> usize {
        self.errors.len()
    }

    /// Every error completion, sorted by message id so consumers see a
    /// deterministic order despite the hash-map backing.
    pub fn errors(&self) -> Vec<(MsgId, SimTime, CompletionError)> {
        let mut v: Vec<_> = self
            .errors
            .iter()
            .map(|(&m, &(at, e))| (m, at, e))
            .collect();
        v.sort_by_key(|&(m, _, _)| m);
        v
    }

    /// Has `msg` been delivered locally?
    pub fn is_delivered(&self, msg: MsgId) -> bool {
        self.delivered.contains_key(&msg)
    }

    /// Delivery time of `msg`, if it arrived.
    pub fn delivery_time(&self, msg: MsgId) -> Option<SimTime> {
        self.delivered.get(&msg).map(|&(t, _)| t)
    }

    /// Number of delivered messages.
    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
    }

    /// Total delivered payload bytes.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Timestamp of the most recent delivery.
    pub fn last_delivery(&self) -> Option<SimTime> {
        self.last_delivery
    }

    /// Number of completed transmissions.
    pub fn tx_done_count(&self) -> usize {
        self.tx_done.len()
    }

    /// Number of repeat deliveries observed for already-completed
    /// messages (0 unless the exactly-once guarantee is broken).
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Drop all records (between benchmark repetitions).
    pub fn clear(&mut self) {
        self.delivered.clear();
        self.tx_done.clear();
        self.errors.clear();
        self.delivered_bytes = 0;
        self.last_delivery = None;
        self.duplicates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apenet_sim::SimDuration;

    fn msg(seq: u64) -> MsgId {
        MsgId { src_rank: 0, seq }
    }

    #[test]
    fn records_and_counts() {
        let mut cq = CompletionQueue::new();
        let t1 = SimTime::ZERO + SimDuration::from_us(1);
        let t2 = SimTime::ZERO + SimDuration::from_us(2);
        cq.push_delivered(msg(0), t2, 100);
        cq.push_delivered(msg(1), t1, 50);
        cq.push_tx_done(msg(0), t1);
        assert!(cq.is_delivered(msg(0)));
        assert!(!cq.is_delivered(msg(9)));
        assert_eq!(cq.delivery_time(msg(1)), Some(t1));
        assert_eq!(cq.delivered_count(), 2);
        assert_eq!(cq.delivered_bytes(), 150);
        assert_eq!(cq.last_delivery(), Some(t2), "max, not last-pushed");
        assert_eq!(cq.tx_done_count(), 1);
        cq.clear();
        assert_eq!(cq.delivered_count(), 0);
        assert_eq!(cq.last_delivery(), None);
    }

    #[test]
    fn error_completions_are_typed_and_first_wins() {
        let mut cq = CompletionQueue::new();
        let t1 = SimTime::ZERO + SimDuration::from_us(1);
        let t2 = SimTime::ZERO + SimDuration::from_us(2);
        cq.push_error(msg(0), t1, CompletionError::Unreachable);
        cq.push_error(msg(0), t2, CompletionError::Unreachable);
        assert!(cq.is_failed(msg(0)));
        assert!(!cq.is_failed(msg(1)));
        assert_eq!(
            cq.error_of(msg(0)),
            Some((t1, CompletionError::Unreachable))
        );
        assert_eq!(cq.error_count(), 1);
        assert!(!cq.is_delivered(msg(0)), "an error is not a delivery");
        cq.clear();
        assert_eq!(cq.error_count(), 0);
    }

    #[test]
    fn duplicate_deliveries_are_counted_not_recorded() {
        let mut cq = CompletionQueue::new();
        let t1 = SimTime::ZERO + SimDuration::from_us(1);
        let t2 = SimTime::ZERO + SimDuration::from_us(2);
        cq.push_delivered(msg(0), t1, 100);
        cq.push_delivered(msg(0), t2, 100);
        assert_eq!(cq.duplicate_count(), 1);
        assert_eq!(cq.delivered_count(), 1);
        assert_eq!(cq.delivered_bytes(), 100, "duplicate bytes not counted");
        assert_eq!(cq.delivery_time(msg(0)), Some(t1), "first record kept");
        cq.clear();
        assert_eq!(cq.duplicate_count(), 0);
    }
}

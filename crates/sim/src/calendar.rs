//! Pooled calendar-queue scheduler for the event engine.
//!
//! A classic calendar queue (Brown 1988): buckets partition time into
//! windows of `width` picoseconds, an event at time `t` lives in bucket
//! `(t / width) mod nbuckets`, and buckets are revisited year after year
//! (`year = nbuckets * width`). Within a bucket events sit in a singly
//! linked list sorted by `(at, seq)`, so the head of the first bucket
//! whose head falls inside its current-year window is the global
//! minimum — dispatch order is *identical* to the binary heap this
//! replaced, including the FIFO sequence-number tie-break at equal
//! times (`tests/calendar_equiv.rs` pins this property against a heap
//! model on seeded random schedules).
//!
//! Two properties make it faster than the heap on the engine's hot
//! path:
//!
//! * **Arena envelopes.** Every event lives in a slot of one pooled
//!   `Vec`, recycled through an intrusive free list; after warm-up a
//!   push/pop cycle allocates nothing. This extends the zero-copy
//!   payload discipline to the event envelope itself.
//! * **O(1) steady-state operations.** Pushes append at the bucket tail
//!   (event generation is overwhelmingly time-ordered), pops unlink the
//!   cached minimum head; neither needs the `log n` sift of a heap.
//!
//! The bucket width adapts to the observed event spacing (the torus
//! link latency, in real runs): when pops scan too many empty buckets
//! the width doubles, when sorted inserts walk too far it halves, and
//! the bucket count doubles/halves with occupancy. Retuning only moves
//! events between buckets — never reorders them — so determinism is
//! untouched by the heuristics.

use crate::time::SimTime;

/// Null link / "no cached minimum" sentinel.
const NIL: u32 = u32::MAX;
/// Smallest bucket-count (power of two).
const MIN_BUCKETS: usize = 16;
/// Starting bucket width: 16 ns, the order of the torus link latency
/// that spaces the dominant event streams of real runs.
const INITIAL_WIDTH_PS: u64 = 16_384;
/// Pops between width-adaptation checks.
const ADAPT_PERIOD: u64 = 1024;

/// One pooled event envelope.
struct Node<M> {
    at: u64,
    seq: u64,
    to: u32,
    next: u32,
    /// `None` only while the node sits on the free list.
    msg: Option<M>,
}

/// An event popped from the calendar.
pub struct PoppedEvent<M> {
    /// Scheduled time.
    pub at: SimTime,
    /// Scheduling sequence number (the FIFO tie-break at equal times).
    pub seq: u64,
    /// Target actor index.
    pub to: usize,
    /// The message.
    pub msg: M,
}

/// The pooled calendar queue. Orders events by `(at, seq)` exactly like
/// a min-heap of `(SimTime, u64)` keys.
pub struct CalendarQueue<M> {
    pool: Vec<Node<M>>,
    /// Free-list head into `pool`.
    free: u32,
    /// Per-bucket sorted-list heads/tails (`NIL` when empty).
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Bucket width in ps (≥ 1, power-of-two not required).
    width: u64,
    len: usize,
    /// Lower bound on every live event's time (the last popped time);
    /// scans for the minimum start at its bucket.
    floor: u64,
    /// Pool index of the known global minimum, or `NIL` when stale.
    cached_min: u32,
    // Adaptation counters since the last retune.
    pops: u64,
    scanned: u64,
    inserts: u64,
    insert_steps: u64,
}

impl<M> Default for CalendarQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> CalendarQueue<M> {
    /// An empty calendar.
    pub fn new() -> Self {
        CalendarQueue {
            pool: Vec::new(),
            free: NIL,
            heads: vec![NIL; MIN_BUCKETS],
            tails: vec![NIL; MIN_BUCKETS],
            width: INITIAL_WIDTH_PS,
            len: 0,
            floor: 0,
            cached_min: NIL,
            pops: 0,
            scanned: 0,
            inserts: 0,
            insert_steps: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current bucket count (test/telemetry hook).
    pub fn buckets(&self) -> usize {
        self.heads.len()
    }

    /// Current bucket width in ps (test/telemetry hook).
    pub fn width_ps(&self) -> u64 {
        self.width
    }

    #[inline]
    fn key(&self, idx: u32) -> (u64, u64) {
        let n = &self.pool[idx as usize];
        (n.at, n.seq)
    }

    #[inline]
    fn bucket_of(&self, at: u64) -> usize {
        ((at / self.width) as usize) & (self.heads.len() - 1)
    }

    fn alloc(&mut self, at: u64, seq: u64, to: u32, msg: M) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let n = &mut self.pool[idx as usize];
            self.free = n.next;
            n.at = at;
            n.seq = seq;
            n.to = to;
            n.next = NIL;
            n.msg = Some(msg);
            idx
        } else {
            let idx = u32::try_from(self.pool.len()).expect("calendar pool exceeds u32 slots");
            assert_ne!(idx, NIL, "calendar pool full");
            self.pool.push(Node {
                at,
                seq,
                to,
                next: NIL,
                msg: Some(msg),
            });
            idx
        }
    }

    /// Sorted insert of pool node `idx` into its bucket.
    fn link(&mut self, idx: u32) {
        let (at, seq) = self.key(idx);
        let b = self.bucket_of(at);
        let tail = self.tails[b];
        if tail == NIL {
            self.heads[b] = idx;
            self.tails[b] = idx;
            return;
        }
        // Fast path: events are generated in mostly non-decreasing order,
        // so appending at the tail is the common case.
        if self.key(tail) <= (at, seq) {
            self.pool[tail as usize].next = idx;
            self.tails[b] = idx;
            return;
        }
        // Sorted walk from the head; FIFO ties resolve by seq, which is
        // strictly increasing, so `<=` can never see an equal key.
        let mut prev = NIL;
        let mut cur = self.heads[b];
        while cur != NIL && self.key(cur) <= (at, seq) {
            self.insert_steps += 1;
            prev = cur;
            cur = self.pool[cur as usize].next;
        }
        self.pool[idx as usize].next = cur;
        if prev == NIL {
            self.heads[b] = idx;
        } else {
            self.pool[prev as usize].next = idx;
        }
        debug_assert_ne!(cur, NIL, "tail append above covers end-insertion");
    }

    /// Schedule `msg` for actor `to` at `(at, seq)`.
    pub fn push(&mut self, at: SimTime, seq: u64, to: usize, msg: M) {
        let at = at.as_ps();
        debug_assert!(at >= self.floor, "cannot schedule before the last pop");
        let to = u32::try_from(to).expect("actor id fits u32");
        let idx = self.alloc(at, seq, to, msg);
        self.link(idx);
        self.len += 1;
        self.inserts += 1;
        // A push below the cached minimum becomes the new minimum (and is
        // its bucket's head); pushes at/after it leave the cache valid.
        // The sole event of a previously-empty calendar is trivially min.
        if self.len == 1 || (self.cached_min != NIL && (at, seq) < self.key(self.cached_min)) {
            self.cached_min = idx;
        }
        if self.len > 4 * self.heads.len() {
            let n = self.heads.len() * 2;
            self.rebuild(n, self.width);
        }
    }

    /// Locate the global minimum and cache it. `None` when empty.
    fn ensure_min(&mut self) -> Option<u32> {
        if self.cached_min != NIL {
            return Some(self.cached_min);
        }
        if self.len == 0 {
            return None;
        }
        let n = self.heads.len();
        let base = self.floor / self.width;
        // One year, starting at the floor's bucket: the first head inside
        // its current-year window is the unique global minimum (events in
        // skipped buckets belong to later years; later buckets of this
        // year start after this window ends; same-time events share a
        // bucket).
        for k in 0..n as u64 {
            let num = base + k;
            let b = (num as usize) & (n - 1);
            let h = self.heads[b];
            self.scanned += 1;
            if h != NIL && self.pool[h as usize].at < (num + 1).saturating_mul(self.width) {
                self.cached_min = h;
                return Some(h);
            }
        }
        // Sparse calendar: nothing within a year of the floor. Direct
        // search over the bucket heads (each is its bucket's minimum).
        let mut best = NIL;
        for b in 0..n {
            let h = self.heads[b];
            if h != NIL && (best == NIL || self.key(h) < self.key(best)) {
                best = h;
            }
        }
        debug_assert_ne!(best, NIL, "len > 0 implies a head exists");
        self.cached_min = best;
        Some(best)
    }

    /// Time of the earliest event, if any. Never reorders or consumes
    /// anything; repeated peeks are O(1) via the cached minimum.
    pub fn peek_at(&mut self) -> Option<SimTime> {
        let idx = self.ensure_min()?;
        Some(SimTime::from_ps(self.pool[idx as usize].at))
    }

    /// Read-only [`CalendarQueue::peek_at`]: same answer, but performs a
    /// fresh scan instead of committing to the minimum cache when the
    /// cache is stale. Lets `&self` call sites (external dispatch loops)
    /// peek without mutable access.
    pub fn peek_at_ref(&self) -> Option<SimTime> {
        if self.cached_min != NIL {
            return Some(SimTime::from_ps(self.pool[self.cached_min as usize].at));
        }
        if self.len == 0 {
            return None;
        }
        let n = self.heads.len();
        let base = self.floor / self.width;
        for k in 0..n as u64 {
            let num = base + k;
            let h = self.heads[(num as usize) & (n - 1)];
            if h != NIL && self.pool[h as usize].at < (num + 1).saturating_mul(self.width) {
                return Some(SimTime::from_ps(self.pool[h as usize].at));
            }
        }
        let mut best = NIL;
        for b in 0..n {
            let h = self.heads[b];
            if h != NIL && (best == NIL || self.key(h) < self.key(best)) {
                best = h;
            }
        }
        debug_assert_ne!(best, NIL);
        Some(SimTime::from_ps(self.pool[best as usize].at))
    }

    /// Pop the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<PoppedEvent<M>> {
        let idx = self.ensure_min()?;
        let b = self.bucket_of(self.pool[idx as usize].at);
        debug_assert_eq!(self.heads[b], idx, "the minimum is its bucket's head");
        self.heads[b] = self.pool[idx as usize].next;
        if self.heads[b] == NIL {
            self.tails[b] = NIL;
        }
        self.cached_min = NIL;
        self.len -= 1;
        self.pops += 1;
        let node = &mut self.pool[idx as usize];
        let at = node.at;
        let seq = node.seq;
        let to = node.to as usize;
        let msg = node.msg.take().expect("live node has a message");
        node.next = self.free;
        self.free = idx;
        self.floor = at;
        if self.len < self.heads.len() / 4 && self.heads.len() > MIN_BUCKETS {
            let n = self.heads.len() / 2;
            self.rebuild(n, self.width);
        } else if self.pops >= ADAPT_PERIOD {
            self.adapt();
        }
        Some(PoppedEvent {
            at: SimTime::from_ps(at),
            seq,
            to,
            msg,
        })
    }

    /// Width adaptation: widen when pops scan mostly empty buckets
    /// (events sparser than the windows), narrow when sorted inserts
    /// walk long chains (events denser than the windows).
    fn adapt(&mut self) {
        let scanned = std::mem::take(&mut self.scanned);
        let pops = std::mem::take(&mut self.pops);
        let steps = std::mem::take(&mut self.insert_steps);
        let inserts = std::mem::take(&mut self.inserts);
        if pops > 0 && scanned > 2 * pops {
            let w = self.width.saturating_mul(4);
            let n = self.heads.len();
            self.rebuild(n, w);
        } else if inserts > 0 && steps > 4 * inserts && self.width > 1 {
            let w = (self.width / 4).max(1);
            let n = self.heads.len();
            self.rebuild(n, w);
        }
    }

    /// Re-bucket every live node for a new geometry. Relinking preserves
    /// each node's `(at, seq)` key, so dispatch order is unchanged.
    fn rebuild(&mut self, nbuckets: usize, width: u64) {
        debug_assert!(nbuckets.is_power_of_two());
        let mut live = Vec::with_capacity(self.len);
        for b in 0..self.heads.len() {
            let mut cur = self.heads[b];
            while cur != NIL {
                live.push(cur);
                cur = self.pool[cur as usize].next;
            }
        }
        self.heads.clear();
        self.heads.resize(nbuckets, NIL);
        self.tails.clear();
        self.tails.resize(nbuckets, NIL);
        self.width = width.max(1);
        let min = self.cached_min;
        self.cached_min = NIL;
        for idx in live {
            self.pool[idx as usize].next = NIL;
            self.link(idx);
        }
        self.cached_min = min; // still the same minimum node, head of its new bucket
        self.insert_steps = 0;
        self.inserts = self.inserts.min(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop() {
            out.push((ev.at.as_ps(), ev.msg));
        }
        out
    }

    #[test]
    fn orders_by_time_then_seq() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_ps(50), 0, 0, 0u32);
        q.push(SimTime::from_ps(10), 1, 0, 1);
        q.push(SimTime::from_ps(50), 2, 0, 2);
        q.push(SimTime::from_ps(10), 3, 0, 3);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_at(), Some(SimTime::from_ps(10)));
        assert_eq!(drain(&mut q), vec![(10, 1), (10, 3), (50, 0), (50, 2)]);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_pop_after_year_jump() {
        let mut q = CalendarQueue::new();
        // Far beyond one year of the initial geometry.
        q.push(SimTime::from_ps(10_000_000_000), 0, 0, 0u32);
        q.push(SimTime::from_ps(5), 1, 0, 1);
        assert_eq!(drain(&mut q), vec![(5, 1), (10_000_000_000, 0)]);
    }

    #[test]
    fn interleaved_push_pop_recycles_envelopes() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut t = 0u64;
        q.push(SimTime::from_ps(t), seq, 0, 0u32);
        for _ in 0..10_000 {
            let ev = q.pop().unwrap();
            t = ev.at.as_ps() + 10_000;
            seq += 1;
            q.push(SimTime::from_ps(t), seq, 0, ev.msg + 1);
        }
        // One event in flight the whole time: the pool never grew past
        // the two slots the initial push/repush pair touched.
        assert!(q.pool.len() <= 2, "pool grew to {}", q.pool.len());
    }

    #[test]
    fn grows_and_shrinks_buckets_with_occupancy() {
        let mut q = CalendarQueue::new();
        for i in 0..4096u64 {
            q.push(SimTime::from_ps(i * 7), i, 0, i as u32);
        }
        assert!(q.buckets() > MIN_BUCKETS);
        let got = drain(&mut q);
        assert_eq!(got.len(), 4096);
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(q.buckets(), MIN_BUCKETS);
    }

    #[test]
    fn same_instant_burst_is_fifo() {
        let mut q = CalendarQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime::from_ps(42), i, 0, i as u32);
        }
        let got = drain(&mut q);
        assert_eq!(got, (0..1000).map(|i| (42, i as u32)).collect::<Vec<_>>());
    }
}

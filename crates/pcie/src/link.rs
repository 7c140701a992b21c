//! Serializing PCIe links.
//!
//! A link has two independent directions; each direction transmits one TLP
//! at a time at the link's raw symbol rate. Occupancy is tracked as a
//! *busy-until* horizon per direction, so concurrent traffic on a shared
//! link stretches delivery times — this is how read-request traffic and
//! completion traffic on the same segment interact, and how the model's
//! congestion arises without per-byte events.
//!
//! A stream of TLPs crossing one link is reserved in closed form, at a
//! cost independent of the TLP count.

use apenet_sim::{Bandwidth, SimDuration, SimTime};

/// PCIe generation (signalling rate per lane after 8b/10b / 128b/130b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcieGen {
    /// 2.5 GT/s, 250 MB/s effective per lane.
    Gen1,
    /// 5 GT/s, 500 MB/s effective per lane.
    Gen2,
    /// 8 GT/s, ~985 MB/s effective per lane.
    Gen3,
}

impl PcieGen {
    /// Effective bytes/s per lane (after line coding).
    pub const fn per_lane(self) -> u64 {
        match self {
            PcieGen::Gen1 => 250_000_000,
            PcieGen::Gen2 => 500_000_000,
            PcieGen::Gen3 => 985_000_000,
        }
    }
}

/// Width and speed of one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    /// Generation.
    pub gen: PcieGen,
    /// Lane count (1, 4, 8, 16).
    pub lanes: u8,
}

impl LinkSpec {
    /// Gen2 x8 — the APEnet+ and Cluster II ConnectX-2 slots.
    pub const GEN2_X8: LinkSpec = LinkSpec {
        gen: PcieGen::Gen2,
        lanes: 8,
    };
    /// Gen2 x4 — the Cluster I ConnectX-2 slot ("due to motherboard
    /// constraints", §V).
    pub const GEN2_X4: LinkSpec = LinkSpec {
        gen: PcieGen::Gen2,
        lanes: 4,
    };
    /// Gen2 x16 — GPU slots.
    pub const GEN2_X16: LinkSpec = LinkSpec {
        gen: PcieGen::Gen2,
        lanes: 16,
    };

    /// Raw symbol bandwidth per direction.
    pub fn raw_rate(self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.gen.per_lane() * self.lanes as u64)
    }
}

/// Direction of travel on a link relative to the topology tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Toward the root complex.
    Up,
    /// Away from the root complex.
    Down,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::Up => Dir::Down,
            Dir::Down => Dir::Up,
        }
    }

    const fn idx(self) -> usize {
        match self {
            Dir::Up => 0,
            Dir::Down => 1,
        }
    }
}

/// One physical link with per-direction occupancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    spec: LinkSpec,
    /// Propagation + PHY latency per traversal.
    latency: SimDuration,
    busy_until: [SimTime; 2],
    wire_bytes: [u64; 2],
}

/// The result of reserving a TLP transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// When the TLP starts serializing onto the wire.
    pub start: SimTime,
    /// When the last byte has left the transmitter (= link free again).
    pub depart_end: SimTime,
    /// When the TLP has fully arrived at the other end.
    pub arrive: SimTime,
}

impl Link {
    /// Create a link of the given spec with a fixed traversal latency.
    pub fn new(spec: LinkSpec, latency: SimDuration) -> Self {
        Link {
            spec,
            latency,
            busy_until: [SimTime::ZERO; 2],
            wire_bytes: [0; 2],
        }
    }

    /// The link's spec.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// Reserve transmission of `wire_bytes` in direction `dir`, starting no
    /// earlier than `ready`. Transmissions in one direction are strictly
    /// serialized; directions are independent.
    pub fn reserve(&mut self, ready: SimTime, dir: Dir, wire_bytes: u64) -> Reservation {
        let i = dir.idx();
        let start = ready.max(self.busy_until[i]);
        let depart_end = start + self.spec.raw_rate().time_for(wire_bytes);
        self.busy_until[i] = depart_end;
        self.wire_bytes[i] += wire_bytes;
        Reservation {
            start,
            depart_end,
            arrive: depart_end + self.latency,
        }
    }

    /// Reserve a whole [`Run`] in direction `dir`: its full TLPs of
    /// `wire` bytes each, back to back, then its tail TLP of `tail_wire`
    /// bytes. Equal to calling [`Link::reserve`] once per TLP in order,
    /// at O(pieces) cost. Rewrites `run` in place from ready times to
    /// the instants each TLP's last byte leaves the transmitter.
    ///
    /// With `E_0` the busy horizon and `s` the per-TLP serialization
    /// time, full TLP `k` leaves at `E_k = max(R_k, E_{k-1}) + s`, which
    /// unrolls to `max(E_0 + s·k, max_m R_m + s·(k-m+1))`. For a ready
    /// piece `a + b·k` the inner max sits at `m = k` when `b > s` and at
    /// `m = 1` otherwise, so the piece maps to `(a + s) + b·k` or to
    /// `(a + b) + s·k`.
    pub(crate) fn reserve_run(&mut self, dir: Dir, run: &mut Run, wire: u64, tail_wire: u64) {
        let i = dir.idx();
        let mut end = self.busy_until[i];
        if run.n > 0 {
            let s = self.spec.raw_rate().time_for(wire).as_ps();
            let mut base = end.as_ps();
            run.full.retain_mut(|p| {
                if p.slope > s {
                    p.base += s;
                    true
                } else {
                    base = base.max(p.base + p.slope);
                    false
                }
            });
            run.full.push(Piece { base, slope: s });
            end = run.at(run.n);
            self.wire_bytes[i] += run.n * wire;
        }
        if let Some(ready) = &mut run.tail {
            *ready = (*ready).max(end) + self.spec.raw_rate().time_for(tail_wire);
            end = *ready;
            self.wire_bytes[i] += tail_wire;
        }
        self.busy_until[i] = end;
    }

    /// Propagation + PHY latency per traversal.
    pub(crate) fn latency(&self) -> SimDuration {
        self.latency
    }

    /// When the given direction next becomes free.
    pub fn busy_until(&self, dir: Dir) -> SimTime {
        self.busy_until[dir.idx()]
    }

    /// Total wire bytes carried in `dir` so far (utilization accounting).
    pub fn carried(&self, dir: Dir) -> u64 {
        self.wire_bytes[dir.idx()]
    }

    /// Reset occupancy (between benchmark repetitions).
    pub fn reset(&mut self) {
        self.busy_until = [SimTime::ZERO; 2];
        self.wire_bytes = [0; 2];
    }
}

/// One affine piece of a [`Run`]'s full-TLP times: `base + slope·k`
/// picoseconds for TLP `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Piece {
    base: u64,
    slope: u64,
}

/// The per-TLP instants of a run of TLPs that cross a path together:
/// `n` full TLPs, then at most one shorter tail TLP.
///
/// Full TLP `k` (1-based) is at the max over the pieces of
/// `base + slope·k`. Each link crossing ([`Link::reserve_run`]) merges
/// the pieces whose slope does not exceed its serialization time into
/// one, so a run never holds more pieces than the links it has crossed,
/// plus one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Run {
    n: u64,
    full: Vec<Piece>,
    tail: Option<SimTime>,
}

impl Run {
    /// Restart as `n` full TLPs and, if `tail`, one tail TLP, all ready
    /// at `now`. Keeps the piece buffer's allocation.
    pub(crate) fn begin(&mut self, now: SimTime, n: u64, tail: bool) {
        self.n = n;
        self.full.clear();
        if n > 0 {
            self.full.push(Piece {
                base: now.as_ps(),
                slope: 0,
            });
        }
        self.tail = tail.then_some(now);
    }

    /// The instant of full TLP `k` (1-based, at most `n`).
    pub(crate) fn at(&self, k: u64) -> SimTime {
        let ps = self.full.iter().map(|p| p.base + p.slope * k).max();
        SimTime::from_ps(ps.expect("a run with full TLPs has pieces"))
    }

    /// The instant of the tail TLP, if the run has one.
    pub(crate) fn tail(&self) -> Option<SimTime> {
        self.tail
    }

    /// The instant of the run's last TLP (`None` for an empty run).
    pub(crate) fn last(&self) -> Option<SimTime> {
        self.tail.or_else(|| (self.n > 0).then(|| self.at(self.n)))
    }

    /// Shift every TLP's instant by `d`.
    pub(crate) fn delay(&mut self, d: SimDuration) {
        for p in &mut self.full {
            p.base += d.as_ps();
        }
        if let Some(t) = &mut self.tail {
            *t += d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen2_x8_is_4gbs() {
        assert_eq!(LinkSpec::GEN2_X8.raw_rate().bytes_per_sec(), 4_000_000_000);
        assert_eq!(LinkSpec::GEN2_X4.raw_rate().bytes_per_sec(), 2_000_000_000);
    }

    #[test]
    fn serialization_is_exclusive_per_direction() {
        let mut l = Link::new(LinkSpec::GEN2_X8, SimDuration::from_ns(100));
        // 280 wire bytes at 4 GB/s = 70 ns
        let a = l.reserve(SimTime::ZERO, Dir::Up, 280);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.depart_end, SimTime::ZERO + SimDuration::from_ns(70));
        assert_eq!(a.arrive, SimTime::ZERO + SimDuration::from_ns(170));
        // Second TLP queues behind the first.
        let b = l.reserve(SimTime::ZERO, Dir::Up, 280);
        assert_eq!(b.start, a.depart_end);
        // Opposite direction is independent.
        let c = l.reserve(SimTime::ZERO, Dir::Down, 280);
        assert_eq!(c.start, SimTime::ZERO);
    }

    #[test]
    fn ready_after_busy_starts_at_ready() {
        let mut l = Link::new(LinkSpec::GEN2_X8, SimDuration::ZERO);
        let _ = l.reserve(SimTime::ZERO, Dir::Up, 4000); // busy until 1 us
        let late = SimTime::ZERO + SimDuration::from_us(5);
        let r = l.reserve(late, Dir::Up, 4000);
        assert_eq!(r.start, late);
    }

    #[test]
    fn carried_accumulates_and_reset_clears() {
        let mut l = Link::new(LinkSpec::GEN2_X4, SimDuration::ZERO);
        l.reserve(SimTime::ZERO, Dir::Up, 100);
        l.reserve(SimTime::ZERO, Dir::Up, 50);
        l.reserve(SimTime::ZERO, Dir::Down, 7);
        assert_eq!(l.carried(Dir::Up), 150);
        assert_eq!(l.carried(Dir::Down), 7);
        l.reset();
        assert_eq!(l.carried(Dir::Up), 0);
        assert_eq!(l.busy_until(Dir::Up), SimTime::ZERO);
    }

    #[test]
    fn run_matches_per_tlp_reservations() {
        // A slow x4 link feeds a fast x16 one: the first crossing merges
        // the ready piece into the busy one, the second keeps the slow
        // link's slope. Prior occupancy makes the tail wait or not.
        for (n, tail, busy_ns) in [(0, true, 0), (5, false, 300), (7, true, 0), (9, true, 2000)] {
            let mut closed = Link::new(LinkSpec::GEN2_X4, SimDuration::from_ns(40));
            let _ = closed.reserve(SimTime::ZERO, Dir::Down, busy_ns * 2);
            let mut reference = closed.clone();
            let mut run = Run::default();
            run.begin(SimTime::from_ps(500), n, tail);
            closed.reserve_run(Dir::Down, &mut run, 280, 100);
            run.delay(SimDuration::from_ns(40));
            let mut fast = Link::new(LinkSpec::GEN2_X16, SimDuration::ZERO);
            fast.reserve_run(Dir::Down, &mut run, 280, 100);
            let mut expect = Vec::new();
            let mut fast_ref = Link::new(LinkSpec::GEN2_X16, SimDuration::ZERO);
            let wires = std::iter::repeat_n(280, n as usize).chain(tail.then_some(100));
            for wire in wires {
                let a = reference.reserve(SimTime::from_ps(500), Dir::Down, wire);
                let b = fast_ref.reserve(a.arrive, Dir::Down, wire);
                expect.push(b.depart_end);
            }
            let got: Vec<SimTime> = (1..=n).map(|k| run.at(k)).chain(run.tail()).collect();
            assert_eq!(got, expect);
            assert_eq!(run.last(), expect.last().copied());
            assert_eq!((closed, fast), (reference, fast_ref));
        }
    }

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::Up.flip(), Dir::Down);
        assert_eq!(Dir::Down.flip(), Dir::Up);
    }
}

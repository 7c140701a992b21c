//! PCIe topology: a tree of root complexes, switches and endpoints.
//!
//! The paper stresses that GPU peer-to-peer "performance is excellent when
//! two GPUs share the same PCIe root-complex … otherwise performance may
//! suffer or malfunctionings can arise" (§III.A). The fabric classifies
//! every endpoint pair ([`PathClass`]) and charges a latency penalty for
//! paths that cross the inter-socket QPI on multi-socket platforms.

use crate::link::{Dir, Link, LinkSpec, Run};
use crate::tlp::TlpKind;
use apenet_sim::trace::{SharedSink, SpanId, TracePayload};
use apenet_sim::{SimDuration, SimTime};
use std::ops::Range;

/// Forwarding latency of a root complex between two of its ports:
/// comparable to a switch hop.
pub const ROOT_FORWARD_LATENCY: SimDuration = SimDuration::from_ns(250);

/// Identifies any node (root complex, switch, endpoint) in a fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeviceId(pub(crate) usize);

#[derive(Debug, Clone)]
enum NodeKind {
    Root { socket: u8 },
    Switch { forward_latency: SimDuration },
    Endpoint { name: &'static str },
}

#[derive(Debug, Clone)]
struct Node {
    kind: NodeKind,
    /// Parent node and the link connecting to it (None for roots).
    up: Option<(usize, usize)>,
    depth: u32,
}

/// How two endpoints relate topologically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// Same PLX switch or hub: the ideal platform of Table I.
    SameSwitch,
    /// Same root complex, different branches.
    SameRoot,
    /// Different sockets: traffic crosses QPI (penalized).
    CrossSocket,
}

/// One precomputed hop of a TLP path: the link to reserve (`None` at
/// the QPI root-to-root seam) and the forwarding latency charged after
/// crossing it (zero into the final endpoint).
struct Hop {
    link: Option<(usize, Dir)>,
    forward: SimDuration,
}

/// The outcome of sending one TLP end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlpArrival {
    /// When the TLP started serializing on its first link.
    pub start: SimTime,
    /// When it fully arrived at the destination.
    pub arrive: SimTime,
}

/// A tree-shaped PCIe fabric with per-direction link occupancy.
///
/// ```
/// use apenet_pcie::fabric::plx_platform;
/// use apenet_pcie::TlpKind;
/// use apenet_sim::SimTime;
///
/// // The Table I "ideal platform": GPU and NIC behind one PLX switch.
/// let (mut fabric, gpu, nic, _hostmem) = plx_platform();
/// let tlp = fabric.send_tlp(SimTime::ZERO, gpu, nic, TlpKind::MemWrite, 256);
/// assert!(tlp.arrive > SimTime::ZERO);
/// // 280 wire bytes crossed the NIC's x8 uplink.
/// use apenet_pcie::link::Dir;
/// assert_eq!(fabric.uplink_carried(nic, Dir::Down), 280);
/// ```
pub struct Fabric {
    nodes: Vec<Node>,
    links: Vec<Link>,
    analyzers: Vec<Option<SharedSink>>,
    /// Hop plans per `(from, to)` node pair, built on first use: slot
    /// `from * nodes + to` holds a range of `plan_hops` (empty = not yet
    /// built). Adding a node clears both.
    plan_of: Vec<(u32, u32)>,
    plan_hops: Vec<Hop>,
    /// Reused piece buffer of the stream being reserved.
    run: Run,
    /// Message span stamped onto analyzer records (see
    /// [`Fabric::set_span`]).
    span: Option<SpanId>,
    /// Latency added once per QPI crossing.
    pub qpi_penalty: SimDuration,
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

impl Fabric {
    /// Create an empty fabric. The default QPI crossing penalty is 400 ns.
    pub fn new() -> Self {
        Fabric {
            nodes: Vec::new(),
            links: Vec::new(),
            analyzers: Vec::new(),
            plan_of: Vec::new(),
            plan_hops: Vec::new(),
            run: Run::default(),
            span: None,
            qpi_penalty: SimDuration::from_ns(400),
        }
    }

    /// Set the message span attributed to subsequent TLPs on any attached
    /// analyzer (None clears it). Pure observation metadata: it never
    /// affects timing, so callers may set it unconditionally.
    pub fn set_span(&mut self, span: Option<SpanId>) {
        self.span = span;
    }

    /// Add a root complex on CPU socket `socket`.
    pub fn add_root(&mut self, socket: u8) -> DeviceId {
        self.clear_plans();
        self.nodes.push(Node {
            kind: NodeKind::Root { socket },
            up: None,
            depth: 0,
        });
        DeviceId(self.nodes.len() - 1)
    }

    fn attach(
        &mut self,
        parent: DeviceId,
        kind: NodeKind,
        spec: LinkSpec,
        lat: SimDuration,
    ) -> DeviceId {
        self.clear_plans();
        let link_id = self.links.len();
        self.links.push(Link::new(spec, lat));
        self.analyzers.push(None);
        let depth = self.nodes[parent.0].depth + 1;
        self.nodes.push(Node {
            kind,
            up: Some((parent.0, link_id)),
            depth,
        });
        DeviceId(self.nodes.len() - 1)
    }

    /// Add a switch under `parent` with the given uplink.
    pub fn add_switch(
        &mut self,
        parent: DeviceId,
        spec: LinkSpec,
        link_latency: SimDuration,
        forward_latency: SimDuration,
    ) -> DeviceId {
        self.attach(
            parent,
            NodeKind::Switch { forward_latency },
            spec,
            link_latency,
        )
    }

    /// Add a leaf endpoint (GPU, NIC, host-memory target) under `parent`.
    pub fn add_endpoint(
        &mut self,
        parent: DeviceId,
        name: &'static str,
        spec: LinkSpec,
        link_latency: SimDuration,
    ) -> DeviceId {
        self.attach(parent, NodeKind::Endpoint { name }, spec, link_latency)
    }

    /// Attach a bus-analyzer interposer to the uplink of `dev` — the
    /// physical setup of paper Fig. 3 ("active interposer sitting between
    /// the APEnet+ card and the motherboard slot").
    pub fn attach_analyzer(&mut self, dev: DeviceId, sink: SharedSink) {
        let (_, link) = self.nodes[dev.0].up.expect("roots have no uplink");
        self.analyzers[link] = Some(sink);
    }

    /// The display name of an endpoint.
    pub fn name(&self, dev: DeviceId) -> &'static str {
        match self.nodes[dev.0].kind {
            NodeKind::Endpoint { name } => name,
            NodeKind::Switch { .. } => "switch",
            NodeKind::Root { .. } => "root",
        }
    }

    fn socket_of(&self, mut n: usize) -> u8 {
        loop {
            match self.nodes[n].kind {
                NodeKind::Root { socket } => return socket,
                _ => n = self.nodes[n].up.expect("non-root has parent").0,
            }
        }
    }

    /// Lowest common ancestor of two nodes.
    fn lca(&self, a: usize, b: usize) -> Option<usize> {
        let (mut x, mut y) = (a, b);
        while self.nodes[x].depth > self.nodes[y].depth {
            x = self.nodes[x].up?.0;
        }
        while self.nodes[y].depth > self.nodes[x].depth {
            y = self.nodes[y].up?.0;
        }
        while x != y {
            x = self.nodes[x].up?.0;
            y = self.nodes[y].up?.0;
        }
        Some(x)
    }

    /// Classify the path between two endpoints.
    pub fn path_class(&self, a: DeviceId, b: DeviceId) -> PathClass {
        if self.socket_of(a.0) != self.socket_of(b.0) {
            return PathClass::CrossSocket;
        }
        let lca = self.lca(a.0, b.0).expect("same socket implies common root");
        match self.nodes[lca].kind {
            NodeKind::Switch { .. } => PathClass::SameSwitch,
            _ => PathClass::SameRoot,
        }
    }

    /// The ordered node path from `a` to `b` (inclusive of both).
    fn node_path(&self, a: usize, b: usize) -> Vec<usize> {
        let cross = self.socket_of(a) != self.socket_of(b);
        let lca = if cross { None } else { self.lca(a, b) };
        let mut up = Vec::new();
        let mut x = a;
        up.push(x);
        while Some(x) != lca && self.nodes[x].up.is_some() {
            x = self.nodes[x].up.unwrap().0;
            up.push(x);
        }
        let mut down = Vec::new();
        let stop = if cross { None } else { lca };
        let mut y = b;
        while Some(y) != stop && self.nodes[y].up.is_some() {
            down.push(y);
            y = self.nodes[y].up.unwrap().0;
        }
        if cross {
            down.push(y); // b's root complex
        }
        down.reverse();
        up.extend(down);
        up
    }

    /// The link (by id) and direction connecting adjacent nodes `x` → `y`,
    /// or `None` for the virtual root-to-root (QPI) seam.
    fn connecting_link(&self, x: usize, y: usize) -> Option<(usize, Dir)> {
        if let Some((parent, link)) = self.nodes[x].up {
            if parent == y {
                return Some((link, Dir::Up));
            }
        }
        if let Some((parent, link)) = self.nodes[y].up {
            if parent == x {
                return Some((link, Dir::Down));
            }
        }
        None
    }

    fn forward_latency_of(&self, node: usize) -> SimDuration {
        match self.nodes[node].kind {
            NodeKind::Switch { forward_latency } => forward_latency,
            NodeKind::Root { .. } => ROOT_FORWARD_LATENCY,
            NodeKind::Endpoint { .. } => SimDuration::ZERO,
        }
    }

    /// Compute the hop plan from `from` to `to`: per hop, the link to
    /// reserve (`None` for the QPI root-to-root seam) and the forwarding
    /// latency charged after crossing it.
    fn hop_plan(&self, from: DeviceId, to: DeviceId) -> Vec<Hop> {
        let path = self.node_path(from.0, to.0);
        assert!(path.len() >= 2, "from == to or disconnected");
        (0..path.len() - 1)
            .map(|w| {
                let (x, y) = (path[w], path[w + 1]);
                Hop {
                    link: self.connecting_link(x, y),
                    // The node we just arrived at forwards (unless it is
                    // the final destination endpoint).
                    forward: if w + 1 < path.len() - 1 {
                        self.forward_latency_of(y)
                    } else {
                        SimDuration::ZERO
                    },
                }
            })
            .collect()
    }

    fn clear_plans(&mut self) {
        self.plan_of.clear();
        self.plan_hops.clear();
    }

    /// The hop plan from `from` to `to` as a range of `plan_hops`, built
    /// on the pair's first use.
    fn plan(&mut self, from: DeviceId, to: DeviceId) -> Range<usize> {
        let n = self.nodes.len();
        if self.plan_of.len() != n * n {
            self.plan_of = vec![(0, 0); n * n];
        }
        let slot = from.0 * n + to.0;
        let (mut start, mut len) = self.plan_of[slot];
        if len == 0 {
            let hops = self.hop_plan(from, to);
            start = self.plan_hops.len() as u32;
            len = hops.len() as u32;
            self.plan_hops.extend(hops);
            self.plan_of[slot] = (start, len);
        }
        start as usize..(start + len) as usize
    }

    /// Send `n` full TLPs of `kind` with `chunk` payload bytes, then one
    /// tail TLP with `tail` payload bytes if given, all ready at `now`,
    /// over the hop plan `plan`. Every TLP is reserved store-and-forward on
    /// every traversed link, exactly as if sent one at a time in order,
    /// at O(hops) cost: within one call nothing else touches the fabric
    /// and a tree path crosses each link once, so the TLPs traverse a
    /// tandem of FIFO links with constant service times
    /// ([`Link::reserve_run`]).
    fn send_run(
        &mut self,
        now: SimTime,
        plan: Range<usize>,
        kind: TlpKind,
        n: u64,
        chunk: u32,
        tail: Option<u32>,
    ) -> TlpArrival {
        if n == 0 && tail.is_none() {
            return TlpArrival {
                start: now,
                arrive: now,
            };
        }
        #[cfg(debug_assertions)]
        let (replay_links, replay) = {
            let mut links = self.links.clone();
            let payloads = std::iter::repeat_n(chunk, n as usize).chain(tail);
            let hops = &self.plan_hops[plan.clone()];
            let arrival = reserve_per_tlp(&mut links, hops, self.qpi_penalty, now, kind, payloads);
            (links, arrival)
        };
        let wire = if n > 0 { kind.wire_bytes(chunk) } else { 0 };
        let tail_wire = tail.map_or(0, |t| kind.wire_bytes(t));
        let run = &mut self.run;
        run.begin(now, n, tail.is_some());
        let mut start = None;
        // Per analyzed hop: its sink, direction, latency and the run's
        // departure ends from it.
        let mut analyzed = Vec::new();
        for hop in &self.plan_hops[plan] {
            let delay = match hop.link {
                Some((id, dir)) => {
                    let link = &mut self.links[id];
                    start.get_or_insert(now.max(link.busy_until(dir)));
                    link.reserve_run(dir, run, wire, tail_wire);
                    if let Some(sink) = self.analyzers[id].as_ref().filter(|s| s.enabled()) {
                        analyzed.push((sink, dir == Dir::Up, link.latency(), run.clone()));
                    }
                    link.latency()
                }
                None => {
                    // Root-to-root seam: the QPI crossing.
                    start.get_or_insert(now + self.qpi_penalty);
                    self.qpi_penalty
                }
            };
            run.delay(delay + hop.forward);
        }
        // The interposers see each TLP arrive: TLP by TLP and, within one
        // TLP, in path order.
        if !analyzed.is_empty() {
            let tlps = (1..=n)
                .map(|k| (Some(k), chunk, wire))
                .chain(tail.map(|t| (None, t, tail_wire)));
            for (k, payload, wire) in tlps {
                for (sink, up, latency, ends) in &analyzed {
                    let end = match k {
                        Some(k) => ends.at(k),
                        None => ends.tail().expect("the run has a tail"),
                    };
                    sink.record(
                        end + *latency,
                        "interposer",
                        kind.mnemonic(),
                        self.span,
                        TracePayload::Tlp {
                            len: payload as u64,
                            wire,
                            up: *up,
                        },
                    );
                }
            }
        }
        let arrival = TlpArrival {
            start: start.expect("a hop plan has at least one hop"),
            arrive: run.last().expect("the run holds a TLP"),
        };
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                arrival, replay,
                "closed form diverged from the per-TLP replay"
            );
            debug_assert!(
                self.links == replay_links,
                "link occupancy diverged from the per-TLP replay"
            );
        }
        arrival
    }

    /// Send one TLP of `kind` with `payload` data bytes from endpoint `from`
    /// to endpoint `to`, reserving every traversed link store-and-forward.
    pub fn send_tlp(
        &mut self,
        now: SimTime,
        from: DeviceId,
        to: DeviceId,
        kind: TlpKind,
        payload: u32,
    ) -> TlpArrival {
        let plan = self.plan(from, to);
        self.send_run(now, plan, kind, 0, 0, Some(payload))
    }

    /// Send `len` bytes of data as a stream of `kind` TLPs with payloads of
    /// at most `chunk` bytes, all ready at `now`. Returns when the first
    /// TLP started and the final TLP arrived. Costs O(hops) whatever the
    /// TLP count (DESIGN.md §2.2, "Stream reservation").
    pub fn send_stream(
        &mut self,
        now: SimTime,
        from: DeviceId,
        to: DeviceId,
        kind: TlpKind,
        len: u64,
        chunk: u32,
    ) -> TlpArrival {
        let plan = self.plan(from, to);
        assert!(chunk > 0, "TLP payload chunk must be positive");
        let rem = (len % chunk as u64) as u32;
        let tail = (rem > 0).then_some(rem);
        self.send_run(now, plan, kind, len / chunk as u64, chunk, tail)
    }

    /// Reset all link occupancy (between benchmark repetitions).
    pub fn reset(&mut self) {
        for l in &mut self.links {
            l.reset();
        }
    }

    /// When the uplink of `dev` next becomes free in `dir`.
    pub fn uplink_busy_until(&self, dev: DeviceId, dir: Dir) -> SimTime {
        let (_, link) = self.nodes[dev.0].up.expect("roots have no uplink");
        self.links[link].busy_until(dir)
    }

    /// Total wire bytes carried by the uplink of `dev` in `dir`.
    pub fn uplink_carried(&self, dev: DeviceId, dir: Dir) -> u64 {
        let (_, link) = self.nodes[dev.0].up.expect("roots have no uplink");
        self.links[link].carried(dir)
    }
}

/// The per-TLP reservation loop that [`Fabric::send_run`] must equal:
/// each TLP crosses every hop, store-and-forward, before the next one
/// starts. Debug builds replay it on a copy of the links.
#[cfg(debug_assertions)]
fn reserve_per_tlp(
    links: &mut [Link],
    hops: &[Hop],
    qpi_penalty: SimDuration,
    now: SimTime,
    kind: TlpKind,
    payloads: impl Iterator<Item = u32>,
) -> TlpArrival {
    let mut first = None;
    let mut last = now;
    for payload in payloads {
        let wire = kind.wire_bytes(payload);
        let mut ready = now;
        for hop in hops {
            match hop.link {
                Some((id, dir)) => {
                    let res = links[id].reserve(ready, dir, wire);
                    first.get_or_insert(res.start);
                    ready = res.arrive;
                }
                None => {
                    ready += qpi_penalty;
                    first.get_or_insert(ready);
                }
            }
            ready += hop.forward;
        }
        last = ready;
    }
    TlpArrival {
        start: first.unwrap_or(now),
        arrive: last,
    }
}

/// Build the "ideal platform" of Table I: a SuperMicro 4U server where the
/// GPU and the APEnet+ (or a second GPU) hang off one PLX PCIe switch.
pub fn plx_platform() -> (Fabric, DeviceId, DeviceId, DeviceId) {
    let mut f = Fabric::new();
    let root = f.add_root(0);
    let plx = f.add_switch(
        root,
        LinkSpec::GEN2_X16,
        SimDuration::from_ns(100),
        SimDuration::from_ns(150),
    );
    let gpu = f.add_endpoint(plx, "gpu0", LinkSpec::GEN2_X16, SimDuration::from_ns(100));
    let nic = f.add_endpoint(plx, "apenet", LinkSpec::GEN2_X8, SimDuration::from_ns(100));
    let hostmem = f.add_endpoint(
        root,
        "hostmem",
        LinkSpec::GEN2_X16,
        SimDuration::from_ns(100),
    );
    (f, gpu, nic, hostmem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let mut f = Fabric::new();
        let r0 = f.add_root(0);
        let r1 = f.add_root(1);
        let sw = f.add_switch(r0, LinkSpec::GEN2_X16, SimDuration::ZERO, SimDuration::ZERO);
        let a = f.add_endpoint(sw, "a", LinkSpec::GEN2_X8, SimDuration::ZERO);
        let b = f.add_endpoint(sw, "b", LinkSpec::GEN2_X8, SimDuration::ZERO);
        let c = f.add_endpoint(r0, "c", LinkSpec::GEN2_X8, SimDuration::ZERO);
        let d = f.add_endpoint(r1, "d", LinkSpec::GEN2_X8, SimDuration::ZERO);
        assert_eq!(f.path_class(a, b), PathClass::SameSwitch);
        assert_eq!(f.path_class(a, c), PathClass::SameRoot);
        assert_eq!(f.path_class(a, d), PathClass::CrossSocket);
    }

    #[test]
    fn tlp_timing_same_switch() {
        let (mut f, gpu, nic, _) = plx_platform();
        // 280 wire bytes over x16 (8 GB/s: 35 ns), then over x8 (4 GB/s:
        // 70 ns), plus 100 ns latency per link and 150 ns switch forward.
        let a = f.send_tlp(SimTime::ZERO, gpu, nic, TlpKind::MemWrite, 256);
        let expect = SimDuration::from_ns(35 + 100 + 150 + 70 + 100);
        assert_eq!(a.arrive, SimTime::ZERO + expect);
    }

    #[test]
    fn stream_serializes_on_bottleneck() {
        let (mut f, gpu, nic, _) = plx_platform();
        // 64 KiB of 256 B writes: bottleneck is the x8 downlink at 4 GB/s.
        let a = f.send_stream(SimTime::ZERO, gpu, nic, TlpKind::MemWrite, 64 * 1024, 256);
        let wire: u64 = 256 * 280;
        let serial = LinkSpec::GEN2_X8.raw_rate().time_for(wire);
        // Total time ≥ serialization on the slowest link.
        assert!(a.arrive.since(SimTime::ZERO) >= serial);
        // And not absurdly larger (pipelining overlaps the fast links).
        assert!(a.arrive.since(SimTime::ZERO) < serial + SimDuration::from_us(1));
    }

    #[test]
    fn cross_socket_penalized() {
        let mut f = Fabric::new();
        let r0 = f.add_root(0);
        let r1 = f.add_root(1);
        let a = f.add_endpoint(r0, "a", LinkSpec::GEN2_X8, SimDuration::from_ns(100));
        let b = f.add_endpoint(r1, "b", LinkSpec::GEN2_X8, SimDuration::from_ns(100));
        let c = f.add_endpoint(r0, "c", LinkSpec::GEN2_X8, SimDuration::from_ns(100));
        let same = f.send_tlp(SimTime::ZERO, a, c, TlpKind::MemWrite, 64);
        f.reset();
        let cross = f.send_tlp(SimTime::ZERO, a, b, TlpKind::MemWrite, 64);
        // The cross-socket path pays the QPI penalty plus one extra
        // root-complex forwarding hop.
        assert_eq!(
            cross.arrive.since(SimTime::ZERO),
            same.arrive.since(SimTime::ZERO) + f.qpi_penalty + SimDuration::from_ns(250)
        );
    }

    #[test]
    fn analyzer_captures_uplink_traffic() {
        let (mut f, gpu, nic, _) = plx_platform();
        let sink = SharedSink::capturing();
        f.attach_analyzer(nic, sink.clone());
        f.send_tlp(SimTime::ZERO, gpu, nic, TlpKind::MemWrite, 128);
        f.send_tlp(SimTime::ZERO, nic, gpu, TlpKind::MemRead, 0);
        let recs = sink.snapshot().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, "MWr");
        assert_eq!(recs[1].kind, "MRd");
    }

    #[test]
    fn carried_accounting() {
        let (mut f, gpu, nic, _) = plx_platform();
        f.send_tlp(SimTime::ZERO, gpu, nic, TlpKind::MemWrite, 256);
        assert_eq!(f.uplink_carried(nic, Dir::Down), 280);
        assert_eq!(f.uplink_carried(nic, Dir::Up), 0);
        assert_eq!(f.uplink_carried(gpu, Dir::Up), 280);
    }
}

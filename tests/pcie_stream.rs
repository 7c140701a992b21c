//! A PCIe TLP stream reserved in closed form equals the per-TLP loop.
//!
//! `Fabric::send_stream` and `Fabric::send_tlp` reserve a whole stream
//! at O(hops) cost. This property replays every call one TLP at a time
//! on an independent model of the same seeded random tree (its own
//! links, paths, forwarding latencies and QPI seam), then compares the
//! arrival, every link's busy horizon and carried bytes in both
//! directions, and the bus-analyzer records: order, time, kind, span and
//! payload. Replay a failing case with
//! `APENET_PROP_SEED=<seed> APENET_PROP_CASES=1`.

use apenet::pcie::fabric::{Fabric, TlpArrival, ROOT_FORWARD_LATENCY};
use apenet::pcie::{DeviceId, Dir, LinkSpec, PcieGen, TlpKind};
use apenet::sim::check::{self, Gen};
use apenet::sim::trace::{SharedSink, SpanId, TracePayload, TraceRecord};
use apenet::sim::{SimDuration, SimTime};

/// One model node: its fabric device, parent, socket, forwarding
/// latency, and uplink (spec, latency, busy horizon and carried bytes
/// per direction, analyzer). Roots have no parent and no uplink.
struct Node {
    dev: DeviceId,
    parent: Option<usize>,
    socket: u8,
    forward: SimDuration,
    spec: Option<LinkSpec>,
    latency: SimDuration,
    busy: [SimTime; 2],
    carried: [u64; 2],
    analyzer: Option<SharedSink>,
}

/// A random fabric and the model that mirrors it.
struct Model {
    fabric: Fabric,
    nodes: Vec<Node>,
    endpoints: Vec<usize>,
    /// The capture every analyzer records into, in emission order.
    capture: SharedSink,
}

/// One hop of a model path: the node whose uplink is crossed and the
/// direction (`None` at the QPI seam), then the forwarding latency.
type Hop = (Option<(usize, Dir)>, SimDuration);

fn idx(dir: Dir) -> usize {
    match dir {
        Dir::Up => 0,
        Dir::Down => 1,
    }
}

fn random_link(g: &mut Gen) -> (LinkSpec, SimDuration) {
    let spec = LinkSpec {
        gen: *g.pick(&[PcieGen::Gen1, PcieGen::Gen2, PcieGen::Gen3]),
        lanes: *g.pick(&[4, 8, 16]),
    };
    (spec, SimDuration::from_ps(g.u64(0, 300_000)))
}

impl Model {
    /// One or two sockets (one root each), up to four switches that may
    /// nest under each other, and two to six endpoints anywhere.
    fn random(g: &mut Gen) -> Model {
        let mut m = Model {
            fabric: Fabric::new(),
            nodes: Vec::new(),
            endpoints: Vec::new(),
            capture: SharedSink::capturing(),
        };
        m.fabric.qpi_penalty = SimDuration::from_ps(g.u64(0, 1_000_000));
        for socket in 0..g.u64(1, 3) as u8 {
            let dev = m.fabric.add_root(socket);
            m.push(dev, None, socket, ROOT_FORWARD_LATENCY, None);
        }
        for _ in 0..g.usize(0, 5) {
            let parent = g.usize(0, m.nodes.len());
            let (spec, lat) = random_link(g);
            let forward = SimDuration::from_ps(g.u64(0, 300_000));
            let dev = m.fabric.add_switch(m.nodes[parent].dev, spec, lat, forward);
            m.push(dev, Some(parent), 0, forward, Some((spec, lat)));
        }
        let branches = m.nodes.len();
        for _ in 0..g.usize(2, 7) {
            let parent = g.usize(0, branches);
            let (spec, lat) = random_link(g);
            let dev = m.fabric.add_endpoint(m.nodes[parent].dev, "ep", spec, lat);
            m.push(dev, Some(parent), 0, SimDuration::ZERO, Some((spec, lat)));
            m.endpoints.push(m.nodes.len() - 1);
        }
        // No analyzer, one, or two sharing one capture.
        let linked: Vec<usize> = (0..m.nodes.len())
            .filter(|&n| m.nodes[n].parent.is_some())
            .collect();
        for _ in 0..g.usize(0, 3) {
            let n = *g.pick(&linked);
            m.fabric.attach_analyzer(m.nodes[n].dev, m.capture.clone());
            m.nodes[n].analyzer = Some(m.capture.clone());
        }
        m
    }

    fn push(
        &mut self,
        dev: DeviceId,
        parent: Option<usize>,
        socket: u8,
        forward: SimDuration,
        uplink: Option<(LinkSpec, SimDuration)>,
    ) {
        let socket = parent.map_or(socket, |p| self.nodes[p].socket);
        self.nodes.push(Node {
            dev,
            parent,
            socket,
            forward,
            spec: uplink.map(|(s, _)| s),
            latency: uplink.map_or(SimDuration::ZERO, |(_, l)| l),
            busy: [SimTime::ZERO; 2],
            carried: [0; 2],
            analyzer: None,
        });
    }

    /// `n` and its ancestors, up to its root.
    fn ancestors(&self, mut n: usize) -> Vec<usize> {
        let mut up = vec![n];
        while let Some(p) = self.nodes[n].parent {
            up.push(p);
            n = p;
        }
        up
    }

    /// The hops from `a` to `b`: up to the lowest common ancestor and
    /// down, or across the QPI seam between the two sockets' roots.
    fn path(&self, a: usize, b: usize) -> Vec<Hop> {
        let (up, down) = (self.ancestors(a), self.ancestors(b));
        let same_socket = self.nodes[a].socket == self.nodes[b].socket;
        let (top, bottom) = if same_socket {
            let top = up.iter().position(|n| down.contains(n)).unwrap();
            (top, down.iter().position(|&n| n == up[top]).unwrap())
        } else {
            (up.len() - 1, down.len() - 1)
        };
        // (crossed link, node arrived at) in path order.
        let mut steps: Vec<(Option<(usize, Dir)>, usize)> = (0..top)
            .map(|i| (Some((up[i], Dir::Up)), up[i + 1]))
            .collect();
        if !same_socket {
            steps.push((None, down[bottom]));
        }
        steps.extend(
            (0..bottom)
                .rev()
                .map(|i| (Some((down[i], Dir::Down)), down[i])),
        );
        let last = steps.len() - 1;
        steps
            .into_iter()
            .enumerate()
            .map(|(i, (link, at))| {
                let forward = if i < last {
                    self.nodes[at].forward
                } else {
                    SimDuration::ZERO
                };
                (link, forward)
            })
            .collect()
    }

    /// The per-TLP reference: each TLP crosses every hop store-and-forward
    /// before the next one starts. Returns the arrival and the analyzer
    /// records it would produce.
    fn send_per_tlp(
        &mut self,
        now: SimTime,
        a: usize,
        b: usize,
        kind: TlpKind,
        payloads: &[u32],
        span: Option<SpanId>,
    ) -> (TlpArrival, Vec<TraceRecord>) {
        let hops = self.path(a, b);
        let mut records = Vec::new();
        let mut first = None;
        let mut last = now;
        for &payload in payloads {
            let wire = kind.wire_bytes(payload);
            let mut ready = now;
            for &(link, forward) in &hops {
                match link {
                    Some((n, dir)) => {
                        let node = &mut self.nodes[n];
                        let start = ready.max(node.busy[idx(dir)]);
                        let end = start + node.spec.unwrap().raw_rate().time_for(wire);
                        node.busy[idx(dir)] = end;
                        node.carried[idx(dir)] += wire;
                        first.get_or_insert(start);
                        ready = end + node.latency;
                        if node.analyzer.is_some() {
                            records.push(TraceRecord {
                                at: ready,
                                source: "interposer",
                                kind: kind.mnemonic(),
                                span,
                                payload: TracePayload::Tlp {
                                    len: payload as u64,
                                    wire,
                                    up: dir == Dir::Up,
                                },
                            });
                        }
                    }
                    None => {
                        ready += self.fabric.qpi_penalty;
                        first.get_or_insert(ready);
                    }
                }
                ready += forward;
            }
            last = ready;
        }
        let arrival = TlpArrival {
            start: first.unwrap_or(now),
            arrive: last,
        };
        (arrival, records)
    }

    /// Every uplink's busy horizon and carried bytes agree with the
    /// fabric's, in both directions.
    fn assert_links_match(&self) {
        for node in self.nodes.iter().filter(|n| n.parent.is_some()) {
            for dir in [Dir::Up, Dir::Down] {
                assert_eq!(
                    self.fabric.uplink_busy_until(node.dev, dir),
                    node.busy[idx(dir)],
                    "busy horizon of {:?} {dir:?}",
                    node.dev
                );
                assert_eq!(
                    self.fabric.uplink_carried(node.dev, dir),
                    node.carried[idx(dir)],
                    "carried bytes of {:?} {dir:?}",
                    node.dev
                );
            }
        }
    }

    /// The number of analyzed links on the path from `a` to `b`.
    fn analyzed_on_path(&self, a: usize, b: usize) -> usize {
        let hops = self.path(a, b);
        let links = hops.iter().filter_map(|(link, _)| *link);
        links
            .filter(|&(n, _)| self.nodes[n].analyzer.is_some())
            .count()
    }

    /// The latest busy horizon of any link.
    fn horizon(&self) -> u64 {
        let busy = self.nodes.iter().flat_map(|n| n.busy);
        busy.max().unwrap_or(SimTime::ZERO).as_ps()
    }
}

/// A stream length for `chunk`: zero, below one chunk, an exact
/// multiple, a multiple plus a tail, or anything up to 1 MiB.
fn random_len(g: &mut Gen, chunk: u32) -> u64 {
    let chunk = chunk as u64;
    let whole = g.u64(1, (256 * 1024 / chunk).max(2));
    match g.usize(0, 5) {
        0 => 0,
        1 => g.u64(1, chunk),
        2 => whole * chunk,
        3 => whole * chunk + g.u64(1, chunk),
        _ => g.u64(1, (1 << 20) + 1),
    }
}

/// Coverage over all cases: streams through a seam, through one and
/// through two analyzed links, with a tail and without.
#[derive(Default)]
struct Seen {
    seam: u32,
    analyzed: [u32; 3],
    tail: u32,
    exact: u32,
}

fn one_fabric(g: &mut Gen, seen: &mut Seen) {
    let mut m = Model::random(g);
    for _ in 0..g.usize(20, 60) {
        let a = *g.pick(&m.endpoints);
        let b = *g.pick(&m.endpoints);
        if a == b {
            continue;
        }
        // Anywhere from well before the busiest link frees up to past it.
        let now = SimTime::from_ps(g.u64(0, m.horizon() + 5_000_000));
        let span = g.chance(0.5).then(|| SpanId(g.u64(0, 1 << 40)));
        m.fabric.set_span(span);
        let (got, payloads, kind) = if g.chance(0.25) {
            let (kind, payload) = if g.chance(0.5) {
                (TlpKind::MemRead, 0)
            } else {
                (TlpKind::MemWrite, g.u32(1, 4097))
            };
            let got = m
                .fabric
                .send_tlp(now, m.nodes[a].dev, m.nodes[b].dev, kind, payload);
            (got, vec![payload], kind)
        } else {
            let kinds = [TlpKind::MemWrite, TlpKind::Completion, TlpKind::P2pProtocol];
            let kind = *g.pick(&kinds);
            let chunk = if g.chance(0.5) {
                *g.pick(&[64, 128, 256, 512, 1024, 4096])
            } else {
                g.u32(64, 4097)
            };
            let len = random_len(g, chunk);
            let got = m
                .fabric
                .send_stream(now, m.nodes[a].dev, m.nodes[b].dev, kind, len, chunk);
            let payloads: Vec<u32> = apenet::pcie::tlp::chunks(len, chunk).collect();
            match len % chunk as u64 {
                0 if len > 0 => seen.exact += 1,
                0 => {}
                _ => seen.tail += 1,
            }
            (got, payloads, kind)
        };
        let (want, records) = m.send_per_tlp(now, a, b, kind, &payloads, span);
        assert_eq!(got, want, "arrival of {} TLPs {a} -> {b}", payloads.len());
        if payloads.is_empty() {
            assert_eq!((got.start, got.arrive), (now, now));
        }
        m.assert_links_match();
        assert_eq!(m.capture.take(), records, "analyzer records {a} -> {b}");
        let hops = m.path(a, b);
        seen.seam += u32::from(hops.iter().any(|(link, _)| link.is_none()));
        if !payloads.is_empty() {
            seen.analyzed[m.analyzed_on_path(a, b).min(2)] += 1;
        }
    }
}

#[test]
fn closed_form_streams_equal_the_per_tlp_loop() {
    let mut seen = Seen::default();
    check::cases("closed-form PCIe streams", 96, |g| one_fabric(g, &mut seen));
    assert!(seen.seam > 0, "no stream crossed a QPI seam");
    assert!(seen.analyzed[1] > 0, "no stream crossed one analyzed link");
    assert!(seen.analyzed[2] > 0, "no stream crossed two analyzed links");
    assert!(
        seen.tail > 0 && seen.exact > 0,
        "no tail or no exact stream"
    );
}

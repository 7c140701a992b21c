//! The torus-wired cluster builder.

use crate::msg::{CardActor, ClusterActor, HostActor, HostIn, HostProgram, Msg, NodeCtx};
use crate::node::{build_node, NodeConfig};
use crate::planes::Planes;
use crate::sampling::OccupancySampler;
use apenet_core::card::{CardIn, CardShared};
use apenet_core::coord::{LinkDir, TorusDims};
use apenet_core::torus::{Port, TorusLink};
use apenet_gpu::cuda::CudaDevice;
use apenet_gpu::mem::Memory;
use apenet_obs::latency::LedgerFold;
use apenet_sim::engine::{ActorId, Sim};
use apenet_sim::fault::{derive_seed, FaultInjector};
use apenet_sim::trace::SharedSink;
use apenet_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// Shareable handles of one node, kept by the cluster for inspection.
pub struct NodeHandles {
    /// GPU devices.
    pub cuda: Vec<Rc<RefCell<CudaDevice>>>,
    /// Host memory.
    pub hostmem: Rc<RefCell<Memory>>,
    /// The card-shared state (PCIe fabric, firmware, …) — lets tests and
    /// the occupancy sampler inspect fabrics and registrations.
    pub shared: CardShared,
}

/// A built cluster: the simulation plus actor ids and node handles.
pub struct Cluster {
    /// The event engine, ready to run. The actor type is the concrete
    /// [`ClusterActor`] enum, so dispatch is a single match — no boxing,
    /// no vtable — on the hot path.
    pub sim: Sim<Msg, ClusterActor>,
    /// Torus dimensions.
    pub dims: TorusDims,
    /// Host actor ids by rank.
    pub hosts: Vec<ActorId>,
    /// Card actor ids by rank.
    pub cards: Vec<ActorId>,
    /// Per-node shareable handles.
    pub nodes: Vec<NodeHandles>,
    /// The span-trace sink every card and host records into: the `trace`
    /// plane's sink, a capture for the tail plane's flight recorder, or
    /// null, wrapped in the ledger fold when the tail or SLO plane is on.
    pub trace: SharedSink,
    /// The online latency-ledger fold the trace sink feeds (tail or SLO
    /// plane on).
    pub(crate) fold: Option<Rc<RefCell<LedgerFold>>>,
    /// The planes the cluster was built with.
    pub(crate) planes: Planes,
    /// The occupancy sampler [`Cluster::run`] ticks (`sample` plane).
    pub(crate) sampler: Option<OccupancySampler>,
}

/// Builder for a torus of identical nodes.
pub struct ClusterBuilder {
    dims: TorusDims,
    node_cfg: NodeConfig,
    planes: Planes,
}

impl ClusterBuilder {
    /// A cluster of `dims` nodes configured by `node_cfg`, every
    /// observation plane off.
    pub fn new(dims: TorusDims, node_cfg: NodeConfig) -> Self {
        ClusterBuilder {
            dims,
            node_cfg,
            planes: Planes::off(),
        }
    }

    /// Observe the run with `planes`. Every plane is pure observation:
    /// none changes what the simulation schedules.
    pub fn planes(mut self, planes: Planes) -> Self {
        self.planes = planes;
        self
    }

    /// Build with one host program per rank (must supply exactly
    /// `dims.nodes()` programs). Each host receives `HostIn::Start` at t=0.
    pub fn build(self, programs: Vec<Box<dyn HostProgram>>) -> Cluster {
        let dims = self.dims;
        let planes = self.planes;
        assert_eq!(programs.len(), dims.nodes(), "one program per rank");
        let mut sim: Sim<Msg, ClusterActor> = Sim::new();
        // The passive sim-time profiler buckets every event's gap and
        // wall cost by (actor, kind), with zero effect on the calendar.
        if planes.profile {
            sim.attach_profiler(crate::msg::kind_of);
        }
        let mut built = Vec::new();
        for (rank, _) in (0..dims.nodes()).enumerate() {
            let coord = dims.coord_of(rank);
            built.push(build_node(rank as u32, coord, dims, &self.node_cfg));
        }
        // Pre-create torus links: one per (node, direction).
        let link_gbps = self.node_cfg.card.link_gbps;
        let link_lat = self.node_cfg.card.link_latency;
        // Records are kept only where they are read back: the `trace`
        // plane, or the tail plane's flight recorder, which retains whole
        // spans of a tail set known only after the run. The tail and SLO
        // ledgers fold each record as it arrives.
        let capture = match &planes.trace {
            Some(sink) => sink.clone(),
            None if planes.tail.is_some() => SharedSink::capturing(),
            None => SharedSink::null(),
        };
        let fold = (planes.tail.is_some() || planes.slo.is_some())
            .then(|| Rc::new(RefCell::new(LedgerFold::new())));
        let trace = match &fold {
            Some(fold) => {
                let fold = fold.clone();
                SharedSink::folding(capture, move |r| fold.borrow_mut().observe(r))
            }
            None => capture,
        };
        for node in &mut built {
            node.card.set_trace(trace.clone());
            if let Some(sink) = &planes.pcie {
                let shared = &node.shared;
                shared
                    .fabric
                    .borrow_mut()
                    .attach_analyzer(shared.nic_dev, sink.clone());
            }
            for dir in LinkDir::ALL {
                let link = Rc::new(RefCell::new(TorusLink::new_gbps(link_gbps, link_lat)));
                node.card.set_link(dir, link);
            }
        }
        // Attach fault injectors per the plan; every (card, port) pair
        // derives an independent stream from the single plan seed, so
        // the whole cluster's fault schedule replays from one u64.
        let plan = &self.node_cfg.faults;
        if !plan.is_noop() {
            for (rank, node) in built.iter_mut().enumerate() {
                for port in Port::ALL {
                    let spec = plan.spec_for(rank as u32, port);
                    if spec.is_noop() {
                        continue;
                    }
                    let salt = ((rank as u64) << 8) | port.index() as u64;
                    let inj = FaultInjector::new(spec, derive_seed(plan.seed, salt));
                    node.card.set_fault_injector(port, inj);
                }
            }
        }
        // Hard kills arm the fault plane on every card up front (so link
        // frames are windowed and replayable from t=0, not just after the
        // cut lands) — chaos runs only, so clean-run timing is untouched.
        if !plan.kills.is_empty() {
            for node in &mut built {
                node.card.arm_fault_plane();
            }
        }
        // Register actors: hosts first so cards can reference them.
        // Actor ids are assigned sequentially; we reserve [0, n) for cards
        // and [n, 2n) for hosts by adding cards first with placeholder
        // host ids, then fixing up is impossible — so compute ids ahead:
        // card i gets id i, host i gets id n + i.
        let n = dims.nodes();
        let mut handles = Vec::new();
        let mut cards = Vec::new();
        let mut programs = programs;
        // First pass: create card actors (ids 0..n).
        let mut host_ctxs = Vec::new();
        for (rank, node) in built.into_iter().enumerate() {
            let host_id = n + rank;
            let mut actor = CardActor::new(node.card, host_id);
            for dir in LinkDir::ALL {
                let nb = dims.neighbor(dims.coord_of(rank), dir);
                actor.neighbors[dir.index()] = Some(dims.rank_of(nb));
            }
            let id = sim.add_actor(ClusterActor::Card(Box::new(actor)));
            assert_eq!(id, rank);
            cards.push(id);
            handles.push(NodeHandles {
                cuda: node.cuda.clone(),
                hostmem: node.hostmem.clone(),
                shared: node.shared.clone(),
            });
            host_ctxs.push(NodeCtx {
                rank: rank as u32,
                coord: dims.coord_of(rank),
                dims,
                ep: node.ep,
                cq: node.cq,
                cuda: node.cuda,
                hostmem: node.hostmem,
            });
        }
        // Second pass: host actors (ids n..2n).
        let mut hosts = Vec::new();
        for (rank, ctx) in host_ctxs.into_iter().enumerate() {
            let program = programs.remove(0);
            let mut host = HostActor::new(ctx, program, cards[rank]);
            // Hosts share the cards' sink so `SUBMIT` records interleave
            // with the card-side span records in one capture.
            host.set_trace(trace.clone());
            let id = sim.add_actor(ClusterActor::Host(Box::new(host)));
            assert_eq!(id, n + rank);
            hosts.push(id);
            sim.send(id, SimTime::ZERO, Msg::Host(HostIn::Start));
        }
        // Deliver scheduled cable cuts to BOTH endpoint cards: a cable has
        // two ends, and each card must stop seeing traffic on its own port
        // the instant the cut lands.
        for kill in &plan.kills {
            let coord = dims.coord_of(kill.rank as usize);
            let far = dims.neighbor(coord, kill.dir);
            if far == coord {
                continue; // extent-1 ring: the port is a self-loop, no cable
            }
            sim.send(
                cards[kill.rank as usize],
                kill.at,
                Msg::Card(CardIn::AdminLinkDown {
                    port: Port::Link(kill.dir),
                }),
            );
            sim.send(
                cards[dims.rank_of(far)],
                kill.at,
                Msg::Card(CardIn::AdminLinkDown {
                    port: Port::Link(kill.dir.opposite()),
                }),
            );
        }
        Cluster {
            sim,
            dims,
            hosts,
            cards,
            nodes: handles,
            trace,
            fold,
            sampler: planes.sample.map(OccupancySampler::new),
            planes,
        }
    }
}

impl Cluster {
    /// Run to quiescence and return the final time, ticking the
    /// occupancy sampler when the `sample` plane is on (sampling never
    /// changes a scheduled event, so the final time is the same).
    pub fn run(&mut self) -> SimTime {
        match self.sampler.take() {
            Some(mut sampler) => {
                let end = self.run_sampled(&mut sampler);
                self.sampler = Some(sampler);
                end
            }
            None => self.sim.run(),
        }
    }

    /// Run until `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.sim.run_until(deadline)
    }

    /// Borrow the host actor of `rank` (after a run) to read results.
    pub fn host(&self, rank: usize) -> &HostActor {
        self.sim
            .actor(self.hosts[rank])
            .as_host()
            .expect("host actor at host id")
    }

    /// Borrow the card actor of `rank` (after a run) to read statistics.
    pub fn card(&self, rank: usize) -> &CardActor {
        self.sim
            .actor(self.cards[rank])
            .as_card()
            .expect("card actor at card id")
    }
}

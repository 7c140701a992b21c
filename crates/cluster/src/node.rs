//! One cluster node: host, PCIe fabric, GPUs, APEnet+ card.

use apenet_core::card::{Card, CardShared, Firmware, GpuHandle};
use apenet_core::config::CardConfig;
use apenet_core::coord::{Coord, LinkDir, TorusDims};
use apenet_core::torus::Port;
use apenet_gpu::cuda::CudaDevice;
use apenet_gpu::mem::Memory;
use apenet_gpu::uva::HOST_BASE;
use apenet_gpu::{GpuArch, GpuId, Uva, HOST_PAGE_SIZE};
use apenet_pcie::fabric::Fabric;
use apenet_pcie::link::LinkSpec;
use apenet_pcie::server::ReadServer;
use apenet_rdma::api::RdmaEndpoint;
use apenet_rdma::completion::CompletionQueue;
use apenet_rdma::driver::DriverConfig;
use apenet_sim::fault::FaultSpec;
use apenet_sim::{Bandwidth, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// A scheduled hard failure: cut the torus cable on `rank`'s `dir` port
/// at simulated time `at`. The cluster builder delivers an admin
/// link-down to *both* endpoint cards (a cable has two ends), after
/// which every frame in flight on it is lost and the keepalive
/// detectors escalate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkKill {
    /// Rank owning the reference end of the cable.
    pub rank: u32,
    /// Direction of the cable from `rank`'s point of view.
    pub dir: LinkDir,
    /// Simulated time of the cut.
    pub at: SimTime,
}

/// Which ports of which cards get fault injectors, and with what rates.
///
/// The plan is pure configuration: the cluster builder turns it into
/// seeded [`apenet_sim::fault::FaultInjector`]s, deriving every
/// (card, port) stream independently from `seed` so one u64 reproduces
/// the whole cluster's fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Base seed for all injector streams.
    pub seed: u64,
    /// Spec applied to every torus link port of every card.
    pub links: FaultSpec,
    /// Spec applied to every card's internal loop-back port.
    pub loopback: FaultSpec,
    /// Per-(rank, port) overrides, taking precedence over the uniform
    /// specs (e.g. one flaky cable in an otherwise healthy torus).
    pub overrides: Vec<(u32, Port, FaultSpec)>,
    /// Scheduled hard link failures (cable cuts), delivered as admin
    /// kills to both endpoint cards at the given times.
    pub kills: Vec<LinkKill>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// No injected faults anywhere (the default).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            links: FaultSpec::default(),
            loopback: FaultSpec::default(),
            overrides: Vec::new(),
            kills: Vec::new(),
        }
    }

    /// The same spec on every port of every card (loop-back included).
    pub fn uniform(seed: u64, spec: FaultSpec) -> Self {
        FaultPlan {
            seed,
            links: spec,
            loopback: spec,
            overrides: Vec::new(),
            kills: Vec::new(),
        }
    }

    /// Schedule a hard cut of the cable on `rank`'s `dir` port at `at`.
    pub fn kill_link(mut self, rank: u32, dir: LinkDir, at: SimTime) -> Self {
        self.kills.push(LinkKill { rank, dir, at });
        self
    }

    /// Schedule a whole-node isolation at `at`: cut every distinct cable
    /// touching `rank` in a torus of `dims` (self-loop rings of extent 1
    /// have no cable and are skipped).
    pub fn kill_node(mut self, rank: u32, coord: Coord, dims: TorusDims, at: SimTime) -> Self {
        for dir in LinkDir::ALL {
            if dims.neighbor(coord, dir) != coord {
                self.kills.push(LinkKill { rank, dir, at });
            }
        }
        self
    }

    /// The effective spec for one (rank, port).
    pub fn spec_for(&self, rank: u32, port: Port) -> FaultSpec {
        for (r, p, s) in &self.overrides {
            if *r == rank && *p == port {
                return *s;
            }
        }
        match port {
            Port::Loopback => self.loopback,
            Port::Link(_) => self.links,
        }
    }

    /// True when no port of any card can ever see a fault.
    pub fn is_noop(&self) -> bool {
        self.links.is_noop()
            && self.loopback.is_noop()
            && self.overrides.iter().all(|(_, _, s)| s.is_noop())
            && self.kills.is_empty()
    }
}

/// Configuration of one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// GPUs installed (Cluster I: one Fermi per node).
    pub gpus: Vec<GpuArch>,
    /// Card calibration.
    pub card: CardConfig,
    /// Host memory size.
    pub hostmem_bytes: u64,
    /// Driver cost model.
    pub driver: DriverConfig,
    /// Rate at which the card reads host memory (Table I: 2.4 GB/s).
    pub host_read_rate: Bandwidth,
    /// First-completion latency of host memory reads.
    pub host_read_latency: SimDuration,
    /// Fault-injection plan for the cluster's links (default: none).
    pub faults: FaultPlan,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            gpus: vec![GpuArch::Fermi2050],
            card: CardConfig::default(),
            hostmem_bytes: 256 << 20,
            driver: DriverConfig::default(),
            host_read_rate: Bandwidth::from_mb_per_sec(2400),
            host_read_latency: SimDuration::from_ns(400),
            faults: FaultPlan::none(),
        }
    }
}

/// The live pieces of one built node, shared with benchmarks and tests.
pub struct BuiltNode {
    /// The card model (moved into its actor by the cluster builder).
    pub card: Card,
    /// The RDMA endpoint (moved into the host actor).
    pub ep: RdmaEndpoint,
    /// The host completion queue (moved into the host actor).
    pub cq: CompletionQueue,
    /// GPU device handles (kept shareable for apps/benchmarks).
    pub cuda: Vec<Rc<RefCell<CudaDevice>>>,
    /// Host memory.
    pub hostmem: Rc<RefCell<Memory>>,
    /// The card-shared handles (fabric, firmware, …).
    pub shared: CardShared,
    /// The UVA layout of this host.
    pub uva: Uva,
}

/// Build one node at `coord` of a torus of `dims`.
///
/// The PCIe topology matches the Westmere nodes of the paper's clusters:
/// a single root complex with the host-memory target, the GPUs (x16) and
/// the APEnet+ card (x8) on it.
pub fn build_node(rank: u32, coord: Coord, dims: TorusDims, cfg: &NodeConfig) -> BuiltNode {
    let mut fabric = Fabric::new();
    let root = fabric.add_root(0);
    let hostmem_dev = fabric.add_endpoint(
        root,
        "hostmem",
        LinkSpec::GEN2_X16,
        SimDuration::from_ns(50),
    );
    let nic_dev = fabric.add_endpoint(root, "apenet", LinkSpec::GEN2_X8, SimDuration::from_ns(50));

    let hostmem = Rc::new(RefCell::new(Memory::new(
        HOST_BASE,
        cfg.hostmem_bytes,
        HOST_PAGE_SIZE,
    )));
    let mut uva = Uva::new();
    uva.set_host(&hostmem.borrow());

    let mut gpus = Vec::new();
    let mut cuda_handles = Vec::new();
    for (i, arch) in cfg.gpus.iter().enumerate() {
        let dev = fabric.add_endpoint(root, "gpu", LinkSpec::GEN2_X16, SimDuration::from_ns(50));
        let cuda = Rc::new(RefCell::new(CudaDevice::new(GpuId(i as u8), *arch)));
        uva.add_gpu(GpuId(i as u8), &cuda.borrow().mem);
        gpus.push(GpuHandle {
            pcie_dev: dev,
            cuda: cuda.clone(),
        });
        cuda_handles.push(cuda);
    }

    let shared = CardShared {
        fabric: Rc::new(RefCell::new(fabric)),
        nic_dev,
        hostmem_dev,
        hostmem: hostmem.clone(),
        host_read: Rc::new(RefCell::new(ReadServer::new(
            cfg.host_read_latency,
            cfg.host_read_rate,
        ))),
        gpus,
        firmware: Rc::new(RefCell::new(Firmware::default())),
    };

    let card = Card::new(coord, dims, cfg.card.clone(), shared.clone());
    let ep = RdmaEndpoint::new(shared.clone(), uva.clone(), rank, cfg.driver.clone());

    BuiltNode {
        card,
        ep,
        cq: CompletionQueue::new(),
        cuda: cuda_handles,
        hostmem,
        shared,
        uva,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_has_wired_pieces() {
        let cfg = NodeConfig::default();
        let n = build_node(0, Coord::new(0, 0, 0), TorusDims::new(1, 1, 1), &cfg);
        assert_eq!(n.cuda.len(), 1);
        assert_eq!(n.shared.gpus.len(), 1);
        // UVA distinguishes host from GPU ranges.
        let g = n.cuda[0].borrow().mem.base();
        assert!(n.uva.is_gpu_ptr(g));
        assert!(!n.uva.is_gpu_ptr(n.hostmem.borrow().base()));
    }

    #[test]
    fn fault_plan_resolution() {
        use apenet_core::coord::LinkDir;
        assert!(FaultPlan::none().is_noop());
        let mut plan = FaultPlan::uniform(7, FaultSpec::corrupt(0.1));
        assert!(!plan.is_noop());
        assert_eq!(plan.spec_for(0, Port::Loopback), FaultSpec::corrupt(0.1));
        let hot = FaultSpec::chaos(0.5);
        plan.overrides.push((2, Port::Link(LinkDir::Xp), hot));
        assert_eq!(plan.spec_for(2, Port::Link(LinkDir::Xp)), hot);
        assert_eq!(
            plan.spec_for(2, Port::Link(LinkDir::Xm)),
            FaultSpec::corrupt(0.1)
        );
    }

    #[test]
    fn kill_plans_are_not_noop() {
        use apenet_core::coord::LinkDir;
        let plan = FaultPlan::none().kill_link(0, LinkDir::Xp, SimTime::from_ps(10_000));
        assert!(!plan.is_noop());
        // 2x1x1: only the X ring is wired, and its two directions are two
        // distinct cables — a node isolation cuts both.
        let dims = TorusDims::new(2, 1, 1);
        let iso = FaultPlan::none().kill_node(1, Coord::new(1, 0, 0), dims, SimTime::ZERO);
        assert_eq!(iso.kills.len(), 2);
        assert!(!iso.is_noop());
    }

    #[test]
    fn two_gpu_node() {
        let cfg = NodeConfig {
            gpus: vec![GpuArch::Fermi2075, GpuArch::Fermi2075],
            ..NodeConfig::default()
        };
        let n = build_node(3, Coord::new(1, 0, 0), TorusDims::new(4, 2, 1), &cfg);
        assert_eq!(n.cuda.len(), 2);
        assert_eq!(n.ep.rank(), 3);
        assert_ne!(n.cuda[0].borrow().mem.base(), n.cuda[1].borrow().mem.base());
    }
}

//! The assembled APEnet+ card.
//!
//! The card is a [`Device`] state machine: the cluster layer feeds it
//! [`CardIn`] events and routes its [`CardOut`] effects (self-timers,
//! torus transmissions, host notifications). All datapath timing — GPU
//! read prefetching, Nios II task contention, TX FIFO occupancy, torus
//! serialization, RX processing — is computed here against the shared
//! PCIe fabric and GPU models.
//!
//! One module per datapath stage (the paper's §III blocks), each owning
//! its state in one struct: `tx` (fetch, staging, TX FIFO), `link`
//! (go-back-N and fault injection), `rx` (delivery, RX ring, GET
//! responder, ECN echo) and `route` (next hop, cable health); `stats`
//! holds the counters and occupancy snapshots.

mod link;
mod route;
mod rx;
mod stats;
mod tx;

pub use link::AckLedger;
pub use stats::{metrics, CardOccupancy, CardStats, LinkStats, PortOccupancy};

use crate::config::CardConfig;
use crate::coord::{Coord, FaultMap, LinkDir, TorusDims};
use crate::nios::{BufEntry, BufKind, BufList, Nios};
use crate::packet::{ApePacket, MsgId};
use crate::torus::{LinkMsg, Port, TorusLink};
use apenet_gpu::cuda::CudaDevice;
use apenet_gpu::mem::Memory;
use apenet_obs::Registry;
use apenet_pcie::fabric::{DeviceId, Fabric};
use apenet_pcie::server::ReadServer;
use apenet_sim::fault::FaultInjector;
use apenet_sim::trace::{SharedSink, TracePayload};
use apenet_sim::{Device, Outbox, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

use link::LinkStage;
use route::RouteStage;
use rx::RxStage;
use tx::TxStage;

/// A local GPU as seen by the card: its PCIe endpoint and device model.
#[derive(Clone)]
pub struct GpuHandle {
    /// The GPU's endpoint on the host PCIe fabric.
    pub pcie_dev: DeviceId,
    /// The device model (memory, P2P engine, …).
    pub cuda: Rc<RefCell<CudaDevice>>,
}

/// The firmware-visible registration state, shared between the card and
/// the host driver: the driver populates the BUF_LIST during buffer
/// registration, the RX datapath traverses it per packet. The V2P
/// translation that follows is charged at its constant walk cost
/// ([`HOST_V2P_WALK`](crate::nios::HOST_V2P_WALK),
/// [`GPU_V2P_WALK`](crate::nios::GPU_V2P_WALK)): the datapath writes by
/// virtual address, so no card keeps the page tables themselves
/// ([`HostV2p`](crate::nios::HostV2p), [`GpuV2p`](crate::nios::GpuV2p)).
#[derive(Default)]
pub struct Firmware {
    /// The registered-buffer list with its linear traversal cost.
    pub buf_list: BufList,
}

impl Firmware {
    /// Fallible host registration: a full BUF_LIST rejects the request,
    /// so the host can unregister a buffer and retry.
    pub fn try_register_host(&mut self, vaddr: u64, len: u64, pid: u32) -> Option<usize> {
        self.buf_list.try_register(BufEntry {
            vaddr,
            len,
            kind: BufKind::Host,
            pid,
        })
    }

    /// Fallible GPU registration (see [`Firmware::try_register_host`]).
    pub fn try_register_gpu(
        &mut self,
        gpu: apenet_gpu::GpuId,
        vaddr: u64,
        len: u64,
        pid: u32,
    ) -> Option<usize> {
        self.buf_list.try_register(BufEntry {
            vaddr,
            len,
            kind: BufKind::Gpu(gpu),
            pid,
        })
    }
}

/// Everything the card shares with the rest of its host.
#[derive(Clone)]
pub struct CardShared {
    /// The host PCIe fabric.
    pub fabric: Rc<RefCell<Fabric>>,
    /// The card's endpoint on that fabric.
    pub nic_dev: DeviceId,
    /// The host-memory target endpoint.
    pub hostmem_dev: DeviceId,
    /// Host memory contents.
    pub hostmem: Rc<RefCell<Memory>>,
    /// Host-memory read completer (2.4 GB/s in Table I).
    pub host_read: Rc<RefCell<ReadServer>>,
    /// Local GPUs.
    pub gpus: Vec<GpuHandle>,
    /// Registration state.
    pub firmware: Rc<RefCell<Firmware>>,
}

/// A TX request descriptor pushed by the host driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxDesc {
    /// Message id.
    pub msg: MsgId,
    /// Destination node.
    pub dst: Coord,
    /// Destination UVA address.
    pub dst_vaddr: u64,
    /// Message length in bytes.
    pub len: u64,
    /// Source UVA address.
    pub src_addr: u64,
    /// Source buffer kind.
    pub src_kind: BufKind,
}

/// A GET (RDMA-Read) request descriptor pushed by the host driver: ask
/// the card at `peer` to stream `len` bytes starting at its local
/// `peer_vaddr` back into this node's buffer at `local_vaddr`. The
/// requester's RX side completes the message exactly like an inbound
/// PUT, so the watchdog, dedup and fault planes all compose unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetDesc {
    /// Message id (requester-assigned; the reply stream carries it).
    pub msg: MsgId,
    /// The node whose memory is read.
    pub peer: Coord,
    /// Responder-local UVA address of the range to read.
    pub peer_vaddr: u64,
    /// Bytes to read.
    pub len: u64,
    /// Requester-local UVA address the reply lands at.
    pub local_vaddr: u64,
}

/// Events consumed by the card.
#[derive(Debug, Clone)]
pub enum CardIn {
    /// The host driver posts a transmission.
    TxSubmit(TxDesc),
    /// The host driver posts a one-sided GET (remote read).
    GetSubmit(GetDesc),
    /// A verified GET request finished its responder-side Nios decode +
    /// BUF_LIST lookup; start the reply TX job streaming the range back.
    GetServe {
        /// The reply transmission (destination = the requester).
        desc: TxDesc,
    },
    /// A link-layer frame (data or ACK/NAK credit) arrives on `port` —
    /// a torus ingress direction or the internal loop-back path.
    LinkRx {
        /// Ingress port.
        port: Port,
        /// The frame.
        msg: LinkMsg,
    },
    /// The retransmit timer of `port` fired. Stale epochs are ignored:
    /// the epoch counter bumps whenever the window advances.
    LinkTimeout {
        /// The transmitting port whose timer fired.
        port: Port,
        /// Timer epoch at arming time.
        epoch: u64,
    },
    /// Data for TX job `job` arrived from the source memory.
    FetchArrived {
        /// TX job id.
        job: u32,
        /// Offset within the message.
        offset: u64,
        /// Bytes arrived.
        len: u32,
    },
    /// A staged packet finished its Nios bookkeeping and may enter the FIFO.
    PushReady {
        /// TX job id.
        job: u32,
        /// The sealed packet.
        packet: ApePacket,
    },
    /// The TX FIFO head finished serializing; advance the drain.
    DrainNext,
    /// Administrative hard kill of `port`'s cable, scheduled by chaos
    /// plans at a chosen simulated time (both cable endpoints get one).
    /// The port immediately stops carrying traffic in both directions;
    /// *detecting* that is the keepalive plane's job.
    AdminLinkDown {
        /// The killed port.
        port: Port,
    },
    /// The host reaped `n` entries from the RX event ring, freeing slots
    /// for held-back completions (bounded-ring configurations only).
    RxRingPop {
        /// Entries reaped.
        n: u32,
    },
}

/// Typed failure effects: conditions that used to be panics or silent
/// drops, surfaced as events the host side can observe. Each is also
/// mirrored in a [`CardStats`] counter and a [`metrics`] id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CardError {
    /// A torus port was declared dead (keepalive escalation or a
    /// neighbour's `LinkDown` about a shared cable).
    LinkDead {
        /// The dead port's direction.
        dir: LinkDir,
    },
    /// A packet was dropped because no usable route to `dst` remains:
    /// both arcs of a ring are cut, or the direction is unwired.
    Unreachable {
        /// The message the dropped packet belonged to.
        msg: MsgId,
        /// Its destination node.
        dst: Coord,
    },
    /// The RX event ring is full: the completion for `msg` is held back
    /// (never lost) until the host pops entries.
    RxRingFull {
        /// The backpressured message.
        msg: MsgId,
    },
}

impl std::fmt::Display for CardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CardError::LinkDead { dir } => write!(f, "torus link {dir:?} declared dead"),
            CardError::Unreachable { msg, dst } => write!(
                f,
                "no usable route to {dst:?} for message {}/{}",
                msg.src_rank, msg.seq
            ),
            CardError::RxRingFull { msg } => write!(
                f,
                "RX event ring full; completion of message {}/{} held back",
                msg.src_rank, msg.seq
            ),
        }
    }
}

impl std::error::Error for CardError {}

/// Effects produced by the card, routed by the cluster layer.
#[derive(Debug, Clone)]
pub enum CardOut {
    /// Deliver back to this card after the attached delay.
    ToSelf(CardIn),
    /// A link-layer frame leaves on the torus link in direction `dir`;
    /// for data frames the delay already accounts for serialization and
    /// cable latency, for ACK/NAK credits (out-of-band control symbols)
    /// it is the cable latency alone.
    TorusSend {
        /// Outgoing link direction.
        dir: LinkDir,
        /// The frame.
        msg: LinkMsg,
    },
    /// A complete message landed in a local buffer (RX completion event).
    Delivered {
        /// Message id.
        msg: MsgId,
        /// Destination address it landed at.
        dst_vaddr: u64,
        /// Message length.
        len: u64,
    },
    /// The TX side finished fetching and enqueuing a message.
    TxComplete {
        /// Message id.
        msg: MsgId,
    },
    /// A clean cable's ACK of frames `< upto` received on `port`,
    /// settled in closed form: the cluster takes the sequence number the
    /// ACK event would have had and posts it to the sender's ledger
    /// ([`Card::post_closed_ack`]) instead of scheduling an event. The
    /// delay is the cable latency.
    ClosedAck {
        /// The ingress port the acknowledged frames arrived on.
        port: Port,
        /// Cumulative: every frame below this sequence number.
        upto: u64,
    },
    /// A typed failure effect (dead link, unreachable destination, RX
    /// event-ring backpressure) — failures are visible, never silent.
    Error(CardError),
    /// The overload plane's congestion echo reached `msg`'s source card:
    /// the host-side pacer shrinks that destination's window. Only ever
    /// emitted while the plane is armed and a high-water mark tripped.
    EcnEcho {
        /// The marked message.
        msg: MsgId,
    },
}

/// The APEnet+ card model: the shared host handles plus one state
/// struct per datapath stage.
pub struct Card {
    /// This card's torus coordinates.
    pub coord: Coord,
    /// Torus dimensions.
    pub dims: TorusDims,
    /// Calibration constants.
    pub cfg: CardConfig,
    shared: CardShared,
    /// The Nios II task server.
    pub nios: Nios,
    /// Span-correlated lifecycle trace sink (null by default; see
    /// [`Card::set_trace`]). Observation only — records never schedule
    /// events, so traced runs keep golden timing.
    trace: SharedSink,
    /// Datapath counters.
    pub stats: CardStats,
    tx: TxStage,
    link: LinkStage,
    rx: RxStage,
    route: RouteStage,
}

impl Card {
    /// Build a card at `coord` on a torus of `dims`.
    pub fn new(coord: Coord, dims: TorusDims, cfg: CardConfig, shared: CardShared) -> Self {
        Card {
            coord,
            dims,
            tx: TxStage::new(&cfg),
            link: LinkStage::new(&cfg, coord),
            rx: RxStage::default(),
            route: RouteStage::default(),
            cfg,
            shared,
            nios: Nios::new(),
            trace: SharedSink::null(),
            stats: CardStats::default(),
        }
    }

    /// Attach a lifecycle trace sink: every RDMA message flowing through
    /// this card records span-correlated post/fetch/frame/delivery
    /// events into it. The default null sink costs one branch per site.
    pub fn set_trace(&mut self, sink: SharedSink) {
        self.trace = sink;
    }

    /// Record a lifecycle event of `msg`'s span on the trace sink (a
    /// no-op on the default null sink).
    fn record(&self, at: SimTime, kind: &'static str, msg: MsgId, payload: TracePayload) {
        if self.trace.enabled() {
            self.trace
                .record(at, "card", kind, Some(msg.span()), payload);
        }
    }

    /// Publish this card's link-reliability counters into `reg` under the
    /// [`metrics`] ids. Creates every id (at zero) even on clean runs so
    /// consumers see a stable key set.
    pub fn publish_link_metrics(&self, reg: &Registry) {
        let t = self.stats.link_sums();
        reg.add(metrics::RETRANSMITS, t.retransmits);
        reg.add(metrics::TIMEOUTS, t.timeouts);
        reg.add(metrics::NAKS_SENT, t.naks_sent);
        reg.add(metrics::DUP_FRAMES, t.dup_frames);
        reg.add(metrics::INJECTED_CORRUPT, t.injected_corrupt);
        reg.add(metrics::INJECTED_DROPS, t.injected_drops);
        reg.add(metrics::INJECTED_STALLS, t.injected_stalls);
        reg.add(metrics::STALL_PS, t.stall_ps);
        reg.add(metrics::CRC_DROPPED, t.crc_dropped);
        reg.add(metrics::LINK_DEAD, self.stats.links_dead);
        reg.add(metrics::ROUTE_DETOUR, self.stats.detours);
        reg.add(metrics::ROUTE_UNREACHABLE, self.stats.unreachable_drops);
        reg.add(metrics::ROUTE_REQUEUED, self.stats.requeued);
        reg.add(metrics::RX_DUP_FRAGMENTS, self.stats.rx_dup_fragments);
        reg.add(metrics::RX_RING_STALL, self.stats.rx_ring_stalls);
        reg.add(metrics::GET_REQUESTS, self.stats.get_requests);
        reg.add(metrics::GET_SERVED, self.stats.get_served);
        reg.add(metrics::GET_UNMATCHED, self.stats.get_unmatched);
        reg.add(metrics::GET_DUP_REQUESTS, self.stats.get_dup_requests);
        reg.add(metrics::ECN_MARKED, self.stats.ecn_marked);
        reg.add(metrics::ECN_ECHOED, self.stats.ecn_echoed);
    }

    /// Wire the outgoing torus link for `dir`.
    pub fn set_link(&mut self, dir: LinkDir, link: Rc<RefCell<TorusLink>>) {
        self.link.links_out[dir.index()] = Some(link);
    }

    /// Attach a fault injector to the transmit side of `port`. Arms the
    /// retransmit-timer machinery for the whole card.
    pub fn set_fault_injector(&mut self, port: Port, inj: FaultInjector) {
        self.link.arm();
        self.link.injectors[port.index()] = Some(inj);
    }

    /// True when any fault source is configured on this card: an
    /// injector, a kill plan or the legacy periodic corruption.
    pub fn fault_plane_armed(&self) -> bool {
        self.link.armed()
    }

    /// Arm the fault plane without attaching an injector: admin kill
    /// schedules need windows and retransmit timers live from the start,
    /// exactly like injected chaos, or the first in-flight frames on a
    /// killed cable would never time out.
    pub fn arm_fault_plane(&mut self) {
        self.link.arm();
    }

    /// The mesh-wide dead-link map this card has converged on (empty on
    /// healthy runs; tests assert convergence across cards through it).
    pub fn fault_map(&self) -> &FaultMap {
        &self.route.fault_map
    }

    /// True when no datapath or link-layer state is in flight: no TX
    /// jobs, empty staging and TX FIFOs, every port's replay and pending
    /// queues drained, and no partially received messages. The chaos
    /// suite asserts this after every run — leaked state here means lost
    /// or phantom traffic.
    pub fn quiesced(&self) -> bool {
        let o = self.occupancy();
        o.tx_jobs == 0
            && o.push_wait == 0
            && o.tx_fifo_packets == 0
            && o.rx_partial_msgs == 0
            && o.rx_ring_held == 0
            && o.ports.iter().all(|p| p.replay == 0 && p.pending == 0)
    }

    /// The shared host/PCIe/GPU handles.
    pub fn shared(&self) -> &CardShared {
        &self.shared
    }

    /// Read-only snapshot of every queue and buffer level on the card —
    /// what the occupancy sampler records each tick. Pure reads over
    /// existing state: taking a snapshot can never perturb scheduling.
    pub fn occupancy(&self) -> CardOccupancy {
        let mut o = CardOccupancy {
            ports: std::array::from_fn(|pi| {
                self.link
                    .port_occupancy(pi, self.stats.links[pi].wire_bytes)
            }),
            ..CardOccupancy::default()
        };
        self.tx.occupancy(&mut o);
        self.rx.occupancy(&mut o);
        o
    }
}

impl Device for Card {
    type In = CardIn;
    type Out = CardOut;

    fn handle(&mut self, now: SimTime, ev: CardIn, out: &mut Outbox<CardOut>) {
        match ev {
            CardIn::TxSubmit(desc) => self.submit_tx(desc, false, now, out),
            CardIn::GetSubmit(desc) => self.submit_get(desc, now, out),
            CardIn::GetServe { desc } => self.submit_tx(desc, true, now, out),
            CardIn::FetchArrived { job, offset, len } => {
                self.fetch_arrived(job, offset, len, now, out)
            }
            CardIn::PushReady { job, packet } => self.try_push(job, packet, now, out),
            CardIn::DrainNext => self.drain_next(now, out),
            CardIn::LinkRx { port, msg } => self.link_rx(port, msg, now, out),
            CardIn::LinkTimeout { port, epoch } => self.handle_timeout(port, epoch, now, out),
            CardIn::AdminLinkDown { port } => self.admin_link_down(port),
            CardIn::RxRingPop { n } => self.rx_ring_pop(n, now, out),
        }
    }
}

impl Drop for Card {
    fn drop(&mut self) {
        // Publish this card's lifetime reliability counters into the
        // process-wide registry (under the [`metrics`] ids), so a driver
        // that runs many simulations (`repro-all`) can report aggregate
        // retransmission/degradation activity without keeping any cluster
        // alive. Clean cards publish nothing, so fault-free runs touch no
        // shared state.
        let s = &self.stats;
        let hard = s.links_dead
            + s.detours
            + s.unreachable_drops
            + s.requeued
            + s.rx_dup_fragments
            + s.rx_ring_stalls
            + s.ecn_marked
            + s.ecn_echoed;
        if !s.link_sums().is_clean() || hard > 0 {
            self.publish_link_metrics(apenet_obs::global());
        }
    }
}

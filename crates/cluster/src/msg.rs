//! The cluster event type and the actors that adapt cards and hosts to
//! the simulation engine.

use apenet_core::card::{Card, CardError, CardIn, CardOut, GetDesc, TxDesc};
use apenet_core::coord::{Coord, TorusDims};
use apenet_core::packet::MsgId;
use apenet_core::torus::Port;
use apenet_gpu::cuda::CudaDevice;
use apenet_gpu::mem::Memory;
use apenet_rdma::api::RdmaEndpoint;
use apenet_rdma::completion::CompletionQueue;
use apenet_sim::engine::{Actor, ActorId, Ctx};
use apenet_sim::trace::{kind as tk, SharedSink, TracePayload};
use apenet_sim::{Device, Outbox, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// The closed event type of a cluster simulation.
#[derive(Debug, Clone)]
pub enum Msg {
    /// An event for a card actor.
    Card(CardIn),
    /// An event for a host actor.
    Host(HostIn),
}

/// The event-kind label of `m`, for the sim-time profiler's
/// (component, kind) buckets: card events keep their datapath stage
/// name (link frames split by frame type — data vs. control vs.
/// keepalive), host events their notification name. Labels are
/// `'static` so classification costs no allocation per event.
pub fn kind_of(m: &Msg) -> &'static str {
    use apenet_core::torus::LinkMsg;
    match m {
        Msg::Card(c) => match c {
            CardIn::TxSubmit(_) => "tx-submit",
            CardIn::GetSubmit(_) => "get-submit",
            CardIn::GetServe { .. } => "get-serve",
            CardIn::LinkRx { msg, .. } => match msg {
                LinkMsg::Data(_) => "link-data",
                LinkMsg::Ack { .. } => "link-ack",
                LinkMsg::Nak { .. } => "link-nak",
                LinkMsg::Ping { .. } | LinkMsg::Pong { .. } => "link-keepalive",
                _ => "link-state",
            },
            CardIn::LinkTimeout { .. } => "link-timeout",
            CardIn::FetchArrived { .. } => "fetch",
            CardIn::PushReady { .. } => "push",
            CardIn::DrainNext => "drain",
            CardIn::AdminLinkDown { .. } => "admin-kill",
            CardIn::RxRingPop { .. } => "rx-ring-pop",
        },
        Msg::Host(h) => match h {
            HostIn::Start => "start",
            HostIn::Delivered { .. } => "delivered",
            HostIn::TxDone { .. } => "tx-done",
            HostIn::Wake(_) => "wake",
            HostIn::Fault(_) => "fault",
            HostIn::EcnEcho { .. } => "ecn-echo",
        },
    }
}

/// Events consumed by host actors.
#[derive(Debug, Clone)]
pub enum HostIn {
    /// Program start (seeded by the builder at t = 0).
    Start,
    /// The local card delivered a complete message into a local buffer.
    Delivered {
        /// Message id.
        msg: MsgId,
        /// Where it landed.
        dst_vaddr: u64,
        /// Message length.
        len: u64,
    },
    /// The local card finished fetching/enqueuing a transmission.
    TxDone {
        /// Message id.
        msg: MsgId,
    },
    /// A self-scheduled wake-up.
    Wake(u64),
    /// The local card raised a typed fault effect (dead link, unreachable
    /// drop, RX-ring backpressure). Only ever sent on fault runs.
    Fault(CardError),
    /// A congestion echo for a message this host originated reached the
    /// local card (overload plane only): the path or the receiver ring
    /// was over its high-water mark. Pacers shrink `msg`'s destination
    /// window on receipt.
    EcnEcho {
        /// The marked message's id.
        msg: MsgId,
    },
}

/// The card actor: wraps the [`Card`] device and routes its effects.
pub struct CardActor {
    pub(crate) card: Card,
    host: ActorId,
    /// Neighbour card actors by link direction index.
    pub neighbors: [Option<ActorId>; 6],
    /// Every typed fault effect this card raised, in order (empty on
    /// clean runs) — for post-run inspection by tests and harnesses.
    pub errors: Vec<(SimTime, CardError)>,
    outbox: Outbox<CardOut>,
}

impl CardActor {
    /// Wrap a card; `host` is the actor receiving its notifications.
    pub fn new(card: Card, host: ActorId) -> Self {
        CardActor {
            card,
            host,
            neighbors: [None; 6],
            errors: Vec::new(),
            outbox: Outbox::new(),
        }
    }

    /// Immutable access to the wrapped card (for post-run inspection).
    pub fn card(&self) -> &Card {
        &self.card
    }
}

impl Actor<Msg> for CardActor {
    fn on_event(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Card(ev) = ev else {
            panic!("card actor received a host event");
        };
        self.card.settle_acks(ctx.now(), ctx.event_seq());
        self.card.handle(ctx.now(), ev, &mut self.outbox);
        for (delay, eff) in self.outbox.drain() {
            match eff {
                CardOut::ClosedAck { port, upto } => {
                    let seq = ctx.take_seq();
                    self.card
                        .post_closed_ack(port, ctx.now() + delay, seq, upto);
                }
                CardOut::ToSelf(next) => ctx.send_self(delay, Msg::Card(next)),
                CardOut::TorusSend { dir, msg } => {
                    let to = self.neighbors[dir.index()]
                        .expect("torus neighbour wired for used direction");
                    // The neighbour receives on the opposite-direction port.
                    ctx.send(
                        to,
                        delay,
                        Msg::Card(CardIn::LinkRx {
                            port: Port::Link(dir.opposite()),
                            msg,
                        }),
                    );
                }
                CardOut::Delivered {
                    msg,
                    dst_vaddr,
                    len,
                } => {
                    ctx.send(
                        self.host,
                        delay,
                        Msg::Host(HostIn::Delivered {
                            msg,
                            dst_vaddr,
                            len,
                        }),
                    );
                }
                CardOut::TxComplete { msg } => {
                    ctx.send(self.host, delay, Msg::Host(HostIn::TxDone { msg }));
                }
                CardOut::Error(e) => {
                    self.errors.push((ctx.now(), e));
                    ctx.send(self.host, delay, Msg::Host(HostIn::Fault(e)));
                }
                CardOut::EcnEcho { msg } => {
                    ctx.send(self.host, delay, Msg::Host(HostIn::EcnEcho { msg }));
                }
            }
        }
    }

    fn name(&self) -> &str {
        "apenet-card"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Everything a host program can touch on its node.
pub struct NodeCtx {
    /// Node rank.
    pub rank: u32,
    /// Torus coordinates.
    pub coord: Coord,
    /// Torus dimensions.
    pub dims: TorusDims,
    /// The RDMA endpoint.
    pub ep: RdmaEndpoint,
    /// Completion records.
    pub cq: CompletionQueue,
    /// Local GPUs.
    pub cuda: Vec<Rc<RefCell<CudaDevice>>>,
    /// Host memory.
    pub hostmem: Rc<RefCell<Memory>>,
}

/// Scheduling facilities handed to a host program.
pub struct HostApi<'a, 'b> {
    /// Current simulated time.
    pub now: SimTime,
    ctx: &'a mut Ctx<'b, Msg>,
    card: ActorId,
    self_id: ActorId,
    trace: &'a SharedSink,
}

impl HostApi<'_, '_> {
    /// Submit a TX descriptor to the local card after `delay` (usually the
    /// host cost of the `put()` that produced it). Traces the span-birth
    /// `SUBMIT` at the current time — before the host-side cost — so the
    /// ledger can attribute descriptor-build and doorbell-batch delay.
    pub fn submit(&mut self, delay: SimDuration, desc: TxDesc) {
        if self.trace.enabled() {
            self.trace.record(
                self.now,
                "host",
                tk::SUBMIT,
                Some(desc.msg.span()),
                TracePayload::Msg { len: desc.len },
            );
        }
        self.ctx
            .send(self.card, delay, Msg::Card(CardIn::TxSubmit(desc)));
    }

    /// Submit a GET (RDMA-Read) descriptor to the local card after
    /// `delay` (the host cost of the `get()` that produced it). The
    /// completion arrives as a normal `Delivered` for the same message
    /// id once the remote reply stream finishes assembling.
    pub fn submit_get(&mut self, delay: SimDuration, desc: GetDesc) {
        if self.trace.enabled() {
            self.trace.record(
                self.now,
                "host",
                tk::SUBMIT,
                Some(desc.msg.span()),
                TracePayload::Msg { len: desc.len },
            );
        }
        self.ctx
            .send(self.card, delay, Msg::Card(CardIn::GetSubmit(desc)));
    }

    /// Schedule a wake-up for this host program.
    pub fn wake(&mut self, delay: SimDuration, tag: u64) {
        self.ctx
            .send(self.self_id, delay, Msg::Host(HostIn::Wake(tag)));
    }
}

/// A host-resident program: benchmark harnesses and applications
/// implement this.
pub trait HostProgram {
    /// Called once at simulation start.
    fn start(&mut self, node: &mut NodeCtx, api: &mut HostApi<'_, '_>);
    /// Called for every notification or wake-up.
    fn on_event(&mut self, ev: HostIn, node: &mut NodeCtx, api: &mut HostApi<'_, '_>);
}

/// A host program that does nothing (pure receiver nodes).
pub struct IdleProgram;

impl HostProgram for IdleProgram {
    fn start(&mut self, _node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {}
    fn on_event(&mut self, _ev: HostIn, _node: &mut NodeCtx, _api: &mut HostApi<'_, '_>) {}
}

/// The host actor: owns the node context and drives its program.
pub struct HostActor {
    /// The node context (public for post-run inspection).
    pub node: NodeCtx,
    program: Box<dyn HostProgram>,
    card: ActorId,
    trace: SharedSink,
}

impl HostActor {
    /// Wrap a node context and program; `card` is the local card actor.
    pub fn new(node: NodeCtx, program: Box<dyn HostProgram>, card: ActorId) -> Self {
        HostActor {
            node,
            program,
            card,
            trace: SharedSink::null(),
        }
    }

    /// Attach a trace sink: host submits record span-birth `SUBMIT`
    /// events into it (shared with the cards' sink by the builder).
    pub fn set_trace(&mut self, sink: SharedSink) {
        self.trace = sink;
    }
}

impl Actor<Msg> for HostActor {
    fn on_event(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
        let Msg::Host(ev) = ev else {
            panic!("host actor received a card event");
        };
        // Record completions before the program sees them.
        match &ev {
            HostIn::Delivered { msg, len, .. } => {
                self.node.cq.push_delivered(*msg, ctx.now(), *len);
            }
            HostIn::TxDone { msg } => {
                self.node.cq.push_tx_done(*msg, ctx.now());
            }
            _ => {}
        }
        let self_id = ctx.self_id();
        let mut api = HostApi {
            now: ctx.now(),
            ctx,
            card: self.card,
            self_id,
            trace: &self.trace,
        };
        match ev {
            HostIn::Start => self.program.start(&mut self.node, &mut api),
            other => self.program.on_event(other, &mut self.node, &mut api),
        }
    }

    fn name(&self) -> &str {
        "host"
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// The closed actor set of a cluster simulation. The cluster registers
/// this enum (not boxed trait objects) with the engine, so every event
/// dispatch is a single match on the variant — static dispatch into the
/// card or host code — instead of a vtable call. [`CardActor`] and
/// [`HostActor`] still implement [`Actor`] directly, which keeps them
/// usable in boxed unit rigs. Variants box their payload: a card is
/// ~3 KB of state, and the engine checks the target actor out of its
/// slab slot by move on every dispatch — boxing keeps that checkout a
/// pointer move while the match itself stays static (no vtable).
pub enum ClusterActor {
    /// A card (datapath) actor.
    Card(Box<CardActor>),
    /// A host (program) actor.
    Host(Box<HostActor>),
}

impl ClusterActor {
    /// The card inside, if this is a card actor.
    pub fn as_card(&self) -> Option<&CardActor> {
        match self {
            ClusterActor::Card(c) => Some(c),
            ClusterActor::Host(_) => None,
        }
    }

    /// The host inside, if this is a host actor.
    pub fn as_host(&self) -> Option<&HostActor> {
        match self {
            ClusterActor::Host(h) => Some(h),
            ClusterActor::Card(_) => None,
        }
    }
}

impl Actor<Msg> for ClusterActor {
    fn on_event(&mut self, ev: Msg, ctx: &mut Ctx<'_, Msg>) {
        match self {
            ClusterActor::Card(c) => c.on_event(ev, ctx),
            ClusterActor::Host(h) => h.on_event(ev, ctx),
        }
    }

    fn name(&self) -> &str {
        match self {
            ClusterActor::Card(c) => c.name(),
            ClusterActor::Host(h) => h.name(),
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        match self {
            ClusterActor::Card(c) => c.as_any(),
            ClusterActor::Host(h) => h.as_any(),
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        match self {
            ClusterActor::Card(c) => c.as_any_mut(),
            ClusterActor::Host(h) => h.as_any_mut(),
        }
    }
}

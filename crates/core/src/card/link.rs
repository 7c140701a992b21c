//! The go-back-N link layer of every port: sequence numbers, replay
//! buffers, ACK/NAK credits, retransmit timers and fault injection.
//!
//! `cfg.link_retrans` (the kill switch) is read only where a frame enters
//! the layer: `link_send` on transmit and `link_rx_data` on
//! receive. With it off no card sends an ACK or NAK and none arms a
//! timer, so the ACK/NAK/timer handlers never run.
//!
//! On a clean cable — both end cards unarmed, decided once by the
//! cluster at build time — an ACK only frees replay slots, so it is
//! settled in closed form instead of scheduled: the receiver posts it to
//! the sender's [`AckLedger`] under the `(due, seq)` dispatch position
//! the ACK event would have had, and the sender applies every posted ACK
//! that precedes the event it is handling (or, read from outside any
//! event, every ACK due by then). The sender's replay buffer on such a
//! cable holds counts, not packet clones.

use super::{Card, CardIn, CardOut, PortOccupancy};
use crate::config::CardConfig;
use crate::coord::Coord;
use crate::packet::ApePacket;
use crate::torus::{LinkFrame, LinkMsg, Port, TorusLink, NUM_PORTS};
use apenet_sim::fault::{self, FaultInjector};
use apenet_sim::rng::Xoshiro256ss;
use apenet_sim::trace::{kind as tk, TracePayload};
use apenet_sim::{Bandwidth, Outbox, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Consecutive barren retransmit timeouts after which a cable port with
/// route-around off is retired. At the default 100 µs RTO, capped at
/// 64× backoff, that is about 70 ms without ACK progress; recovering
/// cables in the shipped runs peak at 3.
pub(super) const RETRY_LIMIT: u32 = 16;

/// One closed-form ACK: the cumulative `upto` an ACK event would have
/// carried, at the `(due, seq)` position it would have been dispatched.
#[derive(Debug, Clone, Copy)]
struct ClosedAck {
    due: SimTime,
    seq: u64,
    upto: u64,
}

/// The closed-form ACKs posted to one card by the receivers at the far
/// end of its clean cables, one FIFO per egress port. A receiver posts
/// in dispatch order at a constant cable latency, so each FIFO is sorted
/// by `(due, seq)`.
#[derive(Debug, Default)]
struct LedgerQueues {
    ports: [VecDeque<ClosedAck>; NUM_PORTS],
    len: usize,
}

/// Shared handle on a card's closed-form ACK ledger (see the module
/// docs). The card reads it; its clean neighbours post to it.
#[derive(Debug, Clone)]
pub struct AckLedger(Rc<LedgerInner>);

#[derive(Debug)]
struct LedgerInner {
    /// Earliest due time over the FIFO heads (`SimTime::MAX` when
    /// empty), so the per-event check is one load.
    next_due: Cell<SimTime>,
    queues: RefCell<LedgerQueues>,
}

impl Default for AckLedger {
    fn default() -> Self {
        AckLedger(Rc::new(LedgerInner {
            next_due: Cell::new(SimTime::MAX),
            queues: RefCell::default(),
        }))
    }
}

impl AckLedger {
    /// Post the ACK of frames `< upto` sent on egress port `pi`.
    fn post(&self, pi: usize, ack: ClosedAck) {
        let mut q = self.0.queues.borrow_mut();
        debug_assert!(
            q.ports[pi]
                .back()
                .is_none_or(|b| (b.due, b.seq) < (ack.due, ack.seq)),
            "closed-form ACKs are posted in dispatch order"
        );
        q.ports[pi].push_back(ack);
        q.len += 1;
        self.0.next_due.set(self.0.next_due.get().min(ack.due));
    }

    /// Posted ACKs not yet applied.
    pub fn len(&self) -> usize {
        self.0.queues.borrow().len
    }

    /// True when every posted ACK was applied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Due time of the latest posted, unapplied ACK.
    pub fn horizon(&self) -> Option<SimTime> {
        let q = self.0.queues.borrow();
        q.ports.iter().filter_map(|p| p.back()).map(|a| a.due).max()
    }

    /// Take every posted ACK that precedes dispatch position
    /// `(now, seq)`, handing each to `apply` as `(port, upto)` in
    /// posting order per port.
    fn take_before(&self, now: SimTime, seq: u64, mut apply: impl FnMut(usize, u64)) {
        let inner = &self.0;
        if inner.next_due.get() > now {
            return;
        }
        let mut q = inner.queues.borrow_mut();
        let LedgerQueues { ports, len } = &mut *q;
        let mut next_due = SimTime::MAX;
        for (pi, fifo) in ports.iter_mut().enumerate() {
            while let Some(a) = fifo.front().copied() {
                if (a.due, a.seq) >= (now, seq) {
                    next_due = next_due.min(a.due);
                    break;
                }
                fifo.pop_front();
                *len -= 1;
                apply(pi, a.upto);
            }
        }
        inner.next_due.set(next_due);
    }
}

/// Transmit side of one port's go-back-N channel.
#[derive(Debug, Default)]
struct LinkTxState {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Lowest unacknowledged sequence number.
    base: u64,
    /// Clean (pre-corruption) copies of the unacknowledged frames
    /// `base..next_seq`, in order. Clones only bump payload refcounts, so
    /// the replay buffer costs no byte copies. Empty on a clean cable,
    /// where nothing is ever replayed and `next_seq - base` is the count.
    replay: VecDeque<ApePacket>,
    /// The port's cable is clean: its ACKs arrive in closed form and the
    /// replay buffer keeps counts only.
    clean: bool,
    /// Frames waiting for window credit, with their from-drain flag (a
    /// from-drain frame owes a `DrainNext` when it finally serializes).
    pending: VecDeque<(ApePacket, bool)>,
    /// Timer epoch; bumped whenever the window advances so in-flight
    /// timer events for the old window are ignored.
    epoch: u64,
    /// A timer event for the current epoch is outstanding.
    timer_live: bool,
    /// Consecutive barren timeouts (drives exponential backoff).
    consec_timeouts: u32,
}

impl LinkTxState {
    /// Unacknowledged frames held for replay.
    fn held(&self) -> usize {
        if self.clean {
            (self.next_seq - self.base) as usize
        } else {
            self.replay.len()
        }
    }

    /// Release acknowledged frames `< upto` from the replay buffer.
    /// Returns true when the window advanced.
    fn release_acked(&mut self, upto: u64) -> bool {
        if upto <= self.base {
            return false;
        }
        let acked = ((upto - self.base) as usize).min(self.held());
        if !self.clean {
            self.replay.drain(..acked);
        }
        self.base += acked as u64;
        self.consec_timeouts = 0;
        self.epoch += 1;
        self.timer_live = false;
        true
    }
}

/// Receive side of one port's go-back-N channel.
#[derive(Debug, Default)]
struct LinkRxState {
    /// Next expected sequence number.
    expect: u64,
    /// Sequence number we already NAKed (suppresses a NAK storm while a
    /// burst of in-flight frames behind one lost frame arrives); cleared
    /// when `expect` advances, so the retransmit timeout remains the
    /// backstop if the replayed frame is damaged again.
    nakked: Option<u64>,
}

/// The link stage's state: the wired torus links, both halves of every
/// port's go-back-N channel, and the fault sources that damage frames.
pub(super) struct LinkStage {
    /// Outgoing torus link per direction (`None` = unwired).
    pub(super) links_out: [Option<Rc<RefCell<TorusLink>>>; 6],
    tx: [LinkTxState; NUM_PORTS],
    rx: [LinkRxState; NUM_PORTS],
    pub(super) injectors: [Option<FaultInjector>; NUM_PORTS],
    /// Closed-form ACKs owed to this card by its clean cables' far ends.
    ledger: AckLedger,
    /// Per ingress port on a clean cable: the far card's ledger and the
    /// egress port there that the ACKs of this port's frames free.
    ack_to: [Option<(AckLedger, usize)>; NUM_PORTS],
    /// Any fault source is configured (legacy periodic corruption, an
    /// injector on some port, or an admin kill schedule). When false, no
    /// retransmit timers are ever armed and no window holds frames back,
    /// so healthy runs schedule zero extra timing-relevant events. Set
    /// only by `LinkStage::arm`.
    fault_active: bool,
    /// Seeded RNG for the legacy periodic corruption's position/mask.
    fault_rng: Xoshiro256ss,
    /// Fresh transmissions since the last legacy corruption.
    tx_since_fault: u32,
}

impl LinkStage {
    pub(super) fn new(cfg: &CardConfig, coord: Coord) -> Self {
        let coord_salt = ((coord.x as u64) << 16) | ((coord.y as u64) << 8) | coord.z as u64;
        let mut link = LinkStage {
            links_out: Default::default(),
            tx: Default::default(),
            rx: Default::default(),
            injectors: Default::default(),
            ledger: AckLedger::default(),
            ack_to: Default::default(),
            fault_active: false,
            fault_rng: Xoshiro256ss::seed_from(fault::derive_seed(cfg.fault_seed, coord_salt)),
            tx_since_fault: 0,
        };
        if cfg.tx_bit_error_every.is_some() {
            link.arm();
        }
        link
    }

    /// Arm the fault plane: from here on frames are windowed and
    /// retransmit timers run. The one place the plane is switched on —
    /// legacy corruption at construction, an attached injector, an
    /// explicit arming for kill schedules, and an admin cable kill all
    /// come through here.
    pub(super) fn arm(&mut self) {
        assert!(
            self.ack_to.iter().all(Option::is_none),
            "a card with clean cables cannot be armed: they settle ACKs in closed form"
        );
        self.fault_active = true;
    }

    /// Any fault source is configured on this card.
    pub(super) fn armed(&self) -> bool {
        self.fault_active
    }

    /// Point-in-time go-back-N occupancy of port `pi`.
    pub(super) fn port_occupancy(&self, pi: usize, wire_bytes: u64) -> PortOccupancy {
        let st = &self.tx[pi];
        PortOccupancy {
            replay: st.held(),
            pending: st.pending.len(),
            in_flight: st.next_seq - st.base,
            wire_bytes,
        }
    }

    /// Retire port `pi`: take its replay then pending frames (with their
    /// from-drain flags), stale its timers and reset its receive side.
    pub(super) fn retire(&mut self, pi: usize) -> Vec<(ApePacket, bool)> {
        let st = &mut self.tx[pi];
        debug_assert!(!st.clean, "a clean cable never fails");
        let mut frames: Vec<(ApePacket, bool)> = st.replay.drain(..).map(|p| (p, false)).collect();
        frames.extend(st.pending.drain(..));
        st.epoch += 1; // in-flight timer events for this port go stale
        st.timer_live = false;
        self.rx[pi] = LinkRxState::default();
        frames
    }

    /// Apply every closed-form ACK that precedes dispatch position
    /// `(now, seq)`, in order.
    pub(super) fn settle_acks(&mut self, now: SimTime, seq: u64) {
        let tx = &mut self.tx;
        self.ledger.take_before(now, seq, |pi, upto| {
            tx[pi].release_acked(upto);
        });
    }
}

impl Card {
    /// Legacy fault injection: flip a payload bit in every Nth freshly
    /// transmitted packet when configured (models a marginal cable; the
    /// receiver's CRC must catch it). Position and mask come from the
    /// card's seeded fault RNG — a real marginal cable flips arbitrary
    /// bits, not always the middle one. Applies to loop-back traffic too.
    fn maybe_corrupt(&mut self, mut packet: ApePacket) -> ApePacket {
        if let Some(n) = self.cfg.tx_bit_error_every {
            let link = &mut self.link;
            link.tx_since_fault += 1;
            if link.tx_since_fault >= n && !packet.is_empty() {
                link.tx_since_fault = 0;
                let idx = link.fault_rng.next_below(packet.len()) as usize;
                let mask = 1u8 << link.fault_rng.next_below(8);
                // Copy-on-write: only this fragment is duplicated; the
                // source buffer and sibling fragments stay shared.
                packet.payload_mut()[idx] ^= mask;
            }
        }
        packet
    }

    /// Hand a packet to the link layer of `port`. With retransmission on,
    /// the frame gets a sequence number and a replay-buffer slot (or
    /// queues for window credit); with the kill switch thrown it goes on
    /// the wire raw, exactly like the pre-reliability datapath.
    ///
    /// `ready` is the earliest serialization start (`now` from the TX
    /// FIFO drain, `now + router_forward` for transit packets);
    /// `from_drain` frames owe a `DrainNext` when they serialize.
    pub(super) fn link_send(
        &mut self,
        port: Port,
        mut packet: ApePacket,
        ready: SimTime,
        now: SimTime,
        from_drain: bool,
        out: &mut Outbox<CardOut>,
    ) {
        let pi = port.index();
        // ECN-style marking: every hop a frame crosses checks its egress
        // port's queue depth (replay backlog + frames parked for window
        // credit) against the overload high-water mark. CNP echoes are
        // never marked — congestion must not breed congestion traffic.
        if let Some(ov) = self.cfg.overload {
            if !packet.is_cnp() && !packet.ecn {
                let st = &self.link.tx[pi];
                if (st.held() + st.pending.len()) as u32 >= ov.port_highwater {
                    packet.mark_ecn();
                    self.stats.ecn_marked += 1;
                }
            }
        }
        if !self.cfg.link_retrans {
            self.transmit_data(port, 0, packet, ready, now, from_drain, false, out);
            return;
        }
        // The window is enforced only while fault injection is armed: on
        // a fault-free run nothing is ever lost, so holding frames back
        // buys no reliability but would defer link reservations to
        // ACK-arrival times and reorder them against competing port
        // users — shifting golden timing. ACKs still continuously clear
        // the replay buffer, which stays bounded by the in-flight count.
        let windowed = self.link.fault_active;
        let st = &mut self.link.tx[pi];
        if windowed
            && (!st.pending.is_empty() || st.next_seq - st.base >= self.cfg.link_window as u64)
        {
            st.pending.push_back((packet, from_drain));
            return;
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        if !st.clean {
            st.replay.push_back(packet.clone());
        }
        self.transmit_data(port, seq, packet, ready, now, from_drain, false, out);
        self.arm_timer(port, out);
    }

    /// Put one data frame on the wire: apply fault injection (legacy
    /// periodic corruption only on fresh transmissions — replays resend
    /// the clean replay-buffer copy), burn the serialization slot, and
    /// schedule the arrival unless the frame was dropped.
    #[allow(clippy::too_many_arguments)]
    fn transmit_data(
        &mut self,
        port: Port,
        seq: u64,
        packet: ApePacket,
        ready: SimTime,
        now: SimTime,
        from_drain: bool,
        is_retrans: bool,
        out: &mut Outbox<CardOut>,
    ) {
        let pi = port.index();
        let mut wire = if is_retrans {
            packet
        } else {
            self.maybe_corrupt(packet)
        };
        let mut ready = ready;
        let mut dropped = false;
        let counters = &mut self.stats.links[pi];
        if let Some(inj) = self.link.injectors[pi].as_mut() {
            let fate = inj.data_frame();
            if let Some(d) = fate.stall {
                // A stall delays the serialization start; everything
                // behind the frame backs up naturally through the link's
                // busy window (or the loop-back drain).
                ready += d;
                counters.injected_stalls += 1;
                counters.stall_ps += d.as_ps();
            }
            if fate.drop {
                dropped = true;
                counters.injected_drops += 1;
            } else if let Some(c) = fate.corrupt {
                if !wire.is_empty() {
                    let idx = (c.pos % wire.len()) as usize;
                    wire.payload_mut()[idx] ^= c.mask;
                    counters.injected_corrupt += 1;
                }
            }
        }
        counters.data_frames += 1;
        counters.wire_bytes += wire.wire_bytes();
        if is_retrans {
            counters.retransmits += 1;
        }
        self.record(
            ready,
            tk::FRAME_TX,
            wire.msg,
            TracePayload::Frame {
                seq,
                wire: wire.wire_bytes(),
                retrans: is_retrans,
            },
        );
        match port {
            Port::Loopback => {
                let serialize = Bandwidth::from_gb_per_sec(4).time_for(wire.wire_bytes());
                let drain_at = ready + serialize;
                if !dropped {
                    let arrive = drain_at + self.cfg.loopback_transit;
                    out.push(
                        arrive.since(now),
                        CardOut::ToSelf(CardIn::LinkRx {
                            port: Port::Loopback,
                            msg: LinkMsg::Data(LinkFrame { seq, packet: wire }),
                        }),
                    );
                }
                if from_drain {
                    out.push(drain_at.since(now), CardOut::ToSelf(CardIn::DrainNext));
                }
            }
            Port::Link(dir) => {
                let Some(link) = self.link.links_out[dir.index()].as_ref().cloned() else {
                    // An unwired direction (a mis-built cluster) used to
                    // be a panic; surface it and keep the drain alive.
                    self.drop_unreachable(&wire, from_drain, out);
                    return;
                };
                let slot = link.borrow_mut().reserve(ready, wire.wire_bytes());
                // A cut or declared-dead cable swallows the frame: the
                // SerDes still burns its serialization slot (the card
                // does not know yet), but nothing reaches the far end.
                if !dropped && !self.route.down(pi) {
                    out.push(
                        slot.arrive.since(now),
                        CardOut::TorusSend {
                            dir,
                            msg: LinkMsg::Data(LinkFrame { seq, packet: wire }),
                        },
                    );
                }
                if from_drain {
                    out.push(
                        slot.depart_end.since(now),
                        CardOut::ToSelf(CardIn::DrainNext),
                    );
                }
            }
        }
    }

    /// Emit a control symbol (ACK/NAK credit, keepalive ping/pong,
    /// link-state notification) on `port`, back toward the card at its
    /// far end. Control symbols ride the out-of-band control channel:
    /// they pay cable (or switch-transit) latency but occupy no data wire
    /// slots, so healthy-run data timing is untouched.
    pub(super) fn send_control(&mut self, port: Port, msg: LinkMsg, out: &mut Outbox<CardOut>) {
        let pi = port.index();
        if self.route.down(pi) {
            return; // the cable is gone: control symbols vanish with it
        }
        if let Some(inj) = self.link.injectors[pi].as_mut() {
            if inj.control_frame() {
                self.stats.links[pi].injected_drops += 1;
                return;
            }
        }
        match port {
            Port::Link(dir) => out.push(self.cfg.link_latency, CardOut::TorusSend { dir, msg }),
            Port::Loopback => out.push(
                self.cfg.loopback_transit,
                CardOut::ToSelf(CardIn::LinkRx {
                    port: Port::Loopback,
                    msg,
                }),
            ),
        }
    }

    /// Acknowledge frames `< upto` received on `port`: a control symbol
    /// back to the sender, or on a clean cable a closed-form ACK that
    /// the cluster posts to the sender's ledger at the same latency.
    fn send_ack(&mut self, port: Port, upto: u64, out: &mut Outbox<CardOut>) {
        if self.link.ack_to[port.index()].is_none() {
            self.send_control(port, LinkMsg::Ack { upto }, out);
            return;
        }
        let latency = match port {
            Port::Link(_) => self.cfg.link_latency,
            Port::Loopback => self.cfg.loopback_transit,
        };
        out.push(latency, CardOut::ClosedAck { port, upto });
    }

    /// Post a closed-form ACK of frames `< upto` received on `port` to
    /// the sender's ledger, at the dispatch position `(due, seq)` the
    /// ACK event would have had.
    pub fn post_closed_ack(&self, port: Port, due: SimTime, seq: u64, upto: u64) {
        let (ledger, far) = self.link.ack_to[port.index()]
            .as_ref()
            .expect("closed-form ACKs only leave clean cables");
        ledger.post(*far, ClosedAck { due, seq, upto });
    }

    /// Apply every closed-form ACK posted to this card that precedes
    /// dispatch position `(now, seq)`. The cluster calls it before each
    /// event of this card, and with `seq = u64::MAX` before reading the
    /// card from outside any event at `now`.
    pub fn settle_acks(&mut self, now: SimTime, seq: u64) {
        self.link.settle_acks(now, seq);
    }

    /// This card's closed-form ACK ledger.
    pub fn ack_ledger(&self) -> AckLedger {
        self.link.ledger.clone()
    }

    /// Declare `port`'s cable clean: both end cards are unarmed (no
    /// injector, no kill plan, no legacy corruption), so nothing on it
    /// is ever lost. From here on the port's replay buffer keeps counts
    /// only, and the ACKs of frames arriving on it go in closed form to
    /// `far`, the ledger of the card at the other end, whose egress port
    /// `far_port` sent them.
    pub fn close_cable(&mut self, port: Port, far: AckLedger, far_port: Port) {
        assert!(!self.link.armed(), "an armed card's cables are not clean");
        let pi = port.index();
        self.link.tx[pi].clean = true;
        self.link.ack_to[pi] = Some((far, far_port.index()));
    }

    /// Arm the retransmit timer of `port` if it has unacknowledged frames
    /// and no live timer. Timers exist only while fault injection is
    /// possible: a fault-free run never schedules one, so the reliability
    /// layer adds zero events to golden-timing runs.
    fn arm_timer(&mut self, port: Port, out: &mut Outbox<CardOut>) {
        if !self.link.fault_active || self.route.dead(port.index()) {
            return;
        }
        let st = &mut self.link.tx[port.index()];
        if st.timer_live || st.replay.is_empty() {
            return;
        }
        st.timer_live = true;
        let shift = st.consec_timeouts.min(6);
        let delay = SimDuration::from_ps(self.cfg.link_rto.as_ps() << shift);
        out.push(
            delay,
            CardOut::ToSelf(CardIn::LinkTimeout {
                port,
                epoch: st.epoch,
            }),
        );
    }

    /// Cumulative ACK: free replay slots, then let queued frames use the
    /// new window credit.
    fn handle_ack(&mut self, port: Port, upto: u64, now: SimTime, out: &mut Outbox<CardOut>) {
        if self.link.tx[port.index()].release_acked(upto) {
            self.flush_pending(port, now, out);
        }
        self.arm_timer(port, out);
    }

    /// NAK: the receiver is stuck at `expect`. Treat it as a cumulative
    /// ACK for everything below, then go-back-N replay the rest.
    fn handle_nak(&mut self, port: Port, expect: u64, now: SimTime, out: &mut Outbox<CardOut>) {
        let st = &mut self.link.tx[port.index()];
        if expect < st.base {
            return; // stale: already acknowledged past it
        }
        st.release_acked(expect);
        self.replay_window(port, now, out);
        self.flush_pending(port, now, out);
        self.arm_timer(port, out);
    }

    /// Retransmit timer: if the epoch still matches (no progress since
    /// arming), replay the whole window. Recovers dropped data frames
    /// *and* dropped ACK/NAK credits.
    pub(super) fn handle_timeout(
        &mut self,
        port: Port,
        epoch: u64,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let pi = port.index();
        if self.route.dead(pi) {
            return; // retired port; its frames were requeued already
        }
        let st = &mut self.link.tx[pi];
        if epoch != st.epoch {
            return; // stale timer from a since-advanced window
        }
        st.timer_live = false;
        if st.replay.is_empty() {
            return;
        }
        st.consec_timeouts += 1;
        st.epoch += 1;
        let barren = st.consec_timeouts;
        self.stats.links[pi].timeouts += 1;
        if let Port::Link(dir) = port {
            if !self.cfg.route_around_faults && barren >= RETRY_LIMIT {
                self.mark_own_port_dead(dir, now, out);
                return;
            }
        }
        if self.keepalive_miss(port, now, out) {
            return;
        }
        self.replay_window(port, now, out);
        self.arm_timer(port, out);
    }

    /// Replay every unacknowledged frame of `port`, in sequence order.
    fn replay_window(&mut self, port: Port, now: SimTime, out: &mut Outbox<CardOut>) {
        let st = &self.link.tx[port.index()];
        let base = st.base;
        let frames: Vec<ApePacket> = st.replay.iter().cloned().collect();
        for (i, p) in frames.into_iter().enumerate() {
            self.transmit_data(port, base + i as u64, p, now, now, false, true, out);
        }
    }

    /// Move frames from the pending queue into freed window slots.
    fn flush_pending(&mut self, port: Port, now: SimTime, out: &mut Outbox<CardOut>) {
        let pi = port.index();
        loop {
            let st = &mut self.link.tx[pi];
            if st.pending.is_empty() || st.next_seq - st.base >= self.cfg.link_window as u64 {
                return;
            }
            let (packet, from_drain) = st.pending.pop_front().expect("checked non-empty");
            let seq = st.next_seq;
            st.next_seq += 1;
            st.replay.push_back(packet.clone());
            self.transmit_data(port, seq, packet, now, now, from_drain, false, out);
        }
    }

    /// A link-layer frame arrived on `port`: data, a credit, or a
    /// link-health symbol.
    pub(super) fn link_rx(
        &mut self,
        port: Port,
        msg: LinkMsg,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        if !self.route.ingress(port.index()) {
            return; // frames in flight when the cable died are lost
        }
        match msg {
            LinkMsg::Data(frame) => self.link_rx_data(port, frame, now, out),
            LinkMsg::Ack { upto } => self.handle_ack(port, upto, now, out),
            LinkMsg::Nak { expect } => self.handle_nak(port, expect, now, out),
            LinkMsg::Ping { nonce } => self.send_control(port, LinkMsg::Pong { nonce }, out),
            // Reaching a live port was the whole point.
            LinkMsg::Pong { .. } => {}
            LinkMsg::LinkDown { origin, dir } => {
                self.handle_link_down(Some(port), origin, dir, now, out)
            }
        }
    }

    /// A data frame arrived on `port`: verify, sequence-check, ACK/NAK,
    /// and deliver in-order frames up to the routing layer.
    fn link_rx_data(
        &mut self,
        port: Port,
        frame: LinkFrame,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let pi = port.index();
        if !self.cfg.link_retrans {
            // Kill-switch mode: the pre-reliability datapath — a CRC
            // failure drops the packet on the floor.
            if !frame.packet.verify() {
                self.stats.links[pi].crc_dropped += 1;
                return;
            }
            self.record_frame_rx(&frame, now);
            self.deliver_up(frame.packet, now, out);
            return;
        }
        if !frame.packet.verify() {
            self.send_nak(port, out);
            return;
        }
        let rx = &mut self.link.rx[pi];
        if frame.seq == rx.expect {
            rx.expect += 1;
            rx.nakked = None;
            let upto = rx.expect;
            self.send_ack(port, upto, out);
            self.record_frame_rx(&frame, now);
            self.deliver_up(frame.packet, now, out);
        } else if frame.seq < rx.expect {
            // Duplicate (a replay raced our ACK): discard and re-ACK so
            // the sender's window still advances. This is the hop-level
            // exactly-once guarantee.
            let upto = rx.expect;
            self.stats.links[pi].dup_frames += 1;
            self.send_ack(port, upto, out);
        } else {
            // Sequence gap: an earlier frame was lost on the wire.
            self.send_nak(port, out);
        }
    }

    /// Trace the in-order acceptance of a data frame.
    fn record_frame_rx(&self, frame: &LinkFrame, now: SimTime) {
        self.record(
            now,
            tk::FRAME_RX,
            frame.packet.msg,
            TracePayload::Frame {
                seq: frame.seq,
                wire: frame.packet.wire_bytes(),
                retrans: false,
            },
        );
    }

    /// NAK the current expected sequence number, once per gap.
    fn send_nak(&mut self, port: Port, out: &mut Outbox<CardOut>) {
        let pi = port.index();
        let rx = &mut self.link.rx[pi];
        let expect = rx.expect;
        if rx.nakked == Some(expect) {
            return;
        }
        rx.nakked = Some(expect);
        self.stats.links[pi].naks_sent += 1;
        self.send_control(port, LinkMsg::Nak { expect }, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ps: u64) -> SimTime {
        SimTime::from_ps(ps)
    }

    fn post(l: &AckLedger, pi: usize, due: u64, seq: u64, upto: u64) {
        l.post(
            pi,
            ClosedAck {
                due: at(due),
                seq,
                upto,
            },
        );
    }

    fn take(l: &AckLedger, now: u64, seq: u64) -> Vec<(usize, u64)> {
        let mut got = Vec::new();
        l.take_before(at(now), seq, |pi, upto| got.push((pi, upto)));
        got
    }

    #[test]
    fn acks_apply_strictly_before_the_dispatch_position() {
        let l = AckLedger::default();
        post(&l, 0, 100, 7, 1);
        post(&l, 0, 100, 9, 2);
        post(&l, 3, 100, 8, 5);
        post(&l, 0, 250, 12, 3);
        assert_eq!((l.len(), l.horizon()), (4, Some(at(250))));
        // Nothing is due before t = 100.
        assert_eq!(take(&l, 99, u64::MAX), []);
        // At t = 100 an event of seq 8 follows the ACK of seq 7 only;
        // the ACKs of seq 8 and 9 come after it.
        assert_eq!(take(&l, 100, 8), [(0, 1)]);
        assert_eq!(take(&l, 100, 8), []);
        // Read from outside any event at t = 100: every ACK due by then.
        assert_eq!(take(&l, 100, u64::MAX), [(0, 2), (3, 5)]);
        assert_eq!((l.len(), l.horizon()), (1, Some(at(250))));
        assert_eq!(take(&l, 1_000, 0), [(0, 3)]);
        assert!(l.is_empty() && l.horizon().is_none());
    }
}

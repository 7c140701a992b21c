//! Routing and link health: dimension-order and fault-aware next hops,
//! cable state, keepalive escalation and the link-state flood.

use super::{Card, CardError, CardIn, CardOut};
use crate::coord::{Coord, FaultMap, LinkDir, RouteChoice};
use crate::packet::ApePacket;
use crate::torus::{LinkMsg, Port, NUM_PORTS};
use apenet_sim::trace::{kind as tk, TracePayload};
use apenet_sim::{Outbox, SimDuration, SimTime};

/// The routing stage's state: which cables are gone, as far as this card
/// knows or has been told.
#[derive(Default)]
pub(super) struct RouteStage {
    /// Physically severed cables (admin kill): TX is swallowed, RX is
    /// ignored. The card does not *know* — detection is the keepalive
    /// plane's job.
    cable_cut: [bool; NUM_PORTS],
    /// Ports this card has declared dead (own keepalive escalation or a
    /// neighbour's `LinkDown` about a shared cable). Dead ports never
    /// re-arm timers, so the event stream stays bounded.
    port_dead: [bool; NUM_PORTS],
    /// Unanswered keepalive probes per port; any ingress traffic resets.
    probes: [u32; NUM_PORTS],
    /// Nonce source for keepalive pings.
    ping_nonce: u64,
    /// The mesh-wide dead-link map this card has converged on.
    pub(super) fault_map: FaultMap,
}

impl RouteStage {
    /// Port `pi` was declared dead by this card.
    pub(super) fn dead(&self, pi: usize) -> bool {
        self.port_dead[pi]
    }

    /// Port `pi` carries nothing: its cable is cut or it was declared dead.
    pub(super) fn down(&self, pi: usize) -> bool {
        self.cable_cut[pi] || self.port_dead[pi]
    }

    /// A frame arrived on port `pi`. On a live port that is proof of life
    /// and resets its keepalive probes; false means the port is down and
    /// the frame is lost.
    pub(super) fn ingress(&mut self, pi: usize) -> bool {
        if self.down(pi) {
            return false;
        }
        self.probes[pi] = 0;
        true
    }
}

impl Card {
    /// Send a non-local packet out of its egress port. With the fault
    /// plane on the port comes from the converged dead-link map: the
    /// packet may detour (counted) or be dropped as unreachable (typed
    /// error effect + counter; the RDMA watchdog turns that into a
    /// host-visible error completion), and a dropped `from_drain` packet
    /// frees its TX drain slot at once. With the plane off it is strict
    /// dimension order — minus the old panic.
    pub(super) fn route_send(
        &mut self,
        packet: ApePacket,
        ready: SimTime,
        now: SimTime,
        from_drain: bool,
        out: &mut Outbox<CardOut>,
    ) {
        let (msg, dst) = (packet.msg, packet.dst);
        let choice = if self.cfg.route_around_faults {
            self.dims
                .next_hop_faulty(self.coord, dst, &self.route.fault_map)
        } else {
            // Without route-around a retired port is a dead end.
            match self.dims.next_hop(self.coord, dst) {
                Some(d) if self.route.dead(Port::Link(d).index()) => RouteChoice::Unreachable,
                Some(d) => RouteChoice::Hop(d),
                None => RouteChoice::Local,
            }
        };
        let dir = match choice {
            RouteChoice::Hop(d) => d,
            RouteChoice::Detour(d) => {
                self.stats.detours += 1;
                self.record(now, tk::DETOUR, msg, TracePayload::None);
                d
            }
            // `Local` cannot happen (every caller checks dst != coord);
            // fold it into the dead-end path rather than panicking.
            RouteChoice::Unreachable | RouteChoice::Local => {
                return self.drop_unreachable(&packet, from_drain, out);
            }
        };
        self.link_send(Port::Link(dir), packet, ready, now, from_drain, out);
    }

    /// Drop a packet no port can carry: count it, surface the typed
    /// error, and free the TX drain slot a `from_drain` packet holds.
    pub(super) fn drop_unreachable(
        &mut self,
        packet: &ApePacket,
        from_drain: bool,
        out: &mut Outbox<CardOut>,
    ) {
        self.stats.unreachable_drops += 1;
        let (msg, dst) = (packet.msg, packet.dst);
        out.push(
            SimDuration::ZERO,
            CardOut::Error(CardError::Unreachable { msg, dst }),
        );
        if from_drain {
            out.push(SimDuration::ZERO, CardOut::ToSelf(CardIn::DrainNext));
        }
    }

    /// Administrative hard kill of `port`'s cable. The kill schedule arms
    /// the fault plane: from here on frames are windowed and timers run,
    /// so the keepalive detector can escalate.
    pub(super) fn admin_link_down(&mut self, port: Port) {
        self.route.cable_cut[port.index()] = true;
        self.link.arm();
    }

    /// Keepalive escalation on a retransmit timeout of `port`: a timeout
    /// means a whole (backed-off) RTO passed with no traffic back on this
    /// port — a dead cable and a neighbour stuck in go-back-N recovery
    /// look identical from here, so probe it. Any ingress on the port
    /// resets the count; enough consecutive silent RTOs and the port is
    /// declared dead, which this returns true for.
    pub(super) fn keepalive_miss(
        &mut self,
        port: Port,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) -> bool {
        let Port::Link(dir) = port else {
            return false;
        };
        if !self.cfg.route_around_faults {
            return false;
        }
        let pi = port.index();
        self.route.probes[pi] += 1;
        if self.route.probes[pi] >= self.cfg.keepalive_misses {
            // Declared dead here: the same merge, flood and retirement as
            // a neighbour's notification about this cable.
            self.handle_link_down(None, self.coord, dir, now, out);
            return true;
        }
        let nonce = self.route.ping_nonce;
        self.route.ping_nonce += 1;
        self.send_control(port, LinkMsg::Ping { nonce }, out);
        false
    }

    /// Retire one of this card's ports: stop its timers forever (bounding
    /// the event stream so the sim can quiesce), surface the typed error,
    /// and route its replay and pending frames again: around the cut
    /// with route-around on, else into `drop_unreachable` (strict
    /// dimension order has no other port). Replayed frames already
    /// produced their `DrainNext` when they first serialized; pending
    /// ones still owe theirs — even if they end up dropped as
    /// unreachable, the drain must advance.
    pub(super) fn mark_own_port_dead(
        &mut self,
        dir: LinkDir,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let pi = Port::Link(dir).index();
        if self.route.port_dead[pi] {
            return;
        }
        self.route.port_dead[pi] = true;
        self.stats.links_dead += 1;
        out.push(
            SimDuration::ZERO,
            CardOut::Error(CardError::LinkDead { dir }),
        );
        for (packet, from_drain) in self.link.retire(pi) {
            self.stats.requeued += 1;
            self.route_send(packet, now, now, from_drain, out);
        }
    }

    /// A cable died: merge both endpoint orientations into the fault map,
    /// flood the link-state notification (except back out of `ingress`,
    /// the port it arrived on) so the mesh converges, and — if the cable
    /// is one of ours, detected here or by the neighbour that won the
    /// race — retire our end too.
    pub(super) fn handle_link_down(
        &mut self,
        ingress: Option<Port>,
        origin: Coord,
        dir: LinkDir,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        if !self.cfg.route_around_faults || self.route.fault_map.contains(&(origin, dir)) {
            return;
        }
        let far = self.dims.neighbor(origin, dir);
        self.route.fault_map.insert((origin, dir));
        self.route.fault_map.insert((far, dir.opposite()));
        // Flood out of every live torus port. Receivers deduplicate by
        // fault-map membership, so the flood terminates after each card
        // re-emits each failure at most once.
        for d in LinkDir::ALL {
            let port = Port::Link(d);
            if Some(port) == ingress
                || self.route.down(port.index())
                || self.link.links_out[d.index()].is_none()
                || self.dims.neighbor(self.coord, d) == self.coord
            {
                continue;
            }
            self.send_control(port, LinkMsg::LinkDown { origin, dir }, out);
        }
        if origin == self.coord {
            self.mark_own_port_dead(dir, now, out);
        } else if far == self.coord {
            self.mark_own_port_dead(dir.opposite(), now, out);
        }
    }
}

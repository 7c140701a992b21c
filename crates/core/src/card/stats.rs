//! Datapath counters, metric ids and occupancy snapshots of the card.

use crate::torus::NUM_PORTS;

/// Per-port link-layer counters: retransmission activity and injected
/// degradation, the raw material of the effective-bandwidth reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Data frames put on the wire (first transmissions + replays).
    pub data_frames: u64,
    /// Wire bytes serialized onto the port (header + payload + CRC for
    /// every data frame, replays included). Cumulative, so a sampler
    /// can turn deltas into per-interval link utilization.
    pub wire_bytes: u64,
    /// Data frames replayed by go-back-N (NAK- or timeout-triggered).
    pub retransmits: u64,
    /// Retransmit-timer expirations that triggered a replay.
    pub timeouts: u64,
    /// NAKs sent by this port's receive side.
    pub naks_sent: u64,
    /// Duplicate data frames discarded (and re-ACKed) on receive.
    pub dup_frames: u64,
    /// Frames corrupted by the port's fault injector.
    pub injected_corrupt: u64,
    /// Frames (data or control) eaten by the port's fault injector.
    pub injected_drops: u64,
    /// Stall windows inserted by the port's fault injector.
    pub injected_stalls: u64,
    /// Total injected stall time in picoseconds.
    pub stall_ps: u64,
    /// Frames dropped on CRC failure (kill-switch mode only; with
    /// retransmission on, CRC failures turn into NAKs instead).
    pub crc_dropped: u64,
}

impl LinkStats {
    /// True when the port saw no retransmission activity and no injected
    /// damage — what every port of a healthy run must report.
    pub fn is_clean(&self) -> bool {
        self.retransmits == 0
            && self.timeouts == 0
            && self.naks_sent == 0
            && self.dup_frames == 0
            && self.injected_corrupt == 0
            && self.injected_drops == 0
            && self.injected_stalls == 0
            && self.stall_ps == 0
            && self.crc_dropped == 0
    }
}

/// Stable metric ids for the card's link-reliability counters in the
/// observability registry (see `apenet-obs`). Values are the per-port
/// [`LinkStats`] fields summed across ports; all-zero on clean runs — a
/// fault-free simulation never replays, NAKs, or stalls.
pub mod metrics {
    /// Data frames replayed by go-back-N.
    pub const RETRANSMITS: &str = "link.retransmits";
    /// Retransmit-timer expirations that triggered a replay.
    pub const TIMEOUTS: &str = "link.timeouts";
    /// NAKs sent.
    pub const NAKS_SENT: &str = "link.naks_sent";
    /// Duplicate data frames discarded on receive.
    pub const DUP_FRAMES: &str = "link.dup_frames";
    /// Frames corrupted by fault injectors.
    pub const INJECTED_CORRUPT: &str = "link.injected_corrupt";
    /// Frames eaten by fault injectors.
    pub const INJECTED_DROPS: &str = "link.injected_drops";
    /// Stall windows inserted by fault injectors.
    pub const INJECTED_STALLS: &str = "link.injected_stalls";
    /// Total injected stall time in picoseconds.
    pub const STALL_PS: &str = "link.stall_ps";
    /// Frames lost to CRC failure (kill-switch mode only).
    pub const CRC_DROPPED: &str = "link.crc_dropped";
    /// Ports declared dead (keepalive escalation or a neighbour's
    /// link-state notification about a shared cable).
    pub const LINK_DEAD: &str = "link.dead";
    /// Routing decisions that detoured off the strict dimension-order
    /// direction to avoid a dead link.
    pub const ROUTE_DETOUR: &str = "route.detour";
    /// Packets dropped because both arcs of a ring were cut.
    pub const ROUTE_UNREACHABLE: &str = "route.unreachable_drops";
    /// Frames moved off a dead port's replay/pending queues onto detours.
    pub const ROUTE_REQUEUED: &str = "route.requeued";
    /// Duplicate fragments suppressed end-to-end (a detour re-delivered a
    /// fragment whose first copy arrived before the cable died).
    pub const RX_DUP_FRAGMENTS: &str = "rx.dup_fragments";
    /// Completions held back by RX event-ring backpressure.
    pub const RX_RING_STALL: &str = "rx.ring_stall";
    /// GET requests injected by the local host (requester side).
    pub const GET_REQUESTS: &str = "get.requests";
    /// GET requests served (reply TX job started) by this card.
    pub const GET_SERVED: &str = "get.served";
    /// GET requests dropped because no registered buffer covered the
    /// requested range (the requester's watchdog recovers or escalates).
    pub const GET_UNMATCHED: &str = "get.unmatched";
    /// Duplicate GET requests suppressed while the first reply job was
    /// still streaming (a watchdog reissue racing a slow reply).
    pub const GET_DUP_REQUESTS: &str = "get.dup_requests";
    /// Data frames ECN-marked because an egress port queue (or the RX
    /// event ring at delivery) crossed the overload high-water mark.
    pub const ECN_MARKED: &str = "ecn.marked";
    /// Congestion echoes emitted for marked messages (CNP frames sent
    /// back to the source, or local echoes for self-sourced messages).
    pub const ECN_ECHOED: &str = "ecn.echoed";

    /// Every link-reliability id, in reporting order.
    pub const ALL: [&str; 21] = [
        RETRANSMITS,
        TIMEOUTS,
        NAKS_SENT,
        DUP_FRAMES,
        INJECTED_CORRUPT,
        INJECTED_DROPS,
        INJECTED_STALLS,
        STALL_PS,
        CRC_DROPPED,
        LINK_DEAD,
        ROUTE_DETOUR,
        ROUTE_UNREACHABLE,
        ROUTE_REQUEUED,
        RX_DUP_FRAGMENTS,
        RX_RING_STALL,
        GET_REQUESTS,
        GET_SERVED,
        GET_UNMATCHED,
        GET_DUP_REQUESTS,
        ECN_MARKED,
        ECN_ECHOED,
    ];
}

/// Datapath counters. Link-layer activity (replays, CRC drops, NAKs, …)
/// is counted per port only, in `links`; [`CardStats::link_sums`] totals
/// it across ports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CardStats {
    /// Bytes fetched from TX source memory (host or GPU).
    pub tx_bytes_fetched: u64,
    /// Packets injected into the TX FIFO.
    pub tx_packets: u64,
    /// Packets extracted for local RX.
    pub rx_packets: u64,
    /// Payload bytes written to local destination buffers.
    pub rx_bytes: u64,
    /// Transit packets forwarded by the router.
    pub forwarded: u64,
    /// Packets dropped because no registered buffer matched.
    pub rx_unmatched: u64,
    /// Ports this card declared dead (keepalive escalation or a
    /// neighbour's notification about a shared cable).
    pub links_dead: u64,
    /// Routing decisions that detoured off the strict dimension-order
    /// direction to avoid a dead link.
    pub detours: u64,
    /// Packets dropped because both arcs of a ring were cut.
    pub unreachable_drops: u64,
    /// Frames moved off a dead port's replay/pending queues onto detours.
    pub requeued: u64,
    /// Duplicate fragments suppressed end-to-end after a detour.
    pub rx_dup_fragments: u64,
    /// Completions held back because the RX event ring was full.
    pub rx_ring_stalls: u64,
    /// GET requests injected by the local host (requester side).
    pub get_requests: u64,
    /// GET requests served (reply TX job started) by this card.
    pub get_served: u64,
    /// GET requests dropped because no registered buffer covered the
    /// requested range.
    pub get_unmatched: u64,
    /// Duplicate GET requests suppressed while the first reply job was
    /// still streaming.
    pub get_dup_requests: u64,
    /// Frames/messages ECN-marked by the overload plane (0 with the
    /// plane off — marking is its only card-side side effect).
    pub ecn_marked: u64,
    /// Congestion echoes emitted for marked messages.
    pub ecn_echoed: u64,
    /// Per-port link-layer counters (six torus directions + loop-back).
    pub links: [LinkStats; NUM_PORTS],
}

impl CardStats {
    /// Per-port link counters summed across all ports.
    pub fn link_sums(&self) -> LinkStats {
        let mut t = LinkStats::default();
        for l in &self.links {
            t.data_frames += l.data_frames;
            t.wire_bytes += l.wire_bytes;
            t.retransmits += l.retransmits;
            t.timeouts += l.timeouts;
            t.naks_sent += l.naks_sent;
            t.dup_frames += l.dup_frames;
            t.injected_corrupt += l.injected_corrupt;
            t.injected_drops += l.injected_drops;
            t.injected_stalls += l.injected_stalls;
            t.stall_ps += l.stall_ps;
            t.crc_dropped += l.crc_dropped;
        }
        t
    }
}

/// Point-in-time occupancy of one port's go-back-N transmit side, plus
/// its cumulative wire-byte counter (see [`Card::occupancy`](super::Card::occupancy)).
#[derive(Debug, Clone, Copy, Default)]
pub struct PortOccupancy {
    /// Unacknowledged frames held in the replay buffer.
    pub replay: usize,
    /// Frames parked waiting for window credit.
    pub pending: usize,
    /// Sequence-number window currently in flight (`next_seq - base`).
    pub in_flight: u64,
    /// Cumulative wire bytes serialized onto this port.
    pub wire_bytes: u64,
}

/// Point-in-time occupancy of every card-side queue and buffer — the
/// occupancy sampler's per-tick read (see [`Card::occupancy`](super::Card::occupancy)).
#[derive(Debug, Clone, Copy, Default)]
pub struct CardOccupancy {
    /// Bytes resident in the TX packet FIFO.
    pub tx_fifo_bytes: u64,
    /// Packets resident in the TX packet FIFO.
    pub tx_fifo_packets: usize,
    /// Packets parked in the header-FIFO elasticity queue.
    pub push_wait: usize,
    /// Bytes staged by Nios bookkeeping but not yet pushed.
    pub staged_pending: u64,
    /// Bytes claimed by in-flight source-memory reads.
    pub outstanding_total: u64,
    /// Open TX jobs (messages still fetching or draining).
    pub tx_jobs: usize,
    /// Partially reassembled RX messages.
    pub rx_partial_msgs: usize,
    /// RX event-ring entries the host has not reaped.
    pub rx_ring_used: u32,
    /// Completions held back by a full RX event ring.
    pub rx_ring_held: usize,
    /// Per-port link-layer occupancy.
    pub ports: [PortOccupancy; NUM_PORTS],
}

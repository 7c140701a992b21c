//! RX delivery: extraction, BUF_LIST/V2P lookup, the RX event ring,
//! the GET responder and the ECN echo.

use super::tx::NO_JOB;
use super::{Card, CardError, CardIn, CardOccupancy, CardOut, TxDesc};
use crate::nios::{BufKind, GPU_V2P_WALK, HOST_V2P_WALK};
use crate::packet::{ApePacket, MsgId};
use apenet_pcie::tlp::TlpKind;
use apenet_sim::idhash::{IdMap, IdSet};
use apenet_sim::trace::{kind as tk, TracePayload};
use apenet_sim::{Outbox, SimDuration, SimTime};
use std::collections::{BTreeSet, VecDeque};

/// Reassembly state of one partially received message.
#[derive(Debug)]
struct RxProgress {
    /// Payload bytes accepted so far.
    bytes: u64,
    /// Lowest fragment `dst_vaddr` seen (the message base).
    base: u64,
    /// Fragment addresses already accepted — end-to-end deduplication for
    /// the fault plane: a requeued detour can re-deliver a fragment whose
    /// first copy crossed the cable just before it died.
    got: BTreeSet<u64>,
    /// Any accepted fragment carried the ECN congestion-experienced
    /// mark; the completed message then owes its source a CNP echo.
    marked: bool,
}

/// The RX stage's state: message reassembly, end-to-end duplicate
/// suppression and the RX event ring.
#[derive(Default)]
pub(super) struct RxStage {
    msgs: IdMap<MsgId, RxProgress>,
    /// Messages fully delivered — the other half of the end-to-end
    /// duplicate suppression: a detour can re-deliver a fragment after
    /// its message already completed.
    done: IdSet<MsgId>,
    /// RX event-ring occupancy: completions the host has not reaped yet
    /// (only tracked when `cfg.rx_ring_entries` bounds the ring).
    ring_used: u32,
    /// Completions held back by a full RX event ring, with the time the
    /// notification write finished: `(note_done, msg, dst_vaddr, len)`.
    ring_held: VecDeque<(SimTime, MsgId, u64, u64)>,
}

impl RxStage {
    /// Fill in the RX levels of an occupancy snapshot.
    pub(super) fn occupancy(&self, o: &mut CardOccupancy) {
        o.rx_partial_msgs = self.msgs.len();
        o.rx_ring_used = self.ring_used;
        o.rx_ring_held = self.ring_held.len();
    }
}

impl Card {
    /// Route a link-verified packet: local extraction or transit forward.
    pub(super) fn deliver_up(
        &mut self,
        packet: ApePacket,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        if packet.dst == self.coord {
            self.rx_local(packet, now, out);
        } else {
            self.stats.forwarded += 1;
            self.route_send(packet, now + self.cfg.router_forward, now, false, out);
        }
    }

    /// Handle an extracted packet addressed to this node. The CRC was
    /// already verified hop-by-hop at link ingress, so the packet is
    /// clean here.
    fn rx_local(&mut self, packet: ApePacket, now: SimTime, out: &mut Outbox<CardOut>) {
        self.stats.rx_packets += 1;
        // A congestion-notification echo terminating at the source card:
        // hand it straight to the host-side pacer. No dedup, no memory
        // writes — a duplicate echo is a harmless extra window decrease
        // (the pacer's cooldown absorbs it).
        if packet.is_cnp() {
            out.push(SimDuration::ZERO, CardOut::EcnEcho { msg: packet.msg });
            return;
        }
        // A GET request header: not a write — `dst_vaddr` names the range
        // to *read*. It has its own duplicate suppression (by in-flight
        // reply job), so it bypasses the write-side dedup below. A marked
        // request echoes before serving: the congestion sits on the
        // request path, and pacing the requester is the only relief.
        if packet.is_get_request() {
            if packet.ecn && self.cfg.overload.is_some() {
                self.emit_echo(packet.msg, now, out);
            }
            self.serve_get(packet, now, out);
            return;
        }
        // End-to-end duplicate suppression: a frame that crossed the cable
        // just before it died (its ACK lost with the cable) is requeued by
        // the sender onto the detour route and arrives a second time. The
        // per-message fragment set catches in-progress duplicates; the
        // tombstone catches ones landing after the message completed.
        if self.rx.done.contains(&packet.msg)
            || self
                .rx
                .msgs
                .get(&packet.msg)
                .is_some_and(|p| p.got.contains(&packet.dst_vaddr))
        {
            self.stats.rx_dup_fragments += 1;
            return;
        }
        self.record(
            now,
            tk::RX_WRITE,
            packet.msg,
            TracePayload::Bytes { len: packet.len() },
        );
        let fw = self.shared.firmware.borrow();
        let (entry, bl_cost) = fw.buf_list.lookup(packet.dst_vaddr, packet.len());
        let Some(entry) = entry else {
            drop(fw);
            self.stats.rx_unmatched += 1;
            return;
        };
        // The V2P walk costs the same whatever it finds, and the datapath
        // writes by virtual address, so only its cost is taken.
        let (v2p_cost, gpu_extra) = match entry.kind {
            BufKind::Host => (HOST_V2P_WALK, SimDuration::ZERO),
            BufKind::Gpu(_) => (GPU_V2P_WALK, self.cfg.rx_gpu_extra),
        };
        drop(fw);
        let task = self.cfg.rx_packet_base + bl_cost + v2p_cost + gpu_extra;
        let (_s, nios_done) = self.nios.run(now, task);
        // Write the payload to the destination memory over the fabric.
        let len = packet.len();
        let gpu = match entry.kind {
            BufKind::Gpu(id) => Some(self.shared.gpus[id.0 as usize].clone()),
            BufKind::Host => None,
        };
        let dst_dev = gpu.as_ref().map_or(self.shared.hostmem_dev, |g| g.pcie_dev);
        let mut fabric = self.shared.fabric.borrow_mut();
        fabric.set_span(Some(packet.msg.span()));
        let st = fabric.send_stream(
            nios_done,
            self.shared.nic_dev,
            dst_dev,
            TlpKind::MemWrite,
            len,
            apenet_pcie::MAX_PAYLOAD,
        );
        fabric.set_span(None);
        drop(fabric);
        let done = match gpu {
            None => {
                if len > 0 {
                    self.shared
                        .hostmem
                        .borrow_mut()
                        .write_payload(packet.dst_vaddr, packet.payload())
                        .expect("registered RX buffer is in range");
                }
                st.arrive
            }
            Some(gpu) => {
                let mut cuda = gpu.cuda.borrow_mut();
                let wend = cuda.p2p.absorb_write(nios_done, packet.dst_vaddr, len);
                if len > 0 {
                    cuda.mem
                        .write_payload(packet.dst_vaddr, packet.payload())
                        .expect("registered RX buffer is in range");
                }
                st.arrive.max(wend)
            }
        };
        self.stats.rx_bytes += len;
        let entry = self
            .rx
            .msgs
            .entry(packet.msg)
            .or_insert_with(|| RxProgress {
                bytes: 0,
                base: packet.dst_vaddr,
                got: BTreeSet::new(),
                marked: false,
            });
        entry.got.insert(packet.dst_vaddr);
        entry.bytes += len;
        entry.base = entry.base.min(packet.dst_vaddr);
        entry.marked |= packet.ecn;
        if entry.bytes >= packet.msg_len {
            let base = entry.base;
            let mut marked = entry.marked;
            self.rx.msgs.remove(&packet.msg);
            self.rx.done.insert(packet.msg);
            // RX-ring occupancy is the receiver-side congestion signal:
            // a ring past its high-water mark (or one so full the
            // completion must be held below) marks the message even if
            // no torus hop did.
            if let Some(ov) = self.cfg.overload {
                if self
                    .cfg
                    .rx_ring_entries
                    .is_some_and(|_| self.rx.ring_used >= ov.ring_highwater)
                {
                    self.stats.ecn_marked += 1;
                    marked = true;
                }
                if marked {
                    self.emit_echo(packet.msg, now, out);
                }
            }
            // Completion notification (event-queue write the host polls).
            let (_s, note_done) = self.nios.run(done, self.cfg.rx_notify);
            if let Some(cap) = self.cfg.rx_ring_entries {
                if self.rx.ring_used >= cap {
                    // Credit backpressure: hold the completion (never drop
                    // it) until the host reaps ring entries via RxRingPop.
                    // The span records RX_HELD now and DELIVERED at the
                    // actual release, so the ledger's `rx_ring_wait` stage
                    // is the real backpressure wait.
                    self.stats.rx_ring_stalls += 1;
                    self.record(
                        note_done,
                        tk::RX_HELD,
                        packet.msg,
                        TracePayload::Msg {
                            len: packet.msg_len,
                        },
                    );
                    self.rx
                        .ring_held
                        .push_back((note_done, packet.msg, base, packet.msg_len));
                    out.push(
                        SimDuration::ZERO,
                        CardOut::Error(CardError::RxRingFull { msg: packet.msg }),
                    );
                    return;
                }
                self.rx.ring_used += 1;
            }
            self.complete(note_done, now, packet.msg, base, packet.msg_len, out);
        }
    }

    /// Responder side of the one-sided GET protocol: a link-verified read
    /// request addressed to this node. Look the requested range up in the
    /// BUF_LIST (no registered buffer means a counted drop — the
    /// requester's watchdog retries or escalates), then start a reply TX
    /// job streaming the range back to the requester. The reply rides the
    /// ordinary fetch/FIFO/link machinery, so V2P-walk costs, go-back-N
    /// retransmission, dead-link detours and requester-side fragment
    /// dedup all compose unchanged.
    fn serve_get(&mut self, packet: ApePacket, now: SimTime, out: &mut Outbox<CardOut>) {
        let reply_vaddr = packet
            .get
            .expect("caller checked is_get_request")
            .reply_vaddr;
        // A watchdog-reissued request racing a still-streaming reply
        // would double-serve; the requester's dedup makes that harmless,
        // but suppressing it here keeps the wire quiet and counted.
        if self.tx.serving_get(packet.msg) {
            self.stats.get_dup_requests += 1;
            return;
        }
        let fw = self.shared.firmware.borrow();
        let (entry, bl_cost) = fw.buf_list.lookup(packet.dst_vaddr, packet.msg_len);
        let Some(entry) = entry else {
            drop(fw);
            self.stats.get_unmatched += 1;
            return;
        };
        let src_kind = entry.kind;
        drop(fw);
        self.stats.get_served += 1;
        // Request decode + BUF_LIST traversal on the Nios; the reply job
        // opens once that task retires and pays its own per-fragment
        // V2P/engine costs from there.
        let (_s, nios_done) = self.nios.run(now, self.cfg.rx_packet_base + bl_cost);
        let desc = TxDesc {
            msg: packet.msg,
            dst: packet.src,
            dst_vaddr: reply_vaddr,
            len: packet.msg_len,
            src_addr: packet.dst_vaddr,
            src_kind,
        };
        out.push(
            nios_done.since(now),
            CardOut::ToSelf(CardIn::GetServe { desc }),
        );
    }

    /// Emit the congestion echo for a marked message: a local effect
    /// when this card initiated the message (loop-back PUTs and GET
    /// replies landing back at their requester), otherwise a header-only
    /// CNP frame routed back to the source card through the ordinary TX
    /// FIFO / link machinery (so it shares the reliability layer and can
    /// detour around dead cables like any frame).
    fn emit_echo(&mut self, msg: MsgId, now: SimTime, out: &mut Outbox<CardOut>) {
        self.stats.ecn_echoed += 1;
        let origin = self.dims.coord_of(msg.src_rank as usize);
        if origin == self.coord {
            out.push(SimDuration::ZERO, CardOut::EcnEcho { msg });
            return;
        }
        let packet = ApePacket::cnp(origin, self.coord, msg);
        // Building the notification costs the Nios the same as an RX
        // completion write; the echo then enters the TX FIFO like a GET
        // request header and pays real serialization on the way back.
        let (_s, ready) = self.nios.run(now, self.cfg.rx_notify);
        out.push(
            ready.since(now),
            CardOut::ToSelf(CardIn::PushReady {
                job: NO_JOB,
                packet,
            }),
        );
    }

    /// The host reaped `n` RX event-ring entries; release held-back
    /// completions into the freed slots, oldest first.
    pub(super) fn rx_ring_pop(&mut self, n: u32, now: SimTime, out: &mut Outbox<CardOut>) {
        let Some(cap) = self.cfg.rx_ring_entries else {
            return; // unbounded ring: nothing is ever held
        };
        self.rx.ring_used = self.rx.ring_used.saturating_sub(n);
        while self.rx.ring_used < cap {
            let Some((note_done, msg, dst_vaddr, len)) = self.rx.ring_held.pop_front() else {
                break;
            };
            self.rx.ring_used += 1;
            self.complete(note_done.max(now), now, msg, dst_vaddr, len, out);
        }
    }

    /// Post the RX completion of `msg` (the event-ring write the host
    /// polls) at `at`.
    fn complete(
        &self,
        at: SimTime,
        now: SimTime,
        msg: MsgId,
        dst_vaddr: u64,
        len: u64,
        out: &mut Outbox<CardOut>,
    ) {
        self.record(at, tk::DELIVERED, msg, TracePayload::Msg { len });
        let delivered = CardOut::Delivered {
            msg,
            dst_vaddr,
            len,
        };
        out.push(at.since(now), delivered);
    }
}

//! The TX path: GPU_P2P_TX/host fetch, Nios staging, the TX FIFO and
//! its drain.

use super::{Card, CardIn, CardOccupancy, CardOut, GetDesc, TxDesc};
use crate::config::{CardConfig, GpuReadMethod, GpuTxVersion, TxSinkMode};
use crate::gpu_tx::FetchPlan;
use crate::nios::BufKind;
use crate::packet::{ApePacket, MsgId, APE_MAX_PAYLOAD};
use crate::torus::Port;
use apenet_pcie::tlp::TlpKind;
use apenet_sim::bytes::PayloadSlice;
use apenet_sim::trace::{kind as tk, TracePayload};
use apenet_sim::{ByteFifo, Outbox, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Sentinel TX-job id for header-only frames that belong to no fetch job
/// — GET request headers and congestion-notification (CNP) echoes. They
/// ride the TX FIFO and the link layer like staged packets but never
/// complete a job: a GET's completion is its *reply* delivery, and an
/// echo completes nothing.
pub(super) const NO_JOB: u32 = u32::MAX;

struct TxJob {
    desc: TxDesc,
    plan: FetchPlan,
    pushed: u64,
    /// This job streams a GET reply: its completion is silent (the
    /// responder host never posted it — the *requester's* RX delivery is
    /// the completion), and it suppresses duplicate serves of the same
    /// request while streaming.
    get_reply: bool,
}

/// The TX stage's state: open fetch jobs, the GPU_P2P_TX engine queue,
/// the TX packet FIFO and its drain.
pub(super) struct TxStage {
    /// Open jobs by id. Ordered, so every walk over them is
    /// deterministic.
    jobs: BTreeMap<u32, TxJob>,
    next_job: u32,
    /// GPU-source jobs are processed one at a time by the GPU_P2P_TX
    /// engine; this queue holds the waiting ones.
    gpu_job_queue: VecDeque<u32>,
    gpu_job_active: Option<u32>,
    fifo: ByteFifo<ApePacket>,
    /// Packets that found the FIFO full, stand-in for the header-FIFO
    /// elasticity of the real datapath.
    push_wait: VecDeque<(u32, ApePacket)>,
    /// Bytes staged by Nios bookkeeping but not yet pushed.
    staged_pending: u64,
    /// Bytes claimed by in-flight source-memory reads.
    outstanding_total: u64,
    /// The FIFO head is serializing; a `DrainNext` is owed.
    draining: bool,
}

impl TxStage {
    pub(super) fn new(cfg: &CardConfig) -> Self {
        TxStage {
            jobs: BTreeMap::new(),
            next_job: 0,
            gpu_job_queue: VecDeque::new(),
            gpu_job_active: None,
            fifo: ByteFifo::with_default_watermark(cfg.tx_fifo_bytes),
            push_wait: VecDeque::new(),
            staged_pending: 0,
            outstanding_total: 0,
            draining: false,
        }
    }

    /// Fill in the TX levels of an occupancy snapshot.
    pub(super) fn occupancy(&self, o: &mut CardOccupancy) {
        o.tx_fifo_bytes = self.fifo.occupied();
        o.tx_fifo_packets = self.fifo.len();
        o.push_wait = self.push_wait.len();
        o.staged_pending = self.staged_pending;
        o.outstanding_total = self.outstanding_total;
        o.tx_jobs = self.jobs.len();
    }

    /// A GET reply job for `msg` is still streaming.
    pub(super) fn serving_get(&self, msg: MsgId) -> bool {
        self.jobs.values().any(|j| j.get_reply && j.desc.msg == msg)
    }

    /// Free downstream space available for new read requests: FIFO space
    /// not yet claimed by in-flight data. (Per-packet Nios bookkeeping for
    /// the *next* window overlaps the data arrival of the current one, so
    /// staged-but-unpushed bytes do not gate issuing; the small overlap
    /// spill is absorbed by `push_wait`, which stands in for the header
    /// FIFO elasticity of the real datapath.)
    fn issue_budget(&self) -> u64 {
        self.fifo.free().saturating_sub(self.outstanding_total)
    }
}

/// Re-enter `fetch_arrived` for `job` after `delay` with no data:
/// the engine-ready kick, or the header-only message's one empty packet.
fn kick_fetch(job: u32, delay: SimDuration, out: &mut Outbox<CardOut>) {
    let kick = CardIn::FetchArrived {
        job,
        offset: 0,
        len: 0,
    };
    out.push(delay, CardOut::ToSelf(kick));
}

impl Card {
    /// Open a TX job for `desc` and start fetching. The common body of a
    /// host-posted `TxSubmit` and a responder-side GET reply
    /// (`get_reply = true`, which completes silently — see `TxJob`).
    pub(super) fn submit_tx(
        &mut self,
        desc: TxDesc,
        get_reply: bool,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let job_id = self.tx.next_job;
        self.tx.next_job += 1;
        let gpu_src = matches!(desc.src_kind, BufKind::Gpu(_));
        let (version, window) = if gpu_src {
            (self.cfg.gpu_tx, self.cfg.prefetch_window)
        } else {
            // Host sources always pipeline: the kernel driver keeps
            // the injection queue full (§III.B).
            (GpuTxVersion::V3, self.cfg.tx_fifo_bytes)
        };
        let plan = FetchPlan::new(version, window, desc.len);
        let len = desc.len;
        if !get_reply {
            self.record(now, tk::POST, desc.msg, TracePayload::Msg { len });
        }
        self.tx.jobs.insert(
            job_id,
            TxJob {
                desc,
                plan,
                pushed: 0,
                get_reply,
            },
        );
        if gpu_src {
            // GPU jobs serialize through the GPU_P2P_TX engine.
            self.tx.gpu_job_queue.push_back(job_id);
            if self.tx.gpu_job_active.is_none() {
                self.activate_next_gpu_job(now, out);
            }
        } else if len == 0 {
            // Header-only message: stage one empty packet.
            kick_fetch(job_id, SimDuration::ZERO, out);
        } else {
            self.issue_fetches(job_id, now, out);
        }
    }

    /// The host driver posted a one-sided GET: build the request header
    /// and queue it for the TX FIFO.
    pub(super) fn submit_get(&mut self, desc: GetDesc, now: SimTime, out: &mut Outbox<CardOut>) {
        self.stats.get_requests += 1;
        self.record(now, tk::POST, desc.msg, TracePayload::Msg { len: desc.len });
        let packet = ApePacket::get_request(
            desc.peer,
            self.coord,
            desc.msg,
            desc.peer_vaddr,
            desc.len,
            desc.local_vaddr,
        );
        // Descriptor decode + request-header build on the Nios, then the
        // header enters the TX FIFO like a staged packet and rides the
        // ordinary drain/link/retransmit path.
        let (_s, ready) = self.nios.run(now, self.cfg.get_req_nios);
        out.push(
            ready.since(now),
            CardOut::ToSelf(CardIn::PushReady {
                job: NO_JOB,
                packet,
            }),
        );
    }

    /// Data for `job` arrived from the source memory (`len == 0` is the
    /// engine-ready kick): stage its packets and issue further reads.
    pub(super) fn fetch_arrived(
        &mut self,
        job: u32,
        offset: u64,
        len: u32,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        if len > 0 {
            self.tx.outstanding_total = self.tx.outstanding_total.saturating_sub(len as u64);
            self.tx.staged_pending += len as u64;
            if let Some(j) = self.tx.jobs.get_mut(&job) {
                j.plan.arrived_bytes(len as u64);
                let msg = j.desc.msg;
                self.stats.tx_bytes_fetched += len as u64;
                self.record(now, tk::FETCH, msg, TracePayload::Bytes { len: len as u64 });
            }
            self.stage_packets(job, offset, len, now, out);
        } else if self.tx.jobs.get(&job).is_some_and(|j| j.desc.len == 0) {
            // The zero-length sentinel packet.
            self.stage_packets(job, 0, 0, now, out);
        }
        self.issue_fetches(job, now, out);
    }

    /// The TX FIFO head finished serializing: refill the FIFO from the
    /// elasticity queue, drain the next packet and let every job issue
    /// reads into the freed space.
    pub(super) fn drain_next(&mut self, now: SimTime, out: &mut Outbox<CardOut>) {
        self.tx.draining = false;
        while let Some((job_id, packet)) = self.tx.push_wait.pop_front() {
            if self.tx.fifo.fits(packet.wire_bytes()) {
                self.try_push(job_id, packet, now, out);
            } else {
                self.tx.push_wait.push_front((job_id, packet));
                break;
            }
        }
        self.kick_drain(now, out);
        // In job-id order: the fetch-issue order below contends for the
        // PCIe fabric.
        let jobs: Vec<u32> = self.tx.jobs.keys().copied().collect();
        for j in jobs {
            self.issue_fetches(j, now, out);
        }
    }

    /// Start the next queued GPU-source job, paying the per-message
    /// engine setup (the Fig. 3 initial delay).
    fn activate_next_gpu_job(&mut self, now: SimTime, out: &mut Outbox<CardOut>) {
        debug_assert!(self.tx.gpu_job_active.is_none());
        let Some(job_id) = self.tx.gpu_job_queue.pop_front() else {
            return;
        };
        self.tx.gpu_job_active = Some(job_id);
        let (_s, e) = self.nios.run(now, self.cfg.tx_gpu_setup());
        let ready = e + self.cfg.tx_gpu_hw_setup();
        kick_fetch(job_id, ready.since(now), out);
    }

    /// Issue as many source reads as the engine generation allows.
    fn issue_fetches(&mut self, job_id: u32, now: SimTime, out: &mut Outbox<CardOut>) {
        // GPU jobs may only fetch while they hold the engine.
        if self
            .tx
            .jobs
            .get(&job_id)
            .is_some_and(|j| matches!(j.desc.src_kind, BufKind::Gpu(_)))
            && self.tx.gpu_job_active != Some(job_id)
        {
            return;
        }
        loop {
            let budget = self.tx.issue_budget();
            let almost_full = self.tx.fifo.almost_full();
            let Some(job) = self.tx.jobs.get_mut(&job_id) else {
                return;
            };
            let Some(n) = job.plan.next_issue(budget, almost_full) else {
                return;
            };
            let offset = job.plan.requested;
            let src_kind = job.desc.src_kind;
            let span = job.desc.msg.span();
            // v1 pays Nios software time per request *before* issuing it.
            let mut req_ready =
                if matches!(src_kind, BufKind::Gpu(_)) && self.cfg.gpu_tx == GpuTxVersion::V1 {
                    let cost = self.cfg.tx_v1_per_chunk;
                    self.nios.run(now, cost).1
                } else {
                    now
                };
            // BAR1 reads need the source range mapped into the aperture
            // first — once per buffer, and expensive ("a full
            // reconfiguration of the GPU").
            let gpu = match src_kind {
                BufKind::Gpu(id) => Some(self.shared.gpus[id.0 as usize].clone()),
                BufKind::Host => None,
            };
            if let Some(gpu) = gpu
                .as_ref()
                .filter(|_| self.cfg.gpu_read == GpuReadMethod::Bar1)
            {
                let mut cuda = gpu.cuda.borrow_mut();
                if !cuda.bar1.is_mapped(job.desc.src_addr, job.desc.len.max(1)) {
                    let cost = cuda
                        .bar1
                        .map(job.desc.src_addr, job.desc.len.max(1))
                        .expect("BAR1 aperture exhausted");
                    req_ready += cost;
                }
            }
            let src_dev = gpu.as_ref().map_or(self.shared.hostmem_dev, |g| g.pcie_dev);
            let mut fabric = self.shared.fabric.borrow_mut();
            fabric.set_span(Some(span));
            // Read request toward the source memory...
            let req = fabric.send_tlp(req_ready, self.shared.nic_dev, src_dev, TlpKind::MemRead, 0);
            // ...served by the host-memory completer, the GPU's P2P engine
            // or its BAR1 aperture...
            let cpl = match (&gpu, self.cfg.gpu_read) {
                (None, _) => self.shared.host_read.borrow_mut().serve(req.arrive, n),
                (Some(g), GpuReadMethod::P2p) => g.cuda.borrow_mut().p2p.serve_read(req.arrive, n),
                (Some(g), GpuReadMethod::Bar1) => g
                    .cuda
                    .borrow_mut()
                    .bar1
                    .serve_read(req.arrive, job.desc.src_addr + offset, n)
                    .expect("BAR1 range mapped above"),
            };
            // ...completion data streams back over the fabric.
            let st = fabric.send_stream(
                cpl.first,
                src_dev,
                self.shared.nic_dev,
                TlpKind::Completion,
                n,
                apenet_pcie::MAX_PAYLOAD,
            );
            fabric.set_span(None);
            let arrive = st.arrive.max(cpl.last);
            job.plan.issued(n);
            self.tx.outstanding_total += n;
            out.push(
                arrive.since(now),
                CardOut::ToSelf(CardIn::FetchArrived {
                    job: job_id,
                    offset,
                    len: n as u32,
                }),
            );
        }
    }

    /// Borrow `len` bytes of the job's source buffer as a refcounted
    /// slice. Packet fragments are ≤ 4 KB at page-aligned offsets within a
    /// page-aligned allocation, so this shares the backing page and copies
    /// nothing on the clean TX path.
    fn read_source(&self, job: &TxJob, offset: u64, len: u32) -> PayloadSlice {
        let addr = job.desc.src_addr + offset;
        match job.desc.src_kind {
            BufKind::Host => self
                .shared
                .hostmem
                .borrow_mut()
                .read_payload(addr, len as u64)
                .expect("TX source range was validated at registration"),
            BufKind::Gpu(id) => self.shared.gpus[id.0 as usize]
                .cuda
                .borrow_mut()
                .mem
                .read_payload(addr, len as u64)
                .expect("TX source range was validated at registration"),
        }
    }

    fn make_packet(&self, job: &TxJob, offset: u64, len: u32) -> ApePacket {
        let payload = if len == 0 {
            PayloadSlice::empty()
        } else {
            self.read_source(job, offset, len)
        };
        ApePacket::new(
            job.desc.dst,
            self.coord,
            job.desc.msg,
            job.desc.dst_vaddr + offset,
            job.desc.len,
            payload,
        )
    }

    /// Stage the packets of an arrived fetch through the per-packet Nios
    /// bookkeeping (GPU sources only; the kernel driver already did this
    /// work for host sources).
    fn stage_packets(
        &mut self,
        job_id: u32,
        offset: u64,
        len: u32,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let Some(job) = self.tx.jobs.get(&job_id) else {
            return;
        };
        let gpu_src = matches!(job.desc.src_kind, BufKind::Gpu(_));
        let per_packet = self.cfg.tx_per_packet();
        // One packet per ≤ 4 KB fragment; a header-only message stages
        // one empty packet.
        let end = offset + len as u64;
        let pieces = (offset..end.max(offset + 1))
            .step_by(APE_MAX_PAYLOAD as usize)
            .map(|off| (off, (end - off).min(APE_MAX_PAYLOAD as u64) as u32));
        for (off, n) in pieces {
            let ready = if gpu_src && self.cfg.gpu_tx != GpuTxVersion::V1 {
                // v1 already paid its Nios cost at request time.
                self.nios.run(now, per_packet).1
            } else {
                now
            };
            let job = self.tx.jobs.get(&job_id).expect("job exists");
            let packet = self.make_packet(job, off, n);
            out.push(
                ready.since(now),
                CardOut::ToSelf(CardIn::PushReady {
                    job: job_id,
                    packet,
                }),
            );
        }
    }

    fn kick_drain(&mut self, now: SimTime, out: &mut Outbox<CardOut>) {
        if self.tx.draining {
            return;
        }
        let Some((_bytes, packet)) = self.tx.fifo.pop() else {
            return;
        };
        self.tx.draining = true;
        match self.cfg.tx_sink {
            TxSinkMode::Flush => {
                // Fig. 4 mode: the packet evaporates at the switch.
                out.push(SimDuration::ZERO, CardOut::ToSelf(CardIn::DrainNext));
            }
            TxSinkMode::Torus => {
                if packet.dst == self.coord {
                    // Loop-back through the internal switch.
                    self.link_send(Port::Loopback, packet, now, now, true, out);
                } else {
                    self.route_send(packet, now, now, true, out);
                }
            }
        }
    }

    /// A staged packet (or a GET request / CNP echo header) enters the
    /// TX FIFO, or waits in `push_wait` when the FIFO is full.
    pub(super) fn try_push(
        &mut self,
        job_id: u32,
        packet: ApePacket,
        now: SimTime,
        out: &mut Outbox<CardOut>,
    ) {
        let len = packet.len();
        let msg = packet.msg;
        match self.tx.fifo.push(packet.wire_bytes(), packet) {
            Ok(()) => {
                self.tx.staged_pending = self.tx.staged_pending.saturating_sub(len);
                self.stats.tx_packets += 1;
                self.record(now, tk::STAGE, msg, TracePayload::Bytes { len });
                if let Some(job) = self.tx.jobs.get_mut(&job_id) {
                    job.pushed += len;
                    let done = job.plan.done() && job.pushed == job.desc.len;
                    let msg = job.desc.msg;
                    let msg_len = job.desc.len;
                    let get_reply = job.get_reply;
                    if done {
                        self.tx.jobs.remove(&job_id);
                        self.record(now, tk::TX_DONE, msg, TracePayload::Msg { len: msg_len });
                        if !get_reply {
                            out.push(SimDuration::ZERO, CardOut::TxComplete { msg });
                        }
                        if self.tx.gpu_job_active == Some(job_id) {
                            // Release the GPU_P2P_TX engine for the next
                            // queued message.
                            self.tx.gpu_job_active = None;
                            self.activate_next_gpu_job(now, out);
                        }
                    }
                }
                self.kick_drain(now, out);
            }
            Err(packet) => {
                self.tx.push_wait.push_back((job_id, packet));
            }
        }
    }
}

//! The RDMA endpoint API: registration and PUT.
//!
//! One [`RdmaEndpoint`] lives on each host. It validates and registers
//! buffers into the card's firmware state (its BUF_LIST), keeps
//! the internal mapping cache of §IV.A, and turns `put()` calls into
//! [`TxDesc`]s for the card, charging the host-side driver costs.

use crate::driver::DriverConfig;
use apenet_core::card::{CardShared, GetDesc, TxDesc};
use apenet_core::coord::Coord;
use apenet_core::nios::BufKind;
use apenet_core::packet::MsgId;
use apenet_gpu::{MemKind, Uva};
use apenet_sim::idhash::IdMap;
use apenet_sim::SimDuration;
use std::fmt;

/// Errors surfaced by the endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaError {
    /// The address range is not in any registered local buffer.
    NotRegistered,
    /// The pointer does not belong to host memory or any local GPU.
    UnknownPointer,
    /// The source-kind flag contradicts the actual pointer kind.
    KindMismatch,
    /// The card's BUF_LIST has no free slot: deregister something and
    /// retry. Registration state is untouched.
    BufListFull,
    /// Admission control rejected the op: the endpoint's outstanding-ops
    /// budget is exhausted. Back off and retry; nothing was submitted
    /// and no sequence number was burned.
    Throttled,
    /// A staging copy (device↔host bounce) faulted: the given range is
    /// not fully inside the bounce or device allocation.
    CopyFault,
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::NotRegistered => write!(f, "buffer not registered"),
            RdmaError::UnknownPointer => write!(f, "pointer outside UVA ranges"),
            RdmaError::KindMismatch => write!(f, "source kind flag mismatch"),
            RdmaError::BufListFull => write!(f, "BUF_LIST at capacity"),
            RdmaError::Throttled => write!(f, "admission budget exhausted; back off and retry"),
            RdmaError::CopyFault => write!(f, "staging copy range outside its allocation"),
        }
    }
}

impl std::error::Error for RdmaError {}

/// The source-kind flag of the PUT API: "the source memory buffer type is
/// chosen at compilation time by passing a flag to the PUT API. This is
/// useful to avoid a call to `cuPointerGetAttribute()`" (§IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SrcHint {
    /// Caller asserts host memory.
    Host,
    /// Caller asserts GPU memory.
    Gpu,
    /// Resolve at runtime with a (charged) pointer query.
    Auto,
}

/// What a successful `put()` returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// The descriptor to deliver to the card (as `CardIn::TxSubmit`).
    pub desc: TxDesc,
    /// Host CPU time the call occupied (LogP overhead).
    pub host_cost: SimDuration,
}

/// What a successful `get()` returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetOutcome {
    /// The descriptor to deliver to the card (as `CardIn::GetSubmit`).
    pub desc: GetDesc,
    /// Host CPU time the call occupied (LogP overhead).
    pub host_cost: SimDuration,
}

/// The per-host RDMA endpoint.
pub struct RdmaEndpoint {
    shared: CardShared,
    uva: Uva,
    cfg: DriverConfig,
    pid: u32,
    rank: u32,
    seq: u64,
    reg_cache: IdMap<u64, BufKind>, // base addr -> kind
    /// Outstanding-ops admission budget (None = admission off, the
    /// pre-overload-plane behaviour).
    admission: Option<u32>,
    /// Ops admitted and not yet released via [`RdmaEndpoint::op_complete`].
    outstanding: u32,
}

impl RdmaEndpoint {
    /// Create the endpoint for the host owning `shared`.
    pub fn new(shared: CardShared, uva: Uva, rank: u32, cfg: DriverConfig) -> Self {
        RdmaEndpoint {
            shared,
            uva,
            cfg,
            pid: 1000 + rank,
            rank,
            seq: 0,
            reg_cache: IdMap::default(),
            admission: None,
            outstanding: 0,
        }
    }

    /// The node rank this endpoint belongs to.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Arm admission control: while `outstanding` ops ≥ `budget`, `put()`
    /// and `get()` return [`RdmaError::Throttled`] instead of building a
    /// descriptor. Off by default (`None`), which leaves the endpoint
    /// byte-for-byte compatible with pre-overload-plane behaviour.
    pub fn set_admission(&mut self, budget: Option<u32>) {
        self.admission = budget;
    }

    /// Ops admitted under the budget and not yet released.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Release one admission slot: call when an admitted op settles
    /// (delivered, or failed through the watchdog). No-op with
    /// admission off.
    pub fn op_complete(&mut self) {
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// Admission gate shared by `put()` and `get()`: errors before any
    /// side effect (no registration, no sequence burned), so a throttled
    /// call can be retried verbatim after backing off.
    fn admit(&mut self) -> Result<(), RdmaError> {
        if let Some(budget) = self.admission {
            if self.outstanding >= budget {
                return Err(RdmaError::Throttled);
            }
        }
        Ok(())
    }

    /// Classify a UVA pointer into a buffer kind.
    fn classify(&self, addr: u64) -> Result<BufKind, RdmaError> {
        match self.uva.pointer_get_attribute(addr) {
            Some(attr) => Ok(match attr.kind {
                MemKind::Host => BufKind::Host,
                MemKind::Gpu(id) => BufKind::Gpu(id),
            }),
            None => Err(RdmaError::UnknownPointer),
        }
    }

    /// Register (pin + map) a buffer so it can be a PUT target or source.
    /// "GPU buffers … are mapped on-the-fly if not already present in an
    /// internal cache" — repeated registrations hit the cache and are
    /// nearly free. Returns the host time the call took.
    pub fn register(&mut self, addr: u64, len: u64) -> Result<SimDuration, RdmaError> {
        if let Some(_kind) = self.reg_cache.get(&addr) {
            return Ok(self.cfg.reg_cache_hit);
        }
        let kind = self.classify(addr)?;
        let mut fw = self.shared.firmware.borrow_mut();
        let cost = match kind {
            BufKind::Host => fw
                .try_register_host(addr, len, self.pid)
                .map(|_| self.cfg.reg_host),
            BufKind::Gpu(id) => fw
                .try_register_gpu(id, addr, len, self.pid)
                .map(|_| self.cfg.reg_gpu),
        };
        drop(fw);
        let Some(cost) = cost else {
            // Full BUF_LIST: typed error, nothing cached, so the caller
            // can deregister a buffer and retry the same address.
            return Err(RdmaError::BufListFull);
        };
        self.reg_cache.insert(addr, kind);
        Ok(cost)
    }

    /// True when `addr..addr+len` lies inside a registered buffer.
    pub fn is_registered(&self, addr: u64, len: u64) -> bool {
        self.shared
            .firmware
            .borrow()
            .buf_list
            .lookup(addr, len)
            .0
            .is_some()
    }

    /// Deregister a buffer: removes it from the BUF_LIST (subsequent
    /// inbound PUTs targeting it are dropped as unmatched) and from the
    /// mapping cache.
    pub fn deregister(&mut self, addr: u64) -> bool {
        let removed = self.shared.firmware.borrow_mut().buf_list.unregister(addr);
        self.reg_cache.remove(&addr);
        removed
    }

    /// Enqueue a PUT of `len` bytes from local `src_addr` to `dst_vaddr`
    /// on node `dst`. The source must be registered (the call maps it on
    /// the fly when not, charging the mapping cost).
    pub fn put(
        &mut self,
        src_addr: u64,
        len: u64,
        dst: Coord,
        dst_vaddr: u64,
        hint: SrcHint,
    ) -> Result<PutOutcome, RdmaError> {
        self.admit()?;
        let mut host_cost = self.cfg.put_overhead;
        let kind = match hint {
            SrcHint::Host => BufKind::Host,
            SrcHint::Gpu => match self.classify(src_addr)? {
                k @ BufKind::Gpu(_) => k,
                BufKind::Host => return Err(RdmaError::KindMismatch),
            },
            SrcHint::Auto => {
                host_cost += self.cfg.pointer_query;
                self.classify(src_addr)?
            }
        };
        if let (SrcHint::Host, BufKind::Host) = (hint, kind) {
            // Trust but verify cheaply: host pointers must be host range.
            if self.classify(src_addr)? != BufKind::Host {
                return Err(RdmaError::KindMismatch);
            }
        }
        // On-the-fly mapping of unregistered sources.
        if !self.is_registered(src_addr, len) {
            host_cost += self.register(src_addr, len)?;
        }
        let msg = MsgId {
            src_rank: self.rank,
            seq: self.seq,
        };
        self.seq += 1;
        self.outstanding += 1;
        Ok(PutOutcome {
            desc: TxDesc {
                msg,
                dst,
                dst_vaddr,
                len,
                src_addr,
                src_kind: kind,
            },
            host_cost,
        })
    }

    /// Enqueue a GET (RDMA-Read) of `len` bytes from `peer_vaddr` on node
    /// `peer` into local `dst_addr`. The *local destination* must be
    /// registered so the reply stream matches the BUF_LIST on arrival —
    /// the call maps it on the fly when not, charging the mapping cost.
    /// The hint describes the local destination buffer; the remote source
    /// kind is resolved by the responder's own V2P walk.
    pub fn get(
        &mut self,
        dst_addr: u64,
        len: u64,
        peer: Coord,
        peer_vaddr: u64,
        hint: SrcHint,
    ) -> Result<GetOutcome, RdmaError> {
        self.admit()?;
        let mut host_cost = self.cfg.put_overhead;
        let kind = match hint {
            SrcHint::Host => BufKind::Host,
            SrcHint::Gpu => match self.classify(dst_addr)? {
                k @ BufKind::Gpu(_) => k,
                BufKind::Host => return Err(RdmaError::KindMismatch),
            },
            SrcHint::Auto => {
                host_cost += self.cfg.pointer_query;
                self.classify(dst_addr)?
            }
        };
        if let (SrcHint::Host, BufKind::Host) = (hint, kind) {
            if self.classify(dst_addr)? != BufKind::Host {
                return Err(RdmaError::KindMismatch);
            }
        }
        // On-the-fly mapping of unregistered destinations. A full
        // BUF_LIST surfaces here, before any V2P side effects: no read
        // request is built and nothing leaves the host.
        if !self.is_registered(dst_addr, len) {
            host_cost += self.register(dst_addr, len)?;
        }
        let msg = MsgId {
            src_rank: self.rank,
            seq: self.seq,
        };
        self.seq += 1;
        self.outstanding += 1;
        Ok(GetOutcome {
            desc: GetDesc {
                msg,
                peer,
                peer_vaddr,
                len,
                local_vaddr: dst_addr,
            },
            host_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apenet_core::card::Firmware;
    use apenet_core::config::CardConfig;
    use apenet_gpu::cuda::CudaDevice;
    use apenet_gpu::mem::Memory;
    use apenet_gpu::uva::HOST_BASE;
    use apenet_gpu::{GpuArch, GpuId, HOST_PAGE_SIZE};
    use apenet_pcie::fabric::plx_platform;
    use apenet_pcie::server::ReadServer;
    use apenet_sim::Bandwidth;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn endpoint() -> (RdmaEndpoint, Rc<RefCell<CudaDevice>>, Rc<RefCell<Memory>>) {
        let (fabric, gpu_dev, nic_dev, hostmem_dev) = plx_platform();
        let cuda = Rc::new(RefCell::new(CudaDevice::new(GpuId(0), GpuArch::Fermi2050)));
        let hostmem = Rc::new(RefCell::new(Memory::new(
            HOST_BASE,
            64 << 20,
            HOST_PAGE_SIZE,
        )));
        let mut uva = Uva::new();
        uva.set_host(&hostmem.borrow());
        uva.add_gpu(GpuId(0), &cuda.borrow().mem);
        let shared = CardShared {
            fabric: Rc::new(RefCell::new(fabric)),
            nic_dev,
            hostmem_dev,
            hostmem: hostmem.clone(),
            host_read: Rc::new(RefCell::new(ReadServer::new(
                apenet_sim::SimDuration::from_ns(600),
                Bandwidth::from_mb_per_sec(2400),
            ))),
            gpus: vec![apenet_core::card::GpuHandle {
                pcie_dev: gpu_dev,
                cuda: cuda.clone(),
            }],
            firmware: Rc::new(RefCell::new(Firmware::default())),
        };
        let _ = CardConfig::default();
        (
            RdmaEndpoint::new(shared, uva, 0, DriverConfig::default()),
            cuda,
            hostmem,
        )
    }

    #[test]
    fn register_host_and_gpu_with_cache() {
        let (mut ep, cuda, hostmem) = endpoint();
        let h = hostmem.borrow_mut().alloc(8192).unwrap();
        let g = cuda.borrow_mut().malloc(8192).unwrap();
        let c1 = ep.register(h, 8192).unwrap();
        let c2 = ep.register(g, 8192).unwrap();
        assert!(c2 > c1, "GPU mapping more expensive than host pinning");
        let c3 = ep.register(g, 8192).unwrap();
        assert!(c3 < c1, "cache hit is nearly free");
        assert!(ep.is_registered(h, 8192));
        assert!(ep.is_registered(g + 100, 1000));
        assert!(!ep.is_registered(h + 8192, 1));
    }

    #[test]
    fn full_buf_list_rejects_then_recovers() {
        let (mut ep, _cuda, hostmem) = endpoint();
        ep.shared
            .firmware
            .borrow_mut()
            .buf_list
            .set_capacity(Some(2));
        let a = hostmem.borrow_mut().alloc(4096).unwrap();
        let b = hostmem.borrow_mut().alloc(4096).unwrap();
        let c = hostmem.borrow_mut().alloc(4096).unwrap();
        ep.register(a, 4096).unwrap();
        ep.register(b, 4096).unwrap();
        // Exhausted: typed error, no registration, no cache pollution.
        assert_eq!(ep.register(c, 4096).unwrap_err(), RdmaError::BufListFull);
        assert!(!ep.is_registered(c, 4096));
        // Re-registering a cached buffer still works (no new slot needed).
        assert_eq!(
            ep.register(a, 4096).unwrap(),
            DriverConfig::default().reg_cache_hit
        );
        // Freeing a slot recovers the failed registration.
        assert!(ep.deregister(b));
        ep.register(c, 4096).unwrap();
        assert!(ep.is_registered(c, 4096));
    }

    #[test]
    fn put_builds_descriptor_and_sequences() {
        let (mut ep, _cuda, hostmem) = endpoint();
        let h = hostmem.borrow_mut().alloc(4096).unwrap();
        ep.register(h, 4096).unwrap();
        let a = ep
            .put(h, 4096, Coord::new(1, 0, 0), 0xDEAD_0000, SrcHint::Host)
            .unwrap();
        let b = ep
            .put(h, 4096, Coord::new(1, 0, 0), 0xDEAD_0000, SrcHint::Host)
            .unwrap();
        assert_eq!(a.desc.len, 4096);
        assert_eq!(a.desc.src_kind, BufKind::Host);
        assert!(b.desc.msg.seq > a.desc.msg.seq);
        assert_eq!(a.host_cost, DriverConfig::default().put_overhead);
    }

    #[test]
    fn auto_hint_costs_pointer_query() {
        let (mut ep, cuda, _) = endpoint();
        let g = cuda.borrow_mut().malloc(4096).unwrap();
        ep.register(g, 4096).unwrap();
        let auto = ep
            .put(g, 4096, Coord::new(1, 0, 0), 0, SrcHint::Auto)
            .unwrap();
        let flagged = ep
            .put(g, 4096, Coord::new(1, 0, 0), 0, SrcHint::Gpu)
            .unwrap();
        assert!(auto.host_cost > flagged.host_cost);
        assert_eq!(auto.desc.src_kind, BufKind::Gpu(GpuId(0)));
    }

    #[test]
    fn kind_mismatch_rejected() {
        let (mut ep, _cuda, hostmem) = endpoint();
        let h = hostmem.borrow_mut().alloc(4096).unwrap();
        ep.register(h, 4096).unwrap();
        assert_eq!(
            ep.put(h, 64, Coord::new(1, 0, 0), 0, SrcHint::Gpu)
                .unwrap_err(),
            RdmaError::KindMismatch
        );
        assert_eq!(
            ep.put(0xBAD, 64, Coord::new(1, 0, 0), 0, SrcHint::Auto)
                .unwrap_err(),
            RdmaError::UnknownPointer
        );
    }

    #[test]
    fn deregister_removes_target() {
        let (mut ep, _cuda, hostmem) = endpoint();
        let h = hostmem.borrow_mut().alloc(4096).unwrap();
        ep.register(h, 4096).unwrap();
        assert!(ep.is_registered(h, 4096));
        assert!(ep.deregister(h));
        assert!(!ep.is_registered(h, 4096));
        assert!(!ep.deregister(h), "second deregister is a no-op");
        // Re-registration pays the full cost again (cache was dropped).
        let c = ep.register(h, 4096).unwrap();
        assert!(c >= DriverConfig::default().reg_host);
    }

    #[test]
    fn get_builds_descriptor_and_shares_sequence_with_put() {
        let (mut ep, _cuda, hostmem) = endpoint();
        let h = hostmem.borrow_mut().alloc(4096).unwrap();
        ep.register(h, 4096).unwrap();
        let p = ep
            .put(h, 1024, Coord::new(1, 0, 0), 0xDEAD_0000, SrcHint::Host)
            .unwrap();
        let g = ep
            .get(h, 4096, Coord::new(1, 0, 0), 0xBEEF_0000, SrcHint::Host)
            .unwrap();
        assert_eq!(g.desc.len, 4096);
        assert_eq!(g.desc.peer, Coord::new(1, 0, 0));
        assert_eq!(g.desc.peer_vaddr, 0xBEEF_0000);
        assert_eq!(g.desc.local_vaddr, h);
        assert!(
            g.desc.msg.seq > p.desc.msg.seq,
            "GET and PUT draw from one sequence space"
        );
        assert_eq!(g.host_cost, DriverConfig::default().put_overhead);
    }

    #[test]
    fn get_maps_unregistered_destination_on_the_fly() {
        let (mut ep, cuda, _) = endpoint();
        let g = cuda.borrow_mut().malloc(4096).unwrap();
        let out = ep
            .get(g, 4096, Coord::new(1, 0, 0), 0, SrcHint::Gpu)
            .unwrap();
        assert!(
            out.host_cost >= DriverConfig::default().reg_gpu,
            "first GET pays the mapping"
        );
        let again = ep
            .get(g, 4096, Coord::new(1, 0, 0), 0, SrcHint::Gpu)
            .unwrap();
        assert!(again.host_cost < out.host_cost, "cached afterwards");
    }

    #[test]
    fn get_kind_mismatch_and_unknown_pointer_rejected() {
        let (mut ep, _cuda, hostmem) = endpoint();
        let h = hostmem.borrow_mut().alloc(4096).unwrap();
        ep.register(h, 4096).unwrap();
        assert_eq!(
            ep.get(h, 64, Coord::new(1, 0, 0), 0, SrcHint::Gpu)
                .unwrap_err(),
            RdmaError::KindMismatch
        );
        assert_eq!(
            ep.get(0xBAD, 64, Coord::new(1, 0, 0), 0, SrcHint::Auto)
                .unwrap_err(),
            RdmaError::UnknownPointer
        );
    }

    #[test]
    fn get_buf_list_full_fails_before_side_effects() {
        let (mut ep, _cuda, hostmem) = endpoint();
        ep.shared
            .firmware
            .borrow_mut()
            .buf_list
            .set_capacity(Some(1));
        let a = hostmem.borrow_mut().alloc(4096).unwrap();
        let b = hostmem.borrow_mut().alloc(4096).unwrap();
        ep.register(a, 4096).unwrap();
        // Full BUF_LIST: the GET is rejected with the typed error before
        // any V2P side effects — nothing registered, no sequence burned.
        assert_eq!(
            ep.get(b, 4096, Coord::new(1, 0, 0), 0, SrcHint::Host)
                .unwrap_err(),
            RdmaError::BufListFull
        );
        assert!(!ep.is_registered(b, 4096));
        let next = ep
            .get(a, 4096, Coord::new(1, 0, 0), 0, SrcHint::Host)
            .unwrap();
        assert_eq!(next.desc.msg.seq, 0, "failed GET burned no sequence");
        // Freeing the slot recovers the rejected GET.
        assert!(ep.deregister(a));
        ep.get(b, 4096, Coord::new(1, 0, 0), 0, SrcHint::Host)
            .unwrap();
        assert!(ep.is_registered(b, 4096));
    }

    #[test]
    fn admission_budget_throttles_and_recovers() {
        let (mut ep, _cuda, hostmem) = endpoint();
        let h = hostmem.borrow_mut().alloc(4096).unwrap();
        ep.register(h, 4096).unwrap();
        ep.set_admission(Some(2));
        let a = ep
            .put(h, 64, Coord::new(1, 0, 0), 0, SrcHint::Host)
            .unwrap();
        ep.get(h, 64, Coord::new(1, 0, 0), 0, SrcHint::Host)
            .unwrap();
        assert_eq!(ep.outstanding(), 2);
        // Budget full: typed throttle, no sequence burned, no side effect.
        assert_eq!(
            ep.put(h, 64, Coord::new(1, 0, 0), 0, SrcHint::Host)
                .unwrap_err(),
            RdmaError::Throttled
        );
        assert_eq!(
            ep.get(h, 64, Coord::new(1, 0, 0), 0, SrcHint::Host)
                .unwrap_err(),
            RdmaError::Throttled
        );
        // Completion frees a slot; the retried PUT continues the
        // sequence with no gap from the throttled attempts.
        ep.op_complete();
        let b = ep
            .put(h, 64, Coord::new(1, 0, 0), 0, SrcHint::Host)
            .unwrap();
        assert_eq!(b.desc.msg.seq, a.desc.msg.seq + 2);
        // Disarming admission lifts the gate entirely.
        ep.set_admission(None);
        for _ in 0..8 {
            ep.put(h, 64, Coord::new(1, 0, 0), 0, SrcHint::Host)
                .unwrap();
        }
    }

    #[test]
    fn put_maps_unregistered_source_on_the_fly() {
        let (mut ep, cuda, _) = endpoint();
        let g = cuda.borrow_mut().malloc(4096).unwrap();
        let out = ep
            .put(g, 4096, Coord::new(1, 0, 0), 0, SrcHint::Gpu)
            .unwrap();
        assert!(
            out.host_cost >= DriverConfig::default().reg_gpu,
            "first PUT pays the mapping"
        );
        let again = ep
            .put(g, 4096, Coord::new(1, 0, 0), 0, SrcHint::Gpu)
            .unwrap();
        assert!(again.host_cost < out.host_cost, "cached afterwards");
    }
}

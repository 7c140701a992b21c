//! The Nios II micro-controller and its firmware data structures.
//!
//! "These tasks are currently partly implemented in software running on a
//! micro-controller (Nios II) … The processing time of an incoming GPU
//! data packet is of the order of 3 µs (1.2 GB/s for 4 KB packets) and it
//! is equally dominated by the two main tasks running on the Nios II: the
//! BUF_LIST traversal (which linearly scales with the number of registered
//! buffers) and the address translation (which has constant traversal time
//! thanks to the 4-level page table)" (§IV).
//!
//! The Nios is modelled as a **serial task server**: every firmware task
//! (RX packet processing, GPU-TX control) runs to completion in submission
//! order. Contention between the TX and RX datapaths — the mechanism
//! behind the loop-back bandwidth drop of Table I and the v3 gains of
//! Fig. 5 — emerges from this serialization.

use apenet_gpu::{GpuId, GPU_PAGE_SIZE, HOST_PAGE_SIZE};
use apenet_sim::idhash::IdMap;
use apenet_sim::{SimDuration, SimTime};

/// The serial task server.
#[derive(Debug, Clone, Default)]
pub struct Nios {
    busy_until: SimTime,
    busy_total: SimDuration,
    tasks_run: u64,
}

impl Nios {
    /// Idle micro-controller.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run a task of `cost` submitted at `ready`; returns `(start, end)`.
    pub fn run(&mut self, ready: SimTime, cost: SimDuration) -> (SimTime, SimTime) {
        let start = ready.max(self.busy_until);
        let end = start + cost;
        self.busy_until = end;
        self.busy_total += cost;
        self.tasks_run += 1;
        (start, end)
    }

    /// When the micro-controller next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time (firmware cycle-counter equivalent).
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of tasks executed.
    pub fn tasks_run(&self) -> u64 {
        self.tasks_run
    }

    /// Forget all state.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Buffer kind recorded in the BUF_LIST.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufKind {
    /// Host memory buffer.
    Host,
    /// GPU device memory buffer on the given local GPU.
    Gpu(GpuId),
}

/// One registered buffer: "a buffer — either host or GPU, uniquely
/// identified by its (UVA) 64-bit virtual address and process ID — can be
/// the target of a PUT operation coming from another node" (§IV.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufEntry {
    /// UVA base address.
    pub vaddr: u64,
    /// Length in bytes.
    pub len: u64,
    /// Host or GPU.
    pub kind: BufKind,
    /// Owning process id.
    pub pid: u32,
}

/// The BUF_LIST with its linear traversal cost.
#[derive(Debug, Clone)]
pub struct BufList {
    entries: Vec<BufEntry>,
    base_cost: SimDuration,
    per_entry: SimDuration,
    capacity: Option<usize>,
}

impl Default for BufList {
    fn default() -> Self {
        Self::new()
    }
}

impl BufList {
    /// New list with the calibrated traversal costs: ≈1.5 µs for the
    /// single-buffer benchmark case, growing linearly with the number of
    /// registered buffers (§IV) at ≈0.2 µs per scanned entry.
    pub fn new() -> Self {
        BufList {
            entries: Vec::new(),
            base_cost: SimDuration::from_ns(1300),
            per_entry: SimDuration::from_ns(200),
            capacity: None,
        }
    }

    /// Cap the number of registrations (the real BUF_LIST lives in finite
    /// card memory). `None` — the default — is unbounded.
    pub fn set_capacity(&mut self, cap: Option<usize>) {
        self.capacity = cap;
    }

    /// The configured capacity, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// True when a bounded list has no free slot left.
    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|cap| self.entries.len() >= cap)
    }

    /// Register a buffer; returns its index.
    ///
    /// Panics if the list is full — callers on the fallible path use
    /// [`BufList::try_register`] instead.
    pub fn register(&mut self, e: BufEntry) -> usize {
        self.try_register(e).expect("BUF_LIST full")
    }

    /// Register a buffer unless the list is at capacity; full lists
    /// reject the registration (typed, no panic) so the host can
    /// unregister something and retry.
    pub fn try_register(&mut self, e: BufEntry) -> Option<usize> {
        if self.is_full() {
            return None;
        }
        self.entries.push(e);
        Some(self.entries.len() - 1)
    }

    /// Remove a registration by base address.
    pub fn unregister(&mut self, vaddr: u64) -> bool {
        match self.entries.iter().position(|e| e.vaddr == vaddr) {
            Some(i) => {
                self.entries.remove(i);
                true
            }
            None => false,
        }
    }

    /// Number of registered buffers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no buffers are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Linear scan for the buffer containing `vaddr..vaddr+len`; returns
    /// the entry and the firmware time the traversal took.
    pub fn lookup(&self, vaddr: u64, len: u64) -> (Option<BufEntry>, SimDuration) {
        for (i, e) in self.entries.iter().enumerate() {
            if vaddr >= e.vaddr && vaddr + len <= e.vaddr + e.len {
                let cost = self.base_cost + self.per_entry.times(i as u64 + 1);
                return (Some(*e), cost);
            }
        }
        let cost = self.base_cost + self.per_entry.times(self.entries.len() as u64);
        (None, cost)
    }
}

/// A page descriptor: physical page address plus "additional low-level
/// protocol tokens which are used to physically read and write GPU
/// memory" (§III.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageDesc {
    /// Physical (device-local) page address.
    pub phys: u64,
    /// The opaque P2P protocol token.
    pub token: u64,
}

/// The constant cost of a HOST_V2P lookup.
pub const HOST_V2P_WALK: SimDuration = SimDuration::from_ns(1500);

/// The constant cost of a 4-level GPU_V2P walk (≈1.5 µs, the other half
/// of the 3 µs RX budget).
pub const GPU_V2P_WALK: SimDuration = SimDuration::from_ns(1500);

const LEVEL_BITS: u32 = 9;
const LEVELS: u32 = 4;

#[derive(Debug, Clone, Default)]
struct TableNode {
    children: IdMap<u16, TableNode>,
    leaf: Option<PageDesc>,
}

/// The 4-level GPU_V2P page table — "for each GPU card on the bus, a
/// 4-level GPU V2P page table is maintained, which resolves virtual
/// addresses to GPU page descriptors" (§IV). Walks are constant time.
#[derive(Debug, Clone)]
pub struct GpuV2p {
    root: TableNode,
    walk_cost: SimDuration,
    mapped_pages: u64,
}

impl Default for GpuV2p {
    fn default() -> Self {
        Self::new()
    }
}

impl GpuV2p {
    /// Empty table with the calibrated constant walk cost
    /// ([`GPU_V2P_WALK`]).
    pub fn new() -> Self {
        GpuV2p {
            root: TableNode::default(),
            walk_cost: GPU_V2P_WALK,
            mapped_pages: 0,
        }
    }

    fn indices(vaddr: u64) -> [u16; LEVELS as usize] {
        let vpn = vaddr / GPU_PAGE_SIZE;
        let mut out = [0u16; LEVELS as usize];
        for (i, slot) in out.iter_mut().enumerate() {
            let shift = LEVEL_BITS * (LEVELS - 1 - i as u32);
            *slot = ((vpn >> shift) & ((1 << LEVEL_BITS) - 1)) as u16;
        }
        out
    }

    /// Map the 64 KB page containing `vaddr` to `desc`.
    pub fn insert(&mut self, vaddr: u64, desc: PageDesc) {
        let idx = Self::indices(vaddr);
        let mut node = &mut self.root;
        for &i in &idx {
            node = node.children.entry(i).or_default();
        }
        if node.leaf.replace(desc).is_none() {
            self.mapped_pages += 1;
        }
    }

    /// Walk the table for `vaddr`; returns the descriptor (offset within
    /// the page preserved by the caller) and the constant walk cost.
    pub fn walk(&self, vaddr: u64) -> (Option<PageDesc>, SimDuration) {
        let idx = Self::indices(vaddr);
        let mut node = &self.root;
        for &i in &idx {
            match node.children.get(&i) {
                Some(n) => node = n,
                None => return (None, self.walk_cost),
            }
        }
        (node.leaf, self.walk_cost)
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> u64 {
        self.mapped_pages
    }
}

/// The HOST_V2P map: 4 KB host pages, constant lookup.
#[derive(Debug, Clone)]
pub struct HostV2p {
    pages: IdMap<u64, u64>, // vpn -> phys
    walk_cost: SimDuration,
}

impl Default for HostV2p {
    fn default() -> Self {
        Self::new()
    }
}

impl HostV2p {
    /// Empty map with the calibrated walk cost ([`HOST_V2P_WALK`]).
    pub fn new() -> Self {
        HostV2p {
            pages: IdMap::default(),
            walk_cost: HOST_V2P_WALK,
        }
    }

    /// Map the 4 KB host page containing `vaddr` to `phys`.
    pub fn insert(&mut self, vaddr: u64, phys: u64) {
        self.pages.insert(vaddr / HOST_PAGE_SIZE, phys);
    }

    /// Translate; returns the physical page address and the walk cost.
    pub fn walk(&self, vaddr: u64) -> (Option<u64>, SimDuration) {
        (
            self.pages.get(&(vaddr / HOST_PAGE_SIZE)).copied(),
            self.walk_cost,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nios_serializes_tasks() {
        let mut n = Nios::new();
        let (s1, e1) = n.run(SimTime::ZERO, SimDuration::from_us(3));
        let (s2, e2) = n.run(
            SimTime::ZERO + SimDuration::from_us(1),
            SimDuration::from_us(2),
        );
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(s2, e1, "second task queues");
        assert_eq!(e2.since(SimTime::ZERO), SimDuration::from_us(5));
        assert_eq!(n.busy_total(), SimDuration::from_us(5));
        assert_eq!(n.tasks_run(), 2);
    }

    #[test]
    fn nios_idle_gap() {
        let mut n = Nios::new();
        n.run(SimTime::ZERO, SimDuration::from_us(1));
        let late = SimTime::ZERO + SimDuration::from_us(10);
        let (s, _) = n.run(late, SimDuration::from_us(1));
        assert_eq!(s, late);
        assert_eq!(
            n.busy_total(),
            SimDuration::from_us(2),
            "idle time not counted"
        );
    }

    #[test]
    fn buflist_linear_cost() {
        let mut bl = BufList::new();
        for i in 0..10u64 {
            bl.register(BufEntry {
                vaddr: i * 0x10000,
                len: 0x10000,
                kind: BufKind::Host,
                pid: 1,
            });
        }
        let (e0, c0) = bl.lookup(0x100, 16);
        let (e9, c9) = bl.lookup(9 * 0x10000 + 5, 16);
        assert!(e0.is_some() && e9.is_some());
        assert!(c9 > c0, "later entries cost more to find");
        assert_eq!(c9 - c0, SimDuration::from_ns(200 * 9));
        let (missing, cm) = bl.lookup(0xFFFF_FFFF, 1);
        assert!(missing.is_none());
        assert_eq!(cm, SimDuration::from_ns(1300 + 200 * 10), "full scan");
        // single-buffer case matches the ~1.5 us calibration
        let mut one = BufList::new();
        one.register(BufEntry {
            vaddr: 0,
            len: 100,
            kind: BufKind::Host,
            pid: 0,
        });
        let (_, c) = one.lookup(0, 1);
        assert_eq!(c, SimDuration::from_ns(1500));
    }

    #[test]
    fn buflist_bounds_checked() {
        let mut bl = BufList::new();
        bl.register(BufEntry {
            vaddr: 0x1000,
            len: 0x1000,
            kind: BufKind::Host,
            pid: 0,
        });
        // A range leaking past the end of the registration must not match.
        let (hit, _) = bl.lookup(0x1800, 0x1000);
        assert!(hit.is_none());
        assert!(bl.unregister(0x1000));
        assert!(!bl.unregister(0x1000));
        assert!(bl.is_empty());
    }

    #[test]
    fn buflist_capacity_rejects_then_recovers() {
        let entry = |vaddr| BufEntry {
            vaddr,
            len: 0x1000,
            kind: BufKind::Host,
            pid: 0,
        };
        let mut bl = BufList::new();
        assert_eq!(bl.capacity(), None, "unbounded by default");
        assert!(!bl.is_full());
        bl.set_capacity(Some(2));
        assert_eq!(bl.try_register(entry(0x1000)), Some(0));
        assert_eq!(bl.try_register(entry(0x2000)), Some(1));
        assert!(bl.is_full());
        assert_eq!(bl.try_register(entry(0x3000)), None, "typed, no panic");
        assert_eq!(bl.len(), 2, "rejected entry left no trace");
        // Unregistering frees a slot and the same registration succeeds.
        assert!(bl.unregister(0x1000));
        assert!(!bl.is_full());
        assert_eq!(bl.try_register(entry(0x3000)), Some(1));
    }

    #[test]
    fn gpu_v2p_roundtrip() {
        let mut pt = GpuV2p::new();
        let base = 0x7000_0000_0000u64;
        for p in 0..64u64 {
            pt.insert(
                base + p * GPU_PAGE_SIZE,
                PageDesc {
                    phys: p * GPU_PAGE_SIZE,
                    token: 0xA9E0,
                },
            );
        }
        assert_eq!(pt.mapped_pages(), 64);
        let (d, cost) = pt.walk(base + 5 * GPU_PAGE_SIZE + 1234);
        assert_eq!(d.unwrap().phys, 5 * GPU_PAGE_SIZE);
        assert_eq!(cost, SimDuration::from_ns(1500));
        let (miss, miss_cost) = pt.walk(base + 1000 * GPU_PAGE_SIZE);
        assert!(miss.is_none());
        assert_eq!(miss_cost, cost, "constant-time walk either way");
    }

    #[test]
    fn gpu_v2p_reinsert_idempotent() {
        let mut pt = GpuV2p::new();
        pt.insert(0, PageDesc { phys: 0, token: 1 });
        pt.insert(0, PageDesc { phys: 0, token: 2 });
        assert_eq!(pt.mapped_pages(), 1);
        assert_eq!(pt.walk(0).0.unwrap().token, 2, "last mapping wins");
    }

    #[test]
    fn gpu_v2p_distinguishes_distant_addresses() {
        // Addresses that differ only in high level-indices must not alias.
        let mut pt = GpuV2p::new();
        let a = 0u64;
        let b = GPU_PAGE_SIZE << (9 * 3); // differs at the top level
        pt.insert(
            a,
            PageDesc {
                phys: 111,
                token: 0,
            },
        );
        pt.insert(
            b,
            PageDesc {
                phys: 222,
                token: 0,
            },
        );
        assert_eq!(pt.walk(a).0.unwrap().phys, 111);
        assert_eq!(pt.walk(b).0.unwrap().phys, 222);
    }

    #[test]
    fn host_v2p() {
        let mut pt = HostV2p::new();
        pt.insert(0x4000, 0xAAAA000);
        let (p, _) = pt.walk(0x4FFF);
        assert_eq!(p, Some(0xAAAA000));
        assert_eq!(pt.walk(0x5000).0, None);
    }
}

//! Page-backed memory with a first-fit allocator.
//!
//! Used for both host memory (4 KB pages) and GPU device memory (64 KB
//! pages). Backing pages materialize lazily and zero-filled on first
//! touch, so simulating a 6 GB Tesla costs nothing until data is written.
//!
//! Pages are `Arc`-backed so the packet datapath can borrow them
//! zero-copy: [`Memory::read_payload`] hands out a [`PayloadSlice`] that
//! shares the page, and writes copy-on-write any page still aliased by an
//! in-flight payload.

use apenet_sim::bytes::{self, PayloadSlice};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Errors from allocation and access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// Not enough contiguous free space.
    OutOfMemory,
    /// Access outside the memory's address range.
    OutOfRange,
    /// Freeing an address that was never allocated.
    BadFree,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfMemory => write!(f, "out of memory"),
            MemError::OutOfRange => write!(f, "address out of range"),
            MemError::BadFree => write!(f, "free of unallocated address"),
        }
    }
}

impl std::error::Error for MemError {}

/// A page-backed memory region living at a fixed base address of the
/// 64-bit unified virtual address (UVA) space.
pub struct Memory {
    base: u64,
    capacity: u64,
    page_size: u64,
    pages: Vec<Option<Arc<[u8]>>>,
    /// Free ranges as offset → length, coalesced.
    free: BTreeMap<u64, u64>,
    /// Allocations as offset → length.
    allocs: BTreeMap<u64, u64>,
}

impl Memory {
    /// Create a memory of `capacity` bytes at UVA `base`, with the given
    /// page size (capacity must be page-aligned).
    pub fn new(base: u64, capacity: u64, page_size: u64) -> Self {
        assert!(page_size.is_power_of_two());
        assert_eq!(capacity % page_size, 0, "capacity must be page aligned");
        let mut free = BTreeMap::new();
        free.insert(0, capacity);
        Memory {
            base,
            capacity,
            page_size,
            // The page table itself grows on first touch: a 6 GB device
            // memory has ~100k page slots, and zero-initializing them per
            // Memory was measurable in harnesses that build nodes per
            // benchmark repetition.
            pages: Vec::new(),
            free,
            allocs: BTreeMap::new(),
        }
    }

    /// Base UVA address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// True when `addr..addr+len` lies inside this memory.
    pub fn contains(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr.saturating_add(len) <= self.base + self.capacity
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocs.values().sum()
    }

    /// Allocate `len` bytes aligned to the page size; returns a UVA address.
    pub fn alloc(&mut self, len: u64) -> Result<u64, MemError> {
        if len == 0 {
            return Err(MemError::OutOfMemory);
        }
        let want = len.next_multiple_of(self.page_size);
        // First fit.
        let slot = self
            .free
            .iter()
            .find(|(_, &flen)| flen >= want)
            .map(|(&off, &flen)| (off, flen));
        let Some((off, flen)) = slot else {
            return Err(MemError::OutOfMemory);
        };
        self.free.remove(&off);
        if flen > want {
            self.free.insert(off + want, flen - want);
        }
        self.allocs.insert(off, want);
        Ok(self.base + off)
    }

    /// Free an allocation made by [`Memory::alloc`].
    pub fn free(&mut self, addr: u64) -> Result<(), MemError> {
        if addr < self.base {
            return Err(MemError::BadFree);
        }
        let off = addr - self.base;
        let Some(len) = self.allocs.remove(&off) else {
            return Err(MemError::BadFree);
        };
        // Insert and coalesce with neighbours.
        let mut start = off;
        let mut end = off + len;
        if let Some((&poff, &plen)) = self.free.range(..off).next_back() {
            if poff + plen == off {
                self.free.remove(&poff);
                start = poff;
            }
        }
        if let Some(&nlen) = self.free.get(&end) {
            self.free.remove(&end);
            end += nlen;
        }
        self.free.insert(start, end - start);
        Ok(())
    }

    /// The (shared, lazily zero-filled) page covering offset `off`.
    fn page_arc(&mut self, off: u64) -> &Arc<[u8]> {
        let idx = (off / self.page_size) as usize;
        if self.pages.len() <= idx {
            self.pages.resize(idx + 1, None);
        }
        let ps = self.page_size as usize;
        self.pages[idx].get_or_insert_with(|| vec![0u8; ps].into())
    }

    /// Mutable view of the page covering `off`; copy-on-write when the
    /// page is still aliased by an in-flight [`PayloadSlice`].
    fn page_of(&mut self, off: u64) -> &mut [u8] {
        let ps = self.page_size as usize;
        self.page_arc(off);
        let idx = (off / self.page_size) as usize;
        let arc = self.pages[idx].as_mut().expect("page materialized above");
        if Arc::get_mut(arc).is_none() {
            bytes::note_copy(ps as u64);
            let copy: Arc<[u8]> = Arc::from(&arc[..]);
            *arc = copy;
        }
        Arc::get_mut(arc).expect("sole owner after copy-on-write")
    }

    /// Write `data` at UVA `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        if !self.contains(addr, data.len() as u64) {
            return Err(MemError::OutOfRange);
        }
        let mut off = addr - self.base;
        let mut src = data;
        while !src.is_empty() {
            let in_page = (off % self.page_size) as usize;
            let room = self.page_size as usize - in_page;
            let n = room.min(src.len());
            let page = self.page_of(off);
            page[in_page..in_page + n].copy_from_slice(&src[..n]);
            src = &src[n..];
            off += n as u64;
        }
        Ok(())
    }

    /// Read into `out` from UVA `addr`. Reads share pages: one still
    /// aliased by an in-flight [`PayloadSlice`] is not copied, and one
    /// never written reads as zeros without being materialized.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<(), MemError> {
        if !self.contains(addr, out.len() as u64) {
            return Err(MemError::OutOfRange);
        }
        let mut off = addr - self.base;
        let mut dst = &mut out[..];
        while !dst.is_empty() {
            let in_page = (off % self.page_size) as usize;
            let room = self.page_size as usize - in_page;
            let n = room.min(dst.len());
            let idx = (off / self.page_size) as usize;
            match self.pages.get(idx).and_then(Option::as_ref) {
                Some(page) => dst[..n].copy_from_slice(&page[in_page..in_page + n]),
                None => dst[..n].fill(0),
            }
            dst = &mut dst[n..];
            off += n as u64;
        }
        Ok(())
    }

    /// Read `len` bytes into a fresh vector.
    pub fn read_vec(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemError> {
        let mut v = vec![0u8; len as usize];
        self.read(addr, &mut v)?;
        Ok(v)
    }

    /// Read `len` bytes as a refcounted [`PayloadSlice`].
    ///
    /// When the range lies within a single page — always true for the
    /// card's ≤ 4 KB packet fragments, because allocations are
    /// page-aligned — this shares the page and copies nothing. A range
    /// crossing pages falls back to a gather copy (accounted via
    /// [`bytes::note_copy`]).
    pub fn read_payload(&mut self, addr: u64, len: u64) -> Result<PayloadSlice, MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfRange);
        }
        if len == 0 {
            return Ok(PayloadSlice::empty());
        }
        let off = addr - self.base;
        let in_page = off % self.page_size;
        if in_page + len <= self.page_size {
            let page = self.page_arc(off).clone();
            Ok(PayloadSlice::from_arc(page).narrow(in_page as usize, len as usize))
        } else {
            bytes::note_copy(len);
            Ok(PayloadSlice::from_vec(self.read_vec(addr, len)?))
        }
    }

    /// The page-aligned physical page addresses covering `addr..addr+len`
    /// — what a V2P table resolves a registered buffer into. The model's
    /// "physical" address of a page is simply its device-local offset.
    pub fn page_span(&self, addr: u64, len: u64) -> Result<Vec<u64>, MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfRange);
        }
        let first = (addr - self.base) / self.page_size;
        let last = (addr - self.base + len.max(1) - 1) / self.page_size;
        Ok((first..=last).map(|p| p * self.page_size).collect())
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Memory(base={:#x}, cap={}MiB, page={}KiB, alloc={}KiB)",
            self.base,
            self.capacity >> 20,
            self.page_size >> 10,
            self.allocated() >> 10
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(0x7000_0000_0000, 1 << 20, 64 * 1024)
    }

    #[test]
    fn alloc_is_page_aligned_and_in_range() {
        let mut m = mem();
        let a = m.alloc(100).unwrap();
        assert_eq!(a % m.page_size(), 0);
        assert!(m.contains(a, 100));
        assert_eq!(m.allocated(), 64 * 1024, "rounded to page");
    }

    #[test]
    fn alloc_free_coalesce_reuse() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        let b = m.alloc(64 * 1024).unwrap();
        let c = m.alloc(64 * 1024).unwrap();
        assert_ne!(a, b);
        m.free(b).unwrap();
        m.free(a).unwrap();
        // a+b coalesced: a 128 KiB alloc fits at the start again.
        let d = m.alloc(128 * 1024).unwrap();
        assert_eq!(d, a);
        m.free(c).unwrap();
        m.free(d).unwrap();
        assert_eq!(m.allocated(), 0);
        // Whole capacity available again.
        let e = m.alloc(1 << 20).unwrap();
        assert_eq!(e, m.base());
    }

    #[test]
    fn oom_and_bad_free() {
        let mut m = mem();
        assert_eq!(m.alloc(2 << 20), Err(MemError::OutOfMemory));
        assert_eq!(m.alloc(0), Err(MemError::OutOfMemory));
        assert_eq!(m.free(m.base() + 64 * 1024), Err(MemError::BadFree));
        assert_eq!(m.free(0), Err(MemError::BadFree));
    }

    #[test]
    fn write_read_roundtrip_cross_page() {
        let mut m = mem();
        let a = m.alloc(256 * 1024).unwrap();
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        // Start mid-page to cross several page boundaries.
        m.write(a + 1000, &data).unwrap();
        let back = m.read_vec(a + 1000, data.len() as u64).unwrap();
        assert_eq!(back, data);
        // Untouched bytes read back zero.
        assert_eq!(m.read_vec(a, 1000).unwrap(), vec![0u8; 1000]);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = mem();
        let end = m.base() + m.capacity();
        assert_eq!(m.write(end - 4, &[0u8; 8]), Err(MemError::OutOfRange));
        let mut buf = [0u8; 8];
        assert_eq!(m.read(end, &mut buf), Err(MemError::OutOfRange));
    }

    #[test]
    fn read_payload_single_page_is_zero_copy() {
        let mut m = mem();
        let a = m.alloc(128 * 1024).unwrap();
        m.write(a, &vec![0xAB; 64 * 1024]).unwrap();
        let before = bytes::copied_bytes();
        let p = m.read_payload(a + 4096, 4096).unwrap();
        assert_eq!(
            bytes::copied_bytes(),
            before,
            "single-page read shares the page"
        );
        assert_eq!(p.len(), 4096);
        assert!(p.iter().all(|&b| b == 0xAB));
        // Crossing a page boundary gathers (and accounts the copy).
        let q = m.read_payload(a + 64 * 1024 - 8, 16).unwrap();
        assert_eq!(q.len(), 16);
        assert!(bytes::copied_bytes() > before);
    }

    #[test]
    fn write_to_shared_page_copies_on_write() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        m.write(a, &[1, 2, 3, 4]).unwrap();
        let p = m.read_payload(a, 4).unwrap();
        // Writing while `p` aliases the page must not change what p sees.
        m.write(a, &[9, 9, 9, 9]).unwrap();
        assert_eq!(p.as_slice(), &[1, 2, 3, 4], "in-flight payload is stable");
        assert_eq!(m.read_vec(a, 4).unwrap(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn read_of_shared_page_copies_nothing() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        m.write(a, &[1, 2, 3, 4]).unwrap();
        // The copy counter is process-wide and other tests copy
        // concurrently, so a few attempts are allowed; a read that
        // copies-on-write an aliased page fails every one of them.
        let copies_nothing = (0..8).any(|_| {
            let p = m.read_payload(a, 4).unwrap();
            let before = bytes::copied_bytes();
            assert_eq!(m.read_vec(a, 4).unwrap(), vec![1, 2, 3, 4]);
            let copied = bytes::copied_bytes() - before;
            assert_eq!(
                p.as_slice(),
                &[1, 2, 3, 4],
                "the alias still sees its bytes"
            );
            let page = m.pages[0].as_ref().unwrap();
            assert_eq!(Arc::strong_count(page), 2, "page and alias still share");
            copied == 0
        });
        assert!(copies_nothing, "reading an aliased page copied it");
    }

    #[test]
    fn page_span_covers_range() {
        let m = mem();
        let base = m.base();
        let span = m.page_span(base + 10, 64 * 1024).unwrap();
        assert_eq!(span, vec![0, 64 * 1024]);
        let span = m.page_span(base, 64 * 1024).unwrap();
        assert_eq!(span, vec![0]);
        let span = m.page_span(base + 130_000, 1).unwrap();
        assert_eq!(span, vec![64 * 1024]);
    }
}

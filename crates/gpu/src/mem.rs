//! Page-allocated memory backed by shared 4 KiB chunks.
//!
//! Used for both host memory (4 KB pages) and GPU device memory (64 KB
//! pages). The page size governs allocation alignment and the V2P view
//! ([`Memory::page_span`]); the bytes themselves live in fixed
//! [`CHUNK_SIZE`] chunks — the card's largest packet payload and the host
//! page size. Chunks materialize lazily on first touch, so simulating a
//! 6 GB Tesla costs nothing until data is written.
//!
//! Chunks are `Arc`-backed and shared copy-on-write:
//!
//! * [`Memory::read_payload`] hands the datapath a [`PayloadSlice`] that
//!   shares a chunk instead of copying it;
//! * a write covering a whole chunk writes in place when the chunk is
//!   uniquely owned and otherwise installs a fresh chunk, copying no byte
//!   it is about to overwrite;
//! * [`Memory::write_payload`] adopts a payload that is exactly one whole
//!   chunk, and [`Memory::copy_from`] shares every whole aligned chunk of
//!   another memory, copying only the partial edges;
//! * a partial write to a chunk still aliased elsewhere copies it first.
//!
//! Every byte read back is the same as with private copies; only
//! ownership differs. A write to either side of a shared chunk replaces
//! or copies that side's chunk, so neither side sees the other's writes.

use apenet_sim::bytes::{self, PayloadSlice};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Backing granularity in bytes: the unit of lazy materialization,
/// sharing and copy-on-write.
pub const CHUNK_SIZE: u64 = 4096;

/// [`CHUNK_SIZE`] as an index type.
const CHUNK: usize = CHUNK_SIZE as usize;

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

/// A page-allocated memory region living at a fixed base address of the
/// 64-bit unified virtual address (UVA) space.
pub struct Memory {
    base: u64,
    capacity: u64,
    page_size: u64,
    /// Backing chunks by index; `None` reads as zeros.
    chunks: Vec<Option<Arc<[u8]>>>,
    /// Free ranges as offset → length, coalesced.
    free: BTreeMap<u64, u64>,
    /// Allocations as offset → length.
    allocs: BTreeMap<u64, u64>,
}

impl Memory {
    /// Create a memory of `capacity` bytes at UVA `base`, with the given
    /// page size (capacity must be page- and chunk-aligned).
    pub fn new(base: u64, capacity: u64, page_size: u64) -> Self {
        assert!(page_size.is_power_of_two());
        assert_eq!(capacity % page_size, 0, "capacity must be page aligned");
        assert_eq!(capacity % CHUNK_SIZE, 0, "capacity must be chunk aligned");
        let mut free = BTreeMap::new();
        free.insert(0, capacity);
        Memory {
            base,
            capacity,
            page_size,
            // The chunk table itself grows on first touch: a 6 GB device
            // memory has ~1.5M chunk slots, and zero-initializing them per
            // Memory was measurable in harnesses that build nodes per
            // benchmark repetition.
            chunks: Vec::new(),
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

    /// The slot of chunk `idx`, growing the table to reach it.
    fn slot(&mut self, idx: usize) -> &mut Option<Arc<[u8]>> {
        if self.chunks.len() <= idx {
            self.chunks.resize(idx + 1, None);
        }
        &mut self.chunks[idx]
    }

    /// The chunk `idx` if it was ever materialized.
    fn chunk(&self, idx: usize) -> Option<&Arc<[u8]>> {
        self.chunks.get(idx).and_then(Option::as_ref)
    }

    /// Chunk `idx`, materialized zero-filled on first touch.
    fn chunk_arc(&mut self, idx: usize) -> &mut Arc<[u8]> {
        self.slot(idx)
            .get_or_insert_with(|| vec![0u8; CHUNK].into())
    }

    /// Mutable view of chunk `idx`, zero-filled on first touch;
    /// copy-on-write when the chunk is still aliased elsewhere.
    fn chunk_mut(&mut self, idx: usize) -> &mut [u8] {
        let arc = self.chunk_arc(idx);
        if Arc::get_mut(arc).is_none() {
            bytes::note_copy(CHUNK_SIZE);
            *arc = Arc::from(&arc[..]);
        }
        Arc::get_mut(arc).expect("sole owner after copy-on-write")
    }

    /// Write `data` at UVA `addr`. A whole chunk is written in place when
    /// uniquely owned and replaced by a fresh copy of `data` when shared;
    /// a partial chunk is materialized or copied-on-write first.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        if !self.contains(addr, data.len() as u64) {
            return Err(MemError::OutOfRange);
        }
        let mut off = (addr - self.base) as usize;
        let mut src = data;
        while !src.is_empty() {
            let (idx, at) = (off / CHUNK, off % CHUNK);
            let n = (CHUNK - at).min(src.len());
            if n == CHUNK {
                let slot = self.slot(idx);
                if let Some(chunk) = slot.as_mut().and_then(Arc::get_mut) {
                    chunk.copy_from_slice(&src[..n]);
                } else {
                    *slot = Some(Arc::from(&src[..n]));
                }
            } else {
                self.chunk_mut(idx)[at..at + n].copy_from_slice(&src[..n]);
            }
            src = &src[n..];
            off += n;
        }
        Ok(())
    }

    /// Write `payload` at UVA `addr`. A payload that is exactly one whole
    /// chunk — the card's full-size fragment — landing chunk-aligned is
    /// adopted by reference; anything else is written as bytes.
    pub fn write_payload(&mut self, addr: u64, payload: &PayloadSlice) -> Result<(), MemError> {
        let off = addr.wrapping_sub(self.base);
        match payload.whole_buffer() {
            Some(buf)
                if buf.len() == CHUNK
                    && off.is_multiple_of(CHUNK_SIZE)
                    && self.contains(addr, CHUNK_SIZE) =>
            {
                *self.slot((off / CHUNK_SIZE) as usize) = Some(buf.clone());
                Ok(())
            }
            _ => self.write(addr, payload),
        }
    }

    /// Copy `len` bytes from `src_mem` at UVA `src` to UVA `dst` of this
    /// memory. Whole chunks at chunk-aligned offsets on both sides are
    /// shared by reference — a never-touched source chunk stays
    /// unmaterialized here too — and only the partial or unaligned edges
    /// copy bytes (accounted via [`bytes::note_copy`]).
    pub fn copy_from(
        &mut self,
        dst: u64,
        src_mem: &Memory,
        src: u64,
        len: u64,
    ) -> Result<(), MemError> {
        if !self.contains(dst, len) || !src_mem.contains(src, len) {
            return Err(MemError::OutOfRange);
        }
        let mut d = (dst - self.base) as usize;
        let mut s = (src - src_mem.base) as usize;
        let mut left = len as usize;
        while left > 0 {
            let (d_at, s_at) = (d % CHUNK, s % CHUNK);
            if d_at == 0 && s_at == 0 && left >= CHUNK {
                let shared = src_mem.chunk(s / CHUNK).cloned();
                *self.slot(d / CHUNK) = shared;
                d += CHUNK;
                s += CHUNK;
                left -= CHUNK;
                continue;
            }
            let n = (CHUNK - d_at).min(CHUNK - s_at).min(left);
            bytes::note_copy(n as u64);
            let out = &mut self.chunk_mut(d / CHUNK)[d_at..d_at + n];
            match src_mem.chunk(s / CHUNK) {
                Some(c) => out.copy_from_slice(&c[s_at..s_at + n]),
                None => out.fill(0),
            }
            d += n;
            s += n;
            left -= n;
        }
        Ok(())
    }

    /// Read into `out` from UVA `addr`. Reads share chunks: one still
    /// aliased by an in-flight [`PayloadSlice`] is not copied, and one
    /// never written reads as zeros without being materialized.
    pub fn read(&self, addr: u64, out: &mut [u8]) -> Result<(), MemError> {
        if !self.contains(addr, out.len() as u64) {
            return Err(MemError::OutOfRange);
        }
        let mut off = (addr - self.base) as usize;
        let mut dst = &mut out[..];
        while !dst.is_empty() {
            let (idx, at) = (off / CHUNK, off % CHUNK);
            let n = (CHUNK - at).min(dst.len());
            match self.chunk(idx) {
                Some(c) => dst[..n].copy_from_slice(&c[at..at + n]),
                None => dst[..n].fill(0),
            }
            dst = &mut dst[n..];
            off += n;
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
    /// When the range lies within a single chunk — true for the card's
    /// ≤ 4 KB packet fragments at chunk-aligned offsets, because
    /// allocations are page-aligned — this shares the chunk
    /// (materializing it zero-filled if never touched) and copies
    /// nothing. A range crossing chunks falls back to a gather copy
    /// (accounted via [`bytes::note_copy`]).
    pub fn read_payload(&mut self, addr: u64, len: u64) -> Result<PayloadSlice, MemError> {
        if !self.contains(addr, len) {
            return Err(MemError::OutOfRange);
        }
        if len == 0 {
            return Ok(PayloadSlice::empty());
        }
        let off = (addr - self.base) as usize;
        let (idx, at) = (off / CHUNK, off % CHUNK);
        if at + len as usize <= CHUNK {
            let chunk = self.chunk_arc(idx).clone();
            Ok(PayloadSlice::from_arc(chunk).narrow(at, len as usize))
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
    fn read_payload_single_chunk_is_zero_copy() {
        let mut m = mem();
        let a = m.alloc(128 * 1024).unwrap();
        m.write(a, &vec![0xAB; 64 * 1024]).unwrap();
        let before = bytes::copied_bytes();
        let p = m.read_payload(a + 4096, 4096).unwrap();
        assert_eq!(
            bytes::copied_bytes(),
            before,
            "single-chunk read shares the chunk"
        );
        assert_eq!(p.len(), 4096);
        assert!(p.iter().all(|&b| b == 0xAB));
        // Crossing a chunk boundary gathers (and accounts the copy).
        let q = m.read_payload(a + CHUNK_SIZE - 8, 16).unwrap();
        assert_eq!(q.len(), 16);
        assert!(bytes::copied_bytes() > before);
    }

    #[test]
    fn write_to_shared_chunk_copies_on_write() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        m.write(a, &[1, 2, 3, 4]).unwrap();
        let p = m.read_payload(a, 4).unwrap();
        // Writing while `p` aliases the chunk must not change what p sees.
        m.write(a, &[9, 9, 9, 9]).unwrap();
        assert_eq!(p.as_slice(), &[1, 2, 3, 4], "in-flight payload is stable");
        assert_eq!(m.read_vec(a, 4).unwrap(), vec![9, 9, 9, 9]);
    }

    #[test]
    fn read_of_shared_chunk_copies_nothing() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        m.write(a, &[1, 2, 3, 4]).unwrap();
        // The copy counter is process-wide and other tests copy
        // concurrently, so a few attempts are allowed; a read that
        // copies-on-write an aliased chunk fails every one of them.
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
            let chunk = m.chunks[0].as_ref().unwrap();
            assert_eq!(Arc::strong_count(chunk), 2, "chunk and alias still share");
            copied == 0
        });
        assert!(copies_nothing, "reading an aliased chunk copied it");
    }

    fn chunk_of(m: &Memory, addr: u64) -> Option<&Arc<[u8]>> {
        m.chunk(((addr - m.base()) / CHUNK_SIZE) as usize)
    }

    #[test]
    fn whole_chunk_write_to_an_owned_chunk_stays_in_place() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        m.write(a, &[1u8; CHUNK]).unwrap();
        let before = Arc::as_ptr(chunk_of(&m, a).unwrap());
        m.write(a, &[2u8; CHUNK]).unwrap();
        assert_eq!(
            Arc::as_ptr(chunk_of(&m, a).unwrap()),
            before,
            "no new allocation"
        );
        assert_eq!(m.read_vec(a, 4).unwrap(), vec![2; 4]);
    }

    #[test]
    fn write_payload_adopts_a_whole_aligned_chunk() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        let mut p = PayloadSlice::from_vec(vec![5u8; CHUNK]);
        m.write_payload(a + CHUNK_SIZE, &p).unwrap();
        let adopted = chunk_of(&m, a + CHUNK_SIZE).unwrap();
        assert!(Arc::ptr_eq(adopted, p.whole_buffer().unwrap()));

        // A write to the memory side leaves the payload's bytes alone,
        // whether it covers part of the chunk or all of it.
        m.write(a + CHUNK_SIZE + 10, &[1, 2, 3]).unwrap();
        assert!(p.iter().all(|&b| b == 5));
        assert_eq!(
            m.read_vec(a + CHUNK_SIZE + 8, 6).unwrap(),
            vec![5, 5, 1, 2, 3, 5]
        );
        m.write_payload(a + CHUNK_SIZE, &p).unwrap();
        m.write(a + CHUNK_SIZE, &[7u8; CHUNK]).unwrap();
        assert!(p.iter().all(|&b| b == 5));
        assert_eq!(m.read_vec(a + CHUNK_SIZE, 4).unwrap(), vec![7; 4]);

        // A write to the payload side leaves the memory's bytes alone.
        m.write_payload(a, &p).unwrap();
        p.make_mut()[0] = 9;
        assert_eq!(m.read_vec(a, 2).unwrap(), vec![5, 5]);
    }

    #[test]
    fn write_payload_copies_what_it_cannot_adopt() {
        let mut m = mem();
        let a = m.alloc(64 * 1024).unwrap();
        let whole = PayloadSlice::from_vec((0..2 * CHUNK).map(|i| i as u8).collect());
        let view = whole.narrow(0, CHUNK);
        let short = PayloadSlice::from_vec(vec![3u8; 100]);
        let one = PayloadSlice::from_vec(vec![4u8; CHUNK]);
        m.write_payload(a, &view).unwrap();
        m.write_payload(a + CHUNK_SIZE, &short).unwrap();
        m.write_payload(a + 2 * CHUNK_SIZE + 1, &one).unwrap();
        for c in 0..4 {
            let chunk = chunk_of(&m, a + c * CHUNK_SIZE).unwrap();
            for p in [&whole, &short, &one] {
                assert!(!Arc::ptr_eq(chunk, p.whole_buffer().unwrap()));
            }
        }
        assert_eq!(m.read_vec(a, CHUNK_SIZE).unwrap(), view.to_vec());
        assert_eq!(m.read_vec(a + CHUNK_SIZE, 100).unwrap(), vec![3; 100]);
        assert_eq!(
            m.read_vec(a + 2 * CHUNK_SIZE + 1, CHUNK_SIZE).unwrap(),
            vec![4; CHUNK]
        );
    }

    #[test]
    fn copy_from_shares_aligned_chunks_and_copies_edges() {
        let mut src = mem();
        let mut dst = Memory::new(0x7100_0000_0000, 1 << 20, 4096);
        let s = src.alloc(64 * 1024).unwrap();
        let d = dst.alloc(64 * 1024).unwrap();
        // Chunk 0 written, chunk 1 never touched, chunk 2 written.
        src.write(s, &[1u8; CHUNK]).unwrap();
        src.write(s + 2 * CHUNK_SIZE, &[2u8; CHUNK + 100]).unwrap();
        dst.write(d + CHUNK_SIZE, &[8u8; 16]).unwrap();
        dst.copy_from(d, &src, s, 3 * CHUNK_SIZE + 100).unwrap();
        assert!(Arc::ptr_eq(
            chunk_of(&dst, d).unwrap(),
            chunk_of(&src, s).unwrap()
        ));
        assert!(
            chunk_of(&dst, d + CHUNK_SIZE).is_none(),
            "an untouched source chunk stays unmaterialized"
        );
        // The 100-byte edge is a private copy.
        let edge = chunk_of(&dst, d + 3 * CHUNK_SIZE).unwrap();
        assert!(!Arc::ptr_eq(
            edge,
            chunk_of(&src, s + 3 * CHUNK_SIZE).unwrap()
        ));
        assert_eq!(
            dst.read_vec(d, 3 * CHUNK_SIZE + 101).unwrap(),
            src.read_vec(s, 3 * CHUNK_SIZE + 101).unwrap()
        );

        // Either side's later writes stay its own.
        src.write(s + 5, &[6, 6]).unwrap();
        dst.write(d + 2 * CHUNK_SIZE, &[7u8; CHUNK]).unwrap();
        assert_eq!(dst.read_vec(d + 4, 4).unwrap(), vec![1; 4]);
        assert_eq!(src.read_vec(s + 2 * CHUNK_SIZE, 2).unwrap(), vec![2, 2]);
    }

    #[test]
    fn copy_from_unaligned_copies_bytes() {
        let mut src = mem();
        let mut dst = mem();
        let s = src.alloc(64 * 1024).unwrap();
        let d = dst.alloc(64 * 1024).unwrap();
        let data: Vec<u8> = (0..3 * CHUNK).map(|i| (i % 251) as u8).collect();
        src.write(s, &data).unwrap();
        dst.copy_from(d + 1, &src, s, 2 * CHUNK_SIZE).unwrap();
        assert_eq!(
            dst.read_vec(d + 1, 2 * CHUNK_SIZE).unwrap(),
            data[..2 * CHUNK]
        );
        for c in 0..3 {
            let mine = chunk_of(&dst, d + c * CHUNK_SIZE).unwrap();
            assert!((0..3).all(|k| !Arc::ptr_eq(mine, chunk_of(&src, s + k * CHUNK_SIZE).unwrap())));
        }
    }

    #[test]
    fn copy_from_and_write_payload_range_checked() {
        let src = mem();
        let mut dst = mem();
        let end = src.base() + src.capacity();
        let chunk = PayloadSlice::from_vec(vec![1u8; CHUNK]);
        assert_eq!(
            dst.write_payload(end - CHUNK_SIZE / 2, &chunk),
            Err(MemError::OutOfRange)
        );
        assert_eq!(dst.write_payload(end, &chunk), Err(MemError::OutOfRange));
        assert_eq!(
            dst.copy_from(dst.base(), &src, end - 4, 8),
            Err(MemError::OutOfRange)
        );
        assert_eq!(
            dst.copy_from(end - 4, &src, src.base(), 8),
            Err(MemError::OutOfRange)
        );
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

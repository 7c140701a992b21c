//! Refcounted payload slices — the zero-copy byte fabric.
//!
//! The simulator is *functional*: RDMA PUTs move real bytes. The naive
//! representation (one `Vec<u8>` per ≤4 KB packet fragment) makes every
//! TX read-out, fault injection and RX hand-off a byte copy, which
//! dominates the wall-clock of large bandwidth sweeps. [`PayloadSlice`]
//! replaces it: an `Arc`-backed buffer plus a byte range, so
//!
//! * fragmentation is a refcount bump + range narrowing,
//! * integrity checks read the borrowed slice in place,
//! * RX delivery of a full-size fragment hands its buffer to the
//!   destination memory by reference ([`PayloadSlice::whole_buffer`]),
//! * mutation (fault injection, writes to a shared memory chunk) is
//!   copy-on-write of only the aliased bytes.
//!
//! A slice can be sealed ([`PayloadSlice::seal`]) without hashing
//! anything. [`PayloadSlice::make_mut`] is the only way to change the
//! viewed bytes, so a sealed slice that was never made mutable still
//! holds its seal-time bytes. Only the first `make_mut` after a seal
//! hashes: it records the CRC-32 of the bytes *before* the write, and
//! [`PayloadSlice::unchanged_since_seal`] then compares the current
//! bytes against it. A clean datapath therefore hashes no payload byte,
//! and a rewritten payload pays one pass at the write and one per check.
//!
//! The module keeps global [`copied_bytes`] and [`hashed_bytes`] counters
//! so tests can assert that a clean datapath really performs zero payload
//! copies and zero CRC passes.

use crate::crc::Crc32;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes copied by copy-on-write and gather fall-backs, process-wide.
static COPIED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Record `n` payload bytes copied (slow path). Public so memory models
/// outside this crate can account their own gather copies.
pub fn note_copy(n: u64) {
    COPIED_BYTES.fetch_add(n, Ordering::Relaxed);
}

/// Total payload bytes copied on slow paths since process start.
/// Monotone; compare before/after a region to measure its copy traffic.
pub fn copied_bytes() -> u64 {
    COPIED_BYTES.load(Ordering::Relaxed)
}

/// Payload bytes fed through CRC-32, process-wide.
static HASHED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total payload bytes hashed since process start. Monotone; compare
/// before/after a region to count its CRC passes.
pub fn hashed_bytes() -> u64 {
    HASHED_BYTES.load(Ordering::Relaxed)
}

/// Where a slice stands against its seal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seal {
    /// Never sealed: fresh from a constructor or [`PayloadSlice::narrow`].
    Open,
    /// Sealed and never made mutable since: the bytes are the seal-time
    /// bytes.
    Clean,
    /// Sealed, then made mutable: the CRC-32 of the bytes at the seal.
    Dirty(u32),
}

/// An immutable, cheaply clonable view of a byte range inside a shared
/// buffer. Cloning and narrowing never copy; [`PayloadSlice::make_mut`]
/// copies only when the bytes are actually shared.
///
/// Clones keep the seal state; equality ignores it.
#[derive(Clone)]
pub struct PayloadSlice {
    buf: Arc<[u8]>,
    start: usize,
    len: usize,
    seal: Seal,
}

impl PayloadSlice {
    /// The empty slice (no backing allocation).
    pub fn empty() -> Self {
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        let buf = EMPTY.get_or_init(|| Arc::from(&[][..])).clone();
        PayloadSlice {
            buf,
            start: 0,
            len: 0,
            seal: Seal::Open,
        }
    }

    /// Take ownership of a vector (no copy).
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        PayloadSlice {
            buf: v.into(),
            start: 0,
            len,
            seal: Seal::Open,
        }
    }

    /// Share an existing buffer (refcount bump).
    pub fn from_arc(buf: Arc<[u8]>) -> Self {
        let len = buf.len();
        PayloadSlice {
            buf,
            start: 0,
            len,
            seal: Seal::Open,
        }
    }

    /// A sub-range of this slice, relative to its start. Zero-copy.
    ///
    /// Panics when `offset + len` exceeds the slice.
    pub fn narrow(&self, offset: usize, len: usize) -> Self {
        assert!(
            offset + len <= self.len,
            "narrow({offset}, {len}) out of range for slice of {}",
            self.len
        );
        PayloadSlice {
            buf: self.buf.clone(),
            start: self.start + offset,
            len,
            seal: Seal::Open,
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when this slice is the sole owner of its backing buffer and
    /// views all of it (mutation would be free).
    pub fn is_unique(&self) -> bool {
        self.start == 0 && self.len == self.buf.len() && Arc::strong_count(&self.buf) == 1
    }

    /// The backing buffer, when this slice views all of it: what a
    /// memory model can adopt by reference instead of copying the bytes.
    pub fn whole_buffer(&self) -> Option<&Arc<[u8]>> {
        (self.start == 0 && self.len == self.buf.len()).then_some(&self.buf)
    }

    /// Take the current bytes as the reference that
    /// [`Self::unchanged_since_seal`] checks against. Hashes nothing.
    pub fn seal(&mut self) {
        self.seal = Seal::Clean;
    }

    /// Take over `from`'s seal: from now on this slice counts as
    /// unchanged only while its bytes hash to what `from`'s bytes did
    /// when `from` was sealed. Hashes `from` once if it is still clean;
    /// an unsealed `from` leaves this slice unsealed.
    pub fn inherit_seal(&mut self, from: &PayloadSlice) {
        self.seal = match from.seal {
            Seal::Open => Seal::Open,
            Seal::Clean => Seal::Dirty(from.hash()),
            Seal::Dirty(crc) => Seal::Dirty(crc),
        };
    }

    /// True when the bytes hash to what they did at the seal. Free on a
    /// slice never made mutable since its seal; otherwise one CRC-32
    /// pass over the current bytes. An unsealed slice has nothing to
    /// match and returns false.
    pub fn unchanged_since_seal(&self) -> bool {
        match self.seal {
            Seal::Open => false,
            Seal::Clean => true,
            Seal::Dirty(crc) => self.hash() == crc,
        }
    }

    fn hash(&self) -> u32 {
        HASHED_BYTES.fetch_add(self.len as u64, Ordering::Relaxed);
        Crc32::of(self.as_slice())
    }

    /// Mutable access, copy-on-write: when the backing buffer is shared
    /// (or only partially viewed), the viewed range — and nothing more —
    /// is copied into a fresh buffer first. The first call after a seal
    /// hashes the bytes before they can change, so the seal survives
    /// the write.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.seal == Seal::Clean {
            self.seal = Seal::Dirty(self.hash());
        }
        if !self.is_unique() {
            note_copy(self.len as u64);
            let owned: Arc<[u8]> = Arc::from(self.as_slice());
            self.buf = owned;
            self.start = 0;
        }
        // self.start == 0 and len == buf.len() now hold.
        Arc::get_mut(&mut self.buf).expect("sole owner after copy-on-write")
    }
}

impl Deref for PayloadSlice {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for PayloadSlice {
    fn from(v: Vec<u8>) -> Self {
        PayloadSlice::from_vec(v)
    }
}

impl PartialEq for PayloadSlice {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadSlice {}

impl std::fmt::Debug for PayloadSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PayloadSlice({} B", self.len)?;
        if !self.is_unique() {
            write!(f, ", shared")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests that count copies on the process-wide counter take turns,
    /// so no other test in this binary copies while one counts.
    fn copy_counter_turn() -> MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        TURN.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn narrow_is_zero_copy() {
        let _turn = copy_counter_turn();
        let base = copied_bytes();
        let p = PayloadSlice::from_vec((0..=255u8).cycle().take(8192).collect());
        let a = p.narrow(0, 4096);
        let b = p.narrow(4096, 4096);
        assert_eq!(a.len(), 4096);
        assert_eq!(b.as_slice()[0], (4096 % 256) as u8);
        assert_eq!(copied_bytes(), base, "no bytes copied by narrowing");
    }

    #[test]
    fn make_mut_copies_only_when_shared() {
        let _turn = copy_counter_turn();
        let mut sole = PayloadSlice::from_vec(vec![1u8; 64]);
        let base = copied_bytes();
        sole.make_mut()[0] = 9;
        assert_eq!(copied_bytes(), base, "unique slice mutates in place");

        let whole = PayloadSlice::from_vec(vec![2u8; 64]);
        let mut shared = whole.clone();
        shared.make_mut()[0] = 9;
        assert_eq!(copied_bytes(), base + 64, "shared slice copied 64 B");
        assert_eq!(whole.as_slice()[0], 2, "original untouched");
        assert_eq!(shared.as_slice()[0], 9);
    }

    #[test]
    fn make_mut_on_narrow_copies_only_the_view() {
        let _turn = copy_counter_turn();
        let whole = PayloadSlice::from_vec(vec![7u8; 4096]);
        let mut frag = whole.narrow(1024, 16);
        let base = copied_bytes();
        frag.make_mut()[15] ^= 0x10;
        assert_eq!(copied_bytes(), base + 16, "only the fragment copied");
        assert_eq!(frag.len(), 16);
        assert_eq!(whole.as_slice()[1024 + 15], 7);
    }

    #[test]
    fn whole_buffer_only_for_a_full_view() {
        let whole = PayloadSlice::from_vec(vec![1u8; 64]);
        let buf = whole.whole_buffer().expect("views all of its buffer");
        assert!(Arc::ptr_eq(buf, &whole.clone().buf));
        assert!(whole.narrow(0, 32).whole_buffer().is_none());
        assert!(whole.narrow(0, 64).whole_buffer().is_some());
    }

    #[test]
    fn empty_and_eq() {
        let e = PayloadSlice::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let a = PayloadSlice::from_vec(vec![1, 2, 3]);
        let b = PayloadSlice::from_vec(vec![1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.narrow(1, 2), b.narrow(1, 2));
        assert_ne!(a, e);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn narrow_out_of_range_panics() {
        PayloadSlice::from_vec(vec![0; 8]).narrow(4, 8);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn seal_state_fits_where_the_memo_was() {
        // Arc<[u8]> (16) + start (8) + len (8) + seal state (8).
        assert_eq!(std::mem::size_of::<PayloadSlice>(), 40);
    }

    #[test]
    fn deref_works() {
        let p = PayloadSlice::from_vec(vec![5u8; 10]);
        assert_eq!(p[3], 5);
        assert_eq!(p.iter().copied().sum::<u8>(), 50);
    }
}

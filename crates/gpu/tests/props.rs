//! Property tests for the GPU memory model: a model-based check of the
//! allocator, of data integrity across page and chunk boundaries, and of
//! chunk sharing between two memories.

use apenet_gpu::mem::{Memory, CHUNK_SIZE};
use apenet_gpu::{GPU_PAGE_SIZE, HOST_PAGE_SIZE};
use apenet_sim::bytes::PayloadSlice;
use apenet_sim::check::{self, Gen};

/// Each memory's capacity: small enough to check whole after every op.
const CAP: u64 = 1 << 20;

/// Where a [`Op::WritePayload`]'s bytes come from.
#[derive(Debug, Clone, Copy)]
enum PayloadSrc {
    /// A fresh buffer viewed whole: adoptable when it is one chunk.
    Fresh { seed: u8 },
    /// A narrowed view of a larger buffer: never adoptable.
    Narrowed { seed: u8 },
    /// A slice read from the other memory, as the card's RX path
    /// delivers a TX fragment.
    Other { nth: usize, off: u64 },
}

#[derive(Debug, Clone)]
enum Op {
    Alloc {
        mem: usize,
        len: u64,
    },
    FreeNth {
        mem: usize,
        nth: usize,
    },
    Write {
        mem: usize,
        nth: usize,
        off: u64,
        len: u64,
        seed: u8,
    },
    WritePayload {
        mem: usize,
        nth: usize,
        off: u64,
        len: u64,
        src: PayloadSrc,
    },
    /// Copy from the other memory into `mem`.
    CopyFrom {
        mem: usize,
        nth: usize,
        off: u64,
        src_nth: usize,
        src_off: u64,
        len: u64,
    },
    /// Rewrite a payload still held from an earlier `WritePayload`.
    MutateHeld {
        nth: usize,
        seed: u8,
    },
    /// Compare a range in place against the model's bytes, or against
    /// them with the byte at `flip` (modulo the length) changed.
    EqAt {
        mem: usize,
        nth: usize,
        off: u64,
        len: u64,
        flip: Option<u64>,
    },
}

/// An offset that is chunk-aligned half the time.
fn gen_off(g: &mut Gen) -> u64 {
    if g.chance(0.5) {
        g.u64(0, 40) * CHUNK_SIZE
    } else {
        g.u64(0, 160_000)
    }
}

/// A length that is one chunk, a run of whole chunks, or arbitrary.
fn gen_len(g: &mut Gen, max: u64) -> u64 {
    match g.u32(0, 3) {
        0 => CHUNK_SIZE.min(max),
        1 => (g.u64(1, 16) * CHUNK_SIZE).min(max),
        _ => g.u64(1, max + 1),
    }
}

fn gen_op(g: &mut Gen) -> Op {
    let mem = g.usize(0, 2);
    let nth = g.usize(0, 16);
    match g.u32(0, 11) {
        0 | 1 => Op::Alloc {
            mem,
            len: g.u64(1, 200_000),
        },
        2 => Op::FreeNth { mem, nth },
        3 => Op::Write {
            mem,
            nth,
            off: gen_off(g),
            len: gen_len(g, 50_000),
            seed: g.byte(),
        },
        4..=6 => Op::WritePayload {
            mem,
            nth,
            off: gen_off(g),
            len: gen_len(g, CHUNK_SIZE),
            src: match g.u32(0, 3) {
                0 => PayloadSrc::Fresh { seed: g.byte() },
                1 => PayloadSrc::Narrowed { seed: g.byte() },
                _ => PayloadSrc::Other {
                    nth: g.usize(0, 16),
                    off: gen_off(g),
                },
            },
        },
        7 | 8 => Op::CopyFrom {
            mem,
            nth,
            off: gen_off(g),
            src_nth: g.usize(0, 16),
            src_off: gen_off(g),
            len: gen_len(g, 100_000),
        },
        9 => Op::MutateHeld {
            nth,
            seed: g.byte(),
        },
        _ => Op::EqAt {
            mem,
            nth,
            off: gen_off(g),
            len: gen_len(g, 100_000),
            flip: g.chance(0.5).then(|| g.u64(0, 1 << 20)),
        },
    }
}

fn pattern(len: u64, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13) ^ seed)
        .collect()
}

/// One memory under test beside its byte model.
struct Side {
    mem: Memory,
    /// Every byte of the memory, by offset from its base.
    model: Vec<u8>,
    /// Live allocations as (address, requested length).
    live: Vec<(u64, u64)>,
}

impl Side {
    fn new(base: u64, page: u64) -> Self {
        Side {
            mem: Memory::new(base, CAP, page),
            model: vec![0; CAP as usize],
            live: Vec::new(),
        }
    }

    /// The address of `off..off+len` inside the `nth` live allocation,
    /// if it fits.
    fn range(&self, nth: usize, off: u64, len: u64) -> Option<u64> {
        if self.live.is_empty() {
            return None;
        }
        let (addr, alen) = self.live[nth % self.live.len()];
        (off + len <= alen).then_some(addr + off)
    }

    fn model_at(&mut self, addr: u64, len: u64) -> &mut [u8] {
        let off = (addr - self.mem.base()) as usize;
        &mut self.model[off..off + len as usize]
    }

    /// Every live allocation reads back as the model says.
    fn check(&self) {
        let page = self.mem.page_size();
        for &(addr, len) in &self.live {
            let len = len.next_multiple_of(page);
            let off = (addr - self.mem.base()) as usize;
            let back = self.mem.read_vec(addr, len).unwrap();
            assert!(
                back == self.model[off..off + len as usize],
                "memory at {addr:#x}+{len} diverged from the model"
            );
        }
        let live_total: u64 = self
            .live
            .iter()
            .map(|&(_, l)| l.next_multiple_of(page))
            .sum();
        assert_eq!(self.mem.allocated(), live_total);
    }
}

/// Two memories and the payloads still in flight between them. The
/// allocator never double-allocates or loses capacity, and after every
/// op — allocs, frees, writes, payload writes, cross-memory copies and
/// rewrites of held payloads, across any interleaving of page sizes,
/// alignments and whole or partial chunks — both memories and every
/// held payload read back exactly as the model says. In-place
/// comparisons agree with the model, and one changed byte fails them.
#[test]
fn memory_model_based() {
    check::cases("memory_model_based", 64, |g| {
        let ops = g.vec_of(1, 80, gen_op);
        let mut page = || {
            if g.chance(0.5) {
                GPU_PAGE_SIZE
            } else {
                HOST_PAGE_SIZE
            }
        };
        let pages = [page(), page()];
        let mut sides = [
            Side::new(0x9000_0000, pages[0]),
            Side::new(0xA000_0000, pages[1]),
        ];
        // Payloads written into a memory, with the bytes they must keep.
        let mut held: Vec<(PayloadSlice, Vec<u8>)> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { mem, len } => {
                    let side = &mut sides[mem];
                    let page = side.mem.page_size();
                    if let Ok(addr) = side.mem.alloc(len) {
                        assert_eq!(addr % page, 0, "page-aligned");
                        // No overlap with any live allocation.
                        let rounded = len.next_multiple_of(page);
                        for &(a, l) in &side.live {
                            let lr = l.next_multiple_of(page);
                            assert!(
                                addr + rounded <= a || a + lr <= addr,
                                "overlap: new [{addr},{}) vs [{a},{})",
                                addr + rounded,
                                a + lr
                            );
                        }
                        side.live.push((addr, len));
                    }
                }
                Op::FreeNth { mem, nth } => {
                    let side = &mut sides[mem];
                    if !side.live.is_empty() {
                        let (addr, _) = side.live.remove(nth % side.live.len());
                        assert!(side.mem.free(addr).is_ok());
                    }
                }
                Op::Write {
                    mem,
                    nth,
                    off,
                    len,
                    seed,
                } => {
                    let side = &mut sides[mem];
                    if let Some(addr) = side.range(nth, off, len) {
                        let data = pattern(len, seed);
                        side.mem.write(addr, &data).unwrap();
                        side.model_at(addr, len).copy_from_slice(&data);
                        // The refcounted read path agrees byte-for-byte
                        // with the copying one.
                        let payload = side.mem.read_payload(addr, len).unwrap();
                        assert_eq!(payload.as_slice(), &data[..]);
                    }
                }
                Op::WritePayload {
                    mem,
                    nth,
                    off,
                    len,
                    src,
                } => {
                    let [a, b] = &mut sides;
                    let (side, other) = if mem == 0 { (a, b) } else { (b, a) };
                    let Some(addr) = side.range(nth, off, len) else {
                        continue;
                    };
                    let payload = match src {
                        PayloadSrc::Fresh { seed } => PayloadSlice::from_vec(pattern(len, seed)),
                        PayloadSrc::Narrowed { seed } => {
                            PayloadSlice::from_vec(pattern(len + 8, seed)).narrow(4, len as usize)
                        }
                        PayloadSrc::Other { nth, off } => match other.range(nth, off, len) {
                            Some(src) => other.mem.read_payload(src, len).unwrap(),
                            None => continue,
                        },
                    };
                    side.mem.write_payload(addr, &payload).unwrap();
                    side.model_at(addr, len).copy_from_slice(&payload);
                    let bytes = payload.to_vec();
                    held.push((payload, bytes));
                    if held.len() > 8 {
                        held.remove(0);
                    }
                }
                Op::CopyFrom {
                    mem,
                    nth,
                    off,
                    src_nth,
                    src_off,
                    len,
                } => {
                    let [a, b] = &mut sides;
                    let (side, other) = if mem == 0 { (a, b) } else { (b, a) };
                    if let (Some(dst), Some(src)) = (
                        side.range(nth, off, len),
                        other.range(src_nth, src_off, len),
                    ) {
                        side.mem.copy_from(dst, &other.mem, src, len).unwrap();
                        let data = other.model_at(src, len).to_vec();
                        side.model_at(dst, len).copy_from_slice(&data);
                    }
                }
                Op::MutateHeld { nth, seed } => {
                    if !held.is_empty() {
                        let n = nth % held.len();
                        let (payload, bytes) = &mut held[n];
                        let data = pattern(bytes.len() as u64, seed);
                        payload.make_mut().copy_from_slice(&data);
                        *bytes = data;
                    }
                }
                Op::EqAt {
                    mem,
                    nth,
                    off,
                    len,
                    flip,
                } => {
                    let side = &mut sides[mem];
                    if let Some(addr) = side.range(nth, off, len) {
                        let mut expected = side.model_at(addr, len).to_vec();
                        if let Some(at) = flip {
                            expected[(at % len) as usize] ^= 0x01;
                        }
                        assert_eq!(
                            side.mem.eq_at(addr, &expected),
                            Ok(flip.is_none()),
                            "eq_at at {addr:#x}+{len}, flip {flip:?}"
                        );
                    }
                }
            }
            for side in &sides {
                side.check();
            }
            for (payload, bytes) in &held {
                assert_eq!(payload.as_slice(), &bytes[..], "a held payload changed");
            }
        }
    });
}

/// Page spans cover exactly the pages a range touches.
#[test]
fn page_span_exact() {
    check::check("page_span_exact", |g| {
        let off = g.u64(0, 1 << 20);
        let len = g.u64(1, 1 << 18);
        if off + len > 4 << 20 {
            return; // out of the memory's range: skip the case
        }
        let mem = Memory::new(0, 4 << 20, GPU_PAGE_SIZE);
        let span = mem.page_span(off, len).unwrap();
        let first = off / GPU_PAGE_SIZE;
        let last = (off + len - 1) / GPU_PAGE_SIZE;
        assert_eq!(span.len() as u64, last - first + 1);
        assert_eq!(span[0], first * GPU_PAGE_SIZE);
        for w in span.windows(2) {
            assert_eq!(w[1] - w[0], GPU_PAGE_SIZE);
        }
    });
}

//! The `PayloadSlice` seal: what each operation hashes, and that
//! `unchanged_since_seal` always answers "do the bytes hash to what they
//! did at the seal?".
//!
//! Hashing is observed through the process-wide `hashed_bytes` counter.
//! These tests live in their own binary, and take `COUNTER` in turn, so
//! no other test moves the counter while they read it.

use apenet_sim::bytes::{hashed_bytes, PayloadSlice};
use apenet_sim::check;
use apenet_sim::crc::Crc32;
use std::sync::Mutex;

static COUNTER: Mutex<()> = Mutex::new(());

/// Run `f` and return its result with the payload bytes it hashed.
fn hashed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = hashed_bytes();
    let r = f();
    (r, hashed_bytes() - before)
}

#[test]
fn seal_hashes_nothing_and_the_first_write_hashes_once() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let bytes: Vec<u8> = (0..=255u8).collect();
    let mut p = PayloadSlice::from_vec(bytes.clone());
    assert_eq!(hashed(|| p.unchanged_since_seal()), (false, 0), "unsealed");

    assert_eq!(hashed(|| p.seal()).1, 0, "sealing hashes nothing");
    assert_eq!(
        hashed(|| p.unchanged_since_seal()),
        (true, 0),
        "clean check"
    );
    let c = p.clone();
    assert_eq!(hashed(|| c.unchanged_since_seal()), (true, 0), "clone");
    assert!(!p.narrow(1, 8).unchanged_since_seal(), "narrow unseals");
    assert_eq!(p, PayloadSlice::from_vec(bytes), "== ignores the seal");

    let mut w = c.clone();
    assert_eq!(hashed(|| w.make_mut()[0] ^= 1).1, 256, "first write hashes");
    assert_eq!(hashed(|| w.make_mut()[0] ^= 1).1, 0, "... and only once");
    assert_eq!(hashed(|| w.unchanged_since_seal()), (true, 256), "restored");
    w.make_mut()[0] ^= 1;
    assert_eq!(hashed(|| w.unchanged_since_seal()), (false, 256), "changed");
    assert!(c.unchanged_since_seal(), "the other owner keeps its seal");
    w.seal();
    assert_eq!(hashed(|| w.unchanged_since_seal()), (true, 0), "re-sealed");
}

/// One slice of the model: the slice, and the bytes it held at its seal
/// (`None` while unsealed) plus whether it was written since.
struct Entry {
    slice: PayloadSlice,
    at_seal: Option<Vec<u8>>,
    written: bool,
}

/// Random seal, clone, narrow, write and seal-transfer sequences, checked
/// against a reference copy of each slice's seal-time bytes: every check
/// agrees with `CRC(now) == CRC(at seal)`, a clean check hashes nothing,
/// and only the first write after a seal hashes — exactly its length.
#[test]
fn seal_state_matches_a_reference_model() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let (mut clean_checks, mut dirty_checks) = (0u64, 0u64);
    check::cases("seal state model", 128, |g| {
        let mut pool = vec![Entry {
            slice: PayloadSlice::from_vec(g.bytes(1, 64)),
            at_seal: None,
            written: false,
        }];
        for _ in 0..g.usize(1, 40) {
            let i = g.usize(0, pool.len());
            match g.u32(0, 5) {
                0 => {
                    let e = &pool[i];
                    let (slice, n) = hashed(|| e.slice.clone());
                    assert_eq!(n, 0, "clone hashed");
                    let (at_seal, written) = (e.at_seal.clone(), e.written);
                    pool.push(Entry {
                        slice,
                        at_seal,
                        written,
                    });
                }
                1 => {
                    let len = pool[i].slice.len();
                    let off = g.usize(0, len + 1);
                    let n = g.usize(0, len - off + 1);
                    let (slice, h) = hashed(|| pool[i].slice.narrow(off, n));
                    assert_eq!(h, 0, "narrow hashed");
                    pool.push(Entry {
                        slice,
                        at_seal: None,
                        written: false,
                    });
                }
                2 => {
                    let e = &mut pool[i];
                    assert_eq!(hashed(|| e.slice.seal()).1, 0, "seal hashed");
                    e.at_seal = Some(e.slice.to_vec());
                    e.written = false;
                }
                3 => {
                    let e = &mut pool[i];
                    let first = e.at_seal.is_some() && !e.written;
                    let flip = g.byte() | 1;
                    let (_, h) = hashed(|| {
                        let s = e.slice.make_mut();
                        if !s.is_empty() {
                            let at = flip as usize % s.len();
                            s[at] ^= flip;
                        }
                    });
                    let want = if first { e.slice.len() as u64 } else { 0 };
                    assert_eq!(h, want, "write hashed {h} B, first = {first}");
                    e.written |= e.at_seal.is_some();
                }
                _ => {
                    let j = g.usize(0, pool.len());
                    let from = pool[j].slice.clone();
                    let (at_seal, clean) = (pool[j].at_seal.clone(), !pool[j].written);
                    let e = &mut pool[i];
                    let (_, h) = hashed(|| e.slice.inherit_seal(&from));
                    let want = if at_seal.is_some() && clean {
                        from.len() as u64
                    } else {
                        0
                    };
                    assert_eq!(h, want, "inherit_seal hashed {h} B");
                    e.written = at_seal.is_some();
                    e.at_seal = at_seal;
                }
            }
            for e in &pool {
                let (ok, h) = hashed(|| e.slice.unchanged_since_seal());
                match &e.at_seal {
                    None => assert_eq!((ok, h), (false, 0), "unsealed {:?}", e.slice),
                    Some(at_seal) => {
                        let want = Crc32::of(&e.slice) == Crc32::of(at_seal);
                        assert_eq!(ok, want, "stale seal on {:?}", e.slice);
                        let cost = if e.written { e.slice.len() as u64 } else { 0 };
                        assert_eq!(h, cost, "check hashed {h} B");
                        if e.written {
                            dirty_checks += 1;
                        } else {
                            clean_checks += 1;
                        }
                    }
                }
            }
        }
    });
    assert!(
        clean_checks > 0 && dirty_checks > 0,
        "sequences never reached both seal states"
    );
}

//! The `PayloadSlice` CRC memo: which operations keep it, which drop it,
//! and that it never goes stale.
//!
//! A memo is observed through the process-wide `hashed_bytes` counter:
//! reading the CRC of a memoized non-empty slice hashes nothing. These
//! tests live in their own binary, and take `COUNTER` in turn, so no
//! other test moves the counter while they read it.

use apenet_sim::bytes::{hashed_bytes, PayloadSlice};
use apenet_sim::check;
use apenet_sim::crc::Crc32;
use std::sync::{Arc, Mutex};

static COUNTER: Mutex<()> = Mutex::new(());

/// True when `p` (non-empty) carries a CRC memo.
fn memoized(p: &PayloadSlice) -> bool {
    let before = hashed_bytes();
    p.crc32();
    hashed_bytes() == before
}

#[test]
fn clone_keeps_the_memo_and_every_other_constructor_drops_it() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let bytes: Vec<u8> = (0..=255u8).collect();
    let mut p = PayloadSlice::from_vec(bytes.clone());
    assert!(!memoized(&p), "from_vec starts unsealed");
    let before = hashed_bytes();
    assert_eq!(p.crc32(), Crc32::of(&bytes));
    assert_eq!(hashed_bytes() - before, 256, "an unsealed read hashes");
    assert!(!memoized(&p), "... and stores nothing");

    let crc = p.seal_crc();
    assert_eq!(crc, Crc32::of(&bytes));
    assert!(memoized(&p));
    assert_eq!(p.seal_crc(), crc);
    assert_eq!(
        p,
        PayloadSlice::from_vec(bytes.clone()),
        "== ignores the memo"
    );

    let c = p.clone();
    assert!(memoized(&c), "clone keeps the memo");
    assert_eq!(c.crc32(), crc);
    assert!(!memoized(&p.narrow(1, 8)), "narrow drops the memo");
    assert!(!memoized(&PayloadSlice::from_arc(Arc::from(&bytes[..]))));

    let mut shared = c.clone();
    shared.make_mut()[0] ^= 1;
    assert!(!memoized(&shared), "copy-on-write make_mut drops the memo");
    assert!(memoized(&c), "... and leaves the other owner's memo");

    let mut unique = PayloadSlice::from_vec(bytes);
    unique.seal_crc();
    assert!(unique.is_unique());
    unique.make_mut();
    assert!(!memoized(&unique), "in-place make_mut drops the memo");
}

/// Whatever mix of clones, narrows, seals and writes a slice goes
/// through, its CRC — memoized or not — is the CRC of its current bytes.
#[test]
fn crc_memo_always_matches_the_bytes() {
    let _turn = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let mut memo_hits = 0u64;
    check::cases("crc memo matches bytes", 128, |g| {
        let mut pool = vec![PayloadSlice::from_vec(g.bytes(1, 64))];
        for _ in 0..g.usize(1, 40) {
            let i = g.usize(0, pool.len());
            match g.u32(0, 4) {
                0 => {
                    let c = pool[i].clone();
                    pool.push(c);
                }
                1 => {
                    let len = pool[i].len();
                    let off = g.usize(0, len + 1);
                    let n = g.usize(0, len - off + 1);
                    let s = pool[i].narrow(off, n);
                    pool.push(s);
                }
                2 => {
                    pool[i].seal_crc();
                }
                _ => {
                    let flip = g.byte() | 1;
                    let s = pool[i].make_mut();
                    if !s.is_empty() {
                        let at = flip as usize % s.len();
                        s[at] ^= flip;
                    }
                }
            }
            for p in pool.iter().filter(|p| !p.is_empty()) {
                let before = hashed_bytes();
                assert_eq!(p.crc32(), Crc32::of(p), "stale memo on {p:?}");
                memo_hits += u64::from(hashed_bytes() == before);
            }
        }
    });
    assert!(memo_hits > 0, "no sequence ever read a memo");
}

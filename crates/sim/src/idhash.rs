//! The one hasher for maps keyed by simulator ids: message ids, span
//! ids, page numbers, buffer addresses.
//!
//! Those keys come from the simulator, not from an adversary, so the
//! default `RandomState`'s flooding resistance buys nothing, and its
//! SipHash rounds cost more than the map lookup around them. No map
//! built on [`IdHasher`] may be iterated into an output: iteration order
//! is a function of the hash, and nothing should depend on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes integer ids with one folded 64×64→128-bit multiply per word,
/// which mixes low input bits into the high output bits and high input
/// bits into the low ones.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by simulator ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of simulator ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn narrow_words_hash_like_their_u64_widening() {
        for n in [0u64, 1, 0xFF, 0xFFFF, 0xDEAD_BEEF] {
            let mut h = IdHasher::default();
            h.write_u64(n);
            assert_eq!(hash(n), h.finish());
            assert_eq!(hash(n as u32), h.finish(), "u32 {n}");
            if n <= 0xFFFF {
                assert_eq!(hash(n as u16), h.finish(), "u16 {n}");
            }
        }
    }

    #[test]
    fn sequential_ids_spread_over_buckets() {
        // hashbrown takes the bucket from the low bits and the control
        // byte from the top seven: both must vary over dense ids.
        let low: IdSet<u64> = (0..4096u64).map(|i| hash(i) & 0xFFF).collect();
        let top: IdSet<u64> = (0..4096u64).map(|i| hash(i) >> 57).collect();
        assert!(low.len() > 2048, "{} low-bit buckets", low.len());
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: IdMap<(u32, u64), u32> = IdMap::default();
        for i in 0..1000u32 {
            m.insert((i % 7, u64::from(i)), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(3, 10)], 10);
        let s: IdSet<u64> = (0..100).collect();
        assert!(s.contains(&42) && !s.contains(&100));
    }
}

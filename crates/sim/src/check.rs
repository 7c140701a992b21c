//! A small deterministic property-testing loop.
//!
//! Stand-in for `proptest` in the offline build: each property runs a
//! fixed number of cases, every case drawing its inputs from a [`Gen`]
//! seeded as `splitmix(base_seed + case_index)`. There is no shrinking;
//! on failure the harness reports the property name, case index and the
//! per-case seed so the failing case can be replayed exactly with
//! `APENET_PROP_SEED=<seed> APENET_PROP_CASES=1`.
//!
//! ```
//! apenet_sim::check::cases("addition commutes", 64, |g| {
//!     let a = g.u64(0, 1 << 32);
//!     let b = g.u64(0, 1 << 32);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::env::{env_var, EnvError};
use crate::rng::Xoshiro256ss;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Default base seed for case generation. Fixed so test runs are
/// reproducible across machines; override with `APENET_PROP_SEED`.
pub const DEFAULT_SEED: u64 = 0xA9E7_2013;

/// Default number of cases per property; override with
/// `APENET_PROP_CASES`.
pub const DEFAULT_CASES: u32 = 64;

/// A source of random test inputs for one case.
pub struct Gen {
    rng: Xoshiro256ss,
}

impl Gen {
    /// A generator seeded for one case.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: Xoshiro256ss::seed_from(seed),
        }
    }

    /// Uniform `u64` in the half-open range `[lo, hi)`. Panics if empty.
    pub fn u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.rng.next_below(hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64(lo as u64, hi as u64) as u32
    }

    /// A uniformly random byte.
    pub fn byte(&mut self) -> u8 {
        (self.rng.next_u64() & 0xFF) as u8
    }

    /// A coin flip with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    /// A random byte vector with length in `[min_len, max_len]`.
    pub fn bytes(&mut self, min_len: usize, max_len: usize) -> Vec<u8> {
        let n = self.usize(min_len, max_len + 1);
        (0..n).map(|_| self.byte()).collect()
    }

    /// A vector of `[min_len, max_len]` items drawn by `f`.
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let n = self.usize(min_len, max_len + 1);
        (0..n).map(|_| f(self)).collect()
    }

    /// A uniformly random element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize(0, items.len())]
    }

    /// Raw access to the underlying stream for ad-hoc draws.
    pub fn rng(&mut self) -> &mut Xoshiro256ss {
        &mut self.rng
    }
}

const UINT_GRAMMAR: &str = "an unsigned integer";

/// The grammar of the case-count and seed env vars: an unsigned decimal
/// integer that fits `T`, surrounding whitespace allowed. Empty reads as
/// `None` (use the default).
fn parse_uint<T: std::str::FromStr>(var: &'static str, v: &str) -> Result<Option<T>, EnvError> {
    let v = v.trim();
    if v.is_empty() {
        return Ok(None);
    }
    v.parse()
        .map(Some)
        .map_err(|_| EnvError::new(var, v, UINT_GRAMMAR))
}

/// `var` read through [`parse_uint`].
///
/// # Panics
///
/// On a malformed value, naming the variable.
fn env_uint<T: std::str::FromStr>(var: &'static str) -> Option<T> {
    env_var(var, |v| parse_uint(var, v))
}

/// Base seed for this process (`APENET_PROP_SEED` or [`DEFAULT_SEED`]).
pub fn base_seed() -> u64 {
    env_uint("APENET_PROP_SEED").unwrap_or(DEFAULT_SEED)
}

/// One chaos property's case budget: `share` percent of
/// `APENET_CHAOS_CASES` (default 200, split across a chaos suite's
/// properties), at least 4.
pub fn chaos_budget(share: u32) -> u32 {
    assert!(share <= 100, "a share is a percentage, got {share}");
    let total: u32 = env_uint("APENET_CHAOS_CASES").unwrap_or(200);
    // At most `total`, so it fits back into a u32.
    let cases = u64::from(total) * u64::from(share) / 100;
    (cases as u32).max(4)
}

/// Run `property` for `n` seeded cases (capped/overridden by
/// `APENET_PROP_CASES`). On panic, reports the property name, case index
/// and per-case seed, then re-raises the panic so the test fails.
pub fn cases(name: &str, n: u32, mut property: impl FnMut(&mut Gen)) {
    let n = env_uint("APENET_PROP_CASES").unwrap_or(n);
    let base = base_seed();
    for i in 0..n {
        let seed = base.wrapping_add(i as u64);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut g = Gen::new(seed);
            property(&mut g);
        }));
        if let Err(payload) = result {
            eprintln!(
                "property '{name}' failed at case {i}/{n} (seed {seed}); \
                 replay with APENET_PROP_SEED={seed} APENET_PROP_CASES=1"
            );
            resume_unwind(payload);
        }
    }
}

/// [`cases`] with the default case count.
pub fn check(name: &str, property: impl FnMut(&mut Gen)) {
    cases(name, DEFAULT_CASES, property);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        cases("collect", 8, |g| first.push(g.u64(0, 1000)));
        let mut second: Vec<u64> = Vec::new();
        cases("collect again", 8, |g| second.push(g.u64(0, 1000)));
        assert_eq!(first, second);
        assert_eq!(first.len(), 8);
    }

    #[test]
    fn ranges_respected() {
        cases("ranges", 128, |g| {
            let v = g.u64(10, 20);
            assert!((10..20).contains(&v));
            let u = g.usize(0, 1);
            assert_eq!(u, 0);
            let b = g.bytes(3, 7);
            assert!((3..=7).contains(&b.len()));
            let item = *g.pick(&[1, 2, 3]);
            assert!((1..=3).contains(&item));
        });
    }

    #[test]
    fn uint_grammar_is_strict() {
        let v = "APENET_CHAOS_CASES";
        assert_eq!(parse_uint::<u32>(v, ""), Ok(None));
        assert_eq!(parse_uint::<u32>(v, " 512 "), Ok(Some(512)));
        assert_eq!(
            parse_uint::<u64>(v, "18446744073709551615"),
            Ok(Some(u64::MAX))
        );
        for bad in ["5l2", "-1", "1e3", "0x10", "4294967296"] {
            assert_eq!(
                parse_uint::<u32>(v, bad),
                Err(EnvError::new(v, bad, UINT_GRAMMAR)),
                "{bad}"
            );
        }
    }

    #[test]
    fn failure_is_reported_and_propagates() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            cases("always fails", 4, |_g| panic!("boom"));
        }));
        assert!(result.is_err(), "panic must propagate out of the case loop");
    }
}

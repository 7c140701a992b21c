//! Deterministic streaming percentile digests.
//!
//! The tail-forensics plane needs real quantiles — `p999` of a latency
//! population, not the upper bound of a power-of-two bucket. This
//! digest keeps every recorded value exactly while the population is
//! small enough (the repro's event counts are, by orders of magnitude),
//! so quantile queries are **exact nearest-rank** answers; past a fixed
//! retention cap it degrades deterministically to log-linear buckets
//! (16 sub-buckets per power of two, so any answer is within 1/16 ≈
//! 6.25 % of the true value). Degradation is a property of the count
//! alone — never of timing or thread interleaving — so two runs of the
//! same schedule always serialize to the same bytes.
//!
//! Nearest-rank definition: the `q`-quantile of `n` sorted values is
//! the value at 1-indexed rank `ceil(q·n)` (clamped to `[1, n]`).

use std::fmt::Write as _;

/// Retention cap: below this many samples every value is kept and
/// quantiles are exact; above it the digest folds into log-linear
/// buckets. 1 Mi samples ≈ 8 MiB — far above any repo workload.
pub const EXACT_CAP: usize = 1 << 20;

/// Sub-bucket bits per power of two in the coarse (spilled) encoding.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16
const COARSE_BUCKETS: usize = 64 * SUB;

/// A deterministic percentile digest (see module docs).
#[derive(Debug, Clone)]
pub struct PercentileDigest {
    /// Exact values while `coarse` is `None`; sorted lazily on query.
    values: Vec<u64>,
    sorted: bool,
    /// Log-linear bucket counts once the exact buffer spilled.
    coarse: Option<Box<[u64; COARSE_BUCKETS]>>,
    count: u64,
    max: u64,
    cap: usize,
}

impl Default for PercentileDigest {
    fn default() -> Self {
        PercentileDigest::new()
    }
}

fn coarse_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// Upper bound of coarse bucket `i` (every value folded into `i` is
/// `<=` this and `>` the previous bucket's bound).
fn coarse_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let exp = (i / SUB) as u32 + SUB_BITS - 1;
    let sub = (i % SUB) as u64;
    // `- 1` before the add: the top bucket of exponent 63 bounds at
    // exactly `u64::MAX`, which overflows in the `+ bound - 1` order.
    (1u64 << exp) - 1 + ((sub + 1) << (exp - SUB_BITS))
}

impl PercentileDigest {
    /// An empty digest with the default retention cap ([`EXACT_CAP`]).
    pub fn new() -> Self {
        Self::with_cap(EXACT_CAP)
    }

    /// An empty digest spilling to coarse buckets past `cap` samples
    /// (tests use tiny caps to exercise the spill path).
    pub fn with_cap(cap: usize) -> Self {
        PercentileDigest {
            values: Vec::new(),
            sorted: true,
            coarse: None,
            count: 0,
            max: 0,
            cap: cap.max(1),
        }
    }

    /// Record one value (typically a duration in picoseconds).
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.max = self.max.max(v);
        match &mut self.coarse {
            Some(buckets) => buckets[coarse_index(v)] += 1,
            None => {
                self.values.push(v);
                self.sorted = false;
                if self.values.len() > self.cap {
                    self.spill();
                }
            }
        }
    }

    fn spill(&mut self) {
        let mut buckets = Box::new([0u64; COARSE_BUCKETS]);
        for &v in &self.values {
            buckets[coarse_index(v)] += 1;
        }
        self.values = Vec::new();
        self.sorted = true;
        self.coarse = Some(buckets);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True while quantile answers are exact nearest-rank values (the
    /// digest has not spilled past its retention cap).
    pub fn is_exact(&self) -> bool {
        self.coarse.is_none()
    }

    /// Largest recorded value (exact in both modes), 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The nearest-rank `q`-quantile, `None` when empty. Exact while
    /// [`PercentileDigest::is_exact`]; otherwise the containing coarse
    /// bucket's upper bound (within 6.25 % of the true value).
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if let Some(buckets) = &self.coarse {
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // The top bucket's bound can overshoot the true
                    // maximum, which we track exactly.
                    return Some(coarse_bound(i).min(self.max));
                }
            }
            return Some(self.max);
        }
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        Some(self.values[rank as usize - 1])
    }

    /// Number of recorded values `<= v`. Exact while
    /// [`PercentileDigest::is_exact`]; once spilled, the count of every
    /// coarse bucket whose upper bound is `<= v` — a deterministic
    /// *undercount* by at most the one bucket straddling `v`, so
    /// SLO good-counts derived from it err toward "bad" (alerts fire
    /// earlier, never later).
    pub fn count_le(&mut self, v: u64) -> u64 {
        if let Some(buckets) = &self.coarse {
            if v >= self.max {
                return self.count;
            }
            // Buckets strictly below `v`'s own bucket bound below `v`;
            // `v`'s bucket counts only when its bound lands exactly on
            // `v` (bounds are inclusive).
            let lim = coarse_index(v);
            let mut n: u64 = buckets[..lim].iter().sum();
            if coarse_bound(lim) <= v {
                n += buckets[lim];
            }
            return n;
        }
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
        self.values.partition_point(|&x| x <= v) as u64
    }

    /// Merge `other` into `self`. Deterministic: the result depends only
    /// on the two digests' contents, never on merge order of equal
    /// populations. While both sides are exact and the union fits
    /// `self`'s retention cap, the merged digest is *identical* to one
    /// that recorded every sample directly; otherwise both collapse to
    /// the log-linear coarse encoding, whose bucket assignment is a pure
    /// function of each value — so a window-split digest merged back
    /// together answers every quantile within the same ≤ 6.25 %
    /// (1/16) relative-error bound as the whole-run digest, and equals
    /// it exactly when their caps agree.
    pub fn merge(&mut self, other: &PercentileDigest) {
        self.count += other.count;
        self.max = self.max.max(other.max);
        if self.coarse.is_none()
            && other.coarse.is_none()
            && self.values.len() + other.values.len() <= self.cap
        {
            if !other.values.is_empty() {
                self.values.extend_from_slice(&other.values);
                self.sorted = false;
            }
            return;
        }
        if self.coarse.is_none() {
            self.spill();
        }
        let buckets = self.coarse.as_mut().expect("spilled above");
        match &other.coarse {
            Some(ob) => {
                for (b, &c) in buckets.iter_mut().zip(ob.iter()) {
                    *b += c;
                }
            }
            None => {
                for &v in &other.values {
                    buckets[coarse_index(v)] += 1;
                }
            }
        }
    }

    /// Sorted deterministic JSON body: `{"count": 0}` when empty, else
    /// count, p50/p90/p99/p999, max, and whether answers are exact.
    pub fn snapshot_json(&mut self) -> String {
        if self.count == 0 {
            return "{\"count\": 0}".to_string();
        }
        let mut out = format!("{{\"count\": {}", self.count);
        for (label, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999)] {
            let _ = write!(out, ", \"{label}\": {}", self.quantile(q).unwrap());
        }
        let _ = write!(
            out,
            ", \"max\": {}, \"exact\": {}}}",
            self.max,
            self.is_exact()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: nearest-rank quantile on a fully sorted copy.
    fn oracle(values: &[u64], q: f64) -> u64 {
        let mut v = values.to_vec();
        v.sort_unstable();
        let rank = ((q * v.len() as f64).ceil() as u64).clamp(1, v.len() as u64);
        v[rank as usize - 1]
    }

    #[test]
    fn empty_digest_has_no_quantiles() {
        let mut d = PercentileDigest::new();
        assert_eq!(d.count(), 0);
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.max(), 0);
        assert_eq!(d.snapshot_json(), "{\"count\": 0}");
    }

    #[test]
    fn single_sample_answers_every_quantile() {
        let mut d = PercentileDigest::new();
        d.record(777);
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(d.quantile(q), Some(777), "q={q}");
        }
        assert_eq!(d.max(), 777);
        assert!(d.is_exact());
    }

    #[test]
    fn exact_mode_matches_the_sorted_oracle() {
        // A deterministic pseudo-random population (LCG), including
        // duplicates and zero.
        let mut x = 12345u64;
        let vals: Vec<u64> = (0..10_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 1_000_000
            })
            .collect();
        let mut d = PercentileDigest::new();
        for &v in &vals {
            d.record(v);
        }
        assert!(d.is_exact());
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(d.quantile(q), Some(oracle(&vals, q)), "q={q}");
        }
    }

    #[test]
    fn spill_keeps_bounded_relative_error() {
        let mut x = 99u64;
        let vals: Vec<u64> = (0..4_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1 + (x >> 33) % 100_000_000
            })
            .collect();
        let mut d = PercentileDigest::with_cap(1000);
        for &v in &vals {
            d.record(v);
        }
        assert!(!d.is_exact(), "cap 1000 < 4000 samples: must spill");
        assert_eq!(d.count(), 4_000);
        assert_eq!(d.max(), *vals.iter().max().unwrap(), "max stays exact");
        for q in [0.5, 0.9, 0.99, 0.999] {
            let truth = oracle(&vals, q) as f64;
            let got = d.quantile(q).unwrap() as f64;
            assert!(
                got >= truth * (1.0 - 1.0 / SUB as f64) && got <= truth * (1.0 + 1.0 / SUB as f64),
                "q={q}: {got} vs oracle {truth}"
            );
        }
        assert_eq!(
            d.quantile(1.0),
            Some(d.max()),
            "p100 clamps to the exact max"
        );
    }

    #[test]
    fn spilled_digest_is_deterministic() {
        let build = || {
            let mut d = PercentileDigest::with_cap(8);
            for v in [5u64, 100, 3, 70_000, 9, 9, 1 << 40, 0, 12, 13, 14, 15] {
                d.record(v);
            }
            d
        };
        assert_eq!(build().snapshot_json(), build().snapshot_json());
        assert!(build().snapshot_json().contains("\"exact\": false"));
    }

    #[test]
    fn count_le_matches_a_sorted_scan() {
        let vals = [5u64, 100, 3, 9, 9, 12, 13, 14, 15, 70_000];
        let mut d = PercentileDigest::new();
        for &v in &vals {
            d.record(v);
        }
        for probe in [0u64, 3, 8, 9, 100, 69_999, 70_000, u64::MAX] {
            let want = vals.iter().filter(|&&v| v <= probe).count() as u64;
            assert_eq!(d.count_le(probe), want, "probe {probe}");
        }
        // Spilled: a deterministic undercount, never an overcount, and
        // exact at the top (every bucket bound is <= u64::MAX).
        let mut s = PercentileDigest::with_cap(4);
        for &v in &vals {
            s.record(v);
        }
        assert!(!s.is_exact());
        for probe in [0u64, 9, 100, 70_000] {
            let want = vals.iter().filter(|&&v| v <= probe).count() as u64;
            assert!(s.count_le(probe) <= want, "probe {probe}");
        }
        assert_eq!(s.count_le(u64::MAX), vals.len() as u64);
    }

    #[test]
    fn exact_merge_is_identical_to_direct_recording() {
        let mut x = 7u64;
        let vals: Vec<u64> = (0..5_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % 1_000_000
            })
            .collect();
        let mut whole = PercentileDigest::new();
        for &v in &vals {
            whole.record(v);
        }
        // Split into 7 chunks, record each into its own digest, merge.
        let mut merged = PercentileDigest::new();
        for chunk in vals.chunks(vals.len() / 7 + 1) {
            let mut d = PercentileDigest::new();
            for &v in chunk {
                d.record(v);
            }
            merged.merge(&d);
        }
        assert!(merged.is_exact());
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.max(), whole.max());
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q={q}");
        }
        assert_eq!(merged.snapshot_json(), whole.snapshot_json());
    }

    #[test]
    fn spilled_merge_equals_the_spilled_whole() {
        // Same cap on both paths: the merged coarse bucket counts are a
        // pure per-value function, so merged == whole bit-for-bit.
        let mut x = 42u64;
        let vals: Vec<u64> = (0..3_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                1 + (x >> 33) % 100_000_000
            })
            .collect();
        let mut whole = PercentileDigest::with_cap(64);
        for &v in &vals {
            whole.record(v);
        }
        let mut merged = PercentileDigest::with_cap(64);
        for chunk in vals.chunks(100) {
            let mut d = PercentileDigest::with_cap(64);
            for &v in chunk {
                d.record(v);
            }
            merged.merge(&d);
        }
        assert!(!merged.is_exact() && !whole.is_exact());
        assert_eq!(merged.snapshot_json(), whole.snapshot_json());
    }

    #[test]
    fn merging_an_empty_digest_is_a_noop() {
        let mut d = PercentileDigest::new();
        d.record(10);
        let before = d.snapshot_json();
        d.merge(&PercentileDigest::new());
        assert_eq!(d.snapshot_json(), before);
        let mut e = PercentileDigest::new();
        e.merge(&d);
        assert_eq!(e.snapshot_json(), before);
    }

    #[test]
    fn coarse_index_and_bound_agree() {
        // Every value folds into a bucket whose bound is >= the value
        // and within the documented relative error.
        for v in [
            0u64,
            1,
            7,
            15,
            16,
            17,
            255,
            256,
            1000,
            65_535,
            1 << 30,
            u64::MAX >> 1,
        ] {
            let i = coarse_index(v);
            let b = coarse_bound(i);
            assert!(b >= v, "bound {b} < value {v} (bucket {i})");
            if v > SUB as u64 {
                assert!(
                    (b - v) as f64 <= v as f64 / SUB as f64 + 1.0,
                    "bound {b} too far above {v}"
                );
            }
        }
    }
}

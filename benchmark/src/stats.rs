//! Small numeric helpers: order statistics, the FNV-1a output digest and
//! the peak-RSS reader.

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    quartiles(xs).map(|(_, m, _)| m)
}

/// First quartile, median and third quartile of `xs`, by the
/// "exclusive" method of Python's `statistics.quantiles(xs, n=4)`: the
/// p-th quantile sits at rank `p·(n+1)` (1-based), interpolated
/// linearly. Ranks outside the sample are clamped to its ends, where
/// Python extrapolates; the two agree from three samples up. `None` for
/// an empty slice.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |p: f64| {
        let rank = (p * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = rank.floor() as usize;
        let frac = rank - lo as f64;
        let hi = (lo + 1).min(n);
        s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
    };
    Some((at(0.25), at(0.5), at(0.75)))
}

/// 64-bit FNV-1a over a stream of little-endian words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold one unsigned word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Peak resident set size in MB (`VmHWM`) from a `/proc/<pid>/status`
/// text; `None` when the line is missing or malformed.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size in MB.
pub fn peak_rss_mb() -> Option<f64> {
    vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // One sample: every quartile is that sample.
        assert_eq!(quartiles(&[2.0]), Some((2.0, 2.0, 2.0)));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn vm_hwm_parses_present_line() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(200.0));
    }

    #[test]
    fn vm_hwm_missing_or_malformed_line_is_none() {
        assert_eq!(vm_hwm_mb("Name:\tbenchmark\nVmRSS:\t 1024 kB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t lots\n"), None);
        assert_eq!(vm_hwm_mb(""), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}

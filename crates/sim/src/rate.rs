//! Exact bandwidth arithmetic.
//!
//! Rates are stored in bytes per second; transfer times are computed with
//! exact integer intermediates (`u64` when the product fits, `u128`
//! otherwise) and ceiling division, so the simulation never loses
//! bytes to rounding and two transfers of `n` bytes always cost exactly the
//! same.

use crate::time::{SimDuration, PS_PER_S};
use std::fmt;

/// A data rate in bytes per second.
///
/// ```
/// use apenet_sim::Bandwidth;
///
/// // The Fermi P2P read cap from the paper's Fig. 3:
/// let bw = Bandwidth::from_mb_per_sec(1536);
/// let t = bw.time_for(1 << 20);
/// assert!((t.as_us_f64() - 682.7).abs() < 0.1); // ~683 us per MiB
/// // Measuring the transfer recovers the rate (ceil rounding costs <1 ppm):
/// let m = Bandwidth::measured(1 << 20, t);
/// assert!(bw.bytes_per_sec() - m.bytes_per_sec() < 1000);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Construct from bytes per second.
    pub const fn from_bytes_per_sec(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Construct from megabytes (1e6 bytes) per second — the unit the
    /// paper's figures use.
    pub const fn from_mb_per_sec(mb: u64) -> Self {
        Bandwidth(mb * 1_000_000)
    }

    /// Construct from gigabytes (1e9 bytes) per second.
    pub const fn from_gb_per_sec(gb: u64) -> Self {
        Bandwidth(gb * 1_000_000_000)
    }

    /// Construct from a link signalling rate in gigabits per second
    /// (1e9 bits), e.g. the APEnet+ "28 Gbps" torus links.
    pub const fn from_gbit_per_sec(gbit: u64) -> Self {
        Bandwidth(gbit * 1_000_000_000 / 8)
    }

    /// Raw bytes per second.
    pub const fn bytes_per_sec(self) -> u64 {
        self.0
    }

    /// Megabytes (1e6) per second as float — for reporting.
    pub fn mb_per_sec_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Exact time to move `bytes` at this rate (ceiling; ≥ 1 ps for any
    /// non-zero transfer so events always make progress).
    pub fn time_for(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        assert!(self.0 > 0, "transfer over a zero-bandwidth link");
        // Transfers under ~18 MB keep the product in a u64, whose
        // division is one instruction instead of a 128-bit library call.
        match bytes.checked_mul(PS_PER_S) {
            Some(scaled) => SimDuration::from_ps(scaled.div_ceil(self.0)),
            None => self.time_for_wide(bytes),
        }
    }

    /// [`Bandwidth::time_for`] in 128-bit arithmetic, for any size.
    fn time_for_wide(self, bytes: u64) -> SimDuration {
        let ps = (bytes as u128 * PS_PER_S as u128).div_ceil(self.0 as u128);
        SimDuration::from_ps(ps.try_into().expect("transfer time overflow"))
    }

    /// The measured rate implied by moving `bytes` in `elapsed`.
    pub fn measured(bytes: u64, elapsed: SimDuration) -> Bandwidth {
        if elapsed == SimDuration::ZERO {
            return Bandwidth(u64::MAX);
        }
        let bps = bytes as u128 * PS_PER_S as u128 / elapsed.as_ps() as u128;
        Bandwidth(bps.try_into().unwrap_or(u64::MAX))
    }

    /// Scale the rate by `num/den` (e.g. ECC de-rating).
    pub const fn scaled(self, num: u64, den: u64) -> Bandwidth {
        Bandwidth(self.0 * num / den)
    }

    /// The smaller of two rates (bottleneck composition).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}MB/s", self.mb_per_sec_f64())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GB/s", self.0 as f64 / 1e9)
        } else {
            write!(f, "{:.1}MB/s", self.mb_per_sec_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors() {
        assert_eq!(Bandwidth::from_mb_per_sec(1).bytes_per_sec(), 1_000_000);
        assert_eq!(Bandwidth::from_gb_per_sec(4).bytes_per_sec(), 4_000_000_000);
        // 28 Gbps torus link = 3.5 GB/s of raw symbols
        assert_eq!(
            Bandwidth::from_gbit_per_sec(28).bytes_per_sec(),
            3_500_000_000
        );
    }

    #[test]
    fn time_for_exact() {
        let bw = Bandwidth::from_gb_per_sec(1); // 1 byte per ns
        assert_eq!(bw.time_for(1), SimDuration::from_ns(1));
        assert_eq!(bw.time_for(4096), SimDuration::from_ns(4096));
        assert_eq!(bw.time_for(0), SimDuration::ZERO);
    }

    #[test]
    fn time_for_rounds_up() {
        let bw = Bandwidth::from_bytes_per_sec(3); // 1 byte each ~333.33.. ns
        let t = bw.time_for(1);
        assert_eq!(t.as_ps(), 333_333_333_334); // ceil(1e12/3)
    }

    #[test]
    fn narrow_path_equals_the_wide_path() {
        // The last byte count whose product fits a u64, its neighbours,
        // and random sizes on both sides of it.
        let edge = u64::MAX / PS_PER_S;
        for rate in [3, 7, 1_000_000_007, 3_500_000_000, u64::MAX] {
            let bw = Bandwidth::from_bytes_per_sec(rate);
            for bytes in [1, 4096, edge - 1, edge, edge + 1, edge * 2] {
                assert_eq!(
                    bw.time_for(bytes),
                    bw.time_for_wide(bytes),
                    "{bytes} B at {rate} B/s"
                );
            }
        }
        crate::check::cases("time_for narrow == wide", 512, |g| {
            let bw = Bandwidth::from_bytes_per_sec(g.u64(1_000, u64::MAX));
            let bytes = if g.chance(0.5) {
                g.u64(1, edge + 1)
            } else {
                g.u64(edge.saturating_sub(1 << 20), edge + (1 << 20))
            };
            assert_eq!(
                bw.time_for(bytes),
                bw.time_for_wide(bytes),
                "{bytes} B at {bw:?}"
            );
        });
    }

    #[test]
    fn measured_inverts_time_for() {
        let bw = Bandwidth::from_mb_per_sec(1536); // Fermi P2P read cap
        let t = bw.time_for(1 << 20);
        let m = Bandwidth::measured(1 << 20, t);
        let rel = (m.bytes_per_sec() as f64 - bw.bytes_per_sec() as f64).abs()
            / bw.bytes_per_sec() as f64;
        assert!(rel < 1e-6, "measured {m} vs {bw}");
    }

    #[test]
    fn bottleneck_min() {
        let a = Bandwidth::from_mb_per_sec(1500);
        let b = Bandwidth::from_mb_per_sec(2400);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn scaled_derating() {
        let k20 = Bandwidth::from_mb_per_sec(1600);
        assert_eq!(k20.scaled(9, 10).bytes_per_sec(), 1_440_000_000);
    }
}

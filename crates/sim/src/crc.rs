//! A small, dependency-free CRC-32 (polynomial 0xEDB88320).
//!
//! Table-driven "slice-by-8": 8 compile-time tables let the loop consume
//! 8 bytes per iteration with no per-bit work. A clean packet hashes only
//! its ~40-byte header; a payload of up to 4 KiB is hashed only once a
//! byte of it is written after its seal (see
//! [`PayloadSlice`](crate::bytes::PayloadSlice)). Output is identical to
//! the bitwise definition (the reference check value
//! CRC32("123456789") = 0xCBF43926 is pinned in tests).

/// A running CRC-32/ISO-HDLC computation.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// `TABLES[0]` is the classic per-byte CRC table; `TABLES[k][b]` extends
/// `TABLES[k-1][b]` by one zero byte, so 8 lookups advance 8 bytes.
static CRC32_TABLES: [[u32; 256]; 8] = build_crc32_tables();

const fn build_crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    tables
}

impl Crc32 {
    /// A computation over no bytes yet.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// The CRC of `data` alone.
    pub fn of(data: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(data);
        c.finish()
    }

    /// Feed `data`.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC32_TABLES;
        let mut chunks = data.chunks_exact(8);
        let mut crc = self.state;
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The CRC of every byte fed so far.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_value() {
        // Standard check value: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(Crc32::of(b"123456789"), 0xCBF4_3926);
        assert_eq!(Crc32::of(b""), 0);
    }

    #[test]
    fn piecewise_update_equals_one_pass() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 7, 8, 9, 500, 999, 1000] {
            let (a, b) = data.split_at(split);
            let mut c = Crc32::new();
            c.update(a);
            c.update(b);
            assert_eq!(c.finish(), Crc32::of(&data), "split at {split}");
        }
    }
}

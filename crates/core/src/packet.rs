//! The APEnet+ packet format.
//!
//! "Network packets carry the 64-bit destination virtual memory address in
//! the header, so when they land onto the destination card, the BUF_LIST is
//! used to distinguish GPU from host buffers" (§IV.A). The RX datapath
//! processes packets of up to 4 KB ("3 µs, 1.2 GB/s for 4 KB packets").
//!
//! Integrity is checked in two parts. The frame's `crc` covers the header
//! only; the payload is sealed when the packet is built and checked
//! against that seal ([`PayloadSlice::unchanged_since_seal`]). The real
//! card computes link CRC in its transceiver logic, so a simulated CRC
//! only matters once a byte changes after the seal: a clean frame hashes
//! no payload byte at any hop. The payload is private, and every way to
//! change it — [`ApePacket::payload_mut`], [`ApePacket::set_payload`] —
//! keeps the seal-time reference, so a rewritten or swapped payload fails
//! [`ApePacket::verify`] exactly when its bytes differ from the sealed
//! ones.

use crate::coord::Coord;
use apenet_sim::bytes::PayloadSlice;
use apenet_sim::crc::Crc32;
use apenet_sim::trace::SpanId;

/// Maximum payload of one APEnet+ packet.
pub const APE_MAX_PAYLOAD: u32 = 4096;

/// Header + footer wire overhead per packet (routing header with
/// destination coordinates, 64-bit destination address, size, CRC).
pub const APE_PACKET_OVERHEAD: u64 = 32;

/// A message identifier unique per (source node, sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId {
    /// Rank of the sending node.
    pub src_rank: u32,
    /// Per-sender sequence number.
    pub seq: u64,
}

impl MsgId {
    /// The trace span correlating every observation of this message —
    /// derived from the identity, so replays agree without coordination.
    pub fn span(self) -> SpanId {
        SpanId::from_msg(self.src_rank, self.seq)
    }
}

/// Header extension carried by a GET (RDMA-Read) request packet: where
/// on the *requesting* node the remotely-read bytes must land. The
/// responder copies it into the `dst_vaddr` of every reply fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GetHeader {
    /// Requester-local virtual address the reply stream writes to.
    pub reply_vaddr: u64,
}

/// One packet on the torus.
#[derive(Debug, Clone, PartialEq)]
pub struct ApePacket {
    /// Destination node coordinates (used by the router).
    pub dst: Coord,
    /// Source node coordinates.
    pub src: Coord,
    /// The message this packet is a fragment of.
    pub msg: MsgId,
    /// Destination virtual (UVA) address of this fragment.
    pub dst_vaddr: u64,
    /// Total length of the whole message (for completion detection).
    pub msg_len: u64,
    /// The fragment data — a refcounted view into the source buffer, so
    /// fragmentation and forwarding never copy payload bytes. Sealed at
    /// construction; reached through [`Self::payload`],
    /// [`Self::payload_mut`] and [`Self::set_payload`], which keep the
    /// seal.
    payload: PayloadSlice,
    /// Present on GET (remote-read) request packets: `dst_vaddr` then
    /// names the *responder-local* range to read, `msg_len` the length,
    /// and this header carries the requester-side landing address.
    pub get: Option<GetHeader>,
    /// ECN-style congestion-experienced mark: set by any hop whose
    /// egress port queue is past the overload plane's high-water mark.
    /// Routers that mark re-seal the header (the CRC covers this bit, so
    /// wire corruption can neither forge nor erase a mark undetected).
    pub ecn: bool,
    /// Congestion-notification packet (the echo of an ECN mark): a
    /// header-only frame the *destination* card sends back to `msg`'s
    /// source once a marked message completes, carrying no payload and
    /// consuming no completion — the sender's pacer eats it.
    pub cnp: bool,
    /// Header checksum: CRC-32 over the header fields, set when the
    /// packet is built (or re-marked) and checked by [`ApePacket::verify`]
    /// at every link RX, together with the payload's seal.
    pub crc: u32,
}

impl ApePacket {
    /// Build and seal a packet. `payload` may be anything convertible to a
    /// [`PayloadSlice`] (a `Vec<u8>` or an existing zero-copy slice).
    pub fn new(
        dst: Coord,
        src: Coord,
        msg: MsgId,
        dst_vaddr: u64,
        msg_len: u64,
        payload: impl Into<PayloadSlice>,
    ) -> Self {
        let payload = payload.into();
        assert!(payload.len() as u32 <= APE_MAX_PAYLOAD);
        let mut p = ApePacket {
            dst,
            src,
            msg,
            dst_vaddr,
            msg_len,
            payload,
            get: None,
            ecn: false,
            cnp: false,
            crc: 0,
        };
        p.seal();
        p
    }

    /// Build and seal a GET (remote-read) request: a header-only packet
    /// asking the card at `dst` to stream `len` bytes starting at its
    /// local `src_vaddr` back to `reply_vaddr` on the requesting node.
    pub fn get_request(
        dst: Coord,
        src: Coord,
        msg: MsgId,
        src_vaddr: u64,
        len: u64,
        reply_vaddr: u64,
    ) -> Self {
        let mut p = ApePacket {
            dst,
            src,
            msg,
            dst_vaddr: src_vaddr,
            msg_len: len,
            payload: PayloadSlice::empty(),
            get: Some(GetHeader { reply_vaddr }),
            ecn: false,
            cnp: false,
            crc: 0,
        };
        p.seal();
        p
    }

    /// Build and seal a congestion-notification packet: a header-only
    /// echo of `msg`'s ECN mark, from the congested destination back to
    /// the message source. It carries the marked message's id so the
    /// sender's pacer can charge the right per-destination window.
    pub fn cnp(dst: Coord, src: Coord, msg: MsgId) -> Self {
        let mut p = ApePacket {
            dst,
            src,
            msg,
            dst_vaddr: 0,
            msg_len: 0,
            payload: PayloadSlice::empty(),
            get: None,
            ecn: false,
            cnp: true,
            crc: 0,
        };
        p.seal();
        p
    }

    /// True when this packet is a GET request header (no payload; asks
    /// the destination card to read and stream back local memory).
    pub fn is_get_request(&self) -> bool {
        self.get.is_some()
    }

    /// True when this packet is a congestion-notification echo.
    pub fn is_cnp(&self) -> bool {
        self.cnp
    }

    /// Set the ECN congestion-experienced mark and re-seal the header
    /// (marking hops rewrite the CRC, like an IP router updating its
    /// header checksum after setting CE). The payload's seal is left
    /// alone, so a re-mark can never launder a corrupted payload.
    pub fn mark_ecn(&mut self) {
        if !self.ecn {
            self.ecn = true;
            self.crc = self.header_crc();
        }
    }

    /// The fragment data.
    pub fn payload(&self) -> &PayloadSlice {
        &self.payload
    }

    /// Write access to the payload bytes (copy-on-write). The seal-time
    /// bytes stay the reference, so any net change fails [`Self::verify`].
    pub fn payload_mut(&mut self) -> &mut [u8] {
        self.payload.make_mut()
    }

    /// Replace the payload. The new bytes are checked against the
    /// outgoing payload's seal, so a swapped-in payload verifies only if
    /// its bytes hash to the sealed ones.
    pub fn set_payload(&mut self, payload: impl Into<PayloadSlice>) {
        let mut payload = payload.into();
        payload.inherit_seal(&self.payload);
        self.payload = payload;
    }

    /// Payload length in bytes.
    pub fn len(&self) -> u64 {
        self.payload.len() as u64
    }

    /// True when carrying no payload (pure header, e.g. a 0-byte PUT).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Bytes this packet occupies on a torus link.
    pub fn wire_bytes(&self) -> u64 {
        APE_PACKET_OVERHEAD + self.len()
    }

    /// Seal the payload (no hashing) and set the header `crc`.
    fn seal(&mut self) {
        self.payload.seal();
        self.crc = self.header_crc();
    }

    /// CRC-32/ISO-HDLC over the header fields — enough to catch the
    /// corruption the tests inject; the real card uses link-level CRC
    /// blocks in the Stratix transceivers.
    fn header_crc(&self) -> u32 {
        let mut crc = Crc32::new();
        crc.update(&[
            self.dst.x, self.dst.y, self.dst.z, self.src.x, self.src.y, self.src.z,
        ]);
        crc.update(&self.msg.src_rank.to_le_bytes());
        crc.update(&self.msg.seq.to_le_bytes());
        crc.update(&self.dst_vaddr.to_le_bytes());
        crc.update(&self.msg_len.to_le_bytes());
        // The GET discriminator and reply address are header bits too: a
        // corrupted read-request must fail verification, never silently
        // turn into (or out of) a write.
        match self.get {
            None => crc.update(&[0]),
            Some(g) => {
                crc.update(&[1]);
                crc.update(&g.reply_vaddr.to_le_bytes());
            }
        }
        // The congestion bits are header bits too: corruption must not
        // forge a mark, erase one, or turn a data frame into a CNP.
        crc.update(&[self.ecn as u8, self.cnp as u8]);
        crc.finish()
    }

    /// Verify integrity: the header matches its CRC and the payload
    /// hashes to its seal-time bytes. A payload never written since its
    /// seal is not hashed at all.
    ///
    /// This catches exactly what a CRC over `payload || header` would:
    /// for a fixed header, resuming a CRC over the header bytes is a
    /// bijection of the payload CRC, so the combined CRC matches iff
    /// the payload CRC does.
    pub fn verify(&self) -> bool {
        self.crc == self.header_crc() && self.payload.unchanged_since_seal()
    }
}

/// Fragment a message into packet-sized `(offset, len)` pieces.
pub fn fragments(len: u64) -> impl Iterator<Item = (u64, u32)> {
    let full = len / APE_MAX_PAYLOAD as u64;
    let rem = (len % APE_MAX_PAYLOAD as u64) as u32;
    (0..full)
        .map(|i| (i * APE_MAX_PAYLOAD as u64, APE_MAX_PAYLOAD))
        .chain((rem > 0).then_some((full * APE_MAX_PAYLOAD as u64, rem)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apenet_sim::bytes::hashed_bytes;

    fn packet(payload: Vec<u8>) -> ApePacket {
        ApePacket::new(
            Coord::new(1, 0, 0),
            Coord::new(0, 0, 0),
            MsgId {
                src_rank: 0,
                seq: 7,
            },
            0x7000_0000_1000,
            payload.len() as u64,
            payload,
        )
    }

    #[test]
    fn seal_and_verify() {
        let p = packet(vec![1, 2, 3, 4]);
        assert!(p.verify());
    }

    #[test]
    fn corruption_detected() {
        let mut p = packet((0..100).collect());
        p.payload_mut()[42] ^= 0x80;
        assert!(!p.verify());
        let mut q = packet((0..100).collect());
        q.dst_vaddr += 1;
        assert!(!q.verify());
    }

    #[test]
    fn wire_bytes_include_overhead() {
        let p = packet(vec![0; 4096]);
        assert_eq!(p.wire_bytes(), 4096 + APE_PACKET_OVERHEAD);
        assert_eq!(p.len(), 4096);
        assert!(!p.is_empty());
        assert!(packet(vec![]).is_empty());
    }

    #[test]
    fn fragmentation_covers_message() {
        for len in [0u64, 1, 4095, 4096, 4097, 128 * 1024, 100_001] {
            let frags: Vec<(u64, u32)> = fragments(len).collect();
            let total: u64 = frags.iter().map(|&(_, l)| l as u64).sum();
            assert_eq!(total, len);
            // Contiguity.
            let mut expect = 0;
            for (off, l) in frags {
                assert_eq!(off, expect);
                assert!(l <= APE_MAX_PAYLOAD);
                expect = off + l as u64;
            }
        }
        assert_eq!(fragments(128 * 1024).count(), 32);
    }

    #[test]
    fn get_request_is_header_only_and_crc_covered() {
        let msg = MsgId {
            src_rank: 3,
            seq: 11,
        };
        let p = ApePacket::get_request(
            Coord::new(1, 1, 0),
            Coord::new(0, 0, 0),
            msg,
            0x7000_0000_2000,
            64 * 1024,
            0x7000_0000_9000,
        );
        assert!(p.is_get_request());
        assert!(p.is_empty());
        assert_eq!(p.wire_bytes(), APE_PACKET_OVERHEAD);
        assert!(p.verify());
        // Every GET-specific header bit is CRC-covered.
        let mut r = p.clone();
        r.get = Some(GetHeader {
            reply_vaddr: 0x7000_0000_9008,
        });
        assert!(!r.verify(), "reply_vaddr flip");
        let mut d = p.clone();
        d.get = None;
        assert!(!d.verify(), "GET request must not decay into a write");
        // And the reverse: a sealed write cannot gain a GET header.
        let w = ApePacket::new(p.dst, p.src, msg, p.dst_vaddr, 0, vec![]);
        let mut w2 = w.clone();
        w2.get = Some(GetHeader { reply_vaddr: 0 });
        assert!(!w2.verify(), "write must not decay into a GET request");
    }

    #[test]
    fn ecn_and_cnp_bits_are_crc_covered() {
        let p = packet((0..64).collect());
        assert!(!p.ecn && !p.cnp);
        // Forging a mark without re-sealing is detected …
        let mut forged = p.clone();
        forged.ecn = true;
        assert!(!forged.verify(), "forged ECN mark");
        // … while a marking hop re-seals and stays valid.
        let mut marked = p.clone();
        marked.mark_ecn();
        assert!(marked.ecn && marked.verify());
        marked.mark_ecn(); // idempotent
        assert!(marked.verify());
        // Erasing a sealed mark is detected too.
        let mut erased = marked.clone();
        erased.ecn = false;
        assert!(!erased.verify(), "erased ECN mark");
        // A CNP echo is header-only, sealed, and cannot decay into (or
        // out of) a data frame.
        let c = ApePacket::cnp(p.src, p.dst, p.msg);
        assert!(c.is_cnp() && c.is_empty() && c.verify());
        assert_eq!(c.wire_bytes(), APE_PACKET_OVERHEAD);
        let mut d = c.clone();
        d.cnp = false;
        assert!(!d.verify(), "CNP must not decay into a write");
        let mut w = p.clone();
        w.cnp = true;
        assert!(!w.verify(), "write must not decay into a CNP");
    }

    /// True when `f` can run without any payload byte being hashed. The
    /// hash counter is process-wide and other tests hash concurrently,
    /// so a few attempts are allowed; code that always hashes a
    /// non-empty payload fails every one of them.
    fn hashes_no_payload(mut f: impl FnMut()) -> bool {
        (0..8).any(|_| {
            let before = hashed_bytes();
            f();
            hashed_bytes() == before
        })
    }

    /// Adversarial CRC property: every corruption class the link layer's
    /// fault injector can produce (and several it can't) must flip
    /// `verify()` to false. CRC-32 detects all single-bit and all
    /// burst-≤32-bit errors by construction; the random multi-bit cases
    /// ride on the seeded property harness so a miss would replay.
    #[test]
    fn adversarial_corruption_is_always_detected() {
        use apenet_sim::check;
        check::cases("crc catches corruption", 128, |g| {
            let payload = g.bytes(1, 4096);
            let p = packet(payload);
            assert!(p.verify());

            // Single-bit flip at a random position.
            let mut single = p.clone();
            let idx = g.usize(0, single.payload().len());
            single.payload_mut()[idx] ^= 1 << g.u32(0, 8);
            assert!(!single.verify(), "single-bit flip at byte {idx}");

            // Multi-bit: 2–8 independent random flips.
            let mut multi = p.clone();
            for _ in 0..g.usize(2, 9) {
                let i = g.usize(0, multi.payload().len());
                multi.payload_mut()[i] ^= (g.byte() | 1).rotate_left(g.u32(0, 8));
            }
            // Flips can cancel pairwise; force at least one net change.
            if multi.payload() == p.payload() {
                multi.payload_mut()[0] ^= 0xFF;
            }
            assert!(!multi.verify(), "multi-bit flips");

            // Burst: 1–4 contiguous bytes overwritten.
            let mut burst = p.clone();
            let n = g.usize(1, 5.min(burst.payload().len() + 1));
            let start = g.usize(0, burst.payload().len() - n + 1);
            let mut changed = false;
            for i in start..start + n {
                let b = g.byte();
                let s = burst.payload_mut();
                changed |= s[i] != b;
                s[i] = b;
            }
            if changed {
                assert!(!burst.verify(), "burst of {n} at {start}");
            }

            // Truncation: drop trailing bytes (header msg_len unchanged).
            if p.payload().len() > 1 {
                let keep = g.usize(1, p.payload().len());
                let mut trunc = p.clone();
                trunc.set_payload(p.payload().narrow(0, keep));
                assert!(!trunc.verify(), "truncated to {keep} bytes");
            }

            // Extension: append garbage.
            let mut extended = p.payload().to_vec();
            extended.extend(g.bytes(1, 32));
            let mut ext = p.clone();
            ext.set_payload(extended);
            assert!(!ext.verify(), "extended payload");

            // Header corruption: each addressed field in turn.
            let mut h = p.clone();
            h.dst_vaddr ^= 1 << g.u32(0, 48);
            assert!(!h.verify(), "dst_vaddr flip");
            let mut m = p.clone();
            m.msg.seq ^= 1 << g.u32(0, 63);
            assert!(!m.verify(), "msg seq flip");
            let mut l = p.clone();
            l.msg_len ^= 1 << g.u32(0, 32);
            assert!(!l.verify(), "msg_len flip");
            let mut e = p.clone();
            e.ecn = !e.ecn;
            assert!(!e.verify(), "ecn flip");
            let mut cn = p.clone();
            cn.cnp = !cn.cnp;
            assert!(!cn.verify(), "cnp flip");

            // A clone shares the sealed payload; corrupting it after
            // sealing (copy-on-write) must still be caught, as must an
            // in-place write to a sole-owner payload.
            let mut shared = p.clone();
            let i = g.usize(0, shared.payload().len());
            shared.payload_mut()[i] ^= 1 << g.u32(0, 8);
            assert!(!shared.verify(), "corrupted clone of a sealed payload");
            let mut own = packet(p.payload().to_vec());
            own.payload_mut()[i] ^= 1 << g.u32(0, 8);
            assert!(!own.verify(), "in-place corruption of a sealed payload");

            // Swapping in another sealed packet's payload (same length,
            // different bytes, sealed and clean itself) is caught.
            let mut other = g.bytes(p.payload().len(), p.payload().len());
            if other == p.payload().as_slice() {
                other[0] ^= 0xFF;
            }
            let mut swapped = p.clone();
            swapped.set_payload(packet(other).payload().clone());
            assert!(!swapped.verify(), "swapped sealed payload");

            // An ECN-marking hop re-seals only the header: the marked
            // frame verifies, and neither the re-seal nor the check
            // hashes a payload byte …
            assert!(
                hashes_no_payload(|| {
                    let mut marked = p.clone();
                    marked.mark_ecn();
                    assert!(marked.ecn && marked.verify(), "marked frame verifies");
                }),
                "mark_ecn re-hashed the payload"
            );
            // … and re-marking a corrupted frame cannot launder it.
            let mut laundered = shared.clone();
            laundered.mark_ecn();
            assert!(
                !laundered.verify(),
                "mark_ecn laundered a corrupted payload"
            );
        });
    }
}

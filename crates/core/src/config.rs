//! Card configuration: every calibration constant of the APEnet+ model,
//! each annotated with the paper statement it reproduces.

use apenet_sim::SimDuration;

/// The three generations of the GPU memory reading engine (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuTxVersion {
    /// Software-only on the Nios II, a single outstanding request of up to
    /// 4 KB — "the peak GPU reading bandwidth was throttled to 600 MB/s".
    V1,
    /// Hardware read-request generation (one every 80 ns) plus a bounded
    /// block-wise prefetch window (4–32 KB).
    V2,
    /// Unlimited prefetch with flow-control feedback from the almost-full
    /// signals of the on-board FIFOs.
    V3,
}

/// How the card reads GPU memory on transmission (§III, §VI): the
/// GPUDirect peer-to-peer protocol, or plain PCIe reads through the BAR1
/// aperture ("on Kepler, the BAR1 technique seems more promising").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuReadMethod {
    /// The GPUDirect peer-to-peer two-way read protocol.
    P2p,
    /// Memory-mapped reads through the BAR1 aperture (buffers must be
    /// mapped first — an expensive, aperture-limited operation).
    Bar1,
}

/// What the card does with packets that reach the TX injection FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxSinkMode {
    /// Normal operation: serialize onto torus links (or the loop-back
    /// path when the destination is this card).
    Torus,
    /// The Fig. 4 measurement mode: "obtained by flushing TX injection
    /// FIFOs, effectively simulating a zero-latency infinitely fast
    /// switch".
    Flush,
}

/// The overload-protection plane's card-side tuning: ECN-style marking
/// thresholds. `None` (the default) compiles the plane in but leaves it
/// inert — no packet is ever marked, no echo is ever generated, and the
/// golden digests prove clean runs are byte-identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadConfig {
    /// Mark a data frame when its egress torus port already holds this
    /// many frames (replay buffer + windowed backlog) — the DCQCN-style
    /// queue-depth trigger, evaluated at every hop the frame crosses.
    pub port_highwater: u32,
    /// Mark a delivery when the RX event ring holds this many unreaped
    /// completions (only meaningful with `rx_ring_entries` bounded); a
    /// completion *held* on a full ring is always treated as marked.
    pub ring_highwater: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            // ~8 frames of 4 KiB is two replay windows' worth of backlog
            // at the default link rate — deep enough that a healthy
            // single flow (whose port queue tracks the in-flight frame
            // count, < link_window) under-runs it, shallow enough that
            // an incast convergence point trips it within one window.
            port_highwater: 8,
            ring_highwater: 48,
        }
    }
}

/// Calibration constants of one card.
#[derive(Debug, Clone)]
pub struct CardConfig {
    /// GPU-TX engine generation.
    pub gpu_tx: GpuTxVersion,
    /// How GPU memory is read on TX.
    pub gpu_read: GpuReadMethod,
    /// Prefetch window (v2: block size; v3: in-flight cap). Fig. 4 sweeps
    /// 4–32 KB for v2 and 64–128 KB for v3.
    pub prefetch_window: u64,
    /// TX FIFO capacity — "the packet injection logic (TX) with a 32 KB
    /// transmission buffer" (§III.B).
    pub tx_fifo_bytes: u64,
    /// What happens at the TX FIFO (normal vs Fig. 4 flush mode).
    pub tx_sink: TxSinkMode,
    /// Torus link signalling rate in Gbps (28 for the benchmarks, 20 for
    /// the HSG runs — figure captions).
    pub link_gbps: u64,
    /// Torus cable + SerDes latency.
    pub link_latency: SimDuration,
    /// Router forwarding latency for transit packets.
    pub router_forward: SimDuration,
    /// Switch transit latency on the internal loop-back path.
    pub loopback_transit: SimDuration,
    /// Nios II RX cost per packet before BUF_LIST/V2P (header parse,
    /// descriptor handling).
    pub rx_packet_base: SimDuration,
    /// Extra RX cost when the destination is GPU memory (driving the P2P
    /// write window) — the "10% penalty … probably related to the
    /// additional actions involved" of §V.C.
    pub rx_gpu_extra: SimDuration,
    /// Nios cost per 4 KB chunk for GPU_P2P_TX v1 (software-only engine).
    pub tx_v1_per_chunk: SimDuration,
    /// Nios cost per packet for v2 (descriptor bookkeeping only; request
    /// generation is in hardware).
    pub tx_v2_per_packet: SimDuration,
    /// Nios cost per packet for v3 (further offload — "the Nios II can
    /// allot a larger time-slice to the receive data path").
    pub tx_v3_per_packet: SimDuration,
    /// Per-message GPU-TX setup on the Nios for v1/v2 (the bulk of the
    /// ~3 µs initial delay measured on the bus analyzer, Fig. 3).
    pub tx_gpu_setup_v2: SimDuration,
    /// Hardware pipeline setup before the first read request for v1/v2
    /// (the rest of the Fig. 3 initial delay).
    pub tx_gpu_hw_setup_v2: SimDuration,
    /// Per-message Nios setup for v3 (the flow-control block removed most
    /// of the per-message software work).
    pub tx_gpu_setup_v3: SimDuration,
    /// Hardware setup for v3.
    pub tx_gpu_hw_setup_v3: SimDuration,
    /// Completion-notification cost on the receive side (writing the RX
    /// event queue entry the host polls).
    pub rx_notify: SimDuration,
    /// Nios cost of decoding a GET descriptor and building the remote
    /// read-request header on the requester card.
    pub get_req_nios: SimDuration,
    /// Fault injection: flip one payload bit (random position and mask,
    /// drawn from the card's seeded fault RNG) in every Nth data frame put
    /// on a link port — loop-back included (None = healthy links). The
    /// link layer must catch and retransmit every corrupted frame.
    pub tx_bit_error_every: Option<u32>,
    /// Link-level go-back-N retransmission (the reliability layer of the
    /// APElink channels: per-port sequence numbers, a bounded replay
    /// buffer, ACK/NAK credits and a retransmit timeout). Disabling it
    /// restores drop-on-CRC-failure — the chaos suite's kill-switch check
    /// proves the harness detects exactly that bug.
    pub link_retrans: bool,
    /// Go-back-N window: maximum unacknowledged data frames per port,
    /// enforced while fault injection is armed. It bounds replay-buffer
    /// memory and the size of go-back-N recovery bursts. On fault-free
    /// runs the window is not enforced (nothing can be lost, and
    /// deferring frames to ACK-arrival times would shift golden timing);
    /// ACK credits still continuously clear the replay buffer, which
    /// stays bounded by the in-flight frame count.
    pub link_window: u32,
    /// Retransmit timeout per port: recovers a dropped last-frame or a
    /// dropped ACK/NAK when no later traffic can trigger a NAK. Timers are
    /// armed only while fault injection is active, so healthy runs
    /// schedule no timer events at all. Backs off exponentially on
    /// consecutive barren timeouts.
    pub link_rto: SimDuration,
    /// Seed of the card's fault RNG (corruption position/mask draws for
    /// `tx_bit_error_every`); mixed with the card's coordinates so every
    /// card draws an independent stream.
    pub fault_seed: u64,
    /// Hard-failure tolerance plane (the fault-management features the
    /// APElink follow-up papers make first-class): dead-link detection by
    /// keepalive miss, deterministic detour routing around failed ring
    /// hops, link-state flooding, and drain/requeue of in-flight frames.
    /// `false` restores strict dimension-order routing with
    /// panic-on-missing-route — exactly today's behaviour — and the
    /// golden-digest test pins that clean-run figures are byte-identical
    /// either way. Off by default; presets and tests set it.
    pub route_around_faults: bool,
    /// Consecutive unanswered keepalive probes before a port is declared
    /// dead. Probes ride barren retransmit timeouts (so they exist only
    /// while the fault plane is armed and traffic is stuck), making the
    /// detection bound ≈ `keepalive_misses` × backed-off `link_rto`s.
    pub keepalive_misses: u32,
    /// RX event ring capacity: completed deliveries the host has not yet
    /// reaped. A full ring backpressures — the completion is held (never
    /// dropped) until the host pops entries — and raises a
    /// [`crate::card::CardError::RxRingFull`] event. `None` models the
    /// host keeping up, i.e. an unbounded ring (today's behaviour).
    pub rx_ring_entries: Option<u32>,
    /// The overload-protection plane (ECN-style marking + congestion
    /// echoes). `None` — the default — keeps the plane pure dead code: no mark bits, no echo frames,
    /// no extra events, byte-identical golden digests.
    pub overload: Option<OverloadConfig>,
}

impl Default for CardConfig {
    fn default() -> Self {
        Self::paper_v3(128 * 1024)
    }
}

impl CardConfig {
    fn base() -> Self {
        CardConfig {
            gpu_tx: GpuTxVersion::V3,
            gpu_read: GpuReadMethod::P2p,
            prefetch_window: 128 * 1024,
            tx_fifo_bytes: 32 * 1024,
            tx_sink: TxSinkMode::Torus,
            link_gbps: 28,
            link_latency: SimDuration::from_ns(400),
            router_forward: SimDuration::from_ns(150),
            loopback_transit: SimDuration::from_ns(200),
            rx_packet_base: SimDuration::from_ns(250),
            rx_gpu_extra: SimDuration::from_ns(300),
            tx_v1_per_chunk: SimDuration::from_ns(2360),
            tx_v2_per_packet: SimDuration::from_ns(800),
            tx_v3_per_packet: SimDuration::from_ns(250),
            tx_gpu_setup_v2: SimDuration::from_ns(2200),
            tx_gpu_hw_setup_v2: SimDuration::from_ns(800),
            tx_gpu_setup_v3: SimDuration::from_ns(350),
            tx_gpu_hw_setup_v3: SimDuration::from_ns(150),
            rx_notify: SimDuration::from_ns(150),
            get_req_nios: SimDuration::from_ns(250),
            tx_bit_error_every: None,
            link_retrans: true,
            link_window: 32,
            link_rto: SimDuration::from_us(100),
            fault_seed: 0xA9E0_5EED,
            route_around_faults: false,
            keepalive_misses: 3,
            rx_ring_entries: None,
            overload: None,
        }
    }

    /// The v1 engine configuration.
    pub fn paper_v1() -> Self {
        CardConfig {
            gpu_tx: GpuTxVersion::V1,
            prefetch_window: 4096,
            ..Self::base()
        }
    }

    /// The v2 engine with the given prefetch window (4–32 KB in Fig. 4).
    pub fn paper_v2(window: u64) -> Self {
        CardConfig {
            gpu_tx: GpuTxVersion::V2,
            prefetch_window: window,
            ..Self::base()
        }
    }

    /// The v3 engine with the given in-flight cap (64–128 KB in Fig. 4).
    pub fn paper_v3(window: u64) -> Self {
        CardConfig {
            gpu_tx: GpuTxVersion::V3,
            prefetch_window: window,
            ..Self::base()
        }
    }

    /// Nios cost per TX packet for the configured engine generation.
    pub fn tx_per_packet(&self) -> SimDuration {
        match self.gpu_tx {
            GpuTxVersion::V1 => self.tx_v1_per_chunk,
            GpuTxVersion::V2 => self.tx_v2_per_packet,
            GpuTxVersion::V3 => self.tx_v3_per_packet,
        }
    }

    /// Per-message Nios setup cost for the configured engine generation.
    pub fn tx_gpu_setup(&self) -> SimDuration {
        match self.gpu_tx {
            GpuTxVersion::V1 | GpuTxVersion::V2 => self.tx_gpu_setup_v2,
            GpuTxVersion::V3 => self.tx_gpu_setup_v3,
        }
    }

    /// Per-message hardware setup cost for the configured generation.
    pub fn tx_gpu_hw_setup(&self) -> SimDuration {
        match self.gpu_tx {
            GpuTxVersion::V1 | GpuTxVersion::V2 => self.tx_gpu_hw_setup_v2,
            GpuTxVersion::V3 => self.tx_gpu_hw_setup_v3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_version() {
        assert_eq!(CardConfig::paper_v1().gpu_tx, GpuTxVersion::V1);
        assert_eq!(CardConfig::paper_v2(8192).prefetch_window, 8192);
        assert_eq!(CardConfig::paper_v3(65536).gpu_tx, GpuTxVersion::V3);
    }

    #[test]
    fn tx_fifo_is_32k() {
        assert_eq!(CardConfig::default().tx_fifo_bytes, 32 * 1024);
    }

    #[test]
    fn link_reliability_defaults() {
        let c = CardConfig::default();
        assert!(c.link_retrans, "retransmission on by default");
        assert!(c.link_window >= 2);
        // The RTO must exceed a full window's serialization time at
        // 28 Gbps (~19 us) or healthy-but-slow links would time out.
        assert!(c.link_rto > SimDuration::from_us(20));
    }

    #[test]
    fn hard_fault_defaults() {
        let c = CardConfig::default();
        assert!(
            c.keepalive_misses >= 2,
            "one lost probe must not kill a link"
        );
        assert_eq!(c.rx_ring_entries, None, "host keeps up by default");
    }

    #[test]
    fn overload_plane_defaults_off() {
        assert_eq!(CardConfig::default().overload, None);
    }

    #[test]
    fn v3_offloads_nios_relative_to_v2() {
        let v2 = CardConfig::paper_v2(32768);
        let v3 = CardConfig::paper_v3(65536);
        assert!(v3.tx_per_packet() < v2.tx_per_packet());
        assert!(CardConfig::paper_v1().tx_per_packet() > v2.tx_per_packet());
    }
}

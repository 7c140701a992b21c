//! A minimal CUDA-flavoured host API over the device model.
//!
//! Provides exactly what the paper's applications and middleware need:
//! device-memory allocation, ordered streams with timed kernel launches,
//! events, and synchronous/asynchronous `cudaMemcpy` between host and
//! device memory (real bytes move; simulated time advances at the DMA
//! engine rate plus the measured host-synchronous overheads).

use crate::arch::{ArchSpec, GpuArch};
use crate::bar1::Bar1;
use crate::dma::{DmaEngine, DmaTransfer, SYNC_D2H_OVERHEAD, SYNC_H2D_OVERHEAD};
use crate::mem::{MemError, Memory};
use crate::p2p::P2pEngine;
use crate::uva::Uva;
use crate::{GpuId, GPU_PAGE_SIZE};
use apenet_sim::{SimDuration, SimTime};

/// Handle to a CUDA stream of a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(usize);

/// Handle to a recorded CUDA event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(usize);

/// One simulated GPU: memory, engines and the stream machinery.
///
/// ```
/// use apenet_gpu::cuda::CudaDevice;
/// use apenet_gpu::{GpuArch, GpuId};
/// use apenet_sim::{SimDuration, SimTime};
///
/// let mut dev = CudaDevice::new(GpuId(0), GpuArch::Fermi2050);
/// let buf = dev.malloc(4096).unwrap();
/// dev.mem.write(buf, &[7u8; 4096]).unwrap();
///
/// // Two streams overlap; one stream serializes.
/// let s1 = CudaDevice::default_stream();
/// let s2 = dev.create_stream();
/// let a = dev.launch(SimTime::ZERO, s1, SimDuration::from_us(100));
/// let b = dev.launch(SimTime::ZERO, s2, SimDuration::from_us(40));
/// assert!(b < a);
/// assert_eq!(dev.device_sync(SimTime::ZERO), a);
/// ```
#[derive(Debug)]
pub struct CudaDevice {
    /// Device index within its host.
    pub id: GpuId,
    /// Which part this is.
    pub arch: GpuArch,
    /// Device (global) memory.
    pub mem: Memory,
    /// The peer-to-peer engine third-party devices talk to.
    pub p2p: P2pEngine,
    /// The BAR1 aperture.
    pub bar1: Bar1,
    dma_d2h: DmaEngine,
    dma_h2d: DmaEngine,
    streams: Vec<SimTime>,
    events: Vec<SimTime>,
}

/// The result of a memcpy: when the host regains control and when the data
/// transfer itself completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemcpyDone {
    /// Host-release time (for a synchronous copy this equals `data_done`
    /// plus the host-side overhead; for async it is the submission time).
    pub host_free: SimTime,
    /// When the last byte landed.
    pub data_done: SimTime,
}

impl CudaDevice {
    /// Create device `id` of the given architecture, with its device
    /// memory placed in the UVA window for `id`.
    pub fn new(id: GpuId, arch: GpuArch) -> Self {
        let spec: ArchSpec = arch.spec();
        let mem = Memory::new(Uva::gpu_base(id.0), spec.mem_bytes, GPU_PAGE_SIZE);
        CudaDevice {
            id,
            arch,
            mem,
            p2p: P2pEngine::new(&spec),
            bar1: Bar1::new(&spec),
            dma_d2h: DmaEngine::new(spec.dma_rate),
            dma_h2d: DmaEngine::new(spec.dma_rate),
            streams: vec![SimTime::ZERO], // the default stream
            events: Vec::new(),
        }
    }

    /// The default stream.
    pub fn default_stream() -> StreamId {
        StreamId(0)
    }

    /// Create an independent stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.streams.push(SimTime::ZERO);
        StreamId(self.streams.len() - 1)
    }

    /// `cudaMalloc`.
    pub fn malloc(&mut self, len: u64) -> Result<u64, MemError> {
        self.mem.alloc(len)
    }

    /// `cudaFree`.
    pub fn free(&mut self, addr: u64) -> Result<(), MemError> {
        self.mem.free(addr)
    }

    /// Launch a kernel of duration `dur` on `stream` at `now`; returns the
    /// completion time. Launches on one stream execute in order; distinct
    /// streams overlap freely (the paper's boundary/bulk overlap relies on
    /// this).
    pub fn launch(&mut self, now: SimTime, stream: StreamId, dur: SimDuration) -> SimTime {
        let tail = &mut self.streams[stream.0];
        let start = now.max(*tail);
        *tail = start + dur;
        *tail
    }

    /// The time at which all work queued on `stream` completes.
    pub fn stream_tail(&self, stream: StreamId) -> SimTime {
        self.streams[stream.0]
    }

    /// `cudaStreamSynchronize`: host blocks until the stream drains.
    pub fn stream_sync(&self, now: SimTime, stream: StreamId) -> SimTime {
        now.max(self.streams[stream.0])
    }

    /// `cudaDeviceSynchronize`: host blocks until every stream drains.
    pub fn device_sync(&self, now: SimTime) -> SimTime {
        self.streams.iter().fold(now, |acc, &t| acc.max(t))
    }

    /// `cudaEventRecord` on `stream`.
    pub fn record_event(&mut self, now: SimTime, stream: StreamId) -> EventId {
        let at = now.max(self.streams[stream.0]);
        self.events.push(at);
        EventId(self.events.len() - 1)
    }

    /// The simulated time an event fired.
    pub fn event_time(&self, ev: EventId) -> SimTime {
        self.events[ev.0]
    }

    /// Make `stream` wait for `ev` (`cudaStreamWaitEvent`).
    pub fn stream_wait_event(&mut self, ev: EventId, stream: StreamId) {
        let at = self.events[ev.0];
        let tail = &mut self.streams[stream.0];
        *tail = (*tail).max(at);
    }

    /// Synchronous `cudaMemcpy` device-to-host: moves real bytes (sharing
    /// whole aligned chunks, see [`Memory::copy_from`]) and blocks the
    /// host for the transfer plus the measured ~10 µs overhead.
    pub fn memcpy_d2h_sync(
        &mut self,
        now: SimTime,
        host: &mut Memory,
        dst_host: u64,
        src_dev: u64,
        len: u64,
    ) -> Result<MemcpyDone, MemError> {
        host.copy_from(dst_host, &self.mem, src_dev, len)?;
        let t: DmaTransfer = self.dma_d2h.transfer(now, len);
        let host_free = t.end + SYNC_D2H_OVERHEAD;
        Ok(MemcpyDone {
            host_free,
            data_done: t.end,
        })
    }

    /// Synchronous `cudaMemcpy` host-to-device.
    pub fn memcpy_h2d_sync(
        &mut self,
        now: SimTime,
        host: &Memory,
        dst_dev: u64,
        src_host: u64,
        len: u64,
    ) -> Result<MemcpyDone, MemError> {
        self.mem.copy_from(dst_dev, host, src_host, len)?;
        let t = self.dma_h2d.transfer(now, len);
        let host_free = t.end + SYNC_H2D_OVERHEAD;
        Ok(MemcpyDone {
            host_free,
            data_done: t.end,
        })
    }

    /// `cudaMemcpyAsync` device-to-host on `stream`: the host returns
    /// immediately; the copy is ordered after prior work on the stream.
    pub fn memcpy_d2h_async(
        &mut self,
        now: SimTime,
        stream: StreamId,
        host: &mut Memory,
        dst_host: u64,
        src_dev: u64,
        len: u64,
    ) -> Result<MemcpyDone, MemError> {
        host.copy_from(dst_host, &self.mem, src_dev, len)?;
        let ready = now.max(self.streams[stream.0]);
        let t = self.dma_d2h.transfer(ready, len);
        self.streams[stream.0] = t.end;
        Ok(MemcpyDone {
            host_free: now,
            data_done: t.end,
        })
    }

    /// `cudaMemcpyPeer`: copy between two devices over the PCIe fabric
    /// using the P2P protocol — the single-box technique §I credits with
    /// "a 50% performance gain on capability problems". The source's DMA
    /// engine pushes; the destination's P2P write path absorbs.
    pub fn memcpy_peer(
        now: SimTime,
        dst: &mut CudaDevice,
        dst_addr: u64,
        src: &mut CudaDevice,
        src_addr: u64,
        len: u64,
    ) -> Result<MemcpyDone, MemError> {
        dst.mem.copy_from(dst_addr, &src.mem, src_addr, len)?;
        let push = src.dma_d2h.transfer(now, len);
        let absorbed = dst.p2p.absorb_write(push.start, dst_addr, len);
        let done = push.end.max(absorbed);
        Ok(MemcpyDone {
            host_free: now + SYNC_H2D_OVERHEAD,
            data_done: done,
        })
    }

    /// Reset all timing state (between benchmark repetitions); memory
    /// contents and allocations survive.
    pub fn reset_timing(&mut self) {
        self.p2p.reset();
        self.bar1.reset_timing();
        self.dma_d2h.reset();
        self.dma_h2d.reset();
        for s in &mut self.streams {
            *s = SimTime::ZERO;
        }
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uva::HOST_BASE;
    use crate::HOST_PAGE_SIZE;

    fn setup() -> (CudaDevice, Memory) {
        let dev = CudaDevice::new(GpuId(0), GpuArch::Fermi2050);
        let host = Memory::new(HOST_BASE, 16 << 20, HOST_PAGE_SIZE);
        (dev, host)
    }

    #[test]
    fn streams_order_and_overlap() {
        let (mut dev, _) = setup();
        let s0 = CudaDevice::default_stream();
        let s1 = dev.create_stream();
        let t0 = SimTime::ZERO;
        let k1 = dev.launch(t0, s0, SimDuration::from_us(100));
        let k2 = dev.launch(t0, s0, SimDuration::from_us(50));
        let k3 = dev.launch(t0, s1, SimDuration::from_us(30));
        assert_eq!(k1, t0 + SimDuration::from_us(100));
        assert_eq!(k2, t0 + SimDuration::from_us(150), "same stream serializes");
        assert_eq!(k3, t0 + SimDuration::from_us(30), "streams overlap");
        assert_eq!(dev.device_sync(t0), k2);
        assert_eq!(dev.stream_sync(t0, s1), k3);
    }

    #[test]
    fn events_and_cross_stream_wait() {
        let (mut dev, _) = setup();
        let s0 = CudaDevice::default_stream();
        let s1 = dev.create_stream();
        dev.launch(SimTime::ZERO, s0, SimDuration::from_us(10));
        let ev = dev.record_event(SimTime::ZERO, s0);
        assert_eq!(dev.event_time(ev), SimTime::ZERO + SimDuration::from_us(10));
        dev.stream_wait_event(ev, s1);
        let k = dev.launch(SimTime::ZERO, s1, SimDuration::from_us(5));
        assert_eq!(k, SimTime::ZERO + SimDuration::from_us(15));
    }

    #[test]
    fn sync_memcpy_moves_real_bytes_with_overhead() {
        let (mut dev, mut host) = setup();
        let d = dev.malloc(8192).unwrap();
        let h = host.alloc(8192).unwrap();
        let payload: Vec<u8> = (0..8192u32).map(|i| (i * 7 % 256) as u8).collect();
        dev.mem.write(d, &payload).unwrap();
        let done = dev
            .memcpy_d2h_sync(SimTime::ZERO, &mut host, h, d, 8192)
            .unwrap();
        assert_eq!(host.read_vec(h, 8192).unwrap(), payload);
        // 8192 B at 5.5 GB/s ≈ 1.49 us, + 10 us sync overhead.
        let us = done.host_free.as_us_f64();
        assert!((11.3..11.7).contains(&us), "{us}");
        // And back up with fresh data.
        let payload2: Vec<u8> = payload.iter().map(|b| b ^ 0xFF).collect();
        host.write(h, &payload2).unwrap();
        let done2 = dev
            .memcpy_h2d_sync(done.host_free, &host, d, h, 8192)
            .unwrap();
        assert_eq!(dev.mem.read_vec(d, 8192).unwrap(), payload2);
        assert!(done2.host_free > done.host_free);
    }

    #[test]
    fn async_memcpy_returns_immediately_and_orders_on_stream() {
        let (mut dev, mut host) = setup();
        let d = dev.malloc(4096).unwrap();
        let h = host.alloc(4096).unwrap();
        let s = dev.create_stream();
        dev.launch(SimTime::ZERO, s, SimDuration::from_us(100));
        let done = dev
            .memcpy_d2h_async(SimTime::ZERO, s, &mut host, h, d, 4096)
            .unwrap();
        assert_eq!(done.host_free, SimTime::ZERO, "async returns at once");
        assert!(
            done.data_done > SimTime::ZERO + SimDuration::from_us(100),
            "copy waits for the kernel on the same stream"
        );
        assert_eq!(dev.stream_tail(s), done.data_done);
    }

    #[test]
    fn memcpy_peer_moves_bytes_between_devices() {
        let mut a = CudaDevice::new(GpuId(0), GpuArch::Fermi2050);
        let mut b = CudaDevice::new(GpuId(1), GpuArch::Fermi2050);
        let src = a.malloc(16384).unwrap();
        let dst = b.malloc(16384).unwrap();
        let payload: Vec<u8> = (0..16384u32).map(|i| (i % 256) as u8).collect();
        a.mem.write(src, &payload).unwrap();
        let done = CudaDevice::memcpy_peer(SimTime::ZERO, &mut b, dst, &mut a, src, 16384).unwrap();
        assert_eq!(b.mem.read_vec(dst, 16384).unwrap(), payload);
        // Faster than a staged D2H+H2D round trip (no 10 us sync stall).
        let mut c = CudaDevice::new(GpuId(2), GpuArch::Fermi2050);
        let mut host = Memory::new(crate::uva::HOST_BASE, 1 << 20, crate::HOST_PAGE_SIZE);
        let h = host.alloc(16384).unwrap();
        let c_src = c.malloc(16384).unwrap();
        let d2h = c
            .memcpy_d2h_sync(SimTime::ZERO, &mut host, h, c_src, 16384)
            .unwrap();
        let staged_total = d2h.host_free.since(SimTime::ZERO) * 2;
        assert!(done.data_done.since(SimTime::ZERO) < staged_total);
    }

    #[test]
    fn memcpy_peer_range_checked() {
        let mut a = CudaDevice::new(GpuId(0), GpuArch::Fermi2050);
        let mut b = CudaDevice::new(GpuId(1), GpuArch::Fermi2050);
        let src = a.malloc(4096).unwrap();
        assert!(CudaDevice::memcpy_peer(SimTime::ZERO, &mut b, 0xbad, &mut a, src, 4096).is_err());
    }

    #[test]
    fn reset_timing_preserves_memory() {
        let (mut dev, _) = setup();
        let d = dev.malloc(64).unwrap();
        dev.mem.write(d, &[9u8; 64]).unwrap();
        dev.launch(
            SimTime::ZERO,
            CudaDevice::default_stream(),
            SimDuration::from_us(1),
        );
        dev.reset_timing();
        assert_eq!(dev.stream_tail(CudaDevice::default_stream()), SimTime::ZERO);
        assert_eq!(dev.mem.read_vec(d, 64).unwrap(), vec![9u8; 64]);
    }
}

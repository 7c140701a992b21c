//! Host-memory staging: the P2P=OFF transfer path.
//!
//! Without peer-to-peer, sending a GPU buffer means `cudaMemcpy`-ing it
//! into a pinned host bounce buffer and PUTting from there; the receiver
//! lands the message in a host bounce and copies it up to the GPU. For
//! large messages the copy and the network send are pipelined in chunks —
//! which is why staging eventually beats peer-to-peer beyond ~32 KB in
//! Fig. 7, while losing badly on latency (Fig. 9: 16.8 µs vs 8.2 µs).

use crate::api::{PutOutcome, RdmaEndpoint, RdmaError, SrcHint};
use apenet_core::card::TxDesc;
use apenet_core::coord::Coord;
use apenet_gpu::cuda::CudaDevice;
use apenet_gpu::mem::Memory;
use apenet_sim::SimTime;

/// Default staging pipeline chunk.
pub const STAGING_CHUNK: u64 = 128 * 1024;

/// Messages at or below this size use a single blocking copy (pipelining
/// overhead is not worth it).
pub const PIPELINE_THRESHOLD: u64 = 64 * 1024;

/// The outcome of planning a staged PUT: descriptors to submit at given
/// times, and when the host is free again.
#[derive(Debug, Clone)]
pub struct StagedPut {
    /// `(submit_time, descriptor)` pairs, in submission order.
    pub submissions: Vec<(SimTime, TxDesc)>,
    /// When the sending host regains control.
    pub host_free: SimTime,
}

/// Plan a staged transmission of `len` bytes from GPU address `src_dev`
/// through the host bounce buffer at `bounce`, to `dst_vaddr` on `dst`.
///
/// Real bytes move: device → bounce now, so the PUTs read actual data.
/// The bounce buffer must be registered and at least `len` bytes.
#[allow(clippy::too_many_arguments)]
pub fn staged_put(
    ep: &mut RdmaEndpoint,
    dev: &mut CudaDevice,
    hostmem: &mut Memory,
    now: SimTime,
    src_dev: u64,
    bounce: u64,
    len: u64,
    dst: Coord,
    dst_vaddr: u64,
) -> Result<StagedPut, RdmaError> {
    let mut submissions = Vec::new();
    if len <= PIPELINE_THRESHOLD {
        // Small message: one fully synchronous D2H copy, then one PUT.
        let cp = dev
            .memcpy_d2h_sync(now, hostmem, bounce, src_dev, len)
            .map_err(|_| RdmaError::CopyFault)?;
        let out: PutOutcome = ep.put(bounce, len, dst, dst_vaddr, SrcHint::Host)?;
        let submit = cp.host_free + out.host_cost;
        submissions.push((submit, out.desc));
        return Ok(StagedPut {
            submissions,
            host_free: submit,
        });
    }
    // Large message: chunked pipeline on a dedicated stream. Each chunk is
    // copied asynchronously; its PUT is submitted when the copy lands.
    let stream = dev.create_stream();
    let mut off = 0u64;
    let mut prev_submit = now;
    while off < len {
        let n = STAGING_CHUNK.min(len - off);
        let cp = dev
            .memcpy_d2h_async(now, stream, hostmem, bounce + off, src_dev + off, n)
            .map_err(|_| RdmaError::CopyFault)?;
        let out = ep.put(bounce + off, n, dst, dst_vaddr + off, SrcHint::Host)?;
        let submit = cp.data_done.max(prev_submit) + out.host_cost;
        submissions.push((submit, out.desc));
        prev_submit = submit;
        off += n;
    }
    Ok(StagedPut {
        submissions,
        host_free: prev_submit,
    })
}

/// Finish a staged reception: the message landed in the host bounce at
/// `bounce`; copy it up to the GPU destination. Returns when the data is
/// usable on the device, or [`RdmaError::CopyFault`] when either range
/// escapes its allocation.
pub fn staged_recv_finish(
    dev: &mut CudaDevice,
    hostmem: &mut Memory,
    now: SimTime,
    bounce: u64,
    dst_dev: u64,
    len: u64,
) -> Result<SimTime, RdmaError> {
    let cp = dev
        .memcpy_h2d_sync(now, hostmem, dst_dev, bounce, len)
        .map_err(|_| RdmaError::CopyFault)?;
    Ok(cp.host_free)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::DriverConfig;
    use apenet_core::card::{CardShared, Firmware, GpuHandle};
    use apenet_gpu::uva::HOST_BASE;
    use apenet_gpu::{GpuArch, GpuId, Uva, HOST_PAGE_SIZE};
    use apenet_pcie::fabric::plx_platform;
    use apenet_pcie::server::ReadServer;
    use apenet_sim::{Bandwidth, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn rig() -> (RdmaEndpoint, Rc<RefCell<CudaDevice>>, Rc<RefCell<Memory>>) {
        let (fabric, gpu_dev, nic_dev, hostmem_dev) = plx_platform();
        let cuda = Rc::new(RefCell::new(CudaDevice::new(GpuId(0), GpuArch::Fermi2050)));
        let hostmem = Rc::new(RefCell::new(Memory::new(
            HOST_BASE,
            64 << 20,
            HOST_PAGE_SIZE,
        )));
        let mut uva = Uva::new();
        uva.set_host(&hostmem.borrow());
        uva.add_gpu(GpuId(0), &cuda.borrow().mem);
        let shared = CardShared {
            fabric: Rc::new(RefCell::new(fabric)),
            nic_dev,
            hostmem_dev,
            hostmem: hostmem.clone(),
            host_read: Rc::new(RefCell::new(ReadServer::new(
                SimDuration::from_ns(600),
                Bandwidth::from_mb_per_sec(2400),
            ))),
            gpus: vec![GpuHandle {
                pcie_dev: gpu_dev,
                cuda: cuda.clone(),
            }],
            firmware: Rc::new(RefCell::new(Firmware::default())),
        };
        (
            RdmaEndpoint::new(shared, uva, 0, DriverConfig::default()),
            cuda,
            hostmem,
        )
    }

    #[test]
    fn small_staged_put_pays_sync_copy() {
        let (mut ep, cuda, hostmem) = rig();
        let mut dev = cuda.borrow_mut();
        let mut hm = hostmem.borrow_mut();
        let g = dev.malloc(4096).unwrap();
        let b = hm.alloc(4096).unwrap();
        dev.mem.write(g, &[7u8; 4096]).unwrap();
        drop(hm);
        ep.register(b, 4096).unwrap();
        let mut hm = hostmem.borrow_mut();
        let plan = staged_put(
            &mut ep,
            &mut dev,
            &mut hm,
            SimTime::ZERO,
            g,
            b,
            4096,
            Coord::new(1, 0, 0),
            0,
        )
        .unwrap();
        assert_eq!(plan.submissions.len(), 1);
        // Bounce holds the real data.
        assert_eq!(hm.read_vec(b, 4096).unwrap(), vec![7u8; 4096]);
        // Host was blocked ≥ the 10 us sync D2H overhead.
        assert!(plan.host_free.since(SimTime::ZERO) >= SimDuration::from_us(10));
        assert_eq!(
            plan.submissions[0].1.src_kind,
            apenet_core::nios::BufKind::Host
        );
    }

    #[test]
    fn large_staged_put_pipelines_chunks() {
        let (mut ep, cuda, hostmem) = rig();
        let mut dev = cuda.borrow_mut();
        let mut hm = hostmem.borrow_mut();
        let len = 1u64 << 20;
        let g = dev.malloc(len).unwrap();
        let b = hm.alloc(len).unwrap();
        drop(hm);
        ep.register(b, len).unwrap();
        let mut hm = hostmem.borrow_mut();
        let plan = staged_put(
            &mut ep,
            &mut dev,
            &mut hm,
            SimTime::ZERO,
            g,
            b,
            len,
            Coord::new(1, 0, 0),
            0,
        )
        .unwrap();
        assert_eq!(plan.submissions.len(), (len / STAGING_CHUNK) as usize);
        // Chunk submissions are strictly increasing and start long before
        // the whole copy could have finished (pipelining).
        let copy_all = GpuArch::Fermi2050.spec().dma_rate.time_for(len);
        assert!(plan.submissions[0].0.since(SimTime::ZERO) < copy_all);
        for w in plan.submissions.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        // Offsets cover the message contiguously.
        let mut expect = 0;
        for (_, d) in &plan.submissions {
            assert_eq!(d.dst_vaddr, expect);
            expect += d.len;
        }
        assert_eq!(expect, len);
    }

    #[test]
    fn staged_recv_copies_up() {
        let (_ep, cuda, hostmem) = rig();
        let mut dev = cuda.borrow_mut();
        let mut hm = hostmem.borrow_mut();
        let g = dev.malloc(8192).unwrap();
        let b = hm.alloc(8192).unwrap();
        hm.write(b, &[3u8; 8192]).unwrap();
        let done = staged_recv_finish(&mut dev, &mut hm, SimTime::ZERO, b, g, 8192).unwrap();
        assert_eq!(dev.mem.read_vec(g, 8192).unwrap(), vec![3u8; 8192]);
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn out_of_range_staging_is_a_typed_fault_not_a_panic() {
        let (mut ep, cuda, hostmem) = rig();
        let mut dev = cuda.borrow_mut();
        let mut hm = hostmem.borrow_mut();
        let g = dev.malloc(4096).unwrap();
        // A bounce address below the host arena: the D2H copy faults
        // before any PUT is built.
        let bad_bounce = HOST_BASE - 4096;
        assert_eq!(
            staged_put(
                &mut ep,
                &mut dev,
                &mut hm,
                SimTime::ZERO,
                g,
                bad_bounce,
                4096,
                Coord::new(1, 0, 0),
                0,
            )
            .unwrap_err(),
            RdmaError::CopyFault
        );
        // Same on the receive side.
        assert_eq!(
            staged_recv_finish(&mut dev, &mut hm, SimTime::ZERO, bad_bounce, g, 4096).unwrap_err(),
            RdmaError::CopyFault
        );
    }
}

//! Bus-analyzer view of the GPU peer-to-peer read protocol: attach an
//! interposer to the card's PCIe slot (the Fig. 3 setup) and dump the
//! TLP-level timeline of a GPU-buffer transmission.
//!
//! Run with: `cargo run --release --example pcie_trace`

use apenet::cluster::harness::{flush_read_with, BufSide};
use apenet::cluster::presets::plx_node;
use apenet::cluster::Planes;
use apenet::gpu::GpuArch;
use apenet::nic::config::GpuTxVersion;
use apenet::pcie::analyzer::{render_trace, summarize_p2p_read};
use apenet::sim::trace::SharedSink;

fn main() {
    let cfg = plx_node(GpuArch::Fermi2050, GpuTxVersion::V2, 32 * 1024);
    let planes = Planes {
        pcie: Some(SharedSink::capturing()),
        ..Planes::off()
    };
    let (bw, artifacts) = flush_read_with(cfg, BufSide::Gpu, 256 * 1024, 2, planes);
    let records = artifacts.pcie;
    println!("# interposer capture: 256 KiB GPU read, GPU_P2P_TX v2, 32 KiB window\n");
    println!("{}", render_trace(&records, 24));
    let s = summarize_p2p_read(&records, bw.first_submit).expect("capture has read traffic");
    println!("setup (PUT -> first read request): {}", s.setup);
    println!("head latency at the slot:          {}", s.head_latency);
    println!("completion throughput:             {}", s.throughput);
    println!("read requests observed:            {}", s.read_requests);
    println!("\nmeasured read bandwidth: {}", bw.bandwidth);
}

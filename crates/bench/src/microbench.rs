//! In-tree microbenchmark harness (no Criterion, no crates.io).
//!
//! Each benchmark is a closure run `warmup` times untimed, then `iters`
//! times with per-iteration wall-clock sampling; the report carries the
//! median and minimum sample plus — for benches that drive a [`Sim`] —
//! the simulator event throughput derived from the process-global event
//! counter. Results go to stdout and, as hand-rolled JSON, to
//! `BENCH_microbench.json`.
//!
//! Run with `cargo run -p apenet-bench --release --bin microbench`.
//! `APENET_BENCH_ITERS` overrides the sample count.
//!
//! [`Sim`]: apenet_sim::engine::Sim

use apenet_sim::engine;
use apenet_sim::env::{env_var, EnvError};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One benchmark's summary statistics.
pub struct BenchResult {
    pub name: String,
    pub iters: u32,
    pub median_ns: f64,
    pub min_ns: f64,
    /// Simulator events retired per wall-clock second, when the bench
    /// stepped a `Sim` at all.
    pub events_per_sec: Option<f64>,
    /// The p99 *simulated* end-to-end latency observed by the bench, in
    /// picoseconds — deterministic (unlike the wall-clock fields), so
    /// the perf gate holds it to its one-sided higher-is-worse policy.
    pub p99_sim_ps: Option<u64>,
}

const ITERS_GRAMMAR: &str = "<samples> (a positive integer)";

/// Parse an `APENET_BENCH_ITERS` value: empty is the default 15.
fn parse_iters(v: &str) -> Result<u32, EnvError> {
    match v.trim() {
        "" => Ok(15),
        n => n
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| EnvError::new("APENET_BENCH_ITERS", v, ITERS_GRAMMAR)),
    }
}

/// Collects [`BenchResult`]s and renders the JSON report.
pub struct Harness {
    pub warmup: u32,
    pub iters: u32,
    pub results: Vec<BenchResult>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Harness {
    /// Build a harness from `APENET_BENCH_ITERS` (default 15 samples,
    /// 3 warmup rounds).
    ///
    /// # Panics
    ///
    /// On a malformed `APENET_BENCH_ITERS`, naming it and the grammar.
    pub fn from_env() -> Self {
        Harness {
            warmup: 3,
            iters: env_var("APENET_BENCH_ITERS", parse_iters),
            results: Vec::new(),
        }
    }

    /// Time `f`, recording median/min and — if the closure stepped any
    /// simulator — events per second over the timed window.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        for _ in 0..self.warmup {
            black_box(f());
        }
        let mut samples = Vec::with_capacity(self.iters as usize);
        let ev0 = engine::global_events();
        let wall = Instant::now();
        for _ in 0..self.iters {
            let t = Instant::now();
            black_box(f());
            samples.push(t.elapsed().as_nanos() as f64);
        }
        let total_s = wall.elapsed().as_secs_f64();
        let events = engine::global_events() - ev0;
        samples.sort_by(f64::total_cmp);
        let median = samples[samples.len() / 2];
        let min = samples[0];
        let events_per_sec = (events > 0 && total_s > 0.0).then(|| events as f64 / total_s);
        match events_per_sec {
            Some(eps) => println!(
                "{name:<28} median {:>12.0} ns  min {:>12.0} ns  {eps:>12.0} events/s",
                median, min
            ),
            None => println!(
                "{name:<28} median {:>12.0} ns  min {:>12.0} ns",
                median, min
            ),
        }
        self.results.push(BenchResult {
            name: name.to_string(),
            iters: self.iters,
            median_ns: median,
            min_ns: min,
            events_per_sec,
            p99_sim_ps: None,
        });
    }

    /// The recorded result for `name`, if that bench has run.
    pub fn result(&self, name: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Attach a deterministic p99 simulated latency to an already-run
    /// bench (the closure computes it; wall-clock sampling can't).
    pub fn annotate_p99(&mut self, name: &str, p99_sim_ps: u64) {
        let r = self
            .results
            .iter_mut()
            .find(|r| r.name == name)
            .expect("annotate_p99 targets a recorded bench");
        r.p99_sim_ps = Some(p99_sim_ps);
        println!("{name:<28} p99(sim) {p99_sim_ps:>14} ps");
    }

    /// Render the whole run as JSON (hand-rolled: the workspace has no
    /// serde and the schema is four fields deep).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"warmup\": {},", self.warmup);
        let _ = writeln!(s, "  \"iters\": {},", self.iters);
        s.push_str("  \"benches\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let eps = match r.events_per_sec {
                Some(v) => format!("{v:.1}"),
                None => "null".to_string(),
            };
            let p99 = match r.p99_sim_ps {
                Some(v) => format!(", \"p99_sim_ps\": {v}"),
                None => String::new(),
            };
            let _ = write!(
                s,
                "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"events_per_sec\": {}{}}}",
                r.name, r.median_ns, r.min_ns, eps, p99
            );
            s.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The benchmark suite: the hot paths the former Criterion benches
/// covered, plus a direct zero-copy vs memcpy fragmentation comparison.
pub fn run_all(h: &mut Harness) {
    engine_benches(h);
    fabric_benches(h);
    mem_benches(h);
    frag_benches(h);
    app_benches(h);
    tail_benches(h);
    overload_benches(h);
    slo_benches(h);
}

fn engine_benches(h: &mut Harness) {
    use apenet_sim::engine::{Actor, Ctx, Sim};
    use apenet_sim::rng::Xoshiro256ss;
    use apenet_sim::{Bandwidth, ByteFifo, SimDuration, SimTime};

    struct Relay {
        peer: usize,
    }
    impl Actor<u64> for Relay {
        fn on_event(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
            if ev > 0 {
                ctx.send(self.peer, SimDuration::from_ns(10), ev - 1);
            }
        }
    }
    h.bench("engine_dispatch_100k", || {
        let mut sim: Sim<u64> = Sim::new();
        let a = sim.add_actor(Box::new(Relay { peer: 1 }));
        let b = sim.add_actor(Box::new(Relay { peer: a }));
        sim.send(b, SimTime::ZERO, 100_000u64);
        sim.run();
        sim.events_processed()
    });
    // The calendar-depth counterpart of engine_dispatch_100k: the dense
    // bench spaces events 10 ns apart (every pop lands in the current or
    // next bucket), this one spaces them 1 µs – 1 ms apart under a
    // standing far-future backlog, so pops rotate whole calendar years
    // and the bucket-width adaptation has to chase the sparse horizon.
    // Pinning both shapes in the gate keeps a scheduler change honest on
    // dense *and* sparse calendars.
    struct WideRelay {
        peer: usize,
    }
    impl Actor<u64> for WideRelay {
        fn on_event(&mut self, ev: u64, ctx: &mut Ctx<'_, u64>) {
            if ev > 0 {
                let delay_ns = 1_000 + ev.wrapping_mul(7919) % 1_000_000;
                ctx.send(self.peer, SimDuration::from_ns(delay_ns), ev - 1);
            }
        }
    }
    struct Sink;
    impl Actor<u64> for Sink {
        fn on_event(&mut self, _ev: u64, _ctx: &mut Ctx<'_, u64>) {}
    }
    h.bench("engine_dispatch_wide_100k", || {
        let mut sim: Sim<u64> = Sim::new();
        let a = sim.add_actor(Box::new(WideRelay { peer: 1 }));
        let b = sim.add_actor(Box::new(WideRelay { peer: a }));
        let sink = sim.add_actor(Box::new(Sink));
        // A standing population spread over the whole ~50 s horizon keeps
        // far-future buckets occupied while the chain pops the near edge.
        for i in 0..1024u64 {
            sim.send(sink, SimTime::from_ps(i * 100_000_000_000), i);
        }
        sim.send(b, SimTime::ZERO, 100_000u64);
        sim.run();
        sim.events_processed()
    });
    h.bench("bandwidth_time_for_x64k", || {
        let bw = Bandwidth::from_mb_per_sec(1536);
        let mut acc = 0u64;
        for n in 0..65_536u64 {
            acc = acc.wrapping_add(bw.time_for(4096 + (n & 1023)).as_ps());
        }
        acc
    });
    h.bench("fifo_push_pop_64_x1k", || {
        let mut fifo: ByteFifo<u32> = ByteFifo::with_default_watermark(1 << 20);
        let mut acc = 0u64;
        for _ in 0..1024 {
            for i in 0..64u32 {
                fifo.push(4096, i).unwrap();
            }
            while let Some((bytes, _)) = fifo.pop() {
                acc += bytes;
            }
        }
        acc
    });
    h.bench("xoshiro_next_u64_x1m", || {
        let mut rng = Xoshiro256ss::seed_from(7);
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    });
}

fn fabric_benches(h: &mut Harness) {
    use apenet_cluster::harness::{two_node_bandwidth, BufSide, TwoNodeParams};
    use apenet_cluster::presets::cluster_i_default;
    use apenet_core::coord::TorusDims;
    use apenet_core::nios::{BufEntry, BufKind, BufList, GpuV2p, PageDesc};
    use apenet_pcie::fabric::plx_platform;
    use apenet_pcie::tlp::TlpKind;
    use apenet_sim::SimTime;

    h.bench("pcie_stream_64k_over_plx", || {
        let (mut fabric, gpu, nic, _) = plx_platform();
        fabric
            .send_stream(SimTime::ZERO, gpu, nic, TlpKind::MemWrite, 64 * 1024, 256)
            .arrive
    });
    // The PCIe cost of the datapath per 4 KiB fragment: the TX read
    // request to the GPU, the completion stream back to the card, and
    // the RX write stream into the destination GPU. One fabric persists
    // across samples, so hop plans are warm and occupancy carries over.
    let (mut fabric, gpu, nic, _) = plx_platform();
    let mut now = SimTime::ZERO;
    h.bench("pcie_fragment_4k_x1k", || {
        for _ in 0..1024 {
            let req = fabric.send_tlp(now, nic, gpu, TlpKind::MemRead, 0);
            let cpl = fabric.send_stream(req.arrive, gpu, nic, TlpKind::Completion, 4096, 256);
            fabric.send_stream(cpl.arrive, nic, gpu, TlpKind::MemWrite, 4096, 256);
            now = req.arrive;
        }
        now
    });
    h.bench("gpu_v2p_walk_x1k", || {
        let mut pt = GpuV2p::new();
        for p in 0..1024u64 {
            pt.insert(
                p * 65536,
                PageDesc {
                    phys: p * 65536,
                    token: 1,
                },
            );
        }
        let mut hits = 0u64;
        for p in 0..1024u64 {
            if pt.walk(p * 65536).0.is_some() {
                hits += 1;
            }
        }
        hits
    });
    h.bench("buflist_scan_64_entries", || {
        let mut bl = BufList::new();
        for i in 0..64u64 {
            bl.register(BufEntry {
                vaddr: i << 20,
                len: 1 << 20,
                kind: BufKind::Host,
                pid: 1,
            });
        }
        let mut cost = 0u64;
        for i in 0..64u64 {
            cost += bl.lookup(i << 20, 64).1.as_ps();
        }
        cost
    });
    h.bench("torus_route_4x2_all_pairs", || {
        let dims = TorusDims::new(4, 2, 1);
        let mut hops = 0u32;
        for a in 0..8 {
            for z in 0..8 {
                let (mut at, dst) = (dims.coord_of(a), dims.coord_of(z));
                while let Some(hop) = dims.next_hop(at, dst) {
                    at = dims.neighbor(at, hop);
                    hops += 1;
                }
            }
        }
        hops
    });
    h.bench("two_node_gg_64k_x4", || {
        two_node_bandwidth(
            cluster_i_default(),
            TwoNodeParams {
                src: BufSide::Gpu,
                dst: BufSide::Gpu,
                size: 64 * 1024,
                count: 4,
                staged: false,
            },
        )
        .bandwidth
    });
    h.bench("get_gg_4k_x16_batch8", || {
        use apenet_cluster::harness::{get_stream_bandwidth, GetStreamParams};
        use apenet_rdma::signal::SignalConfig;
        get_stream_bandwidth(
            cluster_i_default(),
            GetStreamParams {
                size: 4096,
                count: 16,
                window: 8,
                sig: SignalConfig::default(),
            },
        )
        .bandwidth
    });
}

/// The simulated memory's byte path: a staged `cudaMemcpy` round trip
/// between persistent memories, whose whole chunks move by reference,
/// and one small seeded chaos ring, whose delivered fragments land as
/// adopted chunks instead of fresh zero-filled pages. The annotated
/// scalar is the ring's last simulated delivery.
fn mem_benches(h: &mut Harness) {
    use apenet_cluster::harness::{chaos_run, ChaosParams};
    use apenet_cluster::presets::{cluster_i_chaos, cluster_i_dims};
    use apenet_gpu::mem::Memory;
    use apenet_gpu::uva::HOST_BASE;
    use apenet_gpu::{CudaDevice, GpuArch, GpuId, HOST_PAGE_SIZE};
    use apenet_sim::fault::FaultSpec;
    use apenet_sim::SimTime;

    const LEN: u64 = 1 << 20;
    let mut dev = CudaDevice::new(GpuId(0), GpuArch::Fermi2050);
    let mut host = Memory::new(HOST_BASE, 4 * LEN, HOST_PAGE_SIZE);
    let d = dev.malloc(LEN).expect("device alloc");
    let hbuf = host.alloc(LEN).expect("host alloc");
    let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
    dev.mem.write(d, &data).expect("in range");
    h.bench("staged_memcpy_1m", || {
        let down = dev
            .memcpy_d2h_sync(SimTime::ZERO, &mut host, hbuf, d, LEN)
            .expect("in range");
        dev.memcpy_h2d_sync(down.host_free, &host, d, hbuf, LEN)
            .expect("in range")
            .host_free
    });

    let mut last_ps = 0u64;
    h.bench("chaos_ring_4x2_16x64k", || {
        let r = chaos_run(
            cluster_i_dims(),
            cluster_i_chaos(1, FaultSpec::chaos(0.01)),
            ChaosParams {
                msgs_per_rank: 16,
                msg_len: 64 << 10,
                watchdog_reissue: true,
            },
        );
        assert!(r.payload_ok && r.delivered == r.expected);
        last_ps = r.last_delivery.since(SimTime::ZERO).as_ps();
        r.retransmits
    });
    h.annotate_p99("chaos_ring_4x2_16x64k", last_ps);
}

/// Fragment a 4 MB message the fabric's way (refcounted slice views)
/// and the old way (one heap copy per fragment); the ratio is the
/// zero-copy payoff in isolation. Then seal and verify packets over one
/// shared page: the per-frame integrity cost of a clean link.
fn frag_benches(h: &mut Harness) {
    use apenet_core::coord::Coord;
    use apenet_core::packet::{fragments, ApePacket, MsgId};
    use apenet_sim::bytes::PayloadSlice;

    let msg: Vec<u8> = (0..4 << 20).map(|i| (i % 251) as u8).collect();
    let whole = PayloadSlice::from_vec(msg.clone());
    h.bench("frag_4mb_zero_copy", || {
        let mut total = 0u64;
        for (off, len) in fragments(whole.len() as u64) {
            let frag = whole.narrow(off as usize, len as usize);
            // black_box defeats dead-fragment elimination so both
            // variants pay for a materialized, observable fragment.
            total = total.wrapping_add(black_box(&frag)[0] as u64 + frag.len() as u64);
        }
        total
    });
    h.bench("frag_4mb_memcpy", || {
        let mut total = 0u64;
        for (off, len) in fragments(msg.len() as u64) {
            let frag: Vec<u8> = msg[off as usize..off as usize + len as usize].to_vec();
            total = total.wrapping_add(black_box(&frag)[0] as u64 + frag.len() as u64);
        }
        total
    });
    if let (Some(zc), Some(cp)) = (h.result("frag_4mb_zero_copy"), h.result("frag_4mb_memcpy")) {
        println!(
            "frag_4mb: zero-copy is x{:.1} faster than per-fragment memcpy (median)",
            cp.median_ns / zc.median_ns.max(1.0)
        );
    }
    let page = whole.narrow(0, 4096);
    h.bench("frame_seal_verify_4k_x1k", || {
        let mut verified = 0u32;
        for seq in 0..1024 {
            let p = ApePacket::new(
                Coord::new(1, 0, 0),
                Coord::new(0, 0, 0),
                MsgId { src_rank: 0, seq },
                0x1000 + seq * 4096,
                4 << 20,
                page.clone(),
            );
            verified += u32::from(black_box(&p).verify());
        }
        assert_eq!(verified, 1024);
        verified
    });
}

fn app_benches(h: &mut Harness) {
    use apenet_apps::bfs::csr::Csr;
    use apenet_apps::bfs::dist::{Partition, Traversal};
    use apenet_apps::bfs::{self, rmat, run_ib, seq, BfsConfig};
    use apenet_apps::hsg::lattice::Slab;
    use apenet_ib::IbConfig;

    let l = 32;
    h.bench("hsg_overrelax_sweep_32cubed", move || {
        let mut lat = Slab::full(l, 1);
        lat.wrap_ghosts();
        lat.update_color(0, 1, l);
        lat.wrap_ghosts();
        lat.update_color(1, 1, l);
        lat.wrap_ghosts();
        lat.owned_energy()
    });
    let edges = rmat::generate(14, 16, 3);
    let graph = Csr::build(1 << 14, &edges);
    h.bench("bfs_seq_scale14", move || seq::bfs(&graph, 1).level[100]);
    // The two halves of a BFS graph build, at the benchmark's scale.
    h.bench("rmat_scale16", || {
        rmat::generate_with(16, 16, 500, false).len()
    });
    let edges = rmat::generate_with(16, 16, 500, false);
    h.bench("csr_build_scale16", move || {
        Csr::build(1 << 16, &edges).undirected_edges()
    });
    // The IB baseline at the benchmark's scale: a traversal build, and
    // the timing replay over a cached one.
    let cfg = BfsConfig {
        scale: 16,
        ..BfsConfig::paper(8)
    };
    let g = bfs::graph(&cfg);
    let part = Partition {
        n: g.n(),
        np: cfg.np,
    };
    h.bench("bfs_traversal_scale16_np8", || {
        Traversal::build(&g, part, cfg.root).traversed_edges
    });
    h.bench("bfs_ib_scale16_np8", || {
        run_ib(&cfg, IbConfig::cluster_ii()).wall
    });
}

/// The tail-forensics plane's own hot paths: raw digest ingest, and the
/// whole trace→ledger→attribution fold riding a small clean run. The
/// fold bench also surfaces its p99 *simulated* end-to-end latency —
/// a deterministic quantity the gate pins one-sided, so a scheduling or
/// card-model regression that only hurts the latency tail fails the
/// gate even when the means stay flat.
fn tail_benches(h: &mut Harness) {
    use apenet_cluster::harness::{chaos_run_with, ChaosParams};
    use apenet_cluster::presets::cluster_i_default;
    use apenet_cluster::Planes;
    use apenet_core::coord::TorusDims;
    use apenet_obs::digest::PercentileDigest;
    use apenet_obs::latency::{metrics as tail_metrics, TailConfig};

    h.bench("digest_record_1m", || {
        let mut d = PercentileDigest::new();
        for i in 0..1_000_000u64 {
            // A splitmix-style scramble: wide value spread, no allocs.
            d.record(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40);
        }
        d.quantile(0.999).unwrap_or(0)
    });
    let mut p99 = 0u64;
    h.bench("tail_plane_chaos_2x1", || {
        let planes = Planes {
            tail: Some(TailConfig::default()),
            ..Planes::off()
        };
        let (_, artifacts) = chaos_run_with(
            TorusDims::new(2, 1, 1),
            cluster_i_default(),
            ChaosParams {
                msgs_per_rank: 8,
                msg_len: 16 * 1024,
                watchdog_reissue: false,
            },
            planes,
        );
        p99 = artifacts
            .tail
            .expect("tail plane on")
            .registry
            .digest(tail_metrics::TOTAL)
            .quantile(0.99)
            .unwrap_or(0);
        p99
    });
    h.annotate_p99("tail_plane_chaos_2x1", p99);
}

/// The overload plane's full loop under fire: an 8→1 incast with ECN
/// marking, AIMD windows and admission control all active, then the
/// unprotected collapse. Wall time tracks the plane's host-side cost
/// (pacer bookkeeping, echo routing, backed-off wakes); the annotated
/// scalar is the storm's *simulated* completion time — deterministic,
/// and one-sided in the gate, so a congestion-control regression that
/// merely slows the drain (without breaking any property test) still
/// fails CI.
fn overload_benches(h: &mut Harness) {
    use apenet_cluster::harness::{incast_run, IncastParams, IncastVerb};
    use apenet_cluster::presets::{cluster_i_incast, incast_dims};
    use apenet_rdma::pacing::PacerConfig;

    let mut drain_ps = 0u64;
    h.bench("incast_8to1_cwnd", || {
        let r = incast_run(
            incast_dims(),
            cluster_i_incast(true),
            IncastParams {
                senders: 8,
                msgs_per_sender: 8,
                msg_len: 16 * 1024,
                offered: 4,
                verb: IncastVerb::Put,
                pacer: Some(PacerConfig::default()),
            },
        );
        assert_eq!(r.delivered, r.expected);
        drain_ps = r.last_delivery.since(apenet_sim::SimTime::ZERO).as_ps();
        r.cwnd_decreases
    });
    h.annotate_p99("incast_8to1_cwnd", drain_ps);

    // The same storm with the plane off: queueing crosses the 1 ms
    // watchdog, re-issues pile GPU jobs up behind every sender's
    // GPU_P2P_TX engine and goodput collapses. Wall time tracks the
    // card's per-event cost under that backlog (each TX drain walks only
    // the jobs that can issue reads); the annotated scalar is the
    // storm's simulated end time.
    let mut end_ps = 0u64;
    h.bench("incast_collapse_8to1", || {
        let r = incast_run(
            incast_dims(),
            cluster_i_incast(false),
            IncastParams {
                senders: 8,
                msgs_per_sender: 64,
                msg_len: 32 * 1024,
                offered: 4,
                verb: IncastVerb::Put,
                pacer: None,
            },
        );
        assert_eq!(r.delivered, r.expected);
        assert!(r.watchdog_reissues > 0, "the re-issue backlog formed");
        end_ps = r.end.since(apenet_sim::SimTime::ZERO).as_ps();
        r.watchdog_reissues
    });
    h.annotate_p99("incast_collapse_8to1", end_ps);
}

/// The SLO plane riding a paced 8→1 storm end to end: the online
/// ledger fold, tumbling-window digests, budget accounting, and the
/// alert pass. Wall time tracks the plane's whole cost over the run; the
/// annotated scalar is the *worst per-window p99* of the storm —
/// deterministic, and one-sided in the gate, so a pacing or scheduling
/// regression that fattens even one window's tail fails CI before any
/// run-level average moves. `ledger_fold_incast_8to1` times the fold
/// alone over one captured storm trace.
fn slo_benches(h: &mut Harness) {
    use apenet_cluster::harness::{incast_run_slo, incast_run_with, IncastParams, IncastVerb};
    use apenet_cluster::presets::{cluster_i_incast, incast_dims};
    use apenet_cluster::Planes;
    use apenet_obs::latency::collect_ledgers;
    use apenet_obs::slo::SloConfig;
    use apenet_rdma::pacing::PacerConfig;
    use apenet_sim::trace::SharedSink;
    use apenet_sim::SimDuration;

    let storm = || IncastParams {
        senders: 8,
        msgs_per_sender: 8,
        msg_len: 16 * 1024,
        offered: 4,
        verb: IncastVerb::Put,
        pacer: Some(PacerConfig::default()),
    };
    let mut worst_window_p99 = 0u64;
    h.bench("slo_window_incast_8to1", || {
        let (r, mut slo) = incast_run_slo(
            incast_dims(),
            cluster_i_incast(true),
            storm(),
            SloConfig {
                window: SimDuration::from_us(500),
                ..SloConfig::default()
            },
        );
        assert_eq!(r.delivered, r.expected);
        worst_window_p99 = slo
            .windows
            .iter_mut()
            .map(|w| w.p99_ps())
            .max()
            .unwrap_or(0);
        slo.alerts.len()
    });
    h.annotate_p99("slo_window_incast_8to1", worst_window_p99);

    let planes = Planes {
        trace: Some(SharedSink::capturing()),
        ..Planes::off()
    };
    let trace = incast_run_with(incast_dims(), cluster_i_incast(true), storm(), planes)
        .1
        .trace;
    h.bench("ledger_fold_incast_8to1", || collect_ledgers(&trace).len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iters_grammar_is_strict() {
        assert_eq!(parse_iters(""), Ok(15));
        assert_eq!(parse_iters(" 5 "), Ok(5));
        let e = parse_iters("0").unwrap_err();
        assert_eq!((e.var, e.value.as_str()), ("APENET_BENCH_ITERS", "0"));
        assert!(e.to_string().contains(ITERS_GRAMMAR));
        for bad in ["-3", "five", "1e3", "5x"] {
            assert!(parse_iters(bad).is_err(), "{bad}");
        }
    }
}

//! # apenet-cluster — assembling nodes into the paper's test platforms
//!
//! This crate wires the hardware models into runnable simulations:
//!
//! * [`node`] — one cluster node: host memory, PCIe fabric, GPUs, the
//!   APEnet+ card, the RDMA endpoint;
//! * [`msg`] — the closed event type of a cluster simulation and the
//!   actors adapting cards and hosts to the engine;
//! * [`cluster`] — the torus-wired cluster builder;
//! * [`planes`] — the observation planes (span trace, occupancy sampler,
//!   profiler, tail forensics, SLO engine, PCIe bus analyzer): one
//!   [`Planes`] value in, one [`RunArtifacts`] value out;
//! * [`harness`] — the benchmark programs of §V coded against the RDMA
//!   API: loop-back, uni-directional bandwidth, ping-pong latency, host
//!   overhead;
//! * [`presets`] — the paper's platforms (Cluster I, Cluster II, the PLX
//!   single-node rig) and the calibration constants in one place;
//! * [`sampling`] — the deterministic occupancy sampler: periodic
//!   read-only probes driven between calendar events, recording queue
//!   depths, link utilization and ring fill without perturbing a single
//!   schedule.

pub mod cluster;
pub mod harness;
pub mod msg;
pub mod node;
pub mod planes;
pub mod presets;
pub mod sampling;

pub use cluster::{Cluster, ClusterBuilder};
pub use msg::{ClusterActor, HostIn, HostProgram, Msg, NodeCtx};
pub use node::NodeConfig;
pub use planes::{Planes, RunArtifacts};
pub use sampling::OccupancySampler;

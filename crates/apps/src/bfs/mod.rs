//! GPU-accelerated BFS traversal on distributed systems (paper §V.E).

pub mod cost;
pub mod csr;
pub mod dist;
pub mod rmat;
pub mod run;
pub mod seq;

pub use cost::BfsCost;
pub use csr::Csr;
pub use run::{graph, run_apenet, run_ib, traversal, BfsConfig, BfsResult};

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

/// Work units (R-MAT draws, CSR entries) below which a graph-build pass
/// runs on the calling thread alone: a fraction of a millisecond, where
/// starting threads would cost more than they save.
const PARALLEL_MIN_WORK: usize = 1 << 18;

/// Worker threads for a graph-build pass of `work` units: the host's
/// available parallelism, or one below [`PARALLEL_MIN_WORK`]. The graph
/// never depends on it.
pub(crate) fn build_workers(work: usize) -> usize {
    if work < PARALLEL_MIN_WORK {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Run `jobs` on scoped threads, the last on the calling thread.
pub(crate) fn run_jobs<F: FnOnce() + Send>(jobs: impl IntoIterator<Item = F>) {
    std::thread::scope(|scope| {
        let mut jobs = jobs.into_iter().peekable();
        while let Some(job) = jobs.next() {
            if jobs.peek().is_some() {
                scope.spawn(job);
            } else {
                job();
            }
        }
    });
}

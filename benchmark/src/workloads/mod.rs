//! The four workloads. Each is a fixed list of operations ("ops"), every
//! op one call into a public harness or application entry point; one
//! pass over the list is a round.

pub mod bfs;
pub mod chaos;
pub mod incast;
pub mod stream;

/// One printed measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted name, `<layer>.<what>[.<detail>]`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `MB`, `count`, …).
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one op produced, as far as the benchmark checks it.
#[derive(Debug)]
pub struct Outcome {
    /// FNV-1a over the op's simulated outputs.
    pub digest: u64,
    /// Why the output is wrong, if it is.
    pub error: Option<String>,
}

/// A benchmark workload.
pub trait Workload {
    /// Op parameters.
    type Op;

    /// The ops of round `round` for workload seed `seed`. Every round
    /// has the same number of ops with the same names.
    fn ops(&self, seed: u64, round: u32) -> Vec<Self::Op>;

    /// A short name for `op`, used in per-op metric names.
    fn op_name(&self, op: &Self::Op) -> String;

    /// The warm-up op run during set-up.
    fn warm_up(&self) -> Outcome;

    /// Run `op` and check its output.
    fn run(&mut self, op: &Self::Op) -> Outcome;

    /// Checks that need the whole round; run after its ops, untimed.
    fn end_round(&mut self, _seed: u64, _round: u32) -> Result<(), String> {
        Ok(())
    }

    /// Whether every round repeats round 0's inputs exactly, so each
    /// round's digest must equal round 0's.
    fn rounds_repeat(&self) -> bool {
        true
    }

    /// The traced round: round 0's ops again, timed layer by layer from
    /// the outside. Returns the workload's own layer metrics.
    fn trace(&mut self, seed: u64) -> Vec<Metric>;
}

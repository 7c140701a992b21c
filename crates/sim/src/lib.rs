//! # apenet-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the APEnet+ reproduction: a small,
//! allocation-conscious discrete-event simulation (DES) kernel with
//!
//! * integer **picosecond** time ([`SimTime`], [`SimDuration`]) — every
//!   timing computation in the workspace is exact integer math, so a given
//!   seed reproduces bit-identical event streams on every platform;
//! * a generic actor **engine** ([`Sim`]) over a pooled **calendar
//!   queue** ([`calendar::CalendarQueue`]) with stable FIFO tie-breaking,
//!   arena-recycled event envelopes, and an [`engine::ActorSlab`] that
//!   dispatches either boxed actors (the default) or a concrete enum
//!   (static dispatch on the hot path);
//! * exact **bandwidth** arithmetic ([`Bandwidth`]);
//! * an in-tree **RNG** ([`rng::Xoshiro256ss`], [`rng::SplitMix64`]) so
//!   deterministic streams do not depend on external crate versions;
//! * online **statistics** and plot-series helpers used by the benchmark
//!   harness ([`stats`]);
//! * a byte-accounted bounded **FIFO** with almost-full watermarks
//!   ([`fifo::ByteFifo`]) — the building block of the APEnet+ flow control;
//! * lightweight **tracing** ([`trace`]) used by the PCIe bus-analyzer model;
//! * one fast **id hasher** ([`idhash::IdMap`], [`idhash::IdSet`]) for
//!   every map keyed by simulator ids;
//! * a slice-by-8 **CRC-32** ([`crc::Crc32`]) that a sealed
//!   [`bytes::PayloadSlice`] runs only once written after its seal, so a
//!   clean packet's checks hash only its header.
//! * strict **env** grammars ([`env::EnvError`], [`env::env_var`]) shared
//!   by every `APENET_*` reader in the workspace.
//!
//! The hardware crates (`apenet-pcie`, `apenet-gpu`, `apenet-core`, …) are
//! written "sans-engine": they expose state machines implementing
//! [`Device`], and `apenet-cluster` wires those into a [`Sim`] instance.
//!
//! ```
//! use apenet_sim::engine::{Actor, Ctx, Sim};
//! use apenet_sim::{SimDuration, SimTime};
//!
//! struct Echo;
//! impl Actor<u32> for Echo {
//!     fn on_event(&mut self, ev: u32, ctx: &mut Ctx<'_, u32>) {
//!         if ev > 0 {
//!             ctx.send_self(SimDuration::from_ns(100), ev - 1);
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new();
//! let a = sim.add_actor(Box::new(Echo));
//! sim.send(a, SimTime::ZERO, 5);
//! let end = sim.run();
//! assert_eq!(end, SimTime::ZERO + SimDuration::from_ns(500));
//! assert_eq!(sim.events_processed(), 6);
//! ```

pub mod bytes;
pub mod calendar;
pub mod check;
pub mod crc;
pub mod engine;
pub mod env;
pub mod fault;
pub mod fifo;
pub mod idhash;
pub mod profile;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Actor, ActorId, Ctx, Sim};
pub use fifo::ByteFifo;
pub use rate::Bandwidth;
pub use time::{SimDuration, SimTime};

/// A sans-engine hardware component: consumes one input event and emits
/// zero or more delayed outputs into an [`Outbox`].
///
/// Components written against this trait know nothing about the simulation
/// engine or about who their peers are; the cluster assembly layer routes
/// each output to the right actor. This keeps every hardware model unit
/// testable with nothing but a clock value and an outbox.
pub trait Device {
    /// Input event type.
    type In;
    /// Output event type.
    type Out;
    /// Handle `ev` at simulated time `now`, pushing any produced events
    /// (with their relative delays) into `out`.
    fn handle(&mut self, now: SimTime, ev: Self::In, out: &mut Outbox<Self::Out>);
}

/// Collector for the delayed outputs of a [`Device`] step.
#[derive(Debug)]
pub struct Outbox<T> {
    items: Vec<(SimDuration, T)>,
}

impl<T> Default for Outbox<T> {
    fn default() -> Self {
        Self { items: Vec::new() }
    }
}

impl<T> Outbox<T> {
    /// Create an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit `ev` after `delay`.
    pub fn push(&mut self, delay: SimDuration, ev: T) {
        self.items.push((delay, ev));
    }

    /// Number of pending outputs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no outputs are pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drain all collected outputs.
    pub fn drain(&mut self) -> impl Iterator<Item = (SimDuration, T)> + '_ {
        self.items.drain(..)
    }
}

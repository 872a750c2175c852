//! # first-desim — discrete-event simulation kernel
//!
//! The deterministic virtual-time substrate every other FIRST crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond virtual time.
//! * [`EventQueue`] — a `(time, sequence)`-ordered future-event list backed
//!   by the hierarchical [`TimingWheel`] (O(1) push, amortized-O(1) pop).
//! * [`SimProcess`] — the cooperative component protocol used to compose
//!   independently written substrates into one simulation.
//! * [`SimRng`] — seeded RNG with the distributions the workload and
//!   performance models need (exponential, log-normal, Zipf, weighted choice).
//! * [`OnlineStats`] / [`Histogram`] / [`CounterSet`] — the measurement
//!   primitives behind every table and figure reproduction.
//! * [`Interner`] / [`SymbolId`] — deterministic name → dense-id mapping so
//!   per-request state is keyed by `u32` ids instead of heap `String`s.

#![warn(missing_docs)]

pub mod intern;
pub mod process;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wheel;

pub use intern::{fnv1a_64, IdHashBuilder, Interner, InternerSnapshot, SymbolId};
pub use process::SimProcess;
pub use queue::{DrainDue, EventQueue, ScheduledEvent};
pub use rng::SimRng;
pub use stats::{CounterSet, Histogram, OnlineStats, SimMeter, SimRunStats};
pub use time::{SimDuration, SimTime};
pub use wheel::TimingWheel;

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::process::SimProcess;
    pub use crate::queue::EventQueue;
    pub use crate::rng::SimRng;
    pub use crate::stats::{CounterSet, Histogram, OnlineStats, SimMeter, SimRunStats};
    pub use crate::time::{SimDuration, SimTime};
}

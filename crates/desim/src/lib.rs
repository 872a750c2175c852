//! # first-desim — discrete-event simulation kernel
//!
//! The deterministic virtual-time substrate every other FIRST crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-microsecond virtual time.
//! * [`TimingWheel`] — the `(time, sequence)`-ordered future-event list, a
//!   hierarchical timing wheel (O(1) push, amortized-O(1) pop).
//! * [`SimProcess`] — the cooperative component protocol used to compose
//!   independently written substrates into one simulation.
//! * [`SimRng`] — seeded RNG with the distributions the workload and
//!   performance models need (exponential, log-normal, Zipf, weighted choice).
//! * [`Histogram`] — the measurement primitive behind every table and
//!   figure reproduction.
//! * [`Interner`] / [`SymbolId`] — deterministic name → dense-id mapping so
//!   per-request state is keyed by `u32` ids instead of heap `String`s.
//! * [`IdWindow`] — a dense-id map holding only the span of live ids, so
//!   per-task state is freed when the task retires.

#![warn(missing_docs)]

pub mod intern;
pub mod process;
pub mod rng;
pub mod stats;
pub mod time;
pub mod wheel;
pub mod window;

pub use intern::{fnv1a_64, IdHashBuilder, Interner, SymbolId};
pub use process::SimProcess;
pub use rng::SimRng;
pub use stats::{Histogram, SimMeter, SimRunStats};
pub use time::{SimDuration, SimTime};
pub use wheel::{ScheduledEvent, TimingWheel};
pub use window::IdWindow;

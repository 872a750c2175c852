//! The `SimProcess` trait: the time-explicit protocol every substrate
//! speaks.
//!
//! Each substrate (scheduler, serving engine, compute fabric, gateway) exposes
//! "tell me the next instant at which you have work" and "advance yourself to
//! this instant". `first-core` runs every open-loop replay through one
//! next-event loop over a `SimProcess` — a scenario run's front tier, a
//! sharded fleet, a direct vLLM server or the cloud API — which steps to
//! the earlier of the next arrival and the process's next event. A process
//! built from components finds the earliest instant across them and
//! advances the due ones, which composes independently written components
//! into one deterministic discrete-event simulation without shared-world
//! callbacks.

use crate::time::SimTime;

/// A component that participates in the discrete-event simulation.
pub trait SimProcess {
    /// The earliest virtual time at which this process has internal work to
    /// do, or `None` if it is idle until new external input arrives.
    fn next_event_time(&self) -> Option<SimTime>;

    /// Advance internal state to `now`. Implementations must be idempotent for
    /// repeated calls with the same `now` and must never be called with a
    /// `now` earlier than a previously seen value.
    fn advance(&mut self, now: SimTime);
}

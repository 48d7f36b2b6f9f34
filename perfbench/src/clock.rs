//! The benchmark's only wall-clock boundary.
//!
//! Every timing in the benchmark is read through [`Clock::now_ms`], and
//! every clock reading becomes a number in [`elapsed_ms`], a
//! `taint-sanitize nondet` point. [`Clock::start`] is one too: the
//! handle it returns holds an `Instant` but is opaque, so passing it
//! around carries no clock value. The repository's determinism-taint
//! lint checks that raw clock readings never reach the generated inputs
//! or the digests (both are `taint-sink nondet`). A measured millisecond
//! value is the benchmark's payload: it is reported and never fed back
//! into the simulation.

// xtask-allow: time-source -- the benchmark's single wall-clock boundary
use std::time::Instant; // xtask-allow: wall-clock -- read only through Clock::now_ms

/// A monotonic clock anchored when the run starts.
pub struct Clock {
    origin: Instant, // xtask-allow: wall-clock -- read only through Clock::now_ms
}

impl Clock {
    /// Starts the clock.
    // xtask: taint-sanitize nondet -- the clock is an opaque anchor; its only readings leave through Clock::now_ms and the elapsed_ms sanitize point
    pub fn start() -> Clock {
        Clock {
            origin: Instant::now(), // xtask-allow: wall-clock -- read only through Clock::now_ms
        }
    }

    /// Milliseconds since the clock started.
    pub fn now_ms(&self) -> f64 {
        elapsed_ms(self.origin, Instant::now()) // xtask-allow: wall-clock -- read only through Clock::now_ms
    }
}

/// Milliseconds from `origin` to `now`.
// xtask: taint-sanitize nondet -- measured wall time is the benchmark's payload; it is reported, never fed back into the simulation, the inputs or a digest
// xtask-allow: wall-clock -- the sanitize point itself
fn elapsed_ms(origin: Instant, now: Instant) -> f64 {
    now.duration_since(origin).as_secs_f64() * 1000.0
}

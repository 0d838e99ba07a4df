//! Injectable time sources for measurement harnesses.
//!
//! Anything that *measures* durations — such as the `saber-timing`
//! leakage detector — reads time through
//! the [`Clock`] trait instead of calling [`Instant`] directly, so tests
//! can substitute a virtual clock and assert the downstream statistics
//! machinery deterministically. [`MonotonicClock`] is the production
//! source: nanoseconds since the trace epoch, via [`crate::now_ns`].
//!
//! [`Instant`]: std::time::Instant

/// A monotonic nanosecond time source a measurement loop can own.
///
/// `now_ns` takes `&mut self` so fake clocks can advance internal state
/// (a cursor into a script, a virtual time accumulator) without interior
/// mutability.
pub trait Clock {
    /// Current time in nanoseconds. Monotonic non-decreasing for the
    /// production implementation; scripted clocks return whatever the
    /// test staged.
    fn now_ns(&mut self) -> u64;
}

/// The production clock: nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_ns(&mut self) -> u64 {
        crate::now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_non_decreasing() {
        let mut clock = MonotonicClock;
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }
}

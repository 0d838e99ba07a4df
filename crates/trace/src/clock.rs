//! Injectable time sources for measurement harnesses.
//!
//! Anything that *measures* durations — such as the `saber-timing`
//! leakage detector — reads time through
//! the [`Clock`] trait instead of calling [`Instant`] directly, so tests
//! can script the timestamps and assert the downstream statistics
//! machinery deterministically:
//!
//! - [`MonotonicClock`] is the production source: nanoseconds since the
//!   trace epoch, via [`crate::now_ns`].
//! - [`FakeClock`] replays a scripted sequence of absolute timestamps,
//!   one per [`Clock::now_ns`] call; exhausting the script repeats the
//!   last value (time stands still rather than panicking mid-assert).
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

/// A deterministic clock that replays a scripted timestamp sequence.
///
/// # Examples
///
/// ```
/// use saber_trace::clock::{Clock, FakeClock};
///
/// let mut clock = FakeClock::scripted(vec![0, 100, 250]);
/// assert_eq!(clock.now_ns(), 0);
/// assert_eq!(clock.now_ns(), 100);
/// assert_eq!(clock.now_ns(), 250);
/// assert_eq!(clock.now_ns(), 250); // exhausted: repeats the last value
/// assert_eq!(clock.calls(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FakeClock {
    script: Vec<u64>,
    calls: usize,
}

impl FakeClock {
    /// A clock that returns `script[i]` on the `i`-th call and repeats
    /// the final entry once the script runs out.
    ///
    /// # Panics
    ///
    /// Panics if `script` is empty — a clock with no time to tell is a
    /// test bug.
    #[must_use]
    pub fn scripted(script: Vec<u64>) -> Self {
        assert!(!script.is_empty(), "FakeClock needs at least one timestamp");
        Self { script, calls: 0 }
    }

    /// How many times `now_ns` has been called.
    #[must_use]
    pub fn calls(&self) -> usize {
        self.calls
    }

    /// True once every scripted timestamp has been consumed at least
    /// once — lets tests assert their script length matched the code
    /// under test exactly.
    #[must_use]
    pub fn exhausted(&self) -> bool {
        self.calls >= self.script.len()
    }
}

impl Clock for FakeClock {
    fn now_ns(&mut self) -> u64 {
        let idx = self.calls.min(self.script.len() - 1);
        self.calls += 1;
        self.script[idx]
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

    #[test]
    fn fake_clock_replays_script_then_holds() {
        let mut clock = FakeClock::scripted(vec![5, 7]);
        assert!(!clock.exhausted());
        assert_eq!(clock.now_ns(), 5);
        assert_eq!(clock.now_ns(), 7);
        assert!(clock.exhausted());
        assert_eq!(clock.now_ns(), 7);
        assert_eq!(clock.calls(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one timestamp")]
    fn empty_script_panics() {
        let _ = FakeClock::scripted(Vec::new());
    }

    #[test]
    fn clock_is_object_safe() {
        let mut clock = FakeClock::scripted(vec![1]);
        let dynamic: &mut dyn Clock = &mut clock;
        assert_eq!(dynamic.now_ns(), 1);
    }
}

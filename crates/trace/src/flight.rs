//! Crash-safe flight recorder: a fixed-capacity, thread-local ring of
//! the most recent probes, cheap enough to leave on for a process's
//! whole lifetime.
//!
//! The capture session in [`crate::span`](mod@crate::span) is exclusive
//! and unbounded — built for tests and benches that own the whole
//! window. Production wants the opposite trade: *never* own the window,
//! *never* grow, and still have the last few hundred events on hand
//! when a worker dies.
//! The flight recorder is that layer:
//!
//! - **Fixed capacity** ([`CAPACITY`] entries per thread, `Copy`
//!   payloads, `&'static str` identification): once warm it allocates
//!   nothing and overwrites oldest-first.
//! - **Thread-local**: no locks on the record path, and a panic dump
//!   reads the panicking thread's own recent history.
//! - **Gated like tracing**: when disabled it adds one relaxed atomic
//!   load to a probe, after the session flag's (the crate's
//!   `disabled_path` test holds the whole probe under a fixed 10 ns
//!   mean).
//!
//! Dumps happen on panic (via the hook `saber-service` installs), on a
//! contained worker fault, or on demand; when the `SABER_FLIGHT_DUMP`
//! environment variable names a file, every dump is also appended there.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Entries retained per thread. 256 × ~48 bytes ≈ 12 KiB per thread:
/// small enough to be always-on, deep enough to hold the last few jobs'
/// worth of spans and counters.
pub const CAPACITY: usize = 256;

/// Whether flight recording is on (process-wide; rings are per-thread).
static FLIGHT_ENABLED: AtomicBool = AtomicBool::new(false);

/// Total entries ever recorded, across all threads (overflow telemetry).
static RECORDED: AtomicU64 = AtomicU64::new(0);

/// Number of dumps emitted since process start.
static DUMPS: AtomicU64 = AtomicU64::new(0);

/// The payload of one flight entry (mirrors [`crate::EventKind`] minus
/// the start timestamp, which [`record`] takes as `ts_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A completed span of `dur_ns` nanoseconds ending at `ts_ns`.
    Span {
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A zero-duration marker.
    Instant,
    /// A counter delta.
    Counter {
        /// The recorded delta.
        value: i64,
    },
}

/// One retained probe.
#[derive(Debug, Clone, Copy)]
struct FlightEntry {
    /// Nanoseconds since the trace epoch when the entry was recorded.
    ts_ns: u64,
    /// Subsystem label.
    category: &'static str,
    /// Event name.
    name: &'static str,
    /// The payload.
    kind: FlightKind,
}

struct Ring {
    entries: Vec<FlightEntry>,
    /// Index of the next slot to overwrite once the ring is full.
    next: usize,
    /// Entries ever recorded on this thread (`- entries.len()` = dropped).
    recorded: u64,
}

impl Ring {
    const fn new() -> Self {
        Ring {
            entries: Vec::new(),
            next: 0,
            recorded: 0,
        }
    }

    fn push(&mut self, entry: FlightEntry) {
        self.recorded += 1;
        if self.entries.len() < CAPACITY {
            self.entries.push(entry);
        } else {
            self.entries[self.next] = entry;
            self.next = (self.next + 1) % CAPACITY;
        }
    }

    /// Retained entries, oldest first.
    fn ordered(&self) -> Vec<FlightEntry> {
        let mut out = Vec::with_capacity(self.entries.len());
        out.extend_from_slice(&self.entries[self.next..]);
        out.extend_from_slice(&self.entries[..self.next]);
        out
    }
}

thread_local! {
    static RING: RefCell<Ring> = const { RefCell::new(Ring::new()) };
}

/// True while the flight recorder is on. The single branch every probe
/// takes when no capture session is active.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    FLIGHT_ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on or off process-wide. Rings keep their contents
/// across an off/on cycle; use [`clear_current_thread`] to reset one.
pub fn set_enabled(on: bool) {
    FLIGHT_ENABLED.store(on, Ordering::SeqCst);
}

/// Records one entry into the calling thread's ring. Callers must check
/// [`enabled`] first — this function records unconditionally.
///
/// Re-entrancy-safe: if the ring is already borrowed on this thread
/// (a probe fired from inside a dump), the entry is dropped rather than
/// panicking.
pub fn record(category: &'static str, name: &'static str, ts_ns: u64, kind: FlightKind) {
    RECORDED.fetch_add(1, Ordering::Relaxed);
    let _ = RING.try_with(|ring| {
        if let Ok(mut ring) = ring.try_borrow_mut() {
            ring.push(FlightEntry {
                ts_ns,
                category,
                name,
                kind,
            });
        }
    });
}

/// Empties the calling thread's ring (tests and benches).
pub fn clear_current_thread() {
    let _ = RING.try_with(|ring| {
        if let Ok(mut ring) = ring.try_borrow_mut() {
            ring.entries.clear();
            ring.next = 0;
            ring.recorded = 0;
        }
    });
}

/// Entries ever recorded process-wide (including overwritten ones).
#[must_use]
pub fn recorded_total() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

/// Dumps emitted since process start (any thread, any trigger).
#[must_use]
pub fn dump_count() -> u64 {
    DUMPS.load(Ordering::Relaxed)
}

/// Formats the calling thread's ring as a plain-text dump, writes it to
/// stderr, appends it to the file named by the `SABER_FLIGHT_DUMP`
/// environment variable (if set), and returns it.
///
/// Safe to call from a panic hook: the ring access never panics, and a
/// failed file write is ignored (stderr already has the dump).
pub fn dump_current_thread(reason: &str) -> String {
    let (entries, recorded) = RING
        .try_with(|ring| {
            ring.try_borrow()
                .map(|r| (r.ordered(), r.recorded))
                .unwrap_or_default()
        })
        .unwrap_or_default();
    DUMPS.fetch_add(1, Ordering::SeqCst);

    let dropped = recorded.saturating_sub(entries.len() as u64);
    let mut out = format!(
        "=== saber flight dump: {reason} (retained {}, dropped {dropped}) ===\n",
        entries.len()
    );
    for e in &entries {
        match e.kind {
            FlightKind::Span { dur_ns } => {
                out.push_str(&format!(
                    "  span    {:>12} ns  {}/{} dur={} ns\n",
                    e.ts_ns, e.category, e.name, dur_ns
                ));
            }
            FlightKind::Instant => {
                out.push_str(&format!(
                    "  instant {:>12} ns  {}/{}\n",
                    e.ts_ns, e.category, e.name
                ));
            }
            FlightKind::Counter { value } => {
                out.push_str(&format!(
                    "  counter {:>12} ns  {}/{} value={value}\n",
                    e.ts_ns, e.category, e.name
                ));
            }
        }
    }
    out.push_str("=== end flight dump ===\n");

    eprint!("{out}");
    if let Ok(path) = std::env::var("SABER_FLIGHT_DUMP") {
        if !path.is_empty() {
            use std::io::Write as _;
            let _ = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .and_then(|mut f| f.write_all(out.as_bytes()));
        }
    }
    out
}

/// Dumps only if the `SABER_FLIGHT_DUMP` trigger is armed (the
/// environment variable is set and non-empty). The orderly-shutdown
/// hook: services call this on drain so post-mortems exist even when
/// nothing crashed.
pub fn dump_if_armed(reason: &str) -> Option<String> {
    match std::env::var("SABER_FLIGHT_DUMP") {
        Ok(path) if !path.is_empty() => Some(dump_current_thread(reason)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::{Mutex, PoisonError};

    // Each test clears the thread-local ring; tests within this module
    // share one process but thread-local state keeps them independent
    // as long as each runs on its own test thread (the default harness).
    // The dump counter is process-wide, so the tests that dump take
    // turns.
    static DUMPING: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_recorder_is_off_by_default_and_probe_is_gated() {
        // Default state: off. (Other tests toggle it, but each #[test]
        // thread sees its own ring; the global flag is restored below.)
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn ring_overwrites_oldest_first() {
        let _turn = DUMPING.lock().unwrap_or_else(PoisonError::into_inner);
        clear_current_thread();
        for i in 0..(CAPACITY as u64 + 10) {
            record("t", "evt", i, FlightKind::Counter { value: 1 });
        }
        let text = dump_current_thread("overwrite test");
        assert!(text.contains(&format!("retained {CAPACITY}, dropped 10")));
        let stamps: Vec<u64> = text
            .lines()
            .filter_map(|line| line.strip_prefix("  counter "))
            .map(|rest| rest.split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        // The oldest 10 were overwritten; the rest stay in order.
        assert_eq!(stamps, (10..CAPACITY as u64 + 10).collect::<Vec<_>>());
        clear_current_thread();
    }

    #[test]
    fn dump_formats_every_kind_and_counts() {
        let _turn = DUMPING.lock().unwrap_or_else(PoisonError::into_inner);
        clear_current_thread();
        record("t", "a", 5, FlightKind::Span { dur_ns: 7 });
        record("t", "b", 6, FlightKind::Instant);
        record("t", "c", 8, FlightKind::Counter { value: -2 });
        let before = dump_count();
        let text = dump_current_thread("unit test");
        assert_eq!(dump_count(), before + 1);
        assert!(text.contains("unit test"));
        assert!(text.contains("t/a dur=7 ns"));
        assert!(text.contains("t/b"));
        assert!(text.contains("t/c value=-2"));
        assert!(text.contains("retained 3, dropped 0"));
        clear_current_thread();
    }
}

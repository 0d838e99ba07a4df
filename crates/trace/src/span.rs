//! Wall-clock capture: sessions, spans, counters and instant events.
//!
//! The recording side is designed around one invariant: **when no
//! session is active and the flight recorder is off, a probe is two
//! relaxed atomic loads** — the session flag, then the flight flag. All
//! cost lives behind the
//! branch, so the instrumented hot paths of `saber-ring` and
//! `saber-service` pay next to nothing in production; the crate's
//! `disabled_path` test holds a probe under fixed limits (25 ns mean
//! with no session, 10 ns with the flight recorder off as well).
//!
//! Timing is monotonic: every timestamp is nanoseconds since a global
//! epoch (`Instant`-based, immune to wall-clock steps). Span nesting is
//! tracked per thread with a thread-local depth counter, so concurrent
//! service workers record interleaved spans without coordination beyond
//! the final buffer push.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::flight::{self, FlightKind};

/// Whether a capture session is currently active.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The captured event buffer (shared by all threads while enabled).
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// Serializes sessions: only one capture window exists at a time, so
/// concurrent tests queue instead of corrupting each other's traces.
static SESSION: Mutex<()> = Mutex::new(());

/// Monotonically increasing thread-id source for compact trace tids.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn lock_events() -> MutexGuard<'static, Vec<TraceEvent>> {
    // A panic while holding the buffer (e.g. a contained worker panic
    // in saber-service) must not disable tracing for everyone else.
    EVENTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The compact per-thread id used in trace events (assigned on first
/// probe from each thread, starting at 1).
fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// True while a capture session is active. The single branch every
/// probe takes first.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch (monotonic).
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Converts an [`Instant`] captured elsewhere (e.g. a job's enqueue
/// time) into trace-epoch nanoseconds, saturating to 0 for instants
/// that precede the epoch.
#[must_use]
pub fn instant_ns(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// What one captured event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed duration: `[start_ns, start_ns + dur_ns)`.
    Span {
        /// Start, nanoseconds since the trace epoch.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
    /// A zero-duration marker.
    Instant {
        /// Timestamp, nanoseconds since the trace epoch.
        ts_ns: u64,
    },
    /// A named quantity sampled at a point in time (deltas; sum them
    /// with [`Trace::counter_total`]).
    Counter {
        /// Timestamp, nanoseconds since the trace epoch.
        ts_ns: u64,
        /// The recorded delta.
        value: i64,
    },
}

/// One captured event. Categories and names are `&'static str` so the
/// capture path never allocates for identification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Subsystem label (`"kem"`, `"service"`, …).
    pub category: &'static str,
    /// Event name (`"kem.encaps"`, `"matvec"`, …).
    pub name: &'static str,
    /// Compact thread id (1-based, assigned per thread on first probe).
    pub tid: u64,
    /// Span nesting depth on the recording thread (0 = top level).
    pub depth: u32,
    /// The payload.
    pub kind: EventKind,
}

/// RAII guard returned by [`span`]: records the span on drop. When
/// tracing is disabled the guard is inert (a `None` payload).
#[must_use = "a span measures until the guard drops; binding to _ discards it immediately"]
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    category: &'static str,
    name: &'static str,
    start_ns: u64,
    depth: u32,
    /// Whether a capture session was active at open time (a flight-only
    /// span must not push into the session buffer — it would grow
    /// unbounded in production where no session ever clears it).
    to_session: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let end_ns = now_ns();
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_ns = end_ns.saturating_sub(live.start_ns);
        if flight::enabled() {
            flight::record(
                live.category,
                live.name,
                end_ns,
                FlightKind::Span { dur_ns },
            );
        }
        if !live.to_session {
            return;
        }
        // Record even if the session ended mid-span: the buffer is
        // cleared at the *start* of the next session, so a straggler
        // span never leaks into an unrelated capture.
        lock_events().push(TraceEvent {
            category: live.category,
            name: live.name,
            tid: tid(),
            depth: live.depth,
            kind: EventKind::Span {
                start_ns: live.start_ns,
                dur_ns,
            },
        });
    }
}

/// Opens a span; it closes (and is recorded) when the returned guard
/// drops. Disabled-path cost: two relaxed atomic loads (the session
/// flag, then the flight flag).
///
/// # Examples
///
/// ```
/// let session = saber_trace::start();
/// {
///     let _outer = saber_trace::span("demo", "outer");
///     let _inner = saber_trace::span("demo", "inner");
/// }
/// let trace = session.finish();
/// assert_eq!(trace.spans_named("inner").len(), 1);
/// assert_eq!(trace.spans_named("inner")[0].depth, 1);
/// ```
#[inline]
pub fn span(category: &'static str, name: &'static str) -> SpanGuard {
    let to_session = enabled();
    if !to_session && !flight::enabled() {
        return SpanGuard { live: None };
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    SpanGuard {
        live: Some(LiveSpan {
            category,
            name,
            start_ns: now_ns(),
            depth,
            to_session,
        }),
    }
}

/// Records an already-measured span with explicit timing — for
/// durations that do not nest on one thread's stack, like a job's
/// queue-wait between the submitting and the executing thread.
#[inline]
pub fn span_at(category: &'static str, name: &'static str, start_ns: u64, dur_ns: u64) {
    if flight::enabled() {
        flight::record(
            category,
            name,
            start_ns.saturating_add(dur_ns),
            FlightKind::Span { dur_ns },
        );
    }
    if !enabled() {
        return;
    }
    lock_events().push(TraceEvent {
        category,
        name,
        tid: tid(),
        depth: DEPTH.with(Cell::get),
        kind: EventKind::Span { start_ns, dur_ns },
    });
}

/// Records a counter delta. Disabled-path cost: two relaxed atomic
/// loads (the session flag, then the flight flag).
#[inline]
pub fn counter(category: &'static str, name: &'static str, value: i64) {
    let to_session = enabled();
    let to_flight = flight::enabled();
    if !to_session && !to_flight {
        return;
    }
    let ts_ns = now_ns();
    if to_flight {
        flight::record(category, name, ts_ns, FlightKind::Counter { value });
    }
    if !to_session {
        return;
    }
    lock_events().push(TraceEvent {
        category,
        name,
        tid: tid(),
        depth: DEPTH.with(Cell::get),
        kind: EventKind::Counter { ts_ns, value },
    });
}

/// Static per-victim steal counter names: probe names must be
/// `&'static str`, so the service's work-stealing scheduler maps victim
/// indices through this fixed table. Victims beyond the table share the
/// last slot — per-victim attribution is a debugging aid, and pools
/// wider than eight workers still get exact totals via `steal.hit`.
const STEAL_VICTIM_NAMES: [&str; 8] = [
    "steal.victim.0",
    "steal.victim.1",
    "steal.victim.2",
    "steal.victim.3",
    "steal.victim.4",
    "steal.victim.5",
    "steal.victim.6",
    "steal.victim.7",
];

/// The `'static` counter name for steals from worker `victim`'s deque
/// (clamped to `steal.victim.7` for wider pools).
#[must_use]
pub fn victim_counter_name(victim: usize) -> &'static str {
    STEAL_VICTIM_NAMES[victim.min(STEAL_VICTIM_NAMES.len() - 1)]
}

/// Records a zero-duration marker.
#[inline]
pub fn instant_event(category: &'static str, name: &'static str) {
    let to_session = enabled();
    let to_flight = flight::enabled();
    if !to_session && !to_flight {
        return;
    }
    let ts_ns = now_ns();
    if to_flight {
        flight::record(category, name, ts_ns, FlightKind::Instant);
    }
    if !to_session {
        return;
    }
    lock_events().push(TraceEvent {
        category,
        name,
        tid: tid(),
        depth: DEPTH.with(Cell::get),
        kind: EventKind::Instant { ts_ns },
    });
}

/// An active capture window. Obtained from [`start`]; finish with
/// [`TraceSession::finish`] to collect the [`Trace`].
///
/// Only one session exists at a time; [`start`] blocks until the
/// previous session finishes (which is what serializes concurrent
/// tests). Dropping a session without calling `finish` discards the
/// captured events.
pub struct TraceSession {
    _exclusive: MutexGuard<'static, ()>,
}

/// Starts a capture session: clears the event buffer and enables every
/// probe until the returned session is finished or dropped.
pub fn start() -> TraceSession {
    let exclusive = SESSION
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    lock_events().clear();
    epoch(); // pin the epoch before the first probe
    ENABLED.store(true, Ordering::SeqCst);
    TraceSession {
        _exclusive: exclusive,
    }
}

impl TraceSession {
    /// Ends the session and returns everything captured during it.
    #[must_use]
    pub fn finish(self) -> Trace {
        ENABLED.store(false, Ordering::SeqCst);
        let events = std::mem::take(&mut *lock_events());
        Trace { events }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// A finished capture: the collected events plus query helpers.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// All captured events, in completion order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of captured events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was captured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Every span event with the given name.
    #[must_use]
    pub fn spans_named(&self, name: &str) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.name == name && matches!(e.kind, EventKind::Span { .. }))
            .collect()
    }

    /// Total nanoseconds across all spans with the given name.
    #[must_use]
    pub fn total_span_ns(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.kind {
                EventKind::Span { dur_ns, .. } => dur_ns,
                _ => 0,
            })
            .sum()
    }

    /// Sum of all counter deltas with the given name.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> i64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.kind {
                EventKind::Counter { value, .. } => value,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_record_nothing() {
        // No session active (the session lock in other tests guarantees
        // we cannot race an enabled window: take it ourselves).
        let session = start();
        let trace = session.finish();
        assert!(trace.is_empty());
        // Probes outside any session are inert.
        let _g = span("t", "orphan");
        counter("t", "orphan_counter", 1);
        drop(_g);
        let session = start();
        let trace = session.finish();
        assert!(trace.is_empty(), "buffer is cleared at session start");
    }

    #[test]
    fn spans_nest_and_total() {
        let session = start();
        {
            let _a = span("t", "outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _b = span("t", "inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        counter("t", "widgets", 2);
        counter("t", "widgets", 3);
        instant_event("t", "marker");
        let trace = session.finish();
        assert_eq!(trace.spans_named("outer").len(), 1);
        assert_eq!(trace.spans_named("inner").len(), 1);
        assert_eq!(trace.spans_named("inner")[0].depth, 1);
        assert_eq!(trace.spans_named("outer")[0].depth, 0);
        assert!(trace.total_span_ns("outer") >= trace.total_span_ns("inner"));
        assert!(trace.total_span_ns("inner") >= 1_000_000);
        assert_eq!(trace.counter_total("widgets"), 5);
    }

    #[test]
    fn cross_thread_spans_get_distinct_tids() {
        let session = start();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _g = span("t", "worker");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = session.finish();
        let spans = trace.spans_named("worker");
        assert_eq!(spans.len(), 3);
        let mut tids: Vec<u64> = spans.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread gets its own tid");
    }

    #[test]
    fn span_at_records_external_timing() {
        let session = start();
        span_at("t", "queue_wait", 100, 50);
        let trace = session.finish();
        let spans = trace.spans_named("queue_wait");
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].kind,
            EventKind::Span {
                start_ns: 100,
                dur_ns: 50
            }
        );
    }

    #[test]
    fn instant_ns_saturates_before_epoch() {
        let session = start();
        let long_ago = Instant::now()
            .checked_sub(std::time::Duration::from_secs(3600))
            .unwrap_or_else(Instant::now);
        assert!(instant_ns(long_ago) <= now_ns());
        drop(session.finish());
    }
}

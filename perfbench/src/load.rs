//! Closed- and open-loop load drivers, generic over the system under
//! test so that the self-tests can drive a fake.
//!
//! Neither driver polls. One thread submits: in the closed loop as soon
//! as a request slot frees, in the open loop at each scheduled arrival
//! (it sleeps in between). Waiter threads each block on one admitted
//! request at a time and time it when it resolves.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::stats::Histogram;

/// The system under test.
pub trait Target {
    /// An admitted request.
    type Pending: Pending + Send;

    /// Submits request `id`, whose inputs are a pure function of `id`;
    /// `None` when the system refuses it (its queue is full).
    fn submit(&mut self, id: u64) -> Option<Self::Pending>;
}

/// An admitted request.
pub trait Pending {
    /// Blocks until the request resolves, then checks its output.
    fn wait(self) -> Result<(), String>;
}

/// One request's timeline, in nanoseconds from the start of its loop.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The request id: its index in the load plan.
    pub id: u64,
    /// When the request was due: its scheduled arrival in the open
    /// loop, when its slot freed in the closed loop.
    pub due_ns: u64,
    /// When it was submitted.
    pub submit_ns: u64,
    /// When its result was observed.
    pub done_ns: u64,
}

/// What a loop observed.
#[derive(Default)]
pub struct LoopStats {
    /// Response time of each resolved request, from when it was due.
    pub latency: Histogram,
    /// How late the generator submitted each request.
    pub late: Histogram,
    /// Requests the loop tried to submit.
    pub attempted: u64,
    /// Requests that resolved.
    pub completed: u64,
    /// Requests refused at submission.
    pub refused: u64,
    /// Requests that resolved with a wrong output.
    pub wrong: u64,
    /// The first wrong output, described.
    pub first_error: Option<String>,
    /// Open loop: the arrival window. Closed loop: first submission to
    /// last completion.
    pub window: Duration,
    /// Per-request spans, kept only when tracing.
    pub spans: Vec<Span>,
    /// The id after the last one submitted.
    pub next_id: u64,
    /// When the last request resolved, from the start of the loop.
    last_done_ns: u64,
}

/// Nanoseconds in `d`, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl LoopStats {
    #[allow(clippy::too_many_arguments)]
    fn resolved(
        &mut self,
        id: u64,
        start: Instant,
        due: Instant,
        submitted: Instant,
        done: Instant,
        result: Result<(), String>,
        trace: bool,
    ) {
        self.completed += 1;
        self.latency.record(ns(done.saturating_duration_since(due)));
        self.last_done_ns = self
            .last_done_ns
            .max(ns(done.saturating_duration_since(start)));
        if let Err(e) = result {
            self.wrong += 1;
            self.first_error
                .get_or_insert_with(|| format!("request {id}: {e}"));
        }
        if trace {
            let at = |t: Instant| ns(t.saturating_duration_since(start));
            self.spans.push(Span {
                id,
                due_ns: at(due),
                submit_ns: at(submitted),
                done_ns: at(done),
            });
        }
    }

    /// Requests that failed: refused or wrong.
    pub fn failed(&self) -> u64 {
        self.refused + self.wrong
    }

    /// `count` per second of the window.
    pub fn per_s(&self, count: u64) -> f64 {
        count as f64 / self.window.as_secs_f64()
    }

    /// Appends a later run of the same workload (windows add up).
    pub fn merge(&mut self, other: LoopStats) {
        self.latency.merge(&other.latency);
        self.late.merge(&other.late);
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.refused += other.refused;
        self.wrong += other.wrong;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.window += other.window;
        self.spans.extend(other.spans);
        self.next_id = other.next_id;
    }
}

/// Admitted requests waiting for a waiter thread, and how many
/// requests are in flight.
struct Board<P> {
    state: Mutex<BoardState<P>>,
    /// Signalled when a request is admitted or the loop ends.
    admitted: Condvar,
    /// Signalled when a request resolves.
    resolved: Condvar,
}

struct BoardState<P> {
    queue: VecDeque<(u64, Instant, Instant, P)>,
    in_flight: usize,
    closed: bool,
    /// Closed loop only: when each free request slot freed, oldest first.
    freed: Option<VecDeque<Instant>>,
}

impl<P> Board<P> {
    fn lock(&self) -> std::sync::MutexGuard<'_, BoardState<P>> {
        self.state.lock().expect("board lock")
    }
}

/// Submits requests `first_id, first_id + 1, …` each at the instant
/// `next_due` returns (it may block; `None` ends the loop), while
/// `waiters` threads each block on one admitted request at a time and
/// time it from when it was due. With `slots`, the board records when
/// each request slot frees, for a closed loop's `next_due`.
fn run_loop<T: Target>(
    target: &mut T,
    first_id: u64,
    waiters: usize,
    trace: bool,
    slots: bool,
    mut next_due: impl FnMut(&Board<T::Pending>, Instant) -> Option<Instant>,
) -> LoopStats {
    let board: Board<T::Pending> = Board {
        state: Mutex::new(BoardState {
            queue: VecDeque::new(),
            in_flight: 0,
            closed: false,
            freed: slots.then(VecDeque::new),
        }),
        admitted: Condvar::new(),
        resolved: Condvar::new(),
    };
    let shared = Mutex::new(LoopStats::default());
    let start = Instant::now();
    let mut id = first_id;
    let (mut attempted, mut refused, mut late) = (0, 0, Histogram::default());
    std::thread::scope(|s| {
        for _ in 0..waiters {
            s.spawn(|| loop {
                let next = {
                    let mut state = board.lock();
                    loop {
                        if let Some(item) = state.queue.pop_front() {
                            break Some(item);
                        }
                        if state.closed {
                            break None;
                        }
                        state = board.admitted.wait(state).expect("board lock");
                    }
                };
                let Some((req, due, submitted, pending)) = next else {
                    return;
                };
                let result = pending.wait();
                let done = Instant::now();
                shared
                    .lock()
                    .expect("loop stats lock")
                    .resolved(req, start, due, submitted, done, result, trace);
                let mut state = board.lock();
                state.in_flight -= 1;
                if let Some(freed) = state.freed.as_mut() {
                    freed.push_back(done);
                }
                drop(state);
                board.resolved.notify_one();
            });
        }
        while let Some(due) = next_due(&board, start) {
            if let Some(ahead) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(ahead);
            }
            let submitted = Instant::now();
            late.record(ns(submitted.saturating_duration_since(due)));
            attempted += 1;
            match target.submit(id) {
                Some(p) => {
                    let mut state = board.lock();
                    state.queue.push_back((id, due, submitted, p));
                    state.in_flight += 1;
                    drop(state);
                    board.admitted.notify_one();
                }
                None => refused += 1,
            }
            id += 1;
        }
        board.lock().closed = true;
        board.admitted.notify_all();
    });
    let mut stats = shared.into_inner().expect("loop stats lock");
    stats.attempted = attempted;
    stats.refused = refused;
    stats.late = late;
    stats.next_id = id;
    stats
}

/// Runs a closed loop for `run_for`: the calling thread keeps `depth`
/// requests in flight, submitting the next as soon as any resolves;
/// each in-flight request has its own waiter thread, so it is timed
/// when it resolves. A request is due when its slot frees (the request
/// before it in that slot resolves), so the loop's own delay in filling
/// the slot counts in its response time, as lateness does in an open
/// loop; otherwise a slower generator would read as a faster system.
/// The window runs to the last completion.
pub fn closed_loop<T: Target>(
    target: &mut T,
    first_id: u64,
    depth: usize,
    run_for: Duration,
    trace: bool,
) -> LoopStats {
    let mut stats = run_loop(target, first_id, depth, trace, true, |board, start| {
        let mut state = board.lock();
        while state.in_flight >= depth {
            state = board.resolved.wait(state).expect("board lock");
        }
        let now = Instant::now();
        let due = state
            .freed
            .as_mut()
            .and_then(VecDeque::pop_front)
            .unwrap_or(now);
        (now < start + run_for).then_some(due)
    });
    stats.window = Duration::from_nanos(stats.last_done_ns);
    stats
}

/// Runs an open loop: submits request `first_id + i` at `start +
/// arrivals[i]` whatever state the system is in, and times it from
/// that scheduled arrival, so a stall shows in every request it
/// delays. `waiters` threads each block on one admitted request at a
/// time; `window` is the length of the arrival window.
pub fn open_loop<T: Target>(
    target: &mut T,
    arrivals: impl Iterator<Item = Duration>,
    window: Duration,
    first_id: u64,
    waiters: usize,
    trace: bool,
) -> LoopStats {
    let mut arrivals = arrivals;
    let mut stats = run_loop(target, first_id, waiters, trace, false, |_, start| {
        arrivals.next().map(|offset| start + offset)
    });
    stats.window = window;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolves every request at once, but stalls the submission of one.
    struct Stalls {
        at: u64,
        stall: Duration,
    }

    struct Resolved;

    impl Pending for Resolved {
        fn wait(self) -> Result<(), String> {
            Ok(())
        }
    }

    impl Target for Stalls {
        type Pending = Resolved;
        fn submit(&mut self, id: u64) -> Option<Resolved> {
            if id == self.at {
                std::thread::sleep(self.stall);
            }
            Some(Resolved)
        }
    }

    #[test]
    fn a_stall_shows_in_the_latency_of_the_requests_behind_it() {
        // 100 arrivals 1 ms apart; submitting request 10 takes 30 ms.
        let mut target = Stalls {
            at: 10,
            stall: Duration::from_millis(30),
        };
        let arrivals = (0..100u64).map(Duration::from_millis);
        let stats = open_loop(
            &mut target,
            arrivals,
            Duration::from_millis(100),
            0,
            2,
            true,
        );
        assert_eq!(
            (stats.attempted, stats.completed, stats.failed()),
            (100, 100, 0)
        );
        // Requests 11..=30 were due during the stall, so each waited at
        // least until it ended at 40 ms.
        for span in stats.spans.iter().filter(|s| (11..=30).contains(&s.id)) {
            assert!(
                span.done_ns - span.due_ns >= 9_000_000,
                "request {} took {} ns from its arrival",
                span.id,
                span.done_ns - span.due_ns
            );
        }
        // The 11th slowest request (rank 89 of 100) was due at 20 ms.
        assert!(stats.latency.quantile_ms(0.9) >= 9.0);
        assert!(stats.late.quantile_ms(0.99) >= 20.0);
    }

    #[test]
    fn closed_loop_keeps_requests_in_flight_and_counts_them() {
        struct Instant1;
        impl Target for Instant1 {
            type Pending = Resolved;
            fn submit(&mut self, _: u64) -> Option<Resolved> {
                Some(Resolved)
            }
        }
        let stats = closed_loop(&mut Instant1, 5, 4, Duration::from_millis(20), true);
        assert!(stats.completed > 4);
        assert_eq!(stats.attempted, stats.completed);
        assert_eq!(stats.next_id, 5 + stats.attempted);
        assert_eq!(stats.spans.first().map(|s| s.id), Some(5));
    }
}

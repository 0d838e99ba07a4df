//! Per-worker bounded deques with randomized-seeded work stealing —
//! the service's dispatch structure in front of the worker pool.
//!
//! ## Layout
//!
//! ```text
//!             shortest-queue submit (round-robin tie-break)
//!  submitters ──┬────────────┬────────────┬──▶ global len ≤ capacity
//!               ▼            ▼            ▼
//!          ┌─ shard 0 ─┐┌─ shard 1 ─┐┌─ shard 2 ─┐   front = newest
//!          │ n₂ n₁ n₀ ◀┼┼─────────┐ ││           │   back  = oldest
//!          └─────▲─────┘└────▲────┼─┘└───────────┘
//!            owner pops   thief steals the older
//!            newest-first  half from the back
//! ```
//!
//! One deque per worker, all jointly bounded by a single global
//! capacity (an atomic admission counter). The backpressure contract is
//! *reject, don't buffer*: `try_push` never blocks, admits exactly
//! `capacity` outstanding jobs and then returns the item back with
//! [`PushError::Full`], regardless of how the jobs are distributed over
//! shards. A traffic burst therefore degrades into explicit errors, not
//! unbounded memory growth or submitter stalls. After
//! [`close`](WorkStealQueue::close), pushes fail with
//! [`PushError::Closed`] while pops keep draining admitted jobs, so a
//! closed queue loses nothing it accepted.
//!
//! ## Steal policy
//!
//! * **Submit** picks the shortest shard (by its lock-free length
//!   gauge), breaking ties round-robin from an atomic cursor, and
//!   pushes at the *front*.
//! * **Owner pop** takes from the front of its own deque — newest
//!   first. LIFO is what breaks the convoy: a large batch job parked in
//!   a shard does not force every small job queued behind it to wait
//!   out the batch, because fresh small jobs overtake it (the
//!   `sched_stress` convoy regression pins this order exactly).
//! * **Thieves** scan the other shards in a freshly drawn seeded
//!   Fisher–Yates permutation and take the **older half from the back**
//!   of the first non-empty victim: one job to execute now, the rest
//!   moved onto the thief's own deque. Stealing the old end keeps
//!   thieves and the owner on opposite ends of the deque and ages out
//!   the jobs LIFO would otherwise starve.
//!
//! Every victim choice is drawn from the caller-supplied seeded
//! [`Rng`], so an N-worker run makes a reproducible *sequence* of
//! steal decisions for a given thread interleaving — and because every
//! job is a pure function of its planned inputs, transcripts are
//! byte-identical to sequential execution under **any** interleaving
//! (the `concurrency_equivalence` battery asserts this for N ∈ {1,2,8}
//! across all parameter sets and steal seeds).
//!
//! ## Wakeup protocol
//!
//! Sleeping workers park on one condvar guarded by a dedicated sleep
//! mutex. A pusher publishes (global len increment, then the shard
//! insert) *before* acquiring and releasing the sleep mutex and
//! notifying, so a worker that observed "empty" under the mutex is
//! guaranteed to be inside `wait` before the notification fires —
//! no lost wakeups. [`WorkStealQueue::close`] uses `notify_all` so
//! every blocked worker drains out (a regression test parks six
//! poppers and requires every one to return).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use saber_testkit::Rng;

/// Why a push was refused; carries the rejected item back to the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity: backpressure. The submitter decides
    /// whether to retry, shed the job, or surface the rejection.
    Full(T),
    /// The queue was closed (service shutting down); no new work is
    /// admitted.
    Closed(T),
}

/// What one [`WorkStealQueue::pop`] did to find its job — the worker
/// loop folds this into the steal metrics and trace counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealTally {
    /// Victim-scan passes performed (a pass runs only when the global
    /// length said work existed somewhere; idle sleeps are not
    /// attempts).
    pub attempts: u64,
    /// The shard index a successful steal took from, if any.
    pub victim: Option<usize>,
    /// Jobs the successful steal removed from the victim (the one
    /// returned plus any moved onto the thief's own deque).
    pub moved: u64,
}

struct Shard<T> {
    /// Front = newest, back = oldest.
    deque: Mutex<VecDeque<T>>,
    /// Lock-free length gauge for shortest-queue submit.
    len: AtomicUsize,
}

/// Per-worker bounded deques with seeded work stealing (see the module
/// docs for layout, policy, and the wakeup protocol).
///
/// # Examples
///
/// ```
/// use saber_service::steal::{PushError, WorkStealQueue};
/// use saber_testkit::Rng;
///
/// let q = WorkStealQueue::new(1, 2);
/// q.try_push(1).unwrap();
/// assert_eq!(q.try_push(2), Err(PushError::Full(2)));
/// q.close();
/// let mut rng = Rng::new(7);
/// // Admitted jobs drain after close, stolen if they sit on another shard.
/// assert_eq!(q.pop(1, &mut rng).map(|(job, _)| job), Some(1));
/// assert_eq!(q.pop(1, &mut rng), None);
/// ```
pub struct WorkStealQueue<T> {
    capacity: usize,
    /// Admitted jobs across all shards — the single global bound.
    len: AtomicUsize,
    closed: AtomicBool,
    /// Round-robin tie-break cursor for shortest-queue submit.
    cursor: AtomicUsize,
    shards: Vec<Shard<T>>,
    /// Guards the sleep condition re-check (never the shard data).
    sleep: Mutex<()>,
    not_empty: Condvar,
}

impl<T> WorkStealQueue<T> {
    /// A queue of `shards` per-worker deques jointly admitting at most
    /// `capacity` jobs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(shards > 0, "need at least one shard");
        Self {
            capacity,
            len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            cursor: AtomicUsize::new(0),
            shards: (0..shards)
                .map(|_| Shard {
                    deque: Mutex::new(VecDeque::new()),
                    len: AtomicUsize::new(0),
                })
                .collect(),
            sleep: Mutex::new(()),
            not_empty: Condvar::new(),
        }
    }

    /// The configured joint capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards (= workers).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Admitted jobs across all shards (racy by nature; for gauges).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether no jobs are admitted anywhere (racy by nature).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) has been called.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Attempts to enqueue without ever blocking; on success returns the
    /// global depth *including* the new job.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when `capacity` jobs are already admitted,
    /// [`PushError::Closed`] after [`close`](Self::close); both return
    /// the item.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(PushError::Closed(item));
        }
        // Reserve a slot in the joint bound first; the slot is what
        // keeps every worker alive until the job is drained (workers
        // only exit on closed && len == 0).
        let Ok(prev) = self
            .len
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.capacity).then_some(n + 1)
            })
        else {
            return Err(PushError::Full(item));
        };
        // Close raced the reservation: give the slot back and refuse,
        // so nothing is admitted after close() returns.
        if self.closed.load(Ordering::SeqCst) {
            self.len.fetch_sub(1, Ordering::SeqCst);
            return Err(PushError::Closed(item));
        }
        let shard = self.pick_shard();
        {
            let mut deque = self.shards[shard].deque.lock().expect("shard lock");
            deque.push_front(item);
            self.shards[shard].len.store(deque.len(), Ordering::Relaxed);
        }
        // Publish-then-notify through the sleep mutex: a worker that saw
        // "empty" under the mutex is already parked in wait() by the
        // time we can acquire it, so this notification cannot be lost.
        drop(self.sleep.lock().expect("sleep lock"));
        self.not_empty.notify_one();
        Ok(prev + 1)
    }

    /// Shortest shard by the lock-free gauges, ties broken round-robin
    /// so a stream of equal-length observations still spreads.
    fn pick_shard(&self) -> usize {
        let n = self.shards.len();
        let start = self.cursor.fetch_add(1, Ordering::Relaxed) % n;
        let mut best = start;
        let mut best_len = self.shards[start].len.load(Ordering::Relaxed);
        for offset in 1..n {
            let i = (start + offset) % n;
            let len = self.shards[i].len.load(Ordering::Relaxed);
            if len < best_len {
                best = i;
                best_len = len;
            }
        }
        best
    }

    /// Blocks until a job is available (own shard first, then stealing)
    /// or the queue is closed *and* fully drained; `None` is the
    /// worker's shutdown signal. `rng` drives every victim choice.
    #[must_use]
    pub fn pop(&self, worker: usize, rng: &mut Rng) -> Option<(T, StealTally)> {
        let mut tally = StealTally::default();
        loop {
            // Own shard, newest first.
            {
                let mut deque = self.shards[worker].deque.lock().expect("shard lock");
                if let Some(item) = deque.pop_front() {
                    self.shards[worker].len.store(deque.len(), Ordering::Relaxed);
                    drop(deque);
                    self.len.fetch_sub(1, Ordering::SeqCst);
                    return Some((item, tally));
                }
            }
            // Work exists somewhere else: scan for a victim.
            if self.len.load(Ordering::SeqCst) > 0 {
                tally.attempts += 1;
                if let Some(item) = self.steal(worker, rng, &mut tally) {
                    return Some((item, tally));
                }
                // Lost the race (or the job is mid-push); re-check
                // before deciding to sleep.
            }
            {
                let guard = self.sleep.lock().expect("sleep lock");
                if self.len.load(Ordering::SeqCst) > 0 {
                    continue; // rescan without sleeping
                }
                if self.closed.load(Ordering::SeqCst) {
                    return None;
                }
                drop(self.not_empty.wait(guard).expect("sleep lock"));
            }
        }
    }

    /// One victim-scan pass: seeded Fisher–Yates order over the other
    /// shards, take the older half from the back of the first non-empty
    /// one.
    fn steal(&self, worker: usize, rng: &mut Rng, tally: &mut StealTally) -> Option<T> {
        let n = self.shards.len();
        if n == 1 {
            return None;
        }
        let mut order: Vec<usize> = (0..n).filter(|&i| i != worker).collect();
        for i in (1..order.len()).rev() {
            let j = rng.range_usize(0, i);
            order.swap(i, j);
        }
        for victim in order {
            let mut stolen = {
                let mut deque = self.shards[victim].deque.lock().expect("shard lock");
                let len = deque.len();
                if len == 0 {
                    continue;
                }
                let take = len.div_ceil(2);
                let stolen = deque.split_off(len - take);
                self.shards[victim].len.store(deque.len(), Ordering::Relaxed);
                stolen
            };
            // The very back is the oldest: execute it now, keep the
            // rest (still newer→older front→back) on our own deque.
            let item = stolen.pop_back().expect("steal takes at least one");
            let moved = stolen.len();
            if moved > 0 {
                let mut own = self.shards[worker].deque.lock().expect("shard lock");
                own.append(&mut stolen);
                self.shards[worker].len.store(own.len(), Ordering::Relaxed);
            }
            self.len.fetch_sub(1, Ordering::SeqCst);
            tally.victim = Some(victim);
            tally.moved = 1 + moved as u64;
            return Some(item);
        }
        None
    }

    /// Closes the queue: further pushes are rejected, admitted jobs keep
    /// draining through [`pop`](Self::pop). `notify_all`, not one-shot:
    /// every blocked worker must wake to observe the close. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        drop(self.sleep.lock().expect("sleep lock"));
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rng() -> Rng {
        Rng::new(0x5ABE_57EA)
    }

    #[test]
    fn own_shard_pops_newest_first() {
        let q = WorkStealQueue::new(8, 1);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        q.close();
        let mut r = rng();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop(0, &mut r).map(|(v, _)| v)).collect();
        assert_eq!(drained, vec![4, 3, 2, 1, 0], "owner is LIFO over its shard");
    }

    #[test]
    fn joint_capacity_is_exact_across_shards() {
        let q = WorkStealQueue::new(3, 4);
        assert_eq!(q.try_push("a").unwrap(), 1);
        assert_eq!(q.try_push("b").unwrap(), 2);
        assert_eq!(q.try_push("c").unwrap(), 3);
        match q.try_push("d") {
            Err(PushError::Full(item)) => assert_eq!(item, "d"),
            other => panic!("expected Full, got {other:?}"),
        }
        // Freeing one slot anywhere re-admits work.
        let mut r = rng();
        let _ = q.pop(0, &mut r).expect("work queued");
        assert!(q.try_push("d").is_ok());
    }

    #[test]
    fn closed_queue_rejects_pushes_but_drains_pops() {
        let q = WorkStealQueue::new(4, 2);
        q.try_push(1).unwrap();
        q.close();
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert!(q.is_closed());
        let mut r = rng();
        // Either worker drains the admitted job (steal if not local).
        assert_eq!(q.pop(1, &mut r).map(|(v, _)| v), Some(1));
        assert_eq!(q.pop(1, &mut r), None);
        assert_eq!(q.pop(0, &mut r), None, "pop stays None after drain");
    }

    #[test]
    fn steal_takes_the_older_half_from_the_back() {
        let q = WorkStealQueue::<i32>::new(8, 2);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        let mut r = rng();
        let (first, tally) = q.pop(1, &mut r).expect("work queued");
        // Worker 1 either owned jobs (round-robin put some on shard 1)
        // or stole from shard 0; in both cases it gets a job and the
        // queue survives the accounting.
        let _ = first;
        if let Some(victim) = tally.victim {
            assert_eq!(victim, 0, "only one possible victim");
            assert!(tally.moved >= 1);
        }
        q.close();
        let mut drained = vec![];
        while let Some((v, _)) = q.pop(0, &mut r) {
            drained.push(v);
        }
        while let Some((v, _)) = q.pop(1, &mut r) {
            drained.push(v);
        }
        assert_eq!(drained.len(), 5, "every admitted job drains exactly once");
    }

    #[test]
    fn close_wakes_at_least_four_blocked_poppers() {
        // Regression guard for the shutdown drain: `close()` must
        // broadcast (`notify_all`), because a one-at-a-time wakeup
        // strands all but one of N parked workers until a further push
        // or close call that never comes. Park strictly more poppers
        // than a single notify could wake and require every one of them
        // to return.
        const POPPERS: usize = 6;
        let q = Arc::new(WorkStealQueue::<u8>::new(4, POPPERS));
        let parked = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..POPPERS)
            .map(|w| {
                let q = Arc::clone(&q);
                let parked = Arc::clone(&parked);
                std::thread::spawn(move || {
                    let mut r = Rng::new(0xB10C_0000 + w as u64);
                    parked.fetch_add(1, Ordering::SeqCst);
                    q.pop(w, &mut r).map(|(v, _)| v)
                })
            })
            .collect();
        // Wait until every popper has at least reached pop(); the
        // condvar wait is entered after re-checking `closed` under the
        // sleep mutex, so after close() below no popper can re-park.
        while parked.load(Ordering::SeqCst) < POPPERS {
            std::thread::yield_now();
        }
        q.close();
        for h in handles {
            assert_eq!(
                h.join().unwrap(),
                None,
                "a popper missed the close broadcast"
            );
        }
    }

    #[test]
    fn concurrent_producers_and_stealing_consumers_lose_nothing() {
        const WORKERS: usize = 3;
        let q = Arc::new(WorkStealQueue::new(16, WORKERS));
        let consumers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut r = Rng::new(0x57EA_1000 + w as u64);
                    let mut seen = Vec::new();
                    while let Some((v, _)) = q.pop(w, &mut r) {
                        seen.push(v);
                    }
                    seen
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let mut item = p * 1000 + i;
                        loop {
                            match q.try_push(item) {
                                Ok(_) => break,
                                Err(PushError::Full(back)) => {
                                    item = back;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<i32> = (0..100).chain(1000..1100).collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = WorkStealQueue::<u8>::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = WorkStealQueue::<u8>::new(4, 0);
    }
}

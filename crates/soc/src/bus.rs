//! The shared-BRAM bus: cycle-stamped request queues, a one-port-pair
//! arbiter, and latched inter-component signal flags.
//!
//! # Why every field carries a cycle stamp
//!
//! The permutation-invariance contract (see [`crate::component`]) is
//! enforced structurally here:
//!
//! * **Requests** are stamped with the cycle they were posted. The
//!   arbiter only considers requests stamped *strictly before* the
//!   current cycle, so the contention set it sees is independent of
//!   which same-cycle component happened to tick first.
//! * **Arbitration** picks among contenders by the deterministic key
//!   `(stamp, id, seq)` — oldest first, then lowest component id. Within
//!   one component `seq` preserves program order; *across* components
//!   the id decides, never the intra-cycle tick order.
//! * **Grants, acks and signals** are stamped with the cycle they were
//!   produced and become visible strictly *after* it — the one-cycle
//!   latch every real synchronous design has.
//!
//! Under these three rules a correct SoC is provably insensitive to
//! same-cycle service order, which is exactly what the tick-order fuzzer
//! asserts. The two [`SocMutant`]s each break one rule — the planted
//! schedule races the fuzzer must catch:
//!
//! * [`SocMutant::ArbiterInsertionOrderGrant`] arbitrates by global
//!   insertion sequence alone, leaking intra-cycle tick order into grant
//!   timing whenever two components post in the same cycle.
//! * [`SocMutant::KeccakValidFlagUnlatched`] makes signal reads
//!   combinational (`set_at <= now` instead of `< now`): a consumer
//!   ticked *after* the producer sees the flag one cycle earlier than a
//!   consumer ticked *before* it.

use std::collections::BTreeMap;

use saber_hw::Bram;

use crate::component::{Component, ComponentId, ComponentStats};

/// A planted schedule race for the tick-order fuzzer to catch.
///
/// Both mutants are *bit-exact under the canonical order*: they produce
/// the correct product and the reference cycle totals when components
/// are served in id order every cycle. Only a permuted same-cycle order
/// exposes them — which is why the differential fuzzer in `saber-verify`
/// can never see them and a dedicated tick-order fuzzer is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocMutant {
    /// The arbiter grants same-cycle contenders in global insertion
    /// order (first posted, first served) instead of the deterministic
    /// `(stamp, id)` key.
    ArbiterInsertionOrderGrant,
    /// Signal flags read combinationally: a flag raised at cycle `t` is
    /// already visible to components ticked later in the *same* cycle.
    KeccakValidFlagUnlatched,
}

/// A pending read request on the bus.
#[derive(Debug, Clone, Copy)]
struct ReadReq {
    id: ComponentId,
    addr: usize,
    stamp: u64,
    seq: u64,
}

/// A pending write request on the bus.
#[derive(Debug, Clone, Copy)]
struct WriteReq {
    id: ComponentId,
    addr: usize,
    data: u64,
    stamp: u64,
    seq: u64,
}

/// A completed read: data latched for the requester.
#[derive(Debug, Clone, Copy)]
struct ReadGrant {
    id: ComponentId,
    addr: usize,
    data: u64,
    at: u64,
}

/// Aggregate bus traffic counters; part of the run fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Read requests granted.
    pub read_grants: u64,
    /// Write requests committed.
    pub write_grants: u64,
    /// Cycles in which more than one read contender was eligible.
    pub contended_cycles: u64,
}

/// The shared bus in front of the single dual-port BRAM: one read and
/// one write can be granted per base cycle.
#[derive(Debug)]
pub struct SharedBus {
    bram: Bram,
    seq: u64,
    reads: Vec<ReadReq>,
    writes: Vec<WriteReq>,
    grants: Vec<ReadGrant>,
    /// Write acks per component: cycle stamps of committed writes.
    acks: BTreeMap<ComponentId, Vec<u64>>,
    /// Latched single-bit flags: name → cycle the flag was raised.
    signals: BTreeMap<String, u64>,
    mutant: Option<SocMutant>,
    stats: BusStats,
}

impl SharedBus {
    /// A bus over a fresh BRAM of `depth` 64-bit words.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        Self::with_mutant(depth, None)
    }

    /// A bus with an optional planted schedule race.
    #[must_use]
    pub fn with_mutant(depth: usize, mutant: Option<SocMutant>) -> Self {
        Self {
            bram: Bram::new(depth),
            seq: 0,
            reads: Vec::new(),
            writes: Vec::new(),
            grants: Vec::new(),
            acks: BTreeMap::new(),
            signals: BTreeMap::new(),
            mutant,
            stats: BusStats::default(),
        }
    }

    /// Host backdoor: writes `words` starting at `addr` before the run
    /// (operand preload, exactly as the standalone models' accounting).
    pub fn preload(&mut self, addr: usize, words: &[u64]) {
        self.bram.preload(addr, words);
    }

    /// Host backdoor: reads `len` words starting at `addr` after the run.
    #[must_use]
    pub fn inspect(&self, addr: usize, len: usize) -> Vec<u64> {
        self.bram.inspect(addr, len).to_vec()
    }

    /// Traffic counters so far.
    #[must_use]
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Posts a read request at cycle `now`; the grant arrives no earlier
    /// than `now + 1` and its data is visible to
    /// [`take_read_grant`](Self::take_read_grant) no earlier than
    /// `now + 2`.
    pub fn post_read(&mut self, id: ComponentId, addr: usize, now: u64) {
        self.reads.push(ReadReq {
            id,
            addr,
            stamp: now,
            seq: self.seq,
        });
        self.seq += 1;
    }

    /// Posts a write request at cycle `now`; the ack is visible to
    /// [`write_acks_through`](Self::write_acks_through) no earlier than
    /// `now + 2`.
    pub fn post_write(&mut self, id: ComponentId, addr: usize, data: u64, now: u64) {
        self.writes.push(WriteReq {
            id,
            addr,
            data,
            stamp: now,
            seq: self.seq,
        });
        self.seq += 1;
    }

    /// Takes the oldest latched read grant for `id` (grant cycle
    /// strictly before `now`), if any. Returns `(addr, data)`.
    pub fn take_read_grant(&mut self, id: ComponentId, now: u64) -> Option<(usize, u64)> {
        let pos = self
            .grants
            .iter()
            .enumerate()
            .filter(|(_, g)| g.id == id && g.at < now)
            .min_by_key(|(_, g)| g.at)
            .map(|(i, _)| i)?;
        let grant = self.grants.remove(pos);
        Some((grant.addr, grant.data))
    }

    /// Number of `id`'s writes committed strictly before cycle `now`.
    #[must_use]
    pub fn write_acks_through(&self, id: ComponentId, now: u64) -> u64 {
        self.acks.get(&id).map_or(0, |stamps| {
            stamps.iter().filter(|&&at| at < now).count() as u64
        })
    }

    /// Raises the latched flag `name` at cycle `now`.
    pub fn raise(&mut self, name: &str, now: u64) {
        self.signals.entry(name.to_string()).or_insert(now);
    }

    /// True when flag `name` is visible at cycle `now`: raised strictly
    /// before `now` (latched), or — under
    /// [`SocMutant::KeccakValidFlagUnlatched`] — raised at or before
    /// `now` (combinational, the planted race).
    #[must_use]
    pub fn signal_up(&self, name: &str, now: u64) -> bool {
        self.signals.get(name).is_some_and(|&set_at| {
            if self.mutant == Some(SocMutant::KeccakValidFlagUnlatched) {
                set_at <= now
            } else {
                set_at < now
            }
        })
    }

    /// True when no requests are pending (termination condition; grants
    /// not yet consumed don't block termination because their consumers
    /// are still live components).
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// Read requests currently latched in the queue registers (the
    /// probe's `bus.read_reqs` wire).
    #[must_use]
    pub fn pending_reads(&self) -> usize {
        self.reads.len()
    }

    /// Write requests currently latched in the queue registers.
    #[must_use]
    pub fn pending_writes(&self) -> usize {
        self.writes.len()
    }

    /// Read grants latched but not yet consumed by their requesters.
    #[must_use]
    pub fn pending_grants(&self) -> usize {
        self.grants.len()
    }

    /// Every raised signal flag as `(name, cycle raised)`, in name
    /// order — the probe turns each into a one-bit waveform.
    #[must_use]
    pub fn raised_signals(&self) -> Vec<(&str, u64)> {
        self.signals.iter().map(|(k, &v)| (k.as_str(), v)).collect()
    }

    /// One arbitration cycle (called by [`BusArbiter`] at cycle `now`):
    /// grants at most one read and one write among the requests stamped
    /// strictly before `now`, then clocks the BRAM.
    pub fn service_cycle(&mut self, now: u64) {
        // Contenders: requests already latched into the queue registers.
        let read_key = |r: &ReadReq| match self.mutant {
            Some(SocMutant::ArbiterInsertionOrderGrant) => (r.seq, 0, 0),
            _ => (r.stamp, r.id.0 as u64, r.seq),
        };
        let eligible_reads = self.reads.iter().filter(|r| r.stamp < now).count();
        if eligible_reads > 1 {
            self.stats.contended_cycles += 1;
        }
        let read = self
            .reads
            .iter()
            .enumerate()
            .filter(|(_, r)| r.stamp < now)
            .min_by_key(|(_, r)| read_key(r))
            .map(|(i, _)| i)
            .map(|i| self.reads.remove(i));
        let write_key = |w: &WriteReq| match self.mutant {
            Some(SocMutant::ArbiterInsertionOrderGrant) => (w.seq, 0, 0),
            _ => (w.stamp, w.id.0 as u64, w.seq),
        };
        let write = self
            .writes
            .iter()
            .enumerate()
            .filter(|(_, w)| w.stamp < now)
            .min_by_key(|(_, w)| write_key(w))
            .map(|(i, _)| i)
            .map(|i| self.writes.remove(i));

        if let Some(r) = &read {
            self.bram
                .issue_read(r.addr)
                .expect("arbiter owns the read port");
        }
        if let Some(w) = &write {
            self.bram
                .issue_write(w.addr, w.data)
                .expect("arbiter owns the write port");
        }
        self.bram.tick();
        if let Some(r) = read {
            let data = self.bram.read_data().expect("read commits this cycle");
            self.grants.push(ReadGrant {
                id: r.id,
                addr: r.addr,
                data,
                at: now,
            });
            self.stats.read_grants += 1;
        }
        if let Some(w) = write {
            self.acks.entry(w.id).or_default().push(now);
            self.stats.write_grants += 1;
        }
    }
}

/// The bus-arbiter daemon component: services the shared bus once per
/// base cycle for as long as any other component is live.
#[derive(Debug)]
pub struct BusArbiter {
    id: ComponentId,
    cycles: u64,
}

impl BusArbiter {
    /// An arbiter with the given id (conventionally the lowest in the
    /// SoC, though correctness must not depend on it).
    #[must_use]
    pub fn new(id: ComponentId) -> Self {
        Self { id, cycles: 0 }
    }
}

impl Component for BusArbiter {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn name(&self) -> &str {
        "bus-arbiter"
    }

    fn next_tick(&self) -> u64 {
        0
    }

    fn tick(&mut self, now: u64, bus: &mut SharedBus) -> u64 {
        bus.service_cycle(now);
        self.cycles += 1;
        now + 1
    }

    fn is_daemon(&self) -> bool {
        true
    }

    fn stats(&self) -> ComponentStats {
        ComponentStats {
            busy_cycles: self.cycles,
            stall_cycles: 0,
            done_at: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ComponentId = ComponentId(1);
    const B: ComponentId = ComponentId(2);

    #[test]
    fn read_grant_has_two_cycle_latency() {
        let mut bus = SharedBus::new(8);
        bus.preload(3, &[0xabcd]);
        bus.post_read(A, 3, 0);
        // Not yet granted: nothing to take at cycle 1.
        assert_eq!(bus.take_read_grant(A, 1), None);
        bus.service_cycle(1); // stamp 0 < 1: granted at cycle 1
        assert_eq!(bus.take_read_grant(A, 1), None); // at == now: latched
        assert_eq!(bus.take_read_grant(A, 2), Some((3, 0xabcd)));
        assert_eq!(bus.take_read_grant(A, 2), None);
    }

    #[test]
    fn same_cycle_contention_resolved_by_id_not_post_order() {
        // B posts first in the cycle, A second; the correct arbiter
        // still serves A (lower id) first.
        let run = |a_first: bool| {
            let mut bus = SharedBus::new(8);
            bus.preload(0, &[10, 20]);
            if a_first {
                bus.post_read(A, 0, 0);
                bus.post_read(B, 1, 0);
            } else {
                bus.post_read(B, 1, 0);
                bus.post_read(A, 0, 0);
            }
            bus.service_cycle(1);
            bus.service_cycle(2);
            (bus.take_read_grant(A, 3), bus.take_read_grant(B, 3))
        };
        let ab = run(true);
        let ba = run(false);
        assert_eq!(ab, ba, "grant outcome must not depend on post order");
    }

    #[test]
    fn insertion_order_mutant_leaks_post_order() {
        let run = |first, second, addr_first, addr_second| {
            let mut bus = SharedBus::with_mutant(8, Some(SocMutant::ArbiterInsertionOrderGrant));
            bus.preload(0, &[10, 20]);
            bus.post_read(first, addr_first, 0);
            bus.post_read(second, addr_second, 0);
            bus.service_cycle(1); // first grant
            let a_first = bus.take_read_grant(A, 2).is_some();
            bus.service_cycle(2);
            a_first
        };
        // A posted first → A granted in cycle 1; B posted first → not.
        assert!(run(A, B, 0, 1));
        assert!(!run(B, A, 1, 0));
    }

    #[test]
    fn signals_are_latched_but_mutant_is_combinational() {
        let mut bus = SharedBus::new(4);
        bus.raise("done", 5);
        assert!(!bus.signal_up("done", 5));
        assert!(bus.signal_up("done", 6));

        let mut bad = SharedBus::with_mutant(4, Some(SocMutant::KeccakValidFlagUnlatched));
        bad.raise("done", 5);
        assert!(bad.signal_up("done", 5), "mutant reads the unlatched flag");
    }

    #[test]
    fn write_acks_count_committed_writes_only() {
        let mut bus = SharedBus::new(4);
        bus.post_write(A, 0, 7, 0);
        bus.post_write(A, 1, 8, 0);
        assert_eq!(bus.write_acks_through(A, 5), 0);
        bus.service_cycle(1);
        bus.service_cycle(2);
        assert_eq!(bus.write_acks_through(A, 2), 1); // first ack at 1 < 2
        assert_eq!(bus.write_acks_through(A, 3), 2);
        assert_eq!(bus.inspect(0, 2), vec![7, 8]);
        assert!(bus.quiescent());
    }
}

//! A cycle-accurate block-RAM model.
//!
//! Models the memory every multiplier architecture in the paper talks to:
//! 64-bit data ports, **one read port and one write port**, synchronous
//! read (data appears one clock edge after the address is issued). The
//! lightweight architecture's whole §4.1 scheduling story — pausing the
//! datapath whenever an input load steals the read port from the
//! accumulator stream — falls out of these port constraints.
//!
//! Port discipline is enforced: issuing two reads (or two writes) in the
//! same cycle is a design bug and returns [`PortConflict`].

use std::fmt;

/// Error returned when a port is used twice in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortConflict {
    /// Which port was double-booked.
    pub port: PortKind,
    /// The cycle (tick count) at which the conflict happened.
    pub cycle: u64,
}

/// The two BRAM ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// The read port.
    Read,
    /// The write port.
    Write,
}

impl fmt::Display for PortConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let port = match self.port {
            PortKind::Read => "read",
            PortKind::Write => "write",
        };
        write!(f, "{port} port issued twice in cycle {}", self.cycle)
    }
}

impl std::error::Error for PortConflict {}

/// Access statistics, the activity input of the power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BramStats {
    /// Completed read accesses.
    pub reads: u64,
    /// Completed write accesses.
    pub writes: u64,
    /// Cycles in which neither port was used.
    pub idle_cycles: u64,
    /// Total elapsed cycles.
    pub cycles: u64,
}

/// A 64-bit-wide, single-read-port/single-write-port synchronous RAM.
///
/// # Examples
///
/// ```
/// use saber_hw::bram::Bram;
///
/// let mut mem = Bram::new(64);
/// mem.issue_write(3, 0xdead_beef)?;
/// mem.tick();                    // write commits
/// mem.issue_read(3)?;
/// mem.tick();                    // read data becomes visible
/// assert_eq!(mem.read_data(), Some(0xdead_beef));
/// # Ok::<(), saber_hw::bram::PortConflict>(())
/// ```
#[derive(Debug, Clone)]
pub struct Bram {
    words: Vec<u64>,
    pending_read: Option<usize>,
    pending_write: Option<(usize, u64)>,
    read_data: Option<u64>,
    stats: BramStats,
}

impl Bram {
    /// Creates a zero-initialized memory of `depth` 64-bit words.
    #[must_use]
    pub fn new(depth: usize) -> Self {
        Self {
            words: vec![0; depth],
            pending_read: None,
            pending_write: None,
            read_data: None,
            stats: BramStats::default(),
        }
    }

    /// Word capacity.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.words.len()
    }

    /// Issues a read for this cycle; the data is visible after the next
    /// [`tick`](Self::tick).
    ///
    /// # Errors
    ///
    /// Returns [`PortConflict`] if a read was already issued this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range (an address-width violation is a
    /// hardware design error, not a runtime condition).
    #[inline]
    pub fn issue_read(&mut self, addr: usize) -> Result<(), PortConflict> {
        assert!(addr < self.words.len(), "read address {addr} out of range");
        if self.pending_read.is_some() {
            return Err(PortConflict {
                port: PortKind::Read,
                cycle: self.stats.cycles,
            });
        }
        self.pending_read = Some(addr);
        Ok(())
    }

    /// Issues a write for this cycle; it commits at the next
    /// [`tick`](Self::tick).
    ///
    /// # Errors
    ///
    /// Returns [`PortConflict`] if a write was already issued this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    pub fn issue_write(&mut self, addr: usize, data: u64) -> Result<(), PortConflict> {
        assert!(addr < self.words.len(), "write address {addr} out of range");
        if self.pending_write.is_some() {
            return Err(PortConflict {
                port: PortKind::Write,
                cycle: self.stats.cycles,
            });
        }
        self.pending_write = Some((addr, data));
        Ok(())
    }

    /// Advances one clock edge: commits the pending write, latches the
    /// pending read into the output register.
    ///
    /// Write-before-read semantics: a read and a write to the *same*
    /// address in the same cycle returns the **new** data (Xilinx
    /// `WRITE_FIRST` mode).
    #[inline]
    pub fn tick(&mut self) {
        self.stats.cycles += 1;
        let mut used = false;
        if let Some((addr, data)) = self.pending_write.take() {
            self.words[addr] = data;
            self.stats.writes += 1;
            used = true;
        }
        if let Some(addr) = self.pending_read.take() {
            self.read_data = Some(self.words[addr]);
            self.stats.reads += 1;
            used = true;
        } else {
            self.read_data = None;
        }
        if !used {
            self.stats.idle_cycles += 1;
        }
    }

    /// The data latched by the read issued in the previous cycle, if any.
    #[inline]
    #[must_use]
    pub fn read_data(&self) -> Option<u64> {
        self.read_data
    }

    /// Access statistics so far.
    #[inline]
    #[must_use]
    pub fn stats(&self) -> BramStats {
        self.stats
    }

    /// Test-bench backdoor: loads `data` starting at `addr` without
    /// consuming cycles (models pre-loaded memory content).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory depth.
    pub fn preload(&mut self, addr: usize, data: &[u64]) {
        assert!(
            addr + data.len() <= self.words.len(),
            "preload range out of bounds"
        );
        self.words[addr..addr + data.len()].copy_from_slice(data);
    }

    /// Test-bench backdoor: inspects memory without consuming cycles.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the memory depth.
    #[must_use]
    pub fn inspect(&self, addr: usize, len: usize) -> &[u64] {
        assert!(
            addr + len <= self.words.len(),
            "inspect range out of bounds"
        );
        &self.words[addr..addr + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_read_latency() {
        let mut mem = Bram::new(8);
        mem.preload(5, &[42]);
        mem.issue_read(5).unwrap();
        // Before the edge, no data.
        assert_eq!(mem.read_data(), None);
        mem.tick();
        assert_eq!(mem.read_data(), Some(42));
        // Data is only valid for one cycle.
        mem.tick();
        assert_eq!(mem.read_data(), None);
    }

    #[test]
    fn write_then_read() {
        let mut mem = Bram::new(4);
        mem.issue_write(1, 7).unwrap();
        mem.tick();
        mem.issue_read(1).unwrap();
        mem.tick();
        assert_eq!(mem.read_data(), Some(7));
    }

    #[test]
    fn same_cycle_read_write_same_address_is_write_first() {
        let mut mem = Bram::new(4);
        mem.preload(2, &[1]);
        mem.issue_write(2, 99).unwrap();
        mem.issue_read(2).unwrap();
        mem.tick();
        assert_eq!(mem.read_data(), Some(99));
    }

    #[test]
    fn port_conflicts_detected() {
        let mut mem = Bram::new(4);
        mem.issue_read(0).unwrap();
        let err = mem.issue_read(1).unwrap_err();
        assert_eq!(err.port, PortKind::Read);
        assert!(err.to_string().contains("read port"));
        mem.issue_write(0, 1).unwrap();
        assert!(mem.issue_write(1, 2).is_err());
    }

    #[test]
    fn statistics_track_activity() {
        let mut mem = Bram::new(4);
        mem.issue_write(0, 1).unwrap();
        mem.tick(); // write
        mem.issue_read(0).unwrap();
        mem.tick(); // read
        mem.tick(); // idle
        let s = mem.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.idle_cycles, 1);
        assert_eq!(s.cycles, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_read_panics() {
        let mut mem = Bram::new(4);
        let _ = mem.issue_read(4);
    }
}

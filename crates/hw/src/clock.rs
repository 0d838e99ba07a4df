//! The global-clock abstraction: every sequential primitive advances on
//! the same edge.
//!
//! Architectures in `saber-core` drive their components directly. To
//! run raw primitives together — on divided clocks, next to full
//! datapath models, over a shared bus — `saber-soc`'s
//! `ClockedComponent` lifts any [`Clocked`] primitive onto its
//! discrete-event scheduler.

/// A sequential component that advances one clock edge at a time.
pub trait Clocked {
    /// Applies one rising clock edge.
    fn rising_edge(&mut self);
}

impl Clocked for crate::bram::Bram {
    fn rising_edge(&mut self) {
        self.tick();
    }
}

impl Clocked for crate::dsp::Dsp48 {
    fn rising_edge(&mut self) {
        self.tick();
    }
}

impl Clocked for crate::keccak_core::KeccakCore {
    fn rising_edge(&mut self) {
        self.tick();
    }
}

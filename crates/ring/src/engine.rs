//! The hot-path engine.
//!
//! One software backend serves the KEM hot path: the constant-time
//! Toom-4-over-blocked-schoolbook engine ([`CtSchoolbookMultiplier`]).
//! It is the fastest multiplier in the workspace, and its timing is
//! secret-independent, which the `saber-timing` leakage gate holds it
//! to. [`EngineKind`] names it and builds boxed shards for the service
//! layer's worker threads.
//!
//! # Examples
//!
//! ```
//! use saber_ring::engine::EngineKind;
//!
//! let shard = EngineKind::default().build();
//! assert_eq!(shard.name(), "ct-schoolbook constant-time (software)");
//! assert_eq!(EngineKind::Ct.label(), "ct");
//! ```

use crate::ct::CtSchoolbookMultiplier;
use crate::mul::PolyMultiplier;

/// Which multiplier backend serves the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Constant-time Toom-4 over a blocked schoolbook:
    /// secret-independent timing, u16-lane MACs.
    #[default]
    Ct,
}

impl EngineKind {
    /// The engine's label, as reports and metrics record it.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Ct => "ct",
        }
    }

    /// Builds a fresh boxed shard of this engine — the form the service
    /// layer hands each worker thread.
    #[must_use]
    pub fn build(self) -> Box<dyn PolyMultiplier + Send> {
        match self {
            EngineKind::Ct => Box::new(CtSchoolbookMultiplier::new()),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schoolbook;
    use crate::{PolyQ, SecretPoly};

    #[test]
    fn default_builds_a_working_ct_shard() {
        let a = PolyQ::from_fn(|i| (29 * i as u16) & 0x1fff);
        let s = SecretPoly::from_fn(|i| ((i % 11) as i8) - 5);
        let kind = EngineKind::default();
        assert_eq!(kind, EngineKind::Ct);
        assert_eq!(kind.to_string(), "ct");
        assert_eq!(kind.build().multiply(&a, &s), schoolbook::mul_asym(&a, &s));
    }
}

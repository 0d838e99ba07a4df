//! Cross-crate observability glue: the conversions only the umbrella
//! crate can host.
//!
//! The layering rule is that `saber-service` (which owns
//! [`MetricsSnapshot`]) must not depend on `saber-soc` (which owns
//! [`Fingerprint`]) — the service is a pure execution tier and the SoC
//! co-simulation is a pure modeling tier. The snapshot's SoC section is
//! therefore plain data ([`SocSection`]), and this module provides the
//! one conversion that crosses the boundary: [`soc_section`] flattens a
//! scheduler [`Fingerprint`] into the snapshot's shape, so a probed
//! co-sim run can ride along a service metrics document.
//!
//! [`MetricsSnapshot`]: saber_service::MetricsSnapshot
//! [`Fingerprint`]: saber_soc::scheduler::Fingerprint

use saber_service::{SocComponentStats, SocSection};
use saber_soc::scheduler::Fingerprint;

/// Flattens a SoC scheduler fingerprint into the snapshot registry's
/// plain-data SoC section (per-component busy/stall totals plus the bus
/// aggregates; component outputs are dropped — they are run artifacts,
/// not metrics).
#[must_use]
pub fn soc_section(fingerprint: &Fingerprint) -> SocSection {
    SocSection {
        makespan: fingerprint.makespan,
        contended_cycles: fingerprint.bus.contended_cycles,
        read_grants: fingerprint.bus.read_grants,
        write_grants: fingerprint.bus.write_grants,
        components: fingerprint
            .components
            .iter()
            .map(|(name, stats, _output)| SocComponentStats {
                name: name.clone(),
                busy_cycles: stats.busy_cycles,
                stall_cycles: stats.stall_cycles,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_service::metrics::Metrics;
    use saber_service::{lint_prometheus, MetricsSnapshot};
    use saber_soc::{run_scenario, ScenarioConfig};

    const SEED: u64 = 0xC0DE_CAB1;

    #[test]
    fn fingerprint_flattens_losslessly_into_the_snapshot() {
        let (outcome, _) = run_scenario(&ScenarioConfig::reference(SEED, 1));
        let soc = soc_section(&outcome.fingerprint);
        assert_eq!(soc.makespan, 395);
        assert_eq!(soc.contended_cycles, 19);
        assert_eq!(soc.components.len(), 3);
        for ((name, stats, _), flat) in outcome.fingerprint.components.iter().zip(&soc.components) {
            assert_eq!(&flat.name, name);
            assert_eq!(flat.busy_cycles, stats.busy_cycles);
            assert_eq!(flat.stall_cycles, stats.stall_cycles);
        }

        // The full cross-crate path: fingerprint → snapshot → JSON →
        // snapshot, and the Prometheus exposition lints clean.
        let report = Metrics::default().snapshot(1, 4, 0);
        let snap = MetricsSnapshot::new(report).with_soc(soc);
        let back = MetricsSnapshot::from_json_str(&snap.to_json_string()).expect("round-trips");
        assert_eq!(back, snap);
        lint_prometheus(&snap.to_prometheus()).expect("exposition lints clean");
        let text = snap.to_prometheus();
        assert!(text.contains("saber_soc_makespan_cycles 395"), "{text}");
    }
}

//! Concurrent KEM service layer: the multi-core execution tier of the
//! Saber multiplier reproduction.
//!
//! The paper's high-speed designs win by keeping many MAC lanes busy on
//! one shared operand stream; the
//! [`CtSchoolbookMultiplier`](saber_ring::CtSchoolbookMultiplier)
//! engine's `u16` MAC lanes are that idea in software, but on one
//! thread. This crate scales the same verified datapath across cores the way the
//! ASIC design-space work replicates compute units: a fixed pool of
//! worker threads, each owning its **own multiplier shard** (no lock,
//! no sharing on the hot path), fed by **per-worker bounded deques with
//! seeded work stealing** whose backpressure policy is reject-with-error
//! — a saturated service answers with explicit
//! [`SubmitError::QueueFull`] responses, never with unbounded buffering
//! or blocked submitters. The service is deterministic given the same
//! seeds and [`ServiceConfig`]; the configuration is written in code and
//! no environment variable changes it.
//!
//! Everything is `std`-only (`std::thread` + `std::sync`) and fully
//! offline, like the rest of the workspace.
//!
//! * [`steal`] — per-worker bounded deques with seeded work stealing
//!   (backpressure + draining close), the service's dispatch;
//! * [`service`] — the [`KemService`] pool: typed job handles, panic
//!   containment, graceful shutdown;
//! * [`metrics`] — atomic counters, fixed-bucket latency histograms,
//!   and the [`ServiceReport`] JSON snapshot;
//! * [`loadgen`] — the deterministic seeded load generator whose
//!   transcripts prove N-worker execution ≡ sequential execution;
//! * [`obs`] — process-wide observability hooks: flight-recorder
//!   arming and the crash-dump panic hook (both installed by
//!   [`KemService::spawn`]);
//! * [`snapshot`] — the unified [`MetricsSnapshot`] registry merging
//!   the service report, trace counters, flight status, and SoC
//!   fingerprint into one versioned JSON document
//!   plus a linted Prometheus text exposition.
//!
//! # Examples
//!
//! ```
//! use saber_kem::params::SABER;
//! use saber_service::{KemService, ServiceConfig};
//!
//! let config = ServiceConfig { workers: 2, queue_capacity: 8, ..ServiceConfig::default() };
//! let service = KemService::spawn(&config);
//! let (pk, _sk) = service.submit_keygen(&SABER, [1; 32]).unwrap().wait().unwrap();
//! let (_ct, ss) = service.submit_encaps(pk, [2; 32]).unwrap().wait().unwrap();
//! let report = service.shutdown();
//! assert_eq!(report.completed, 2);
//! assert_eq!(report.rejected, 0);
//! println!("{}", report.to_json_string());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
pub mod metrics;
pub mod obs;
pub mod service;
pub mod snapshot;
pub mod steal;

pub use loadgen::{
    build_plan, run_sequential, run_service, LoadPlan, LoadProfile, OpMix, Transcript,
};
pub use metrics::{OpKind, ServiceReport};
pub use service::{
    Gate, JobError, JobHandle, KemService, OverloadPolicy, SchedulerKind, ServiceConfig,
    SubmitError,
};
pub use steal::{StealTally, WorkStealQueue};
pub use snapshot::{
    lint_prometheus, FlightStatus, MetricsSnapshot, SocComponentStats, SocSection,
};

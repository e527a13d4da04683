//! # emu — the trace-driven emulation harness
//!
//! Reproduces the paper's experimental environment (§VI-A): many DTN
//! application instances on one machine, each paired with a replica,
//! driven by a vehicular mobility trace (encounters) and an e-mail
//! workload (message injections), with optional bandwidth and storage
//! constraints (§VI-D) and full delay/traffic/storage metrics.
//!
//! * [`Emulation`] / [`EmulationConfig`] — one run.
//! * [`ExperimentMetrics`] — delays, CDFs, copy accounting.
//! * [`SweepRunner`] — bounded parallel execution for multi-run sweeps.
//! * [`experiments`] — canned runners for every figure of the paper.
//! * [`report`] — paper-style table and series rendering.
//!
//! ```
//! use emu::{Emulation, EmulationConfig};
//! use emu::experiments::Scenario;
//! use dtn::PolicyKind;
//!
//! let scenario = Scenario::small();
//! let config = EmulationConfig::for_policy(PolicyKind::Epidemic);
//! let metrics = Emulation::new(&scenario.trace, &scenario.workload, config).run();
//! assert_eq!(metrics.duplicates, 0); // no copy sent to a target that knew it
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod metrics;
mod shard;
mod sweep;

pub mod experiments;
pub mod report;
pub mod topology;

pub use engine::{storage_footprint, Emulation, EmulationConfig, PolicySpec, StorageFootprint};
pub use metrics::{CdfPoint, DayStats, ExperimentMetrics, MessageRecord};
pub use sweep::SweepRunner;

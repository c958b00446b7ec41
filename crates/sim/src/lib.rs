//! Cycle-level out-of-order superscalar / SMT simulator with wrong-path
//! modeling.
//!
//! This crate is the timing substrate of the PaCo reproduction: a
//! trace-driven model of the paper's 4-wide out-of-order processor
//! (Table 6) and its 8-wide 2-thread SMT variant (Table 11). It models:
//!
//! * a front end with branch prediction (tournament + BTB + RAS +
//!   indirect), JRS confidence reads, path-confidence hooks, I-cache
//!   stalls, **pipeline gating** and **SMT fetch prioritization**;
//! * a dynamically shared reorder buffer and scheduler, general-purpose
//!   functional units, and a two-level cache hierarchy;
//! * **wrong-path execution**: mispredicted branches redirect fetch into
//!   synthetic wrong-path streams whose instructions consume real
//!   resources and allocate real confidence state until recovery;
//! * a goodpath **oracle** and per-instance confidence sampling, exactly
//!   as the paper's reliability-diagram methodology requires.
//!
//! # Examples
//!
//! ```
//! use paco_sim::{MachineBuilder, SimConfig, EstimatorKind, GatingPolicy};
//! use paco::PacoConfig;
//! use paco_types::Probability;
//! use paco_workloads::BenchmarkId;
//!
//! // Pipeline gating at a 20% goodpath-probability target (paper §5.1).
//! let mut machine = MachineBuilder::new(SimConfig::paper_4wide())
//!     .thread(
//!         Box::new(BenchmarkId::Gzip.build(1)),
//!         EstimatorKind::Paco(PacoConfig::paper()),
//!     )
//!     .gating(GatingPolicy::paco_gate(Probability::new(0.2).unwrap()))
//!     .build();
//! let stats = machine.run(10_000);
//! assert!(stats.threads[0].retired >= 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod cache;
mod config;
mod estimator_kind;
mod machine;
mod online;
mod policy;
mod stats;

pub use batch::OutcomeBatch;
pub use cache::{Cache, CacheConfig, CacheHierarchy};
pub use config::SimConfig;
pub use estimator_kind::{EstimatorKind, NullEstimator};
pub use machine::{Machine, MachineBuilder, TraceSink};
pub use online::{OnlineConfig, OnlineOutcome, OnlinePipeline};
pub use policy::{FetchPolicy, GatingPolicy};
pub use stats::{MachineStats, ThreadStats, PROB_BINS, SCORE_BINS};

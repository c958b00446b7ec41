//! The experiment engine and harnesses reproducing the PaCo paper's
//! tables and figures.
//!
//! # Architecture
//!
//! | layer | module | role |
//! |---|---|---|
//! | spec | [`spec`] | declarative cell grids with stable content hashes |
//! | execution | [`engine`] | sharded parallel runner, bit-identical to sequential |
//! | cache | [`cache`] | content-addressed on-disk result store |
//! | presentation | [`experiments`], [`cli`] | named experiments, rendering, `paco-bench` CLI |
//!
//! Every paper artifact is a *named experiment* — a declarative
//! [`ExperimentSpec`](spec::ExperimentSpec) plus a render function — run
//! through one engine:
//!
//! ```sh
//! paco-bench list
//! paco-bench run fig9 --jobs 8
//! paco-bench run all
//! ```
//!
//! | experiment | paper artifact |
//! |---|---|
//! | `fig2` | Fig. 2 — per-MDC-bucket mispredict rates |
//! | `fig3` | Fig. 3 — goodpath probability at counter = 5 |
//! | `tab7` | Fig. 7 (table) — RMS error + mispredict rates |
//! | `fig9` | Figs. 8–9 — reliability diagrams |
//! | `fig10` | Fig. 10 — pipeline gating trade-off curves |
//! | `fig12` | Fig. 12 — SMT fetch prioritization (HMWIPC) |
//! | `tab_a1` | Appendix Table 1 — MRT variants ablation |
//! | `ablations` | refresh-period / log-mode / throttling ablations |
//!
//! Run one artifact with `paco-bench run <name>` (e.g. `paco-bench run
//! fig2`). Run lengths default to values that complete in minutes; set
//! `PACO_INSTRS` (instructions per run) and `PACO_SEED` to override.

#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod engine;
pub mod experiments;
pub mod json;
pub mod runner;
pub mod spec;

pub use runner::{
    accuracy_run, default_instrs, default_seed, default_warmup, gating_run, single_thread_ipc_smt,
    smt_run, AccuracyResult, GatingResult, SmtResult,
};

//! Synthetic workload corpus: parametric families for robustness sweeps.
//!
//! The twelve benchmark models in `paco-workloads` imitate the paper's
//! SPEC2000int suite — the workloads the estimator was *tuned against*.
//! This crate answers the complementary question: **where does the
//! estimator break?** It defines six parametric workload *families*,
//! each isolating one branch-behaviour mechanism:
//!
//! | family | mechanism |
//! |---|---|
//! | `loop_nest` | counted loops whose trips straddle the history length |
//! | `call_chain` | call/return-dominated walks stressing the RAS |
//! | `phased_flip` | easy/hard regime switches every *period* instructions |
//! | `markov_walk` | a pure Markov chain over PCs, per-site bias continuum |
//! | `mispredict_storm` | coin flips + bursts + indirect churn (adversarial) |
//! | `biased_bimodal` | near-always-taken floor (trivially predictable) |
//!
//! A [`CorpusFamily`] is a `Copy` recipe (discriminant + knob struct)
//! with a [`Canon`](paco_types::canon::Canon) encoding, so experiment
//! cells built over corpus workloads content-hash and cache exactly like
//! benchmark cells. Building a family with a seed yields a
//! [`CfgWorkload`](paco_workloads::CfgWorkload) — byte-identical for
//! equal `(recipe, seed)` on any platform or thread — and the
//! [`generate`] pipeline materializes entries into paco-trace files
//! through the simulator's `TraceSink` hook for `paco-served` /
//! `paco-load` use.
//!
//! The named default corpus is [`CORPUS`]; `paco-bench run robustness`
//! sweeps every estimator kind across it. The human-facing catalog —
//! knobs, behaviour sketches, expected difficulty — is
//! `docs/WORKLOADS.md`, kept honest by `tests/doc_drift.rs`.
//!
//! # Examples
//!
//! ```
//! use paco_corpus::{find_entry, CORPUS};
//! use paco_workloads::Workload;
//!
//! let entry = find_entry("markov_walk").unwrap();
//! let mut w = entry.family.build(entry.seed);
//! assert_eq!(w.name(), "markov_walk");
//! assert!(w.next_instr().pc.addr() > 0);
//! assert_eq!(CORPUS.len(), 6);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod family;
mod gen;
mod manifest;
mod profiles;

pub use family::{
    BiasedBimodalParams, CallChainParams, CorpusFamily, LoopNestParams, MarkovWalkParams,
    MispredictStormParams, PhasedFlipParams,
};
pub use gen::{generate, GenOptions, GenReport};
pub use manifest::{find_entry, CorpusEntry, CORPUS};
pub use profiles::{
    compute_reference, prob_bin, reference_profile, CalibrationProfile, PROFILE_BINS,
    PROFILE_WARMUP, PROFILE_WINDOW, REFERENCE_INSTRS, REFERENCE_PROFILE_HASHES,
};

//! PaCo: probability-based path confidence prediction.
//!
//! This crate implements the paper's primary contribution. A *path
//! confidence* estimate is the probability that the processor front end is
//! currently fetching instructions that will eventually retire (the
//! "goodpath"). Under a branch-independence assumption this is the product
//! of the correct-prediction probabilities of every unresolved branch
//! (paper Eq. 1):
//!
//! ```text
//! P(goodpath) = ∏ₖ P(branch k correctly predicted)
//! ```
//!
//! PaCo works in the log domain so the hardware needs only integer
//! addition/subtraction (Eqs. 2–3): every branch contributes an *encoded
//! probability* `⌈−1024·log₂ P(correct)⌉`, clamped to 2¹², and the path
//! confidence register is the running **sum** of the encoded probabilities
//! of the unresolved branches. Per-MDC-bucket correct/mispredict counters
//! (the Mispredict Rate Table) are converted to encodings every 200 000
//! cycles by a Mitchell binary-log circuit.
//!
//! The crate also provides the baselines the paper compares against:
//! the conventional **threshold-and-count** predictor, and the Appendix-A
//! ablations (**static MRT** and **per-branch MRT**).
//!
//! # Examples
//!
//! ```
//! use paco::{PacoPredictor, PacoConfig, PathConfidenceEstimator, BranchFetchInfo};
//! use paco_branch::Mdc;
//!
//! let mut paco = PacoPredictor::new(PacoConfig::paper());
//! // A branch with MDC value 0 (just mispredicted) is fetched:
//! let token = paco.on_fetch(BranchFetchInfo::conditional(Mdc::new(0)));
//! // The predictor's goodpath probability is well defined (PaCo's whole
//! // point) and returns to certainty once the branch resolves:
//! assert!(paco.goodpath_probability().unwrap().value() <= 1.0);
//! paco.on_resolve(token, false);
//! assert_eq!(paco.goodpath_probability().unwrap().value(), 1.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod calculator;
mod encoded;
mod estimator;
mod log_circuit;
mod mrt;
mod paco_predictor;
mod threshold_count;
mod variants;

pub use adaptive::{AdaptiveMrtConfig, AdaptiveMrtPredictor};
pub use calculator::PathConfidenceCalculator;
pub use encoded::{decode_score, EncodedProb};
pub use estimator::{BranchFetchInfo, BranchToken, ConfidenceScore, PathConfidenceEstimator};
pub use log_circuit::{LogCircuit, LogMode};
pub use mrt::{MispredictRateTable, MrtBucket};
pub use paco_predictor::{PacoConfig, PacoPredictor};
pub use threshold_count::{ThresholdCountConfig, ThresholdCountPredictor};
pub use variants::{PerBranchMrtConfig, PerBranchMrtPredictor, StaticMrtPredictor};

//! Branch direction/target prediction and JRS confidence estimation.
//!
//! This crate implements the branch-prediction substrate the PaCo paper
//! builds on:
//!
//! * a **bimodal** predictor (2-bit saturating counters indexed by PC),
//! * a **gshare** predictor (counters indexed by PC ⊕ global history),
//! * the paper's **tournament/hybrid** predictor (32KB gshare + 32KB
//!   bimodal + 32KB selector, 8 bits of global history),
//! * a **branch target buffer**, **return-address stack** and a last-target
//!   **indirect** predictor,
//! * the **JRS** and **enhanced JRS** confidence predictors: tables of 4-bit
//!   miss-distance counters (MDCs) that count consecutive correct
//!   predictions per branch.
//!
//! The MDC value is the *stratifier* that PaCo uses to assign a
//! correct-prediction probability to every in-flight branch.
//!
//! # Examples
//!
//! ```
//! use paco_branch::{TournamentPredictor, DirectionPredictor};
//! use paco_types::Pc;
//!
//! let mut pred = TournamentPredictor::paper_default();
//! let pc = Pc::new(0x1000);
//! // Train an always-taken branch.
//! for _ in 0..8 {
//!     let hist = 0;
//!     let p = pred.predict(pc, hist);
//!     pred.update(pc, hist, true, p);
//! }
//! assert!(pred.predict(pc, 0));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod bimodal;
mod btb;
mod confidence;
mod counter;
mod gshare;
mod indirect;
mod ras;
mod tournament;

pub use bimodal::BimodalPredictor;
pub use btb::{Btb, BtbConfig};
pub use confidence::{ConfidenceConfig, Mdc, MdcIndex, MdcTable};
pub use counter::{CounterTable, SaturatingCounter};
pub use gshare::GsharePredictor;
pub use indirect::IndirectPredictor;
pub use ras::ReturnAddressStack;
pub use tournament::{TournamentConfig, TournamentPredictor};

use paco_types::Pc;

/// A conditional-branch direction predictor.
///
/// The front end owns the global-history register and passes the current
/// history bits explicitly, which makes checkpoint/restore on mispredict
/// recovery trivial for the caller.
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at `pc` under `history`.
    fn predict(&self, pc: Pc, history: u64) -> bool;

    /// Trains the predictor with the resolved outcome.
    ///
    /// `predicted` is the direction that was predicted for this dynamic
    /// instance (needed by choosers that train on agreement).
    fn update(&mut self, pc: Pc, history: u64, taken: bool, predicted: bool);
}

//! Shared vocabulary types for the PaCo reproduction.
//!
//! This crate holds the small, dependency-free types that every other crate
//! in the workspace speaks: program counters, dynamic instruction
//! descriptors, branch outcomes, global-history registers, probabilities,
//! and a deterministic pseudo-random number generator.
//!
//! # Examples
//!
//! ```
//! use paco_types::{Pc, SplitMix64, Probability};
//!
//! let pc = Pc::new(0x4000_1000);
//! assert_eq!(pc.block(6), 0x4000_1000 >> 6);
//!
//! let mut rng = SplitMix64::new(42);
//! let p = Probability::new(0.25).unwrap();
//! let hits = (0..10_000).filter(|_| rng.chance(p)).count();
//! assert!((hits as f64 - 2_500.0).abs() < 250.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
pub mod canon;
pub mod fingerprint;
mod history;
mod instr;
mod pc;
mod prob;
mod rng;
pub mod wire;

pub use batch::EventBatch;
pub use history::GlobalHistory;
pub use instr::{ControlKind, DynInstr, InstrClass, MemAccess};
pub use pc::Pc;
pub use prob::{Probability, ProbabilityError};
pub use rng::SplitMix64;

/// A simulation cycle count.
pub type Cycle = u64;

/// A hardware thread identifier in SMT configurations.
///
/// The paper's SMT experiments use two threads; we allow up to
/// [`ThreadId::MAX_THREADS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(pub u8);

impl ThreadId {
    /// Maximum number of hardware threads supported by the simulator.
    pub const MAX_THREADS: usize = 8;

    /// Returns the thread id as an index usable for per-thread arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_index_round_trips() {
        for i in 0..ThreadId::MAX_THREADS as u8 {
            assert_eq!(ThreadId(i).index(), i as usize);
        }
    }

    #[test]
    fn thread_id_displays_compactly() {
        assert_eq!(ThreadId(1).to_string(), "T1");
    }
}

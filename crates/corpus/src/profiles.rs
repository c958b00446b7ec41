//! Reference calibration profiles: what each corpus family's confidence
//! stream *normally* looks like.
//!
//! The serving layer's drift detector (`paco-watch`) needs a labeled
//! baseline per workload family: "a healthy `biased_bimodal` session
//! distributes its predicted goodpath probabilities like *this* and
//! mispredicts at *this* rate". This module computes those baselines by
//! replaying each [`CORPUS`] entry through the default (paper-profile
//! PaCo) [`OnlinePipeline`] and summarizing the post-warmup confidence
//! stream as a [`CalibrationProfile`] — probability-bin occupancy plus a
//! mispredict rate.
//!
//! Profiles are *shipped as generated data*: they are a pure function of
//! `(family recipe, manifest seed, OnlineConfig::default(),`
//! [`REFERENCE_INSTRS`]`)`, computed lazily on first use and pinned by
//! canonical hash in [`REFERENCE_PROFILE_HASHES`]. A change to any
//! ingredient (family knobs, estimator defaults, the profile layout)
//! breaks the pinned-hash test and must re-pin the constants in the same
//! change — exactly the regime `docs/WORKLOADS.md` uses for family
//! hashes. Regenerate the table with `paco-corpus profiles`.

use std::sync::OnceLock;

use paco_sim::{OnlineConfig, OnlinePipeline};
use paco_types::canon::Canon;
use paco_types::wire::{read_uvarint, write_uvarint};
use paco_workloads::Workload;

use crate::manifest::{CorpusEntry, CORPUS};

/// Number of probability bins in a calibration profile: 5%-wide bins
/// centered on 0%, 5%, …, 100%.
pub const PROFILE_BINS: usize = 21;

/// Rolling-window length, in control events, used both here (warmup
/// skipping) and by the serving layer's per-session watch windows.
pub const PROFILE_WINDOW: u64 = 2048;

/// Control events skipped before a profile starts recording, absorbing
/// the predictor's cold-start transient (empty tables predict poorly in
/// ways no steady-state baseline should include).
pub const PROFILE_WARMUP: u64 = 2 * PROFILE_WINDOW;

/// Workload instructions replayed to build each reference profile.
pub const REFERENCE_INSTRS: u64 = 160_000;

/// The probability bin an estimate falls into: `round(p * 20)` after
/// clamping to `[0, 1]`. Pure integer-exact IEEE arithmetic, so every
/// build bins identically. Inline: the serving layer's per-event watch
/// lane calls this per event, and without the hint it stays an
/// out-of-line cross-crate call.
#[inline]
pub fn prob_bin(p: f64) -> usize {
    let x = p.clamp(0.0, 1.0) * (PROFILE_BINS - 1) as f64;
    // round() spelled as trunc + half-test: baseline x86-64 lowers
    // `f64::round` to a libm call. For non-negative x both `x as usize`
    // (truncation) and `x - trunc(x)` are exact, so this is bit-for-bit
    // `x.round()`.
    let t = x as usize;
    (t + (x - t as f64 >= 0.5) as usize).min(PROFILE_BINS - 1)
}

/// A calibration summary of a confidence stream: per-probability-bin
/// `(instances, correct predictions)` occupancy plus overall event and
/// mispredict counters. `Copy` and fixed-size so the serving layer can
/// keep one per session (and one per rolling window) with zero
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CalibrationProfile {
    bins: [(u64, u64); PROFILE_BINS],
    events: u64,
    mispredicts: u64,
}

impl CalibrationProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one outcome: the predicted goodpath probability (if the
    /// estimator produced one) and whether the branch mispredicted.
    #[inline]
    pub fn record(&mut self, prob: Option<f64>, mispredicted: bool) {
        self.record_bin(prob.map(prob_bin), mispredicted);
    }

    /// Records one outcome whose probability is already binned. Same
    /// computation as [`record`](Self::record) (which delegates here),
    /// so the two cannot drift. Bins at or above [`PROFILE_BINS`] land
    /// in the top bin.
    #[inline]
    pub fn record_bin(&mut self, bin: Option<usize>, mispredicted: bool) {
        self.add_counts(1, mispredicted as u64);
        if let Some(b) = bin {
            self.add_bin(b, 1, !mispredicted as u64);
        }
    }

    /// Adds `events` events, `mispredicts` of them mispredicted, to the
    /// overall counters without binning anything. Batch recorders
    /// accumulate these two counters in registers across a chunk and
    /// settle them once; [`record_bin`](Self::record_bin) delegates
    /// here, so the per-event and batched spellings cannot drift.
    #[inline]
    pub fn add_counts(&mut self, events: u64, mispredicts: u64) {
        self.events += events;
        self.mispredicts += mispredicts;
    }

    /// Adds `instances` occupants (`correct` of them predicted
    /// correctly) to probability bin `bin`, clamped into range — the
    /// binning half of [`record_bin`](Self::record_bin), which
    /// delegates here.
    #[inline]
    pub fn add_bin(&mut self, bin: usize, instances: u64, correct: u64) {
        let b = &mut self.bins[bin.min(PROFILE_BINS - 1)];
        b.0 += instances;
        b.1 += correct;
    }

    /// Adds every counter of `other` into `self`. Lets a recorder keep
    /// only a small rolling window hot (fewer counters touched per
    /// event) and fold each completed window into a lifetime profile in
    /// one step: recording events into `w` and absorbing `w` is
    /// equivalent to recording the same events directly.
    pub fn absorb(&mut self, other: &CalibrationProfile) {
        self.events += other.events;
        self.mispredicts += other.mispredicts;
        for (bin, o) in self.bins.iter_mut().zip(&other.bins) {
            bin.0 += o.0;
            bin.1 += o.1;
        }
    }

    /// Resets the profile to empty (rolling-window reuse).
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// The `(instances, correct)` occupancy bins, low probability first.
    pub fn bins(&self) -> &[(u64, u64)] {
        &self.bins
    }

    /// Control events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Mispredicted events recorded.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }

    /// Events that carried a probability estimate (the sum of bin
    /// occupancy).
    pub fn with_prob(&self) -> u64 {
        self.bins.iter().map(|&(n, _)| n).sum()
    }

    /// Appends every counter as a varint: events, mispredicts, then each
    /// bin's `(instances, correct)`. The serving layer parks a session's
    /// watch telemetry with it.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.events);
        write_uvarint(out, self.mispredicts);
        for &(instances, correct) in &self.bins {
            write_uvarint(out, instances);
            write_uvarint(out, correct);
        }
    }

    /// Reads a profile written by [`save_state`](Self::save_state),
    /// advancing `input`; `None` on truncation.
    pub fn load_state(input: &mut &[u8]) -> Option<Self> {
        let mut profile = Self::new();
        profile.events = read_uvarint(input)?;
        profile.mispredicts = read_uvarint(input)?;
        for bin in &mut profile.bins {
            *bin = (read_uvarint(input)?, read_uvarint(input)?);
        }
        Some(profile)
    }

    /// Fraction of recorded events that mispredicted (0 when empty).
    pub fn mispredict_rate(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.events as f64
        }
    }
}

impl Canon for CalibrationProfile {
    fn canon(&self, out: &mut Vec<u8>) {
        1u8.canon(out); // profile layout version
        self.bins[..].canon(out);
        self.events.canon(out);
        self.mispredicts.canon(out);
    }
}

/// Computes the reference profile of one corpus entry: replay
/// [`REFERENCE_INSTRS`] instructions of `entry.family` (manifest seed)
/// through a default-config [`OnlinePipeline`], skip the first
/// [`PROFILE_WARMUP`] control events, and profile the rest. Pure
/// function of its inputs — identical on every platform and run.
pub fn compute_reference(entry: &CorpusEntry) -> CalibrationProfile {
    let mut workload = entry.family.build(entry.seed);
    let mut pipeline = OnlinePipeline::new(&OnlineConfig::default());
    let mut profile = CalibrationProfile::new();
    let mut seen = 0u64;
    for _ in 0..REFERENCE_INSTRS {
        let instr = workload.next_instr();
        if let Some(outcome) = pipeline.on_instr(&instr) {
            seen += 1;
            if seen > PROFILE_WARMUP {
                profile.record(outcome.probability(), outcome.mispredicted);
            }
        }
    }
    profile
}

/// The pinned canonical hashes of every reference profile, in [`CORPUS`]
/// order. `cargo test -p paco-corpus` recomputes each profile and
/// asserts these values; regenerate with `paco-corpus profiles` when a
/// deliberate change moves them.
pub const REFERENCE_PROFILE_HASHES: [(&str, u64); 6] = [
    ("loop_nest", 0xe01f8f823ece17c6),
    ("call_chain", 0xf498c8095d7c6287),
    ("phased_flip", 0xf260528f1addc7e2),
    ("markov_walk", 0x15e51ff18f19972b),
    ("mispredict_storm", 0x675490d374a66e1f),
    ("biased_bimodal", 0x6234575da4ba3fcc),
];

/// The reference profile for the named corpus family (case-insensitive),
/// computed on first use and cached for the process lifetime. `None` for
/// names outside the manifest.
pub fn reference_profile(name: &str) -> Option<&'static CalibrationProfile> {
    // The const exists only as an array-repeat initializer (OnceLock is
    // not Copy and inline-const array init needs a newer MSRV).
    #[allow(clippy::declare_interior_mutable_const)]
    const EMPTY: OnceLock<CalibrationProfile> = OnceLock::new();
    static CELLS: [OnceLock<CalibrationProfile>; CORPUS.len()] = [EMPTY; CORPUS.len()];
    let index = CORPUS
        .iter()
        .position(|e| e.name.eq_ignore_ascii_case(name))?;
    Some(CELLS[index].get_or_init(|| compute_reference(&CORPUS[index])))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prob_bin_covers_the_unit_interval() {
        assert_eq!(prob_bin(0.0), 0);
        assert_eq!(prob_bin(0.024), 0);
        assert_eq!(prob_bin(0.026), 1);
        assert_eq!(prob_bin(0.5), 10);
        assert_eq!(prob_bin(1.0), 20);
        assert_eq!(prob_bin(-3.0), 0);
        assert_eq!(prob_bin(7.0), 20);
        assert_eq!(prob_bin(f64::NAN), 0); // clamp(NaN) -> 0.0 bound
    }

    #[test]
    fn record_accumulates_bins_and_counters() {
        let mut p = CalibrationProfile::new();
        p.record(Some(0.9), false);
        p.record(Some(0.9), true);
        p.record(None, true);
        assert_eq!(p.events(), 3);
        assert_eq!(p.mispredicts(), 2);
        assert_eq!(p.with_prob(), 2);
        assert_eq!(p.bins()[prob_bin(0.9)], (2, 1));
        assert!((p.mispredict_rate() - 2.0 / 3.0).abs() < 1e-12);
        p.clear();
        assert_eq!(p, CalibrationProfile::new());
    }

    /// Recording into a window and absorbing it must equal recording
    /// directly — the equivalence the serving layer's deferred lifetime
    /// fold relies on.
    #[test]
    fn absorb_equals_direct_recording() {
        let events = [(Some(0.9), false), (Some(0.1), true), (None, true)];
        let mut direct = CalibrationProfile::new();
        let mut total = CalibrationProfile::new();
        for round in 0..3 {
            let mut window = CalibrationProfile::new();
            for &(p, m) in &events[round..] {
                direct.record(p, m);
                window.record(p, m);
            }
            total.absorb(&window);
        }
        assert_eq!(total, direct);
    }

    /// The shipped-data contract: regenerating every reference profile
    /// reproduces the pinned canonical hashes. A deliberate change to
    /// family knobs, estimator defaults or the profile layout must
    /// re-pin `REFERENCE_PROFILE_HASHES` in the same change
    /// (`paco-corpus profiles` prints the new table).
    #[test]
    fn reference_profiles_match_pinned_hashes() {
        assert_eq!(REFERENCE_PROFILE_HASHES.len(), CORPUS.len());
        for (entry, &(name, hash)) in CORPUS.iter().zip(&REFERENCE_PROFILE_HASHES) {
            assert_eq!(entry.name, name, "pin order must match the manifest");
            let profile = reference_profile(name).unwrap();
            assert!(
                profile.events() > 0 && profile.with_prob() > 0,
                "{name}: reference profile must not be empty"
            );
            assert_eq!(
                profile.canon_hash(),
                hash,
                "{name}: reference profile drifted from its pinned hash \
                 (re-pin via `paco-corpus profiles` if deliberate)"
            );
        }
    }

    #[test]
    fn unknown_family_has_no_profile() {
        assert!(reference_profile("no_such_family").is_none());
        // Case-insensitive like `find_entry`.
        assert!(reference_profile("BIASED_BIMODAL").is_some());
    }
}

//! The adaptive (change-point-aware) MRT variant.
//!
//! PaCo's fixed 200k-cycle refresh period is the wrong tool for
//! workloads whose branch behaviour flips between regimes faster than
//! the period: the MRT latches encodings measured across the flip, and
//! the calculator then sums stale probabilities for up to half a window
//! (the `phased_flip` negative result in docs/WORKLOADS.md). This
//! module closes that gap with explicit change detection rather than a
//! shorter window:
//!
//! * every resolved conditional branch feeds a rolling mispredict rate,
//!   chopped into fixed-size detection windows;
//! * the first few windows after each refresh form a *baseline* rate;
//!   subsequent windows feed `|rate − baseline|` into a one-sided
//!   [`CusumDetector`] (the same primitive the watch plane uses);
//! * when the CUSUM latches, the contaminated MRT counters are
//!   discarded and — after a short settle interval measured in pure
//!   post-change resolves — an **early refresh** latches encodings for
//!   the new regime instead of waiting out the period;
//! * optionally, each refresh *blends* the measured encodings with the
//!   static Figure-2 profile, weighted by which of the two better
//!   calibrated the just-measured counters (reliability RMS, reusing
//!   `paco_analysis`): when the dynamic path has been reliable it
//!   dominates, and when regimes churn faster than it can track, the
//!   latch slides toward the static prior that `phased_flip` rewards.

use crate::estimator::{BranchFetchInfo, BranchToken, ConfidenceScore};
use crate::variants::DEFAULT_MDC_CORRECT_PROFILE;
use crate::{
    EncodedProb, LogCircuit, LogMode, MispredictRateTable, PathConfidenceCalculator,
    PathConfidenceEstimator,
};
use paco_analysis::{CusumDetector, ReliabilityDiagram};
use paco_branch::Mdc;
use paco_types::canon::Canon;
use paco_types::{wire, Probability};

/// Configuration for an [`AdaptiveMrtPredictor`].
///
/// All knobs are integers (rates in permille) so the configuration is
/// `Copy + Eq` and canon-hashes without floating-point bit games.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveMrtConfig {
    /// Cycles between periodic MRT refreshes (the PaCo baseline period;
    /// change detection only ever *shortens* the effective window).
    pub refresh_period: u64,
    /// Which log implementation the refresh circuit uses.
    pub log_mode: LogMode,
    /// Resolved conditional branches per detection window.
    pub detect_window: u32,
    /// CUSUM per-window drift threshold, in permille of absolute
    /// mispredict-rate divergence from the baseline.
    pub threshold_permille: u32,
    /// CUSUM latch limit, in permille (accumulated excess divergence).
    pub limit_permille: u32,
    /// Windows after each refresh that form the baseline rate before
    /// divergence accumulation starts.
    pub warmup_windows: u32,
    /// Whether refreshes blend measured encodings with the static
    /// profile by recent calibration error.
    pub blend: bool,
}

impl AdaptiveMrtConfig {
    /// The reference configuration used by the robustness sweep: the
    /// paper's refresh period and log circuit, with detection tuned so
    /// a `phased_flip`-sized rate step (tens of percent) latches within
    /// a few windows while steady-state noise (about a percent per
    /// window at 512 resolves) never accumulates.
    pub const fn paper() -> Self {
        AdaptiveMrtConfig {
            refresh_period: 200_000,
            log_mode: LogMode::Mitchell,
            detect_window: 512,
            threshold_permille: 30,
            limit_permille: 60,
            warmup_windows: 2,
            blend: true,
        }
    }

    /// Overrides the refresh period, builder-style.
    pub const fn with_refresh_period(mut self, cycles: u64) -> Self {
        self.refresh_period = cycles;
        self
    }

    /// Overrides the detection window, builder-style.
    pub const fn with_detect_window(mut self, resolves: u32) -> Self {
        self.detect_window = resolves;
        self
    }

    /// Enables or disables the calibration-weighted blend, builder-style.
    pub const fn with_blend(mut self, blend: bool) -> Self {
        self.blend = blend;
        self
    }
}

impl Default for AdaptiveMrtConfig {
    fn default() -> Self {
        AdaptiveMrtConfig::paper()
    }
}

impl Canon for AdaptiveMrtConfig {
    fn canon(&self, out: &mut Vec<u8>) {
        out.push(0x14); // type tag
        self.refresh_period.canon(out);
        self.log_mode.canon(out);
        self.detect_window.canon(out);
        self.threshold_permille.canon(out);
        self.limit_permille.canon(out);
        self.warmup_windows.canon(out);
        self.blend.canon(out);
    }
}

/// The adaptive MRT predictor: PaCo's MRT + calculator + log circuit,
/// plus CUSUM change detection on the rolling mispredict rate that
/// triggers early refreshes (see the module docs for the mechanism).
///
/// # Examples
///
/// ```
/// use paco::{AdaptiveMrtPredictor, AdaptiveMrtConfig, PathConfidenceEstimator};
/// use paco::BranchFetchInfo;
/// use paco_branch::Mdc;
///
/// let mut pred = AdaptiveMrtPredictor::new(AdaptiveMrtConfig::paper());
/// let t = pred.on_fetch(BranchFetchInfo::conditional(Mdc::new(0)));
/// assert!(pred.goodpath_probability().unwrap().value() <= 1.0);
/// pred.on_resolve(t, false);
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveMrtPredictor {
    mrt: MispredictRateTable,
    calculator: PathConfidenceCalculator,
    circuit: LogCircuit,
    static_encodings: [EncodedProb; Mdc::BUCKETS],
    refresh_period: u64,
    detect_window: u32,
    warmup_windows: u32,
    blend: bool,
    cycles_since_refresh: u64,
    refreshes: u64,
    early_refreshes: u64,
    detector: CusumDetector,
    window_resolves: u32,
    window_mispred: u32,
    baseline_windows: u32,
    baseline_rate_sum: f64,
    settle_left: u32,
}

impl AdaptiveMrtPredictor {
    /// Creates an adaptive-MRT predictor.
    pub fn new(config: AdaptiveMrtConfig) -> Self {
        let mut static_encodings = [EncodedProb::CERTAIN; Mdc::BUCKETS];
        for (enc, &p) in static_encodings
            .iter_mut()
            .zip(DEFAULT_MDC_CORRECT_PROFILE.iter())
        {
            *enc = EncodedProb::from_probability(Probability::clamped(p));
        }
        AdaptiveMrtPredictor {
            mrt: MispredictRateTable::new(),
            calculator: PathConfidenceCalculator::new(),
            circuit: LogCircuit::new(config.log_mode),
            static_encodings,
            refresh_period: config.refresh_period.max(1),
            detect_window: config.detect_window.max(1),
            warmup_windows: config.warmup_windows,
            blend: config.blend,
            cycles_since_refresh: 0,
            refreshes: 0,
            early_refreshes: 0,
            detector: CusumDetector::new(
                config.threshold_permille as f64 / 1000.0,
                config.limit_permille as f64 / 1000.0,
            ),
            window_resolves: 0,
            window_mispred: 0,
            baseline_windows: 0,
            baseline_rate_sum: 0.0,
            settle_left: 0,
        }
    }

    /// Read access to the MRT.
    pub fn mrt(&self) -> &MispredictRateTable {
        &self.mrt
    }

    /// Total refreshes performed so far (periodic + early).
    pub fn refresh_count(&self) -> u64 {
        self.refreshes
    }

    /// Early (change-triggered) refreshes among
    /// [`refresh_count`](Self::refresh_count).
    pub fn early_refresh_count(&self) -> u64 {
        self.early_refreshes
    }

    /// Resolves remaining in the post-detection settle interval (0 when
    /// no change is pending).
    fn settle_span(&self) -> u32 {
        self.detect_window
            .saturating_mul(self.warmup_windows.max(1))
    }

    /// Latches encodings from the current counters — blended against
    /// the static profile when enabled — and restarts both the period
    /// timer and the detection state machine.
    fn refresh_now(&mut self) {
        if self.blend {
            let w = self.dynamic_weight();
            let statics = self.static_encodings;
            self.mrt.refresh_map(self.circuit, |i, measured| {
                let m = measured.raw() as f64;
                let s = statics[i].raw() as f64;
                EncodedProb::from_raw((w * m + (1.0 - w) * s).round() as u32)
            });
        } else {
            self.mrt.refresh(self.circuit);
        }
        self.refreshes += 1;
        self.reset_detection();
    }

    /// Weight of the *measured* encodings in the blend, from the
    /// relative reliability RMS of the outgoing dynamic encodings vs
    /// the static profile, both judged against the counters collected
    /// since the last latch: the encodings that better predicted the
    /// realized per-bucket correct rates earn the larger share.
    fn dynamic_weight(&self) -> f64 {
        let mut dyn_bins = [(0u64, 0u64); 101];
        let mut sta_bins = [(0u64, 0u64); 101];
        for (i, (&dyn_enc, &sta_enc)) in self
            .mrt
            .encodings()
            .iter()
            .zip(self.static_encodings.iter())
            .enumerate()
        {
            let b = self.mrt.bucket(Mdc::new(i as u8));
            if b.is_empty() {
                continue;
            }
            let (n, good) = (b.total() as u64, b.correct() as u64);
            for (bins, enc) in [(&mut dyn_bins, dyn_enc), (&mut sta_bins, sta_enc)] {
                let pct = (enc.to_probability().value() * 100.0).round() as usize;
                bins[pct.min(100)].0 += n;
                bins[pct.min(100)].1 += good;
            }
        }
        let err_d = ReliabilityDiagram::from_bins(&dyn_bins).rms_error();
        let err_s = ReliabilityDiagram::from_bins(&sta_bins).rms_error();
        if err_d + err_s <= 0.0 {
            // Both calibrated perfectly (or no samples): keep the
            // measured encodings.
            1.0
        } else {
            err_s / (err_d + err_s)
        }
    }

    fn reset_detection(&mut self) {
        self.detector.reset();
        self.window_resolves = 0;
        self.window_mispred = 0;
        self.baseline_windows = 0;
        self.baseline_rate_sum = 0.0;
        self.settle_left = 0;
    }

    /// Detection accounting for one resolved conditional branch.
    fn note_resolve(&mut self, mispredicted: bool) {
        if self.settle_left > 0 {
            // A change was detected; we are re-measuring from scratch.
            self.settle_left -= 1;
            if self.settle_left == 0 {
                self.early_refreshes += 1;
                self.cycles_since_refresh = 0;
                self.refresh_now();
            }
            return;
        }
        self.window_resolves += 1;
        self.window_mispred += mispredicted as u32;
        if self.window_resolves < self.detect_window {
            return;
        }
        let rate = self.window_mispred as f64 / self.window_resolves as f64;
        self.window_resolves = 0;
        self.window_mispred = 0;
        if self.baseline_windows < self.warmup_windows {
            self.baseline_windows += 1;
            self.baseline_rate_sum += rate;
            return;
        }
        let baseline = if self.warmup_windows == 0 {
            0.0
        } else {
            self.baseline_rate_sum / self.warmup_windows as f64
        };
        if self.detector.observe((rate - baseline).abs()) {
            // Change point: the counters mix two regimes — discard
            // them, then latch from pure post-change samples once the
            // settle interval has passed.
            self.mrt.reset_counters();
            self.detector.reset();
            self.baseline_windows = 0;
            self.baseline_rate_sum = 0.0;
            self.settle_left = self.settle_span();
        }
    }
}

impl PathConfidenceEstimator for AdaptiveMrtPredictor {
    #[inline]
    fn on_fetch(&mut self, info: BranchFetchInfo) -> BranchToken {
        match info.mdc {
            Some(mdc) => {
                let enc = self.mrt.encoded(mdc);
                self.calculator.add(enc);
                BranchToken {
                    encoded: enc.raw(),
                    low_conf: false,
                    mdc: Some(mdc),
                    table_key: info.table_key,
                }
            }
            None => BranchToken::empty(),
        }
    }

    #[inline]
    fn on_resolve(&mut self, token: BranchToken, mispredicted: bool) {
        if let Some(mdc) = token.mdc {
            self.mrt.record(mdc, mispredicted);
            self.calculator.remove(EncodedProb::from_raw(token.encoded));
            self.note_resolve(mispredicted);
        }
    }

    #[inline]
    fn on_squash(&mut self, token: BranchToken) {
        if token.mdc.is_some() {
            // Squashed branches never resolved architecturally: no MRT
            // training, and no detection accounting either.
            self.calculator.remove(EncodedProb::from_raw(token.encoded));
        }
    }

    #[inline]
    fn tick(&mut self, cycles: u64) {
        self.cycles_since_refresh += cycles;
        while self.cycles_since_refresh >= self.refresh_period {
            self.cycles_since_refresh -= self.refresh_period;
            self.refresh_now();
        }
    }

    #[inline]
    fn score(&self) -> ConfidenceScore {
        ConfidenceScore(self.calculator.encoded_sum())
    }

    #[inline]
    fn goodpath_probability(&self) -> Option<Probability> {
        Some(self.calculator.goodpath_probability())
    }

    fn save_state(&self, out: &mut Vec<u8>) {
        self.mrt.save_state(out);
        self.calculator.save_state(out);
        wire::write_uvarint(out, self.cycles_since_refresh);
        wire::write_uvarint(out, self.refreshes);
        wire::write_uvarint(out, self.early_refreshes);
        wire::write_uvarint(out, self.window_resolves as u64);
        wire::write_uvarint(out, self.window_mispred as u64);
        wire::write_uvarint(out, self.baseline_windows as u64);
        wire::write_uvarint(out, self.baseline_rate_sum.to_bits());
        wire::write_uvarint(out, self.settle_left as u64);
        wire::write_uvarint(out, self.detector.cusum().to_bits());
        wire::write_uvarint(out, self.detector.last_divergence().to_bits());
        wire::write_uvarint(out, self.detector.windows());
        // flagged_at is always None here: a latch immediately resets
        // the detector in note_resolve. Saved anyway (as Option) so the
        // blob stays honest about the detector's full dynamic state.
        match self.detector.flagged_at() {
            None => wire::write_uvarint(out, 0),
            Some(w) => wire::write_uvarint(out, w + 1),
        }
    }

    fn load_state(&mut self, input: &mut &[u8]) -> bool {
        if !self.mrt.load_state(input) || !self.calculator.load_state(input) {
            return false;
        }
        let mut next = || wire::read_uvarint(input);
        let (Some(cycles), Some(refreshes), Some(early)) = (next(), next(), next()) else {
            return false;
        };
        let (Some(win_res), Some(win_mis), Some(base_win)) = (next(), next(), next()) else {
            return false;
        };
        let (Some(base_bits), Some(settle), Some(cusum_bits)) = (next(), next(), next()) else {
            return false;
        };
        let (Some(last_bits), Some(det_windows), Some(flagged)) = (next(), next(), next()) else {
            return false;
        };
        if cycles >= self.refresh_period
            || early > refreshes
            || win_res >= self.detect_window as u64
            || win_mis > win_res
            || base_win > self.warmup_windows as u64
            || settle > self.settle_span() as u64
        {
            return false;
        }
        let baseline_rate_sum = f64::from_bits(base_bits);
        let cusum = f64::from_bits(cusum_bits);
        if !baseline_rate_sum.is_finite() || !cusum.is_finite() || cusum < 0.0 {
            return false;
        }
        self.cycles_since_refresh = cycles;
        self.refreshes = refreshes;
        self.early_refreshes = early;
        self.window_resolves = win_res as u32;
        self.window_mispred = win_mis as u32;
        self.baseline_windows = base_win as u32;
        self.baseline_rate_sum = baseline_rate_sum;
        self.settle_left = settle as u32;
        self.detector.restore(
            cusum,
            f64::from_bits(last_bits),
            det_windows,
            flagged.checked_sub(1),
        );
        true
    }

    fn name(&self) -> String {
        "AdaptiveMRT".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(mdc: u8) -> BranchFetchInfo {
        BranchFetchInfo::conditional(Mdc::new(mdc))
    }

    /// A tiny config with fast detection for unit tests.
    fn tiny() -> AdaptiveMrtConfig {
        AdaptiveMrtConfig {
            refresh_period: 10_000,
            log_mode: LogMode::Exact,
            detect_window: 32,
            threshold_permille: 50,
            limit_permille: 100,
            warmup_windows: 2,
            blend: false,
        }
    }

    fn drive(p: &mut AdaptiveMrtPredictor, n: usize, mispredict_every: usize) {
        for i in 0..n {
            let t = p.on_fetch(cond((i % 16) as u8));
            p.on_resolve(t, mispredict_every != 0 && i % mispredict_every == 0);
        }
    }

    #[test]
    fn steady_stream_never_triggers_early_refresh() {
        let mut p = AdaptiveMrtPredictor::new(tiny());
        drive(&mut p, 20_000, 10);
        assert_eq!(p.early_refresh_count(), 0);
    }

    #[test]
    fn regime_flip_triggers_early_refresh_and_relatches() {
        let mut p = AdaptiveMrtPredictor::new(tiny());
        // Quiet regime: 2% mispredicts, long enough to form a baseline.
        drive(&mut p, 4_000, 50);
        assert_eq!(p.early_refresh_count(), 0);
        // Flip to a 50% mispredict regime without any tick: only change
        // detection can refresh here.
        drive(&mut p, 4_000, 2);
        assert!(p.early_refresh_count() >= 1, "flip must latch the CUSUM");
        assert_eq!(p.refresh_count(), p.early_refresh_count());
        // The relatched bucket encodings reflect the *new* regime: an
        // in-flight branch roughly halves the goodpath probability.
        let t = p.on_fetch(cond(0));
        let prob = p.goodpath_probability().unwrap().value();
        assert!(prob < 0.75, "encodings still optimistic: p = {prob}");
        p.on_squash(t);
    }

    #[test]
    fn periodic_refresh_still_fires_via_tick() {
        let mut p = AdaptiveMrtPredictor::new(tiny());
        drive(&mut p, 100, 4);
        p.tick(9_999);
        assert_eq!(p.refresh_count(), 0);
        p.tick(1);
        assert_eq!(p.refresh_count(), 1);
        assert_eq!(p.early_refresh_count(), 0);
        p.tick(25_000);
        assert_eq!(p.refresh_count(), 3);
    }

    #[test]
    fn squash_feeds_neither_mrt_nor_detector() {
        let mut p = AdaptiveMrtPredictor::new(tiny());
        let before = p.mrt().bucket(Mdc::new(0)).total();
        for _ in 0..1_000 {
            let t = p.on_fetch(cond(0));
            p.on_squash(t);
        }
        assert_eq!(p.mrt().bucket(Mdc::new(0)).total(), before);
        assert_eq!(p.score(), ConfidenceScore(0));
        assert_eq!(p.early_refresh_count(), 0);
    }

    #[test]
    fn blend_pulls_stale_encodings_toward_static_profile() {
        // Latch encodings from an optimistic regime, then measure a
        // pessimistic one: at the next refresh the blended encoding
        // must land strictly between pure-measured and the old latch.
        let mut blended = AdaptiveMrtPredictor::new(AdaptiveMrtConfig {
            blend: true,
            ..tiny()
        });
        let mut pure = AdaptiveMrtPredictor::new(tiny());
        for p in [&mut blended, &mut pure] {
            drive(p, 512, 0); // 0% mispredicts
            p.tick(10_000); // latch optimistic encodings
                            // New regime: 50% mispredicts in every bucket, short enough
                            // that detection (warmup 2×32 + settle) hasn't relatched
                            // uniformly; force the comparison at a periodic refresh.
            drive(p, 128, 2);
            p.tick(10_000);
        }
        // Pure-measured bucket 0 encodes ~50% correct => raw ~1024.
        // The stale dynamic encodings (certainty) calibrate terribly
        // against the 50% counters, so the blend leans static
        // (raw ~636 for bucket 0's 0.65 profile)… either way the
        // blended value must differ from pure-measured and stay
        // in the [static, measured] hull.
        let m = pure.mrt().encoded(Mdc::new(0)).raw();
        let b = blended.mrt().encoded(Mdc::new(0)).raw();
        let s = EncodedProb::from_probability(Probability::clamped(DEFAULT_MDC_CORRECT_PROFILE[0]))
            .raw();
        let (lo, hi) = (m.min(s), m.max(s));
        assert!((lo..=hi).contains(&b), "blend {b} outside [{lo}, {hi}]");
        assert_ne!(b, m, "blend had no effect");
    }

    #[test]
    fn snapshot_resumes_bit_identically_through_detection() {
        let config = tiny();
        let mut p = AdaptiveMrtPredictor::new(config);
        // Leave the predictor mid-window, mid-baseline, with a warm MRT.
        drive(&mut p, 4_000 + 17, 25);
        p.tick(123);
        let in_flight = p.on_fetch(cond(3));

        let mut blob = Vec::new();
        p.save_state(&mut blob);
        let mut q = AdaptiveMrtPredictor::new(config);
        let mut input = blob.as_slice();
        assert!(q.load_state(&mut input));
        assert!(input.is_empty(), "restore must consume the whole blob");

        // Drive both through a regime flip and a periodic refresh; every
        // observable (and the full state blob) must stay in lockstep.
        for est in [&mut p, &mut q] {
            est.on_resolve(in_flight, true);
            drive(est, 3_000, 2);
            est.tick(10_000);
        }
        assert_eq!(p.refresh_count(), q.refresh_count());
        assert_eq!(p.early_refresh_count(), q.early_refresh_count());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        p.save_state(&mut a);
        q.save_state(&mut b);
        assert_eq!(a, b, "post-restore state must be bit-identical");
    }

    #[test]
    fn snapshot_restore_rejects_garbage() {
        let mut p = AdaptiveMrtPredictor::new(tiny());
        drive(&mut p, 100, 7);
        let mut blob = Vec::new();
        p.save_state(&mut blob);
        // Truncation at every prefix length must be rejected (never
        // panic, never accept).
        for cut in 0..blob.len() {
            let mut q = AdaptiveMrtPredictor::new(tiny());
            assert!(!q.load_state(&mut &blob[..cut]), "accepted prefix {cut}");
        }
        // A blob from a faster-refreshing config can hold pending
        // cycles past this config's period: inconsistent.
        let mut donor = AdaptiveMrtPredictor::new(AdaptiveMrtConfig {
            refresh_period: 1_000_000,
            ..tiny()
        });
        donor.tick(500_000);
        let mut bad = Vec::new();
        donor.save_state(&mut bad);
        let mut q = AdaptiveMrtPredictor::new(tiny());
        assert!(!q.load_state(&mut bad.as_slice()));
    }

    #[test]
    fn name_and_default() {
        assert_eq!(
            AdaptiveMrtPredictor::new(Default::default()).name(),
            "AdaptiveMRT"
        );
        assert_eq!(AdaptiveMrtConfig::default(), AdaptiveMrtConfig::paper());
    }
}

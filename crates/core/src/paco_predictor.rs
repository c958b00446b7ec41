//! The full PaCo predictor: MRT + log circuit + path confidence calculator.

use crate::{
    BranchFetchInfo, BranchToken, ConfidenceScore, EncodedProb, LogCircuit, LogMode,
    MispredictRateTable, PathConfidenceCalculator, PathConfidenceEstimator,
};
use paco_branch::Mdc;
use paco_types::canon::Canon;
use paco_types::Probability;

/// Configuration for a [`PacoPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacoConfig {
    /// Cycles between MRT refreshes (paper: 200 000; performance is "not
    /// very sensitive to this period").
    pub refresh_period: u64,
    /// Which log implementation the refresh circuit uses.
    pub log_mode: LogMode,
}

impl PacoConfig {
    /// The paper's configuration.
    pub const fn paper() -> Self {
        PacoConfig {
            refresh_period: 200_000,
            log_mode: LogMode::Mitchell,
        }
    }

    /// Overrides the refresh period, builder-style.
    pub const fn with_refresh_period(mut self, cycles: u64) -> Self {
        self.refresh_period = cycles;
        self
    }

    /// Overrides the log mode, builder-style.
    pub const fn with_log_mode(mut self, mode: LogMode) -> Self {
        self.log_mode = mode;
        self
    }
}

impl Canon for PacoConfig {
    fn canon(&self, out: &mut Vec<u8>) {
        out.push(0x11); // type tag
        self.refresh_period.canon(out);
        self.log_mode.canon(out);
    }
}

impl Default for PacoConfig {
    fn default() -> Self {
        PacoConfig::paper()
    }
}

/// The PaCo path confidence predictor (paper §3).
///
/// Combines three pieces of hardware:
///
/// * the **Mispredict Rate Table** measuring per-MDC-bucket mispredict
///   rates with small counters,
/// * the **log circuit** that periodically converts counter ratios into
///   12-bit encoded probabilities,
/// * the **path confidence calculator**, a register summing the encoded
///   probabilities of all unresolved (conditional) branches.
///
/// Total storage: under 60 bytes of counters plus a 10-bit shift register —
/// see [`MispredictRateTable::storage_bytes`].
///
/// # Examples
///
/// ```
/// use paco::{PacoPredictor, PacoConfig, PathConfidenceEstimator, BranchFetchInfo};
/// use paco_branch::Mdc;
///
/// let mut paco = PacoPredictor::new(PacoConfig::paper());
///
/// // Warm up: bucket 0 mispredicts half the time.
/// for _ in 0..100 {
///     let t = paco.on_fetch(BranchFetchInfo::conditional(Mdc::new(0)));
///     paco.on_resolve(t, false);
///     let t = paco.on_fetch(BranchFetchInfo::conditional(Mdc::new(0)));
///     paco.on_resolve(t, true);
/// }
/// paco.tick(200_000); // trigger the periodic refresh
///
/// // Now an in-flight MDC-0 branch halves the goodpath probability.
/// let t = paco.on_fetch(BranchFetchInfo::conditional(Mdc::new(0)));
/// let p = paco.goodpath_probability().unwrap().value();
/// assert!((p - 0.5).abs() < 0.05, "p = {p}");
/// paco.on_resolve(t, false);
/// ```
#[derive(Debug, Clone)]
pub struct PacoPredictor {
    mrt: MispredictRateTable,
    calculator: PathConfidenceCalculator,
    circuit: LogCircuit,
    refresh_period: u64,
    cycles_since_refresh: u64,
    refreshes: u64,
}

impl PacoPredictor {
    /// Creates a PaCo predictor.
    pub fn new(config: PacoConfig) -> Self {
        PacoPredictor {
            mrt: MispredictRateTable::new(),
            calculator: PathConfidenceCalculator::new(),
            circuit: LogCircuit::new(config.log_mode),
            refresh_period: config.refresh_period.max(1),
            cycles_since_refresh: 0,
            refreshes: 0,
        }
    }

    /// Creates a predictor with pre-seeded MRT encodings (warm start).
    pub fn with_encodings(config: PacoConfig, encodings: [EncodedProb; Mdc::BUCKETS]) -> Self {
        let mut p = Self::new(config);
        p.mrt = MispredictRateTable::with_encodings(encodings);
        p
    }

    /// Read access to the MRT (for the static-MRT profiling flow).
    pub fn mrt(&self) -> &MispredictRateTable {
        &self.mrt
    }

    /// Number of refreshes performed so far.
    pub fn refresh_count(&self) -> u64 {
        self.refreshes
    }

    /// Forces an immediate MRT refresh regardless of the period, restarting
    /// the period timer.
    pub fn force_refresh(&mut self) {
        self.do_refresh();
        self.cycles_since_refresh = 0;
    }

    fn do_refresh(&mut self) {
        self.mrt.refresh(self.circuit);
        self.refreshes += 1;
    }

    /// The raw encoded goodpath probability (the register value).
    pub fn encoded_confidence(&self) -> u64 {
        self.calculator.encoded_sum()
    }

    /// Number of branches currently contributing to the register.
    pub fn outstanding_branches(&self) -> u32 {
        self.calculator.outstanding()
    }
}

impl PathConfidenceEstimator for PacoPredictor {
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
            // JRS covers only conditional branches; other control flow
            // contributes nothing (the perlbmk blind spot, by design).
            None => BranchToken::empty(),
        }
    }

    #[inline]
    fn on_resolve(&mut self, token: BranchToken, mispredicted: bool) {
        if let Some(mdc) = token.mdc {
            self.mrt.record(mdc, mispredicted);
            self.calculator.remove(EncodedProb::from_raw(token.encoded));
        }
    }

    #[inline]
    fn on_squash(&mut self, token: BranchToken) {
        if token.mdc.is_some() {
            // Squashed branches leave the window without training the MRT:
            // their outcome was never architecturally determined.
            self.calculator.remove(EncodedProb::from_raw(token.encoded));
        }
    }

    #[inline]
    fn tick(&mut self, cycles: u64) {
        self.cycles_since_refresh += cycles;
        while self.cycles_since_refresh >= self.refresh_period {
            self.cycles_since_refresh -= self.refresh_period;
            self.do_refresh();
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
        paco_types::wire::write_uvarint(out, self.cycles_since_refresh);
        paco_types::wire::write_uvarint(out, self.refreshes);
    }

    fn load_state(&mut self, input: &mut &[u8]) -> bool {
        if !self.mrt.load_state(input) || !self.calculator.load_state(input) {
            return false;
        }
        let Some(cycles) = paco_types::wire::read_uvarint(input) else {
            return false;
        };
        let Some(refreshes) = paco_types::wire::read_uvarint(input) else {
            return false;
        };
        if cycles >= self.refresh_period {
            return false; // tick() never leaves a full period pending
        }
        self.cycles_since_refresh = cycles;
        self.refreshes = refreshes;
        true
    }

    fn name(&self) -> String {
        match self.circuit.mode() {
            LogMode::Mitchell => "PaCo".to_string(),
            LogMode::Exact => "PaCo(exact-log)".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(mdc: u8) -> BranchFetchInfo {
        BranchFetchInfo::conditional(Mdc::new(mdc))
    }

    #[test]
    fn fresh_predictor_is_certain() {
        let p = PacoPredictor::new(PacoConfig::paper());
        assert_eq!(p.score(), ConfidenceScore(0));
        assert_eq!(p.goodpath_probability().unwrap().value(), 1.0);
    }

    #[test]
    fn non_conditional_branches_do_not_contribute() {
        let mut p = PacoPredictor::new(PacoConfig::paper());
        let t = p.on_fetch(BranchFetchInfo::non_conditional());
        assert_eq!(p.score(), ConfidenceScore(0));
        p.on_resolve(t, true); // even a mispredicted indirect call
        assert_eq!(p.score(), ConfidenceScore(0));
    }

    #[test]
    fn refresh_period_drives_encodings() {
        let mut p = PacoPredictor::new(PacoConfig::paper().with_refresh_period(1000));
        // 25% mispredict rate in bucket 3.
        for i in 0..200 {
            let t = p.on_fetch(cond(3));
            p.on_resolve(t, i % 4 == 0);
        }
        assert_eq!(p.refresh_count(), 0);
        p.tick(999);
        assert_eq!(p.refresh_count(), 0);
        p.tick(1);
        assert_eq!(p.refresh_count(), 1);
        // encoded(−1024·log2(0.75)) ≈ 425.
        let t = p.on_fetch(cond(3));
        let sum = p.encoded_confidence() as i64;
        assert!((sum - 425).abs() <= 60, "sum={sum}");
        p.on_squash(t);
    }

    #[test]
    fn tick_accumulates_partial_periods() {
        let mut p = PacoPredictor::new(PacoConfig::paper().with_refresh_period(100));
        for _ in 0..9 {
            p.tick(10);
        }
        assert_eq!(p.refresh_count(), 0);
        p.tick(10);
        assert_eq!(p.refresh_count(), 1);
        p.tick(250);
        assert_eq!(p.refresh_count(), 3);
    }

    #[test]
    fn squash_restores_register_without_training() {
        let mut p = PacoPredictor::new(PacoConfig::paper().with_refresh_period(10));
        // Make bucket 0 look terrible, then refresh.
        for _ in 0..50 {
            let t = p.on_fetch(cond(0));
            p.on_resolve(t, true);
        }
        p.tick(10);
        let t1 = p.on_fetch(cond(0));
        let t2 = p.on_fetch(cond(0));
        assert!(p.score() > ConfidenceScore(0));
        let mispred_before = p.mrt().bucket(Mdc::new(0)).mispred();
        p.on_squash(t2);
        p.on_squash(t1);
        assert_eq!(p.score(), ConfidenceScore(0));
        assert_eq!(p.mrt().bucket(Mdc::new(0)).mispred(), mispred_before);
    }

    #[test]
    fn token_value_is_stable_across_refresh() {
        // A branch fetched before a refresh must subtract what it added,
        // even though the bucket encoding changed while it was in flight.
        let mut p = PacoPredictor::new(PacoConfig::paper().with_refresh_period(10));
        for _ in 0..20 {
            let t = p.on_fetch(cond(0));
            p.on_resolve(t, true); // bucket 0 = always mispredicted
        }
        let t = p.on_fetch(cond(0)); // contributes the *old* encoding (certainty)
        p.tick(10); // refresh: bucket 0 now encodes very low probability
        p.on_resolve(t, false);
        assert_eq!(
            p.score(),
            ConfidenceScore(0),
            "register must return to zero"
        );
    }

    #[test]
    fn score_tracks_goodpath_probability_monotonically() {
        let mut p = PacoPredictor::new(PacoConfig::paper().with_refresh_period(10));
        for i in 0..100 {
            let t = p.on_fetch(cond(1));
            p.on_resolve(t, i % 3 == 0);
        }
        p.tick(10);
        let mut last = 1.0;
        let mut tokens = Vec::new();
        for _ in 0..5 {
            tokens.push(p.on_fetch(cond(1)));
            let prob = p.goodpath_probability().unwrap().value();
            assert!(prob < last, "probability must fall with each branch");
            last = prob;
        }
        for t in tokens {
            p.on_squash(t);
        }
    }

    #[test]
    fn snapshot_resumes_bit_identically() {
        let mut p = PacoPredictor::new(PacoConfig::paper().with_refresh_period(500));
        for i in 0..300u64 {
            let t = p.on_fetch(cond((i % 16) as u8));
            p.tick(3);
            p.on_resolve(t, i % 5 == 0);
        }
        let in_flight = p.on_fetch(cond(2));

        let mut blob = Vec::new();
        p.save_state(&mut blob);
        let mut q = PacoPredictor::new(PacoConfig::paper().with_refresh_period(500));
        let mut input = blob.as_slice();
        assert!(q.load_state(&mut input));
        assert!(input.is_empty(), "restore must consume the whole blob");

        assert_eq!(q.score(), p.score());
        assert_eq!(q.refresh_count(), p.refresh_count());
        // Drive both through the same future: resolve, then cross a
        // refresh boundary. Every observable must stay in lockstep.
        for est in [&mut p, &mut q] {
            est.on_resolve(in_flight, true);
            est.tick(600);
        }
        assert_eq!(q.refresh_count(), p.refresh_count());
        assert_eq!(q.mrt().encodings(), p.mrt().encodings());
        let t1 = p.on_fetch(cond(7));
        let t2 = q.on_fetch(cond(7));
        assert_eq!(p.score(), q.score());
        p.on_squash(t1);
        q.on_squash(t2);
    }

    #[test]
    fn snapshot_restore_rejects_garbage() {
        let p = PacoPredictor::new(PacoConfig::paper());
        let mut blob = Vec::new();
        p.save_state(&mut blob);
        // Truncation.
        let mut q = PacoPredictor::new(PacoConfig::paper());
        assert!(!q.load_state(&mut &blob[..blob.len() - 1]));
        // A pending-cycles value at or past the refresh period is
        // inconsistent with tick()'s invariant.
        let mut bad = Vec::new();
        let mut short = PacoPredictor::new(PacoConfig::paper().with_refresh_period(2));
        short.tick(1);
        short.save_state(&mut bad);
        let mut q = PacoPredictor::new(PacoConfig::paper().with_refresh_period(1));
        assert!(!q.load_state(&mut bad.as_slice()));
    }

    #[test]
    fn name_reflects_log_mode() {
        assert_eq!(PacoPredictor::new(PacoConfig::paper()).name(), "PaCo");
        assert_eq!(
            PacoPredictor::new(PacoConfig::paper().with_log_mode(LogMode::Exact)).name(),
            "PaCo(exact-log)"
        );
    }
}

//! `paco-watch`: per-session calibration telemetry, fleet aggregation
//! and online drift detection for the serving layer.
//!
//! Every session carries a [`WatchState`]: lifetime calibration counters
//! plus a rolling [`WATCH_WINDOW`]-event window of the same shape. The
//! state is updated inline in the `run_batch` hot loop with a strict
//! zero-allocation budget — both profiles are fixed-size
//! [`CalibrationProfile`]s and the update is pure counter arithmetic.
//!
//! When a session declares a workload family (HELLO's `family` field),
//! each completed window is scored against the family's shipped
//! reference profile ([`paco_corpus::reference_profile`]): the
//! divergence is the larger of the total-variation distance between
//! bin-occupancy distributions and the absolute mispredict-rate delta,
//! fed to a one-sided [`CusumDetector`]. A stream that departs its
//! family — the acceptance demo splices `mispredict_storm` into a
//! `biased_bimodal` session — accumulates divergence and latches the
//! drift flag within a few windows, while an on-profile stream bleeds
//! the accumulator back to zero.
//!
//! Sessions fold their counter *deltas* into the shared
//! [`FleetAggregator`] at batch-count checkpoints (not per batch — the
//! hot loop takes no locks), on STATS_REQ, and when the connection
//! ends; the aggregator pools calibration bins across sessions via
//! [`paco_analysis::merge_bin_pairs`] and tracks a smoothed fleet event
//! rate.
//!
//! Everything in a session's telemetry is a deterministic function of
//! its event stream: no clocks, no randomness. The lane-determinism
//! test encodes [`SessionStats`] from a per-event and a batched replay
//! of the same events and requires identical bytes.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use paco::decode_score;
use paco_analysis::{merge_bin_pairs, occupancy_distance, CusumDetector};
use paco_corpus::{prob_bin, CalibrationProfile, PROFILE_BINS, PROFILE_WINDOW};
use paco_sim::{OnlineOutcome, OutcomeBatch};
use paco_types::wire::{read_uvarint, write_uvarint};

use crate::metrics::{FleetCounters, SessionMode};
use crate::proto::{FleetStats, SessionStats};

/// Rolling-window length, in control events, between drift scorings.
/// Shared with the reference-profile generator so windows and baselines
/// describe the same timescale.
pub const WATCH_WINDOW: u64 = PROFILE_WINDOW;

/// Completed windows skipped before drift scoring starts, absorbing the
/// predictor's cold-start transient (the reference profiles skip the
/// same span).
pub const WATCH_WARMUP_WINDOWS: u64 = 2;

/// Per-window divergence at or below this level bleeds the CUSUM
/// accumulator; above it, the excess accumulates. Sits above the
/// sampling noise of a [`WATCH_WINDOW`]-event window measured against
/// its own family (see the steady-state watch tests).
pub const DRIFT_THRESHOLD: f64 = 0.12;

/// CUSUM accumulator level that latches the drift flag: a sustained
/// shift must exceed [`DRIFT_THRESHOLD`] by this much in total before a
/// session is flagged.
pub const DRIFT_LIMIT: f64 = 0.25;

/// Length of the [`ScoreBinner`] table. Score 5449 decodes to just above
/// 2.5% (bin 1); from 5450 up the decoded probability is below 2.5%,
/// and since it only falls as the score rises, the bin is 0 and stays 0.
const SCORE_TABLE_LEN: usize = 5450;

/// [`prob_bin`] of a decoded score, read from a table, so the batched
/// lane bins without leaving the integer domain. Equal to
/// `prob_bin(decode_score(score))` for **every** score: the table is
/// built from exactly that expression, and an exhaustive test pins the
/// equality. Resolved once per batch, so the per-event path carries no
/// `OnceLock` traffic.
#[derive(Debug, Clone, Copy)]
struct ScoreBinner {
    table: &'static [u8; SCORE_TABLE_LEN],
}

impl ScoreBinner {
    #[inline]
    fn new() -> Self {
        static TABLE: OnceLock<[u8; SCORE_TABLE_LEN]> = OnceLock::new();
        ScoreBinner {
            table: TABLE.get_or_init(|| {
                std::array::from_fn(|s| prob_bin(decode_score(s as u64).value()) as u8)
            }),
        }
    }

    #[inline]
    fn bin(&self, score: u64) -> usize {
        if score < SCORE_TABLE_LEN as u64 {
            self.table[score as usize] as usize
        } else {
            0
        }
    }
}

/// Per-session watch telemetry: lifetime calibration, a rolling window,
/// and the drift detector. Fixed-size — attaching one to every session
/// costs no allocation, and updating it in the hot loop allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct WatchState {
    /// Calibration counters of every *completed* window. The hot loop
    /// touches only [`window`](Self::window); each completed window is
    /// absorbed here at roll time, and readers merge the live window
    /// back in via [`lifetime`](Self::lifetime).
    cum: CalibrationProfile,
    /// The current rolling window (reset every [`WATCH_WINDOW`] events).
    window: CalibrationProfile,
    detector: CusumDetector,
    /// The declared family's reference profile, when one was declared.
    reference: Option<CalibrationProfile>,
    family: Option<String>,
    /// Completed rolling windows (including warmup windows the detector
    /// never saw).
    windows: u64,
    /// The 1-based completed-window index at which the drift flag
    /// latched; 0 = never.
    drift_window: u64,
    // Fold marks: the portion of the counters already delta-folded into
    // the fleet aggregator.
    folded_events: u64,
    folded_mispredicts: u64,
    folded_windows: u64,
    folded_bins: [(u64, u64); PROFILE_BINS],
    folded_flag: bool,
}

impl WatchState {
    /// A fresh watch state, optionally pinned to a declared workload
    /// family and its reference profile.
    pub fn new(family: Option<String>, reference: Option<CalibrationProfile>) -> Self {
        WatchState {
            cum: CalibrationProfile::new(),
            window: CalibrationProfile::new(),
            detector: CusumDetector::new(DRIFT_THRESHOLD, DRIFT_LIMIT),
            reference,
            family,
            windows: 0,
            drift_window: 0,
            folded_events: 0,
            folded_mispredicts: 0,
            folded_windows: 0,
            folded_bins: [(0, 0); PROFILE_BINS],
            folded_flag: false,
        }
    }

    /// Pins a declared family onto a session that does not have one yet
    /// (reclaiming a parked session with a declaring HELLO). A session
    /// that already has a family keeps it — telemetry stays a
    /// deterministic function of the original declaration.
    pub fn declare(&mut self, family: String, reference: CalibrationProfile) {
        if self.family.is_none() {
            self.family = Some(family);
            self.reference = Some(reference);
        }
    }

    /// Records one outcome (the per-event reference lane).
    #[inline]
    pub fn observe(&mut self, outcome: &OnlineOutcome) {
        self.record(outcome.probability(), outcome.mispredicted);
    }

    /// Records a whole outcome batch (the server hot loop). Reads the
    /// struct-of-arrays columns directly and allocates nothing. The
    /// batch is processed in chunks that stop exactly at window
    /// boundaries, so the inner loop carries no per-event rollover
    /// check and settles the event/mispredict counters once per chunk;
    /// window rolls happen at the same event index as in the per-event
    /// lane (the lane-determinism test holds the two to identical
    /// bytes).
    pub fn observe_batch(&mut self, outcomes: &OutcomeBatch) {
        // Binning stays in the integer score domain: the score table is
        // bit-identical to `prob_bin` on the decoded score, so the
        // decode the per-event lane does is skipped entirely.
        let binner = ScoreBinner::new();
        let (mut flags, mut scores) = (outcomes.flags(), outcomes.scores());
        while !flags.is_empty() {
            let take = ((WATCH_WINDOW - self.window.events()) as usize).min(flags.len());
            let (chunk_flags, rest_flags) = flags.split_at(take);
            let (chunk_scores, rest_scores) = scores.split_at(take);
            let mut mispredicts = 0u64;
            for (&f, &s) in chunk_flags.iter().zip(chunk_scores) {
                mispredicts += u64::from(f & OutcomeBatch::FLAG_MISPREDICTED != 0);
                if f & OutcomeBatch::FLAG_HAS_PROB != 0 {
                    let correct = u64::from(f & OutcomeBatch::FLAG_MISPREDICTED == 0);
                    self.window.add_bin(binner.bin(s), 1, correct);
                }
            }
            self.window.add_counts(take as u64, mispredicts);
            if self.window.events() >= WATCH_WINDOW {
                self.roll_window();
            }
            (flags, scores) = (rest_flags, rest_scores);
        }
    }

    #[inline]
    fn record(&mut self, prob: Option<f64>, mispredicted: bool) {
        self.record_bin(prob.map(prob_bin), mispredicted);
    }

    /// The shared recording core. Only the window profile is touched
    /// per event; lifetime counters are maintained by absorbing each
    /// completed window in [`roll_window`](Self::roll_window), which
    /// halves the counter traffic on the hot path.
    #[inline]
    fn record_bin(&mut self, bin: Option<usize>, mispredicted: bool) {
        self.window.record_bin(bin, mispredicted);
        if self.window.events() >= WATCH_WINDOW {
            self.roll_window();
        }
    }

    /// Closes the current window: score it against the reference (past
    /// warmup), absorb it into the lifetime counters, and reset it.
    fn roll_window(&mut self) {
        self.windows += 1;
        if self.windows > WATCH_WARMUP_WINDOWS {
            if let Some(reference) = &self.reference {
                let divergence = occupancy_distance(self.window.bins(), reference.bins())
                    .max((self.window.mispredict_rate() - reference.mispredict_rate()).abs());
                let was = self.detector.is_flagged();
                if self.detector.observe(divergence) && !was {
                    self.drift_window = self.windows;
                }
            }
        }
        self.cum.absorb(&self.window);
        self.window.clear();
    }

    /// Lifetime counters: completed windows plus the live window.
    fn lifetime(&self) -> CalibrationProfile {
        let mut total = self.cum;
        total.absorb(&self.window);
        total
    }

    /// Whether the drift flag has latched.
    pub fn drift_flagged(&self) -> bool {
        self.detector.is_flagged()
    }

    /// The 1-based completed-window index at which the drift flag
    /// latched (0 = never) — the flight recorder stamps this into
    /// drift-latch events.
    pub fn drift_window(&self) -> u64 {
        self.drift_window
    }

    /// The declared family, if any.
    pub fn family(&self) -> Option<&str> {
        self.family.as_deref()
    }

    /// Control events observed.
    pub fn events(&self) -> u64 {
        self.cum.events() + self.window.events()
    }

    /// The session's telemetry as a wire-ready [`SessionStats`].
    pub fn session_stats(&self, session_id: u64) -> SessionStats {
        let lifetime = self.lifetime();
        SessionStats {
            session_id,
            family: self.family.clone(),
            events: lifetime.events(),
            mispredicts: lifetime.mispredicts(),
            with_prob: lifetime.with_prob(),
            windows: self.windows,
            window_len: self.window.events(),
            last_divergence_bits: self.detector.last_divergence().to_bits(),
            cusum_bits: self.detector.cusum().to_bits(),
            drift_flagged: self.detector.is_flagged(),
            drift_window: self.drift_window,
            bins: lifetime.bins().to_vec(),
        }
    }

    /// Appends the complete state: both profiles, the detector's
    /// dynamics (`f64`s as their bits), the reference profile, the
    /// family, the window counts and the fold marks. The session table
    /// parks a session as this plus its pipeline snapshot; unlike a
    /// pipeline snapshot, this blob never leaves the process.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.cum.save_state(out);
        self.window.save_state(out);
        for v in [
            self.detector.cusum().to_bits(),
            self.detector.last_divergence().to_bits(),
            self.detector.windows(),
            self.detector.warmup_remaining(),
            self.detector.flagged_at().map_or(0, |w| w + 1),
        ] {
            write_uvarint(out, v);
        }
        match &self.reference {
            None => out.push(0),
            Some(reference) => {
                out.push(1);
                reference.save_state(out);
            }
        }
        match &self.family {
            None => write_uvarint(out, 0),
            Some(family) => {
                write_uvarint(out, family.len() as u64 + 1);
                out.extend_from_slice(family.as_bytes());
            }
        }
        for v in [
            self.windows,
            self.drift_window,
            self.folded_events,
            self.folded_mispredicts,
            self.folded_windows,
        ] {
            write_uvarint(out, v);
        }
        for &(instances, correct) in &self.folded_bins {
            write_uvarint(out, instances);
            write_uvarint(out, correct);
        }
        out.push(self.folded_flag as u8);
    }

    /// Rebuilds a watch state written by [`save_state`](Self::save_state),
    /// advancing `input`; `None` on truncation or a malformed field.
    pub fn load_state(input: &mut &[u8]) -> Option<WatchState> {
        let cum = CalibrationProfile::load_state(input)?;
        let window = CalibrationProfile::load_state(input)?;
        let mut detector = CusumDetector::new(DRIFT_THRESHOLD, DRIFT_LIMIT);
        let cusum = f64::from_bits(read_uvarint(input)?);
        let last = f64::from_bits(read_uvarint(input)?);
        let (det_windows, warmup_left) = (read_uvarint(input)?, read_uvarint(input)?);
        let flagged_at = read_uvarint(input)?.checked_sub(1);
        detector.restore(cusum, last, det_windows, warmup_left, flagged_at);
        let reference = match take_byte(input)? {
            0 => None,
            1 => Some(CalibrationProfile::load_state(input)?),
            _ => return None,
        };
        let family = match read_uvarint(input)?.checked_sub(1) {
            None => None,
            Some(len) => {
                let len = usize::try_from(len).ok().filter(|&n| n <= input.len())?;
                let (name, rest) = input.split_at(len);
                *input = rest;
                Some(String::from_utf8(name.to_vec()).ok()?)
            }
        };
        let mut watch = WatchState::new(family, reference);
        watch.cum = cum;
        watch.window = window;
        watch.detector = detector;
        watch.windows = read_uvarint(input)?;
        watch.drift_window = read_uvarint(input)?;
        watch.folded_events = read_uvarint(input)?;
        watch.folded_mispredicts = read_uvarint(input)?;
        watch.folded_windows = read_uvarint(input)?;
        for bin in &mut watch.folded_bins {
            *bin = (read_uvarint(input)?, read_uvarint(input)?);
        }
        watch.folded_flag = match take_byte(input)? {
            0 => false,
            1 => true,
            _ => return None,
        };
        Some(watch)
    }

    /// Folds this session's counter growth since the last fold into the
    /// fleet aggregator (one lock acquisition; called at batch-count
    /// checkpoints, on STATS_REQ and at connection end — never per
    /// event).
    pub fn fold_into(&mut self, fleet: &FleetAggregator) {
        let lifetime = self.lifetime();
        let delta_events = lifetime.events() - self.folded_events;
        let delta_mispredicts = lifetime.mispredicts() - self.folded_mispredicts;
        let delta_windows = self.windows - self.folded_windows;
        let mut delta_bins = [(0u64, 0u64); PROFILE_BINS];
        for (delta, (&now, &folded)) in delta_bins
            .iter_mut()
            .zip(lifetime.bins().iter().zip(&self.folded_bins))
        {
            *delta = (now.0 - folded.0, now.1 - folded.1);
        }
        let newly_flagged = self.detector.is_flagged() && !self.folded_flag;
        if delta_events == 0 && !newly_flagged {
            return;
        }
        fleet.fold(
            delta_events,
            delta_mispredicts,
            delta_windows,
            &delta_bins,
            newly_flagged,
        );
        self.folded_events = lifetime.events();
        self.folded_mispredicts = lifetime.mispredicts();
        self.folded_windows = self.windows;
        self.folded_bins.copy_from_slice(lifetime.bins());
        self.folded_flag = self.detector.is_flagged();
    }
}

/// Reads one byte, advancing `input`.
fn take_byte(input: &mut &[u8]) -> Option<u8> {
    let (&byte, rest) = input.split_first()?;
    *input = rest;
    Some(byte)
}

impl Default for WatchState {
    fn default() -> Self {
        WatchState::new(None, None)
    }
}

/// Fleet-wide pooled telemetry, shared by every connection handler.
/// Sessions fold counter deltas in; STATS_REQ, the server's periodic
/// log and `/metrics` scrapes read the same cells out — the scalar
/// counters *are* registry handles ([`FleetCounters`]), so there is no
/// parallel bookkeeping to keep in sync. Only the calibration bins and
/// the rate-smoothing state (protocol-level data with no Prometheus
/// shape) stay under the mutex.
#[derive(Debug)]
pub struct FleetAggregator {
    counters: FleetCounters,
    inner: Mutex<FleetInner>,
}

#[derive(Debug)]
struct FleetInner {
    bins: [(u64, u64); PROFILE_BINS],
    rate_at: Instant,
    rate_events: u64,
    rate: f64,
}

impl FleetAggregator {
    /// A fresh aggregator with detached (unregistered) counters — unit
    /// tests and ad-hoc tooling. Servers use
    /// [`with_counters`](Self::with_counters) so the same cells feed
    /// the exposition endpoint.
    pub fn new() -> Self {
        FleetAggregator::with_counters(FleetCounters::detached())
    }

    /// An aggregator recording into `counters` (registry handles).
    pub fn with_counters(counters: FleetCounters) -> Self {
        FleetAggregator {
            counters,
            inner: Mutex::new(FleetInner {
                bins: [(0, 0); PROFILE_BINS],
                rate_at: Instant::now(),
                rate_events: 0,
                rate: 0.0,
            }),
        }
    }

    /// A connection established a session.
    pub fn session_started(&self, mode: SessionMode) {
        self.counters.active.add(1.0);
        self.counters.established[mode as usize].inc();
    }

    /// A connection released its session (parked or discarded).
    pub fn session_ended(&self) {
        self.counters.active.sub(1.0);
    }

    /// Absorbs one session's counter deltas; `newly_flagged` marks the
    /// first fold after that session's drift flag latched.
    fn fold(
        &self,
        delta_events: u64,
        delta_mispredicts: u64,
        delta_windows: u64,
        delta_bins: &[(u64, u64); PROFILE_BINS],
        newly_flagged: bool,
    ) {
        self.counters.events.add(delta_events);
        self.counters.mispredicts.add(delta_mispredicts);
        self.counters.windows.add(delta_windows);
        self.counters.drift_latches.add(newly_flagged as u64);
        let mut inner = self.inner.lock().unwrap();
        merge_bin_pairs(&mut inner.bins, delta_bins);
    }

    /// The fleet snapshot as a wire-ready [`FleetStats`]. `parked` is
    /// the session table's current parked count (the aggregator does not
    /// own the table). The event rate is re-measured when at least 50 ms
    /// passed since the previous measurement, smoothed across snapshots,
    /// and written through to the `paco_fleet_events_per_sec` gauge.
    pub fn snapshot(&self, parked: usize) -> FleetStats {
        let events = self.counters.events.value();
        let mut inner = self.inner.lock().unwrap();
        let elapsed = inner.rate_at.elapsed();
        if elapsed.as_millis() >= 50 {
            let fresh = (events - inner.rate_events) as f64 / elapsed.as_secs_f64();
            inner.rate = if inner.rate == 0.0 {
                fresh
            } else {
                0.5 * inner.rate + 0.5 * fresh
            };
            inner.rate_at = Instant::now();
            inner.rate_events = events;
            self.counters.events_per_sec.set(inner.rate);
        }
        FleetStats {
            sessions_active: self.counters.active.value() as u64,
            sessions_parked: parked as u64,
            sessions_seen: self.counters.established.iter().map(|c| c.value()).sum(),
            flagged_sessions: self.counters.drift_latches.value(),
            events,
            mispredicts: self.counters.mispredicts.value(),
            events_per_sec_bits: inner.rate.to_bits(),
            bins: inner.bins.to_vec(),
        }
    }
}

impl Default for FleetAggregator {
    fn default() -> Self {
        FleetAggregator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco::EncodedProb;
    use paco_types::Probability;

    /// An outcome whose score encodes `prob`.
    fn outcome(prob: f64, mispredicted: bool) -> OnlineOutcome {
        let score = EncodedProb::from_probability(Probability::new(prob).unwrap()).raw();
        OnlineOutcome {
            score: score.into(),
            has_prob: true,
            predicted_taken: true,
            mispredicted,
        }
    }

    /// Feeds `windows` full windows drawn from a fixed (prob, mispredict)
    /// mix.
    fn feed(watch: &mut WatchState, windows: u64, mix: &[(f64, bool)]) {
        let total = windows * WATCH_WINDOW;
        for i in 0..total {
            let (p, m) = mix[i as usize % mix.len()];
            watch.observe(&outcome(p, m));
        }
    }

    fn reference_like(mix: &[(f64, bool)]) -> CalibrationProfile {
        let mut profile = CalibrationProfile::new();
        for i in 0..(4 * WATCH_WINDOW) {
            let (p, m) = mix[i as usize % mix.len()];
            profile.record(outcome(p, m).probability(), m);
        }
        profile
    }

    const STEADY: &[(f64, bool)] = &[
        (0.97, false),
        (0.97, false),
        (0.92, false),
        (0.97, false),
        (0.80, true),
    ];
    const STORMY: &[(f64, bool)] = &[(0.55, true), (0.60, false), (0.55, true), (0.90, false)];

    #[test]
    fn on_profile_stream_stays_quiet() {
        let mut watch = WatchState::new(Some("steady".into()), Some(reference_like(STEADY)));
        feed(&mut watch, 12, STEADY);
        assert!(!watch.drift_flagged());
        let stats = watch.session_stats(1);
        assert_eq!(stats.windows, 12);
        assert_eq!(stats.events, 12 * WATCH_WINDOW);
        assert_eq!(stats.drift_window, 0);
        assert_eq!(stats.family.as_deref(), Some("steady"));
    }

    #[test]
    fn regime_switch_latches_the_flag_after_the_splice() {
        let mut watch = WatchState::new(Some("steady".into()), Some(reference_like(STEADY)));
        feed(&mut watch, 8, STEADY);
        assert!(!watch.drift_flagged(), "quiet before the splice");
        feed(&mut watch, 6, STORMY);
        assert!(watch.drift_flagged(), "stormy windows must latch the flag");
        let stats = watch.session_stats(1);
        assert!(
            stats.drift_window > 8,
            "flag must latch after the splice window, got {}",
            stats.drift_window
        );
        assert!(stats.drift_flagged);
    }

    #[test]
    fn undeclared_sessions_never_flag() {
        let mut watch = WatchState::new(None, None);
        feed(&mut watch, 4, STEADY);
        feed(&mut watch, 8, STORMY);
        assert!(!watch.drift_flagged());
        let stats = watch.session_stats(9);
        assert_eq!(stats.windows, 12);
        assert_eq!(stats.family, None);
        assert_eq!(stats.last_divergence_bits, 0.0f64.to_bits());
    }

    #[test]
    fn batched_and_per_event_observation_agree() {
        // Scores sweep every bin, and past the table into bin 0.
        let outcomes: Vec<OnlineOutcome> = (0..(3 * WATCH_WINDOW + 17))
            .map(|i| OnlineOutcome {
                score: i * 97 % 7000,
                has_prob: i % 7 != 0,
                predicted_taken: i % 2 == 0,
                mispredicted: i % 5 == 0,
            })
            .collect();
        let reference = reference_like(STEADY);

        let mut per_event = WatchState::new(Some("steady".into()), Some(reference));
        for o in &outcomes {
            per_event.observe(o);
        }

        let mut batched = WatchState::new(Some("steady".into()), Some(reference));
        for chunk in outcomes.chunks(512) {
            let mut batch = OutcomeBatch::new();
            for o in chunk {
                batch.push(o);
            }
            batched.observe_batch(&batch);
        }

        let mut a = Vec::new();
        crate::proto::encode_session_stats(&mut a, &per_event.session_stats(3));
        let mut b = Vec::new();
        crate::proto::encode_session_stats(&mut b, &batched.session_stats(3));
        assert_eq!(a, b, "lanes must produce byte-identical telemetry");
    }

    #[test]
    fn fold_into_accumulates_deltas_once() {
        let fleet = FleetAggregator::new();
        fleet.session_started(SessionMode::Fresh);
        let mut watch = WatchState::new(Some("steady".into()), Some(reference_like(STEADY)));
        feed(&mut watch, 2, STEADY);
        watch.fold_into(&fleet);
        watch.fold_into(&fleet); // no growth: must be a no-op
        let snap = fleet.snapshot(0);
        assert_eq!(snap.events, 2 * WATCH_WINDOW);
        assert_eq!(snap.sessions_active, 1);
        assert_eq!(snap.sessions_seen, 1);
        assert_eq!(snap.flagged_sessions, 0);
        assert_eq!(
            snap.bins.iter().map(|&(n, _)| n).sum::<u64>(),
            2 * WATCH_WINDOW
        );

        feed(&mut watch, 10, STORMY);
        watch.fold_into(&fleet);
        watch.fold_into(&fleet);
        fleet.session_ended();
        let snap = fleet.snapshot(4);
        assert_eq!(snap.events, 12 * WATCH_WINDOW);
        assert_eq!(
            snap.flagged_sessions, 1,
            "a latched flag folds exactly once"
        );
        assert_eq!(snap.sessions_active, 0);
        assert_eq!(snap.sessions_parked, 4);
    }

    #[test]
    fn score_bin_matches_the_float_oracle_everywhere() {
        let binner = ScoreBinner::new();
        let oracle = |score: u64| prob_bin(decode_score(score).value());
        for score in (0..1 << 20).chain([1 << 40, u64::MAX]) {
            assert_eq!(binner.bin(score), oracle(score), "score={score}");
        }
        // The table is no longer than it must be: its last entry is the
        // last score outside bin 0.
        assert_eq!(oracle(SCORE_TABLE_LEN as u64 - 1), 1);
    }

    #[test]
    fn load_state_restores_every_field_and_refuses_every_cut() {
        let mut watch = WatchState::new(Some("steady".into()), Some(reference_like(STEADY)));
        feed(&mut watch, 8, STEADY);
        let fleet = FleetAggregator::new();
        watch.fold_into(&fleet);
        feed(&mut watch, 6, STORMY);
        watch.observe(&outcome(0.3, true)); // a partial window
        assert!(watch.drift_flagged());
        let mut blob = Vec::new();
        watch.save_state(&mut blob);

        let mut input = blob.as_slice();
        let mut restored = WatchState::load_state(&mut input).expect("own blob restores");
        assert!(input.is_empty());
        let mut again = Vec::new();
        restored.save_state(&mut again);
        assert_eq!(again, blob);
        assert_eq!(restored.session_stats(7), watch.session_stats(7));
        // The fold marks came along: both fold the same delta next.
        feed(&mut restored, 1, STORMY);
        feed(&mut watch, 1, STORMY);
        let (a, b) = (FleetAggregator::new(), FleetAggregator::new());
        restored.fold_into(&a);
        watch.fold_into(&b);
        let (a, b) = (a.snapshot(0), b.snapshot(0));
        assert_eq!(
            (a.events, a.flagged_sessions, a.bins),
            (b.events, b.flagged_sessions, b.bins)
        );

        for cut in 0..blob.len() {
            assert!(
                WatchState::load_state(&mut &blob[..cut]).is_none(),
                "a blob cut at {cut} of {} must be refused",
                blob.len()
            );
        }
    }

    #[test]
    fn declare_pins_only_once() {
        let mut watch = WatchState::default();
        assert_eq!(watch.family(), None);
        watch.declare("a".into(), reference_like(STEADY));
        watch.declare("b".into(), reference_like(STORMY));
        assert_eq!(watch.family(), Some("a"));
    }
}

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
//! Each [`WatchState::observe_batch`] returns what the batch added (a
//! [`WatchDelta`]), and the server adds that to the shared
//! [`FleetAggregator`] before the batch's reply goes out, so the fleet
//! counts every answered batch of every session. Adding takes no lock:
//! counters and pooled calibration bins are striped `paco-obs`
//! counters. The aggregator also tracks a smoothed fleet event rate.
//!
//! Everything in a session's telemetry is a deterministic function of
//! its event stream: no clocks, no randomness. The lane-determinism
//! test encodes [`SessionStats`] from a per-event and a batched replay
//! of the same events and requires identical bytes.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use paco::decode_score;
use paco_analysis::{occupancy_distance, CusumDetector};
use paco_corpus::{prob_bin, CalibrationProfile, PROFILE_BINS, PROFILE_WINDOW};
use paco_obs::Counter;
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
    /// The declared family's shipped reference profile, when one was
    /// declared: borrowed from [`paco_corpus::reference_profile`], never
    /// copied.
    reference: Option<&'static CalibrationProfile>,
    family: Option<String>,
    /// Completed rolling windows (including warmup windows the detector
    /// never saw).
    windows: u64,
    /// The 1-based completed-window index at which the drift flag
    /// latched; 0 = never.
    drift_window: u64,
}

/// What one [`WatchState::observe_batch`] call added to the session's
/// lifetime telemetry: the fleet aggregator's whole input. Summed over
/// a session's batches it equals the session's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WatchDelta {
    /// Events, mispredicts and calibration bins the batch added.
    pub counts: CalibrationProfile,
    /// Rolling windows the batch completed.
    pub windows: u64,
    /// Whether the session's drift flag latched during the batch (true
    /// in exactly one batch of a flagged session's life).
    pub latched: bool,
}

impl WatchState {
    /// A fresh watch state, optionally pinned to a declared workload
    /// family and its reference profile.
    pub fn new(family: Option<String>, reference: Option<&'static CalibrationProfile>) -> Self {
        WatchState {
            cum: CalibrationProfile::new(),
            window: CalibrationProfile::new(),
            detector: CusumDetector::new(DRIFT_THRESHOLD, DRIFT_LIMIT),
            reference,
            family,
            windows: 0,
            drift_window: 0,
        }
    }

    /// Pins a declared family onto a session that does not have one yet
    /// (reclaiming a parked session with a declaring HELLO). A session
    /// that already has a family keeps it — telemetry stays a
    /// deterministic function of the original declaration.
    pub fn declare(&mut self, family: String, reference: &'static CalibrationProfile) {
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

    /// Records a whole outcome batch (the server hot loop) and returns
    /// what it added: the window's growth over the batch, counting each
    /// window that rolls on the way. Reads the struct-of-arrays columns
    /// directly and allocates nothing. The batch is processed in chunks
    /// that stop exactly at window boundaries, so the inner loop
    /// carries no per-event rollover check and settles the
    /// event/mispredict counters once per chunk; window rolls happen at
    /// the same event index as in the per-event lane (the
    /// lane-determinism test holds the two to identical bytes).
    pub fn observe_batch(&mut self, outcomes: &OutcomeBatch) -> WatchDelta {
        // Binning stays in the integer score domain: the score table is
        // bit-identical to `prob_bin` on the decoded score, so the
        // decode the per-event lane does is skipped entirely.
        let binner = ScoreBinner::new();
        let was_flagged = self.detector.is_flagged();
        let mut delta = WatchDelta::default();
        // The window as the batch found it; `None` once it has rolled
        // (a rolled window restarts empty).
        let mut start = Some(self.window);
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
                absorb_growth(&mut delta.counts, &self.window, start.take().as_ref());
                self.roll_window();
                delta.windows += 1;
            }
            (flags, scores) = (rest_flags, rest_scores);
        }
        absorb_growth(&mut delta.counts, &self.window, start.as_ref());
        delta.latched = !was_flagged && self.detector.is_flagged();
        delta
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
    /// dynamics (`f64`s as their bits), the family and the window
    /// counts. The reference profile is not saved: it is shipped data,
    /// resolved again from the family name on load. The session table
    /// parks a session as this plus its pipeline snapshot; unlike a
    /// pipeline snapshot, this blob never leaves the process.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        self.cum.save_state(out);
        self.window.save_state(out);
        for v in [
            self.detector.cusum().to_bits(),
            self.detector.last_divergence().to_bits(),
            self.detector.windows(),
            self.detector.flagged_at().map_or(0, |w| w + 1),
        ] {
            write_uvarint(out, v);
        }
        match &self.family {
            None => write_uvarint(out, 0),
            Some(family) => {
                write_uvarint(out, family.len() as u64 + 1);
                out.extend_from_slice(family.as_bytes());
            }
        }
        write_uvarint(out, self.windows);
        write_uvarint(out, self.drift_window);
    }

    /// Rebuilds a watch state written by [`save_state`](Self::save_state),
    /// advancing `input`; `None` on truncation, a malformed field, or a
    /// family with no shipped reference profile.
    pub fn load_state(input: &mut &[u8]) -> Option<WatchState> {
        let cum = CalibrationProfile::load_state(input)?;
        let window = CalibrationProfile::load_state(input)?;
        let mut detector = CusumDetector::new(DRIFT_THRESHOLD, DRIFT_LIMIT);
        let cusum = f64::from_bits(read_uvarint(input)?);
        let last = f64::from_bits(read_uvarint(input)?);
        let det_windows = read_uvarint(input)?;
        let flagged_at = read_uvarint(input)?.checked_sub(1);
        detector.restore(cusum, last, det_windows, flagged_at);
        let family = match read_uvarint(input)?.checked_sub(1) {
            None => None,
            Some(len) => {
                let len = usize::try_from(len).ok().filter(|&n| n <= input.len())?;
                let (name, rest) = input.split_at(len);
                *input = rest;
                Some(String::from_utf8(name.to_vec()).ok()?)
            }
        };
        let reference = match &family {
            None => None,
            Some(name) => Some(paco_corpus::reference_profile(name)?),
        };
        let mut watch = WatchState::new(family, reference);
        watch.cum = cum;
        watch.window = window;
        watch.detector = detector;
        watch.windows = read_uvarint(input)?;
        watch.drift_window = read_uvarint(input)?;
        Some(watch)
    }
}

/// Adds to `into` what `now` holds beyond `then`, an earlier state of
/// the same profile (all of `now` when there is no `then`).
fn absorb_growth(
    into: &mut CalibrationProfile,
    now: &CalibrationProfile,
    then: Option<&CalibrationProfile>,
) {
    let Some(then) = then else {
        into.absorb(now);
        return;
    };
    into.add_counts(
        now.events() - then.events(),
        now.mispredicts() - then.mispredicts(),
    );
    for (bin, (n, t)) in now.bins().iter().zip(then.bins()).enumerate() {
        into.add_bin(bin, n.0 - t.0, n.1 - t.1);
    }
}

impl Default for WatchState {
    fn default() -> Self {
        WatchState::new(None, None)
    }
}

/// Fleet-wide pooled telemetry, shared by every connection handler.
/// Sessions add their per-batch [`WatchDelta`]s; STATS_REQ, the
/// server's periodic log and `/metrics` scrapes read the same cells out
/// — the scalar counters *are* registry handles ([`FleetCounters`]), so
/// there is no parallel bookkeeping to keep in sync. The pooled
/// calibration bins (protocol-level data with no Prometheus shape) are
/// unregistered counters beside them; only the rate-smoothing state,
/// which snapshots alone touch, sits under a mutex.
#[derive(Debug)]
pub struct FleetAggregator {
    counters: FleetCounters,
    bins: [(Counter, Counter); PROFILE_BINS],
    rate: Mutex<FleetRate>,
}

#[derive(Debug)]
struct FleetRate {
    at: Instant,
    events: u64,
    per_sec: f64,
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
            bins: std::array::from_fn(|_| (Counter::new(), Counter::new())),
            rate: Mutex::new(FleetRate {
                at: Instant::now(),
                events: 0,
                per_sec: 0.0,
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

    /// Adds what one session batch added: striped counters, no lock,
    /// and no write for what a batch usually leaves at zero (windows,
    /// the latch, most bins).
    pub fn add(&self, delta: &WatchDelta) {
        let counts = &delta.counts;
        self.counters.events.add(counts.events());
        self.counters.mispredicts.add(counts.mispredicts());
        if delta.windows != 0 {
            self.counters.windows.add(delta.windows);
        }
        if delta.latched {
            self.counters.drift_latches.inc();
        }
        for ((instances, correct), &(n, c)) in self.bins.iter().zip(counts.bins()) {
            if n != 0 {
                instances.add(n);
                correct.add(c);
            }
        }
    }

    /// The fleet snapshot as a wire-ready [`FleetStats`]. `parked` is
    /// the session table's current parked count (the aggregator does not
    /// own the table). The event rate is re-measured when at least 50 ms
    /// passed since the previous measurement, smoothed across snapshots,
    /// and written through to the `paco_fleet_events_per_sec` gauge.
    pub fn snapshot(&self, parked: usize) -> FleetStats {
        let events = self.counters.events.value();
        let mut rate = self.rate.lock().expect("fleet rate state poisoned");
        let elapsed = rate.at.elapsed();
        if elapsed.as_millis() >= 50 {
            let fresh = (events - rate.events) as f64 / elapsed.as_secs_f64();
            rate.per_sec = if rate.per_sec == 0.0 {
                fresh
            } else {
                0.5 * rate.per_sec + 0.5 * fresh
            };
            rate.at = Instant::now();
            rate.events = events;
            self.counters.events_per_sec.set(rate.per_sec);
        }
        FleetStats {
            sessions_active: self.counters.active.value() as u64,
            sessions_parked: parked as u64,
            sessions_seen: self.counters.established.iter().map(|c| c.value()).sum(),
            flagged_sessions: self.counters.drift_latches.value(),
            events,
            mispredicts: self.counters.mispredicts.value(),
            events_per_sec_bits: rate.per_sec.to_bits(),
            bins: self
                .bins
                .iter()
                .map(|(n, c)| (n.value(), c.value()))
                .collect(),
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

    /// The outcomes of `windows` full windows drawn from `mix`, as one
    /// batch.
    fn batch_of(windows: u64, mix: &[(f64, bool)]) -> OutcomeBatch {
        let mut batch = OutcomeBatch::new();
        for i in 0..windows * WATCH_WINDOW {
            let (p, m) = mix[i as usize % mix.len()];
            batch.push(&outcome(p, m));
        }
        batch
    }

    /// A synthetic reference profile drawn from `mix`, leaked so it can
    /// stand where a shipped one would.
    fn reference_like(mix: &[(f64, bool)]) -> &'static CalibrationProfile {
        let mut profile = CalibrationProfile::new();
        for i in 0..(4 * WATCH_WINDOW) {
            let (p, m) = mix[i as usize % mix.len()];
            profile.record(outcome(p, m).probability(), m);
        }
        Box::leak(Box::new(profile))
    }

    /// A watch declared to a shipped corpus family, whose saved state
    /// reloads (a synthetic family has no profile to resolve).
    fn declared() -> WatchState {
        let family = "biased_bimodal";
        WatchState::new(
            Some(family.into()),
            Some(paco_corpus::reference_profile(family).expect("shipped family")),
        )
    }

    /// Outcomes whose scores sweep every bin (and past the score table
    /// into bin 0), with a mix of mispredicts and missing probabilities.
    fn sweep(n: u64) -> Vec<OnlineOutcome> {
        (0..n)
            .map(|i| OnlineOutcome {
                score: i * 97 % 7000,
                has_prob: i % 7 != 0,
                predicted_taken: i % 2 == 0,
                mispredicted: i % 5 == 0,
            })
            .collect()
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
        let outcomes = sweep(3 * WATCH_WINDOW + 17);
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
    fn fleet_adds_each_batch_delta() {
        let fleet = FleetAggregator::new();
        fleet.session_started(SessionMode::Fresh);
        let mut watch = WatchState::new(Some("steady".into()), Some(reference_like(STEADY)));
        fleet.add(&watch.observe_batch(&batch_of(2, STEADY)));
        let snap = fleet.snapshot(0);
        assert_eq!(snap.events, 2 * WATCH_WINDOW);
        assert_eq!(snap.sessions_active, 1);
        assert_eq!(snap.sessions_seen, 1);
        assert_eq!(snap.flagged_sessions, 0);
        assert_eq!(snap.bins, watch.session_stats(1).bins);

        for _ in 0..10 {
            fleet.add(&watch.observe_batch(&batch_of(1, STORMY)));
        }
        assert!(watch.drift_flagged());
        fleet.session_ended();
        let snap = fleet.snapshot(4);
        let stats = watch.session_stats(1);
        assert_eq!(
            (snap.events, snap.mispredicts, snap.bins),
            (stats.events, stats.mispredicts, stats.bins)
        );
        assert_eq!(snap.flagged_sessions, 1, "a latch is counted once");
        assert_eq!(snap.sessions_active, 0);
        assert_eq!(snap.sessions_parked, 4);
    }

    #[test]
    fn batch_deltas_sum_to_the_lifetime_counters_across_any_split() {
        let outcomes = sweep(9 * WATCH_WINDOW + 300);
        // Batch sizes: empty, single events, exact windows, a cut one
        // short of a boundary, a batch spanning several windows, then
        // pseudo-random sizes to the end.
        let w = WATCH_WINDOW as usize;
        let mut sizes = vec![1, 0, w - 1, w, 5, w - 5, 3 * w + 7, 1];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        while sizes.iter().sum::<usize>() < outcomes.len() {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sizes.push((rng >> 33) as usize % (w + w / 2));
        }
        // Reload mid-window before the latch (the latch comes with the
        // first scored window, at batch 5) and again after it.
        let reload_after = [4, 7];

        let mut watch = declared();
        let mut sum = WatchDelta::default();
        let mut latches = 0;
        let mut at = 0;
        for (k, &size) in sizes.iter().enumerate() {
            let mut batch = OutcomeBatch::new();
            for o in &outcomes[at..(at + size).min(outcomes.len())] {
                batch.push(o);
            }
            at += batch.len();
            let delta = watch.observe_batch(&batch);
            assert_eq!(delta.counts.events(), batch.len() as u64);
            sum.counts.absorb(&delta.counts);
            sum.windows += delta.windows;
            latches += delta.latched as u32;
            if reload_after.contains(&k) {
                let mut blob = Vec::new();
                watch.save_state(&mut blob);
                watch = WatchState::load_state(&mut blob.as_slice()).expect("own blob reloads");
            }
        }
        assert_eq!(at, outcomes.len());

        let stats = watch.session_stats(1);
        assert!(stats.drift_flagged, "the sweep must latch the flag");
        assert_eq!(stats.drift_window, WATCH_WARMUP_WINDOWS + 1);
        assert_eq!(latches, 1, "the latch is reported exactly once");
        assert_eq!(sum.counts.events(), stats.events);
        assert_eq!(sum.counts.mispredicts(), stats.mispredicts);
        assert_eq!(sum.windows, stats.windows);
        assert_eq!(sum.counts.bins(), &stats.bins[..]);
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
        let mut watch = declared();
        feed(&mut watch, 8, STEADY);
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
        // The restored state carries on exactly like the original.
        let more = batch_of(2, STORMY);
        assert_eq!(restored.observe_batch(&more), watch.observe_batch(&more));
        assert_eq!(restored.session_stats(7), watch.session_stats(7));

        for cut in 0..blob.len() {
            assert!(
                WatchState::load_state(&mut &blob[..cut]).is_none(),
                "a blob cut at {cut} of {} must be refused",
                blob.len()
            );
        }
        // A family without a shipped reference profile cannot reload.
        let mut synthetic = Vec::new();
        WatchState::new(Some("steady".into()), Some(reference_like(STEADY)))
            .save_state(&mut synthetic);
        assert!(WatchState::load_state(&mut synthetic.as_slice()).is_none());
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

//! The online confidence pipeline: fetch-time path confidence as a
//! deterministic, timing-free service semantics.
//!
//! The cycle-level [`Machine`](crate::Machine) interleaves estimator
//! events with out-of-order timing, wrong-path excursions and squashes —
//! its confidence stream is a function of the whole microarchitecture.
//! A *streaming service* needs the opposite: a semantics defined purely
//! by the branch-event stream, so that any two executions of the same
//! stream — in-process, across a socket, before or after a
//! snapshot/restore — produce **byte-identical** predictions.
//!
//! [`OnlinePipeline`] is that semantics. It owns the same hardware the
//! simulator front end uses per thread — tournament predictor, JRS MDC
//! table, global history, and any [`EstimatorKind`] — and processes
//! resolved branch events in order. Each event is predicted and fetched
//! immediately; its *resolution* (estimator training, MDC update,
//! predictor update) is deferred by [`OnlineConfig::resolve_lag`] events,
//! modeling the paper's window of unresolved in-flight branches: the
//! confidence score at any point sums the contributions of the last
//! `resolve_lag` branches, exactly like the hardware register sums the
//! in-flight window.
//!
//! # The two lanes
//!
//! Events enter the pipeline through one of two lanes — two
//! implementations of one semantics, in the classic
//! reference/fast-path pattern:
//!
//! * the **per-event lane**, [`on_instr`](OnlinePipeline::on_instr) —
//!   one [`DynInstr`] in, one [`OnlineOutcome`] out, with the estimator
//!   behind a `dyn` vtable and every table keyed the obvious way by
//!   `Pc`. Deliberately simple: this is the *reference semantics*.
//! * the **batched lane**, [`run_batch`](OnlinePipeline::run_batch) —
//!   a struct-of-arrays [`EventBatch`] in, an
//!   [`OutcomeBatch`](crate::OutcomeBatch) appended to. The estimator
//!   is matched out of its [`EstimatorKind`] **once per batch**, the
//!   inner loop is monomorphized over the concrete estimator type
//!   (no enum or vtable dispatch, no allocation), each event's PC is
//!   hashed once and carried through the in-flight window, and the
//!   tables are borrowed as lanes with their masks and bounds hoisted
//!   out of the loop. `paco-served` decodes EVENTS frames straight into
//!   this lane.
//!
//! The batched lane is one loop: each event runs predict → MDC fetch →
//! estimator fetch → outcome write → window push → due resolves →
//! tick; only an estimator's own slow paths (a refresh, say) call out
//! of line.
//! `docs/ARCHITECTURE.md` describes the anatomy.
//!
//! Lane equality — per outcome and per wire byte — is enforced, not
//! assumed: the unit suite replays long streams through both lanes at
//! several batch sizes for every estimator kind, the serve integration
//! suite compares server bytes (batched) against offline replay
//! (per-event) for every estimator kind through the live reactor, and
//! every `paco-load` and `servebench` run digest-compares the served
//! stream against the per-event lane.
//!
//! `paco-served` runs one pipeline per session; the parity tests replay
//! the same trace through a pipeline offline and require equality to the
//! last bit.

use paco::{
    AdaptiveMrtPredictor, BranchFetchInfo, BranchToken, PacoPredictor, PathConfidenceEstimator,
    PerBranchMrtPredictor, StaticMrtPredictor, ThresholdCountPredictor,
};
use paco_branch::DirectionPredictor;
use paco_branch::{
    ConfidenceConfig, Mdc, MdcIndex, MdcTable, TournamentConfig, TournamentPredictor,
};
use paco_types::canon::Canon;
use paco_types::wire::{read_uvarint, write_uvarint};
use paco_types::{ControlKind, DynInstr, EventBatch, GlobalHistory, InstrClass, Pc};

use crate::batch::OutcomeBatch;
use crate::estimator_kind::NullEstimator;
use crate::EstimatorKind;

/// Configuration of an [`OnlinePipeline`] — the unit of client/server
/// config negotiation in `paco-serve` (compared by canonical hash).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Direction predictor configuration.
    pub tournament: TournamentConfig,
    /// JRS confidence table configuration.
    pub confidence: ConfidenceConfig,
    /// The path confidence estimator every event feeds.
    pub estimator: EstimatorKind,
    /// How many subsequent events a branch stays "in flight" before its
    /// resolution trains the tables. 0 resolves immediately (each score
    /// covers only the current branch); the paper-like default keeps a
    /// ROB's worth of branches unresolved.
    pub resolve_lag: usize,
    /// Estimator cycles ticked per event (drives PaCo's periodic MRT
    /// refresh; an event stands in for a fixed slice of simulated time).
    pub ticks_per_event: u64,
}

impl OnlineConfig {
    /// Upper bound accepted for any table size (guards servers against
    /// resource-exhaustion configs). Sized so that a full pipeline
    /// snapshot — every table at the cap, a full in-flight window —
    /// stays well under the serve protocol's 4 MiB frame cap, keeping
    /// snapshot/restore transportable for *every* config `validate`
    /// accepts (2^18 is still 2x the paper's largest table).
    pub const MAX_TABLE_ENTRIES: usize = 1 << 18;

    /// Upper bound accepted for [`resolve_lag`](Self::resolve_lag)
    /// (bounds the in-flight window a snapshot must carry).
    pub const MAX_RESOLVE_LAG: usize = 1 << 12;

    /// The paper-shaped configuration: full-size tables, a 32-branch
    /// in-flight window, one cycle per event.
    pub fn paper(estimator: EstimatorKind) -> Self {
        OnlineConfig {
            tournament: TournamentConfig::paper(),
            confidence: ConfidenceConfig::paper(),
            estimator,
            resolve_lag: 32,
            ticks_per_event: 1,
        }
    }

    /// A small configuration for fast tests.
    pub fn tiny(estimator: EstimatorKind) -> Self {
        OnlineConfig {
            tournament: TournamentConfig::tiny(),
            confidence: ConfidenceConfig::tiny(),
            estimator,
            resolve_lag: 8,
            ticks_per_event: 1,
        }
    }

    /// Checks every invariant the component constructors would otherwise
    /// panic on, plus service-level resource bounds — so a server can
    /// reject a hostile or corrupt config instead of crashing.
    pub fn validate(&self) -> Result<(), String> {
        let table = |name: &str, entries: usize| {
            if !entries.is_power_of_two() {
                Err(format!("{name} entries {entries} not a power of two"))
            } else if entries > Self::MAX_TABLE_ENTRIES {
                Err(format!("{name} entries {entries} exceed the service cap"))
            } else {
                Ok(())
            }
        };
        table("gshare", self.tournament.gshare_entries)?;
        table("bimodal", self.tournament.bimodal_entries)?;
        table("selector", self.tournament.selector_entries)?;
        table("confidence", self.confidence.entries)?;
        if self.tournament.history_bits > 64 {
            return Err("tournament history bits exceed 64".into());
        }
        if self.confidence.history_bits > 64 {
            return Err("confidence history bits exceed 64".into());
        }
        if !(1..=8).contains(&self.confidence.counter_bits) {
            return Err("confidence counter bits outside 1..=8".into());
        }
        if let EstimatorKind::PerBranchMrt(cfg) = self.estimator {
            table("per-branch MRT", cfg.entries)?;
        }
        if let EstimatorKind::AdaptiveMrt(cfg) = self.estimator {
            if cfg.detect_window == 0 || cfg.detect_window > 1 << 20 {
                return Err("adaptive MRT detect window outside 1..=2^20".into());
            }
            if cfg.threshold_permille > 1000 {
                return Err("adaptive MRT threshold exceeds 1000 permille".into());
            }
            if cfg.limit_permille == 0 || cfg.limit_permille > 1_000_000 {
                return Err("adaptive MRT limit outside 1..=10^6 permille".into());
            }
            if cfg.warmup_windows > 1 << 12 {
                return Err("adaptive MRT warmup windows exceed the service cap".into());
            }
        }
        if self.resolve_lag > Self::MAX_RESOLVE_LAG {
            return Err("resolve lag exceeds the service cap".into());
        }
        if self.ticks_per_event > 1 << 20 {
            return Err("ticks per event exceed the service cap".into());
        }
        Ok(())
    }
}

impl Canon for OnlineConfig {
    fn canon(&self, out: &mut Vec<u8>) {
        out.push(0x24); // type tag (sim-crate 0x2x block; 0x30 is BenchmarkId)
        self.tournament.canon(out);
        self.confidence.canon(out);
        self.estimator.canon(out);
        self.resolve_lag.canon(out);
        self.ticks_per_event.canon(out);
    }
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig::paper(EstimatorKind::Paco(paco::PacoConfig::paper()))
    }
}

/// The pipeline's answer for one branch event: the fetch-time confidence
/// estimate *with this branch in flight*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineOutcome {
    /// Confidence score after fetching this branch (lower = more
    /// confident); comparable across a session.
    pub score: u64,
    /// Whether the score is an encoded goodpath probability (PaCo and
    /// the MRT variants): the estimator's probability is then exactly
    /// [`paco::decode_score`] of the score, so the outcome carries no
    /// second copy of it.
    pub has_prob: bool,
    /// The direction the pipeline's predictor chose.
    pub predicted_taken: bool,
    /// Whether that prediction missed the architectural outcome.
    pub mispredicted: bool,
}

impl OnlineOutcome {
    /// The estimated goodpath probability, decoded from the score, for
    /// estimators that produce one.
    pub fn probability(&self) -> Option<f64> {
        self.has_prob
            .then(|| paco::decode_score(self.score).value())
    }
}

/// A fetched-but-unresolved branch in the pipeline's in-flight window:
/// 32 bytes, so a push or a pop moves half a cache line.
///
/// The estimator's [`BranchToken`] is kept by parts — its contribution,
/// its MDC and its low-confidence bit — and rebuilt by
/// [`token`](Self::token): every token an estimator hands out either
/// carries no MDC (and is empty) or carries the fetch's table key,
/// which is `pc_hash ^ hist_before`. Both lanes assert the round trip
/// in debug builds, and a restore refuses a blob whose tokens do not
/// make it.
#[derive(Debug, Clone, Copy)]
struct PendingBranch {
    pc: u64,
    /// `Pc::table_hash()` of `pc`, computed once at fetch and reused by
    /// every resolve-time table index (a pure function of `pc`, so
    /// caching it cannot change any outcome). Not serialized — restore
    /// recomputes it. 0 for non-conditional control, whose resolution
    /// never indexes a table.
    pc_hash: u64,
    hist_before: u64,
    /// The MDC entry read at fetch, reused by the batched lane's
    /// resolve. A pure function of `(pc_hash, hist_before, predicted)`,
    /// so caching it cannot change any outcome; not serialized
    /// (restore recomputes it); placeholder for non-conditional
    /// control.
    mdc_idx: MdcIndex,
    /// The token's encoded contribution (at most
    /// [`paco::EncodedProb::SATURATION`]).
    encoded: u16,
    /// The token's MDC value, meaningful under [`HAS_MDC`].
    mdc: u8,
    /// [`TAKEN`], [`PREDICTED`] and [`CONDITIONAL`] — the snapshot's
    /// flag byte — plus the token's [`LOW_CONF`] and [`HAS_MDC`] bits.
    flags: u8,
}

const _: () = assert!(std::mem::size_of::<PendingBranch>() == 32);

/// [`PendingBranch::flags`]: the branch was taken.
const TAKEN: u8 = 1;
/// [`PendingBranch::flags`]: the pipeline predicted it taken.
const PREDICTED: u8 = 1 << 1;
/// [`PendingBranch::flags`]: it is a conditional branch.
const CONDITIONAL: u8 = 1 << 2;
/// [`PendingBranch::flags`]: its token is low-confidence.
const LOW_CONF: u8 = 1 << 3;
/// [`PendingBranch::flags`]: its token carries an MDC.
const HAS_MDC: u8 = 1 << 4;
/// The flag bits a snapshot stores.
const SNAPSHOT_FLAGS: u8 = TAKEN | PREDICTED | CONDITIONAL;

impl PendingBranch {
    /// A window entry; `flags` holds the snapshot bits, the token's are
    /// added here.
    #[inline(always)]
    fn new(
        pc: u64,
        pc_hash: u64,
        hist_before: u64,
        mdc_idx: MdcIndex,
        token: BranchToken,
        flags: u8,
    ) -> Self {
        let mdc = token.mdc();
        PendingBranch {
            pc,
            pc_hash,
            hist_before,
            mdc_idx,
            encoded: token.encoded_contribution() as u16,
            mdc: mdc.map_or(0, |m| m.value()),
            flags: flags
                | if token.is_low_confidence() {
                    LOW_CONF
                } else {
                    0
                }
                | if mdc.is_some() { HAS_MDC } else { 0 },
        }
    }

    /// An inert record, used to pre-fill window slots.
    fn empty() -> Self {
        PendingBranch {
            pc: 0,
            pc_hash: 0,
            hist_before: 0,
            mdc_idx: MdcIndex::default(),
            encoded: 0,
            mdc: 0,
            flags: 0,
        }
    }

    /// The estimator token, rebuilt (see the type docs).
    #[inline(always)]
    fn token(&self) -> BranchToken {
        let mdc = (self.flags & HAS_MDC != 0).then(|| Mdc::new(self.mdc));
        let table_key = if mdc.is_some() {
            self.pc_hash ^ self.hist_before
        } else {
            0
        };
        let low_conf = self.flags & LOW_CONF != 0;
        BranchToken::from_parts(self.encoded as u32, low_conf, mdc, table_key)
    }

    #[inline(always)]
    fn taken(&self) -> bool {
        self.flags & TAKEN != 0
    }

    #[inline(always)]
    fn predicted(&self) -> bool {
        self.flags & PREDICTED != 0
    }

    #[inline(always)]
    fn conditional(&self) -> bool {
        self.flags & CONDITIONAL != 0
    }
}

/// The snapshot flag bits of a branch.
#[inline(always)]
fn branch_flags(taken: bool, predicted: bool, conditional: bool) -> u8 {
    taken as u8 | (predicted as u8) << 1 | (conditional as u8) << 2
}

/// The in-flight window: a fixed-capacity ring of [`PendingBranch`]es.
///
/// Occupancy is bounded by construction — every push is followed by
/// draining down to `resolve_lag` — so the ring is allocated once and
/// never grows, and its push/pop are plain masked index arithmetic with
/// no capacity management on the hot path. Capacity is rounded to a
/// power of two for the mask (the slice length minus one, so every
/// masked index is in bounds by construction).
struct Window {
    slots: Box<[PendingBranch]>,
    head: usize,
    len: usize,
}

impl Window {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1).next_power_of_two();
        Window {
            slots: vec![PendingBranch::empty(); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// A window with no slots, standing in while the batched lane holds
    /// the real one (allocates nothing).
    fn detached() -> Self {
        Window {
            slots: Box::default(),
            head: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline(always)]
    fn push_back(&mut self, b: PendingBranch) {
        debug_assert!(self.len < self.slots.len(), "window overfilled");
        let idx = (self.head + self.len) & self.mask();
        self.slots[idx] = b;
        self.len += 1;
    }

    #[inline(always)]
    fn pop_front(&mut self) -> Option<PendingBranch> {
        if self.len == 0 {
            return None;
        }
        let b = self.slots[self.head & self.mask()];
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        Some(b)
    }

    /// Iterates oldest → youngest (snapshot order).
    fn iter(&self) -> impl Iterator<Item = &PendingBranch> + '_ {
        (0..self.len).map(move |i| &self.slots[(self.head + i) & self.mask()])
    }
}

const STATE_VERSION: u8 = 2;

/// The estimator held as a concrete type — one variant per
/// [`EstimatorKind`] — so the batched lane can select it once per batch
/// and monomorphize the inner loop over it, while the per-event lane
/// still reaches it as `dyn PathConfidenceEstimator`.
pub(crate) enum EstimatorLane {
    None(NullEstimator),
    Paco(PacoPredictor),
    ThresholdCount(ThresholdCountPredictor),
    StaticMrt(StaticMrtPredictor),
    PerBranchMrt(PerBranchMrtPredictor),
    AdaptiveMrt(AdaptiveMrtPredictor),
}

impl EstimatorLane {
    /// Builds the concrete estimator for a kind. This is the **single**
    /// kind→constructor mapping in the crate: [`EstimatorKind::build`]
    /// boxes the same variants via [`into_boxed`](Self::into_boxed), so
    /// the pipeline and the cycle-level machine cannot instantiate
    /// different estimators for one kind.
    pub(crate) fn new(kind: &EstimatorKind) -> Self {
        match *kind {
            EstimatorKind::None => EstimatorLane::None(NullEstimator),
            EstimatorKind::Paco(cfg) => EstimatorLane::Paco(PacoPredictor::new(cfg)),
            EstimatorKind::ThresholdCount(cfg) => {
                EstimatorLane::ThresholdCount(ThresholdCountPredictor::new(cfg))
            }
            EstimatorKind::StaticMrt => {
                EstimatorLane::StaticMrt(StaticMrtPredictor::with_default_profile())
            }
            EstimatorKind::PerBranchMrt(cfg) => {
                EstimatorLane::PerBranchMrt(PerBranchMrtPredictor::new(cfg))
            }
            EstimatorKind::AdaptiveMrt(cfg) => {
                EstimatorLane::AdaptiveMrt(AdaptiveMrtPredictor::new(cfg))
            }
        }
    }

    /// Boxes the concrete estimator behind the trait object interface
    /// the cycle-level machine uses.
    pub(crate) fn into_boxed(self) -> Box<dyn PathConfidenceEstimator> {
        match self {
            EstimatorLane::None(e) => Box::new(e),
            EstimatorLane::Paco(e) => Box::new(e),
            EstimatorLane::ThresholdCount(e) => Box::new(e),
            EstimatorLane::StaticMrt(e) => Box::new(e),
            EstimatorLane::PerBranchMrt(e) => Box::new(e),
            EstimatorLane::AdaptiveMrt(e) => Box::new(e),
        }
    }

    fn as_dyn(&self) -> &dyn PathConfidenceEstimator {
        match self {
            EstimatorLane::None(e) => e,
            EstimatorLane::Paco(e) => e,
            EstimatorLane::ThresholdCount(e) => e,
            EstimatorLane::StaticMrt(e) => e,
            EstimatorLane::PerBranchMrt(e) => e,
            EstimatorLane::AdaptiveMrt(e) => e,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn PathConfidenceEstimator {
        match self {
            EstimatorLane::None(e) => e,
            EstimatorLane::Paco(e) => e,
            EstimatorLane::ThresholdCount(e) => e,
            EstimatorLane::StaticMrt(e) => e,
            EstimatorLane::PerBranchMrt(e) => e,
            EstimatorLane::AdaptiveMrt(e) => e,
        }
    }
}

/// Everything in the pipeline except the estimator: the front-end
/// hardware, the in-flight window and the event counters. Split out so
/// the batched lane can borrow the core mutably alongside the concrete
/// estimator it matched out of the [`EstimatorLane`].
struct PipelineCore {
    config_hash: u64,
    resolve_lag: usize,
    ticks_per_event: u64,
    tournament: TournamentPredictor,
    mdc: MdcTable,
    hist: GlobalHistory,
    pending: Window,
    events: u64,
}

impl PipelineCore {
    /// The **reference** per-event implementation: one control event
    /// end to end — predict, read the MDC, fetch into the estimator,
    /// window the branch, resolve whatever falls out of the window,
    /// tick — written the obvious way against the plain `Pc`-keyed
    /// table APIs and a `dyn` estimator, exactly as the service's
    /// per-event path has always worked.
    ///
    /// This body is deliberately *not* shared with the batched fast
    /// step below: its job is to state the event semantics legibly and
    /// serve as the baseline the batched lane is proven against
    /// (outcome-by-outcome and wire-byte equality in the sim/serve
    /// suites, plus a digest gate on every `paco-load`/`servebench`
    /// run) and measured against (`servebench`'s `sim.oracle_ns_per_ev`
    /// and `sim.kernel_ns_per_ev.*` lanes). Any change to
    /// the semantics must be made to both bodies; the parity tests
    /// fail loudly if only one moves.
    fn step_reference(
        &mut self,
        est: &mut dyn PathConfidenceEstimator,
        pc: Pc,
        conditional: bool,
        taken: bool,
    ) -> OnlineOutcome {
        let hist_before = self.hist.bits();

        let (info, idx, predicted, mispredicted) = if conditional {
            let predicted = self.tournament.predict(pc, hist_before);
            let (idx, mdc) = self.mdc.fetch(pc, hist_before, predicted);
            let info = BranchFetchInfo::conditional_keyed(mdc, pc.table_hash() ^ hist_before);
            // The architectural outcome is known at event time, so the
            // history register tracks truth — the same state the machine
            // reaches after resolving (and, on a miss, repairing) the
            // branch.
            self.hist.push(taken);
            (info, idx, predicted, predicted != taken)
        } else {
            (
                BranchFetchInfo::non_conditional(),
                MdcIndex::default(),
                true,
                false,
            )
        };

        let token = est.on_fetch(info);
        let prob = est.goodpath_probability();
        let outcome = OnlineOutcome {
            score: est.score().0,
            has_prob: prob.is_some(),
            predicted_taken: predicted,
            mispredicted,
        };
        // Outcomes carry only the score: an estimator's probability must
        // be the decoded score.
        debug_assert_eq!(prob.map(|p| p.value()), outcome.probability());

        // The window is shared with the batched lane, whose resolve
        // indexes off the cached hash/index; fill them here too so the
        // lanes can interleave freely on one pipeline.
        let pc_hash = if conditional { pc.table_hash() } else { 0 };
        let flags = branch_flags(taken, predicted, conditional);
        let entry = PendingBranch::new(pc.addr(), pc_hash, hist_before, idx, token, flags);
        debug_assert_eq!(entry.token(), token, "a token the window cannot hold");
        self.pending.push_back(entry);
        while self.pending.len() > self.resolve_lag {
            self.resolve_oldest_reference(est);
        }
        est.tick(self.ticks_per_event);
        self.events += 1;
        outcome
    }

    /// The reference resolve: plain `Pc`-keyed table updates (see
    /// [`step_reference`](Self::step_reference)). Kept out of line:
    /// inlined into `step_reference`, the compiler hoists every table
    /// field out of the (at most once per event) resolve loop into
    /// stack slots that each event then pays to fill.
    #[inline(never)]
    fn resolve_oldest_reference(&mut self, est: &mut dyn PathConfidenceEstimator) {
        let Some(b) = self.pending.pop_front() else {
            return;
        };
        if b.conditional() {
            let pc = Pc::new(b.pc);
            let mispredicted = b.predicted() != b.taken();
            est.on_resolve(b.token(), mispredicted);
            let idx = self.mdc.index(pc, b.hist_before, b.predicted());
            self.mdc.update(idx, !mispredicted);
            self.tournament
                .update(pc, b.hist_before, b.taken(), b.predicted());
        } else {
            est.on_resolve(b.token(), false);
        }
    }

    /// The **batched lane**: the same event semantics as
    /// [`step_reference`](Self::step_reference), rebuilt as one loop
    /// over a whole batch and monomorphized per concrete estimator, so
    /// every estimator call inlines and nothing is dispatched or
    /// allocated per event.
    ///
    /// Everything per-batch is hoisted before the loop: the tournament
    /// and MDC tables are borrowed as lanes (slices whose power-of-two
    /// lengths are the index masks, so no access is bounds-checked,
    /// with the history masks and counter bounds in locals), and the
    /// history register and event count stay in locals until the batch
    /// ends. Each event's PC is hashed once; predict, the MDC fetch,
    /// the table key and the resolve-time training all index off that
    /// hash, and the resolve reuses the MDC index cached at fetch. The
    /// window entry is 32 bytes. `has_prob` comes from the estimator
    /// kind, so no probability is computed.
    ///
    /// Equality with the reference is asserted by the parity suites;
    /// the lanes' own unit tests in `paco-branch` pin their ops to the
    /// plain table APIs.
    fn process_batch<E: PathConfidenceEstimator>(
        &mut self,
        est: &mut E,
        has_prob: bool,
        events: &EventBatch,
        out: &mut OutcomeBatch,
    ) {
        let start = out.len();
        let (flags_out, scores_out) = out.append_columns(events.len());
        let lag = self.resolve_lag;
        let ticks = self.ticks_per_event;
        let mut tournament = self.tournament.lane();
        let mut mdc = self.mdc.lane();
        // The window moves into a local for the batch (its slots stay
        // put), so its head and length live in registers.
        let mut window = std::mem::replace(&mut self.pending, Window::detached());
        let mut hist = self.hist;
        let mut fetched = 0;
        for (pc, control, taken) in events.lanes() {
            // Non-control events are ignored, exactly like `on_instr`.
            let Some(conditional) = control else {
                continue;
            };
            let hist_before = hist.bits();
            // Each arm builds its own outcome flags and window entry, so
            // the non-conditional arm's are constants.
            let (entry, outcome_flags) = if conditional {
                let pc_hash = pc.table_hash();
                let predicted = tournament.predict(pc_hash, hist_before);
                let (idx, m) = mdc.fetch(pc_hash, hist_before, predicted);
                let info = BranchFetchInfo::conditional_keyed(m, pc_hash ^ hist_before);
                let token = est.on_fetch(info);
                // The architectural outcome is known at event time, so
                // the history register tracks truth — the same state the
                // machine reaches after resolving (and, on a miss,
                // repairing) the branch.
                hist.push(taken);
                let flags = branch_flags(taken, predicted, true);
                let entry = PendingBranch::new(pc.addr(), pc_hash, hist_before, idx, token, flags);
                debug_assert_eq!(entry.token(), token, "a token the window cannot hold");
                let mispredicted = predicted != taken;
                (
                    entry,
                    OutcomeBatch::flag_bits(predicted, mispredicted, has_prob),
                )
            } else {
                // The online pipeline has no BTB/RAS/indirect model:
                // service clients stream *resolved* events, and
                // non-conditional control contributes no confidence
                // state under JRS coverage (the paper's perlbmk blind
                // spot, faithfully). Report them as predicted-taken hits.
                let token = est.on_fetch(BranchFetchInfo::non_conditional());
                let flags = branch_flags(taken, true, false);
                let idx = MdcIndex::default();
                let entry = PendingBranch::new(pc.addr(), 0, hist_before, idx, token, flags);
                debug_assert_eq!(entry.token(), token, "a token the window cannot hold");
                (entry, OutcomeBatch::flag_bits(true, false, has_prob))
            };
            flags_out[fetched] = outcome_flags;
            scores_out[fetched] = est.score().0;

            window.push_back(entry);
            while window.len() > lag {
                // The deferred back half of an older event: estimator
                // training, MDC update, predictor update.
                let Some(b) = window.pop_front() else {
                    break;
                };
                if b.conditional() {
                    let mispredicted = b.predicted() != b.taken();
                    est.on_resolve(b.token(), mispredicted);
                    mdc.update(b.mdc_idx, !mispredicted);
                    tournament.train(b.pc_hash, b.hist_before, b.taken());
                } else {
                    est.on_resolve(b.token(), false);
                }
            }
            est.tick(ticks);
            fetched += 1;
        }
        out.truncate(start + fetched);
        self.pending = window;
        self.hist = hist;
        self.events += fetched as u64;
    }
}

/// The streaming confidence pipeline (see module docs).
///
/// # Examples
///
/// ```
/// use paco_sim::{OnlineConfig, OnlinePipeline, EstimatorKind};
/// use paco::PacoConfig;
/// use paco_types::{DynInstr, Pc};
///
/// let config = OnlineConfig::tiny(EstimatorKind::Paco(PacoConfig::paper()));
/// let mut pipe = OnlinePipeline::new(&config);
/// let outcome = pipe
///     .on_instr(&DynInstr::branch(Pc::new(0x1000), true, Pc::new(0x2000)))
///     .expect("control instructions produce outcomes");
/// assert!(outcome.has_prob); // PaCo estimates a probability
/// assert_eq!(outcome.probability(), Some(paco::decode_score(outcome.score).value()));
/// ```
///
/// The batched lane produces the same outcomes from a
/// [`paco_types::EventBatch`]:
///
/// ```
/// use paco_sim::{OnlineConfig, OnlinePipeline, EstimatorKind, OutcomeBatch};
/// use paco_types::{DynInstr, EventBatch, Pc};
///
/// let config = OnlineConfig::tiny(EstimatorKind::None);
/// let mut pipe = OnlinePipeline::new(&config);
/// let mut batch = EventBatch::new();
/// batch.push(&DynInstr::branch(Pc::new(0x1000), true, Pc::new(0x2000)));
/// let mut out = OutcomeBatch::new();
/// pipe.run_batch(&batch, &mut out);
/// assert_eq!(out.len(), 1);
/// ```
pub struct OnlinePipeline {
    config: OnlineConfig,
    core: PipelineCore,
    lane: EstimatorLane,
}

impl std::fmt::Debug for OnlinePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlinePipeline")
            .field("estimator", &self.estimator_name())
            .field("events", &self.core.events)
            .field("in_flight", &self.core.pending.len())
            .finish_non_exhaustive()
    }
}

impl OnlinePipeline {
    /// Builds a pipeline for a (valid) configuration.
    ///
    /// # Panics
    ///
    /// Panics on configurations [`OnlineConfig::validate`] rejects.
    pub fn new(config: &OnlineConfig) -> Self {
        let tournament = TournamentPredictor::new(config.tournament);
        let mdc = MdcTable::new(config.confidence);
        OnlinePipeline {
            config: *config,
            core: PipelineCore {
                config_hash: config.canon_hash(),
                resolve_lag: config.resolve_lag,
                ticks_per_event: config.ticks_per_event,
                tournament,
                mdc,
                hist: GlobalHistory::new(config.tournament.history_bits.max(8)),
                pending: Window::new(config.resolve_lag + 1),
                events: 0,
            },
            lane: EstimatorLane::new(&config.estimator),
        }
    }

    /// The configuration this pipeline was built from.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Canonical hash of the configuration this pipeline was built from;
    /// snapshots are only restorable across equal hashes.
    pub fn config_hash(&self) -> u64 {
        self.core.config_hash
    }

    /// Branch events processed so far.
    pub fn events(&self) -> u64 {
        self.core.events
    }

    /// Branches currently in the unresolved window.
    pub fn in_flight(&self) -> usize {
        self.core.pending.len()
    }

    /// The estimator's display name.
    pub fn estimator_name(&self) -> String {
        self.lane.as_dyn().name()
    }

    /// Processes one instruction through the **per-event lane**. Control
    /// instructions produce an [`OnlineOutcome`]; anything else is
    /// ignored (`None`) — the service event stream carries only
    /// branches.
    pub fn on_instr(&mut self, instr: &DynInstr) -> Option<OnlineOutcome> {
        let InstrClass::Control(kind) = instr.class else {
            return None;
        };
        let conditional = matches!(kind, ControlKind::Conditional);
        Some(
            self.core
                .step_reference(self.lane.as_dyn_mut(), instr.pc, conditional, instr.taken),
        )
    }

    /// Processes a whole [`EventBatch`] through the **batched lane**,
    /// appending one outcome per control event to `out` (non-control
    /// events are ignored, exactly like [`on_instr`](Self::on_instr)).
    ///
    /// The estimator kind is matched once here; the inner loop is
    /// monomorphized over the concrete estimator and allocation-free.
    /// Outcomes are identical to feeding the same events through
    /// `on_instr` one at a time — asserted per outcome and per wire
    /// byte by the sim/serve suites and digest-checked on every
    /// `paco-load`/`servebench` run. The lanes can be interleaved freely
    /// on one pipeline (they share the tables and the in-flight
    /// window).
    pub fn run_batch(&mut self, events: &EventBatch, out: &mut OutcomeBatch) {
        // PaCo and the MRT variants score with an encoded probability;
        // the null and threshold-and-count estimators do not.
        let core = &mut self.core;
        match &mut self.lane {
            EstimatorLane::None(est) => core.process_batch(est, false, events, out),
            EstimatorLane::Paco(est) => core.process_batch(est, true, events, out),
            EstimatorLane::ThresholdCount(est) => core.process_batch(est, false, events, out),
            EstimatorLane::StaticMrt(est) => core.process_batch(est, true, events, out),
            EstimatorLane::PerBranchMrt(est) => core.process_batch(est, true, events, out),
            EstimatorLane::AdaptiveMrt(est) => core.process_batch(est, true, events, out),
        }
    }

    /// Serializes the pipeline's complete state — tables, history,
    /// estimator, in-flight window — prefixed with a version byte and the
    /// configuration hash, so a blob can only restore into an identically
    /// configured pipeline.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.push(STATE_VERSION);
        out.extend_from_slice(&self.core.config_hash.to_le_bytes());
        write_uvarint(out, self.core.events);
        write_uvarint(out, self.core.hist.bits());
        self.core.tournament.save_state(out);
        self.core.mdc.save_state(out);
        self.lane.as_dyn().save_state(out);
        write_uvarint(out, self.core.pending.len() as u64);
        for b in self.core.pending.iter() {
            b.token().save_state(out);
            write_uvarint(out, b.pc);
            write_uvarint(out, b.hist_before);
            out.push(b.flags & SNAPSHOT_FLAGS);
        }
    }

    /// Restores state saved by [`save_state`](Self::save_state),
    /// advancing `input` past the blob. `false` on version/config
    /// mismatch, truncation, or malformed fields; the pipeline must then
    /// be discarded (it may be partially restored).
    pub fn load_state(&mut self, input: &mut &[u8]) -> bool {
        let Some((&version, rest)) = input.split_first() else {
            return false;
        };
        if version != STATE_VERSION || rest.len() < 8 {
            return false;
        }
        let (hash_bytes, rest) = rest.split_at(8);
        if u64::from_le_bytes(hash_bytes.try_into().unwrap()) != self.core.config_hash {
            return false;
        }
        *input = rest;
        let Some(events) = read_uvarint(input) else {
            return false;
        };
        let Some(hist_bits) = read_uvarint(input) else {
            return false;
        };
        if !self.core.tournament.load_state(input)
            || !self.core.mdc.load_state(input)
            || !self.lane.as_dyn_mut().load_state(input)
        {
            return false;
        }
        let Some(pending_len) = read_uvarint(input) else {
            return false;
        };
        // save_state only runs between events, where the window has been
        // drained to at most resolve_lag — a longer pending list can only
        // come from a corrupt or hostile blob (and would overfill the
        // fixed-capacity ring on the next event).
        if pending_len > self.core.resolve_lag as u64 {
            return false;
        }
        let mut pending = Window::new(self.core.resolve_lag + 1);
        for _ in 0..pending_len {
            let Some(token) = BranchToken::load_state(input) else {
                return false;
            };
            let Some(pc) = read_uvarint(input) else {
                return false;
            };
            let Some(hist_before) = read_uvarint(input) else {
                return false;
            };
            let Some((&flags, rest)) = input.split_first() else {
                return false;
            };
            if flags & !SNAPSHOT_FLAGS != 0 {
                return false;
            }
            *input = rest;
            // The cached hash/index are pure functions of the
            // serialized fields; recomputing them here restores exactly
            // the values the saving pipeline carried.
            let (pc_hash, mdc_idx) = if flags & CONDITIONAL != 0 {
                let pc = Pc::new(pc);
                let predicted = flags & PREDICTED != 0;
                (
                    pc.table_hash(),
                    self.core.mdc.index(pc, hist_before, predicted),
                )
            } else {
                (0, MdcIndex::default())
            };
            let entry = PendingBranch::new(pc, pc_hash, hist_before, mdc_idx, token, flags);
            // Only a token the window can hold is one a pipeline saved.
            if entry.token() != token {
                return false;
            }
            pending.push_back(entry);
        }
        self.core.events = events;
        self.core.hist.restore(hist_bits);
        self.core.pending = pending;
        true
    }
}

// Sessions move across server worker threads; the pipeline must stay
// `Send` like everything else the engine fans out.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<OnlinePipeline>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
    use paco_workloads::{BenchmarkId, Workload};

    fn paco_tiny() -> OnlineConfig {
        // A short refresh period so tests cross MRT refresh boundaries.
        OnlineConfig::tiny(EstimatorKind::Paco(
            PacoConfig::paper().with_refresh_period(500),
        ))
    }

    fn all_kinds() -> [EstimatorKind; 6] {
        [
            EstimatorKind::None,
            EstimatorKind::Paco(PacoConfig::paper().with_refresh_period(500)),
            EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            EstimatorKind::StaticMrt,
            EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
            EstimatorKind::AdaptiveMrt(
                AdaptiveMrtConfig::paper()
                    .with_refresh_period(500)
                    .with_detect_window(16),
            ),
        ]
    }

    fn stream(n: usize, seed: u64) -> Vec<DynInstr> {
        let mut w = BenchmarkId::Gzip.build(seed);
        (0..n).map(|_| w.next_instr()).collect()
    }

    fn outcomes(config: &OnlineConfig, instrs: &[DynInstr]) -> Vec<OnlineOutcome> {
        let mut pipe = OnlinePipeline::new(config);
        instrs.iter().filter_map(|i| pipe.on_instr(i)).collect()
    }

    fn batched_outcomes(
        config: &OnlineConfig,
        instrs: &[DynInstr],
        batch_size: usize,
    ) -> Vec<OnlineOutcome> {
        let mut pipe = OnlinePipeline::new(config);
        let mut batch = EventBatch::new();
        let mut out = OutcomeBatch::new();
        let mut collected = Vec::new();
        for chunk in instrs.chunks(batch_size) {
            batch.clear();
            batch.extend_from_instrs(chunk);
            out.clear();
            pipe.run_batch(&batch, &mut out);
            collected.extend(out.iter());
        }
        collected
    }

    #[test]
    fn deterministic_across_runs() {
        let instrs = stream(20_000, 3);
        assert_eq!(
            outcomes(&paco_tiny(), &instrs),
            outcomes(&paco_tiny(), &instrs)
        );
    }

    #[test]
    fn non_control_instructions_are_ignored() {
        let mut pipe = OnlinePipeline::new(&paco_tiny());
        assert!(pipe.on_instr(&DynInstr::alu(Pc::new(0x100))).is_none());
        assert_eq!(pipe.events(), 0);
    }

    #[test]
    fn every_estimator_kind_serves() {
        let instrs = stream(5_000, 9);
        for kind in all_kinds() {
            let config = OnlineConfig::tiny(kind);
            let out = outcomes(&config, &instrs);
            assert!(!out.is_empty());
            assert_eq!(out, outcomes(&config, &instrs));
        }
    }

    #[test]
    fn batched_lane_is_outcome_identical_for_every_estimator() {
        // The keystone of the batched hot path: run_batch and on_instr
        // produce the same outcomes, bit for bit, on a stream long
        // enough to cross MRT refreshes and fill the in-flight window.
        let instrs = stream(30_000, 21);
        for kind in all_kinds() {
            let config = OnlineConfig::tiny(kind);
            let per_event = outcomes(&config, &instrs);
            for batch_size in [1, 7, 256] {
                assert_eq!(
                    per_event,
                    batched_outcomes(&config, &instrs, batch_size),
                    "fused-lane divergence: {kind:?} at batch size {batch_size}"
                );
            }
        }
    }

    #[test]
    fn lanes_interleave_on_one_pipeline() {
        // Events fetched per-event must resolve correctly inside a later
        // run_batch and vice versa: the window is shared.
        let instrs = stream(20_000, 33);
        let config = paco_tiny();
        let reference = outcomes(&config, &instrs);

        let mut pipe = OnlinePipeline::new(&config);
        let mut collected = Vec::new();
        let mut batch = EventBatch::new();
        let mut out = OutcomeBatch::new();
        for (round, chunk) in instrs.chunks(997).enumerate() {
            if round % 2 == 0 {
                collected.extend(chunk.iter().filter_map(|i| pipe.on_instr(i)));
            } else {
                batch.clear();
                batch.extend_from_instrs(chunk);
                out.clear();
                pipe.run_batch(&batch, &mut out);
                collected.extend(out.iter());
            }
        }
        assert_eq!(collected, reference);
    }

    #[test]
    fn batched_lane_skips_non_control_events() {
        let config = OnlineConfig::tiny(EstimatorKind::None);
        let mut pipe = OnlinePipeline::new(&config);
        let mut batch = EventBatch::new();
        batch.push(&DynInstr::alu(Pc::new(0x10)));
        batch.push(&DynInstr::branch(Pc::new(0x14), true, Pc::new(0x40)));
        batch.push(&DynInstr::alu(Pc::new(0x40)));
        let mut out = OutcomeBatch::new();
        pipe.run_batch(&batch, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(pipe.events(), 1);
    }

    #[test]
    fn window_holds_resolve_lag_branches() {
        let config = paco_tiny();
        let mut pipe = OnlinePipeline::new(&config);
        let out: Vec<_> = stream(20_000, 5)
            .iter()
            .filter_map(|i| pipe.on_instr(i))
            .collect();
        assert_eq!(pipe.in_flight(), config.resolve_lag);
        // Scores reflect a whole window, not a single branch: with PaCo
        // warmed past an MRT refresh, unresolved branches carry measured
        // encodings and the register rises above zero regularly. Windowed
        // sums can also exceed any single branch's 4096 saturation.
        let nonzero = out.iter().filter(|o| o.score > 0).count();
        assert!(
            nonzero * 10 > out.len(),
            "windowed scores should often be nonzero: {nonzero}/{}",
            out.len()
        );
    }

    #[test]
    fn predictions_beat_coin_flips() {
        let instrs = stream(50_000, 7);
        let out = outcomes(&paco_tiny(), &instrs);
        let cond: Vec<_> = instrs
            .iter()
            .filter(|i| i.class.is_conditional_branch())
            .collect();
        let miss = out.iter().filter(|o| o.mispredicted).count();
        assert!(!cond.is_empty());
        assert!(
            miss * 4 < cond.len(),
            "online mispredict rate implausibly high: {miss}/{}",
            cond.len()
        );
    }

    #[test]
    fn snapshot_resume_is_bit_identical() {
        let config = paco_tiny();
        let instrs = stream(30_000, 11);
        let full = outcomes(&config, &instrs);

        // Run half, snapshot, restore into a fresh pipeline, run the rest.
        let mut first = OnlinePipeline::new(&config);
        let mut produced = Vec::new();
        let split = instrs.len() / 2;
        for i in &instrs[..split] {
            if let Some(o) = first.on_instr(i) {
                produced.push(o);
            }
        }
        let mut blob = Vec::new();
        first.save_state(&mut blob);
        drop(first);

        let mut resumed = OnlinePipeline::new(&config);
        let mut input = blob.as_slice();
        assert!(resumed.load_state(&mut input));
        assert!(input.is_empty(), "restore must consume the whole blob");
        for i in &instrs[split..] {
            if let Some(o) = resumed.on_instr(i) {
                produced.push(o);
            }
        }
        assert_eq!(produced, full);
    }

    #[test]
    fn snapshot_resume_continues_the_batched_lane() {
        // A snapshot taken mid-stream restores into a pipeline that
        // continues *batched* and still matches the per-event reference.
        let config = paco_tiny();
        let instrs = stream(24_000, 13);
        let full = outcomes(&config, &instrs);
        let split = instrs.len() / 3;

        let mut first = OnlinePipeline::new(&config);
        let mut produced: Vec<OnlineOutcome> = instrs[..split]
            .iter()
            .filter_map(|i| first.on_instr(i))
            .collect();
        let mut blob = Vec::new();
        first.save_state(&mut blob);

        let mut resumed = OnlinePipeline::new(&config);
        assert!(resumed.load_state(&mut blob.as_slice()));
        let mut batch = EventBatch::new();
        let mut out = OutcomeBatch::new();
        for chunk in instrs[split..].chunks(512) {
            batch.clear();
            batch.extend_from_instrs(chunk);
            out.clear();
            resumed.run_batch(&batch, &mut out);
            produced.extend(out.iter());
        }
        assert_eq!(produced, full);
    }

    #[test]
    fn snapshot_restores_full_window_at_ring_boundary() {
        // resolve_lag + 1 a power of two: the ring has exactly
        // resolve_lag + 1 slots, so a legitimately full window
        // (resolve_lag entries) must restore and still leave room for
        // the next event's push.
        let mut config = paco_tiny();
        config.resolve_lag = 31;
        let instrs = stream(24_000, 17);
        let full = outcomes(&config, &instrs);
        let split = instrs.len() / 2;

        let mut first = OnlinePipeline::new(&config);
        let mut produced: Vec<OnlineOutcome> = instrs[..split]
            .iter()
            .filter_map(|i| first.on_instr(i))
            .collect();
        assert_eq!(first.in_flight(), config.resolve_lag, "window is full");
        let mut blob = Vec::new();
        first.save_state(&mut blob);

        // Resume through the batched lane: a restored full window must
        // resolve on the first event it sees.
        let mut resumed = OnlinePipeline::new(&config);
        assert!(resumed.load_state(&mut blob.as_slice()));
        let mut batch = EventBatch::new();
        let mut out = OutcomeBatch::new();
        for chunk in instrs[split..].chunks(256) {
            batch.clear();
            batch.extend_from_instrs(chunk);
            out.clear();
            resumed.run_batch(&batch, &mut out);
            produced.extend(out.iter());
        }
        assert_eq!(produced, full);
    }

    #[test]
    fn snapshot_rejects_overlong_pending_window() {
        // save_state runs between events, where the window holds at
        // most resolve_lag branches; a blob claiming more can only be
        // hostile or corrupt, and accepting it would overfill the
        // fixed-capacity ring on the next event. Splice an extra entry
        // into a real blob and require a clean refusal.
        use paco_types::wire::read_uvarint;

        let config = OnlineConfig::tiny(EstimatorKind::None);
        let mut pipe = OnlinePipeline::new(&config);
        for i in &stream(4_000, 23) {
            pipe.on_instr(i);
        }
        assert_eq!(pipe.in_flight(), config.resolve_lag);
        let mut blob = Vec::new();
        pipe.save_state(&mut blob);

        // Walk the blob to the pending section: version + config hash,
        // two uvarints (events, history), four counter tables (uvarint
        // length + that many counters packed at their lane width: 2 bits
        // for the tournament tables, 4 for the MDC table), no estimator
        // state for EstimatorKind::None.
        let mut cursor = &blob[1 + 8..];
        for _ in 0..2 {
            read_uvarint(&mut cursor).unwrap();
        }
        for lane_bits in [
            2,
            2,
            2,
            config.confidence.counter_bits.next_power_of_two() as usize,
        ] {
            let len = read_uvarint(&mut cursor).unwrap() as usize;
            cursor = &cursor[(len * lane_bits).div_ceil(8)..];
        }
        let pending_at = blob.len() - cursor.len();
        let mut entries = &blob[pending_at..];
        let count = read_uvarint(&mut entries).unwrap();
        assert_eq!(count as usize, config.resolve_lag);

        // One entry: token (uvarint + 2 bytes + uvarint), pc uvarint,
        // history uvarint, flags byte.
        let entry_start = blob.len() - entries.len();
        let mut after = entries;
        read_uvarint(&mut after).unwrap();
        after = &after[2..];
        for _ in 0..3 {
            read_uvarint(&mut after).unwrap();
        }
        after = &after[1..];
        let entry = blob[entry_start..blob.len() - after.len()].to_vec();

        let mut forged = blob[..pending_at].to_vec();
        // resolve_lag (8) + 1 still fits a single-byte varint.
        forged.push(count as u8 + 1);
        forged.extend_from_slice(&blob[entry_start..]);
        forged.extend_from_slice(&entry);

        assert!(
            !OnlinePipeline::new(&config).load_state(&mut forged.as_slice()),
            "a pending window longer than resolve_lag must be refused"
        );
        // The unmodified blob still restores.
        assert!(OnlinePipeline::new(&config).load_state(&mut blob.as_slice()));
    }

    #[test]
    fn snapshot_rejects_foreign_config_and_corruption() {
        let mut pipe = OnlinePipeline::new(&paco_tiny());
        for i in &stream(2_000, 2) {
            pipe.on_instr(i);
        }
        let mut blob = Vec::new();
        pipe.save_state(&mut blob);

        // A differently configured pipeline must refuse the blob.
        let other = OnlineConfig::tiny(EstimatorKind::ThresholdCount(
            ThresholdCountConfig::paper_default(),
        ));
        assert!(!OnlinePipeline::new(&other).load_state(&mut blob.as_slice()));

        // Truncations at every boundary fail cleanly.
        for cut in [0, 1, 8, blob.len() / 2, blob.len() - 1] {
            assert!(
                !OnlinePipeline::new(&paco_tiny()).load_state(&mut &blob[..cut]),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn validate_rejects_hostile_configs() {
        let mut c = OnlineConfig::tiny(EstimatorKind::None);
        c.tournament.gshare_entries = 3;
        assert!(c.validate().is_err());

        let mut c = OnlineConfig::tiny(EstimatorKind::None);
        c.confidence.entries = OnlineConfig::MAX_TABLE_ENTRIES * 2;
        assert!(c.validate().is_err());

        let mut c = OnlineConfig::tiny(EstimatorKind::None);
        c.resolve_lag = usize::MAX;
        assert!(c.validate().is_err());

        assert!(OnlineConfig::paper(EstimatorKind::None).validate().is_ok());
        assert!(paco_tiny().validate().is_ok());
    }

    #[test]
    fn config_hash_distinguishes_configurations() {
        let a = paco_tiny().canon_hash();
        let b = OnlineConfig::paper(EstimatorKind::Paco(PacoConfig::paper())).canon_hash();
        let c = OnlineConfig::tiny(EstimatorKind::None).canon_hash();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, paco_tiny().canon_hash());
    }
}

//! Sessions and the sharded session table.
//!
//! A *session* is one client's estimator pipeline: its own tournament
//! predictor, MDC table and confidence estimator, fed only by that
//! client's event stream. While a connection is live its session is
//! *claimed* — owned exclusively by the handler thread, shared with
//! nobody, so the hot path takes no locks. When a connection drops
//! without a clean BYE the session is *parked* back into the table, from
//! which a reconnecting client can reclaim it by id and resume
//! bit-identically.
//!
//! A parked session is not kept live. The table stores its
//! configuration plus one packed state blob: the pipeline snapshot (the
//! bytes SNAPSHOT returns, every counter at its hardware width)
//! followed by the watch state (its counters, detector and family name;
//! the family's reference profile is shipped data, resolved again on
//! claim). So a parked session costs its state bytes, not its live
//! tables. Claiming rebuilds the pipeline from the configuration and
//! restores it through the same `load_state` a resume-by-blob uses.
//!
//! The table is sharded by session id so N clients connecting,
//! detaching and resuming concurrently contend only on their own shard's
//! mutex, never on one global lock. The lock covers only the map insert
//! or remove: parking serializes before taking it, and claiming
//! rebuilds after releasing it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use paco_sim::{OnlineConfig, OnlinePipeline};

use crate::watch::WatchState;

/// One client's pipeline plus its identity.
#[derive(Debug)]
pub struct Session {
    /// The server-assigned session id.
    pub id: u64,
    /// The session's confidence pipeline.
    pub pipeline: OnlinePipeline,
    /// The session's watch telemetry (calibration, drift detection).
    /// Parked and reclaimed with the session, so telemetry survives
    /// reconnects exactly like pipeline state.
    pub watch: WatchState,
}

/// A parked session: what rebuilds it, its packed state, and its age
/// stamp (for bounded-occupancy eviction).
#[derive(Debug)]
struct Parked {
    config: OnlineConfig,
    /// The pipeline snapshot followed by the watch state.
    state: Box<[u8]>,
    stamp: u64,
}

/// A sharded store of parked (disconnected, resumable) sessions.
///
/// Occupancy is bounded: each shard holds at most
/// [`MAX_PARKED_PER_SHARD`](Self::MAX_PARKED_PER_SHARD) sessions, and
/// parking into a full shard evicts its oldest-parked session. A client
/// whose session was evicted sees a typed `UNKNOWN_SESSION` refusal on
/// resume (and can fall back to a fresh session or a carried snapshot
/// blob) — without the bound, any client that connects and drops
/// repeatedly would grow server memory without limit.
#[derive(Debug)]
pub struct SessionTable {
    shards: Vec<Mutex<HashMap<u64, Parked>>>,
    next_id: AtomicU64,
    clock: AtomicU64,
    /// Parked sessions and the sum of their state lengths. Both change
    /// only under the lock of the shard whose map changes, so they
    /// track the maps exactly; they publish no other data, so readers
    /// load them `Relaxed` without taking any lock.
    parked: AtomicUsize,
    parked_bytes: AtomicUsize,
}

impl SessionTable {
    /// Parked sessions a shard retains before evicting the oldest.
    /// Sized so an 8-shard table holds a 10k-session churn storm
    /// parked at once without evictions.
    pub const MAX_PARKED_PER_SHARD: usize = 2048;

    /// Creates a table with `shards` shards (at least 1).
    pub fn new(shards: usize) -> Self {
        SessionTable {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            next_id: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            parked_bytes: AtomicUsize::new(0),
        }
    }

    fn shard(&self, id: u64) -> &Mutex<HashMap<u64, Parked>> {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Allocates a fresh session id (ids are never reused within a
    /// server's lifetime).
    pub fn allocate_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Parks a detached session for later reclaim, evicting the shard's
    /// oldest-parked session if the shard is full. The session is
    /// serialized and dropped before the shard lock is taken.
    pub fn park(&self, session: Session) {
        let mut state = Vec::new();
        session.pipeline.save_state(&mut state);
        session.watch.save_state(&mut state);
        let id = session.id;
        let parked = Parked {
            config: *session.pipeline.config(),
            state: state.into_boxed_slice(),
            stamp: self.clock.fetch_add(1, Ordering::Relaxed),
        };
        drop(session);
        let mut shard = self.shard(id).lock().expect("session shard poisoned");
        if shard.len() >= Self::MAX_PARKED_PER_SHARD {
            if let Some(&oldest) = shard.iter().min_by_key(|(_, p)| p.stamp).map(|(id, _)| id) {
                let evicted = shard.remove(&oldest).expect("oldest is parked");
                self.forget(&evicted);
            }
        }
        self.parked.fetch_add(1, Ordering::Relaxed);
        self.parked_bytes
            .fetch_add(parked.state.len(), Ordering::Relaxed);
        let replaced = shard.insert(id, parked);
        debug_assert!(replaced.is_none(), "session {id} parked twice");
    }

    /// Claims a parked session for exclusive use; `None` if the id is
    /// unknown, evicted, or currently claimed by another connection.
    /// The session is rebuilt after the shard lock is released.
    pub fn claim(&self, id: u64) -> Option<Session> {
        let parked = {
            let mut shard = self.shard(id).lock().expect("session shard poisoned");
            let parked = shard.remove(&id)?;
            self.forget(&parked);
            parked
        };
        let mut pipeline = OnlinePipeline::new(&parked.config);
        let mut input = &parked.state[..];
        let watch = if pipeline.load_state(&mut input) {
            WatchState::load_state(&mut input).filter(|_| input.is_empty())
        } else {
            None
        };
        // The table wrote this blob itself, so a failure is a bug. Fail
        // closed in release: the client sees UNKNOWN_SESSION, and the
        // shard keeps serving.
        debug_assert!(
            watch.is_some(),
            "session {id}: parked state failed to restore"
        );
        Some(Session {
            id,
            pipeline,
            watch: watch?,
        })
    }

    /// Updates the counts for a session that left a shard's map; called
    /// under that shard's lock.
    fn forget(&self, parked: &Parked) {
        self.parked.fetch_sub(1, Ordering::Relaxed);
        self.parked_bytes
            .fetch_sub(parked.state.len(), Ordering::Relaxed);
    }

    /// Number of parked sessions.
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }

    /// Bytes of packed state the parked sessions hold: the sum of their
    /// blob lengths, without the fixed per-entry map overhead.
    pub fn parked_bytes(&self) -> usize {
        self.parked_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco_sim::{EstimatorKind, OnlineConfig};

    fn session(table: &SessionTable) -> Session {
        Session {
            id: table.allocate_id(),
            pipeline: OnlinePipeline::new(&OnlineConfig::tiny(EstimatorKind::None)),
            watch: WatchState::default(),
        }
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let t = SessionTable::new(4);
        let a = t.allocate_id();
        let b = t.allocate_id();
        assert!(b > a);
    }

    #[test]
    fn park_claim_cycle() {
        let t = SessionTable::new(4);
        let s = session(&t);
        let id = s.id;
        t.park(s);
        assert_eq!(t.parked(), 1);
        let claimed = t.claim(id).expect("claim parked session");
        assert_eq!(claimed.id, id);
        assert_eq!(t.parked(), 0);
        // A second claim (another connection racing for the session)
        // finds nothing.
        assert!(t.claim(id).is_none());
    }

    #[test]
    fn full_shard_evicts_oldest_parked_session() {
        let t = SessionTable::new(1);
        let mut ids = Vec::new();
        for _ in 0..SessionTable::MAX_PARKED_PER_SHARD + 1 {
            let s = session(&t);
            ids.push(s.id);
            t.park(s);
        }
        assert_eq!(t.parked(), SessionTable::MAX_PARKED_PER_SHARD);
        // The first-parked session was evicted; the newest survives.
        assert!(t.claim(ids[0]).is_none(), "oldest must be evicted");
        assert!(t.claim(*ids.last().unwrap()).is_some());
    }

    #[test]
    fn park_claim_round_trips_every_estimator_kind_at_paper_config() {
        use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
        use paco_types::EventBatch;

        let entry = paco_corpus::find_entry("biased_bimodal").expect("corpus family");
        let events = crate::corpus_control_events(&entry.family, entry.seed, 60_000)
            .expect("synthesize events");
        let reference = paco_corpus::reference_profile(entry.name).expect("reference");
        let t = SessionTable::new(2);
        for kind in [
            EstimatorKind::None,
            EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            EstimatorKind::Paco(PacoConfig::paper()),
            EstimatorKind::StaticMrt,
            EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
            EstimatorKind::AdaptiveMrt(AdaptiveMrtConfig::paper()),
        ] {
            let config = OnlineConfig::paper(kind);
            let mut s = Session {
                id: t.allocate_id(),
                pipeline: OnlinePipeline::new(&config),
                watch: WatchState::new(Some(entry.name.into()), Some(reference)),
            };
            let mut batch = EventBatch::new();
            batch.extend_from_instrs(&events);
            let mut out = paco_sim::OutcomeBatch::new();
            s.pipeline.run_batch(&batch, &mut out);
            s.watch.observe_batch(&out);
            let mut before = Vec::new();
            s.pipeline.save_state(&mut before);
            let stats = s.watch.session_stats(s.id);
            assert!(stats.windows > 2, "the watch must score windows");
            let id = s.id;

            t.park(s);
            assert!(t.parked_bytes() > before.len(), "{kind:?}");
            let claimed = t.claim(id).expect("claim parked session");
            let mut after = Vec::new();
            claimed.pipeline.save_state(&mut after);
            assert!(
                after == before,
                "{kind:?}: pipeline state changed across park"
            );
            assert_eq!(claimed.watch.session_stats(id), stats, "{kind:?}");
            assert_eq!((t.parked(), t.parked_bytes()), (0, 0));
        }
    }

    #[test]
    fn counts_follow_parks_claims_and_evictions() {
        let t = SessionTable::new(1);
        let mut ids = Vec::new();
        for _ in 0..SessionTable::MAX_PARKED_PER_SHARD + 3 {
            let s = session(&t);
            ids.push(s.id);
            t.park(s);
        }
        let bytes = t.parked_bytes();
        assert_eq!(t.parked(), SessionTable::MAX_PARKED_PER_SHARD);
        assert_eq!(
            bytes % SessionTable::MAX_PARKED_PER_SHARD,
            0,
            "equal sessions"
        );
        let per_session = bytes / SessionTable::MAX_PARKED_PER_SHARD;
        t.claim(*ids.last().unwrap()).expect("newest survives");
        assert_eq!(t.parked(), SessionTable::MAX_PARKED_PER_SHARD - 1);
        assert_eq!(t.parked_bytes(), bytes - per_session);
    }

    #[test]
    fn sessions_spread_across_shards() {
        let t = SessionTable::new(4);
        for _ in 0..16 {
            let s = session(&t);
            t.park(s);
        }
        assert_eq!(t.parked(), 16);
        let occupied = t
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().is_empty())
            .count();
        assert!(occupied > 1, "ids must not all hash to one shard");
    }
}

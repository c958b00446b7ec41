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
//! The table is sharded by session id so N clients connecting,
//! detaching and resuming concurrently contend only on their own shard's
//! mutex, never on one global lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use paco_sim::OnlinePipeline;

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

/// A parked session plus its age stamp (for bounded-occupancy
/// eviction).
#[derive(Debug)]
struct Parked {
    session: Session,
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
    /// oldest-parked session if the shard is full.
    pub fn park(&self, session: Session) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut shard = self
            .shard(session.id)
            .lock()
            .expect("session shard poisoned");
        if shard.len() >= Self::MAX_PARKED_PER_SHARD {
            if let Some(&oldest) = shard.iter().min_by_key(|(_, p)| p.stamp).map(|(id, _)| id) {
                shard.remove(&oldest);
            }
        }
        shard.insert(session.id, Parked { session, stamp });
    }

    /// Claims a parked session for exclusive use; `None` if the id is
    /// unknown, evicted, or currently claimed by another connection.
    pub fn claim(&self, id: u64) -> Option<Session> {
        self.shard(id)
            .lock()
            .expect("session shard poisoned")
            .remove(&id)
            .map(|p| p.session)
    }

    /// Number of parked sessions.
    pub fn parked(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("session shard poisoned").len())
            .sum()
    }

    /// Number of shards (for reporting).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

//! The server's metric plane: every family `paco-served` exposes, built
//! on `paco-obs` and registered once at server construction.
//!
//! [`ServeMetrics`] is purely observational — the serving data path
//! reads nothing back from it, and the digest-parity suite holds
//! prediction bytes identical with the plane attached. Recording
//! follows the `paco-obs` hot-path contract: counter bumps and
//! histogram records are relaxed atomics, no locks, no allocation.
//!
//! The authoritative catalog of these families (names, kinds, labels,
//! meanings) lives in `docs/OBSERVABILITY.md`; the doc-drift test pins
//! that table to [`ServeMetrics::registry`]'s
//! [`families`](paco_obs::Registry::families) so the two cannot diverge
//! silently.

use std::sync::Arc;

use paco_obs::{Counter, FlightRecorder, Gauge, Histogram, Registry};

use crate::proto::FrameKind;
use crate::session::SessionTable;

/// How a session came to exist (the `mode` label of
/// `paco_sessions_established_total`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionMode {
    /// Brand-new session.
    Fresh = 0,
    /// Parked session reclaimed by id.
    Resumed = 1,
    /// Rebuilt from a client-held snapshot blob.
    Restored = 2,
}

/// Fleet-side registry handles shared between [`ServeMetrics`] and the
/// [`FleetAggregator`](crate::watch::FleetAggregator): the scalar
/// counters that used to live inside the aggregator's mutex now live
/// here, so the fleet log and a `/metrics` scrape read the very same
/// cells.
#[derive(Debug, Clone)]
pub struct FleetCounters {
    /// Live (established, not yet released) sessions.
    pub active: Arc<Gauge>,
    /// Established sessions by [`SessionMode`] (`sessions_seen` is
    /// their sum).
    pub established: [Arc<Counter>; 3],
    /// Control events observed fleet-wide.
    pub events: Arc<Counter>,
    /// Mispredicted events observed fleet-wide.
    pub mispredicts: Arc<Counter>,
    /// Completed watch windows fleet-wide.
    pub windows: Arc<Counter>,
    /// Sessions whose drift flag latched.
    pub drift_latches: Arc<Counter>,
    /// Smoothed fleet event rate (re-measured by snapshots).
    pub events_per_sec: Arc<Gauge>,
}

impl FleetCounters {
    /// Unregistered handles — for [`FleetAggregator`] instances built
    /// outside a server (unit tests, ad-hoc tooling).
    ///
    /// [`FleetAggregator`]: crate::watch::FleetAggregator
    pub fn detached() -> Self {
        FleetCounters {
            active: Arc::new(Gauge::new()),
            established: [
                Arc::new(Counter::new()),
                Arc::new(Counter::new()),
                Arc::new(Counter::new()),
            ],
            events: Arc::new(Counter::new()),
            mispredicts: Arc::new(Counter::new()),
            windows: Arc::new(Counter::new()),
            drift_latches: Arc::new(Counter::new()),
            events_per_sec: Arc::new(Gauge::new()),
        }
    }
}

/// All metric families and the flight recorder for one server instance.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    recorder: Arc<FlightRecorder>,
    /// TCP connections accepted.
    pub connections: Arc<Counter>,
    frames: [Arc<Counter>; 7],
    /// ERROR frames sent for protocol violations.
    pub protocol_errors: Arc<Counter>,
    /// Server-side handle time of one EVENTS batch (decode → predict →
    /// encode → append to the connection's output buffer → watch),
    /// nanoseconds. The socket write happens later, in the worker's
    /// flush, and is not included.
    pub batch_handle_ns: Arc<Histogram>,
    /// Events per EVENTS batch.
    pub batch_events: Arc<Histogram>,
    /// Sessions parked (cumulative).
    pub session_parks: Arc<Counter>,
    /// Sessions currently parked in the table.
    pub sessions_parked: Arc<Gauge>,
    /// Bytes of packed state the parked sessions hold.
    pub sessions_parked_bytes: Arc<Gauge>,
    /// Completed session migrations by trigger (`operator`, `policy`).
    migrations: [Arc<Counter>; 2],
    /// Live connections per worker shard (the load signal the
    /// auto-migration policy reads).
    pub shard_connections: Vec<Arc<Gauge>>,
    /// The fleet-side handles (also held by the aggregator).
    pub fleet: FleetCounters,
}

impl ServeMetrics {
    /// Worker shards [`ServeMetrics::new`] registers gauges for (the
    /// server's default shard count).
    pub const DEFAULT_SHARDS: usize = 8;

    /// Builds the plane with the default worker-shard count.
    pub fn new() -> Self {
        ServeMetrics::with_shards(Self::DEFAULT_SHARDS)
    }

    /// Builds the plane: a fresh registry with every family registered
    /// (including one `paco_shard_connections` cell per worker shard),
    /// and a flight recorder of default capacity.
    pub fn with_shards(shards: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let frame = |op: &str| {
            registry.counter(
                "paco_frames_total",
                "Client frames handled, by opcode.",
                vec![("opcode", op.to_string())],
            )
        };
        let mode = |m: &str| {
            registry.counter(
                "paco_sessions_established_total",
                "Sessions established, by HELLO resume mode.",
                vec![("mode", m.to_string())],
            )
        };
        let fleet = FleetCounters {
            active: registry.gauge(
                "paco_sessions_active",
                "Sessions currently attached to a live connection.",
                vec![],
            ),
            established: [mode("fresh"), mode("resumed"), mode("restored")],
            events: registry.counter(
                "paco_fleet_events_total",
                "Control events observed fleet-wide.",
                vec![],
            ),
            mispredicts: registry.counter(
                "paco_fleet_mispredicts_total",
                "Mispredicted control events fleet-wide.",
                vec![],
            ),
            windows: registry.counter(
                "paco_watch_windows_total",
                "Completed watch windows fleet-wide.",
                vec![],
            ),
            drift_latches: registry.counter(
                "paco_drift_latches_total",
                "Sessions whose drift detector latched (counted once each).",
                vec![],
            ),
            events_per_sec: registry.gauge(
                "paco_fleet_events_per_sec",
                "Smoothed fleet event rate (re-measured at snapshot cadence).",
                vec![],
            ),
        };
        ServeMetrics {
            connections: registry.counter(
                "paco_connections_total",
                "TCP connections accepted.",
                vec![],
            ),
            frames: [
                frame("HELLO"),
                frame("EVENTS"),
                frame("STATS_REQ"),
                frame("SNAPSHOT_REQ"),
                frame("BYE"),
                frame("OTHER"),
                frame("MIGRATE"),
            ],
            protocol_errors: registry.counter(
                "paco_protocol_errors_total",
                "ERROR frames sent for malformed or unexpected client input.",
                vec![],
            ),
            batch_handle_ns: registry.histogram(
                "paco_batch_handle_ns",
                "Server-side handle time per EVENTS batch (decode, predict, encode, buffer, watch; excludes the socket write), ns.",
                vec![],
            ),
            batch_events: registry.histogram(
                "paco_batch_events",
                "Events per EVENTS batch.",
                vec![],
            ),
            session_parks: registry.counter(
                "paco_session_parks_total",
                "Sessions parked for later resume (cumulative).",
                vec![],
            ),
            sessions_parked: registry.gauge(
                "paco_sessions_parked",
                "Sessions currently parked in the session table.",
                vec![],
            ),
            sessions_parked_bytes: registry.gauge(
                "paco_sessions_parked_bytes",
                "Bytes of packed state held by the parked sessions.",
                vec![],
            ),
            migrations: ["operator", "policy"].map(|trigger| {
                registry.counter(
                    "paco_session_migrations_total",
                    "Completed live session migrations between worker shards, by trigger.",
                    vec![("trigger", trigger.to_string())],
                )
            }),
            shard_connections: (0..shards.max(1))
                .map(|shard| {
                    registry.gauge(
                        "paco_shard_connections",
                        "Connections currently owned by each worker shard.",
                        vec![("shard", shard.to_string())],
                    )
                })
                .collect(),
            fleet,
            recorder: Arc::new(FlightRecorder::new()),
            registry,
        }
    }

    /// The registry behind the plane (what `/metrics` renders and the
    /// doc-drift test enumerates).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The flight recorder (what `/flight` renders and protocol-error /
    /// panic dumps read).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The handled-frames counter for `kind`.
    pub fn frame(&self, kind: FrameKind) -> &Counter {
        let i = match kind {
            FrameKind::Hello => 0,
            FrameKind::Events => 1,
            FrameKind::StatsReq => 2,
            FrameKind::SnapshotReq => 3,
            FrameKind::Bye => 4,
            FrameKind::Migrate => 6,
            _ => 5,
        };
        &self.frames[i]
    }

    /// The migration counter for `trigger` (`true` = operator MIGRATE
    /// frame, `false` = automatic load-threshold policy).
    pub fn migrations(&self, operator: bool) -> &Counter {
        &self.migrations[if operator { 0 } else { 1 }]
    }

    /// Sets the parked-session gauges (count and state bytes) from the
    /// table's counts.
    pub(crate) fn track_parked(&self, table: &SessionTable) {
        self.sessions_parked.set(table.parked() as f64);
        self.sessions_parked_bytes.set(table.parked_bytes() as f64);
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_registers_once() {
        let metrics = ServeMetrics::new();
        let families = metrics.registry().families();
        let names: Vec<&str> = families.iter().map(|f| f.name).collect();
        for expected in [
            "paco_connections_total",
            "paco_frames_total",
            "paco_protocol_errors_total",
            "paco_batch_handle_ns",
            "paco_batch_events",
            "paco_sessions_established_total",
            "paco_session_parks_total",
            "paco_sessions_active",
            "paco_sessions_parked",
            "paco_sessions_parked_bytes",
            "paco_fleet_events_total",
            "paco_fleet_mispredicts_total",
            "paco_watch_windows_total",
            "paco_drift_latches_total",
            "paco_fleet_events_per_sec",
            "paco_session_migrations_total",
            "paco_shard_connections",
        ] {
            assert!(names.contains(&expected), "missing family {expected}");
        }
        assert_eq!(names.len(), 17, "families drifted: {names:?}");
    }

    #[test]
    fn frame_counter_routes_by_opcode() {
        let metrics = ServeMetrics::new();
        metrics.frame(FrameKind::Events).add(3);
        metrics.frame(FrameKind::Bye).inc();
        metrics.frame(FrameKind::Migrate).inc();
        metrics.frame(FrameKind::Error).inc(); // routes to OTHER
        let text = metrics.registry().render();
        assert!(text.contains("paco_frames_total{opcode=\"EVENTS\"} 3\n"));
        assert!(text.contains("paco_frames_total{opcode=\"BYE\"} 1\n"));
        assert!(text.contains("paco_frames_total{opcode=\"MIGRATE\"} 1\n"));
        assert!(text.contains("paco_frames_total{opcode=\"OTHER\"} 1\n"));
    }

    #[test]
    fn shard_cells_follow_the_worker_count() {
        let metrics = ServeMetrics::with_shards(3);
        assert_eq!(metrics.shard_connections.len(), 3);
        metrics.shard_connections[2].set(5.0);
        metrics.migrations(true).inc();
        metrics.migrations(false).add(2);
        let text = metrics.registry().render();
        assert!(text.contains("paco_shard_connections{shard=\"2\"} 5\n"));
        assert!(text.contains("paco_session_migrations_total{trigger=\"operator\"} 1\n"));
        assert!(text.contains("paco_session_migrations_total{trigger=\"policy\"} 2\n"));
    }
}

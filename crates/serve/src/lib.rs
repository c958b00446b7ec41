//! `paco-serve`: the PaCo estimator as an online streaming service.
//!
//! Everything else in this workspace runs offline inside one simulator
//! process; this crate gives the paper's *online, per-event, fetch-time*
//! confidence estimation its natural deployment shape — a long-running
//! service under throughput pressure:
//!
//! * **`paco-served`** ([`server`]): a sharded event-loop TCP server —
//!   N pinned worker shards, each multiplexing its connections with a
//!   hand-rolled non-blocking reactor over `std::net` (no async
//!   runtime) — exposing every
//!   [`EstimatorKind`](paco_sim::EstimatorKind) as a session-oriented
//!   prediction service. Each session owns a private
//!   [`OnlinePipeline`](paco_sim::OnlinePipeline) and stays on the
//!   worker that accepted it; detached sessions park in a sharded table
//!   for bit-identical resume, clients can carry opaque state snapshots
//!   across reconnects (even across server restarts), and live sessions
//!   migrate between shards — by operator `MIGRATE` frame or the
//!   automatic load-threshold policy — with the same byte-identity
//!   guarantee.
//! * **`paco-load`** ([`load`]): a trace-replay load generator that
//!   hammers a server with the control-flow events of a recorded
//!   `.paco` trace from M concurrent sessions and reports throughput
//!   plus p50/p90/p99 batch round-trip latency via `paco_analysis`.
//! * **the protocol** ([`proto`]): length-prefixed CRC-32-guarded binary
//!   frames built from the same [`paco_types::wire`] codec as the trace
//!   format and the bench cache; an event travels as a flags byte and
//!   a PC delta, the fields the pipeline reads; config negotiation compares
//!   [`Canon`](paco_types::canon::Canon) hashes. `docs/PROTOCOL.md` has
//!   the full specification.
//!
//! The keystone correctness property, enforced by the integration suite
//! and `paco-load`'s built-in parity check: predictions streamed back
//! online are **byte-identical** to an offline
//! [`OnlinePipeline`](paco_sim::OnlinePipeline) replay of the same
//! trace.
//!
//! # Quick start
//!
//! ```sh
//! paco-trace record --bench gzip --out gzip.paco --instrs 200000
//! paco-served serve --addr 127.0.0.1:7421 &
//! paco-load run --addr 127.0.0.1:7421 --trace gzip.paco --threads 4
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod load;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod session;
pub mod watch;

pub use client::{offline_digest, Client, ClientError};
pub use load::{
    control_events, corpus_control_events, corpus_splice_events, run_churn, run_load, ChurnOptions,
    ChurnReport, LoadError, LoadOptions, LoadReport, SessionReport, SessionWatch,
};
pub use metrics::{FleetCounters, ServeMetrics, SessionMode};
pub use proto::{
    Digest, ErrorCode, FleetStats, FrameDecoder, FrameKind, MigrateAck, MigrateReq, ProtoError,
    SessionStats, Stats, PROTOCOL_VERSION,
};
pub use server::{FaultInjector, RunningServer, ServeOptions};
pub use session::{Session, SessionTable};
pub use watch::{
    FleetAggregator, WatchDelta, WatchState, DRIFT_LIMIT, DRIFT_THRESHOLD, WATCH_WINDOW,
};

//! `servebench`: the end-to-end and per-layer benchmark of the
//! `paco-serve` streaming service.
//!
//! A run drives a live in-process [`RunningServer`] (one shard per CPU)
//! from client threads of this process (at most one per CPU, one
//! connection each) through one of three workloads, checks every
//! session's PREDICTIONS digest against the per-event oracle, and
//! reports the end-to-end metrics. A traced run measures instead the
//! per-layer metrics: it times every layer from outside, around calls
//! into that module's public functions, and replays the frames it
//! recorded through the server's stage functions on a shadow pipeline.
//! `METRICS.md` beside this crate lists every metric and which one each
//! layer metric is expected to move.

pub mod layers;
pub mod live;
pub mod stats;
pub mod trace;

use std::path::Path;
use std::time::{Duration, Instant};

use paco::PacoConfig;
use paco_serve::{Client, RunningServer, SessionTable};
use paco_sim::{EstimatorKind, OnlineConfig};

use crate::live::{Inputs, Tally};
use crate::stats::{median, quantile};
use crate::trace::{self_times, Tracer};

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one long session per client thread, 4096-event
    /// frames on the paper configuration: per-event work dominates.
    Bulk,
    /// Open loop, one session per client thread, a 32-event frame every
    /// 500 µs per connection: wake-up and syscall latency dominate.
    Interactive,
    /// Closed loop, thousands of short tiny-configuration sessions per
    /// round: accept, handoff, the session table and migration dominate.
    Churn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Bulk, Workload::Interactive, Workload::Churn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Bulk => "bulk",
            Workload::Interactive => "interactive",
            Workload::Churn => "churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Events per frame in `bulk`.
pub const BULK_FRAME: usize = 4096;

/// Frames each `bulk` session streams.
pub const BULK_FRAMES_PER_SESSION: usize = 96;

/// Events per frame in `interactive` and `churn`.
pub const SMALL_FRAME: usize = 32;

/// Frames each `interactive` session streams.
pub const INTERACTIVE_FRAMES_PER_SESSION: usize = 500;

/// The `interactive` send period of each connection.
pub const INTERACTIVE_PERIOD: Duration = Duration::from_micros(500);

/// Events each `churn` session streams.
pub const CHURN_EVENTS: usize = 64;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Frames of the workload's event pool the layer lanes time.
pub const LANE_FRAMES: usize = 64;

/// How one run is shaped.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The traffic mix.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the live phase measures.
    pub measure: Duration,
    /// Server worker shards.
    pub shards: usize,
    /// Client threads, one connection each.
    pub threads: usize,
    /// Every session's pipeline configuration.
    pub config: OnlineConfig,
    /// Events per EVENTS frame.
    pub frame: usize,
    /// Sessions per round.
    pub storm: usize,
    /// Frames each session streams.
    pub frames_per_session: usize,
    /// Frames streamed before the session drops and parks.
    pub cut: usize,
    /// Open-loop send period per connection; `None` for a closed loop.
    pub pace: Option<Duration>,
    /// Set-ups per run.
    pub setups: usize,
}

impl Plan {
    /// The full-size plan of `workload` on this machine.
    pub fn new(workload: Workload, seed: u64, measure: Duration) -> Plan {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let paco = EstimatorKind::Paco(PacoConfig::paper());
        let (config, frame, storm, frames_per_session, pace) = match workload {
            Workload::Bulk => (
                OnlineConfig::paper(paco),
                BULK_FRAME,
                cpus,
                BULK_FRAMES_PER_SESSION,
                None,
            ),
            Workload::Interactive => (
                OnlineConfig::paper(paco),
                SMALL_FRAME,
                cpus,
                INTERACTIVE_FRAMES_PER_SESSION,
                Some(INTERACTIVE_PERIOD),
            ),
            // Three quarters of the session table's capacity, so that no
            // parked session of the round is evicted.
            Workload::Churn => (
                OnlineConfig::tiny(paco),
                SMALL_FRAME,
                cpus * SessionTable::MAX_PARKED_PER_SHARD * 3 / 4,
                CHURN_EVENTS / SMALL_FRAME,
                None,
            ),
        };
        Plan {
            workload,
            seed,
            measure,
            shards: cpus,
            threads: cpus,
            config,
            frame,
            storm,
            frames_per_session,
            cut: frames_per_session / 2,
            pace,
            setups: SETUPS,
        }
    }

    /// Events the layer lanes time.
    pub fn lane_events(&self) -> usize {
        LANE_FRAMES * self.frame
    }
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The name `BENCHMARK.json` lists it under.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Figures printed for reading but not gated (not in the JSON line).
    pub notes: Vec<Metric>,
    /// Frames, handshakes, resumes and migrations attempted.
    pub attempted: u64,
    /// Of those, the failed ones (digest mismatches included).
    pub failed: u64,
    /// Sessions whose digest was checked against the oracle.
    pub sessions_checked: u64,
    /// Sessions whose live digest differed from the oracle.
    pub mismatches: u64,
    /// Traced runs: replayed sessions whose digest differed from the
    /// live stream.
    pub replay_mismatches: u64,
}

impl Report {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            unit,
            value,
        });
    }

    fn note(&mut self, name: &str, unit: &'static str, value: f64) {
        self.notes.push(Metric {
            name: name.to_owned(),
            unit,
            value,
        });
    }

    /// Whether every checked digest matched.
    pub fn correct(&self) -> bool {
        self.mismatches == 0 && self.replay_mismatches == 0
    }

    /// Failed operations over attempted operations.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sets up `plan.setups` times (event synthesis, server bind, first
/// handshake) and keeps the last set-up; returns it with each set-up's
/// seconds.
fn set_up(plan: &Plan) -> Result<(Inputs, RunningServer, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut kept: Option<(Inputs, RunningServer)> = None;
    for _ in 0..plan.setups.max(1) {
        let t = Instant::now();
        let inputs = Inputs::synthesize(plan)?;
        let server = RunningServer::bind("127.0.0.1:0", plan.shards)
            .map_err(|e| format!("cannot bind a loopback server: {e}"))?;
        let client = Client::connect(server.addr(), &plan.config)
            .map_err(|e| format!("first handshake failed: {e}"))?;
        seconds.push(t.elapsed().as_secs_f64());
        client
            .bye()
            .map_err(|e| format!("first session's BYE failed: {e}"))?;
        if let Some((_, old)) = kept.replace((inputs, server)) {
            old.stop();
        }
    }
    let (inputs, server) = kept.expect("at least one set-up ran");
    Ok((inputs, server, seconds))
}

/// Runs `plan`: the end-to-end metrics, or with `traced` the per-layer
/// metrics (spans are then written to `spans_out`).
pub fn run(plan: &Plan, traced: bool, spans_out: Option<&Path>) -> Result<Report, String> {
    let (mut inputs, server, setup_seconds) = set_up(plan)?;
    inputs.compute_oracles(plan);
    let mut report = Report::default();
    if traced {
        per_layer(&mut report, plan, &inputs, server, spans_out)?;
    } else {
        let mut off = Tracer::new(Instant::now(), false);
        let tally = live::drive(plan, &inputs, &server, plan.measure, &mut off);
        server.stop();
        account(&mut report, &tally);
        end_to_end(&mut report, tally, &setup_seconds);
    }
    Ok(report)
}

/// The traced run: half the time untraced, half traced, each on its own
/// server so the server's metric plane covers the traced half alone; then
/// the stage replay and the layer lanes.
fn per_layer(
    report: &mut Report,
    plan: &Plan,
    inputs: &Inputs,
    server: RunningServer,
    spans_out: Option<&Path>,
) -> Result<(), String> {
    let half = plan.measure / 2;
    let mut off = Tracer::new(Instant::now(), false);
    let mut u = live::drive(plan, inputs, &server, half, &mut off);
    server.stop();
    let server = RunningServer::bind("127.0.0.1:0", plan.shards)
        .map_err(|e| format!("cannot bind a loopback server: {e}"))?;
    let mut tracer = Tracer::new(Instant::now(), true);
    let mut t = live::drive(plan, inputs, &server, half, &mut tracer);
    let metrics = std::sync::Arc::clone(server.metrics());
    server.stop();
    account(report, &u);
    account(report, &t);

    let mut replay = layers::replay(plan, inputs, &t.first_round, &mut tracer)?;
    report.replay_mismatches = replay.mismatches;
    let lane_sample = &inputs.pool[..plan.lane_events()];
    let kernels = layers::kernel_lanes(plan, lane_sample)?;
    let oracle_ns = layers::oracle_lane(plan, lane_sample);
    let (snapshot_bytes, save_us, restore_us) = layers::snapshot_lane(plan, inputs)?;
    let (park_ns, claim_ns) = layers::session_table_lane(plan)?;
    let meter_ns = layers::meter_lane(plan);

    let selfs = self_times(tracer.spans());
    let per_ev = |name: &str| {
        selfs.get(name).map_or(0.0, |&(ns, _)| ns as f64) / replay.events.max(1) as f64
    };
    let rtt_us = quantile(&mut t.latency_ns, 0.5) / 1e3;
    let untraced_rtt_us = quantile(&mut u.latency_ns, 0.5) / 1e3;
    let client_us = quantile(&mut replay.client_ns, 0.5) / 1e3;
    let handle_us = metrics.batch_handle_ns.snapshot().quantile(0.5) / 1e3;

    report.push("client.encode_ns_per_ev", "ns/ev", per_ev("client.encode"));
    report.push("client.decode_ns_per_ev", "ns/ev", per_ev("client.decode"));
    report.push(
        "client.migrate_us_p50",
        "us",
        quantile(&mut t.migrate_ns, 0.5) / 1e3,
    );
    report.push(
        "client.resume_attempts_per_success",
        "ratio",
        t.resume_attempts as f64 / t.resume_ns.len().max(1) as f64,
    );
    report.push(
        "client.handshake_us_p50",
        "us",
        quantile(&mut t.connect_ns, 0.5) / 1e3,
    );
    report.push(
        "client.handshake_us_p99",
        "us",
        quantile(&mut t.connect_ns, 0.99) / 1e3,
    );
    report.push(
        "client.resume_us_p50",
        "us",
        quantile(&mut t.resume_ns, 0.5) / 1e3,
    );
    report.push(
        "client.resume_us_p99",
        "us",
        quantile(&mut t.resume_ns, 0.99) / 1e3,
    );
    report.push("client.rtt_us_p50", "us", rtt_us);
    report.push("client.stages_us_p50", "us", client_us);
    report.push(
        "proto.frame_decode_ns_per_ev",
        "ns/ev",
        per_ev("proto.frame_decode"),
    );
    report.push(
        "proto.decode_events_ns_per_ev",
        "ns/ev",
        per_ev("proto.decode_events"),
    );
    report.push(
        "proto.encode_outcomes_ns_per_ev",
        "ns/ev",
        per_ev("proto.encode_outcomes"),
    );
    let events = replay.events.max(1) as f64;
    report.push(
        "proto.bytes_in_per_ev",
        "B/ev",
        replay.bytes_in as f64 / events,
    );
    report.push(
        "proto.bytes_out_per_ev",
        "B/ev",
        replay.bytes_out as f64 / events,
    );
    for (kind, ns) in kernels {
        report.push(&format!("sim.kernel_ns_per_ev.{kind}"), "ns/ev", ns);
    }
    report.push("sim.oracle_ns_per_ev", "ns/ev", oracle_ns);
    report.push("sim.snapshot_bytes", "B", snapshot_bytes as f64);
    report.push("sim.snapshot_save_us", "us", save_us);
    report.push("sim.snapshot_restore_us", "us", restore_us);
    report.push("watch.observe_ns_per_ev", "ns/ev", per_ev("watch.observe"));
    report.push("obs.meter_ns_per_frame", "ns/frame", meter_ns);
    report.push("session.park_ns", "ns", park_ns);
    report.push("session.claim_ns", "ns", claim_ns);
    report.push(
        "session.parked_rss_mb",
        "MiB",
        u.parked_rss_kib as f64 / 1024.0,
    );
    report.push("server.handle_us_p50", "us", handle_us);
    report.push(
        "server.frames",
        "count",
        metrics.frame(paco_serve::FrameKind::Events).value() as f64,
    );
    report.push(
        "server.protocol_errors",
        "count",
        metrics.protocol_errors.value() as f64,
    );
    report.push(
        "server.parks",
        "count",
        metrics.session_parks.value() as f64,
    );
    report.push(
        "server.migrations",
        "count",
        (metrics.migrations(true).value() + metrics.migrations(false).value()) as f64,
    );
    report.push(
        "server.residual_us_p50",
        "us",
        rtt_us - client_us - handle_us,
    );
    report.push(
        "load.sched_lag_p99_us",
        "us",
        quantile(&mut t.lag_ns, 0.99) / 1e3,
    );
    report.push(
        "trace.overhead_pct",
        "%",
        (rtt_us / untraced_rtt_us.max(1e-9) - 1.0) * 100.0,
    );
    report.note("replay.sessions", "count", replay.sessions as f64);
    report.note("trace.untraced_rtt_us_p50", "us", untraced_rtt_us);
    report.note("trace.spans", "count", tracer.spans().len() as f64);
    if let Some(path) = spans_out {
        tracer
            .write_tsv(path)
            .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Adds a live phase's operations, failures and digest checks.
fn account(report: &mut Report, tally: &Tally) {
    report.attempted += tally.attempted;
    report.failed += tally.failed;
    report.mismatches += tally.mismatches;
    report.sessions_checked += tally.checked;
}

/// The end-to-end metrics of an untraced live phase.
fn end_to_end(report: &mut Report, mut t: Tally, setup_seconds: &[f64]) {
    report.push("setup_s", "s", median(setup_seconds));
    report.push("events_per_s", "ev/s", median(&t.round_events_per_s));
    report.push(
        "latency_p50_us",
        "us",
        median(&t.round_latency_p50_ns) / 1e3,
    );
    report.push(
        "latency_p90_us",
        "us",
        median(&t.round_latency_p90_ns) / 1e3,
    );
    report.push(
        "sessions_per_s",
        "sessions/s",
        median(&t.round_sessions_per_s),
    );
    report.push("rss_at_park_mb", "MiB", t.rss_at_park_kib as f64 / 1024.0);
    report.note(
        "handshake_p50_us",
        "us",
        quantile(&mut t.connect_ns, 0.5) / 1e3,
    );
    report.note("resume_p50_us", "us", quantile(&mut t.resume_ns, 0.5) / 1e3);
    report.note("parked_rss_mb", "MiB", t.parked_rss_kib as f64 / 1024.0);
    report.note(
        "latency_p99_us",
        "us",
        quantile(&mut t.latency_ns, 0.99) / 1e3,
    );
    report.note(
        "sched_lag_p99_us",
        "us",
        quantile(&mut t.lag_ns, 0.99) / 1e3,
    );
    report.note(
        "handshake_p99_us",
        "us",
        quantile(&mut t.connect_ns, 0.99) / 1e3,
    );
    report.note(
        "resume_p99_us",
        "us",
        quantile(&mut t.resume_ns, 0.99) / 1e3,
    );
    report.note("latency_samples", "count", t.latency_ns.len() as f64);
    report.note("rounds", "count", t.round_s.len() as f64);
    report.note("lifecycles", "count", t.lifecycles as f64);
    report.note("migrations", "count", t.migrate_ns.len() as f64);
}

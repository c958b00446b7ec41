//! `paco-load`: trace-replay load generation against a `paco-served`
//! instance.
//!
//! Replays the control-flow events of a recorded `.paco` trace across M
//! concurrent client threads (each with its own session), optionally
//! paced to a target aggregate event rate, and reports throughput plus
//! round-trip latency percentiles from merged `paco-obs` histograms
//! (within one ≤ 12.5% bucket of an exact sort). Every session's
//! prediction digest is compared against an offline
//! [`OnlinePipeline`](paco_sim::OnlinePipeline) replay of the same
//! events — the keystone guarantee that the service returns
//! byte-identical predictions to the offline simulator.

use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use paco_analysis::LatencySummary;
use paco_obs::HistogramSnapshot;
use paco_sim::OnlineConfig;
use paco_types::{DynInstr, SplitMix64};

use crate::client::{offline_digest, Client, ClientError};

/// Load-run options.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Pipeline configuration for every session.
    pub config: OnlineConfig,
    /// Concurrent client threads (each gets its own session).
    pub threads: usize,
    /// Events per EVENTS frame.
    pub batch: usize,
    /// Cap on events each thread replays (`None` = the whole trace).
    pub events_per_thread: Option<u64>,
    /// Target aggregate event rate in events/second (`None` = as fast
    /// as the server answers).
    pub target_rate: Option<f64>,
    /// Poll STATS mid-run and report each session's watch telemetry
    /// (drift flag, calibration error) in the final report.
    pub watch: bool,
    /// Workload family declared at HELLO time, pinning the server-side
    /// drift detector against that family's reference profile.
    pub family: Option<String>,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            config: OnlineConfig::default(),
            threads: 1,
            batch: 512,
            events_per_thread: None,
            target_rate: None,
            watch: false,
            family: None,
        }
    }
}

/// One session's watch telemetry, as read from its final STATS frame.
#[derive(Debug, Clone)]
pub struct SessionWatch {
    /// The declared family, if any.
    pub family: Option<String>,
    /// Completed rolling windows.
    pub windows: u64,
    /// Lifetime mispredict rate.
    pub mispredict_rate: f64,
    /// Occurrence-weighted calibration RMS error of the session's
    /// lifetime reliability bins.
    pub rms_error: f64,
    /// The most recent window's divergence from the reference profile.
    pub last_divergence: f64,
    /// The CUSUM drift accumulator.
    pub cusum: f64,
    /// Whether the drift flag latched.
    pub drift_flagged: bool,
    /// The 1-based window at which the flag latched (0 = never).
    pub drift_window: u64,
}

impl SessionWatch {
    fn from_stats(s: &crate::proto::SessionStats) -> Self {
        let rms_error = paco_analysis::ReliabilityDiagram::from_bins(&s.bins).rms_error();
        SessionWatch {
            family: s.family.clone(),
            windows: s.windows,
            mispredict_rate: if s.events == 0 {
                0.0
            } else {
                s.mispredicts as f64 / s.events as f64
            },
            rms_error,
            last_divergence: f64::from_bits(s.last_divergence_bits),
            cusum: f64::from_bits(s.cusum_bits),
            drift_flagged: s.drift_flagged,
            drift_window: s.drift_window,
        }
    }
}

/// Per-session results.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The server-assigned session id.
    pub session_id: u64,
    /// Events streamed.
    pub events: u64,
    /// EVENTS/PREDICTIONS round trips performed.
    pub batches: u64,
    /// FNV-1a digest of every PREDICTIONS payload, in order.
    pub digest: u64,
    /// Wall-clock duration of this session's streaming loop.
    pub elapsed: Duration,
    /// Histogram of every batch round trip, nanoseconds (fixed memory;
    /// merged across sessions into [`LoadReport::latency_us`]).
    pub latency_hist: HistogramSnapshot,
    /// Watch telemetry from the session's final STATS poll (present iff
    /// [`LoadOptions::watch`]).
    pub watch: Option<SessionWatch>,
}

impl SessionReport {
    /// This session's own streaming rate, events/second.
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Aggregate results of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Total events streamed across all sessions.
    pub events: u64,
    /// Wall-clock duration of the streaming phase.
    pub elapsed: Duration,
    /// Aggregate throughput, events/second.
    pub events_per_sec: f64,
    /// Batch round-trip latency summary (microseconds), from the
    /// sessions' merged histograms: percentiles are bucket-interpolated,
    /// within one ≤ 12.5% log-linear bucket of an exact sort.
    pub latency_us: LatencySummary,
    /// Per-session details.
    pub sessions: Vec<SessionReport>,
    /// `true` when every session's digest matched the offline pipeline.
    pub parity_ok: bool,
    /// Sessions whose drift flag latched (0 when watch was off).
    pub flagged_sessions: u64,
}

/// A load-run failure.
#[derive(Debug)]
pub enum LoadError {
    /// The trace could not be read.
    Trace(paco_trace::TraceError),
    /// A client failed.
    Client(ClientError),
    /// The trace contains no control-flow events.
    EmptyTrace,
    /// The options selected zero events, so there is nothing to measure.
    NoEvents,
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Trace(e) => write!(f, "trace: {e}"),
            LoadError::Client(e) => write!(f, "client: {e}"),
            LoadError::EmptyTrace => write!(f, "trace contains no control-flow events"),
            LoadError::NoEvents => write!(f, "no events selected (is --events 0?)"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<paco_trace::TraceError> for LoadError {
    fn from(e: paco_trace::TraceError) -> Self {
        LoadError::Trace(e)
    }
}

impl From<ClientError> for LoadError {
    fn from(e: ClientError) -> Self {
        LoadError::Client(e)
    }
}

/// Loads the branch events (control-flow instructions) of a trace.
pub fn control_events(trace: impl AsRef<Path>) -> Result<Vec<DynInstr>, LoadError> {
    let mut reader = paco_trace::TraceReader::open(trace)?;
    let mut events = Vec::new();
    for record in reader.records() {
        let instr = DynInstr::from(record?);
        if instr.class.is_control() {
            events.push(instr);
        }
    }
    if events.is_empty() {
        return Err(LoadError::EmptyTrace);
    }
    Ok(events)
}

/// Synthesizes the branch events of a corpus workload in memory: builds
/// the family with `seed`, streams `instrs` goodpath instructions and
/// keeps the control-flow ones — no trace file needed. The stream is a
/// pure function of `(family, seed, instrs)`, so two load runs against
/// the same corpus arguments replay identical events (and their parity
/// digests are comparable run to run).
pub fn corpus_control_events(
    family: &paco_corpus::CorpusFamily,
    seed: u64,
    instrs: u64,
) -> Result<Vec<DynInstr>, LoadError> {
    use paco_workloads::Workload;
    let mut workload = family.build(seed);
    let mut events = Vec::new();
    for _ in 0..instrs {
        let instr = workload.next_instr();
        if instr.class.is_control() {
            events.push(instr);
        }
    }
    if events.is_empty() {
        return Err(LoadError::EmptyTrace);
    }
    Ok(events)
}

/// Synthesizes a mid-stream regime switch: the control events of
/// `base` followed by the control events of `splice`, returning the
/// spliced stream and the index of its first post-splice event. The
/// acceptance demo replays `biased_bimodal` splicing into
/// `mispredict_storm` and requires the drift detector to fire past the
/// splice point (and stay quiet on the unspliced control run). Like
/// [`corpus_control_events`], the stream is a pure function of its
/// arguments, so parity digests remain comparable run to run.
pub fn corpus_splice_events(
    base: &paco_corpus::CorpusFamily,
    base_seed: u64,
    base_instrs: u64,
    splice: &paco_corpus::CorpusFamily,
    splice_seed: u64,
    splice_instrs: u64,
) -> Result<(Vec<DynInstr>, usize), LoadError> {
    let mut events = corpus_control_events(base, base_seed, base_instrs)?;
    let splice_at = events.len();
    events.extend(corpus_control_events(splice, splice_seed, splice_instrs)?);
    Ok((events, splice_at))
}

/// Resolves `addr` to the first socket address it names.
fn resolve(addr: impl ToSocketAddrs) -> Result<SocketAddr, LoadError> {
    addr.to_socket_addrs()
        .map_err(ClientError::from)?
        .next()
        .ok_or_else(|| ClientError::Unexpected("address resolves to nothing".into()).into())
}

/// Streams `chunks` on `client`, one EVENTS/PREDICTIONS round trip per
/// chunk, recording each round trip's nanoseconds into `rtt_ns`.
fn stream<'a>(
    client: &mut Client,
    chunks: impl Iterator<Item = &'a [DynInstr]>,
    rtt_ns: &mut HistogramSnapshot,
) -> Result<(), ClientError> {
    for chunk in chunks {
        let t0 = Instant::now();
        let outcomes = client.send_events(chunk)?;
        rtt_ns.record(t0.elapsed().as_nanos() as u64);
        debug_assert_eq!(outcomes.len(), chunk.len(), "control-only batches");
    }
    Ok(())
}

/// Batches between a watched session's mid-stream STATS polls.
const STATS_EVERY: usize = 32;

/// Runs one load session: streams `events` in batches, measuring each
/// round trip.
fn run_session(
    addr: &SocketAddr,
    options: &LoadOptions,
    events: &[DynInstr],
    started: Instant,
) -> Result<SessionReport, LoadError> {
    let batch = options.batch.max(1);
    let per_thread_rate = options
        .target_rate
        .map(|r| (r / options.threads.max(1) as f64).max(1.0));
    // Pace against the shared epoch: a batch waits until its scheduled
    // send time, `started` plus the events before it over the rate.
    let pace = |offset: u64| {
        if let Some(rate) = per_thread_rate {
            let due = started + Duration::from_secs_f64(offset as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
        }
    };

    let mut client = match &options.family {
        Some(family) if options.watch => Client::connect_declaring(addr, &options.config, family)?,
        _ => Client::connect(addr, &options.config)?,
    };
    let session_started = Instant::now();
    let mut latency_hist = HistogramSnapshot::new();
    let mut sent = 0u64;
    for segment in events.chunks(batch * STATS_EVERY) {
        let chunks = segment
            .chunks(batch)
            .zip((sent..).step_by(batch))
            .map(|(chunk, offset)| {
                pace(offset);
                chunk
            });
        stream(&mut client, chunks, &mut latency_hist)?;
        sent += segment.len() as u64;
        // Watch mode polls STATS after every full segment (outside the
        // timed round trips); stats polling never touches the
        // prediction digest, so parity is unaffected.
        if options.watch && segment.len() == batch * STATS_EVERY {
            client.stats()?;
        }
    }
    let elapsed = session_started.elapsed();
    let watch = if options.watch {
        Some(SessionWatch::from_stats(&client.stats()?.session))
    } else {
        None
    };
    let report = SessionReport {
        session_id: client.session_id(),
        events: sent,
        batches: latency_hist.count(),
        digest: client.digest(),
        elapsed,
        latency_hist,
        watch,
    };
    client.bye()?;
    Ok(report)
}

/// Runs the load harness: `options.threads` concurrent sessions all
/// replaying `events`.
pub fn run_load(
    addr: impl ToSocketAddrs,
    events: &[DynInstr],
    options: &LoadOptions,
) -> Result<LoadReport, LoadError> {
    let addr = resolve(addr)?;
    if events.is_empty() || options.events_per_thread == Some(0) {
        return Err(LoadError::NoEvents);
    }
    let events = match options.events_per_thread {
        Some(n) => &events[..(n as usize).min(events.len())],
        None => events,
    };

    let started = Instant::now();
    let sessions: Result<Vec<SessionReport>, LoadError> = thread::scope(|scope| {
        let handles: Vec<_> = (0..options.threads.max(1))
            .map(|_| scope.spawn(|| run_session(&addr, options, events, started)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();
    let reports = sessions?;

    let expect = offline_digest(&options.config, events, options.batch);
    let total_events: u64 = reports.iter().map(|r| r.events).sum();
    let mut pooled = HistogramSnapshot::new();
    for r in &reports {
        pooled.merge(&r.latency_hist);
    }
    let flagged_sessions = reports
        .iter()
        .filter(|r| r.watch.as_ref().is_some_and(|w| w.drift_flagged))
        .count() as u64;
    Ok(LoadReport {
        events: total_events,
        elapsed,
        events_per_sec: total_events as f64 / elapsed.as_secs_f64().max(1e-9),
        latency_us: summary_from_hist(&pooled),
        parity_ok: reports.iter().all(|r| r.digest == expect),
        sessions: reports,
        flagged_sessions,
    })
}

/// Churn-storm options.
///
/// A churn run is the serving layer's stress harness: `sessions`
/// seeded sessions each live a two-phase life — connect, stream part of
/// their event slice, drop *without* BYE (the session parks), then
/// resume by id, optionally demand a live migration, stream the rest
/// and close cleanly. Every per-session decision (event slice, cut
/// point, migration) is a pure function of `(seed, session index)`, so
/// a storm replays identically run to run and every session's final
/// digest has an offline oracle.
#[derive(Debug, Clone)]
pub struct ChurnOptions {
    /// Pipeline configuration for every session.
    pub config: OnlineConfig,
    /// Total sessions in the storm.
    pub sessions: usize,
    /// Concurrent driver threads (sessions are dealt round-robin).
    pub threads: usize,
    /// Events per EVENTS frame. Cut points land on batch boundaries, so
    /// [`offline_digest`] over the session's whole slice with this same
    /// batch size is the parity oracle.
    pub batch: usize,
    /// Events each session streams across both phases.
    pub events_per_session: usize,
    /// Storm seed: same seed, same storm.
    pub seed: u64,
    /// Every `migrate_every`-th session (0 = none) issues an operator
    /// MIGRATE after resuming, letting the server pick the target.
    pub migrate_every: usize,
}

impl Default for ChurnOptions {
    fn default() -> Self {
        ChurnOptions {
            config: OnlineConfig::default(),
            sessions: 256,
            threads: 8,
            batch: 32,
            events_per_session: 96,
            seed: 0x5eed_c4a2,
            migrate_every: 7,
        }
    }
}

/// Aggregate results of one churn storm.
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    /// Sessions that completed both phases.
    pub sessions: usize,
    /// Total events streamed across all sessions and phases.
    pub events: u64,
    /// Wall-clock duration of the whole storm.
    pub elapsed: Duration,
    /// Aggregate throughput, events/second.
    pub events_per_sec: f64,
    /// Sessions parked server-side at the phase barrier (what the storm
    /// measured as peak concurrent churned sessions).
    pub peak_parked: usize,
    /// Operator MIGRATE acknowledgements naming an actual shard move
    /// (`from != to`).
    pub migrated: usize,
    /// MIGRATE acknowledgements where the server answered without
    /// moving (already on the target, or a single-shard server).
    pub migrate_noops: usize,
    /// Session ids whose end-to-end digest diverged from the offline
    /// oracle — **must** be empty; `paco-load churn` exits non-zero
    /// otherwise.
    pub parity_failures: Vec<u64>,
}

impl ChurnReport {
    /// `true` iff every session's digest matched its offline oracle.
    pub fn parity_ok(&self) -> bool {
        self.parity_failures.is_empty()
    }

    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sessions             {}\nevents               {}\nelapsed              {:.3} s\nthroughput           {:.0} events/s\n",
            self.sessions,
            self.events,
            self.elapsed.as_secs_f64(),
            self.events_per_sec
        ));
        out.push_str(&format!(
            "peak parked          {}\nmigrated             {} ({} no-op acks)\n",
            self.peak_parked, self.migrated, self.migrate_noops
        ));
        if self.parity_ok() {
            out.push_str("parity               ok (every session == offline, byte-identical)\n");
        } else {
            out.push_str(&format!(
                "parity               FAILED ({} sessions: {:?})\n",
                self.parity_failures.len(),
                &self.parity_failures[..self.parity_failures.len().min(16)]
            ));
        }
        out
    }

    /// Renders the report as deterministic-key-order JSON.
    pub fn render_json(&self) -> String {
        let ids: Vec<String> = self.parity_failures.iter().map(u64::to_string).collect();
        format!(
            "{{\"sessions\":{},\"events\":{},\"elapsed_s\":{:.6},\"events_per_sec\":{:.1},\"peak_parked\":{},\"migrated\":{},\"migrate_noops\":{},\"parity\":{},\"parity_failures\":[{}]}}",
            self.sessions,
            self.events,
            self.elapsed.as_secs_f64(),
            self.events_per_sec,
            self.peak_parked,
            self.migrated,
            self.migrate_noops,
            self.parity_ok(),
            ids.join(",")
        )
    }
}

/// One session's event slice: a deterministic rotation of the shared
/// pool (pure function of `(seed, index)`).
fn churn_slice(pool: &[DynInstr], options: &ChurnOptions, index: usize) -> (Vec<DynInstr>, usize) {
    let mut rng =
        SplitMix64::new(options.seed ^ (index as u64).wrapping_mul(0xd6e8_feb8_6659_fd93));
    let offset = (rng.next_u64() % pool.len() as u64) as usize;
    let events: Vec<DynInstr> = pool
        .iter()
        .cycle()
        .skip(offset)
        .take(options.events_per_session)
        .cloned()
        .collect();
    let batches = events.len().div_ceil(options.batch.max(1));
    // Cut strictly inside the stream when it spans 2+ batches: both
    // phases stream at least one frame, and every phase-A frame is a
    // full batch (so offline chunking lines up).
    let cut = if batches < 2 {
        1
    } else {
        1 + (rng.next_u64() % (batches as u64 - 1)) as usize
    };
    (events, cut)
}

/// What phase A (connect → stream → drop) leaves for phase B.
struct ParkedHalf {
    index: usize,
    session_id: u64,
    digest: u64,
    events: Vec<DynInstr>,
    cut: usize,
}

/// Runs a churn storm against `addr`: every session streams part of its
/// slice, drops without BYE, resumes by id (retrying the park race),
/// optionally migrates live, streams the rest and compares its
/// continued digest against [`offline_digest`] over the whole slice.
///
/// All sessions finish phase A before any starts phase B — the barrier
/// is the point of the storm: it holds every churned session parked
/// concurrently (reported as [`ChurnReport::peak_parked`]).
pub fn run_churn(
    addr: impl ToSocketAddrs,
    pool: &[DynInstr],
    options: &ChurnOptions,
) -> Result<ChurnReport, LoadError> {
    let addr = resolve(addr)?;
    if pool.is_empty() || options.sessions == 0 || options.events_per_session == 0 {
        return Err(LoadError::NoEvents);
    }

    let threads = options.threads.max(1);
    let barrier = Barrier::new(threads);
    let started = Instant::now();
    let peak_parked = AtomicUsize::new(0);

    // Each worker tallies its share of the storm into a partial report.
    let outcomes: Vec<Result<ChurnReport, LoadError>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let barrier = &barrier;
                let peak_parked = &peak_parked;
                scope.spawn(move || -> Result<ChurnReport, LoadError> {
                    let batch = options.batch.max(1);
                    // The storm reports parity and parking, not latency.
                    let mut rtt_ns = HistogramSnapshot::new();
                    // Phase A: park this worker's share of the storm. A
                    // failure is kept, not returned, so that every worker
                    // still reaches both barrier waits.
                    let mut parked = Vec::new();
                    let phase_a = (worker..options.sessions).step_by(threads).try_for_each(
                        |index| -> Result<(), LoadError> {
                            let (events, cut) = churn_slice(pool, options, index);
                            let mut client = Client::connect(addr, &options.config)?;
                            let chunks = events.chunks(batch).take(cut);
                            stream(&mut client, chunks, &mut rtt_ns)?;
                            parked.push(ParkedHalf {
                                index,
                                session_id: client.session_id(),
                                digest: client.digest(),
                                events,
                                cut,
                            });
                            drop(client); // no BYE: the server parks the session
                            Ok(())
                        },
                    );
                    if barrier.wait().is_leader() {
                        // Every session in the storm is now dropped (the
                        // server may still be sweeping the last EOFs);
                        // sample the parked gauge as the storm's peak.
                        peak_parked.store(
                            probe_parked(&addr, &options.config, options.sessions),
                            Ordering::Relaxed,
                        );
                    }
                    barrier.wait();
                    // A worker whose phase A failed skips phase B; the
                    // storm returns its error.
                    phase_a?;

                    // Phase B: resume, optionally migrate, finish, verify.
                    let mut outcome = ChurnReport::default();
                    for half in parked {
                        let mut client = resume_with_retry(&addr, options, half.session_id)?;
                        client.seed_digest(half.digest);
                        if options.migrate_every != 0 && half.index % options.migrate_every == 0 {
                            let ack = client.migrate(None).map_err(LoadError::Client)?;
                            if ack.from_shard == ack.to_shard {
                                outcome.migrate_noops += 1;
                            } else {
                                outcome.migrated += 1;
                            }
                        }
                        // The rest, chunked exactly as the offline oracle
                        // chunks the whole slice.
                        let chunks = half.events.chunks(batch).skip(half.cut);
                        stream(&mut client, chunks, &mut rtt_ns)?;
                        let expect = offline_digest(&options.config, &half.events, options.batch);
                        if client.digest() != expect {
                            outcome.parity_failures.push(half.session_id);
                        }
                        client.bye()?;
                        outcome.events += half.events.len() as u64;
                        outcome.sessions += 1;
                    }
                    Ok(outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("churn thread panicked"))
            .collect()
    });
    let elapsed = started.elapsed();

    let mut report = ChurnReport {
        elapsed,
        peak_parked: peak_parked.load(Ordering::Relaxed),
        ..ChurnReport::default()
    };
    for outcome in outcomes {
        let outcome = outcome?;
        report.sessions += outcome.sessions;
        report.events += outcome.events;
        report.migrated += outcome.migrated;
        report.migrate_noops += outcome.migrate_noops;
        report.parity_failures.extend(outcome.parity_failures);
    }
    report.parity_failures.sort_unstable();
    report.events_per_sec = report.events as f64 / elapsed.as_secs_f64().max(1e-9);
    Ok(report)
}

/// Polls the server's parked-session count (via a throwaway session's
/// STATS frame) until it reaches `want` or stops growing — phase A's
/// EOFs race the probe, so it watches for the table to settle.
fn probe_parked(addr: &SocketAddr, config: &OnlineConfig, want: usize) -> usize {
    let Ok(mut client) = Client::connect(addr, config) else {
        return 0;
    };
    let mut best = 0usize;
    let mut stable = 0u32;
    for _ in 0..500 {
        let Ok(stats) = client.stats() else { break };
        let parked = stats.fleet.sessions_parked as usize;
        if parked >= want {
            best = parked;
            break;
        }
        if parked > best {
            best = parked;
            stable = 0;
        } else {
            stable += 1;
            if stable > 50 {
                break;
            }
        }
        thread::sleep(Duration::from_millis(2));
    }
    let _ = client.bye();
    best
}

/// Attempts to claim a parked session before a churn resume gives up.
const RESUME_RETRIES: u32 = 500;

/// Resumes a parked session, retrying the park race: the server may
/// still be sweeping the dropped connection's EOF when the resume
/// arrives, answering `UNKNOWN_SESSION` until the park lands (at most
/// [`RESUME_RETRIES`] times, 2 ms apart).
fn resume_with_retry(
    addr: &SocketAddr,
    options: &ChurnOptions,
    session_id: u64,
) -> Result<Client, LoadError> {
    let mut attempt = 0u32;
    loop {
        match Client::resume_by_id(addr, &options.config, session_id) {
            Ok(client) => return Ok(client),
            Err(ClientError::Server(crate::proto::ErrorCode::UnknownSession, _))
                if attempt < RESUME_RETRIES =>
            {
                attempt += 1;
                thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(LoadError::Client(e)),
        }
    }
}

/// A [`LatencySummary`] (microseconds) from a pooled nanosecond RTT
/// histogram: count, exact mean and max, bucket-interpolated
/// percentiles. The quantile-error-bound property test pins these to
/// within one bucket of the exact-sort answer.
fn summary_from_hist(hist: &HistogramSnapshot) -> LatencySummary {
    LatencySummary {
        count: hist.count() as usize,
        mean: hist.mean() / 1e3,
        p50: hist.quantile(0.50) / 1e3,
        p90: hist.quantile(0.90) / 1e3,
        p99: hist.quantile(0.99) / 1e3,
        max: hist.max() as f64 / 1e3,
    }
}

impl LoadReport {
    /// Renders the human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "events               {}\nelapsed              {:.3} s\nthroughput           {:.0} events/s\n",
            self.events,
            self.elapsed.as_secs_f64(),
            self.events_per_sec
        ));
        out.push_str(&format!(
            "latency (batch RTT)  p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us\n",
            self.latency_us.p50, self.latency_us.p90, self.latency_us.p99, self.latency_us.max
        ));
        for s in &self.sessions {
            out.push_str(&format!(
                "session {:<6} events {:<8} batches {:<6} ev/s {:<9.0} digest {:016x}\n",
                s.session_id,
                s.events,
                s.batches,
                s.events_per_sec(),
                s.digest
            ));
            if let Some(w) = &s.watch {
                let drift = if w.drift_flagged {
                    format!("drift @w{}", w.drift_window)
                } else {
                    "drift -".to_string()
                };
                out.push_str(&format!(
                    "  watch {:<6} family {:<16} windows {:<4} misp {:.4} rms {:.4} div {:.3} cusum {:.3} {}\n",
                    s.session_id,
                    w.family.as_deref().unwrap_or("-"),
                    w.windows,
                    w.mispredict_rate,
                    w.rms_error,
                    w.last_divergence,
                    w.cusum,
                    drift
                ));
            }
        }
        if self.parity_ok {
            out.push_str("parity               ok (online == offline, byte-identical)\n");
        } else {
            out.push_str("parity               FAILED\n");
        }
        out.push_str(&format!(
            "summary              sessions {}  flagged {}\n",
            self.sessions.len(),
            self.flagged_sessions
        ));
        out
    }

    /// Renders the report as deterministic-key-order JSON (values are
    /// measurements, so numbers vary run to run).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"events\":{},\"elapsed_s\":{:.6},\"events_per_sec\":{:.1},",
            self.events,
            self.elapsed.as_secs_f64(),
            self.events_per_sec
        ));
        out.push_str(&format!(
            "\"latency_us\":{{\"count\":{},\"mean\":{:.1},\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1},\"max\":{:.1}}},",
            self.latency_us.count,
            self.latency_us.mean,
            self.latency_us.p50,
            self.latency_us.p90,
            self.latency_us.p99,
            self.latency_us.max
        ));
        out.push_str("\"sessions\":[");
        for (i, s) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"events\":{},\"batches\":{},\"events_per_sec\":{:.1},\"digest\":\"{:016x}\"",
                s.session_id,
                s.events,
                s.batches,
                s.events_per_sec(),
                s.digest
            ));
            if let Some(w) = &s.watch {
                out.push_str(&format!(
                    ",\"watch\":{{\"family\":{},\"windows\":{},\"mispredict_rate\":{:.6},\"rms_error\":{:.6},\"last_divergence\":{:.6},\"cusum\":{:.6},\"drift_flagged\":{},\"drift_window\":{}}}",
                    match &w.family {
                        Some(f) => format!("\"{f}\""),
                        None => "null".to_string(),
                    },
                    w.windows,
                    w.mispredict_rate,
                    w.rms_error,
                    w.last_divergence,
                    w.cusum,
                    w.drift_flagged,
                    w.drift_window
                ));
            }
            out.push('}');
        }
        out.push_str("],");
        out.push_str(&format!(
            "\"flagged_sessions\":{},\"parity\":{}",
            self.flagged_sessions, self.parity_ok
        ));
        out.push('}');
        out
    }
}

//! The live load: client threads driving a [`RunningServer`] through
//! rounds of session lifecycles.
//!
//! Every workload runs the same lifecycle per session: connect, stream
//! the first part of its event window, drop without BYE (the server
//! parks the session), wait at a barrier until the whole round is
//! parked, resume by id, migrate if it is every 9th session, stream the
//! rest, check the digest and say BYE. The workloads differ in frame
//! size, pacing, configuration and how many sessions share a round.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use paco_serve::{offline_digest, Client, ClientError, ErrorCode, RunningServer};
use paco_types::{DynInstr, SplitMix64};
use paco_workloads::{BenchmarkId, Workload as _};

use crate::stats::{quantile, rss_kib};
use crate::trace::{Tracer, NO_PARENT};
use crate::{Plan, Workload};

/// Every `MIGRATE_EVERY`-th session asks for a live migration after it
/// resumes.
const MIGRATE_EVERY: u64 = 9;

/// Resume attempts before a session counts as evicted. A resume can
/// race the server still parking the dropped connection.
const RESUME_ATTEMPTS: u64 = 200;

/// Pause between resume attempts.
const RESUME_PAUSE: Duration = Duration::from_micros(100);

/// Longest wait at the park barrier for the server to park the round.
const PARK_WAIT: Duration = Duration::from_secs(5);

/// Instructions `churn` draws its `biased_bimodal` event pool from.
const CHURN_POOL_INSTRS: u64 = 100_000;

/// The generated inputs of one run: an event pool, each session's window
/// into it, and each window's oracle digest.
#[derive(Debug)]
pub struct Inputs {
    /// Control events the sessions stream.
    pub pool: Vec<DynInstr>,
    /// Start of session `i`'s window in `pool`.
    pub offsets: Vec<usize>,
    /// Events in every window.
    pub window: usize,
    /// The per-event oracle's digest of each window, framed as the
    /// sessions frame it. Empty until [`Inputs::compute_oracles`].
    pub expected: Vec<u64>,
}

impl Inputs {
    /// Makes the inputs of `plan` from its seed alone.
    pub fn synthesize(plan: &Plan) -> Result<Inputs, String> {
        let window = plan.frames_per_session * plan.frame;
        let want = (window + window / 4).max(plan.lane_events());
        let pool = match plan.workload {
            Workload::Churn => {
                let entry = paco_corpus::find_entry("biased_bimodal")
                    .ok_or("corpus family biased_bimodal missing")?;
                paco_serve::corpus_control_events(&entry.family, plan.seed, CHURN_POOL_INSTRS)
                    .map_err(|e| e.to_string())?
            }
            Workload::Bulk | Workload::Interactive => {
                let mut source = BenchmarkId::Gzip.build(plan.seed);
                let mut pool = Vec::with_capacity(want);
                while pool.len() < want {
                    let instr = source.next_instr();
                    if instr.class.is_control() {
                        pool.push(instr);
                    }
                }
                pool
            }
        };
        if pool.len() < window.max(plan.lane_events()) {
            return Err(format!(
                "event pool too small: {} events, need {}",
                pool.len(),
                window.max(plan.lane_events())
            ));
        }
        let mut rng = SplitMix64::new(plan.seed ^ 0x5e55_10f5);
        let offsets = (0..plan.storm)
            .map(|_| rng.below((pool.len() - window + 1) as u64) as usize)
            .collect();
        Ok(Inputs {
            pool,
            offsets,
            window,
            expected: Vec::new(),
        })
    }

    /// Session `index`'s event window.
    pub fn events(&self, index: usize) -> &[DynInstr] {
        &self.pool[self.offsets[index]..self.offsets[index] + self.window]
    }

    /// Computes every window's oracle digest with the per-event lane
    /// (outside every timed window).
    pub fn compute_oracles(&mut self, plan: &Plan) {
        self.expected = (0..self.offsets.len())
            .map(|i| offline_digest(&plan.config, self.events(i), plan.frame))
            .collect();
    }
}

/// A session that completed its lifecycle, kept for the traced replay.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Index of the session's window.
    pub index: usize,
    /// The digest of every PREDICTIONS payload the session received.
    pub digest: u64,
    /// Whether the session migrated after resuming.
    pub migrated: bool,
}

/// What the client threads measured.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per frame: nanoseconds from when the frame was due to when its
    /// PREDICTIONS frame was read.
    pub latency_ns: Vec<u64>,
    /// Per frame: nanoseconds the send started after it was due.
    pub lag_ns: Vec<u64>,
    /// `Client::connect` times, nanoseconds.
    pub connect_ns: Vec<u64>,
    /// `Client::resume_by_id` times including retries, nanoseconds.
    pub resume_ns: Vec<u64>,
    /// `Client::migrate` times, nanoseconds.
    pub migrate_ns: Vec<u64>,
    /// Resume attempts made, successful or not.
    pub resume_attempts: u64,
    /// Frames, handshakes, resumes and migrations attempted.
    pub attempted: u64,
    /// Of those, the ones refused, evicted or lost to an I/O error, plus
    /// one per digest mismatch.
    pub failed: u64,
    /// Sessions whose digest was compared with the oracle.
    pub checked: u64,
    /// Sessions whose digest differed from the oracle.
    pub mismatches: u64,
    /// Events answered.
    pub events: u64,
    /// Complete connect→park→resume→finish lifecycles.
    pub lifecycles: u64,
    /// Wall time of every round, seconds.
    pub round_s: Vec<f64>,
    /// Events answered per second, by round.
    pub round_events_per_s: Vec<f64>,
    /// Complete lifecycles per second, by round.
    pub round_sessions_per_s: Vec<f64>,
    /// Frame latency p50 in nanoseconds, by round.
    pub round_latency_p50_ns: Vec<f64>,
    /// Frame latency p90 in nanoseconds, by round.
    pub round_latency_p90_ns: Vec<f64>,
    /// VmRSS at the first round's park barrier, KiB.
    pub rss_at_park_kib: u64,
    /// VmRSS at the first round's park barrier minus VmRSS before the
    /// round, KiB.
    pub parked_rss_kib: i64,
    /// The first round's finished sessions.
    pub first_round: Vec<Finished>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.latency_ns.extend(other.latency_ns);
        self.lag_ns.extend(other.lag_ns);
        self.connect_ns.extend(other.connect_ns);
        self.resume_ns.extend(other.resume_ns);
        self.migrate_ns.extend(other.migrate_ns);
        self.resume_attempts += other.resume_attempts;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checked += other.checked;
        self.mismatches += other.mismatches;
        self.events += other.events;
        self.lifecycles += other.lifecycles;
    }
}

/// Runs whole rounds until `budget` has passed (at least one round).
pub fn drive(
    plan: &Plan,
    inputs: &Inputs,
    server: &RunningServer,
    budget: Duration,
    tracer: &mut Tracer,
) -> Tally {
    let started = Instant::now();
    let mut tally = Tally::default();
    let mut sessions_before = 0u64;
    while tally.round_s.is_empty() || started.elapsed() < budget {
        let first = tally.round_s.is_empty();
        let rss_before = rss_kib() as i64;
        let round_started = Instant::now();
        let parked_now = AtomicUsize::new(0);
        let barrier = Barrier::new(plan.threads);
        let rss_at_barrier = AtomicUsize::new(0);
        let baseline = server.parked_sessions();
        let outs: Vec<(Tally, Vec<Finished>, Tracer)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..plan.threads)
                .map(|worker| {
                    let ctx = RoundCtx {
                        plan,
                        inputs,
                        addr: server.addr(),
                        sessions_before,
                        epoch: tracer.epoch(),
                        traced: tracer.enabled(),
                    };
                    let barrier = &barrier;
                    let parked_now = &parked_now;
                    let rss_at_barrier = &rss_at_barrier;
                    scope.spawn(move || {
                        ctx.run_thread(
                            worker,
                            barrier,
                            || {
                                // Barrier leader: wait for the server to park
                                // the whole round, then sample memory.
                                let want = baseline + parked_now.load(Ordering::SeqCst);
                                let t = Instant::now();
                                while server.parked_sessions() < want && t.elapsed() < PARK_WAIT {
                                    thread::sleep(Duration::from_micros(100));
                                }
                                rss_at_barrier.store(rss_kib() as usize, Ordering::SeqCst);
                            },
                            parked_now,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let seconds = round_started.elapsed().as_secs_f64();
        if first {
            tally.rss_at_park_kib = rss_at_barrier.load(Ordering::SeqCst) as u64;
            tally.parked_rss_kib = tally.rss_at_park_kib as i64 - rss_before;
        }
        let mut round = Tally::default();
        for (t, finished, spans) in outs {
            round.absorb(t);
            if first {
                tally.first_round.extend(finished);
            }
            tracer.absorb(spans);
        }
        tally.round_s.push(seconds);
        tally.round_events_per_s.push(round.events as f64 / seconds);
        tally
            .round_sessions_per_s
            .push(round.lifecycles as f64 / seconds);
        tally
            .round_latency_p50_ns
            .push(quantile(&mut round.latency_ns, 0.5));
        tally
            .round_latency_p90_ns
            .push(quantile(&mut round.latency_ns, 0.9));
        tally.absorb(round);
        sessions_before += plan.storm as u64;
    }
    tally.first_round.sort_by_key(|f| f.index);
    tally
}

/// Shared, read-only context of one round.
struct RoundCtx<'a> {
    plan: &'a Plan,
    inputs: &'a Inputs,
    addr: SocketAddr,
    sessions_before: u64,
    epoch: Instant,
    traced: bool,
}

/// A session between its park and its resume.
struct Parked {
    index: usize,
    session_id: u64,
    digest: u64,
    span: u32,
}

impl RoundCtx<'_> {
    /// One client thread's share of a round: sessions `worker`,
    /// `worker + threads`, … through both phases.
    fn run_thread(
        &self,
        worker: usize,
        barrier: &Barrier,
        at_barrier: impl FnOnce(),
        parked_now: &AtomicUsize,
    ) -> (Tally, Vec<Finished>, Tracer) {
        let plan = self.plan;
        let mut tally = Tally::default();
        let mut tracer = Tracer::new(self.epoch, self.traced);
        let mut finished = Vec::new();
        let mut parked = Vec::new();

        for index in (worker..plan.storm).step_by(plan.threads) {
            let span = tracer.open("session", NO_PARENT, index as u64, 0);
            tally.attempted += 1;
            let t = Instant::now();
            let s = tracer.open("client.connect", span, index as u64, 0);
            let connected = Client::connect(self.addr, &plan.config);
            tracer.close(s);
            let Ok(mut client) = connected else {
                tally.failed += 1;
                tracer.close(span);
                continue;
            };
            tally.connect_ns.push(t.elapsed().as_nanos() as u64);
            let frames = self.inputs.events(index).chunks(plan.frame).take(plan.cut);
            if !self.stream(&mut client, frames, 0, &mut tally, &mut tracer, span, index) {
                tracer.close(span);
                continue;
            }
            parked.push(Parked {
                index,
                session_id: client.session_id(),
                digest: client.digest(),
                span,
            });
            parked_now.fetch_add(1, Ordering::SeqCst);
            drop(client); // no BYE: the server parks the session
        }

        if barrier.wait().is_leader() {
            at_barrier();
        }
        barrier.wait();

        for half in parked {
            let (index, span) = (half.index, half.span);
            let Some(mut client) = self.resume(&half, &mut tally, &mut tracer) else {
                tracer.close(span);
                continue;
            };
            client.seed_digest(half.digest);
            let migrated = (self.sessions_before + index as u64) % MIGRATE_EVERY == 0;
            if migrated {
                tally.attempted += 1;
                let t = Instant::now();
                let s = tracer.open("client.migrate", span, index as u64, plan.cut as u32);
                let ack = client.migrate(None);
                tracer.close(s);
                if ack.is_err() {
                    tally.failed += 1;
                    tracer.close(span);
                    continue;
                }
                tally.migrate_ns.push(t.elapsed().as_nanos() as u64);
            }
            let frames = self.inputs.events(index).chunks(plan.frame).skip(plan.cut);
            if !self.stream(
                &mut client,
                frames,
                plan.cut,
                &mut tally,
                &mut tracer,
                span,
                index,
            ) {
                tracer.close(span);
                continue;
            }
            let digest = client.digest();
            tally.checked += 1;
            if digest != self.inputs.expected[index] {
                tally.mismatches += 1;
                tally.failed += 1;
            }
            let s = tracer.open("client.bye", span, index as u64, 0);
            let bye = client.bye();
            tracer.close(s);
            tracer.close(span);
            if bye.is_ok() {
                tally.lifecycles += 1;
                finished.push(Finished {
                    index,
                    digest,
                    migrated,
                });
            }
        }
        (tally, finished, tracer)
    }

    /// Resumes a parked session by id, retrying while the park races
    /// the resume. `None` (counted as failed) on a refusal, an eviction
    /// or an I/O error.
    fn resume(&self, half: &Parked, tally: &mut Tally, tracer: &mut Tracer) -> Option<Client> {
        tally.attempted += 1;
        let t = Instant::now();
        let s = tracer.open("client.resume", half.span, half.index as u64, 0);
        let mut attempts = 0;
        let client = loop {
            attempts += 1;
            match Client::resume_by_id(self.addr, &self.plan.config, half.session_id) {
                Ok(client) => break Some(client),
                Err(ClientError::Server(ErrorCode::UnknownSession, _))
                    if attempts < RESUME_ATTEMPTS =>
                {
                    thread::sleep(RESUME_PAUSE)
                }
                Err(_) => break None,
            }
        };
        tracer.close(s);
        tally.resume_attempts += attempts;
        match client {
            Some(c) => {
                tally.resume_ns.push(t.elapsed().as_nanos() as u64);
                Some(c)
            }
            None => {
                tally.failed += 1;
                None
            }
        }
    }

    /// Streams `frames`; `false` (counted as failed) if a frame failed.
    /// Open loop: frame `k` of the phase is due `k` periods after the
    /// phase began. Closed loop: a frame is due when the previous reply
    /// has been read.
    #[allow(clippy::too_many_arguments)]
    fn stream<'e>(
        &self,
        client: &mut Client,
        frames: impl Iterator<Item = &'e [DynInstr]>,
        first_frame: usize,
        tally: &mut Tally,
        tracer: &mut Tracer,
        span: u32,
        index: usize,
    ) -> bool {
        let phase_start = Instant::now();
        let mut ready = phase_start;
        for (k, chunk) in frames.enumerate() {
            let due = match self.plan.pace {
                Some(period) => {
                    let due = phase_start + period * k as u32;
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        thread::sleep(wait);
                    }
                    due
                }
                None => ready,
            };
            let sent = Instant::now();
            tally.attempted += 1;
            let s = tracer.open(
                "client.send_events",
                span,
                index as u64,
                (first_frame + k) as u32,
            );
            let answered = client.send_events(chunk);
            tracer.close(s);
            let done = Instant::now();
            match answered {
                Ok(outcomes) if outcomes.len() == chunk.len() => {
                    let start = if self.plan.pace.is_some() { due } else { sent };
                    tally.latency_ns.push((done - start).as_nanos() as u64);
                    tally
                        .lag_ns
                        .push(sent.saturating_duration_since(due).as_nanos() as u64);
                    tally.events += chunk.len() as u64;
                }
                _ => {
                    tally.failed += 1;
                    return false;
                }
            }
            ready = done;
        }
        true
    }
}

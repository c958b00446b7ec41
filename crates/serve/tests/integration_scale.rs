//! Scale, churn and fault integration tests for the sharded reactor:
//! a multi-thousand-session connect/park/resume/migrate storm with
//! per-session digest parity and full ledger reconciliation (flight
//! recorder lifetime counts vs metric counters vs the driver's own
//! tallies), plus the in-process fault-injection seams — shard stall
//! and mid-migration disconnect — and a torn client-held snapshot blob,
//! each of which must leave every surviving session byte-identical to
//! offline replay. A storm that fails part-way through must return its
//! error rather than hang.
//!
//! The checked-in frame corpus (`tests/corpus_frames/`) rides along:
//! every seed is replayed against both decode paths and the live
//! reactor socket, and every rejection must land a `frame-error` flight
//! event without hanging the shard.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use paco_obs::FlightKind;
use paco_serve::client::offline_digest;
use paco_serve::load::{run_churn, ChurnOptions};
use paco_serve::proto::{read_frame, Frame, FrameDecoder, FrameKind};
use paco_serve::{
    corpus_control_events, Client, ClientError, ErrorCode, RunningServer, ServeOptions, SessionMode,
};
use paco_sim::{EstimatorKind, OnlineConfig};
use paco_types::DynInstr;

mod common;

fn pool(instrs: u64) -> Vec<DynInstr> {
    let entry = paco_corpus::find_entry("biased_bimodal").expect("corpus family");
    corpus_control_events(&entry.family, entry.seed, instrs).expect("synthesize pool")
}

/// A storm whose phase A fails on only some workers (two sessions,
/// eight threads, nothing listening) must return the failure, not leave
/// the idle workers waiting at the phase barrier.
#[test]
fn churn_with_a_partly_failed_phase_a_returns_its_error() {
    let pool = pool(1_000);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let options = ChurnOptions {
            config: OnlineConfig::tiny(EstimatorKind::None),
            sessions: 2,
            threads: 8,
            ..ChurnOptions::default()
        };
        let _ = tx.send(run_churn("127.0.0.1:1", &pool, &options).map(|r| r.sessions));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("run_churn hung after a phase-A failure");
    assert!(
        outcome.is_err(),
        "a dead address must fail the storm: {outcome:?}"
    );
}

fn resume_retrying(addr: std::net::SocketAddr, config: &OnlineConfig, session_id: u64) -> Client {
    for _ in 0..500 {
        match Client::resume_by_id(addr, config, session_id) {
            Ok(client) => return client,
            Err(ClientError::Server(ErrorCode::UnknownSession, _)) => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("resume failed: {e}"),
        }
    }
    panic!("session {session_id} never parked");
}

/// The tentpole storm: thousands of sessions churned through
/// connect → park → resume → (some) migrate → finish, every one
/// byte-checked against offline replay, and afterwards every ledger in
/// the server agrees: the flight recorder's lifetime counts, the metric
/// counters, the driver's tallies, and an empty session table.
#[test]
fn churn_storm_holds_parity_and_reconciles_every_ledger() {
    const SESSIONS: usize = 5_000;
    let server = RunningServer::bind("127.0.0.1:0", 8).expect("bind");
    let pool = pool(30_000);
    let options = ChurnOptions {
        config: OnlineConfig::tiny(EstimatorKind::StaticMrt),
        sessions: SESSIONS,
        threads: 16,
        batch: 32,
        events_per_session: 64,
        seed: 0xc4a2_5eed,
        migrate_every: 9,
    };
    let report = run_churn(server.addr(), &pool, &options).expect("churn storm");

    assert_eq!(report.sessions, SESSIONS, "every session must finish");
    assert!(
        report.parity_ok(),
        "digest parity failed for sessions {:?}",
        report.parity_failures
    );
    assert_eq!(
        report.peak_parked, SESSIONS,
        "the phase barrier must hold the whole storm parked at once"
    );
    // With 8 shards the auto-picked target is always another worker, so
    // every MIGRATE is a real move.
    assert_eq!(report.migrated, SESSIONS.div_ceil(9));
    assert_eq!(report.migrate_noops, 0);

    // Zero session-table leaks: every session ended in a clean BYE.
    assert_eq!(server.parked_sessions(), 0, "session table must drain");

    let metrics = server.metrics();
    let recorder = metrics.recorder();
    let fleet = &metrics.fleet;

    // Flight-recorder lifetime counts reconcile with the metric
    // counters — two independent recording paths, one truth.
    assert_eq!(
        recorder.recorded_of(FlightKind::SessionPark),
        metrics.session_parks.value(),
        "park events vs park counter"
    );
    assert_eq!(
        recorder.recorded_of(FlightKind::SessionResume),
        fleet.established[SessionMode::Resumed as usize].value(),
        "resume events vs established{{mode=resumed}}"
    );
    assert_eq!(
        recorder.recorded_of(FlightKind::SessionFresh),
        fleet.established[SessionMode::Fresh as usize].value(),
        "fresh events vs established{{mode=fresh}}"
    );
    assert_eq!(
        recorder.recorded_of(FlightKind::SessionMigrate),
        metrics.migrations(true).value() + metrics.migrations(false).value(),
        "migrate events vs migration counters"
    );

    // And both reconcile with what the driver itself saw: one park and
    // one resume per session (+1 fresh for the parked-gauge probe, which
    // BYEs without parking), every requested migration completed.
    assert_eq!(metrics.session_parks.value(), SESSIONS as u64);
    assert_eq!(
        fleet.established[SessionMode::Resumed as usize].value(),
        SESSIONS as u64
    );
    assert_eq!(
        fleet.established[SessionMode::Fresh as usize].value(),
        SESSIONS as u64 + 1
    );
    assert_eq!(
        metrics.migrations(true).value(),
        report.migrated as u64,
        "operator migrations vs driver tally"
    );
    server.stop();
}

/// The churn storm again, but with the change-point-aware estimator:
/// every AdaptiveMrt session carries live CUSUM state (baseline rate,
/// detection window, settle countdown) through park → migrate → resume,
/// and must still finish byte-identical to offline replay. The config
/// is hot-tuned so refreshes and detections actually fire inside the
/// per-session event budget — a storm of inert detectors would prove
/// nothing about moving the detector mid-flight.
#[test]
fn adaptive_mrt_survives_churn_storm_byte_identical() {
    const SESSIONS: usize = 600;
    let server = RunningServer::bind("127.0.0.1:0", 4).expect("bind");
    let pool = pool(30_000);
    let adaptive = paco::AdaptiveMrtConfig::paper()
        .with_refresh_period(40)
        .with_detect_window(8);
    let options = ChurnOptions {
        config: OnlineConfig::tiny(EstimatorKind::AdaptiveMrt(adaptive)),
        sessions: SESSIONS,
        threads: 8,
        batch: 24,
        events_per_session: 96,
        seed: 0xada7_715e,
        migrate_every: 7,
    };
    let report = run_churn(server.addr(), &pool, &options).expect("adaptive churn storm");

    assert_eq!(report.sessions, SESSIONS, "every session must finish");
    assert!(
        report.parity_ok(),
        "AdaptiveMrt digest parity failed for sessions {:?}",
        report.parity_failures
    );
    assert_eq!(report.migrated, SESSIONS.div_ceil(7));
    assert_eq!(report.migrate_noops, 0);
    assert_eq!(server.parked_sessions(), 0, "session table must drain");
    server.stop();
}

/// A stalled shard delays its sessions but corrupts nothing.
#[test]
fn shard_stall_delays_but_preserves_parity() {
    let server = RunningServer::bind("127.0.0.1:0", 2).expect("bind");
    let config = OnlineConfig::tiny(EstimatorKind::StaticMrt);
    let events = pool(12_000);
    let mut client = Client::connect(server.addr(), &config).expect("connect");
    let shard = common::sole_conn_shard(&server);
    client.send_events(&events[..256]).expect("pre-stall batch");
    server.faults().stall_shard(shard, 40);
    let stalled = std::time::Instant::now();
    client
        .send_events(&events[256..512])
        .expect("stalled batch");
    assert!(
        stalled.elapsed() >= Duration::from_millis(35),
        "the stall must actually delay the shard"
    );
    client.send_events(&events[512..768]).expect("post-stall");
    assert_eq!(
        client.digest(),
        offline_digest(&config, &events[..768], 256),
        "a stall must never change prediction bytes"
    );
    client.bye().expect("bye");
    server.stop();
}

/// A torn snapshot blob is the one restore input that crosses a trust
/// boundary now that migration moves live state: a client resuming
/// from half of a real blob gets a typed `BAD_STATE` refusal, and the
/// shard (the only one, so everything shares its worker) keeps serving
/// the blob's own session and a newcomer byte-identically.
#[test]
fn torn_resume_blob_is_refused_and_shard_keeps_serving() {
    let server = RunningServer::bind("127.0.0.1:0", 1).expect("bind");
    let config = OnlineConfig::tiny(EstimatorKind::StaticMrt);
    let events = pool(12_000);
    let mut a = Client::connect(server.addr(), &config).expect("connect A");
    for chunk in events[..512].chunks(256) {
        a.send_events(chunk).expect("A before snapshot");
    }
    let mut blob = a.snapshot().expect("snapshot").state;
    a.send_events(&events[512..768]).expect("A after snapshot");

    blob.truncate(blob.len() / 2);
    match Client::resume_with_state(server.addr(), &config, blob) {
        Err(ClientError::Server(ErrorCode::BadState, _)) => {}
        other => panic!("a torn blob must be refused with BAD_STATE, got {other:?}"),
    }

    a.send_events(&events[768..1024])
        .expect("A after the refusal");
    assert_eq!(
        a.digest(),
        offline_digest(&config, &events[..1024], 256),
        "a refused restore must leave the shard's live session byte-identical"
    );
    let mut b = Client::connect(server.addr(), &config).expect("connect B");
    for chunk in events[1024..].chunks(256) {
        b.send_events(chunk).expect("B streams");
    }
    assert_eq!(
        b.digest(),
        offline_digest(&config, &events[1024..], 256),
        "a refused restore must leave the shard serving newcomers byte-identically"
    );
    a.bye().expect("bye A");
    b.bye().expect("bye B");
    server.stop();
}

/// A snapshot from before counters were packed at their hardware width
/// (state blob version 1) is refused with a typed `BAD_STATE` by the
/// version check, and the shard keeps serving its live session; the
/// same blob at the current version restores.
#[test]
fn version_1_resume_blob_is_refused_and_shard_keeps_serving() {
    let server = RunningServer::bind("127.0.0.1:0", 1).expect("bind");
    let config = OnlineConfig::tiny(EstimatorKind::StaticMrt);
    let events = pool(12_000);
    let mut a = Client::connect(server.addr(), &config).expect("connect A");
    for chunk in events[..512].chunks(256) {
        a.send_events(chunk).expect("A before snapshot");
    }
    let blob = a.snapshot().expect("snapshot").state;
    assert_eq!(blob[0], 2, "the current state blob version");

    let mut old = blob.clone();
    old[0] = 1;
    match Client::resume_with_state(server.addr(), &config, old) {
        Err(ClientError::Server(ErrorCode::BadState, _)) => {}
        other => panic!("a version-1 blob must be refused with BAD_STATE, got {other:?}"),
    }

    for chunk in events[512..1024].chunks(256) {
        a.send_events(chunk).expect("A after the refusal");
    }
    assert_eq!(
        a.digest(),
        offline_digest(&config, &events[..1024], 256),
        "a refused restore must leave the shard's live session byte-identical"
    );
    let b = Client::resume_with_state(server.addr(), &config, blob).expect("restore");
    assert_eq!(b.resumed_events(), 512);
    b.bye().expect("bye B");
    a.bye().expect("bye A");
    server.stop();
}

/// A connection severed mid-migration loses only the connection: the
/// session finishes its move, parks on the target shard, and resumes
/// byte-identically.
#[test]
fn dropped_migration_conn_parks_session_with_parity() {
    let server = RunningServer::bind("127.0.0.1:0", 2).expect("bind");
    let config = OnlineConfig::tiny(EstimatorKind::StaticMrt);
    let events = pool(12_000);
    let mut client = Client::connect(server.addr(), &config).expect("connect");
    let session_id = client.session_id();
    client.send_events(&events[..512]).expect("first half");
    let carried = client.digest();

    server.faults().drop_next_migration_conn();
    let died = client.migrate(None);
    assert!(died.is_err(), "the severed connection must not ack");
    drop(client);

    // The migration itself completed (the live session reached the
    // target shard) before the target noticed the dead socket and
    // parked the session.
    let mut client = resume_retrying(server.addr(), &config, session_id);
    client.seed_digest(carried);
    assert_eq!(client.resumed_events(), 512);
    assert_eq!(
        server
            .metrics()
            .recorder()
            .recorded_of(FlightKind::SessionMigrate),
        1,
        "the move must land before the EOF parks the session"
    );
    client.send_events(&events[512..1024]).expect("second half");
    assert_eq!(
        client.digest(),
        offline_digest(&config, &events[..1024], 512),
        "a mid-migration disconnect must leave the session byte-identical"
    );
    client.bye().expect("bye");
    server.stop();
}

/// With the policy watermark at zero, the automatic rebalancer keeps
/// shedding the hot shard's session to the idle one — predictions stay
/// byte-identical while the session bounces between workers.
#[test]
fn policy_migration_rebalances_without_breaking_parity() {
    let server = RunningServer::bind_with(
        "127.0.0.1:0",
        ServeOptions {
            shards: 2,
            policy_watermark: 0,
        },
    )
    .expect("bind");
    let config = OnlineConfig::tiny(EstimatorKind::StaticMrt);
    let events = pool(16_000);
    let mut client = Client::connect(server.addr(), &config).expect("connect");
    for chunk in events.chunks(128) {
        client.send_events(chunk).expect("stream under rebalancing");
    }
    let policy_moves = server.metrics().migrations(false).value();
    assert!(
        policy_moves > 0,
        "a hot shard above the watermark must shed its session"
    );
    assert_eq!(
        server
            .metrics()
            .recorder()
            .recorded_of(FlightKind::SessionMigrate),
        policy_moves + server.metrics().migrations(true).value(),
        "every policy move lands a session-migrate flight event"
    );
    assert_eq!(
        client.digest(),
        offline_digest(&config, &events, 128),
        "policy migrations must never change prediction bytes"
    );
    client.bye().expect("bye");
    server.stop();
}

/// Replays every checked-in corpus seed through both decode paths and
/// the live reactor: the incremental decoder and the blocking reference
/// agree verdict-for-verdict, and on the wire every rejection answers
/// with an ERROR frame, closes the connection (no hang, no busy-loop),
/// and lands a `frame-error` flight event.
#[test]
fn frame_corpus_rejections_land_frame_error_flights() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus_frames");
    let mut seeds: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .collect();
    seeds.sort();
    assert!(seeds.len() >= 10, "seed corpus went missing: {seeds:?}");

    let server = RunningServer::bind("127.0.0.1:0", 2).expect("bind");
    for (i, path) in seeds.iter().enumerate() {
        let bytes = std::fs::read(path).expect("read seed");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();

        // Both decode paths, same verdict.
        let reference = {
            let mut input = bytes.as_slice();
            let mut frames = Vec::new();
            loop {
                match read_frame(&mut input) {
                    Ok(Some(frame)) => frames.push(frame),
                    Ok(None) => break Ok(frames),
                    Err(e) => break Err(e.to_string()),
                }
            }
        };
        let incremental = {
            let mut decoder = FrameDecoder::new();
            let mut frames: Vec<Frame> = Vec::new();
            let mut verdict = Ok(());
            for chunk in bytes.chunks(3) {
                decoder.feed(chunk);
                loop {
                    match decoder.try_frame() {
                        Ok(Some(frame)) => frames.push(frame.to_frame()),
                        Ok(None) => break,
                        Err(e) => {
                            verdict = Err(e.to_string());
                            break;
                        }
                    }
                }
                if verdict.is_err() {
                    break;
                }
            }
            match verdict {
                Ok(()) => match decoder.on_eof() {
                    Ok(()) => Ok(frames),
                    Err(e) => Err(e.to_string()),
                },
                Err(e) => Err(e),
            }
        };
        assert_eq!(incremental, reference, "decode verdicts diverge on {name}");

        // Every corpus seed is either framing-broken or session-illegal
        // (a valid non-HELLO first frame), so the reactor must refuse.
        let frame_errors_before = server
            .metrics()
            .recorder()
            .recorded_of(FlightKind::FrameError);
        let mut stream = TcpStream::connect(server.addr()).expect("connect raw");
        stream.write_all(&bytes).expect("write seed");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut reply = Vec::new();
        stream
            .read_to_end(&mut reply)
            .unwrap_or_else(|e| panic!("seed {name} hung the reactor: {e}"));
        let reply_frame = read_frame(&mut reply.as_slice())
            .unwrap_or_else(|e| panic!("seed {name}: unreadable reply: {e}"))
            .unwrap_or_else(|| panic!("seed {name}: refusal must carry an ERROR frame"));
        assert_eq!(
            reply_frame.kind,
            FrameKind::Error,
            "seed {name} must be refused"
        );
        // The park race: the refusal's flight event is recorded before
        // the ERROR frame is flushed, so reading the reply orders us
        // after it.
        let frame_errors_after = server
            .metrics()
            .recorder()
            .recorded_of(FlightKind::FrameError);
        assert_eq!(
            frame_errors_after,
            frame_errors_before + 1,
            "seed {name} (#{i}) must land exactly one frame-error flight event"
        );
    }
    server.stop();
}

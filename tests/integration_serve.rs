//! Whole-system tests of the streaming confidence service: byte-parity
//! with the offline pipeline, race-free concurrent sessions, and
//! bit-identical snapshot/resume — the acceptance criteria of the
//! `paco-serve` subsystem.

use std::path::PathBuf;

use paco::PacoConfig;
use paco_serve::{
    control_events, corpus_control_events, offline_digest, run_load, Client, ClientError,
    ErrorCode, LoadOptions, RunningServer,
};
use paco_sim::{EstimatorKind, OnlineConfig, OnlinePipeline};
use paco_trace::{TraceMeta, TraceWriter};
use paco_types::DynInstr;
use paco_workloads::{BenchmarkId, Workload};

/// Records a small trace to a temp file and returns its path.
fn record_trace(tag: &str, bench: BenchmarkId, instrs: u64, seed: u64) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("paco-serve-test-{}-{tag}.paco", std::process::id()));
    let mut workload = bench.build(seed);
    let mut writer = TraceWriter::create(&path, &TraceMeta::for_workload(&workload)).unwrap();
    for _ in 0..instrs {
        writer.push_instr(&workload.next_instr()).unwrap();
    }
    writer.finish().unwrap();
    path
}

fn tiny_paco() -> OnlineConfig {
    // A short refresh period so runs cross MRT refresh boundaries — the
    // hardest state to keep in lockstep.
    OnlineConfig::tiny(EstimatorKind::Paco(
        PacoConfig::paper().with_refresh_period(500),
    ))
}

/// Streams `events` through a fresh session in `batch`-sized frames,
/// returning the client (digest inside) and all outcomes.
fn stream_all(
    addr: std::net::SocketAddr,
    config: &OnlineConfig,
    events: &[DynInstr],
    batch: usize,
) -> (Client, Vec<paco_sim::OnlineOutcome>) {
    let mut client = Client::connect(addr, config).expect("connect");
    let mut outcomes = Vec::new();
    for chunk in events.chunks(batch) {
        outcomes.extend(client.send_events(chunk).expect("send batch"));
    }
    (client, outcomes)
}

fn wait_for_parked(server: &RunningServer, want: usize) {
    for _ in 0..500 {
        if server.parked_sessions() >= want {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    panic!("session was never parked");
}

/// Acceptance: streaming a recorded trace through `paco-served` yields
/// per-branch confidence scores byte-identical to replaying the same
/// trace offline through `paco-sim`'s `OnlinePipeline`.
#[test]
fn online_predictions_match_offline_simulator_byte_for_byte() {
    let trace = record_trace("parity", BenchmarkId::Gzip, 40_000, 7);
    let events = control_events(&trace).unwrap();
    let config = tiny_paco();
    let batch = 256;

    let server = RunningServer::bind("127.0.0.1:0", 4).unwrap();
    let (client, online) = stream_all(server.addr(), &config, &events, batch);
    let online_digest = client.digest();
    client.bye().unwrap();

    // Offline replay: the simulator-side pipeline over the same trace.
    let mut pipeline = OnlinePipeline::new(&config);
    let offline: Vec<_> = events.iter().filter_map(|i| pipeline.on_instr(i)).collect();

    assert_eq!(online.len(), offline.len());
    assert_eq!(
        online, offline,
        "streamed predictions must equal offline replay"
    );
    // And the wire bytes themselves: the digest covers every
    // PREDICTIONS payload as sent.
    assert_eq!(online_digest, offline_digest(&config, &events, batch));

    server.stop();
    let _ = std::fs::remove_file(trace);
}

/// Acceptance: 4 concurrent `paco-load` clients against one server
/// produce the same per-session results as 4 sequential runs — the
/// sharded session table is race-free.
#[test]
fn four_concurrent_clients_match_four_sequential_runs() {
    let trace = record_trace("concurrency", BenchmarkId::Twolf, 30_000, 3);
    let events = control_events(&trace).unwrap();
    let server = RunningServer::bind("127.0.0.1:0", 4).unwrap();

    let mut options = LoadOptions {
        config: tiny_paco(),
        threads: 4,
        batch: 200,
        ..LoadOptions::default()
    };
    let concurrent = run_load(server.addr(), &events, &options).expect("concurrent load");
    assert_eq!(concurrent.sessions.len(), 4);
    assert!(concurrent.parity_ok, "concurrent parity");

    options.threads = 1;
    let mut sequential_digests = Vec::new();
    for _ in 0..4 {
        let report = run_load(server.addr(), &events, &options).expect("sequential load");
        assert!(report.parity_ok, "sequential parity");
        sequential_digests.push(report.sessions[0].digest);
    }

    let expect = sequential_digests[0];
    assert!(
        sequential_digests.iter().all(|&d| d == expect),
        "sequential runs must agree with each other"
    );
    for s in &concurrent.sessions {
        assert_eq!(
            s.digest, expect,
            "session {} diverged under concurrency",
            s.session_id
        );
        assert_eq!(s.events, events.len() as u64);
    }

    server.stop();
    let _ = std::fs::remove_file(trace);
}

/// Paced mode: one session asked for 100,000 ev/s sends 40 batches of
/// 500 events on schedule — the last is due 19,500 events in, at
/// 0.195 s — keeps parity, and its latency summary counts every batch.
/// Only the lower bound is asserted, so a slow host cannot fail it.
#[test]
fn paced_run_keeps_its_schedule_and_parity() {
    let entry = paco_corpus::find_entry("biased_bimodal").unwrap();
    let events = corpus_control_events(&entry.family, entry.seed, 200_000).unwrap();
    assert!(events.len() >= 20_000, "pool too small: {}", events.len());
    let server = RunningServer::bind("127.0.0.1:0", 2).unwrap();

    let options = LoadOptions {
        config: tiny_paco(),
        threads: 1,
        batch: 500,
        events_per_thread: Some(20_000),
        target_rate: Some(100_000.0),
        ..LoadOptions::default()
    };
    let report = run_load(server.addr(), &events, &options).expect("paced load");
    assert!(report.parity_ok, "pacing must not break parity");
    assert_eq!(report.events, 20_000);
    assert!(
        report.elapsed.as_secs_f64() >= 0.19,
        "40 paced batches finished in {:?}",
        report.elapsed
    );
    let batches: u64 = report.sessions.iter().map(|s| s.batches).sum();
    assert_eq!(batches, 40);
    assert_eq!(report.latency_us.count as u64, batches);

    server.stop();
}

/// A client that snapshots mid-stream, disconnects, and restores from
/// its own blob resumes bit-identically (works across server restarts).
#[test]
fn snapshot_restore_resumes_bit_identically() {
    let trace = record_trace("snapshot", BenchmarkId::Gzip, 30_000, 11);
    let events = control_events(&trace).unwrap();
    let config = tiny_paco();
    let batch = 128;
    let split = (events.len() / 2 / batch) * batch; // a frame boundary

    let server = RunningServer::bind("127.0.0.1:0", 2).unwrap();

    // Uninterrupted reference run.
    let (client, reference) = stream_all(server.addr(), &config, &events, batch);
    client.bye().unwrap();

    // First half, then snapshot, then drop the connection.
    let (mut client, mut resumed) = stream_all(server.addr(), &config, &events[..split], batch);
    let snapshot = client.snapshot().expect("snapshot");
    assert_eq!(snapshot.events as usize, split);
    drop(client); // no BYE: simulated connection loss

    // Restore on a *new* server to prove the blob alone suffices.
    server.stop();
    let server2 = RunningServer::bind("127.0.0.1:0", 2).unwrap();
    let mut client = Client::resume_with_state(server2.addr(), &config, snapshot.state)
        .expect("resume from state");
    assert_eq!(client.resumed_events() as usize, split);
    for chunk in events[split..].chunks(batch) {
        resumed.extend(client.send_events(chunk).expect("resumed batch"));
    }
    client.bye().unwrap();

    assert_eq!(resumed, reference, "snapshot/restore must be bit-identical");
    server2.stop();
    let _ = std::fs::remove_file(trace);
}

/// A dropped connection parks its session; reconnecting by id resumes
/// exactly where the stream stopped.
#[test]
fn reconnect_by_id_resumes_parked_session() {
    let trace = record_trace("reconnect", BenchmarkId::Gzip, 24_000, 5);
    let events = control_events(&trace).unwrap();
    let config = tiny_paco();
    let batch = 128;
    let split = (events.len() / 3 / batch) * batch;

    let server = RunningServer::bind("127.0.0.1:0", 2).unwrap();

    let (client, reference) = stream_all(server.addr(), &config, &events, batch);
    client.bye().unwrap();

    let (client, mut resumed) = stream_all(server.addr(), &config, &events[..split], batch);
    let id = client.session_id();
    drop(client); // connection lost
    wait_for_parked(&server, 1);

    let mut client = Client::resume_by_id(server.addr(), &config, id).expect("resume by id");
    assert_eq!(client.session_id(), id);
    assert_eq!(client.resumed_events() as usize, split);
    for chunk in events[split..].chunks(batch) {
        resumed.extend(client.send_events(chunk).expect("resumed batch"));
    }
    assert_eq!(resumed, reference, "reconnect-by-id must be bit-identical");

    // A clean BYE discards the session: the id is gone afterwards.
    client.bye().unwrap();
    for _ in 0..500 {
        if server.parked_sessions() == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    match Client::resume_by_id(server.addr(), &config, id) {
        Err(ClientError::Server(ErrorCode::UnknownSession, _)) => {}
        other => panic!("resuming a discarded session must fail, got {other:?}"),
    }

    server.stop();
    let _ = std::fs::remove_file(trace);
}

/// The handshake refuses invalid configs, foreign canon hashes and
/// unknown sessions with typed errors instead of misbehaving.
#[test]
fn handshake_refusals_are_typed() {
    let server = RunningServer::bind("127.0.0.1:0", 2).unwrap();

    // Invalid config: non-power-of-two table.
    let mut bad = tiny_paco();
    bad.tournament.gshare_entries = 1000;
    match Client::connect(server.addr(), &bad) {
        Err(ClientError::Server(ErrorCode::ConfigInvalid, _)) => {}
        other => panic!("invalid config must be refused, got {other:?}"),
    }

    // Unknown session id.
    match Client::resume_by_id(server.addr(), &tiny_paco(), 0xdead_beef) {
        Err(ClientError::Server(ErrorCode::UnknownSession, _)) => {}
        other => panic!("unknown session must be refused, got {other:?}"),
    }

    // Corrupt restore blob.
    match Client::resume_with_state(server.addr(), &tiny_paco(), vec![9; 40]) {
        Err(ClientError::Server(ErrorCode::BadState, _)) => {}
        other => panic!("corrupt state must be refused, got {other:?}"),
    }

    server.stop();
}

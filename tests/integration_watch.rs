//! Whole-system tests of `paco-watch`: the drift detector fires when a
//! streamed session departs its declared workload family mid-stream,
//! stays quiet on an on-profile control run, and telemetry never
//! perturbs the byte-parity guarantee — the acceptance criteria of the
//! watch subsystem.

use paco_corpus::find_entry;
use paco_serve::{
    corpus_control_events, corpus_splice_events, run_load, Client, ClientError, ErrorCode,
    LoadOptions, RunningServer,
};
use paco_sim::OnlineConfig;

/// Instructions per stream segment. Each corpus family yields roughly
/// 12–14% control instructions, so a segment is ~10 windows of 2048
/// events — enough for warmup plus several scored windows on each side
/// of the splice.
const SEGMENT_INSTRS: u64 = 160_000;

fn watch_options() -> LoadOptions {
    LoadOptions {
        // Reference profiles are generated under the default (paper
        // PaCo) config, so watched sessions must run the same config
        // for divergence scores to mean anything.
        config: OnlineConfig::default(),
        threads: 1,
        batch: 512,
        watch: true,
        family: Some("biased_bimodal".into()),
        ..LoadOptions::default()
    }
}

/// Acceptance: a `biased_bimodal` session that switches to
/// `mispredict_storm` mid-stream is flagged by the server's drift
/// detector after the splice point — while the parity digest still
/// matches the offline replay (telemetry must not touch the bytes).
#[test]
fn splice_into_storm_raises_the_drift_flag() {
    let base = find_entry("biased_bimodal").unwrap();
    let storm = find_entry("mispredict_storm").unwrap();
    let (events, splice_at) = corpus_splice_events(
        &base.family,
        base.seed,
        SEGMENT_INSTRS,
        &storm.family,
        storm.seed,
        SEGMENT_INSTRS,
    )
    .unwrap();

    let server = RunningServer::bind("127.0.0.1:0", 2).unwrap();
    let report = run_load(server.addr(), &events, &watch_options()).expect("spliced load");

    assert!(report.parity_ok, "watch must not break parity");
    assert_eq!(report.flagged_sessions, 1, "the spliced session must flag");
    let watch = report.sessions[0].watch.as_ref().expect("watch telemetry");
    assert!(watch.drift_flagged);
    // The flag must latch *after* the splice: convert the splice event
    // index to a completed-window index and require the latch window to
    // be past it.
    let splice_window = splice_at as u64 / paco_serve::WATCH_WINDOW;
    assert!(
        watch.drift_window > splice_window,
        "flag at window {} but the splice is at window {splice_window}",
        watch.drift_window
    );
    server.stop();
}

/// The unspliced control run: a `biased_bimodal` session that stays on
/// profile end to end is never flagged.
#[test]
fn unspliced_control_run_stays_quiet() {
    let base = find_entry("biased_bimodal").unwrap();
    let events = corpus_control_events(&base.family, base.seed, 2 * SEGMENT_INSTRS).unwrap();

    let server = RunningServer::bind("127.0.0.1:0", 2).unwrap();
    let report = run_load(server.addr(), &events, &watch_options()).expect("control load");

    assert!(report.parity_ok);
    assert_eq!(report.flagged_sessions, 0, "control run must stay quiet");
    let watch = report.sessions[0].watch.as_ref().expect("watch telemetry");
    assert!(!watch.drift_flagged);
    assert_eq!(watch.drift_window, 0);
    assert!(
        watch.windows >= 6,
        "control run too short to be meaningful: {} windows",
        watch.windows
    );
    server.stop();
}

/// Declaring an unknown family is refused with a typed error, and a
/// session without a declared family reports telemetry but never
/// drift-flags.
#[test]
fn family_declaration_is_validated() {
    let server = RunningServer::bind("127.0.0.1:0", 2).unwrap();
    let config = OnlineConfig::default();

    match Client::connect_declaring(server.addr(), &config, "no_such_family") {
        Err(ClientError::Server(ErrorCode::UnknownFamily, msg)) => {
            assert!(
                msg.contains("biased_bimodal"),
                "refusal should list known families, got: {msg}"
            );
        }
        other => panic!("unknown family must be refused, got {other:?}"),
    }

    // An undeclared session still serves stats — with no family and no
    // flag, whatever it streams.
    let storm = find_entry("mispredict_storm").unwrap();
    let events = corpus_control_events(&storm.family, storm.seed, 40_000).unwrap();
    let mut client = Client::connect(server.addr(), &config).unwrap();
    for chunk in events.chunks(512) {
        client.send_events(chunk).unwrap();
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.session.family, None);
    assert!(!stats.session.drift_flagged);
    assert_eq!(stats.session.events, events.len() as u64);
    assert!(stats.fleet.sessions_seen >= 1);
    assert!(stats.fleet.events >= events.len() as u64);
    client.bye().unwrap();
    server.stop();
}

/// The fleet half of STATS counts every answered batch of every live
/// session: while session A, still connected, has streamed five EVENTS
/// frames, session B's STATS already pools A's counters with its own.
#[test]
fn fleet_stats_count_every_answered_batch_of_live_sessions() {
    let server = RunningServer::bind("127.0.0.1:0", 2).unwrap();
    let config = OnlineConfig::default();
    let base = find_entry("biased_bimodal").unwrap();
    let events = corpus_control_events(&base.family, base.seed, 40_000).unwrap();

    let mut a = Client::connect_declaring(server.addr(), &config, base.name).unwrap();
    for chunk in events.chunks(512).take(5) {
        a.send_events(chunk).unwrap();
    }
    let mut b = Client::connect(server.addr(), &config).unwrap();
    for chunk in events.chunks(256).take(3) {
        b.send_events(chunk).unwrap();
    }
    let seen_by_b = b.stats().unwrap();
    let (fleet, sb) = (seen_by_b.fleet, seen_by_b.session);
    let sa = a.stats().unwrap().session;

    assert_eq!(sa.events, 5 * 512);
    assert_eq!(fleet.events, sa.events + sb.events);
    assert_eq!(fleet.mispredicts, sa.mispredicts + sb.mispredicts);
    let pooled: Vec<(u64, u64)> = sa
        .bins
        .iter()
        .zip(&sb.bins)
        .map(|(x, y)| (x.0 + y.0, x.1 + y.1))
        .collect();
    assert_eq!(fleet.bins, pooled);
    a.bye().unwrap();
    b.bye().unwrap();
    server.stop();
}

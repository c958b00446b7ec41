//! The EVENTS frame path, end to end through the live reactor: every
//! estimator kind the server hosts, at paper config, watched and
//! unwatched, must stream predictions byte-identical to the per-event
//! oracle — and the metric plane must record once per frame, never per
//! event.
//!
//! The sessions go through [`Client`], so each frame crosses the real
//! path: `encode_events_into`, the socket, `FrameDecoder` with its CRC
//! check, the worker's EVENTS arm (decode, `run_batch`, in-place
//! PREDICTIONS encode, watch, meter) and the flush back.

use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_serve::client::offline_digest;
use paco_serve::{Client, FrameKind, RunningServer};
use paco_sim::{EstimatorKind, OnlineConfig};
use paco_types::DynInstr;
use paco_workloads::{BenchmarkId, Workload};

/// Events per EVENTS frame: the serve default.
const BATCH: usize = 512;

/// The family watched sessions declare; its reference profile is what
/// the drift detector scores the stream against.
const FAMILY: &str = "biased_bimodal";

/// Every estimator kind the server accepts.
fn kinds() -> [EstimatorKind; 6] {
    [
        EstimatorKind::None,
        EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
        EstimatorKind::Paco(PacoConfig::paper()),
        EstimatorKind::StaticMrt,
        EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
        EstimatorKind::AdaptiveMrt(AdaptiveMrtConfig::paper()),
    ]
}

/// The control events of a gzip run, as a recorded trace would replay
/// them.
fn gzip_events(instrs: u64, seed: u64) -> Vec<DynInstr> {
    let mut workload = BenchmarkId::Gzip.build(seed);
    (0..instrs)
        .map(|_| workload.next_instr())
        .filter(|i| i.class.is_control())
        .collect()
}

#[test]
fn every_kind_streams_oracle_bytes_watched_and_unwatched_metered_per_frame() {
    let events = gzip_events(20_000, 42);
    assert!(
        events.len() > BATCH,
        "the stream must span several frames, got {} events",
        events.len()
    );
    let server = RunningServer::bind("127.0.0.1:0", 2).expect("bind");
    let mut frames = 0u64;
    let mut streamed = 0u64;
    for kind in kinds() {
        let config = OnlineConfig::paper(kind);
        let want = offline_digest(&config, &events, BATCH);
        for family in [None, Some(FAMILY)] {
            let mut client = match family {
                None => Client::connect(server.addr(), &config),
                Some(family) => Client::connect_declaring(server.addr(), &config, family),
            }
            .expect("connect");
            for chunk in events.chunks(BATCH) {
                client.send_events(chunk).expect("EVENTS round trip");
                frames += 1;
                streamed += chunk.len() as u64;
            }
            assert_eq!(
                client.digest(),
                want,
                "{kind:?} (declared family {family:?}) diverged from the per-event oracle"
            );
            // The watch really ran over this stream, against the
            // declared family's profile when there is one.
            let stats = client.stats().expect("stats");
            assert_eq!(stats.session.events, events.len() as u64, "{kind:?}");
            assert_eq!(stats.session.family.as_deref(), family, "{kind:?}");
            client.bye().expect("bye");
        }
    }

    // Metering is per frame: one EVENTS count, one handle-time sample
    // and one batch-size sample for each frame, with the batch sizes
    // summing to the events streamed. A per-event record would inflate
    // the first two by the frame size.
    let metrics = server.metrics();
    assert_eq!(metrics.frame(FrameKind::Events).value(), frames);
    assert_eq!(metrics.batch_handle_ns.count(), frames);
    assert_eq!(metrics.batch_events.count(), frames);
    assert_eq!(metrics.batch_events.snapshot().sum(), streamed);
    server.stop();
}

/// A PREDICTIONS payload that passes its checksum but fails to decode:
/// `send_events` refuses it, and the client's digest has still absorbed
/// the whole payload, exactly as a digest-then-decode receive did.
#[test]
fn a_reply_that_fails_to_decode_is_still_digested_whole() {
    use paco_serve::proto::{encode_welcome, frame_bytes, read_frame, ProtoError, Welcome};
    use paco_serve::{ClientError, Digest};
    use std::io::Write;
    use std::net::TcpListener;

    // Two outcomes: a valid one, then one with a reserved flag bit.
    let payload = vec![2, 0x01, 0x05, 0x80, 0x03];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let reply = payload.clone();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let hello = read_frame(&mut stream).expect("read HELLO").expect("HELLO");
        assert_eq!(hello.kind, FrameKind::Hello);
        let welcome = Welcome {
            session_id: 1,
            fingerprint: 0,
            events: 0,
        };
        stream
            .write_all(&frame_bytes(FrameKind::Welcome, &encode_welcome(&welcome)))
            .expect("write WELCOME");
        let events = read_frame(&mut stream)
            .expect("read EVENTS")
            .expect("EVENTS");
        assert_eq!(events.kind, FrameKind::Events);
        stream
            .write_all(&frame_bytes(FrameKind::Predictions, &reply))
            .expect("write PREDICTIONS");
    });

    let config = OnlineConfig::tiny(EstimatorKind::None);
    let mut client = Client::connect(addr, &config).expect("connect");
    match client.send_events(&gzip_events(2_000, 1)[..2]) {
        Err(ClientError::Proto(ProtoError::Malformed(msg))) => {
            assert!(msg.contains("flag bits"), "{msg}")
        }
        other => panic!("a reserved flag bit must be refused, got {other:?}"),
    }
    let mut whole = Digest::new();
    whole.update(&payload);
    assert_eq!(client.digest(), whole.value());
    server.join().expect("scripted server");
}

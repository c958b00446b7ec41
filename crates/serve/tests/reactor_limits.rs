//! Reactor resource bounds on a live server: a legal frame larger than
//! 2 MiB is read to completion and answered, a frame whose reply could
//! not fit a frame is refused with a typed error, and a client that
//! sends but never reads is throttled by write backpressure instead of
//! growing the server's output buffer without limit.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use paco::PacoConfig;
use paco_serve::client::offline_digest;
use paco_serve::proto::{
    config_hash, decode_error, encode_events, encode_hello, frame_bytes, read_frame, FrameKind,
    Hello, Resume, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
use paco_serve::{
    corpus_control_events, Client, ClientError, ErrorCode, ProtoError, RunningServer,
    MAX_EVENTS_PER_FRAME,
};
use paco_sim::{EstimatorKind, OnlineConfig};
use paco_types::{DynInstr, Pc};

fn pool(instrs: u64) -> Vec<DynInstr> {
    let entry = paco_corpus::find_entry("biased_bimodal").expect("corpus family");
    corpus_control_events(&entry.family, entry.seed, instrs).expect("synthesize pool")
}

/// One EVENTS frame with a ~3 MiB payload — above 2 MiB, below the
/// protocol's cap — gets its PREDICTIONS reply, identical to offline
/// replay.
#[test]
fn frame_above_two_mib_is_answered_with_parity() {
    // A frame at the event cap passes 2 MiB only if its records are
    // long: every other event's PC moves by 2^60, so each PC delta is a
    // nine-byte varint.
    let config = OnlineConfig::tiny(EstimatorKind::None);
    let base = pool(200_000);
    let events: Vec<DynInstr> = base
        .iter()
        .cycle()
        .take(MAX_EVENTS_PER_FRAME)
        .enumerate()
        .map(|(i, e)| DynInstr {
            pc: Pc::new(e.pc.addr() ^ (i as u64 & 1) << 60),
            ..*e
        })
        .collect();
    let payload = encode_events(&events).len();
    assert!(
        payload > 2 << 20 && payload <= MAX_FRAME_PAYLOAD,
        "payload of {payload} bytes misses the size this test needs"
    );

    let server = RunningServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.addr();
    let sent = events.clone();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let digest = Client::connect(addr, &config).and_then(|mut client| {
            client.send_events(&sent)?;
            Ok(client.digest())
        });
        let _ = tx.send(digest.map_err(|e| e.to_string()));
    });
    let digest = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a legal frame above 2 MiB got no reply")
        .expect("large frame round trip");
    assert_eq!(
        digest,
        offline_digest(&config, &events, events.len()),
        "a large frame must be answered byte-identically to offline replay"
    );
    server.stop();
}

/// Opens a raw session under `config`: HELLO sent, WELCOME read.
fn raw_session(server: &RunningServer, config: OnlineConfig) -> TcpStream {
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let hello = Hello {
        protocol_version: PROTOCOL_VERSION,
        fingerprint: 0,
        config,
        config_hash: config_hash(&config),
        resume: Resume::Fresh,
        family: None,
    };
    stream
        .write_all(&frame_bytes(FrameKind::Hello, &encode_hello(&hello)))
        .expect("write HELLO");
    let welcome = read_frame(&mut stream)
        .expect("read WELCOME")
        .expect("WELCOME before close");
    assert_eq!(welcome.kind, FrameKind::Welcome);
    stream
}

/// A legal-size EVENTS frame whose reply would pass the payload cap:
/// 2,000,000 conditional events at one PC encode to about 4 MB, but
/// paper StaticMRT answers each with a three-byte outcome. The server
/// refuses it with a typed `MALFORMED` error rather than sending a
/// frame its own decoder would refuse.
#[test]
fn frame_whose_reply_would_pass_the_cap_gets_a_typed_refusal() {
    let config = OnlineConfig::paper(EstimatorKind::StaticMrt);
    let events = vec![DynInstr::branch(Pc::new(0x4000), true, Pc::new(0x4000)); 2_000_000];
    let frame = frame_bytes(FrameKind::Events, &encode_events(&events));
    assert!(
        frame.len() - 9 <= MAX_FRAME_PAYLOAD,
        "the request itself is legal"
    );

    let server = RunningServer::bind("127.0.0.1:0", 1).expect("bind");
    let mut stream = raw_session(&server, config);
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    stream.write_all(&frame).expect("write EVENTS");
    let reply = read_frame(&mut stream)
        .expect("every server frame fits the payload cap")
        .expect("a reply before close");
    assert_eq!(reply.kind, FrameKind::Error, "got {:?}", reply.kind);
    let (code, message) = decode_error(&reply.payload).expect("ERROR payload");
    assert_eq!(code, ErrorCode::Malformed, "{message}");
    assert!(message.contains("per frame"), "{message}");
    server.stop();
}

/// `Client::send_events` refuses a batch over the event cap before
/// sending anything, so the session stays usable.
#[test]
fn client_refuses_a_batch_over_the_event_cap() {
    let config = OnlineConfig::tiny(EstimatorKind::None);
    let events = pool(40_000);
    let server = RunningServer::bind("127.0.0.1:0", 1).expect("bind");
    let mut client = Client::connect(server.addr(), &config).expect("connect");
    let oversize: Vec<DynInstr> = events
        .iter()
        .cycle()
        .take(MAX_EVENTS_PER_FRAME + 1)
        .cloned()
        .collect();
    match client.send_events(&oversize) {
        Err(ClientError::Proto(ProtoError::Malformed(m))) => {
            assert!(m.contains("per frame"), "{m}")
        }
        other => panic!("an oversize batch must be refused locally, got {other:?}"),
    }
    client
        .send_events(&events[..512])
        .expect("the session still serves");
    assert_eq!(
        client.digest(),
        offline_digest(&config, &events[..512], 512)
    );
    server.stop();
}

/// A client that streams EVENTS and never reads its replies stalls
/// after a bounded number of bytes: once its unflushed output passes
/// the write high-water the server stops reading from it. A
/// well-behaved session on the same shard keeps being served.
#[test]
fn client_that_never_reads_is_throttled() {
    // What the client can get written before it stalls: the decoder's
    // read high-water and the input behind the write high-water (each
    // about one maximal 4 MiB frame), plus the kernel's socket buffers
    // on both ends, which Linux autotunes to several MiB on loopback.
    // The stall came at ~13 MiB on a 2-vCPU Linux VM whose receive
    // buffers may grow to 32 MiB.
    const BOUND: usize = 48 << 20;
    let config = OnlineConfig::tiny(EstimatorKind::Paco(PacoConfig::paper()));
    let events = pool(40_000);
    let server = RunningServer::bind("127.0.0.1:0", 1).expect("bind");

    let mut stream = raw_session(&server, config);

    let frame = frame_bytes(FrameKind::Events, &encode_events(&events[..4096]));
    stream
        .set_write_timeout(Some(Duration::from_millis(250)))
        .expect("write timeout");
    let dispatched = || server.metrics().frame(FrameKind::Events).value();
    let mut written = 0usize;
    let mut pos = 0usize;
    let mut blocked_at = None;
    let stalled = loop {
        if written >= BOUND {
            break false;
        }
        match stream.write(&frame[pos..]) {
            Ok(n) => {
                written += n;
                pos = (pos + n) % frame.len();
                blocked_at = None;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // Two write timeouts in a row with no frame dispatched
                // in between: the server has stopped reading, not just
                // fallen behind.
                let now = dispatched();
                if blocked_at == Some(now) {
                    break true;
                }
                blocked_at = Some(now);
            }
            Err(e) => panic!("write failed after {written} bytes: {e}"),
        }
    };
    assert!(
        stalled,
        "the server kept reading {written} bytes from a client that never reads"
    );

    let mut polite = Client::connect(server.addr(), &config).expect("connect beside the flood");
    polite
        .send_events(&events[..512])
        .expect("served beside the flood");
    assert_eq!(
        polite.digest(),
        offline_digest(&config, &events[..512], 512)
    );
    polite.bye().expect("bye");
    drop(stream);
    server.stop();
}

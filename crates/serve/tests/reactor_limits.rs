//! Reactor resource bounds on a live server: a legal frame larger than
//! 2 MiB is read to completion and answered, and a client that sends
//! but never reads is throttled by write backpressure instead of
//! growing the server's output buffer without limit.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use paco::PacoConfig;
use paco_serve::client::offline_digest;
use paco_serve::proto::{
    config_hash, encode_events, encode_hello, frame_bytes, read_frame, FrameKind, Hello, Resume,
    MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
use paco_serve::{corpus_control_events, Client, RunningServer};
use paco_sim::{EstimatorKind, OnlineConfig};
use paco_types::DynInstr;

fn pool(instrs: u64) -> Vec<DynInstr> {
    let entry = paco_corpus::find_entry("biased_bimodal").expect("corpus family");
    corpus_control_events(&entry.family, entry.seed, instrs).expect("synthesize pool")
}

/// One EVENTS frame with a ~3 MiB payload — above 2 MiB, below the
/// protocol's cap — gets its PREDICTIONS reply, identical to offline
/// replay.
#[test]
fn frame_above_two_mib_is_answered_with_parity() {
    // Without probabilities a prediction takes about two bytes, so the
    // reply fits under the payload cap as well.
    let config = OnlineConfig::tiny(EstimatorKind::None);
    let base = pool(200_000);
    let bytes_per_event = encode_events(&base).len() as f64 / base.len() as f64;
    let count = ((3 << 20) as f64 / bytes_per_event) as usize;
    let events: Vec<DynInstr> = base.iter().cycle().take(count).cloned().collect();
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

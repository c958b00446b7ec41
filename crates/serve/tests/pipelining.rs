//! A client that pipelines frames gets one frame per worker sweep, like
//! every other connection on its worker: it neither holds the worker
//! while its whole backlog is dispatched nor loses a byte of parity.
//!
//! The clients speak the wire protocol over raw sockets, writing many
//! EVENTS frames before reading any reply.

#![cfg(target_os = "linux")]

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use paco_serve::client::offline_digest;
use paco_serve::proto::{
    config_hash, encode_events, encode_hello, frame_bytes, read_frame, FrameKind, Hello, Resume,
    PROTOCOL_VERSION,
};
use paco_serve::{corpus_control_events, Client, Digest, RunningServer};
use paco_sim::{EstimatorKind, OnlineConfig};
use paco_types::DynInstr;

/// Events per pipelined frame.
const FRAME: usize = 16_384;
/// Frames each pipelining client writes before reading a reply.
const BACKLOG: usize = 48;

fn config() -> OnlineConfig {
    OnlineConfig::tiny(EstimatorKind::StaticMrt)
}

/// Opens a raw session, writes `frames` back to back, and returns the
/// socket plus a reader thread that digests every reply it gets.
fn pipelining_client(
    addr: SocketAddr,
    frames: Arc<Vec<u8>>,
) -> (TcpStream, thread::JoinHandle<(usize, u64)>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let config = config();
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
    let welcome = read_frame(&mut stream).expect("read WELCOME");
    assert_eq!(welcome.map(|f| f.kind), Some(FrameKind::Welcome));
    stream.write_all(&frames).expect("write the backlog");
    let mut reader = stream.try_clone().expect("clone");
    let read = thread::spawn(move || {
        let mut digest = Digest::new();
        let mut replies = 0;
        while replies < BACKLOG {
            let frame = read_frame(&mut reader).expect("read PREDICTIONS");
            let frame = frame.expect("server closed mid-backlog");
            assert_eq!(frame.kind, FrameKind::Predictions);
            digest.update(&frame.payload);
            replies += 1;
        }
        (replies, digest.value())
    });
    (stream, read)
}

/// Two clients each queue 48 frames at a one-worker server; a third
/// client's handshake, started once the worker is dispatching, must
/// wait for a few of those frames (a couple of sweeps' worth, one frame
/// per client per sweep), not for a whole client's backlog, which a
/// worker that drains one connection's buffered frames in one turn
/// dispatches first. The backlog is still answered in order with
/// offline parity.
#[test]
fn pipelined_backlog_does_not_hold_the_worker() {
    let server = RunningServer::bind("127.0.0.1:0", 1).expect("bind");
    let entry = paco_corpus::find_entry("biased_bimodal").expect("corpus family");
    let events: Vec<DynInstr> =
        corpus_control_events(&entry.family, entry.seed, 6_000_000).expect("synthesize pool");
    let events = &events[..FRAME * BACKLOG];
    let frames: Vec<u8> = events
        .chunks(FRAME)
        .flat_map(|chunk| frame_bytes(FrameKind::Events, &encode_events(chunk)))
        .collect();
    let frames = Arc::new(frames);

    let handled = || server.metrics().frame(FrameKind::Events).value();
    let clients: Vec<_> = (0..2)
        .map(|_| pipelining_client(server.addr(), Arc::clone(&frames)))
        .collect();
    let warm = Instant::now();
    while handled() < 2 {
        assert!(
            warm.elapsed() < Duration::from_secs(20),
            "the backlog never started"
        );
        thread::sleep(Duration::from_micros(200));
    }

    let before = handled();
    let third = Client::connect(server.addr(), &config()).expect("connect beside the backlog");
    let during = handled() - before;
    assert!(
        during <= BACKLOG as u64 / 2,
        "a handshake waited for {during} pipelined frames (backlog {})",
        2 * BACKLOG
    );

    let want = offline_digest(&config(), events, FRAME);
    for (stream, reader) in clients {
        let (replies, digest) = reader.join().expect("reader");
        assert_eq!(replies, BACKLOG);
        assert_eq!(
            digest, want,
            "pipelined replies diverged from offline replay"
        );
        let _ = stream.shutdown(Shutdown::Both);
    }
    third.bye().expect("bye");
    server.stop();
}

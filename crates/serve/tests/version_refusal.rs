//! Protocol-version refusal on a live server: a HELLO from the previous
//! protocol version (whose EVENTS carried whole trace records) is
//! answered with `ERROR PROTOCOL_MISMATCH`, and a current client on the
//! same shard then streams with offline parity.

use std::io::Write;
use std::net::TcpStream;

use paco::PacoConfig;
use paco_serve::client::offline_digest;
use paco_serve::proto::{
    config_hash, decode_error, encode_hello, frame_bytes, read_frame, FrameKind, Hello, Resume,
    PROTOCOL_VERSION,
};
use paco_serve::{corpus_control_events, Client, ErrorCode, RunningServer};
use paco_sim::{EstimatorKind, OnlineConfig};

#[test]
fn previous_version_hello_is_refused_and_the_shard_keeps_serving() {
    let config = OnlineConfig::tiny(EstimatorKind::Paco(PacoConfig::paper()));
    let server = RunningServer::bind("127.0.0.1:0", 1).expect("bind");

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let hello = Hello {
        protocol_version: PROTOCOL_VERSION - 1,
        fingerprint: 0,
        config,
        config_hash: config_hash(&config),
        resume: Resume::Fresh,
        family: None,
    };
    stream
        .write_all(&frame_bytes(FrameKind::Hello, &encode_hello(&hello)))
        .expect("write HELLO");
    let reply = read_frame(&mut stream)
        .expect("read the refusal")
        .expect("a refusal before close");
    assert_eq!(reply.kind, FrameKind::Error);
    let (code, message) = decode_error(&reply.payload).expect("decode ERROR");
    assert_eq!(
        code,
        ErrorCode::ProtocolMismatch,
        "refusal message: {message}"
    );
    assert!(
        read_frame(&mut stream)
            .expect("read after refusal")
            .is_none(),
        "the server closes a refused connection"
    );

    let entry = paco_corpus::find_entry("biased_bimodal").expect("corpus family");
    let events = corpus_control_events(&entry.family, entry.seed, 20_000).expect("events");
    let mut client = Client::connect(server.addr(), &config).expect("current-version HELLO");
    for frame in events.chunks(256) {
        client.send_events(frame).expect("stream EVENTS");
    }
    assert_eq!(client.digest(), offline_digest(&config, &events, 256));
    client.bye().expect("BYE");
    server.stop();
}

//! How workers accept connections: every worker polls the listener,
//! the accepting worker keeps a connection unless a peer owns fewer,
//! a busy worker still accepts, the port closes when the last worker
//! exits, and an exhausted fd table costs no CPU.
//!
//! The tests run one at a time (`SERIAL`): two of them time the server
//! or count its CPU, which a neighbouring test's load would skew.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use paco_serve::client::offline_digest;
use paco_serve::proto::{
    config_hash, encode_events, encode_hello, frame_bytes, read_frame, FrameKind, Hello, Resume,
    PROTOCOL_VERSION,
};
use paco_serve::{corpus_control_events, Client, ClientError, ErrorCode, RunningServer};
use paco_sim::{EstimatorKind, OnlineConfig};
use paco_types::DynInstr;

mod common;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn config() -> OnlineConfig {
    OnlineConfig::tiny(EstimatorKind::StaticMrt)
}

fn pool(instrs: u64) -> Vec<DynInstr> {
    let entry = paco_corpus::find_entry("biased_bimodal").expect("corpus family");
    corpus_control_events(&entry.family, entry.seed, instrs).expect("synthesize pool")
}

/// Resumes a parked session, retrying until the server has parked it.
fn resume(addr: SocketAddr, session_id: u64) -> Client {
    for _ in 0..500 {
        match Client::resume_by_id(addr, &config(), session_id) {
            Ok(client) => return client,
            Err(ClientError::Server(ErrorCode::UnknownSession, _)) => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("resume failed: {e}"),
        }
    }
    panic!("session {session_id} never parked");
}

#[test]
fn back_to_back_sessions_and_their_resumes_run_on_different_workers() {
    let _serial = serial();
    let server = RunningServer::bind("127.0.0.1:0", 2).expect("bind");
    let a = Client::connect(server.addr(), &config()).expect("connect a");
    let b = Client::connect(server.addr(), &config()).expect("connect b");
    assert_eq!(common::shard_loads(&server, 2), [1, 1]);

    let ids = [a.session_id(), b.session_id()];
    drop((a, b)); // no BYE: both park
    common::shard_loads(&server, 0);
    let a = resume(server.addr(), ids[0]);
    let b = resume(server.addr(), ids[1]);
    assert_eq!(common::shard_loads(&server, 2), [1, 1]);
    a.bye().expect("bye a");
    b.bye().expect("bye b");
    server.stop();
}

#[test]
fn eight_connections_spread_evenly_over_four_workers() {
    let _serial = serial();
    let server = RunningServer::bind("127.0.0.1:0", 4).expect("bind");
    let clients: Vec<Client> = (1..=8)
        .map(|n| {
            let client = Client::connect(server.addr(), &config()).expect("connect");
            // Each accept reads its peers' gauges: let them catch up.
            common::shard_loads(&server, n);
            client
        })
        .collect();
    assert_eq!(common::shard_loads(&server, 8), [2, 2, 2, 2]);
    for client in clients {
        client.bye().expect("bye");
    }
    server.stop();
}

#[test]
fn stopped_server_refuses_connections_while_a_fleet_handle_lives() {
    let _serial = serial();
    let server = RunningServer::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.addr();
    let fleet = server.fleet_handle();
    server.stop();
    assert!(
        TcpStream::connect(addr).is_err(),
        "the port must close with the last worker"
    );
    assert_eq!(fleet().sessions_active, 0);
}

/// A client that streams at a worker: a writer thread keeps `WINDOW`
/// pre-encoded EVENTS frames ahead of the replies and a reader thread
/// drains the PREDICTIONS. Shutting the returned stream down ends both.
fn busy_client(addr: SocketAddr, frame: Arc<Vec<u8>>) -> (TcpStream, [thread::JoinHandle<()>; 2]) {
    const WINDOW: usize = 2;
    let mut stream = TcpStream::connect(addr).expect("connect busy client");
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

    let (credit_tx, credit_rx) = mpsc::channel();
    let mut reader = stream.try_clone().expect("clone");
    let read = thread::spawn(move || {
        while let Ok(Some(_)) = read_frame(&mut reader) {
            if credit_tx.send(()).is_err() {
                break;
            }
        }
    });
    let mut writer = stream.try_clone().expect("clone");
    let write = thread::spawn(move || {
        for _ in 0..WINDOW {
            if writer.write_all(&frame).is_err() {
                return;
            }
        }
        while credit_rx.recv().is_ok() && writer.write_all(&frame).is_ok() {}
    });
    (stream, [read, write])
}

/// Two streaming clients per worker keep both workers of a 2-shard
/// server from ever idling: while a worker handles one client's frames,
/// the other client refills its socket. (With one client per worker,
/// the worker finds the socket empty right after each flush, and an
/// accept made only in idle waits would slip through.) A new client's
/// handshake must still complete within 50 ms.
#[test]
fn handshake_completes_while_every_worker_is_busy() {
    let _serial = serial();
    let server = RunningServer::bind("127.0.0.1:0", 2).expect("bind");
    let frame = Arc::new(frame_bytes(
        FrameKind::Events,
        &encode_events(&pool(200_000)[..8_192]),
    ));
    let busy: Vec<_> = (1..=4)
        .map(|n| {
            let client = busy_client(server.addr(), Arc::clone(&frame));
            common::shard_loads(&server, n);
            client
        })
        .collect();
    assert_eq!(common::shard_loads(&server, 4), [2, 2]);
    let events = || server.metrics().frame(FrameKind::Events).value();
    let warm = Instant::now();
    while events() < 16 {
        assert!(
            warm.elapsed() < Duration::from_secs(10),
            "busy clients never got going"
        );
        thread::sleep(Duration::from_millis(1));
    }

    let started = Instant::now();
    let third = Client::connect(server.addr(), &config()).expect("connect beside busy workers");
    let took = started.elapsed();
    let before = events();
    thread::sleep(Duration::from_millis(20));
    assert!(events() > before, "the busy clients stopped streaming");
    assert!(
        took < Duration::from_millis(50),
        "a handshake beside two busy workers took {took:?}"
    );

    third.bye().expect("bye");
    for (stream, threads) in busy {
        let _ = stream.shutdown(Shutdown::Both);
        for t in threads {
            t.join().expect("busy client thread");
        }
    }
    server.stop();
}

/// Kills the server process when the test ends, passed or not.
struct Served(Child);

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// User plus system CPU time of process `pid`, in clock ticks (fields
/// 14 and 15 of `/proc/<pid>/stat`; `USER_HZ` is 100 on Linux).
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .expect("stat has a comm field")
        .1
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

/// The address in the line that starts with `prefix`, up to `end`.
fn addr_after(line: &str, prefix: &str, end: char) -> SocketAddr {
    let rest = line
        .strip_prefix(prefix)
        .unwrap_or_else(|| panic!("unexpected server line {line:?}"));
    rest[..rest.find(end).expect("address end")]
        .parse()
        .expect("socket address")
}

#[test]
fn exhausted_fd_table_costs_no_cpu_and_service_recovers() {
    let _serial = serial();
    let child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n 24; exec '{}' serve --addr 127.0.0.1:0 --shards 2 --metrics-addr 127.0.0.1:0",
            env!("CARGO_BIN_EXE_paco-served")
        ))
        .stdout(Stdio::piped())
        .spawn()
        .expect("start paco-served");
    let mut served = Served(child);
    let pid = served.0.id();
    let mut lines = BufReader::new(served.0.stdout.take().expect("stdout")).lines();
    let mut line = || lines.next().expect("server line").expect("read line");
    let addr = addr_after(&line(), "paco-served: listening on ", ' ');
    let metrics_addr = addr_after(&line(), "paco-served: metrics on http://", '/');

    // More connections than the fd table holds: the rest stay queued
    // and the listener stays readable.
    let held: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    thread::sleep(Duration::from_millis(200));
    let before = cpu_ticks(pid);
    thread::sleep(Duration::from_secs(1));
    let spent = cpu_ticks(pid) - before;
    assert!(
        spent < 10,
        "the server burned {spent} ticks of CPU in 1 s with its fd table full"
    );

    drop(held);
    let events = pool(20_000);
    let (tx, rx) = mpsc::channel();
    let sent = events.clone();
    thread::spawn(move || {
        let digest = Client::connect(addr, &config()).and_then(|mut client| {
            for chunk in sent.chunks(256) {
                client.send_events(chunk)?;
            }
            let digest = client.digest();
            client.bye()?;
            Ok(digest)
        });
        let _ = tx.send(digest.map_err(|e| e.to_string()));
    });
    let digest = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("no session served after the fds came back")
        .expect("session after the fds came back");
    assert_eq!(digest, offline_digest(&config(), &events, 256));

    let mut scrape = TcpStream::connect(metrics_addr).expect("connect metrics");
    scrape
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send scrape");
    let mut text = String::new();
    scrape.read_to_string(&mut text).expect("read scrape");
    let errors: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("paco_accept_errors_total "))
        .expect("paco_accept_errors_total in the scrape")
        .parse()
        .expect("counter value");
    assert!(errors > 0.0, "the failed accepts were not counted");
}

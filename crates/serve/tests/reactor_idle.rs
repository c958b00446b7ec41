//! The reactor's idle cost: shard workers whose sessions are open but
//! silent must block without waking, and an idle server must stop
//! promptly.
//!
//! This file holds one test on purpose: it counts the context switches
//! of every `paco-shard-*` thread in the process, so no other server
//! may run beside it.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use paco_serve::client::offline_digest;
use paco_serve::{corpus_control_events, Client, RunningServer};
use paco_sim::{EstimatorKind, OnlineConfig};

/// `(threads, voluntary context switches)` summed over this process's
/// `paco-shard-*` threads.
fn shard_switches() -> (usize, u64) {
    let mut threads = 0;
    let mut switches = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.starts_with("paco-shard-") {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else {
            continue;
        };
        threads += 1;
        switches += status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .expect("voluntary_ctxt_switches line");
    }
    (threads, switches)
}

#[test]
fn idle_shards_sleep_until_ready_and_stop_promptly() {
    let server = RunningServer::bind("127.0.0.1:0", 2).expect("bind");
    let config = OnlineConfig::tiny(EstimatorKind::StaticMrt);
    let entry = paco_corpus::find_entry("biased_bimodal").expect("corpus family");
    let events = corpus_control_events(&entry.family, entry.seed, 4_000).expect("events");
    let mut a = Client::connect(server.addr(), &config).expect("connect a");
    let b = Client::connect(server.addr(), &config).expect("connect b");
    // Let the accept-balance pass settle: one connection per shard.
    std::thread::sleep(Duration::from_millis(50));

    let (threads, before) = shard_switches();
    assert_eq!(threads, 2, "expected this server's two shard threads");
    std::thread::sleep(Duration::from_millis(500));
    let (_, after) = shard_switches();
    assert!(
        after - before < 50,
        "idle shards woke {} times in 500 ms",
        after - before
    );

    // A sleeping shard still answers at once.
    a.send_events(&events).expect("frame after idling");
    assert_eq!(a.digest(), offline_digest(&config, &events, events.len()));
    a.bye().expect("bye a");
    b.bye().expect("bye b");

    let stopping = Instant::now();
    server.stop();
    assert!(
        stopping.elapsed() < Duration::from_millis(100),
        "stopping an idle server took {:?}",
        stopping.elapsed()
    );
}

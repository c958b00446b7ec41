//! Helpers shared by the integration suites that need to know which
//! worker shard runs a connection.

// Each suite uses only some of these.
#![allow(dead_code)]

use std::time::{Duration, Instant};

use paco_serve::RunningServer;

/// Connections per worker shard, read from the `paco_shard_connections`
/// gauges once they add up to `total`. A worker sets its gauge at the
/// end of each sweep, so a reading right after a connect or a close can
/// lag; waiting for the sum makes every gauge current.
pub fn shard_loads(server: &RunningServer, total: usize) -> Vec<usize> {
    let gauges = &server.metrics().shard_connections;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let loads: Vec<usize> = gauges.iter().map(|g| g.value() as usize).collect();
        if loads.iter().sum::<usize>() == total {
            return loads;
        }
        assert!(
            Instant::now() < deadline,
            "shard gauges never summed to {total}: {loads:?}"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The worker shard running the server's only connection.
pub fn sole_conn_shard(server: &RunningServer) -> usize {
    shard_loads(server, 1)
        .iter()
        .position(|&n| n == 1)
        .expect("one gauge reads 1")
}

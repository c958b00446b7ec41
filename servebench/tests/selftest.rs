//! The benchmark's self-test: every workload at tiny scale, untraced and
//! traced, on two seeds. Each run must emit exactly the metric names and
//! units `BENCHMARK.json` lists, fail no operation and hold parity.

use std::time::Duration;

use servebench::{run, Plan, Workload};

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`, in
/// order.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("metric list closes")];
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// The string value of `"key": "value"` in one JSON object's text.
fn field(entry: &str, key: &str) -> String {
    let at = entry
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("entry without {key}: {entry}"));
    let rest = &entry[at + key.len() + 2..];
    let open = rest.find('"').expect("value opens") + 1;
    let close = open + rest[open..].find('"').expect("value closes");
    rest[open..close].to_owned()
}

/// `workload` shrunk to a fraction of a second.
fn tiny(workload: Workload, seed: u64) -> Plan {
    let mut plan = Plan::new(workload, seed, Duration::from_millis(200));
    plan.setups = 2;
    match workload {
        Workload::Bulk => plan.frames_per_session = 8,
        Workload::Interactive => plan.frames_per_session = 40,
        Workload::Churn => plan.storm = 64,
    }
    plan.cut = plan.frames_per_session / 2;
    plan
}

#[test]
fn every_workload_emits_the_listed_metrics_and_holds_parity() {
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for workload in Workload::ALL {
        // The second seed shows the workloads are not tuned to one.
        for seed in [3, 0x5eed_0002] {
            for traced in [false, true] {
                let report = run(&tiny(workload, seed), traced, None)
                    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
                let emitted: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_owned()))
                    .collect();
                let want = if traced { &per_layer } else { &end_to_end };
                assert_eq!(&emitted, want, "{} traced={traced}", workload.name());
                for m in &report.metrics {
                    assert!(!m.unit.is_empty(), "{} has no unit", m.name);
                    assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
                }
                assert!(report.correct(), "{} seed {seed}: parity", workload.name());
                assert_eq!(report.failed, 0, "{} seed {seed}", workload.name());
                assert!(report.sessions_checked > 0);
                let line = report.json();
                assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }
}

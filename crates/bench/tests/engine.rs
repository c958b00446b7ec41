//! Engine integration: parallel determinism, cache behaviour, and golden
//! equivalence between engine cells and hand-built machine runs.

use std::path::PathBuf;

use paco::{PacoConfig, ThresholdCountConfig};
use paco_bench::cache::ResultCache;
use paco_bench::engine::{execute_cell, Engine};
use paco_bench::experiments::{ExperimentId, ALL_EXPERIMENTS};
use paco_bench::json::run_json;
use paco_bench::spec::{CellSpec, ExperimentSpec, RunParams};
use paco_sim::{EstimatorKind, FetchPolicy, GatingPolicy, MachineBuilder, SimConfig};
use paco_workloads::BenchmarkId;

fn params() -> RunParams {
    RunParams {
        instrs: 8_000,
        seed: 11,
        warmup: 4_000,
    }
}

/// A fig9-shaped grid at test scale: one accuracy cell per benchmark.
fn fig9_like_spec() -> ExperimentSpec {
    let p = params();
    let mut spec = ExperimentSpec::new("fig9-test", p);
    for bench in paco_workloads::ALL_BENCHMARKS {
        spec.push(CellSpec::accuracy(
            bench,
            EstimatorKind::Paco(PacoConfig::paper()),
            &p,
        ));
    }
    spec
}

/// The satellite guarantee behind the `Send`/seeding refactor: the same
/// spec run with `--jobs 1` and `--jobs 8` produces byte-identical JSON.
#[test]
fn jobs_1_and_jobs_8_produce_byte_identical_json() {
    let spec = fig9_like_spec();
    let seq = Engine::new().jobs(1).run(&spec);
    let par = Engine::new().jobs(8).run(&spec);
    assert_eq!(seq.jobs, 1);
    assert_eq!(par.jobs, 8);
    let seq_json = run_json(&spec, &seq);
    let par_json = run_json(&spec, &par);
    assert_eq!(
        seq_json.as_bytes(),
        par_json.as_bytes(),
        "parallel execution must be bit-identical to sequential"
    );
}

struct TempCacheDir(PathBuf);

impl TempCacheDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "paco-bench-engine-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempCacheDir(dir)
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Second run of the same spec is served entirely from cache and returns
/// the same results (and therefore the same JSON bytes).
#[test]
fn second_run_is_fully_cached_and_identical() {
    let dir = TempCacheDir::new("rerun");
    let spec = fig9_like_spec();

    let cold = Engine::new()
        .jobs(2)
        .cache(ResultCache::new(&dir.0).unwrap())
        .run(&spec);
    assert_eq!(cold.cached, 0);
    assert_eq!(cold.executed, spec.cells().len());

    let warm = Engine::new()
        .jobs(2)
        .cache(ResultCache::new(&dir.0).unwrap())
        .run(&spec);
    assert_eq!(warm.cached, spec.cells().len(), "warm run must be all hits");
    assert_eq!(warm.executed, 0);
    assert_eq!(run_json(&spec, &cold), run_json(&spec, &warm));

    // A changed spec (different instruction count) misses: the hash keys
    // cover run lengths.
    let mut p2 = params();
    p2.instrs += 1;
    let mut changed = ExperimentSpec::new("fig9-test", p2);
    changed.push(CellSpec::accuracy(
        BenchmarkId::Gzip,
        EstimatorKind::Paco(PacoConfig::paper()),
        &p2,
    ));
    let run = Engine::new()
        .jobs(1)
        .cache(ResultCache::new(&dir.0).unwrap())
        .run(&changed);
    assert_eq!(run.cached, 0, "changed cells must not hit stale entries");
}

// ------------------------------------------------------------------ //
//  Golden equivalence: engine cells vs the pre-engine hand-built     //
//  machine recipes (locks the per-kind seed/warmup derivations).      //
// ------------------------------------------------------------------ //

#[test]
fn accuracy_cell_matches_hand_built_machine() {
    let p = params();
    let (bench, est, seed) = (
        BenchmarkId::Gzip,
        EstimatorKind::Paco(PacoConfig::paper()),
        p.seed,
    );
    let mut machine = MachineBuilder::new(SimConfig::paper_4wide())
        .thread(Box::new(bench.build(seed)), est)
        .seed(seed ^ 0xACC0)
        .build();
    machine.run(p.warmup);
    machine.reset_stats();
    let want = machine.run(p.instrs);

    let got = execute_cell(&CellSpec::accuracy(bench, est, &p));
    assert_eq!(got.stats, want);
    assert!(got.phases.is_empty());
}

#[test]
fn gating_cell_matches_hand_built_machine() {
    let p = params();
    let (bench, est) = (
        BenchmarkId::Twolf,
        EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
    );
    let gating = GatingPolicy::CountGate { gate_count: 2 };
    let mut machine = MachineBuilder::new(SimConfig::paper_4wide())
        .thread(Box::new(bench.build(p.seed)), est)
        .gating(gating)
        .seed(p.seed ^ 0x6A7E)
        .build();
    machine.run(p.warmup);
    machine.reset_stats();
    let want = machine.run(p.instrs);

    let got = execute_cell(&CellSpec::gating(bench, est, gating, &p));
    assert_eq!(got.stats, want);
}

#[test]
fn smt_cells_match_hand_built_machines() {
    let p = params();
    let pair = (BenchmarkId::Gzip, BenchmarkId::Twolf);

    // Standalone IPC run: 8-wide machine, one thread, halved warmup.
    let mut single = MachineBuilder::new(SimConfig::paper_smt_8wide().with_threads(1))
        .thread(Box::new(pair.0.build(p.seed)), EstimatorKind::None)
        .seed(p.seed ^ 0x517)
        .build();
    single.run(p.warmup / 2);
    single.reset_stats();
    let want_single = single.run(p.instrs);
    let got_single = execute_cell(&CellSpec::smt_single(pair.0, &p));
    assert_eq!(got_single.stats, want_single);

    // Two-thread SMT run.
    let est = EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default());
    let mut smt = MachineBuilder::new(SimConfig::paper_smt_8wide())
        .thread(Box::new(pair.0.build(p.seed)), est)
        .thread(Box::new(pair.1.build(p.seed ^ 0xF00)), est)
        .fetch_policy(FetchPolicy::Confidence)
        .seed(p.seed ^ 0x53B)
        .build();
    smt.run(p.warmup / 2);
    smt.reset_stats();
    let want_pair = smt.run(p.instrs);
    let got_pair = execute_cell(&CellSpec::smt_pair(pair, est, FetchPolicy::Confidence, &p));
    assert_eq!(got_pair.stats, want_pair);
}

#[test]
fn stress_cell_matches_hand_built_machine() {
    let p = params();
    let est = EstimatorKind::StaticMrt;
    let mut machine = MachineBuilder::new(SimConfig::paper_4wide())
        .thread(
            Box::new(paco_workloads::drifting_stress_spec().build(p.seed)),
            est,
        )
        .seed(p.seed ^ 0xD81F7)
        .build();
    machine.run(p.warmup);
    machine.reset_stats();
    let want = machine.run(p.instrs);

    let got = execute_cell(&CellSpec::stress(est, &p));
    assert_eq!(got.stats, want);
}

#[test]
fn phased_cell_matches_hand_rolled_phase_loop() {
    // Replicates fig3's original phase_bins() accumulation.
    let p = params();
    let est = EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default());
    let (bench, window, nphases, total) = (BenchmarkId::Gzip, 2_000u64, 2usize, 8_000u64);

    let mut machine = MachineBuilder::new(SimConfig::paper_4wide())
        .thread(Box::new(bench.build(p.seed)), est)
        .seed(p.seed ^ 0xF1640)
        .build();
    let mut want = vec![vec![(0u64, 0u64); paco_sim::SCORE_BINS]; nphases];
    let mut prev = vec![(0u64, 0u64); paco_sim::SCORE_BINS];
    let mut boundary = window;
    let mut phase = 0usize;
    while boundary <= total {
        let stats = machine.run(boundary);
        let cur = &stats.threads[0].score_instances;
        for (i, acc) in want[phase].iter_mut().enumerate() {
            acc.0 += cur[i].0 - prev[i].0;
            acc.1 += cur[i].1 - prev[i].1;
        }
        prev = cur.clone();
        boundary += window;
        phase = (phase + 1) % nphases;
    }

    let got = execute_cell(&CellSpec::phased(
        bench,
        est,
        window,
        nphases as u32,
        total,
        &p,
    ));
    assert_eq!(got.phases, want);
}

/// Every named experiment runs end-to-end through the engine and renders
/// non-empty output at test scale.
#[test]
fn all_experiments_render_through_the_engine() {
    let p = RunParams {
        instrs: 1_500,
        seed: 3,
        warmup: 500,
    };
    for id in ALL_EXPERIMENTS {
        // The two heaviest grids get the smallest budget.
        if matches!(id, ExperimentId::Fig10 | ExperimentId::Fig12) && cfg!(debug_assertions) {
            continue; // debug builds: covered by the release CI run
        }
        let spec = id.spec(p);
        let run = Engine::new().run(&spec);
        let set = paco_bench::experiments::ResultSet {
            spec: &spec,
            results: &run.results,
        };
        let text = id.render(&set);
        assert!(
            text.len() > 100 && text.ends_with('\n'),
            "{}: suspicious render ({} bytes)",
            id.name(),
            text.len()
        );
    }
}

/// The robustness sweep's corpus cells are as deterministic and
/// jobs-invariant as every other cell kind: `--jobs 1` and `--jobs 8`
/// produce byte-equal JSON, and distinct corpus entries never collide on
/// a content hash (the family recipe is part of the cell identity).
#[test]
fn robustness_cells_are_jobs_invariant_and_hash_distinct() {
    let p = RunParams {
        instrs: 3_000,
        seed: 42,
        warmup: 1_000,
    };
    let spec = ExperimentId::Robustness.spec(p);
    assert_eq!(
        spec.cells().len(),
        paco_corpus::CORPUS.len() * paco_bench::experiments::robustness_estimators().len(),
        "one cell per family x estimator kind"
    );
    let mut hashes: Vec<u64> = spec.cells().iter().map(CellSpec::content_hash).collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(
        hashes.len(),
        spec.cells().len(),
        "corpus cell hash collision"
    );

    let seq = Engine::new().jobs(1).run(&spec);
    let par = Engine::new().jobs(8).run(&spec);
    assert_eq!(run_json(&spec, &seq), run_json(&spec, &par));
}

//! Shared machinery for the experiment harnesses.
//!
//! The run helpers (`accuracy_run`, `gating_run`, …) are the stable,
//! call-it-from-anywhere API used by the integration suites.
//! Since the engine refactor they are thin adapters over
//! [`engine::execute_cell`](crate::engine::execute_cell) — one execution
//! recipe, shared with the parallel engine — so a helper result and the
//! corresponding engine cell result are always bit-identical.

use paco_analysis::{gating_tradeoff, hmwipc, ReliabilityDiagram};
use paco_sim::{EstimatorKind, FetchPolicy, GatingPolicy, MachineStats, SimConfig};
use paco_workloads::BenchmarkId;

use crate::engine::execute_cell;
use crate::spec::{CellSpec, RunParams};

/// Reads an optional `u64` environment override, warning (once per call)
/// on values that are present but unparseable instead of silently falling
/// back.
///
/// Each variable warns at most once per process: the defaults helpers run
/// once per experiment, and `paco-bench run all` must not repeat the same
/// complaint eight times (with eight different per-experiment fallbacks).
fn env_u64(var: &'static str, fallback: u64) -> u64 {
    use std::sync::Mutex;
    static WARNED: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let warn_once = |msg: String| {
        let mut warned = WARNED.lock().expect("env warning registry poisoned");
        if !warned.contains(&var) {
            warned.push(var);
            eprintln!("{msg}");
        }
    };
    match std::env::var(var) {
        Ok(raw) => match raw.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                warn_once(format!(
                    "paco-bench: warning: ignoring unparseable {var}={raw:?}; using the default"
                ));
                fallback
            }
        },
        Err(std::env::VarError::NotPresent) => fallback,
        Err(std::env::VarError::NotUnicode(_)) => {
            warn_once(format!(
                "paco-bench: warning: ignoring non-UTF-8 {var}; using the default"
            ));
            fallback
        }
    }
}

/// Default per-run instruction budget; override with `PACO_INSTRS`.
pub fn default_instrs(fallback: u64) -> u64 {
    env_u64("PACO_INSTRS", fallback)
}

/// Default base warmup instruction count (fast-forward analogue);
/// override with `PACO_WARMUP`.
///
/// The default and its machine-width scaling live in
/// [`SimConfig::DEFAULT_WARMUP_INSTRS`] and [`SimConfig::warmup_for`] —
/// one definition shared by specs, helpers and binaries.
pub fn default_warmup() -> u64 {
    env_u64("PACO_WARMUP", SimConfig::DEFAULT_WARMUP_INSTRS)
}

/// Default experiment seed; override with `PACO_SEED`.
pub fn default_seed() -> u64 {
    env_u64("PACO_SEED", 42)
}

/// The env-derived [`RunParams`] for an experiment with the given default
/// instruction budget.
pub fn env_params(default_instrs_value: u64) -> RunParams {
    RunParams {
        instrs: default_instrs(default_instrs_value),
        seed: default_seed(),
        warmup: default_warmup(),
    }
}

fn params_for(instrs: u64, seed: u64) -> RunParams {
    RunParams {
        instrs,
        seed,
        warmup: default_warmup(),
    }
}

/// Outcome of a single-thread accuracy run.
#[derive(Debug, Clone)]
pub struct AccuracyResult {
    /// Which benchmark ran.
    pub bench: BenchmarkId,
    /// Full machine statistics.
    pub stats: MachineStats,
    /// Reliability diagram built from the run's confidence instances.
    pub diagram: ReliabilityDiagram,
}

impl AccuracyResult {
    /// Occurrence-weighted RMS error of the run's goodpath prediction.
    pub fn rms(&self) -> f64 {
        self.diagram.rms_error()
    }
}

/// Runs `bench` on the paper's 4-wide machine with the given estimator and
/// produces accuracy statistics (paper §4 methodology: every fetch and
/// execute event is a confidence instance, judged by the goodpath oracle).
pub fn accuracy_run(
    bench: BenchmarkId,
    estimator: EstimatorKind,
    instrs: u64,
    seed: u64,
) -> AccuracyResult {
    let cell = CellSpec::accuracy(bench, estimator, &params_for(instrs, seed));
    let result = execute_cell(&cell);
    let diagram = ReliabilityDiagram::from_bins(&result.stats.threads[0].prob_instances);
    AccuracyResult {
        bench,
        stats: result.stats,
        diagram,
    }
}

/// Outcome of one gating configuration relative to an ungated baseline.
#[derive(Debug, Clone, Copy)]
pub struct GatingResult {
    /// Performance loss in percent (negative = speedup).
    pub perf_loss_pct: f64,
    /// Reduction in wrong-path instructions executed, percent.
    pub badpath_exec_reduction_pct: f64,
    /// Reduction in wrong-path instructions fetched, percent.
    pub badpath_fetch_reduction_pct: f64,
}

/// Runs `bench` twice — ungated baseline and gated — and reports the
/// Figure-10 trade-off point.
pub fn gating_run(
    bench: BenchmarkId,
    estimator: EstimatorKind,
    gating: GatingPolicy,
    instrs: u64,
    seed: u64,
) -> GatingResult {
    let p = params_for(instrs, seed);
    let point = |policy: GatingPolicy| {
        let stats = execute_cell(&CellSpec::gating(bench, estimator, policy, &p)).stats;
        paco_analysis::RunPoint {
            ipc: stats.ipc(0),
            badpath_executed: stats.total_badpath_executed(),
            badpath_fetched: stats.total_badpath_fetched(),
        }
    };
    let t = gating_tradeoff(point(GatingPolicy::None), point(gating));
    GatingResult {
        perf_loss_pct: t.perf_loss_pct,
        badpath_exec_reduction_pct: t.badpath_exec_reduction_pct,
        badpath_fetch_reduction_pct: t.badpath_fetch_reduction_pct,
    }
}

/// Standalone IPC of a benchmark on the 8-wide SMT machine (the
/// `SingleIPC` term of HMWIPC).
pub fn single_thread_ipc_smt(bench: BenchmarkId, instrs: u64, seed: u64) -> f64 {
    let cell = CellSpec::smt_single(bench, &params_for(instrs, seed));
    execute_cell(&cell).stats.ipc(0)
}

/// Outcome of one SMT pair under one fetch policy.
#[derive(Debug, Clone, Copy)]
pub struct SmtResult {
    /// Per-thread SMT IPCs.
    pub ipc: [f64; 2],
    /// Harmonic mean of weighted IPCs.
    pub hmwipc: f64,
}

/// Runs a two-thread SMT experiment (paper §5.2). `estimator` configures
/// the per-thread confidence estimator used by the `Confidence` policy.
pub fn smt_run(
    pair: (BenchmarkId, BenchmarkId),
    estimator: EstimatorKind,
    policy: FetchPolicy,
    single_ipc: (f64, f64),
    instrs: u64,
    seed: u64,
) -> SmtResult {
    let cell = CellSpec::smt_pair(pair, estimator, policy, &params_for(instrs, seed));
    let stats = execute_cell(&cell).stats;
    let ipc = [stats.ipc(0), stats.ipc(1)];
    SmtResult {
        ipc,
        hmwipc: hmwipc(&[(single_ipc.0, ipc[0]), (single_ipc.1, ipc[1])]),
    }
}

/// The standard PaCo estimator used across experiments.
pub fn paco_estimator() -> EstimatorKind {
    EstimatorKind::Paco(paco::PacoConfig::paper())
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco::ThresholdCountConfig;

    #[test]
    fn accuracy_run_produces_instances() {
        let r = accuracy_run(BenchmarkId::Gzip, paco_estimator(), 20_000, 1);
        assert!(r.diagram.total_instances() > 20_000);
        assert!(r.rms() < 1.0);
        assert!(r.stats.threads[0].retired >= 20_000);
    }

    #[test]
    fn gating_run_reports_tradeoff() {
        let r = gating_run(
            BenchmarkId::Twolf,
            EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            GatingPolicy::CountGate { gate_count: 1 },
            30_000,
            1,
        );
        // Aggressive gating must remove a large share of badpath execution.
        assert!(r.badpath_exec_reduction_pct > 20.0);
    }

    #[test]
    fn smt_run_reports_hmwipc() {
        let s1 = single_thread_ipc_smt(BenchmarkId::Gzip, 20_000, 1);
        let s2 = single_thread_ipc_smt(BenchmarkId::Twolf, 20_000, 1);
        let r = smt_run(
            (BenchmarkId::Gzip, BenchmarkId::Twolf),
            EstimatorKind::None,
            FetchPolicy::ICount,
            (s1, s2),
            20_000,
            1,
        );
        assert!(r.hmwipc > 0.0 && r.hmwipc <= 1.2, "hmwipc {}", r.hmwipc);
    }

    #[test]
    fn env_overrides_parse() {
        assert_eq!(default_instrs(123), 123);
        assert!(default_seed() > 0);
        assert_eq!(default_warmup(), SimConfig::DEFAULT_WARMUP_INSTRS);
    }
}

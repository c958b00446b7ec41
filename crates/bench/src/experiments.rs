//! The named paper experiments: declarative specs plus presentation.
//!
//! Each artifact of the paper (`fig2` … `ablations`) is described twice:
//!
//! 1. a **spec builder** that declares its cell grid (what to simulate),
//! 2. a **render function** that maps the engine's cell results into the
//!    exact text the original hand-rolled binary printed.
//!
//! The render functions re-derive cell descriptions from the spec's
//! [`RunParams`] and look results up by structural equality, so the
//! mapping between a table row and its simulation is the `CellSpec` value
//! itself — there is no positional coupling to break. All numeric
//! assembly is delegated to `paco-analysis` aggregation functions.

use paco::{AdaptiveMrtConfig, LogMode, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_analysis::{
    coverage_pct, gating_tradeoff, mean, mean_tradeoff, merge_bin_pairs, render_diagram_ascii,
    GatingTradeoff, ReliabilityDiagram, RunPoint, Table,
};
use paco_corpus::CORPUS;
use paco_sim::PROB_BINS;
use paco_sim::{EstimatorKind, FetchPolicy, GatingPolicy};
use paco_types::canon::Canon;
use paco_types::Probability;
use paco_workloads::BenchmarkId::{self, *};
use paco_workloads::ALL_BENCHMARKS;

use crate::engine::CellResult;
use crate::runner::paco_estimator;
use crate::spec::{CellSpec, ExperimentSpec, RunParams};

/// Identifies a named experiment: the eight paper artifacts plus the
/// corpus robustness sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ExperimentId {
    Fig2,
    Fig3,
    Tab7,
    Fig9,
    Fig10,
    Fig12,
    TabA1,
    Ablations,
    /// Corpus-wide robustness sweep: every estimator kind across every
    /// synthetic workload family of [`paco_corpus::CORPUS`] — the
    /// systematic answer to "where does the estimator break". Not a
    /// paper artifact (the paper evaluates on its tuning suite only).
    Robustness,
}

/// All experiments, in paper order (the corpus sweep last).
pub const ALL_EXPERIMENTS: [ExperimentId; 9] = [
    ExperimentId::Fig2,
    ExperimentId::Fig3,
    ExperimentId::Tab7,
    ExperimentId::Fig9,
    ExperimentId::Fig10,
    ExperimentId::Fig12,
    ExperimentId::TabA1,
    ExperimentId::Ablations,
    ExperimentId::Robustness,
];

impl ExperimentId {
    /// The experiment's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Fig3 => "fig3",
            ExperimentId::Tab7 => "tab7",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::TabA1 => "tab_a1",
            ExperimentId::Ablations => "ablations",
            ExperimentId::Robustness => "robustness",
        }
    }

    /// One-line description for `paco-bench list`.
    pub fn describe(self) -> &'static str {
        match self {
            ExperimentId::Fig2 => "Fig. 2 — per-MDC-bucket mispredict rates",
            ExperimentId::Fig3 => "Fig. 3 — goodpath probability at counter = 5",
            ExperimentId::Tab7 => "Fig. 7 (table) — RMS error + mispredict rates",
            ExperimentId::Fig9 => "Figs. 8-9 — reliability diagrams",
            ExperimentId::Fig10 => "Fig. 10 — pipeline gating trade-off curves",
            ExperimentId::Fig12 => "Fig. 12 — SMT fetch prioritization (HMWIPC)",
            ExperimentId::TabA1 => "Appendix Table 1 — MRT variants ablation",
            ExperimentId::Ablations => "refresh-period / log-mode / throttling ablations",
            ExperimentId::Robustness => {
                "corpus robustness — every estimator kind × every synthetic workload family"
            }
        }
    }

    /// Parses an experiment name (case-insensitive).
    pub fn from_name(name: &str) -> Option<Self> {
        ALL_EXPERIMENTS
            .iter()
            .copied()
            .find(|e| e.name().eq_ignore_ascii_case(name))
    }

    /// The experiment's default per-run instruction budget (overridable
    /// with `PACO_INSTRS`).
    pub fn default_instrs(self) -> u64 {
        match self {
            ExperimentId::Fig2 => 500_000,
            ExperimentId::Fig3 => 600_000,
            ExperimentId::Tab7 => 1_000_000,
            ExperimentId::Fig9 => 800_000,
            ExperimentId::Fig10 => 400_000,
            ExperimentId::Fig12 => 200_000,
            ExperimentId::TabA1 => 600_000,
            ExperimentId::Ablations => 400_000,
            ExperimentId::Robustness => 400_000,
        }
    }

    /// Builds the experiment's cell grid.
    pub fn spec(self, params: RunParams) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(self.name(), params);
        let p = &params;
        match self {
            ExperimentId::Fig2 => {
                for bench in ALL_BENCHMARKS {
                    spec.push(CellSpec::accuracy(bench, EstimatorKind::None, p));
                }
            }
            ExperimentId::Fig3 => {
                for bench in FIG3_BENCHMARKS {
                    spec.push(CellSpec::accuracy(bench, fig3_estimator(), p));
                }
                spec.push(fig3_mcf_cell(p));
                spec.push(fig3_gcc_cell(p));
            }
            ExperimentId::Tab7 | ExperimentId::Fig9 => {
                for bench in ALL_BENCHMARKS {
                    spec.push(CellSpec::accuracy(bench, paco_estimator(), p));
                }
            }
            ExperimentId::Fig10 => {
                for bench in ALL_BENCHMARKS {
                    spec.push(CellSpec::gating(
                        bench,
                        EstimatorKind::None,
                        GatingPolicy::None,
                        p,
                    ));
                }
                for (est, gating) in fig10_configs() {
                    for bench in ALL_BENCHMARKS {
                        spec.push(CellSpec::gating(bench, est, gating, p));
                    }
                }
            }
            ExperimentId::Fig12 => {
                for &(a, b) in &FIG12_PAIRS {
                    spec.push(CellSpec::smt_single(a, p));
                    spec.push(CellSpec::smt_single(b, p));
                }
                for &pair in &FIG12_PAIRS {
                    for (_, est, pol) in fig12_policies() {
                        spec.push(CellSpec::smt_pair(pair, est, pol, p));
                    }
                }
            }
            ExperimentId::TabA1 => {
                for bench in ALL_BENCHMARKS {
                    for (_, est) in tab_a1_variants() {
                        spec.push(CellSpec::accuracy(bench, est, p));
                    }
                }
                for (_, est) in tab_a1_variants() {
                    spec.push(CellSpec::stress(est, p));
                }
            }
            ExperimentId::Robustness => {
                for entry in CORPUS {
                    for (_, est) in robustness_estimators() {
                        spec.push(CellSpec::corpus(entry.family, est, entry.seed, p));
                    }
                }
            }
            ExperimentId::Ablations => {
                for period in ABLATION_PERIODS {
                    let est = EstimatorKind::Paco(PacoConfig::paper().with_refresh_period(period));
                    for bench in ALL_BENCHMARKS {
                        spec.push(CellSpec::accuracy(bench, est, p));
                    }
                }
                for (_, mode) in ABLATION_LOG_MODES {
                    let est = EstimatorKind::Paco(PacoConfig::paper().with_log_mode(mode));
                    for bench in ALL_BENCHMARKS {
                        spec.push(CellSpec::accuracy(bench, est, p));
                    }
                }
                for (_, est, gating) in ablation_throttle_configs() {
                    spec.push(CellSpec::gating(Twolf, est, GatingPolicy::None, p));
                    spec.push(CellSpec::gating(Twolf, est, gating, p));
                }
            }
        }
        spec
    }

    /// Renders the experiment's output text from engine results.
    pub fn render(self, set: &ResultSet<'_>) -> String {
        match self {
            ExperimentId::Fig2 => render_fig2(set),
            ExperimentId::Fig3 => render_fig3(set),
            ExperimentId::Tab7 => render_tab7(set),
            ExperimentId::Fig9 => render_fig9(set),
            ExperimentId::Fig10 => render_fig10(set),
            ExperimentId::Fig12 => render_fig12(set),
            ExperimentId::TabA1 => render_tab_a1(set),
            ExperimentId::Ablations => render_ablations(set),
            ExperimentId::Robustness => render_robustness(set),
        }
    }
}

/// A spec paired with its engine results, for rendering.
#[derive(Debug)]
pub struct ResultSet<'a> {
    /// The spec the results were produced from.
    pub spec: &'a ExperimentSpec,
    /// Per-cell results, indexed like `spec.cells()`.
    pub results: &'a [CellResult],
}

impl ResultSet<'_> {
    /// The result of a cell, located by structural equality.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not part of the spec — a spec/render mismatch
    /// is a programming error, not a runtime condition.
    pub fn get(&self, cell: &CellSpec) -> &CellResult {
        let i = self.spec.index_of(cell).unwrap_or_else(|| {
            panic!("cell not in spec {}: {}", self.spec.name, cell.kind.label())
        });
        &self.results[i]
    }

    /// Occurrence-weighted RMS error of a cell's thread-0 run.
    fn rms(&self, cell: &CellSpec) -> f64 {
        ReliabilityDiagram::from_bins(&self.get(cell).stats.threads[0].prob_instances).rms_error()
    }

    /// The Figure-10 observables of a cell's run.
    fn run_point(&self, cell: &CellSpec) -> RunPoint {
        let stats = &self.get(cell).stats;
        RunPoint {
            ipc: stats.ipc(0),
            badpath_executed: stats.total_badpath_executed(),
            badpath_fetched: stats.total_badpath_fetched(),
        }
    }
}

// ------------------------------------------------------------------ //
//  Figure 2                                                           //
// ------------------------------------------------------------------ //

fn render_fig2(set: &ResultSet<'_>) -> String {
    let p = set.spec.params;
    let mut out = String::new();
    out.push_str("== Figure 2: per-MDC-bucket mispredict rates (%) ==\n");
    out.push_str(&format!(
        "   ({} instructions/benchmark, seed {})\n\n",
        p.instrs, p.seed
    ));

    let mut header = vec!["bench".to_string()];
    header.extend((0..16).map(|i| format!("mdc{i}")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    for bench in ALL_BENCHMARKS {
        let r = set.get(&CellSpec::accuracy(bench, EstimatorKind::None, &p));
        let t = &r.stats.threads[0];
        let mut row = vec![bench.name().to_string()];
        for b in 0..16 {
            row.push(match t.mdc_bucket_mispredict_pct(b) {
                Some(pct) => format!("{pct:.1}"),
                None => "-".to_string(),
            });
        }
        table.row_owned(row);
    }
    out.push_str(&format!("{}\n", table.render()));

    out.push_str(
        "Paper's qualitative claim to verify: rates fall steeply with MDC value;\n\
         MDC 0 branches mispredict tens of percent while MDC 15 branches are\n\
         nearly perfect, and the same MDC value maps to different rates across\n\
         benchmarks (e.g. gcc vs vortex at MDC 2).\n",
    );
    out
}

// ------------------------------------------------------------------ //
//  Figure 3                                                           //
// ------------------------------------------------------------------ //

const FIG3_COUNTER: usize = 5;

const FIG3_BENCHMARKS: [BenchmarkId; 4] = [Crafty, Gzip, Bzip2, VprRoute];

fn fig3_estimator() -> EstimatorKind {
    EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default())
}

/// mcf: two phases of 400k instructions each.
fn fig3_mcf_cell(p: &RunParams) -> CellSpec {
    CellSpec::phased(
        Mcf,
        fig3_estimator(),
        400_000,
        2,
        1_600_000.min(p.instrs.saturating_mul(3)),
        p,
    )
}

/// gcc: four short phases of 25k instructions.
fn fig3_gcc_cell(p: &RunParams) -> CellSpec {
    CellSpec::phased(Gcc, fig3_estimator(), 25_000, 4, p.instrs, p)
}

fn fig3_prob_cell(bins: &[(u64, u64)]) -> (String, String) {
    let (n, good) = bins[FIG3_COUNTER];
    let prob = if n > 0 {
        format!("{:.3}", good as f64 / n as f64)
    } else {
        "-".to_string()
    };
    (prob, n.to_string())
}

fn render_fig3(set: &ResultSet<'_>) -> String {
    let p = set.spec.params;
    let mut out = String::new();
    out.push_str(&format!(
        "== Figure 3(a): observed goodpath probability at counter = {FIG3_COUNTER} ==\n"
    ));
    out.push_str(&format!(
        "   (JRS threshold 3, {} instructions/benchmark, seed {})\n\n",
        p.instrs, p.seed
    ));
    let mut t = Table::new(&["bench", "P(goodpath | count=5)", "instances"]);
    for bench in FIG3_BENCHMARKS {
        let r = set.get(&CellSpec::accuracy(bench, fig3_estimator(), &p));
        let (prob, n) = fig3_prob_cell(&r.stats.threads[0].score_instances);
        t.row_owned(vec![bench.name().to_string(), prob, n]);
    }
    out.push_str(&format!("{}\n", t.render()));

    out.push_str("== Figure 3(b): same, across phases of mcf and gcc ==\n\n");
    let mut t = Table::new(&["phase", "P(goodpath | count=5)", "instances"]);
    let mcf = &set.get(&fig3_mcf_cell(&p)).phases;
    for (i, bins) in mcf.iter().enumerate() {
        let (prob, n) = fig3_prob_cell(bins);
        t.row_owned(vec![format!("mcf_phase{}", i + 1), prob, n]);
    }
    let gcc = &set.get(&fig3_gcc_cell(&p)).phases;
    for (i, bins) in gcc.iter().take(2).enumerate() {
        let (prob, n) = fig3_prob_cell(bins);
        t.row_owned(vec![format!("gcc_phase{}", i + 1), prob, n]);
    }
    out.push_str(&format!("{}\n", t.render()));
    out.push_str(
        "Paper's qualitative claim: the observed probability at a fixed counter\n\
         value differs strongly across benchmarks (10%..40% in the paper) and\n\
         across phases of one benchmark — a fixed gate-count cannot be right\n\
         everywhere.\n",
    );
    out
}

// ------------------------------------------------------------------ //
//  Figure 7 (table)                                                   //
// ------------------------------------------------------------------ //

fn render_tab7(set: &ResultSet<'_>) -> String {
    let p = set.spec.params;
    let mut out = String::new();
    out.push_str("== Figure 7 (table): PaCo RMS error and mispredict rates ==\n");
    out.push_str(&format!(
        "   ({} instructions/benchmark, seed {})\n\n",
        p.instrs, p.seed
    ));

    let mut table = Table::new(&[
        "bench",
        "PaCo RMS",
        "paper RMS",
        "overall MR%",
        "paper",
        "cond MR%",
        "paper",
    ]);
    let mut all_bins: Vec<Vec<(u64, u64)>> = Vec::new();
    let mut rms_sum = 0.0;

    for bench in ALL_BENCHMARKS {
        let cell = CellSpec::accuracy(bench, paco_estimator(), &p);
        let r = set.get(&cell);
        let t = &r.stats.threads[0];
        let spec = bench.spec();
        let rms = set.rms(&cell);
        rms_sum += rms;
        all_bins.push(t.prob_instances.clone());
        table.row_owned(vec![
            bench.name().to_string(),
            format!("{rms:.4}"),
            format!("{:.4}", tab7_paper_rms(bench.name())),
            format!("{:.2}", t.overall_mispredict_pct().unwrap_or(0.0)),
            format!("{:.2}", spec.paper_overall_mispredict_pct),
            format!("{:.2}", t.cond_mispredict_pct().unwrap_or(0.0)),
            format!("{:.2}", spec.paper_cond_mispredict_pct),
        ]);
    }
    let cumulative = ReliabilityDiagram::from_many(&all_bins);
    table.row_owned(vec![
        "mean/cum".to_string(),
        format!("{:.4}", rms_sum / ALL_BENCHMARKS.len() as f64),
        "0.0377".to_string(),
        String::new(),
        "6.22".to_string(),
        String::new(),
        "6.32".to_string(),
    ]);
    out.push_str(&format!("{}\n", table.render()));
    out.push_str(&format!(
        "cumulative (all benchmarks pooled) RMS: {:.4}\n",
        cumulative.rms_error()
    ));
    out
}

/// The paper's per-benchmark PaCo RMS errors (Figure 7).
fn tab7_paper_rms(name: &str) -> f64 {
    match name {
        "bzip2" => 0.0545,
        "crafty" => 0.0528,
        "gcc" => 0.0874,
        "gap" => 0.0830,
        "gzip" => 0.0640,
        "mcf" => 0.0447,
        "parser" => 0.0415,
        "perlbmk" => 0.0613,
        "twolf" => 0.0175,
        "vortex" => 0.0332,
        "vprPlace" => 0.0244,
        "vprRoute" => 0.0322,
        _ => f64::NAN,
    }
}

// ------------------------------------------------------------------ //
//  Figures 8-9                                                        //
// ------------------------------------------------------------------ //

fn render_fig9(set: &ResultSet<'_>) -> String {
    let p = set.spec.params;
    let mut out = String::new();
    out.push_str("== Figures 8-9: reliability diagrams ==\n");
    out.push_str(&format!(
        "   ({} instructions/benchmark, seed {})\n\n",
        p.instrs, p.seed
    ));

    let shown = [Twolf, VprRoute, Crafty, Gcc, Perlbmk, Parser];

    let mut all_bins = Vec::new();
    let mut rms_table = Table::new(&["bench", "RMS", "instances"]);

    for bench in ALL_BENCHMARKS {
        let cell = CellSpec::accuracy(bench, paco_estimator(), &p);
        let r = set.get(&cell);
        let diagram = ReliabilityDiagram::from_bins(&r.stats.threads[0].prob_instances);
        all_bins.push(r.stats.threads[0].prob_instances.clone());
        rms_table.row_owned(vec![
            bench.name().to_string(),
            format!("{:.4}", diagram.rms_error()),
            diagram.total_instances().to_string(),
        ]);
        if shown.contains(&bench) {
            out.push_str(&format!("---- {} ----\n", bench.name()));
            out.push_str(&format!("{}\n", render_diagram_ascii(&diagram, 60, 22)));
        }
    }

    let mut pooled = vec![(0u64, 0u64); PROB_BINS];
    for bins in &all_bins {
        merge_bin_pairs(&mut pooled, bins);
    }
    let cumulative = ReliabilityDiagram::from_bins(&pooled);
    out.push_str("---- cumulative (all benchmarks, Figure 9(f)) ----\n");
    out.push_str(&format!("{}\n", render_diagram_ascii(&cumulative, 60, 22)));
    out.push_str(&format!(
        "cumulative RMS: {:.4}\n\n",
        cumulative.rms_error()
    ));
    out.push_str(&format!("{}\n", rms_table.render()));
    out
}

// ------------------------------------------------------------------ //
//  Figure 10                                                          //
// ------------------------------------------------------------------ //

const FIG10_THRESHOLDS: [u8; 4] = [3, 7, 11, 15];
const FIG10_GATE_COUNTS: [u64; 7] = [10, 8, 6, 4, 3, 2, 1];
const FIG10_PACO_PCTS: [u32; 12] = [2, 6, 10, 14, 20, 26, 34, 42, 50, 62, 74, 90];

/// Every gated configuration Figure 10 sweeps, in table order.
fn fig10_configs() -> Vec<(EstimatorKind, GatingPolicy)> {
    let mut configs = Vec::new();
    for threshold in FIG10_THRESHOLDS {
        let est = EstimatorKind::ThresholdCount(ThresholdCountConfig::with_threshold(threshold));
        for gate_count in FIG10_GATE_COUNTS {
            configs.push((est, GatingPolicy::CountGate { gate_count }));
        }
    }
    for pct in FIG10_PACO_PCTS {
        configs.push((
            paco_estimator(),
            GatingPolicy::paco_gate(Probability::new(pct as f64 / 100.0).unwrap()),
        ));
    }
    configs
}

fn render_fig10(set: &ResultSet<'_>) -> String {
    let p = set.spec.params;
    let mut out = String::new();
    out.push_str("== Figure 10: pipeline gating trade-off ==\n");
    out.push_str(&format!(
        "   ({} instructions/benchmark/config, seed {}; mean over {} benchmarks)\n\n",
        p.instrs,
        p.seed,
        ALL_BENCHMARKS.len()
    ));

    let mean_point = |estimator: EstimatorKind, gating: GatingPolicy| -> GatingTradeoff {
        let points: Vec<GatingTradeoff> = ALL_BENCHMARKS
            .iter()
            .map(|&bench| {
                let base = set.run_point(&CellSpec::gating(
                    bench,
                    EstimatorKind::None,
                    GatingPolicy::None,
                    &p,
                ));
                let gated = set.run_point(&CellSpec::gating(bench, estimator, gating, &p));
                gating_tradeoff(base, gated)
            })
            .collect();
        mean_tradeoff(&points)
    };

    let mut table = Table::new(&[
        "predictor",
        "config",
        "perf loss %",
        "badpath exec red. %",
        "badpath fetch red. %",
    ]);

    for threshold in FIG10_THRESHOLDS {
        let est = EstimatorKind::ThresholdCount(ThresholdCountConfig::with_threshold(threshold));
        for gate_count in FIG10_GATE_COUNTS {
            let m = mean_point(est, GatingPolicy::CountGate { gate_count });
            table.row_owned(vec![
                format!("JRS-t{threshold}"),
                format!("gate-count {gate_count}"),
                format!("{:.2}", m.perf_loss_pct),
                format!("{:.1}", m.badpath_exec_reduction_pct),
                format!("{:.1}", m.badpath_fetch_reduction_pct),
            ]);
        }
    }

    for pct in FIG10_PACO_PCTS {
        let gating = GatingPolicy::paco_gate(Probability::new(pct as f64 / 100.0).unwrap());
        let m = mean_point(paco_estimator(), gating);
        table.row_owned(vec![
            "PaCo".to_string(),
            format!("gate below {pct}%"),
            format!("{:.2}", m.perf_loss_pct),
            format!("{:.1}", m.badpath_exec_reduction_pct),
            format!("{:.1}", m.badpath_fetch_reduction_pct),
        ]);
    }

    out.push_str(&format!("{}\n", table.render()));
    out.push_str(
        "Paper's claims to verify: PaCo at a ~20% gating probability removes\n\
         ~32% of badpath instructions executed at ~0% performance loss (badpath\n\
         fetch reduction even higher, ~70%), while the best counter-based\n\
         predictor (JRS-t3) only reaches ~7% at comparable loss; conservative\n\
         PaCo gating can even *improve* performance via reduced cache/BTB\n\
         pollution.\n",
    );
    out
}

// ------------------------------------------------------------------ //
//  Figure 12                                                          //
// ------------------------------------------------------------------ //

/// The 16 SMT pairs: 11 benchmarks (no parser), each in 3 pairs except
/// gzip (2). 16 pairs × 2 slots = 32 = 10×3 + 2.
pub const FIG12_PAIRS: [(BenchmarkId, BenchmarkId); 16] = [
    (Bzip2, Crafty),
    (Gcc, Gap),
    (Gzip, Mcf),
    (Perlbmk, Twolf),
    (Vortex, VprPlace),
    (VprRoute, Bzip2),
    (Crafty, Gcc),
    (Gap, Mcf),
    (Twolf, Vortex),
    (VprPlace, VprRoute),
    (Bzip2, Gzip),
    (Crafty, Perlbmk),
    (Gcc, Twolf),
    (Gap, Vortex),
    (Mcf, VprPlace),
    (Perlbmk, VprRoute),
];

fn fig12_policies() -> [(&'static str, EstimatorKind, FetchPolicy); 6] {
    [
        ("ICount", EstimatorKind::None, FetchPolicy::ICount),
        (
            "JRS-t3",
            EstimatorKind::ThresholdCount(ThresholdCountConfig::with_threshold(3)),
            FetchPolicy::Confidence,
        ),
        (
            "JRS-t7",
            EstimatorKind::ThresholdCount(ThresholdCountConfig::with_threshold(7)),
            FetchPolicy::Confidence,
        ),
        (
            "JRS-t11",
            EstimatorKind::ThresholdCount(ThresholdCountConfig::with_threshold(11)),
            FetchPolicy::Confidence,
        ),
        (
            "JRS-t15",
            EstimatorKind::ThresholdCount(ThresholdCountConfig::with_threshold(15)),
            FetchPolicy::Confidence,
        ),
        ("PaCo", paco_estimator(), FetchPolicy::Confidence),
    ]
}

fn render_fig12(set: &ResultSet<'_>) -> String {
    let p = set.spec.params;
    let mut out = String::new();
    out.push_str("== Figure 12: SMT fetch prioritization (HMWIPC) ==\n");
    out.push_str(&format!(
        "   ({} instructions/thread/config, seed {})\n\n",
        p.instrs, p.seed
    ));

    // Standalone IPCs on the 8-wide machine (the SingleIPC terms).
    let mut single = std::collections::BTreeMap::new();
    for &(a, b) in &FIG12_PAIRS {
        for bench in [a, b] {
            single
                .entry(bench.name())
                .or_insert_with(|| set.get(&CellSpec::smt_single(bench, &p)).stats.ipc(0));
        }
    }

    let policies = fig12_policies();
    let mut table = Table::new(&[
        "pair", "ICount", "JRS-t3", "JRS-t7", "JRS-t11", "JRS-t15", "PaCo",
    ]);
    let mut sums = [0.0f64; 6];
    let mut paco_vs_best_jrs = Vec::new();

    for &(a, b) in &FIG12_PAIRS {
        let sa = single[a.name()];
        let sb = single[b.name()];
        let mut row = vec![format!("{}-{}", a.name(), b.name())];
        let mut vals = [0.0f64; 6];
        for (i, (_, est, pol)) in policies.iter().enumerate() {
            let stats = &set.get(&CellSpec::smt_pair((a, b), *est, *pol, &p)).stats;
            let hmwipc = paco_analysis::hmwipc(&[(sa, stats.ipc(0)), (sb, stats.ipc(1))]);
            vals[i] = hmwipc;
            sums[i] += hmwipc;
            row.push(format!("{hmwipc:.3}"));
        }
        let best_jrs = vals[1..5].iter().cloned().fold(f64::MIN, f64::max);
        paco_vs_best_jrs.push(100.0 * (vals[5] - best_jrs) / best_jrs);
        table.row_owned(row);
    }
    let mut mean_row = vec!["mean".to_string()];
    for s in sums {
        mean_row.push(format!("{:.3}", s / FIG12_PAIRS.len() as f64));
    }
    table.row_owned(mean_row);
    out.push_str(&format!("{}\n", table.render()));

    let wins = paco_vs_best_jrs.iter().filter(|&&d| d > 0.0).count();
    let mean_gain = mean(&paco_vs_best_jrs);
    let max_gain = paco_vs_best_jrs.iter().cloned().fold(f64::MIN, f64::max);
    out.push_str(&format!(
        "PaCo vs best JRS per pair: wins {wins}/16, mean {mean_gain:+.1}%, max {max_gain:+.1}%\n"
    ));
    out.push_str(
        "Paper's claims to verify: PaCo beats the best threshold-and-count\n\
         predictor on 14 of 16 pairs, ~5.4-5.5% mean improvement, up to ~23%.\n",
    );
    out
}

// ------------------------------------------------------------------ //
//  Appendix Table 1                                                   //
// ------------------------------------------------------------------ //

fn tab_a1_variants() -> [(&'static str, EstimatorKind); 3] {
    [
        ("MRT", paco_estimator()),
        ("StaticMRT", EstimatorKind::StaticMrt),
        (
            "PerBranchMRT",
            EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
        ),
    ]
}

fn render_tab_a1(set: &ResultSet<'_>) -> String {
    let p = set.spec.params;
    let mut out = String::new();
    out.push_str("== Appendix Table 1: MRT variants, RMS error ==\n");
    out.push_str(&format!(
        "   ({} instructions/benchmark, seed {})\n\n",
        p.instrs, p.seed
    ));

    let variants = tab_a1_variants();
    let mut table = Table::new(&["bench", "MRT", "StaticMRT", "PerBranchMRT"]);
    let mut sums = [0.0f64; 3];
    for bench in ALL_BENCHMARKS {
        let mut row = vec![bench.name().to_string()];
        for (i, (_, est)) in variants.iter().enumerate() {
            let rms = set.rms(&CellSpec::accuracy(bench, *est, &p));
            sums[i] += rms;
            row.push(format!("{rms:.4}"));
        }
        table.row_owned(row);
    }
    let mut mean = vec!["mean".to_string()];
    for s in sums {
        mean.push(format!("{:.4}", s / ALL_BENCHMARKS.len() as f64));
    }
    table.row_owned(mean);
    out.push_str(&format!("{}\n", table.render()));
    out.push_str(
        "Paper's claims to verify (Appendix A): the dynamic MRT is the most\n\
         accurate (paper mean 0.0377); Static MRT roughly triples the RMS\n\
         error (0.1038); Per-branch MRT is worst overall because lifetime\n\
         rates ignore recency (0.8895 mean, dominated by vortex).\n\n",
    );

    out.push_str("-- nonstationary stress model (drifting branch behaviour) --\n");
    let mut stress = Table::new(&["estimator", "RMS"]);
    for (name, est) in variants {
        let rms = set.rms(&CellSpec::stress(est, &p));
        stress.row_owned(vec![name.to_string(), format!("{rms:.4}")]);
    }
    out.push_str(&format!("{}\n", stress.render()));
    out.push_str(
        "Expected ordering under drift (the paper's Appendix-A mechanism):\n\
         dynamic MRT < static MRT, per-branch MRT worst — lifetime rates\n\
         average over regimes the branch is no longer in.\n",
    );
    out
}

// ------------------------------------------------------------------ //
//  Robustness (corpus sweep)                                          //
// ------------------------------------------------------------------ //

/// Every estimator kind the robustness sweep exercises, in table order.
/// `none` runs too: its cells provide the estimator-independent family
/// profile (mispredict rates, MDC spread).
pub fn robustness_estimators() -> [(&'static str, EstimatorKind); 6] {
    [
        ("PaCo", paco_estimator()),
        (
            "JRS-t3",
            EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
        ),
        ("StaticMRT", EstimatorKind::StaticMrt),
        (
            "PerBranchMRT",
            EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
        ),
        (
            "AdaptiveMRT",
            EstimatorKind::AdaptiveMrt(AdaptiveMrtConfig::paper()),
        ),
        ("none", EstimatorKind::None),
    ]
}

/// MDC buckets quoted in the per-family profile (the full 0..16 range is
/// in `fig2`; these are the knees of the curve).
const ROBUSTNESS_MDC_BUCKETS: [usize; 7] = [0, 1, 2, 3, 7, 11, 15];

fn render_robustness(set: &ResultSet<'_>) -> String {
    let p = set.spec.params;
    let estimators = robustness_estimators();
    let mut out = String::new();
    out.push_str("== Robustness: every estimator kind × every corpus family ==\n");
    out.push_str(&format!(
        "   ({} instructions/family/estimator, seed {}; families from paco-corpus,\n\
         \x20   see docs/WORKLOADS.md for the catalog)\n\n",
        p.instrs, p.seed
    ));

    // Summary matrix: probability-producing estimators only (JRS emits
    // counter scores, not probabilities; `none` emits nothing). Select
    // by capability, not display name — an empty-bin diagram would
    // render as a perfect 0.0000 RMS.
    out.push_str("-- accuracy: occurrence-weighted RMS error (lower is better) --\n");
    let prob_estimators: Vec<&(&str, EstimatorKind)> = estimators
        .iter()
        .filter(|(_, est)| {
            matches!(
                est,
                EstimatorKind::Paco(_)
                    | EstimatorKind::StaticMrt
                    | EstimatorKind::PerBranchMrt(_)
                    | EstimatorKind::AdaptiveMrt(_)
            )
        })
        .collect();
    let mut header = vec!["family"];
    header.extend(prob_estimators.iter().map(|(n, _)| *n));
    let mut matrix = Table::new(&header);
    for entry in CORPUS {
        let mut row = vec![entry.name.to_string()];
        for (_, est) in &prob_estimators {
            let cell = CellSpec::corpus(entry.family, *est, entry.seed, &p);
            row.push(format!("{:.4}", set.rms(&cell)));
        }
        matrix.row_owned(row);
    }
    out.push_str(&format!("{}\n", matrix.render()));

    for entry in CORPUS {
        let knobs: Vec<String> = entry
            .family
            .knobs()
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        out.push_str(&format!(
            "---- {} (seed {}, hash {:016x}) ----\n",
            entry.name,
            entry.seed,
            entry.family.canon_hash()
        ));
        out.push_str(&format!(
            "     {}\n     knobs: {}\n",
            entry.family.describe(),
            knobs.join(" ")
        ));

        // Estimator-independent family profile, from the `none` cell.
        let none_cell = CellSpec::corpus(entry.family, EstimatorKind::None, entry.seed, &p);
        let t = &set.get(&none_cell).stats.threads[0];
        out.push_str(&format!(
            "     cond mispredict {:.2}%   overall mispredict {:.2}%\n",
            t.cond_mispredict_pct().unwrap_or(0.0),
            t.overall_mispredict_pct().unwrap_or(0.0)
        ));
        let mut header = vec!["mdc bucket".to_string()];
        header.extend(ROBUSTNESS_MDC_BUCKETS.iter().map(|b| b.to_string()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut mdc = Table::new(&header_refs);
        let mut row = vec!["mispredict %".to_string()];
        for b in ROBUSTNESS_MDC_BUCKETS {
            row.push(match t.mdc_bucket_mispredict_pct(b) {
                Some(pct) => format!("{pct:.1}"),
                None => "-".to_string(),
            });
        }
        mdc.row_owned(row);
        out.push_str(&format!("{}\n", mdc.render()));

        // Per-estimator accuracy and coverage. "prob coverage" is the
        // share of confidence events the estimator assigned a calibrated
        // probability to — JRS emits counter scores instead, so its
        // probability coverage is 0 while its score instances are full.
        let mut table = Table::new(&[
            "estimator",
            "RMS",
            "prob inst",
            "score inst",
            "prob coverage %",
        ]);
        for (name, est) in estimators {
            let cell = CellSpec::corpus(entry.family, est, entry.seed, &p);
            let th = &set.get(&cell).stats.threads[0];
            let diagram = ReliabilityDiagram::from_bins(&th.prob_instances);
            let prob_total = diagram.total_instances();
            let score_total: u64 = th.score_instances.iter().map(|b| b.0).sum();
            let events = th.fetched + th.executed;
            table.row_owned(vec![
                name.to_string(),
                if prob_total > 0 {
                    format!("{:.4}", diagram.rms_error())
                } else {
                    "-".to_string()
                },
                prob_total.to_string(),
                score_total.to_string(),
                format!("{:.1}", coverage_pct(prob_total, events)),
            ]);
        }
        out.push_str(&format!("{}\n", table.render()));
    }

    out.push_str(
        "Reading guide: biased_bimodal is the floor (everything should be\n\
         accurate there); mispredict_storm is the adversarial ceiling — no\n\
         estimator can predict it, so the winner is whoever stays *calibrated*\n\
         (low RMS at high mispredict rates). phased_flip separates recency-aware\n\
         designs (dynamic MRT) from lifetime averages (PerBranchMRT), and\n\
         loop_nest separates history-based prediction from per-site bias.\n",
    );
    out
}

// ------------------------------------------------------------------ //
//  Ablations                                                          //
// ------------------------------------------------------------------ //

const ABLATION_PERIODS: [u64; 6] = [25_000, 50_000, 100_000, 200_000, 400_000, 800_000];
const ABLATION_LOG_MODES: [(&str, LogMode); 2] =
    [("Mitchell", LogMode::Mitchell), ("Exact", LogMode::Exact)];

fn ablation_throttle_configs() -> [(&'static str, EstimatorKind, GatingPolicy); 4] {
    [
        (
            "JRS-t3 gate@2",
            EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            GatingPolicy::CountGate { gate_count: 2 },
        ),
        (
            "JRS-t3 throttle@2",
            EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
            GatingPolicy::CountThrottle { start: 2 },
        ),
        (
            "PaCo gate@20%",
            paco_estimator(),
            GatingPolicy::paco_gate(Probability::new(0.20).unwrap()),
        ),
        (
            "PaCo throttle 60%..10%",
            paco_estimator(),
            GatingPolicy::paco_throttle(
                Probability::new(0.60).unwrap(),
                Probability::new(0.10).unwrap(),
            ),
        ),
    ]
}

fn render_ablations(set: &ResultSet<'_>) -> String {
    let p = set.spec.params;
    let mut out = String::new();
    out.push_str("== Ablations ==\n");
    out.push_str(&format!(
        "   ({} instructions/benchmark/config, seed {})\n\n",
        p.instrs, p.seed
    ));

    let mean_rms = |est: EstimatorKind| -> f64 {
        let per_bench: Vec<f64> = ALL_BENCHMARKS
            .iter()
            .map(|&b| set.rms(&CellSpec::accuracy(b, est, &p)))
            .collect();
        mean(&per_bench)
    };

    out.push_str("-- MRT refresh period (mean RMS across benchmarks) --\n");
    let mut t = Table::new(&["period (cycles)", "mean RMS"]);
    for period in ABLATION_PERIODS {
        let est = EstimatorKind::Paco(PacoConfig::paper().with_refresh_period(period));
        t.row_owned(vec![period.to_string(), format!("{:.4}", mean_rms(est))]);
    }
    out.push_str(&format!("{}\n", t.render()));
    out.push_str("Paper claim: accuracy is not very sensitive to this period.\n\n");

    out.push_str("-- Log circuit: Mitchell approximation vs exact --\n");
    let mut t = Table::new(&["log mode", "mean RMS"]);
    for (name, mode) in ABLATION_LOG_MODES {
        let est = EstimatorKind::Paco(PacoConfig::paper().with_log_mode(mode));
        t.row_owned(vec![name.to_string(), format!("{:.4}", mean_rms(est))]);
    }
    out.push_str(&format!("{}\n", t.render()));
    out.push_str("Expected: near-identical — the ratio subtraction cancels most error.\n\n");

    out.push_str("-- Selective throttling vs all-or-nothing gating (twolf) --\n");
    let mut t = Table::new(&["scheme", "perf loss %", "badpath exec red. %"]);
    for (name, est, gating) in ablation_throttle_configs() {
        let base = set.run_point(&CellSpec::gating(Twolf, est, GatingPolicy::None, &p));
        let gated = set.run_point(&CellSpec::gating(Twolf, est, gating, &p));
        let r = gating_tradeoff(base, gated);
        t.row_owned(vec![
            name.to_string(),
            format!("{:.2}", r.perf_loss_pct),
            format!("{:.1}", r.badpath_exec_reduction_pct),
        ]);
    }
    out.push_str(&format!("{}\n", t.render()));
    out.push_str(
        "Expected: throttling trades a bit of badpath reduction for less\nperformance loss; PaCo variants dominate the counter-based ones.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn tiny_params() -> RunParams {
        RunParams {
            instrs: 3_000,
            seed: 1,
            warmup: 1_000,
        }
    }

    #[test]
    fn experiment_names_round_trip() {
        for id in ALL_EXPERIMENTS {
            assert_eq!(ExperimentId::from_name(id.name()), Some(id));
        }
        assert_eq!(ExperimentId::from_name("FIG9"), Some(ExperimentId::Fig9));
        assert_eq!(ExperimentId::from_name("fig99"), None);
    }

    #[test]
    fn every_spec_builds_and_dedupes() {
        let p = tiny_params();
        for id in ALL_EXPERIMENTS {
            let spec = id.spec(p);
            assert!(!spec.cells().is_empty(), "{} spec is empty", id.name());
            // Dedup holds: no two cells equal.
            for (i, a) in spec.cells().iter().enumerate() {
                for b in &spec.cells()[i + 1..] {
                    assert_ne!(a, b, "{} has duplicate cells", id.name());
                }
            }
        }
    }

    #[test]
    fn fig10_shares_baselines() {
        let p = tiny_params();
        let spec = ExperimentId::Fig10.spec(p);
        // 12 baselines + one cell per benchmark per *distinct* gated
        // configuration. (Nearby PaCo gate percentages can quantize to
        // the same encoded threshold — those are genuinely the same run
        // and must share a cell.)
        let mut configs = fig10_configs();
        configs.dedup();
        assert_eq!(spec.cells().len(), 12 + configs.len() * 12);
        assert!(
            configs.len() >= 39,
            "expected ~40 configs, got {}",
            configs.len()
        );
    }

    #[test]
    fn fig12_shares_singles() {
        let p = tiny_params();
        let spec = ExperimentId::Fig12.spec(p);
        // 11 distinct singles + 16 pairs × 6 policies.
        assert_eq!(spec.cells().len(), 11 + 16 * 6);
    }

    #[test]
    fn fig2_renders_all_benchmarks() {
        let p = tiny_params();
        let spec = ExperimentId::Fig2.spec(p);
        let run = Engine::new().run(&spec);
        let set = ResultSet {
            spec: &spec,
            results: &run.results,
        };
        let text = ExperimentId::Fig2.render(&set);
        assert!(text.starts_with("== Figure 2"));
        for bench in ALL_BENCHMARKS {
            assert!(text.contains(bench.name()), "missing {}", bench.name());
        }
        assert!(text.ends_with('\n'));
    }
}

//! The `hotpath` experiment: the per-event vs batched confidence lanes,
//! measured head to head.
//!
//! Two lane pairs are timed over the same recorded event stream, for a
//! set of estimator kinds:
//!
//! * **pipeline** — events already in memory, straight through the
//!   pipeline: `on_instr` per event (the `dyn`-dispatched PR-3 path)
//!   vs [`OnlinePipeline::run_batch`] (the monomorphized,
//!   allocation-free batch lane).
//! * **wire** — the full `paco-served` frame hot path, wire bytes to
//!   wire bytes: decode EVENTS payload → predict → encode PREDICTIONS
//!   payload. The per-event variant is the PR-3 server loop
//!   (`decode_events` into a fresh `Vec<DynInstr>`, collect, per-event
//!   `encode_outcomes`); the batched variant is today's server loop
//!   (`decode_events_into` a reused [`EventBatch`], `run_batch`,
//!   `encode_outcomes_into` a reused buffer).
//!
//! A third wire variant, **wire+watch**, is the batched loop with
//! per-session calibration telemetry enabled
//! ([`WatchState::observe_batch`](paco_serve::WatchState) against a real
//! reference profile, resolved untimed before the passes start) — the
//! cost of watching a session, isolated. The baseline policy in
//! `docs/EXPERIMENTS.md` caps the watch lane's overhead at 5% of the
//! batched wire lane.
//!
//! A fourth wire variant, **wire+metrics**, is the batched loop with the
//! full `paco-obs` metric plane attached exactly as `paco-served` wires
//! it: one frame-counter bump, one batch-size histogram record and one
//! handle-time histogram record (with its own clock reads) per frame —
//! the cost of running metered, isolated. The baseline policy caps this
//! lane's overhead at 2% of the unmetered batched wire lane.
//!
//! `--batch N[,N…]` additionally sweeps the batched pipeline lane
//! across frame sizes, digest-gating every size against the
//! default-size outcome stream.
//!
//! Like `serve_throughput`, this is a wall-clock measurement: it
//! bypasses the engine and the result cache. The numbers only count if
//! the lanes agree — every run digests every lane's prediction payloads
//! (per-event reference, batched, watched, metered) for every estimator
//! kind the server accepts and fails on any divergence, so the benchmark
//! doubles as a parity check. The `--json` output of this experiment (plus
//! `serve_throughput`) is what `BENCH_baseline.json` at the repo root
//! records; see `docs/EXPERIMENTS.md` for how baselines are compared.

use std::time::{Duration, Instant};

use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_corpus::CalibrationProfile;
use paco_serve::proto::{
    decode_events, decode_events_into, encode_events, encode_outcomes, encode_outcomes_into,
};
use paco_serve::{Digest, FrameKind, ServeMetrics, WatchState};
use paco_sim::{EstimatorKind, OnlineConfig, OnlinePipeline, OutcomeBatch};
use paco_types::{DynInstr, EventBatch};
use paco_workloads::{BenchmarkId, Workload};

use crate::runner::{default_instrs, default_seed};

/// Default instruction-stream length the event trace is extracted from
/// (`PACO_INSTRS` overrides).
pub const DEFAULT_INSTRS: u64 = 400_000;

/// Default events per frame/batch, matching the serve defaults
/// (`paco-bench run hotpath --batch N[,N…]` sweeps other sizes).
pub const DEFAULT_BATCH: usize = 512;

/// Timed passes per lane; the best pass is reported (the lanes are
/// deterministic, so the best pass is the least-perturbed one).
const PASSES: u32 = 5;

/// One lane pair: events/second through each lane, and the ratio.
#[derive(Debug, Clone, Copy)]
pub struct LanePair {
    /// Events/second through the per-event lane.
    pub per_event_eps: f64,
    /// Events/second through the batched lane.
    pub batched_eps: f64,
}

impl LanePair {
    /// Batched-over-per-event throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.batched_eps / self.per_event_eps.max(1e-9)
    }
}

/// Measurements for one estimator kind.
#[derive(Debug, Clone)]
pub struct HotpathRow {
    /// The estimator's display name.
    pub estimator: String,
    /// In-memory pipeline lanes.
    pub pipeline: LanePair,
    /// Wire-to-wire (decode + predict + encode) lanes.
    pub wire: LanePair,
    /// Events/second through the batched wire lane with watch telemetry
    /// enabled.
    pub wire_watch_eps: f64,
    /// Events/second through the batched wire lane with the `paco-obs`
    /// metric plane attached (the `paco-served` per-frame recording).
    pub wire_metrics_eps: f64,
}

impl HotpathRow {
    /// Watch-lane overhead as a fraction of batched wire throughput
    /// (0.03 = watching costs 3%; negative = noise in the lane's favor).
    pub fn watch_overhead(&self) -> f64 {
        1.0 - self.wire_watch_eps / self.wire.batched_eps.max(1e-9)
    }

    /// Metric-plane overhead as a fraction of batched wire throughput
    /// (0.01 = metering costs 1%; negative = noise in the lane's favor).
    pub fn metrics_overhead(&self) -> f64 {
        1.0 - self.wire_metrics_eps / self.wire.batched_eps.max(1e-9)
    }
}

/// One estimator's batched-pipeline throughput at one swept batch size.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The estimator's display name.
    pub estimator: String,
    /// Events/second through the batched pipeline lane at this size.
    pub batched_eps: f64,
    /// Ratio against the same run's per-event pipeline lane.
    pub speedup: f64,
}

/// All estimators' batched-pipeline throughput at one swept batch size.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Events per batch at this sweep point.
    pub batch: usize,
    /// One cell per estimator kind, in the report's row order.
    pub cells: Vec<SweepCell>,
}

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct HotpathReport {
    /// Branch events per pass.
    pub events: u64,
    /// Events per frame/batch.
    pub batch: usize,
    /// Timed passes per lane.
    pub passes: u32,
    /// Per-estimator measurements.
    pub rows: Vec<HotpathRow>,
    /// Speedup-vs-batch-size curve (`--batch` sweep; empty otherwise).
    pub sweep: Vec<SweepPoint>,
}

/// Runs the experiment at the env-configured scale (`PACO_INSTRS` /
/// `PACO_SEED`); returns the report or a human-readable error (lane
/// divergence is an error, not a number).
pub fn run_hotpath() -> Result<HotpathReport, String> {
    run_at(default_instrs(DEFAULT_INSTRS), default_seed())
}

/// [`run_hotpath`] plus a batched-pipeline sweep over `batches` sizes
/// (the `--batch` flag); each sweep point re-chunks the same event
/// stream and is digest-gated against the default-size lane before it
/// is timed.
pub fn run_hotpath_sweep(batches: &[usize]) -> Result<HotpathReport, String> {
    run_at_sweep(default_instrs(DEFAULT_INSTRS), default_seed(), batches)
}

/// The estimator kinds the experiment sweeps: every kind the server
/// accepts, so each one is digest-gated through every wire lane.
fn kinds() -> [EstimatorKind; 6] {
    [
        EstimatorKind::None,
        EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
        EstimatorKind::Paco(PacoConfig::paper()),
        EstimatorKind::StaticMrt,
        EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
        EstimatorKind::AdaptiveMrt(AdaptiveMrtConfig::paper()),
    ]
}

/// Runs the experiment at an explicit scale (tests use this directly so
/// they never mutate process environment).
pub fn run_at(instrs: u64, seed: u64) -> Result<HotpathReport, String> {
    run_at_sweep(instrs, seed, &[])
}

/// [`run_at`] plus the batch-size sweep, at an explicit scale.
pub fn run_at_sweep(
    instrs: u64,
    seed: u64,
    sweep_sizes: &[usize],
) -> Result<HotpathReport, String> {
    // The control-event stream of a gzip run — the same extraction the
    // serve_throughput experiment and paco-load's trace replay use.
    let mut workload = BenchmarkId::Gzip.build(seed);
    let events: Vec<DynInstr> = (0..instrs)
        .map(|_| workload.next_instr())
        .filter(|i| i.class.is_control())
        .collect();
    if events.is_empty() {
        return Err("no control events generated".into());
    }
    if let Some(&bad) = sweep_sizes.iter().find(|&&b| b == 0) {
        return Err(format!("invalid sweep batch size {bad}"));
    }

    // Pre-built inputs, shared by all lanes: encoded EVENTS payloads for
    // the wire lanes, struct-of-arrays batches for the batched pipeline
    // lane (its native input shape, as produced by the serve decoder).
    let frames: Vec<Vec<u8>> = events.chunks(DEFAULT_BATCH).map(encode_events).collect();
    let batches: Vec<EventBatch> = events.chunks(DEFAULT_BATCH).map(EventBatch::from).collect();

    // The watch lane's reference profile, resolved (and lazily computed)
    // before any pass is timed so its one-time cost never lands inside a
    // measurement.
    let reference = *paco_corpus::reference_profile("biased_bimodal")
        .ok_or("reference profile for biased_bimodal missing")?;

    let mut rows = Vec::new();
    for kind in kinds() {
        let config = OnlineConfig::paper(kind);
        let estimator = OnlinePipeline::new(&config).estimator_name();

        // Parity gate (untimed): all lanes' prediction payloads must
        // digest identically before any number is reported. The watched
        // lane is included too — telemetry must never change the bytes.
        let per_event_digest = digest_per_event(&config, &frames)?;
        let batched_digest = digest_batched(&config, &frames)?;
        if per_event_digest != batched_digest {
            return Err(format!(
                "lane divergence for {estimator}: per-event digest {per_event_digest:016x} \
                 != batched digest {batched_digest:016x}"
            ));
        }
        let watched_digest = digest_watched(&config, &frames, &reference)?;
        if watched_digest != batched_digest {
            return Err(format!(
                "watch lane perturbed predictions for {estimator}: watched digest \
                 {watched_digest:016x} != batched digest {batched_digest:016x}"
            ));
        }
        // The metered lane records into a real server metric plane; its
        // one contract is that recording is observational, so it is held
        // to the same byte-parity gate as every other lane.
        let metrics = ServeMetrics::new();
        let metered_digest = digest_metered(&config, &frames, &metrics)?;
        if metered_digest != batched_digest {
            return Err(format!(
                "metric plane perturbed predictions for {estimator}: metered digest \
                 {metered_digest:016x} != batched digest {batched_digest:016x}"
            ));
        }

        let pipeline = LanePair {
            per_event_eps: eps(
                events.len(),
                best_of(PASSES, || pipeline_per_event(&config, &events)),
            ),
            batched_eps: eps(
                events.len(),
                best_of(PASSES, || pipeline_batched(&config, &batches)),
            ),
        };
        let wire = LanePair {
            per_event_eps: eps(
                events.len(),
                best_of(PASSES, || wire_per_event(&config, &frames)),
            ),
            batched_eps: eps(
                events.len(),
                best_of(PASSES, || wire_batched(&config, &frames)),
            ),
        };
        let wire_watch_eps = eps(
            events.len(),
            best_of(PASSES, || wire_watched(&config, &frames, &reference)),
        );
        let wire_metrics_eps = eps(
            events.len(),
            best_of(PASSES, || wire_metered(&config, &frames, &metrics)),
        );
        rows.push(HotpathRow {
            estimator,
            pipeline,
            wire,
            wire_watch_eps,
            wire_metrics_eps,
        });
    }

    // The `--batch` sweep: the batched pipeline lane re-timed at each
    // requested frame size, against the default-size per-event lane
    // already in `rows`. Chunking must never change the outcome stream,
    // so every size is digest-gated against the default-size lane
    // before it is timed.
    let mut sweep = Vec::new();
    for &size in sweep_sizes {
        let sized: Vec<EventBatch> = events.chunks(size).map(EventBatch::from).collect();
        let mut cells = Vec::new();
        for (kind, row) in kinds().into_iter().zip(&rows) {
            let config = OnlineConfig::paper(kind);
            let base = digest_outcomes(&config, &batches);
            let at_size = digest_outcomes(&config, &sized);
            if at_size != base {
                return Err(format!(
                    "batch-size divergence for {} at batch {size}: digest {at_size:016x} \
                     != default-size digest {base:016x}",
                    row.estimator
                ));
            }
            let batched_eps = eps(
                events.len(),
                best_of(PASSES, || pipeline_batched(&config, &sized)),
            );
            cells.push(SweepCell {
                estimator: row.estimator.clone(),
                batched_eps,
                speedup: batched_eps / row.pipeline.per_event_eps.max(1e-9),
            });
        }
        sweep.push(SweepPoint { batch: size, cells });
    }

    Ok(HotpathReport {
        events: events.len() as u64,
        batch: DEFAULT_BATCH,
        passes: PASSES,
        rows,
        sweep,
    })
}

fn eps(events: usize, elapsed: Duration) -> f64 {
    events as f64 / elapsed.as_secs_f64().max(1e-9)
}

fn best_of(passes: u32, mut lane: impl FnMut() -> Duration) -> Duration {
    (0..passes.max(1)).map(|_| lane()).min().unwrap()
}

fn pipeline_per_event(config: &OnlineConfig, events: &[DynInstr]) -> Duration {
    let mut pipe = OnlinePipeline::new(config);
    let mut out = Vec::with_capacity(DEFAULT_BATCH);
    let t0 = Instant::now();
    for chunk in events.chunks(DEFAULT_BATCH) {
        out.clear();
        out.extend(chunk.iter().filter_map(|i| pipe.on_instr(i)));
        std::hint::black_box(&out);
    }
    t0.elapsed()
}

fn pipeline_batched(config: &OnlineConfig, batches: &[EventBatch]) -> Duration {
    let cap = batches.first().map_or(0, EventBatch::len);
    let mut pipe = OnlinePipeline::new(config);
    let mut out = OutcomeBatch::with_capacity(cap);
    let t0 = Instant::now();
    for batch in batches {
        out.clear();
        pipe.run_batch(batch, &mut out);
        std::hint::black_box(&out);
    }
    t0.elapsed()
}

/// Digest of the raw outcome stream (flags, scores, probability bits)
/// produced by the batched pipeline over `batches` — frame-boundary
/// free, so runs chunked at different batch sizes are comparable.
fn digest_outcomes(config: &OnlineConfig, batches: &[EventBatch]) -> u64 {
    let mut pipe = OnlinePipeline::new(config);
    let mut out = OutcomeBatch::new();
    // One digest per outcome array, combined at the end: interleaving
    // the arrays per frame would make the digest depend on where the
    // frame boundaries fall, which is exactly what this gate must not
    // be sensitive to.
    let mut flags = Digest::new();
    let mut scores = Digest::new();
    let mut probs = Digest::new();
    for batch in batches {
        out.clear();
        pipe.run_batch(batch, &mut out);
        flags.update(out.flags());
        for &s in out.scores() {
            scores.update(&s.to_le_bytes());
        }
        for &p in out.prob_bits() {
            probs.update(&p.to_le_bytes());
        }
    }
    let mut combined = Digest::new();
    combined.update(&flags.value().to_le_bytes());
    combined.update(&scores.value().to_le_bytes());
    combined.update(&probs.value().to_le_bytes());
    combined.value()
}

/// The PR-3 `paco-served` frame loop: allocate-and-collect per frame.
fn wire_per_event(config: &OnlineConfig, frames: &[Vec<u8>]) -> Duration {
    let mut pipe = OnlinePipeline::new(config);
    let t0 = Instant::now();
    for frame in frames {
        let instrs = decode_events(frame).expect("self-encoded frame");
        let outcomes: Vec<_> = instrs.iter().filter_map(|i| pipe.on_instr(i)).collect();
        let payload = encode_outcomes(&outcomes);
        std::hint::black_box(&payload);
    }
    t0.elapsed()
}

/// Today's `paco-served` frame loop: reused batches, zero dispatch.
fn wire_batched(config: &OnlineConfig, frames: &[Vec<u8>]) -> Duration {
    let mut pipe = OnlinePipeline::new(config);
    let mut batch = EventBatch::new();
    let mut out = OutcomeBatch::new();
    let mut payload = Vec::new();
    let t0 = Instant::now();
    for frame in frames {
        decode_events_into(frame, &mut batch).expect("self-encoded frame");
        out.clear();
        pipe.run_batch(&batch, &mut out);
        payload.clear();
        encode_outcomes_into(&mut payload, &out);
        std::hint::black_box(&payload);
    }
    t0.elapsed()
}

/// The watched `paco-served` frame loop: the batched lane plus
/// per-session calibration telemetry — what serving a declared session
/// costs with `paco-watch` enabled.
fn wire_watched(
    config: &OnlineConfig,
    frames: &[Vec<u8>],
    reference: &CalibrationProfile,
) -> Duration {
    let mut pipe = OnlinePipeline::new(config);
    let mut watch = WatchState::new(Some("biased_bimodal".into()), Some(*reference));
    let mut batch = EventBatch::new();
    let mut out = OutcomeBatch::new();
    let mut payload = Vec::new();
    let t0 = Instant::now();
    for frame in frames {
        decode_events_into(frame, &mut batch).expect("self-encoded frame");
        out.clear();
        pipe.run_batch(&batch, &mut out);
        watch.observe_batch(&out);
        payload.clear();
        encode_outcomes_into(&mut payload, &out);
        std::hint::black_box(&payload);
    }
    std::hint::black_box(watch.events());
    t0.elapsed()
}

/// The metered `paco-served` frame loop: the batched lane plus exactly
/// the per-frame recording the server does — a frame-counter bump, a
/// batch-size histogram record, and a handle-time histogram record with
/// its own two clock reads. What running with `--metrics-addr` scraping
/// enabled costs the hot path.
fn wire_metered(config: &OnlineConfig, frames: &[Vec<u8>], metrics: &ServeMetrics) -> Duration {
    let mut pipe = OnlinePipeline::new(config);
    let mut batch = EventBatch::new();
    let mut out = OutcomeBatch::new();
    let mut payload = Vec::new();
    let t0 = Instant::now();
    for frame in frames {
        let f0 = Instant::now();
        decode_events_into(frame, &mut batch).expect("self-encoded frame");
        out.clear();
        pipe.run_batch(&batch, &mut out);
        payload.clear();
        encode_outcomes_into(&mut payload, &out);
        metrics.frame(FrameKind::Events).inc();
        metrics.batch_events.record(batch.len() as u64);
        metrics
            .batch_handle_ns
            .record(f0.elapsed().as_nanos() as u64);
        std::hint::black_box(&payload);
    }
    t0.elapsed()
}

fn digest_per_event(config: &OnlineConfig, frames: &[Vec<u8>]) -> Result<u64, String> {
    let mut pipe = OnlinePipeline::new(config);
    let mut digest = Digest::new();
    for frame in frames {
        let instrs = decode_events(frame).map_err(|e| e.to_string())?;
        let outcomes: Vec<_> = instrs.iter().filter_map(|i| pipe.on_instr(i)).collect();
        digest.update(&encode_outcomes(&outcomes));
    }
    Ok(digest.value())
}

fn digest_batched(config: &OnlineConfig, frames: &[Vec<u8>]) -> Result<u64, String> {
    let mut pipe = OnlinePipeline::new(config);
    let mut batch = EventBatch::new();
    let mut out = OutcomeBatch::new();
    let mut payload = Vec::new();
    let mut digest = Digest::new();
    for frame in frames {
        decode_events_into(frame, &mut batch).map_err(|e| e.to_string())?;
        out.clear();
        pipe.run_batch(&batch, &mut out);
        payload.clear();
        encode_outcomes_into(&mut payload, &out);
        digest.update(&payload);
    }
    Ok(digest.value())
}

/// Same stream through the metered loop — recording into a live metric
/// plane must never change the prediction bytes.
fn digest_metered(
    config: &OnlineConfig,
    frames: &[Vec<u8>],
    metrics: &ServeMetrics,
) -> Result<u64, String> {
    let mut pipe = OnlinePipeline::new(config);
    let mut batch = EventBatch::new();
    let mut out = OutcomeBatch::new();
    let mut payload = Vec::new();
    let mut digest = Digest::new();
    for frame in frames {
        let f0 = Instant::now();
        decode_events_into(frame, &mut batch).map_err(|e| e.to_string())?;
        out.clear();
        pipe.run_batch(&batch, &mut out);
        payload.clear();
        encode_outcomes_into(&mut payload, &out);
        metrics.frame(FrameKind::Events).inc();
        metrics.batch_events.record(batch.len() as u64);
        metrics
            .batch_handle_ns
            .record(f0.elapsed().as_nanos() as u64);
        digest.update(&payload);
    }
    Ok(digest.value())
}

fn digest_watched(
    config: &OnlineConfig,
    frames: &[Vec<u8>],
    reference: &CalibrationProfile,
) -> Result<u64, String> {
    let mut pipe = OnlinePipeline::new(config);
    let mut watch = WatchState::new(Some("biased_bimodal".into()), Some(*reference));
    let mut batch = EventBatch::new();
    let mut out = OutcomeBatch::new();
    let mut payload = Vec::new();
    let mut digest = Digest::new();
    for frame in frames {
        decode_events_into(frame, &mut batch).map_err(|e| e.to_string())?;
        out.clear();
        pipe.run_batch(&batch, &mut out);
        watch.observe_batch(&out);
        payload.clear();
        encode_outcomes_into(&mut payload, &out);
        digest.update(&payload);
    }
    Ok(digest.value())
}

/// Renders the experiment artifact (text mode).
pub fn render_text(report: &HotpathReport) -> String {
    use paco_analysis::Table;
    let mut out = String::new();
    out.push_str("== hotpath: per-event vs batched confidence lanes ==\n");
    out.push_str(&format!(
        "   ({} events, batch {}, best of {} passes; parity verified per run)\n\n",
        report.events, report.batch, report.passes
    ));
    let mut table = Table::new(&[
        "estimator",
        "pipeline/event (ev/s)",
        "pipeline/batch (ev/s)",
        "speedup",
        "wire/event (ev/s)",
        "wire/batch (ev/s)",
        "speedup",
        "wire+watch (ev/s)",
        "watch ovh",
        "wire+metrics (ev/s)",
        "metrics ovh",
    ]);
    for row in &report.rows {
        table.row_owned(vec![
            row.estimator.clone(),
            format!("{:.0}", row.pipeline.per_event_eps),
            format!("{:.0}", row.pipeline.batched_eps),
            format!("{:.2}x", row.pipeline.speedup()),
            format!("{:.0}", row.wire.per_event_eps),
            format!("{:.0}", row.wire.batched_eps),
            format!("{:.2}x", row.wire.speedup()),
            format!("{:.0}", row.wire_watch_eps),
            format!("{:.1}%", row.watch_overhead() * 100.0),
            format!("{:.0}", row.wire_metrics_eps),
            format!("{:.1}%", row.metrics_overhead() * 100.0),
        ]);
    }
    out.push_str(&format!("{}\n", table.render()));

    if !report.sweep.is_empty() {
        out.push_str("speedup vs batch size (batched pipeline lane):\n");
        let mut sweep = Table::new(&["batch", "estimator", "batched (ev/s)", "speedup"]);
        for point in &report.sweep {
            for cell in &point.cells {
                sweep.row_owned(vec![
                    point.batch.to_string(),
                    cell.estimator.clone(),
                    format!("{:.0}", cell.batched_eps),
                    format!("{:.2}x", cell.speedup),
                ]);
            }
        }
        out.push_str(&format!("{}\n", sweep.render()));
    }

    out.push_str(
        "All lanes' prediction payloads were digest-compared this run\n\
         (byte-identical, or this experiment errors out); `wire` spans\n\
         decode EVENTS -> predict -> encode PREDICTIONS, the full\n\
         paco-served frame hot path, `wire+watch` adds per-session\n\
         calibration telemetry (the paco-watch lane), and `wire+metrics`\n\
         adds the paco-obs metric plane's per-frame recording (the\n\
         --metrics-addr lane).\n",
    );
    out
}

/// Renders the report as deterministic-key-order JSON (values are
/// measurements, so numbers vary run to run and across machines).
pub fn render_json(report: &HotpathReport) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"events\":{},\"batch\":{},\"passes\":{},\"estimators\":[",
        report.events, report.batch, report.passes
    ));
    for (i, row) in report.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let lane = |p: &LanePair| {
            format!(
                "{{\"per_event_eps\":{:.0},\"batched_eps\":{:.0},\"speedup\":{:.3}}}",
                p.per_event_eps,
                p.batched_eps,
                p.speedup()
            )
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"pipeline\":{},\"wire\":{},\"wire_watch_eps\":{:.0},\
             \"watch_overhead\":{:.4},\"wire_metrics_eps\":{:.0},\"metrics_overhead\":{:.4},\
             \"parity\":true}}",
            row.estimator,
            lane(&row.pipeline),
            lane(&row.wire),
            row.wire_watch_eps,
            row.watch_overhead(),
            row.wire_metrics_eps,
            row.metrics_overhead(),
        ));
    }
    out.push_str("],\"sweep\":[");
    for (i, point) in report.sweep.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"batch\":{},\"estimators\":[", point.batch));
        for (j, cell) in point.cells.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"batched_eps\":{:.0},\"speedup\":{:.3}}}",
                cell.estimator, cell.batched_eps, cell.speedup
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotpath_runs_and_holds_parity() {
        // Small but long enough to fill the in-flight window and cross
        // frame boundaries; run_at fails on any lane divergence.
        let report = run_at(20_000, 42).expect("hotpath runs");
        assert_eq!(report.rows.len(), kinds().len());
        assert!(report.sweep.is_empty());
        for row in &report.rows {
            assert!(row.pipeline.per_event_eps > 0.0);
            assert!(row.pipeline.batched_eps > 0.0);
            assert!(row.wire.per_event_eps > 0.0);
            assert!(row.wire.batched_eps > 0.0);
            // Throughput only; the 5% watch and 2% metrics overhead
            // budgets are baseline policy (docs/EXPERIMENTS.md), not
            // unit-test assertions — timing assertions flake under CI
            // load.
            assert!(row.wire_watch_eps > 0.0);
            assert!(row.wire_metrics_eps > 0.0);
        }
        let text = render_text(&report);
        assert!(text.contains("hotpath"));
        for row in &report.rows {
            assert!(text.contains(&row.estimator), "missing {}", row.estimator);
        }
        let json = render_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"pipeline\":"));
        assert!(json.contains("\"speedup\":"));
        assert!(json.contains("\"wire_watch_eps\":"));
        assert!(json.contains("\"watch_overhead\":"));
        assert!(json.contains("\"wire_metrics_eps\":"));
        assert!(json.contains("\"metrics_overhead\":"));
        for row in &report.rows {
            assert!(json.contains(&format!("\"name\":\"{}\"", row.estimator)));
        }
        assert!(json.contains("\"parity\":true"));
        assert!(json.contains("\"sweep\":[]"));
    }

    #[test]
    fn hotpath_sweep_gates_and_reports_every_size() {
        // Non-lane-multiple and tiny sizes included on purpose: the
        // sweep digest gate proves chunking never changes the outcome
        // stream, whatever the frame size.
        let report = run_at_sweep(12_000, 7, &[48, 100]).expect("sweep runs");
        assert_eq!(report.sweep.len(), 2);
        for (point, &size) in report.sweep.iter().zip(&[48usize, 100]) {
            assert_eq!(point.batch, size);
            assert_eq!(point.cells.len(), kinds().len());
            for cell in &point.cells {
                assert!(cell.batched_eps > 0.0);
                assert!(cell.speedup > 0.0);
            }
        }
        assert!(run_at_sweep(12_000, 7, &[0]).is_err());
        let text = render_text(&report);
        assert!(text.contains("speedup vs batch size"));
        let json = render_json(&report);
        assert!(json.contains("\"sweep\":[{\"batch\":48,"));
    }
}

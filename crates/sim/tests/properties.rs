//! Property-based lane-parity tests for the online pipeline.
//!
//! The batched lane (`run_batch`) must be byte-equivalent to the scalar
//! per-event reference (`on_instr`) for **every** estimator kind, at
//! **every** batch sizing. These properties also pin snapshot
//! save/restore at an arbitrary cut: a blob taken at any event index
//! must resume bit-identically however either side of the stream is
//! batched. The last property draws the configuration itself — table
//! sizes, history and counter widths, the enhanced bit, the window, the
//! tick rate and short refresh periods — so a kernel that hoists a
//! mask or a bound wrongly diverges from the per-event lane here.

use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_branch::{ConfidenceConfig, TournamentConfig};
use paco_sim::{EstimatorKind, OnlineConfig, OnlinePipeline, OutcomeBatch};
use paco_types::{DynInstr, EventBatch};
use paco_workloads::{BenchmarkId, Workload};
use proptest::prelude::*;

/// Every estimator kind the pipeline can host — the batched lane must
/// hold parity for all of them, not just the benched three.
fn all_kinds() -> Vec<EstimatorKind> {
    vec![
        EstimatorKind::None,
        EstimatorKind::Paco(PacoConfig::paper()),
        EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
        EstimatorKind::StaticMrt,
        EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
        // Hot-tuned so periodic refreshes, CUSUM latches, and early
        // refreshes all actually fire within a few hundred events —
        // paper() would sit idle at property-test stream lengths.
        EstimatorKind::AdaptiveMrt(
            AdaptiveMrtConfig::paper()
                .with_refresh_period(500)
                .with_detect_window(16),
        ),
    ]
}

/// A control-event stream from the synthetic gzip workload — the same
/// extraction `servebench` and the serve parity tests use.
fn control_events(seed: u64, count: usize) -> Vec<DynInstr> {
    let mut workload = BenchmarkId::Gzip.build(seed);
    let mut events = Vec::with_capacity(count);
    while events.len() < count {
        let instr = workload.next_instr();
        if instr.class.is_control() {
            events.push(instr);
        }
    }
    events
}

/// Runs the scalar per-event reference lane over `events`.
fn run_per_event(config: &OnlineConfig, events: &[DynInstr]) -> OutcomeBatch {
    let mut pipe = OnlinePipeline::new(config);
    let mut out = OutcomeBatch::new();
    for instr in events {
        if let Some(outcome) = pipe.on_instr(instr) {
            out.push(&outcome);
        }
    }
    out
}

/// Feeds `events` through `pipe`'s batched lane in consecutive batches
/// whose sizes cycle through `sizes`, appending outcomes to `all`.
fn drive(pipe: &mut OnlinePipeline, events: &[DynInstr], sizes: &[usize], all: &mut OutcomeBatch) {
    let mut out = OutcomeBatch::new();
    let mut rest = events;
    let mut cycle = sizes.iter().copied().cycle();
    while !rest.is_empty() {
        let take = cycle.next().unwrap().min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        out.clear();
        pipe.run_batch(&EventBatch::from(chunk), &mut out);
        for o in out.iter() {
            all.push(&o);
        }
        rest = tail;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched lane == scalar for every estimator kind under arbitrary
    /// batch sizing.
    #[test]
    fn batched_lane_matches_scalar_oracle_at_any_batch_size(
        seed in any::<u64>(),
        count in 64usize..400,
        sizes in proptest::collection::vec(1usize..70, 1..5),
    ) {
        let events = control_events(seed, count);
        for kind in all_kinds() {
            let config = OnlineConfig::paper(kind);
            let reference = run_per_event(&config, &events);
            let mut fused = OutcomeBatch::new();
            drive(&mut OnlinePipeline::new(&config), &events, &sizes, &mut fused);
            prop_assert_eq!(
                &reference,
                &fused,
                "fused-lane divergence for {}",
                OnlinePipeline::new(&config).estimator_name()
            );
        }
    }

    /// A snapshot taken at an arbitrary event index restores into a
    /// fresh pipeline that finishes the stream bit-identically, whatever
    /// batch sizing either side of the cut uses. Both sides run through
    /// `run_batch`, so the restored in-flight window must resolve
    /// correctly inside a batch.
    #[test]
    fn snapshot_restore_at_any_cut_matches_scalar_oracle(
        seed in any::<u64>(),
        count in 96usize..320,
        cut in 1usize..95,
        pre_sizes in proptest::collection::vec(1usize..50, 1..4),
        post_sizes in proptest::collection::vec(1usize..50, 1..4),
    ) {
        let events = control_events(seed, count);
        let cut = cut.min(events.len() - 1);
        for kind in all_kinds() {
            let config = OnlineConfig::paper(kind);

            // Reference: the scalar lane over the whole stream.
            let reference = run_per_event(&config, &events);

            // Batched prefix, snapshot mid-stream, restore, batched rest.
            let mut pipe = OnlinePipeline::new(&config);
            let mut all = OutcomeBatch::new();
            drive(&mut pipe, &events[..cut], &pre_sizes, &mut all);

            let mut blob = Vec::new();
            pipe.save_state(&mut blob);
            let mut restored = OnlinePipeline::new(&config);
            prop_assert!(restored.load_state(&mut blob.as_slice()), "restore failed");
            drive(&mut restored, &events[cut..], &post_sizes, &mut all);

            prop_assert_eq!(
                &reference,
                &all,
                "post-restore divergence for {}",
                OnlinePipeline::new(&config).estimator_name()
            );
        }
    }

    /// Batched lane with a snapshot cut == scalar for every estimator
    /// kind under a drawn configuration. The refresh periods are short
    /// enough that PaCo and the MRT kinds refresh within the stream, so
    /// their scores leave 0.
    #[test]
    fn batched_lane_matches_scalar_oracle_under_any_configuration(
        seed in any::<u64>(),
        log_sizes in proptest::collection::vec(4u32..=12, 5..6),
        history_bits in (1u32..=64, 1u32..=64),
        mdc in (1u32..=8, any::<bool>(), 0u8..=16),
        window in (0usize..=64, 1u64..=8),
        refresh in (1u64..300, 1u32..40),
        batching in (
            proptest::collection::vec(1usize..90, 1..4),
            proptest::collection::vec(1usize..90, 1..4),
            0usize..400,
        ),
    ) {
        let (counter_bits, enhanced, threshold) = mdc;
        let (resolve_lag, ticks_per_event) = window;
        let (refresh_period, detect_window) = refresh;
        let (pre_sizes, post_sizes, cut) = batching;
        let size = |i: usize| 1usize << log_sizes[i];
        let kinds = [
            EstimatorKind::None,
            EstimatorKind::Paco(PacoConfig::paper().with_refresh_period(refresh_period)),
            EstimatorKind::ThresholdCount(ThresholdCountConfig { threshold }),
            EstimatorKind::StaticMrt,
            EstimatorKind::PerBranchMrt(PerBranchMrtConfig {
                entries: size(4),
                ..PerBranchMrtConfig::paper()
            }),
            EstimatorKind::AdaptiveMrt(
                AdaptiveMrtConfig::paper()
                    .with_refresh_period(refresh_period)
                    .with_detect_window(detect_window),
            ),
        ];
        let events = control_events(seed, 400);
        let cut = cut.min(events.len());
        for estimator in kinds {
            let config = OnlineConfig {
                tournament: TournamentConfig {
                    gshare_entries: size(0),
                    bimodal_entries: size(1),
                    selector_entries: size(2),
                    history_bits: history_bits.0,
                },
                confidence: ConfidenceConfig {
                    entries: size(3),
                    counter_bits,
                    history_bits: history_bits.1,
                    enhanced,
                },
                estimator,
                resolve_lag,
                ticks_per_event,
            };
            prop_assert!(config.validate().is_ok(), "drew an invalid config: {:?}", config);
            let reference = run_per_event(&config, &events);

            let mut pipe = OnlinePipeline::new(&config);
            let mut all = OutcomeBatch::new();
            drive(&mut pipe, &events[..cut], &pre_sizes, &mut all);
            let mut blob = Vec::new();
            pipe.save_state(&mut blob);
            let mut restored = OnlinePipeline::new(&config);
            prop_assert!(restored.load_state(&mut blob.as_slice()), "restore failed: {:?}", config);
            drive(&mut restored, &events[cut..], &post_sizes, &mut all);

            prop_assert_eq!(&reference, &all, "batched-lane divergence under {:?}", config);
        }
    }
}

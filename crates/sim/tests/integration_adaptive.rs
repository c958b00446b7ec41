//! Cross-lane differential matrix for every estimator kind.
//!
//! The proptest suite in `properties.rs` samples this space randomly;
//! this file walks it deterministically so a failure names the exact
//! cell: estimator kind × batch sizing × snapshot cut.
//! Every cell must be *outcome*-identical (the `OutcomeBatch` SoA
//! compares equal) **and** *wire-byte*-identical (the packed flag /
//! uvarint-score / prob-bits image the serve plane streams is built
//! here from the batch and compared byte for byte) to the scalar
//! per-event oracle.
//!
//! Also hosts the canon-tag exhaustiveness guard: the `match` in
//! `variant_tag` has no wildcard arm, so adding an `EstimatorKind`
//! variant fails compilation here until the new kind is enrolled in
//! the matrix, tagged distinctly, and proven to snapshot-round-trip.

use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_sim::{EstimatorKind, OnlineConfig, OnlinePipeline, OutcomeBatch};
use paco_types::canon::Canon;
use paco_types::{DynInstr, EventBatch};
use paco_workloads::{BenchmarkId, Workload};

/// Every estimator kind, tuned so its interesting machinery actually
/// runs at integration-test stream lengths (refreshes, CUSUM latches,
/// early refreshes for the adaptive kind).
fn roster() -> Vec<(&'static str, EstimatorKind)> {
    vec![
        ("none", EstimatorKind::None),
        ("paco", EstimatorKind::Paco(PacoConfig::paper())),
        (
            "jrs",
            EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
        ),
        ("static", EstimatorKind::StaticMrt),
        (
            "perbranch",
            EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
        ),
        (
            "adaptive",
            EstimatorKind::AdaptiveMrt(
                AdaptiveMrtConfig::paper()
                    .with_refresh_period(400)
                    .with_detect_window(16),
            ),
        ),
    ]
}

/// Batch sizings for the matrix: single-event batches, odd and mixed
/// cycles, and batches larger than the in-flight window, so resolves
/// land both inside a batch and across batch boundaries.
const SIZINGS: [&[usize]; 6] = [&[1], &[3, 5, 7], &[16], &[17], &[23, 1, 64], &[160]];

/// Snapshot cut points: before, at about, and well past the point where
/// the in-flight window first fills.
const CUTS: [usize; 3] = [7, 33, 101];

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

/// The serve-plane wire image of an outcome batch: count, then per
/// outcome the flag byte and the uvarint score (PREDICTIONS v3 sends
/// no probability bytes). Rebuilt here independently so lane
/// divergence that happens to cancel in `PartialEq` (it cannot, but
/// the wire image is the contract) is still caught at the byte level.
fn wire_bytes(batch: &OutcomeBatch) -> Vec<u8> {
    fn uvarint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                break;
            }
            out.push(byte | 0x80);
        }
    }
    let mut out = Vec::new();
    uvarint(&mut out, batch.len() as u64);
    for i in 0..batch.len() {
        out.push(batch.flags()[i]);
        uvarint(&mut out, batch.scores()[i]);
    }
    out
}

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

/// Feeds `events` through `pipe` in batches cycling through `sizes`,
/// appending outcomes to `all`.
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

/// kind × sizing: the batched lane equals the scalar oracle in outcomes
/// and in wire bytes, at every batch sizing in the matrix.
#[test]
fn differential_matrix_outcomes_and_wire_bytes() {
    let events = control_events(0x5eed_ad0b_e500_0001, 520);
    for (label, kind) in roster() {
        let config = OnlineConfig::paper(kind);
        let reference = run_per_event(&config, &events);
        let reference_wire = wire_bytes(&reference);
        for (si, sizes) in SIZINGS.iter().enumerate() {
            let mut got = OutcomeBatch::new();
            drive(&mut OnlinePipeline::new(&config), &events, sizes, &mut got);
            assert_eq!(
                reference, got,
                "outcome divergence: kind={label} sizing#{si}={sizes:?}"
            );
            assert_eq!(
                reference_wire,
                wire_bytes(&got),
                "wire-byte divergence: kind={label} sizing#{si}={sizes:?}"
            );
        }
    }
}

/// kind × cut: a snapshot taken mid-stream restores into a fresh
/// pipeline that finishes the stream identically, and the restored blob
/// re-saves byte-identically before any further events.
#[test]
fn differential_matrix_snapshot_cuts() {
    let events = control_events(0x5eed_ad0b_e500_0002, 360);
    for (label, kind) in roster() {
        let config = OnlineConfig::paper(kind);
        let reference = run_per_event(&config, &events);
        let reference_wire = wire_bytes(&reference);
        for cut in CUTS {
            let mut all = OutcomeBatch::new();
            let mut pipe = OnlinePipeline::new(&config);
            drive(&mut pipe, &events[..cut], &[13, 4], &mut all);

            let mut blob = Vec::new();
            pipe.save_state(&mut blob);
            let mut restored = OnlinePipeline::new(&config);
            assert!(
                restored.load_state(&mut blob.as_slice()),
                "restore failed: kind={label} cut={cut}"
            );
            // Round-trip fidelity: the restored pipeline's own
            // snapshot must be the same bytes.
            let mut blob2 = Vec::new();
            restored.save_state(&mut blob2);
            assert_eq!(
                blob, blob2,
                "snapshot blob not idempotent: kind={label} cut={cut}"
            );

            drive(&mut restored, &events[cut..], &[9, 31], &mut all);
            assert_eq!(
                reference, all,
                "post-restore outcome divergence: kind={label} cut={cut}"
            );
            assert_eq!(
                reference_wire,
                wire_bytes(&all),
                "post-restore wire divergence: kind={label} cut={cut}"
            );
        }
    }
}

/// Canon variant byte for each kind. NO wildcard arm — adding an
/// `EstimatorKind` variant breaks this test at compile time until the
/// kind is enrolled here and in `roster()`.
fn variant_tag(kind: &EstimatorKind) -> u8 {
    match kind {
        EstimatorKind::None => 0,
        EstimatorKind::Paco(_) => 1,
        EstimatorKind::ThresholdCount(_) => 2,
        EstimatorKind::StaticMrt => 3,
        EstimatorKind::PerBranchMrt(_) => 4,
        EstimatorKind::AdaptiveMrt(_) => 5,
    }
}

/// Every kind canonicalizes under the `EstimatorKind` type tag with a
/// distinct variant byte, and the full canon streams are pairwise
/// distinct (config payloads included).
#[test]
fn canon_tags_are_distinct_and_exhaustive() {
    let kinds = roster();
    let mut streams = Vec::new();
    for (label, kind) in &kinds {
        let mut bytes = Vec::new();
        kind.canon(&mut bytes);
        assert_eq!(bytes[0], 0x21, "{label}: EstimatorKind type tag drifted");
        assert_eq!(
            bytes[1],
            variant_tag(kind),
            "{label}: canon variant byte drifted from the normative table"
        );
        streams.push((*label, bytes));
    }
    for i in 0..streams.len() {
        for j in i + 1..streams.len() {
            assert_ne!(
                streams[i].1, streams[j].1,
                "canon collision between {} and {}",
                streams[i].0, streams[j].0
            );
        }
    }
}

/// Every kind's pipeline snapshot round-trips: save → load into a
/// fresh pipeline → re-save is byte-identical, even after enough
/// events to populate estimator state.
#[test]
fn every_kind_snapshot_round_trips() {
    let events = control_events(0x5eed_ad0b_e500_0003, 200);
    for (label, kind) in roster() {
        let config = OnlineConfig::paper(kind);
        let mut pipe = OnlinePipeline::new(&config);
        let mut out = OutcomeBatch::new();
        pipe.run_batch(&EventBatch::from(events.as_slice()), &mut out);

        let mut blob = Vec::new();
        pipe.save_state(&mut blob);
        let mut restored = OnlinePipeline::new(&config);
        assert!(
            restored.load_state(&mut blob.as_slice()),
            "{label}: load_state rejected its own save_state blob"
        );
        let mut blob2 = Vec::new();
        restored.save_state(&mut blob2);
        assert_eq!(
            blob, blob2,
            "{label}: snapshot round-trip not byte-identical"
        );
    }
}

//! The traced run's layer measurements.
//!
//! The stage replay feeds the frames a live round recorded through the
//! public functions the server's EVENTS handler calls, in its order, on
//! a shadow pipeline per session, with a span around every call; it must
//! reproduce each session's live PREDICTIONS digest. The lanes time one
//! layer each on the workload's own frames: the batch kernel for every
//! estimator kind, the per-event oracle, snapshot save and restore, the
//! session table and the metric plane.

use std::hint::black_box;
use std::time::{Duration, Instant};

use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_obs::HistogramSnapshot;
use paco_serve::proto::{
    decode_events_into, decode_outcomes, encode_events, encode_outcomes_into, frame_bytes,
    read_frame,
};
use paco_serve::{
    offline_digest, Digest, FrameDecoder, FrameKind, ServeMetrics, Session, SessionTable,
    WatchState,
};
use paco_sim::{EstimatorKind, OnlineConfig, OnlinePipeline, OutcomeBatch};
use paco_types::{DynInstr, EventBatch};

use crate::live::{Finished, Inputs};
use crate::stats::quantile;
use crate::trace::{Tracer, NO_PARENT};
use crate::Plan;

/// Every estimator kind, by the name its kernel lane reports under.
pub const KINDS: [(&str, EstimatorKind); 6] = [
    ("none", EstimatorKind::None),
    (
        "jrs",
        EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
    ),
    ("paco", EstimatorKind::Paco(PacoConfig::paper())),
    ("static_mrt", EstimatorKind::StaticMrt),
    (
        "per_branch_mrt",
        EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
    ),
    (
        "adaptive_mrt",
        EstimatorKind::AdaptiveMrt(AdaptiveMrtConfig::paper()),
    ),
];

/// Least time a lane measures; it repeats whole passes until then.
const LANE_MIN: Duration = Duration::from_millis(60);

/// Least passes a lane measures.
const LANE_PASSES: usize = 3;

/// What the stage replay saw.
#[derive(Debug, Default)]
pub struct Replay {
    /// Sessions replayed.
    pub sessions: u64,
    /// Sessions whose replay digest differed from the live stream.
    pub mismatches: u64,
    /// Events replayed.
    pub events: u64,
    /// EVENTS frame bytes, header and checksum included.
    pub bytes_in: u64,
    /// PREDICTIONS frame bytes, header and checksum included.
    pub bytes_out: u64,
    /// Per frame: client encode plus client decode, nanoseconds.
    pub client_ns: Vec<u64>,
}

/// Replays the sessions of a live round through the serving stages.
pub fn replay(
    plan: &Plan,
    inputs: &Inputs,
    finished: &[Finished],
    tracer: &mut Tracer,
) -> Result<Replay, String> {
    let metrics = ServeMetrics::with_shards(plan.shards);
    let mut events = EventBatch::new();
    let mut outcomes = OutcomeBatch::new();
    let mut predictions = Vec::new();
    let mut out = Replay::default();
    for fin in finished {
        let session = fin.index as u64;
        let mut pipeline = OnlinePipeline::new(&plan.config);
        let mut watch = WatchState::default();
        let mut decoder = FrameDecoder::new();
        let mut digest = Digest::new();
        for (k, chunk) in inputs.events(fin.index).chunks(plan.frame).enumerate() {
            let frame_no = k as u32;
            if fin.migrated && k == plan.cut {
                pipeline = migrate(&plan.config, &pipeline, tracer, session, frame_no)?;
            }
            let f = tracer.open("replay.frame", NO_PARENT, session, frame_no);

            let s = tracer.open("client.encode", f, session, frame_no);
            let wire = frame_bytes(FrameKind::Events, &encode_events(chunk));
            tracer.close(s);
            let encode_ns = tracer.duration_ns(s);

            let handle_started = Instant::now();
            let s = tracer.open("proto.frame_decode", f, session, frame_no);
            decoder.feed(&wire);
            let frame = decoder
                .try_frame()
                .map_err(|e| e.to_string())?
                .ok_or("frame decoder wanted more bytes than a whole frame")?;
            tracer.close(s);

            let s = tracer.open("proto.decode_events", f, session, frame_no);
            decode_events_into(&frame.payload, &mut events).map_err(|e| e.to_string())?;
            tracer.close(s);

            let s = tracer.open("sim.kernel", f, session, frame_no);
            outcomes.clear();
            pipeline.run_batch(&events, &mut outcomes);
            tracer.close(s);

            let s = tracer.open("proto.encode_outcomes", f, session, frame_no);
            predictions.clear();
            encode_outcomes_into(&mut predictions, &outcomes);
            let reply = frame_bytes(FrameKind::Predictions, &predictions);
            tracer.close(s);

            let s = tracer.open("watch.observe", f, session, frame_no);
            watch.observe_batch(&outcomes);
            tracer.close(s);

            let s = tracer.open("obs.meter", f, session, frame_no);
            metrics.frame(FrameKind::Events).inc();
            metrics.batch_events.record(events.len() as u64);
            metrics
                .batch_handle_ns
                .record(handle_started.elapsed().as_nanos() as u64);
            tracer.close(s);

            let s = tracer.open("client.decode", f, session, frame_no);
            let answer = read_frame(&mut reply.as_slice())
                .map_err(|e| e.to_string())?
                .ok_or("empty PREDICTIONS frame")?;
            let decoded = decode_outcomes(&answer.payload).map_err(|e| e.to_string())?;
            digest.update(&answer.payload);
            black_box(decoded);
            tracer.close(s);
            let decode_ns = tracer.duration_ns(s);

            tracer.close(f);
            out.events += chunk.len() as u64;
            out.bytes_in += wire.len() as u64;
            out.bytes_out += reply.len() as u64;
            out.client_ns.push(encode_ns + decode_ns);
        }
        out.sessions += 1;
        if digest.value() != fin.digest {
            out.mismatches += 1;
        }
    }
    Ok(out)
}

/// A migration as the server performs it: save on the source, restore
/// into a fresh pipeline on the target.
fn migrate(
    config: &OnlineConfig,
    pipeline: &OnlinePipeline,
    tracer: &mut Tracer,
    session: u64,
    frame: u32,
) -> Result<OnlinePipeline, String> {
    let s = tracer.open("sim.snapshot_save", NO_PARENT, session, frame);
    let mut blob = Vec::new();
    pipeline.save_state(&mut blob);
    tracer.close(s);
    let s = tracer.open("sim.snapshot_restore", NO_PARENT, session, frame);
    let mut restored = OnlinePipeline::new(config);
    let mut input = blob.as_slice();
    let ok = restored.load_state(&mut input) && input.is_empty();
    tracer.close(s);
    if ok {
        Ok(restored)
    } else {
        Err("snapshot failed to restore in the replay".into())
    }
}

/// Repeats `pass` (which returns the nanoseconds it measured) until the
/// lane has run for [`LANE_MIN`] and at least [`LANE_PASSES`] times.
fn repeat(mut pass: impl FnMut() -> u64) -> Vec<u64> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < LANE_PASSES || started.elapsed() < LANE_MIN {
        out.push(pass());
    }
    out
}

/// `run_batch` ns/event over `sample` for every estimator kind, each lane
/// digest-gated against the per-event oracle over the same frames.
pub fn kernel_lanes(plan: &Plan, sample: &[DynInstr]) -> Result<Vec<(&'static str, f64)>, String> {
    let batches: Vec<EventBatch> = sample.chunks(plan.frame).map(EventBatch::from).collect();
    let mut lanes = Vec::new();
    for (name, kind) in KINDS {
        let config = OnlineConfig {
            estimator: kind,
            ..plan.config
        };
        let mut hist = HistogramSnapshot::new();
        let mut outcomes = OutcomeBatch::new();
        let mut digest = None;
        let passes = repeat(|| {
            let mut pipeline = OnlinePipeline::new(&config);
            let mut pass_digest = Digest::new();
            let mut bytes = Vec::new();
            let mut total = 0;
            for batch in &batches {
                let t = Instant::now();
                outcomes.clear();
                pipeline.run_batch(batch, &mut outcomes);
                let ns = t.elapsed().as_nanos() as u64;
                hist.record(ns);
                total += ns;
                bytes.clear();
                encode_outcomes_into(&mut bytes, &outcomes);
                pass_digest.update(&bytes);
            }
            digest.get_or_insert(pass_digest.value());
            total
        });
        if digest != Some(offline_digest(&config, sample, plan.frame)) {
            return Err(format!(
                "kernel lane {name} diverged from the per-event oracle"
            ));
        }
        lanes.push((
            name,
            hist.sum() as f64 / (sample.len() * passes.len()) as f64,
        ));
    }
    Ok(lanes)
}

/// `on_instr` ns/event over `sample`: the oracle's own cost.
pub fn oracle_lane(plan: &Plan, sample: &[DynInstr]) -> f64 {
    let passes = repeat(|| {
        let mut pipeline = OnlinePipeline::new(&plan.config);
        let t = Instant::now();
        for instr in sample {
            black_box(pipeline.on_instr(instr));
        }
        t.elapsed().as_nanos() as u64
    });
    passes.iter().sum::<u64>() as f64 / (sample.len() * passes.len()) as f64
}

/// Snapshot size, median save µs and median restore µs of session 0's
/// pipeline at its cut point.
pub fn snapshot_lane(plan: &Plan, inputs: &Inputs) -> Result<(usize, f64, f64), String> {
    let mut pipeline = OnlinePipeline::new(&plan.config);
    let mut outcomes = OutcomeBatch::new();
    for chunk in inputs.events(0).chunks(plan.frame).take(plan.cut) {
        outcomes.clear();
        pipeline.run_batch(&EventBatch::from(chunk), &mut outcomes);
    }
    let mut blob = Vec::new();
    let mut save = repeat(|| {
        blob.clear();
        let t = Instant::now();
        pipeline.save_state(&mut blob);
        t.elapsed().as_nanos() as u64
    });
    let mut intact = true;
    let mut restore = repeat(|| {
        let mut restored = OnlinePipeline::new(&plan.config);
        let mut input = blob.as_slice();
        let t = Instant::now();
        let ok = restored.load_state(&mut input);
        let ns = t.elapsed().as_nanos() as u64;
        let mut again = Vec::new();
        restored.save_state(&mut again);
        intact &= ok && input.is_empty() && again == blob;
        ns
    });
    if !intact {
        return Err("snapshot lane: restore did not round-trip".into());
    }
    Ok((
        blob.len(),
        quantile(&mut save, 0.5) / 1e3,
        quantile(&mut restore, 0.5) / 1e3,
    ))
}

/// Median ns per `SessionTable::park` and per `claim` with the table
/// holding the workload's whole round of sessions.
pub fn session_table_lane(plan: &Plan) -> Result<(f64, f64), String> {
    let table = SessionTable::new(plan.shards);
    let mut sessions: Vec<Session> = (0..plan.storm)
        .map(|_| Session {
            id: table.allocate_id(),
            pipeline: OnlinePipeline::new(&plan.config),
            watch: WatchState::default(),
        })
        .collect();
    let ids: Vec<u64> = sessions.iter().map(|s| s.id).collect();
    let mut park = Vec::new();
    let mut claim = Vec::new();
    let started = Instant::now();
    while park.len() < LANE_PASSES || started.elapsed() < LANE_MIN {
        let t = Instant::now();
        for s in sessions.drain(..) {
            table.park(s);
        }
        park.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        for &id in &ids {
            sessions.push(
                table
                    .claim(id)
                    .ok_or("session table lost a parked session")?,
            );
        }
        claim.push(t.elapsed().as_nanos() as u64);
    }
    let per_op = ids.len() as f64;
    Ok((
        quantile(&mut park, 0.5) / per_op,
        quantile(&mut claim, 0.5) / per_op,
    ))
}

/// Median ns for the three per-frame `ServeMetrics` records.
pub fn meter_lane(plan: &Plan) -> f64 {
    const FRAMES: u64 = 100_000;
    let metrics = ServeMetrics::with_shards(plan.shards);
    let mut passes = repeat(|| {
        let t = Instant::now();
        for i in 0..FRAMES {
            metrics.frame(FrameKind::Events).inc();
            metrics.batch_events.record(black_box(plan.frame as u64));
            metrics.batch_handle_ns.record(black_box(i & 0xffff));
        }
        t.elapsed().as_nanos() as u64
    });
    quantile(&mut passes, 0.5) / FRAMES as f64
}

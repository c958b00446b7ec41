//! Property and adversarial tests for the `paco-serve` wire protocol
//! and the serving reactor: frame encode→decode is the identity over
//! arbitrary payloads, any truncation or corruption is rejected cleanly
//! (mirroring the `paco-trace` corruption suite for the on-disk
//! format), the incremental [`FrameDecoder`] the sharded reactor reads
//! with agrees verdict-for-verdict with the blocking `read_frame`, and
//! live migration between worker shards preserves byte-identical
//! predictions at arbitrary cut points for every estimator kind.

use paco::{AdaptiveMrtConfig, PacoConfig, PerBranchMrtConfig, ThresholdCountConfig};
use paco_serve::proto::{
    decode_events_into, decode_hello, decode_outcomes, decode_stats, encode_events, encode_hello,
    encode_outcomes, encode_stats, frame_bytes, read_frame, Digest, FleetStats, Frame,
    FrameDecoder, FrameKind, Hello, ProtoError, Resume, SessionStats, Stats, PROTOCOL_VERSION,
};
use paco_serve::{Client, ClientError, ErrorCode, RunningServer};
use paco_sim::{EstimatorKind, OnlineConfig, OnlineOutcome, OnlinePipeline};
use paco_types::{ControlKind, DynInstr, EventBatch, InstrClass, Pc};
use proptest::prelude::*;

mod common;

fn kind_from(seed: u8) -> FrameKind {
    match seed % 11 {
        0 => FrameKind::Hello,
        1 => FrameKind::Welcome,
        2 => FrameKind::Events,
        3 => FrameKind::Predictions,
        4 => FrameKind::SnapshotReq,
        5 => FrameKind::Snapshot,
        6 => FrameKind::Bye,
        7 => FrameKind::StatsReq,
        8 => FrameKind::Stats,
        9 => FrameKind::Migrate,
        _ => FrameKind::Error,
    }
}

/// An arbitrary branch event (the shapes `paco-load` actually streams).
fn event_strategy() -> impl Strategy<Value = DynInstr> {
    (any::<u64>(), 0u8..5, any::<bool>(), any::<u64>()).prop_map(|(pc, kind, taken, target)| {
        let kind = match kind {
            0 => ControlKind::Conditional,
            1 => ControlKind::Jump,
            2 => ControlKind::Call,
            3 => ControlKind::Indirect,
            _ => ControlKind::Return,
        };
        DynInstr {
            pc: Pc::new(pc),
            class: InstrClass::Control(kind),
            deps: [0, 0],
            mem: None,
            taken: taken || kind != ControlKind::Conditional,
            target: Pc::new(target),
        }
    })
}

/// Reliability bins as the STATS codec ships them: up to a generous
/// multiple of the real 21-bin layout.
fn bins_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((any::<u64>(), any::<u64>()), 0..64)
}

/// Short lowercase family names, sometimes absent (the offline proptest
/// layer has no regex strategies, so names are derived from a seed).
fn name_strategy() -> impl Strategy<Value = Option<String>> {
    (any::<bool>(), any::<u64>(), 1usize..24).prop_map(|(some, seed, len)| {
        some.then(|| {
            (0..len)
                .map(|i| {
                    let x = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(i as u64)
                        .wrapping_mul(0x9e3779b97f4a7c15);
                    char::from(b'a' + ((x >> 33) % 26) as u8)
                })
                .collect()
        })
    })
}

fn session_stats_strategy() -> impl Strategy<Value = SessionStats> {
    (
        (
            any::<u64>(),
            name_strategy(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<bool>(), any::<u64>(), bins_strategy()),
    )
        .prop_map(|(ids, scalars, drift)| {
            let (session_id, family, events, mispredicts, with_prob) = ids;
            let (windows, window_len, last_divergence_bits, cusum_bits) = scalars;
            let (drift_flagged, drift_window, bins) = drift;
            SessionStats {
                session_id,
                family,
                events,
                mispredicts,
                with_prob,
                windows,
                window_len,
                last_divergence_bits,
                cusum_bits,
                drift_flagged,
                drift_window,
                bins,
            }
        })
}

fn fleet_stats_strategy() -> impl Strategy<Value = FleetStats> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        bins_strategy(),
    )
        .prop_map(|(sessions, counters, bins)| {
            let (sessions_active, sessions_parked, sessions_seen, flagged_sessions) = sessions;
            let (events, mispredicts, events_per_sec_bits) = counters;
            FleetStats {
                sessions_active,
                sessions_parked,
                sessions_seen,
                flagged_sessions,
                events,
                mispredicts,
                events_per_sec_bits,
                bins,
            }
        })
}

fn stats_strategy() -> impl Strategy<Value = Stats> {
    (session_stats_strategy(), fleet_stats_strategy())
        .prop_map(|(session, fleet)| Stats { session, fleet })
}

fn outcome_strategy() -> impl Strategy<Value = OnlineOutcome> {
    (0u64..1 << 40, any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(score, has_prob, predicted_taken, mispredicted)| OnlineOutcome {
            score,
            has_prob,
            predicted_taken,
            mispredicted,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Frame round trip: any kind, any payload.
    #[test]
    fn frame_round_trip(
        kind_seed in any::<u8>(),
        payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..4096),
    ) {
        let kind = kind_from(kind_seed);
        let bytes = frame_bytes(kind, &payload);
        let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        prop_assert_eq!(frame, Frame { kind, payload });
    }

    /// Truncating a frame anywhere strictly inside it is an error —
    /// never a silent partial read, never a hang.
    #[test]
    fn frame_truncation_is_rejected(
        kind_seed in any::<u8>(),
        payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..512),
        cut_seed in any::<u64>(),
    ) {
        let bytes = frame_bytes(kind_from(kind_seed), &payload);
        let cut = 1 + (cut_seed as usize % (bytes.len() - 1));
        prop_assert!(
            read_frame(&mut &bytes[..cut]).is_err(),
            "cut at {cut} of {} must fail",
            bytes.len()
        );
    }

    /// Flipping any single bit of a frame is caught (by the CRC, the
    /// kind check, or the length bound).
    #[test]
    fn frame_corruption_is_rejected(
        kind_seed in any::<u8>(),
        payload in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 1..512),
        victim in any::<u64>(),
        bit in 0u32..8,
    ) {
        let clean = frame_bytes(kind_from(kind_seed), &payload);
        let idx = victim as usize % clean.len();
        let mut bytes = clean.clone();
        bytes[idx] ^= 1 << bit;
        let result = read_frame(&mut bytes.as_slice());
        // A flip in the length field can make the frame claim more
        // bytes than the buffer holds (Malformed), claim fewer (CRC
        // trailer misaligns: Malformed), or exceed the cap. A payload
        // or kind flip is a CRC mismatch. All are errors; none decode.
        prop_assert!(
            result.is_err(),
            "flipping bit {bit} of byte {idx} must not decode cleanly"
        );
    }

    /// Event batches round trip through the EVENTS codec into exactly
    /// the batch the events build directly.
    #[test]
    fn event_batches_round_trip(
        events in proptest::collection::vec(event_strategy(), 0..600),
    ) {
        let payload = encode_events(&events);
        let mut batch = EventBatch::new();
        decode_events_into(&payload, &mut batch).unwrap();
        prop_assert_eq!(batch, EventBatch::from(events.as_slice()));
    }

    /// Truncated event payloads are rejected and leave the batch empty.
    #[test]
    fn event_batch_truncation_is_rejected(
        events in proptest::collection::vec(event_strategy(), 1..200),
        cut_seed in any::<u64>(),
    ) {
        let payload = encode_events(&events);
        let cut = cut_seed as usize % payload.len();
        let mut batch = EventBatch::from(events.as_slice());
        prop_assert!(decode_events_into(&payload[..cut], &mut batch).is_err());
        prop_assert!(batch.is_empty());
    }

    /// Prediction batches round trip, preserving probability bits
    /// exactly (the parity surface).
    #[test]
    fn outcome_batches_round_trip(
        outcomes in proptest::collection::vec(outcome_strategy(), 0..600),
    ) {
        let payload = encode_outcomes(&outcomes);
        prop_assert_eq!(decode_outcomes(&payload).unwrap(), outcomes);
    }

    /// HELLO round-trips for arbitrary fingerprints/hashes, resume
    /// blobs, and family declarations.
    #[test]
    fn hello_round_trips(
        fingerprint in any::<u64>(),
        config_hash in any::<u64>(),
        blob in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..256),
        mode in 0u8..3,
        family in name_strategy(),
    ) {
        let resume = match mode {
            0 => Resume::Fresh,
            1 => Resume::SessionId(fingerprint ^ 0x55),
            _ => Resume::State(blob),
        };
        let hello = Hello {
            protocol_version: PROTOCOL_VERSION,
            fingerprint,
            config: OnlineConfig::tiny(EstimatorKind::StaticMrt),
            config_hash,
            resume,
            family,
        };
        prop_assert_eq!(decode_hello(&encode_hello(&hello)).unwrap(), hello);
    }

    /// STATS round-trips for arbitrary telemetry values — every counter,
    /// f64 bit pattern, flag, and bin vector survives the codec exactly.
    #[test]
    fn stats_round_trip(stats in stats_strategy()) {
        let payload = encode_stats(&stats);
        prop_assert_eq!(decode_stats(&payload).unwrap(), stats);
    }

    /// A STATS frame truncated anywhere strictly inside it fails at the
    /// frame layer — telemetry can never be silently partial.
    #[test]
    fn stats_frame_truncation_is_rejected(
        stats in stats_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = frame_bytes(FrameKind::Stats, &encode_stats(&stats));
        let cut = 1 + (cut_seed as usize % (bytes.len() - 1));
        prop_assert!(read_frame(&mut &bytes[..cut]).is_err());
    }

    /// Flipping any single bit of a STATS frame is caught by the CRC
    /// (or the header checks) before the payload is ever interpreted.
    #[test]
    fn stats_frame_corruption_is_rejected(
        stats in stats_strategy(),
        victim in any::<u64>(),
        bit in 0u32..8,
    ) {
        let clean = frame_bytes(FrameKind::Stats, &encode_stats(&stats));
        let idx = victim as usize % clean.len();
        let mut bytes = clean.clone();
        bytes[idx] ^= 1 << bit;
        prop_assert!(read_frame(&mut bytes.as_slice()).is_err());
    }
}

/// Every config `OnlineConfig::validate` accepts must produce
/// snapshots that fit in one frame — otherwise the advertised
/// snapshot/resume feature would fail exactly for large (but valid)
/// configs. Conservative byte bounds per component, all at their caps.
#[test]
fn worst_case_snapshot_fits_one_frame() {
    let n = OnlineConfig::MAX_TABLE_ENTRIES;
    let counter_table = n + 10; // 1 byte/counter + varint length prefix
    let per_branch_mrt = n * 4 + 10; // two varints per bucket (<= 2B + 1B)
    let pending = OnlineConfig::MAX_RESOLVE_LAG * 64; // ~25B each; 64 is generous

    // gshare + bimodal + selector + MDC tables, the largest estimator,
    // estimator/calculator/MRT scalars, header + hash + counters:
    let worst = 4 * counter_table + per_branch_mrt + pending + 1024;
    assert!(
        worst < paco_serve::proto::MAX_FRAME_PAYLOAD,
        "worst-case snapshot ({worst} B) must fit the frame cap"
    );
}

#[test]
fn oversized_frame_is_rejected_without_allocating() {
    // Hand-build a header that claims a payload beyond the cap.
    let mut bytes = vec![FrameKind::Events as u8];
    bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 64]);
    match read_frame(&mut bytes.as_slice()) {
        Err(ProtoError::Malformed(msg)) => assert!(msg.contains("cap"), "{msg}"),
        other => panic!("oversized frame must be malformed, got {other:?}"),
    }
}

#[test]
fn unknown_frame_kind_is_rejected() {
    let mut bytes = frame_bytes(FrameKind::Bye, &[]);
    bytes[0] = 0x6e; // no such kind
    assert!(read_frame(&mut bytes.as_slice()).is_err());
}

// ---------------------------------------------------------------------
// FrameDecoder fuzzing: the reactor's incremental read path must agree
// verdict-for-verdict with the blocking `read_frame`, no matter how the
// bytes are chunked or mangled.
// ---------------------------------------------------------------------

/// Drains a byte stream through the blocking reference decoder:
/// the frames it yields, or the error message it dies with.
fn read_frame_verdict(bytes: &[u8]) -> Result<Vec<Frame>, String> {
    let mut input = bytes;
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut input) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return Ok(frames),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Drains the same stream through the reactor's [`FrameDecoder`],
/// feeding it in pseudo-random chunks derived from `chunk_seed`.
fn decoder_verdict(bytes: &[u8], chunk_seed: u64) -> Result<Vec<Frame>, String> {
    let mut decoder = FrameDecoder::new();
    let mut state = chunk_seed | 1;
    let mut fed = 0usize;
    let mut frames = Vec::new();
    while fed < bytes.len() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let step = 1 + ((state >> 33) as usize % 23);
        let end = (fed + step).min(bytes.len());
        decoder.feed(&bytes[fed..end]);
        fed = end;
        // Drain between feeds too: frames must surface as soon as their
        // bytes are complete, regardless of chunk boundaries.
        loop {
            match decoder.try_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => return Err(e.to_string()),
            }
        }
    }
    match decoder.on_eof() {
        Ok(()) => Ok(frames),
        Err(e) => Err(e.to_string()),
    }
}

/// A wire stream of several valid frames back to back.
fn stream_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        (
            any::<u8>(),
            proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..96),
        ),
        0..6,
    )
    .prop_map(|frames| {
        let mut bytes = Vec::new();
        for (kind_seed, payload) in frames {
            bytes.extend_from_slice(&frame_bytes(kind_from(kind_seed), &payload));
        }
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Clean streams: the incremental decoder yields exactly the frames
    /// `read_frame` yields, under any chunking.
    #[test]
    fn decoder_matches_read_frame_on_clean_streams(
        bytes in stream_strategy(),
        chunk_seed in any::<u64>(),
    ) {
        prop_assert_eq!(decoder_verdict(&bytes, chunk_seed), read_frame_verdict(&bytes));
    }

    /// Truncated streams: cutting anywhere produces the same verdict —
    /// same surviving frame prefix on both paths, or the same eof error
    /// message (never a hang, never a silent partial frame).
    #[test]
    fn decoder_matches_read_frame_on_truncated_streams(
        bytes in stream_strategy(),
        cut_seed in any::<u64>(),
        chunk_seed in any::<u64>(),
    ) {
        prop_assume!(!bytes.is_empty());
        let cut = cut_seed as usize % bytes.len();
        let cut_bytes = &bytes[..cut];
        prop_assert_eq!(
            decoder_verdict(cut_bytes, chunk_seed),
            read_frame_verdict(cut_bytes)
        );
    }

    /// Bit-flipped streams: any single-bit corruption lands the same
    /// verdict on both paths (same frames decoded before the flip, same
    /// rejection message at it).
    #[test]
    fn decoder_matches_read_frame_on_bitflipped_streams(
        bytes in stream_strategy(),
        victim in any::<u64>(),
        bit in 0u32..8,
        chunk_seed in any::<u64>(),
    ) {
        prop_assume!(!bytes.is_empty());
        let mut bytes = bytes;
        let idx = victim as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert_eq!(
            decoder_verdict(&bytes, chunk_seed),
            read_frame_verdict(&bytes)
        );
    }
}

/// An oversized length claim is rejected from the 5 header bytes alone —
/// the decoder must not wait for (or allocate) the claimed payload, or a
/// hostile header would stall its reactor shard forever.
#[test]
fn decoder_rejects_oversized_claim_from_header_alone() {
    let mut decoder = FrameDecoder::new();
    let mut header = vec![FrameKind::Events as u8];
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    decoder.feed(&header);
    match decoder.try_frame() {
        Err(ProtoError::Malformed(msg)) => assert!(msg.contains("cap"), "{msg}"),
        other => panic!("oversized claim must fail immediately, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Live migration parity: moving a live session from one worker shard
// to another must leave the prediction stream byte-identical to
// offline replay — at any cut point, for every estimator kind.
// ---------------------------------------------------------------------

/// Every estimator kind the service can host.
fn all_estimator_kinds() -> [EstimatorKind; 6] {
    [
        EstimatorKind::None,
        EstimatorKind::Paco(PacoConfig::paper()),
        EstimatorKind::ThresholdCount(ThresholdCountConfig::paper_default()),
        EstimatorKind::StaticMrt,
        EstimatorKind::PerBranchMrt(PerBranchMrtConfig::paper()),
        EstimatorKind::AdaptiveMrt(AdaptiveMrtConfig::paper()),
    ]
}

/// The offline oracle for a cut stream: per-event replay, digesting the
/// outcome encodings with exactly the chunk boundaries the online
/// client used (full batches to `cut` — which may fall mid-batch — then
/// full batches again from it).
fn cut_stream_digest(config: &OnlineConfig, events: &[DynInstr], cut: usize, batch: usize) -> u64 {
    let mut pipeline = OnlinePipeline::new(config);
    let mut digest = Digest::new();
    for chunk in events[..cut]
        .chunks(batch)
        .chain(events[cut..].chunks(batch))
    {
        let outcomes: Vec<_> = chunk.iter().filter_map(|i| pipeline.on_instr(i)).collect();
        digest.update(&encode_outcomes(&outcomes));
    }
    digest.value()
}

fn stream_chunks(client: &mut Client, events: &[DynInstr], batch: usize) {
    for chunk in events.chunks(batch) {
        client.send_events(chunk).expect("stream events");
    }
}

/// Resumes a parked session, retrying the park race (the server sweeps
/// the dropped connection's EOF asynchronously).
fn resume_retrying(addr: std::net::SocketAddr, config: &OnlineConfig, session_id: u64) -> Client {
    for _ in 0..500 {
        match Client::resume_by_id(addr, config, session_id) {
            Ok(client) => return client,
            Err(ClientError::Server(ErrorCode::UnknownSession, _)) => {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Err(e) => panic!("resume failed: {e}"),
        }
    }
    panic!("session {session_id} never parked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Operator MIGRATE mid-stream: the live session leaves the shard
    /// that accepted it for an explicit target, with the cut landing anywhere —
    /// including mid-batch and mid-watch-window — and the prediction
    /// bytes never waver, whichever estimator is inside.
    #[test]
    fn migration_at_arbitrary_cut_is_byte_identical(
        events in proptest::collection::vec(event_strategy(), 2..160),
        cut_seed in any::<u64>(),
        batch_seed in any::<u64>(),
    ) {
        let server = RunningServer::bind("127.0.0.1:0", 3).expect("bind");
        let cut = 1 + (cut_seed as usize % (events.len() - 1));
        let batch = 1 + (batch_seed as usize % 48);
        for kind in all_estimator_kinds() {
            let config = OnlineConfig::tiny(kind);
            // The previous kind's connection must be gone from the
            // gauges before they can name this one's shard.
            common::shard_loads(&server, 0);
            let mut client = Client::connect(server.addr(), &config).expect("connect");
            let from = common::sole_conn_shard(&server) as u32;
            let target = (from + 1) % 3;
            stream_chunks(&mut client, &events[..cut], batch);
            let ack = client.migrate(Some(target)).expect("migrate");
            prop_assert_eq!(ack.session_id, client.session_id());
            prop_assert_eq!(ack.from_shard, from);
            prop_assert_eq!(ack.to_shard, target);
            stream_chunks(&mut client, &events[cut..], batch);
            prop_assert_eq!(
                client.digest(),
                cut_stream_digest(&config, &events, cut, batch),
                "kind {:?} cut {} batch {}", config.estimator, cut, batch
            );
            client.bye().expect("bye");
        }
        server.stop();
    }

    /// The full churn step: drop without BYE at an arbitrary cut (the
    /// session parks), resume by id, migrate to another shard,
    /// finish the stream — one digest spans the whole life and still
    /// matches offline replay for every estimator kind.
    #[test]
    fn park_resume_migrate_at_arbitrary_cut_is_byte_identical(
        events in proptest::collection::vec(event_strategy(), 2..120),
        cut_seed in any::<u64>(),
        batch_seed in any::<u64>(),
    ) {
        let server = RunningServer::bind("127.0.0.1:0", 3).expect("bind");
        let cut = 1 + (cut_seed as usize % (events.len() - 1));
        let batch = 1 + (batch_seed as usize % 32);
        for kind in all_estimator_kinds() {
            let config = OnlineConfig::tiny(kind);
            let mut client = Client::connect(server.addr(), &config).expect("connect");
            let session_id = client.session_id();
            stream_chunks(&mut client, &events[..cut], batch);
            let carried = client.digest();
            drop(client); // no BYE: parks in the shared table
            common::shard_loads(&server, 0);

            let mut client = resume_retrying(server.addr(), &config, session_id);
            client.seed_digest(carried);
            prop_assert_eq!(client.resumed_events(), cut as u64);
            let from = common::sole_conn_shard(&server) as u32;
            let target = (from + 1 + (session_id % 2) as u32) % 3;
            let ack = client.migrate(Some(target)).expect("migrate");
            prop_assert_eq!(ack.from_shard, from);
            prop_assert_eq!(ack.to_shard, target);
            stream_chunks(&mut client, &events[cut..], batch);
            prop_assert_eq!(
                client.digest(),
                cut_stream_digest(&config, &events, cut, batch),
                "kind {:?} cut {} batch {}", config.estimator, cut, batch
            );
            client.bye().expect("bye");
        }
        server.stop();
    }
}

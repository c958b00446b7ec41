//! The `paco-serve` wire protocol: length-prefixed, CRC-guarded binary
//! frames carrying batched branch events and their predictions.
//!
//! Layered on the workspace codec vocabulary: frames use
//! [`paco_types::wire`] varints and CRC-32 (the same primitives as the
//! trace format and the bench result cache), and config negotiation
//! compares [`Canon`] hashes of [`OnlineConfig`]. An EVENTS payload
//! carries only what the online pipeline reads — per event a flags byte
//! (class code, taken bit) and a zigzag PC delta — and decodes column
//! by column into an [`EventBatch`]. See `docs/PROTOCOL.md` for the
//! normative description.
//!
//! ```text
//! frame := kind u8 | payload_len u32 LE | payload | crc32 u32 LE
//! ```
//!
//! The CRC covers the kind byte and the payload, so neither can be
//! corrupted undetected; payloads are capped at [`MAX_FRAME_PAYLOAD`].

use std::io::{self, Read};

use paco_sim::OnlineConfig;
use paco_sim::OnlineOutcome;
use paco_sim::OutcomeBatch;
use paco_types::canon::Canon;
use paco_types::wire::{
    crc32_update, put_uvarint, read_uvarint, unzigzag, write_uvarint, zigzag, MAX_UVARINT_LEN,
};
use paco_types::{DynInstr, EventBatch, InstrClass};

/// Protocol version; bumped on any incompatible frame or payload change.
/// Version 2 added the STATS_REQ/STATS pair and the optional declared
/// workload family in HELLO; version 3 dropped the probability bytes
/// from each PREDICTIONS outcome (the score already determines it);
/// version 4 cut each EVENTS record to a flags byte and a PC delta.
pub const PROTOCOL_VERSION: u32 = 4;

/// Upper bound accepted for a frame payload.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 22;

/// Most events one EVENTS frame may carry. The PREDICTIONS reply holds
/// at most one outcome per event, so at this cap even a reply of
/// longest-encoded outcomes fits [`MAX_FRAME_PAYLOAD`], and so does the
/// request itself.
pub const MAX_EVENTS_PER_FRAME: usize = 1 << 18;

const _: () = assert!(
    MAX_UVARINT_LEN + MAX_EVENTS_PER_FRAME * MAX_OUTCOME_BYTES <= MAX_FRAME_PAYLOAD
        && MAX_UVARINT_LEN + MAX_EVENTS_PER_FRAME * MAX_EVENT_BYTES <= MAX_FRAME_PAYLOAD
);

/// Frame type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: protocol version, config, resume request.
    Hello = 0x01,
    /// Server → client: session granted.
    Welcome = 0x02,
    /// Client → server: a batch of branch events.
    Events = 0x03,
    /// Server → client: one prediction per control event in the batch.
    Predictions = 0x04,
    /// Client → server: request a state snapshot.
    SnapshotReq = 0x05,
    /// Server → client: opaque session state blob.
    Snapshot = 0x06,
    /// Client → server: clean close; the session is discarded.
    Bye = 0x07,
    /// Client → server: request watch telemetry (session + fleet).
    StatsReq = 0x08,
    /// Server → client: per-session and fleet-aggregated watch metrics.
    Stats = 0x09,
    /// Bidirectional migration control: client → server it requests
    /// moving the session to another worker shard
    /// ([`MigrateReq`]); server → client it acknowledges the completed
    /// move ([`MigrateAck`]).
    Migrate = 0x0a,
    /// Server → client: terminal error (code + message); the connection
    /// closes after this frame.
    Error = 0x7f,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0x01 => FrameKind::Hello,
            0x02 => FrameKind::Welcome,
            0x03 => FrameKind::Events,
            0x04 => FrameKind::Predictions,
            0x05 => FrameKind::SnapshotReq,
            0x06 => FrameKind::Snapshot,
            0x07 => FrameKind::Bye,
            0x08 => FrameKind::StatsReq,
            0x09 => FrameKind::Stats,
            0x0a => FrameKind::Migrate,
            0x7f => FrameKind::Error,
            _ => return None,
        })
    }
}

/// Error codes carried by [`FrameKind::Error`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The client's protocol version is not supported.
    ProtocolMismatch = 1,
    /// The configuration failed validation.
    ConfigInvalid = 2,
    /// The decoded configuration does not canon-hash to the client's
    /// claimed hash — the two builds disagree on the canonical encoding.
    ConfigHashMismatch = 3,
    /// Resume-by-id named a session the server does not hold.
    UnknownSession = 4,
    /// A resume state blob failed to restore.
    BadState = 5,
    /// A frame or payload could not be decoded.
    Malformed = 6,
    /// HELLO declared a workload family the server has no reference
    /// calibration profile for.
    UnknownFamily = 7,
}

impl ErrorCode {
    /// Decodes a wire byte.
    pub fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            1 => ErrorCode::ProtocolMismatch,
            2 => ErrorCode::ConfigInvalid,
            3 => ErrorCode::ConfigHashMismatch,
            4 => ErrorCode::UnknownSession,
            5 => ErrorCode::BadState,
            6 => ErrorCode::Malformed,
            7 => ErrorCode::UnknownFamily,
            _ => return None,
        })
    }
}

/// A protocol-level failure while reading or decoding.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying transport failed.
    Io(io::Error),
    /// A frame or payload violated the protocol.
    Malformed(String),
}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

fn malformed(msg: impl Into<String>) -> ProtoError {
    ProtoError::Malformed(msg.into())
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub kind: FrameKind,
    /// The raw payload (decode with the matching `decode_*` function).
    pub payload: Vec<u8>,
}

/// A frame whose payload is borrowed from a [`FrameDecoder`]'s buffer,
/// valid until the decoder is next used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// The frame type.
    pub kind: FrameKind,
    /// The raw payload (decode with the matching `decode_*` function).
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    /// The frame with its payload copied out.
    pub fn to_frame(&self) -> Frame {
        Frame {
            kind: self.kind,
            payload: self.payload.to_vec(),
        }
    }
}

/// Serializes a frame to a byte vector (header + payload + CRC).
pub fn frame_bytes(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 9);
    encode_frame_into(&mut out, kind, payload);
    out
}

/// Appends one serialized frame (header + payload + CRC) to `out`
/// without clearing it — the server queues replies this way, straight
/// into a connection's reused output buffer.
pub fn encode_frame_into(out: &mut Vec<u8>, kind: FrameKind, payload: &[u8]) {
    out.reserve(payload.len() + 9);
    encode_frame_with(out, kind, |out| out.extend_from_slice(payload));
}

/// Appends one serialized frame to `out` whose payload `write_payload`
/// appends in place, so a payload encoder can write straight into a
/// reused output buffer with no intermediate payload copy. The length
/// prefix is patched and the CRC computed once the payload is written.
pub fn encode_frame_with(
    out: &mut Vec<u8>,
    kind: FrameKind,
    write_payload: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.push(kind as u8);
    out.extend_from_slice(&[0; 4]);
    write_payload(out);
    let len = out.len() - start - 5;
    out[start + 1..start + 5].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = frame_crc(kind as u8, &out[start + 5..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The frame checksum: CRC-32 over the kind byte, then the payload.
fn frame_crc(kind: u8, payload: &[u8]) -> u32 {
    crc32_update(crc32_update(!0u32, &[kind]), payload) ^ !0u32
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ProtoError> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.map(|kind| Frame { kind, payload }))
}

/// [`read_frame`] into a reused buffer: reads one frame, leaves its
/// payload in `payload` (cleared first; its capacity is kept across
/// frames) and returns its kind. `Ok(None)` on a clean EOF at a frame
/// boundary; every verdict is [`read_frame`]'s.
pub fn read_frame_into(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
) -> Result<Option<FrameKind>, ProtoError> {
    let mut header = [0u8; 5];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..])? {
            0 if got == 0 => return Ok(None),
            0 => return Err(malformed("eof inside a frame header")),
            n => got += n,
        }
    }
    let kind = FrameKind::from_byte(header[0])
        .ok_or_else(|| malformed(format!("unknown frame kind {:#04x}", header[0])))?;
    let len = u32::from_le_bytes(header[1..5].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(malformed(format!("frame payload {len} exceeds the cap")));
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)
        .map_err(|_| malformed("eof inside a frame payload"))?;
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)
        .map_err(|_| malformed("eof inside a frame checksum"))?;
    if u32::from_le_bytes(crc_bytes) != frame_crc(header[0], payload) {
        return Err(malformed("frame checksum mismatch"));
    }
    Ok(Some(kind))
}

// ------------------------------------------------------------------ //
//  HELLO                                                             //
// ------------------------------------------------------------------ //

/// How a client wants its session established.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resume {
    /// A brand-new session.
    Fresh,
    /// Reclaim a session the server parked when the previous connection
    /// dropped.
    SessionId(u64),
    /// Rebuild a session from a [`FrameKind::Snapshot`] state blob the
    /// client carried across the disconnect.
    State(Vec<u8>),
}

/// The handshake message opening every connection.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    /// The client's protocol version.
    pub protocol_version: u32,
    /// The client executable's fingerprint (informational; surfaced for
    /// mismatch debugging).
    pub fingerprint: u64,
    /// The session's pipeline configuration.
    pub config: OnlineConfig,
    /// The client's canonical hash of `config`; the server re-canons the
    /// decoded config and refuses on disagreement, catching canonical
    /// encoding skew between builds.
    pub config_hash: u64,
    /// Session establishment mode.
    pub resume: Resume,
    /// Declared workload family for drift watching. When set, the server
    /// pins the session's rolling calibration profile against the named
    /// family's reference profile and refuses unknown names with
    /// [`ErrorCode::UnknownFamily`]. `None` disables drift scoring (the
    /// rest of the watch telemetry still runs).
    pub family: Option<String>,
}

/// Longest accepted [`Hello::family`] name, in bytes.
pub const MAX_FAMILY_NAME: usize = 64;

/// Encodes a [`Hello`] payload.
pub fn encode_hello(hello: &Hello) -> Vec<u8> {
    let mut out = Vec::new();
    write_uvarint(&mut out, hello.protocol_version as u64);
    out.extend_from_slice(&hello.fingerprint.to_le_bytes());
    out.extend_from_slice(&hello.config_hash.to_le_bytes());
    encode_config(&mut out, &hello.config);
    match &hello.resume {
        Resume::Fresh => out.push(0),
        Resume::SessionId(id) => {
            out.push(1);
            write_uvarint(&mut out, *id);
        }
        Resume::State(blob) => {
            out.push(2);
            write_uvarint(&mut out, blob.len() as u64);
            out.extend_from_slice(blob);
        }
    }
    match &hello.family {
        None => out.push(0),
        Some(name) => {
            out.push(1);
            write_uvarint(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
    }
    out
}

/// Decodes a [`Hello`] payload.
pub fn decode_hello(mut input: &[u8]) -> Result<Hello, ProtoError> {
    let input = &mut input;
    let protocol_version = read_uvarint(input)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| malformed("hello: protocol version"))?;
    let fingerprint = take_u64_le(input).ok_or_else(|| malformed("hello: fingerprint"))?;
    let config_hash = take_u64_le(input).ok_or_else(|| malformed("hello: config hash"))?;
    let config = decode_config(input)?;
    let (&tag, rest) = input
        .split_first()
        .ok_or_else(|| malformed("hello: resume tag"))?;
    *input = rest;
    let resume = match tag {
        0 => Resume::Fresh,
        1 => Resume::SessionId(read_uvarint(input).ok_or_else(|| malformed("hello: session id"))?),
        2 => {
            let len = read_uvarint(input)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| malformed("hello: state length"))?;
            if len > MAX_FRAME_PAYLOAD || input.len() < len {
                return Err(malformed("hello: state blob truncated"));
            }
            let (blob, rest) = input.split_at(len);
            *input = rest;
            Resume::State(blob.to_vec())
        }
        other => return Err(malformed(format!("hello: unknown resume tag {other}"))),
    };
    let (&family_tag, rest) = input
        .split_first()
        .ok_or_else(|| malformed("hello: family tag"))?;
    *input = rest;
    let family = match family_tag {
        0 => None,
        1 => {
            let len = read_uvarint(input)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| malformed("hello: family length"))?;
            if len > MAX_FAMILY_NAME {
                return Err(malformed("hello: family name too long"));
            }
            if input.len() < len {
                return Err(malformed("hello: family name truncated"));
            }
            let (name, rest) = input.split_at(len);
            *input = rest;
            let name = std::str::from_utf8(name)
                .map_err(|_| malformed("hello: family name is not UTF-8"))?;
            Some(name.to_owned())
        }
        other => return Err(malformed(format!("hello: unknown family tag {other}"))),
    };
    if !input.is_empty() {
        return Err(malformed("hello: trailing bytes"));
    }
    Ok(Hello {
        protocol_version,
        fingerprint,
        config,
        config_hash,
        resume,
        family,
    })
}

fn take_u64_le(input: &mut &[u8]) -> Option<u64> {
    if input.len() < 8 {
        return None;
    }
    let (bytes, rest) = input.split_at(8);
    *input = rest;
    Some(u64::from_le_bytes(bytes.try_into().unwrap()))
}

// ------------------------------------------------------------------ //
//  OnlineConfig wire codec                                           //
// ------------------------------------------------------------------ //
//
// Canon is serialize-only (it exists to hash); the protocol needs a
// decoder too, so the config travels in this explicit field encoding
// and the Canon hash rides along as the cross-build agreement check.

fn encode_config(out: &mut Vec<u8>, c: &OnlineConfig) {
    write_uvarint(out, c.tournament.gshare_entries as u64);
    write_uvarint(out, c.tournament.bimodal_entries as u64);
    write_uvarint(out, c.tournament.selector_entries as u64);
    write_uvarint(out, c.tournament.history_bits as u64);
    write_uvarint(out, c.confidence.entries as u64);
    write_uvarint(out, c.confidence.counter_bits as u64);
    write_uvarint(out, c.confidence.history_bits as u64);
    out.push(c.confidence.enhanced as u8);
    encode_estimator(out, &c.estimator);
    write_uvarint(out, c.resolve_lag as u64);
    write_uvarint(out, c.ticks_per_event);
}

fn encode_estimator(out: &mut Vec<u8>, e: &paco_sim::EstimatorKind) {
    use paco_sim::EstimatorKind as E;
    match e {
        E::None => out.push(0),
        E::Paco(cfg) => {
            out.push(1);
            write_uvarint(out, cfg.refresh_period);
            out.push(log_mode_byte(cfg.log_mode));
        }
        E::ThresholdCount(cfg) => {
            out.push(2);
            out.push(cfg.threshold);
        }
        E::StaticMrt => out.push(3),
        E::PerBranchMrt(cfg) => {
            out.push(4);
            write_uvarint(out, cfg.entries as u64);
            out.push(log_mode_byte(cfg.log_mode));
        }
        E::AdaptiveMrt(cfg) => {
            out.push(5);
            write_uvarint(out, cfg.refresh_period);
            out.push(log_mode_byte(cfg.log_mode));
            write_uvarint(out, cfg.detect_window as u64);
            write_uvarint(out, cfg.threshold_permille as u64);
            write_uvarint(out, cfg.limit_permille as u64);
            write_uvarint(out, cfg.warmup_windows as u64);
            out.push(cfg.blend as u8);
        }
    }
}

fn log_mode_byte(mode: paco::LogMode) -> u8 {
    match mode {
        paco::LogMode::Mitchell => 0,
        paco::LogMode::Exact => 1,
    }
}

fn log_mode_from(b: u8) -> Result<paco::LogMode, ProtoError> {
    match b {
        0 => Ok(paco::LogMode::Mitchell),
        1 => Ok(paco::LogMode::Exact),
        other => Err(malformed(format!("unknown log mode {other}"))),
    }
}

fn take_usize(input: &mut &[u8], what: &str) -> Result<usize, ProtoError> {
    read_uvarint(input)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| malformed(format!("config: {what}")))
}

fn decode_config(input: &mut &[u8]) -> Result<OnlineConfig, ProtoError> {
    let gshare_entries = take_usize(input, "gshare entries")?;
    let bimodal_entries = take_usize(input, "bimodal entries")?;
    let selector_entries = take_usize(input, "selector entries")?;
    let t_history = take_usize(input, "tournament history bits")?;
    let conf_entries = take_usize(input, "confidence entries")?;
    let counter_bits = take_usize(input, "counter bits")?;
    let c_history = take_usize(input, "confidence history bits")?;
    let (&enhanced, rest) = input
        .split_first()
        .ok_or_else(|| malformed("config: enhanced flag"))?;
    *input = rest;
    if enhanced > 1 {
        return Err(malformed("config: enhanced flag out of range"));
    }
    let estimator = decode_estimator(input)?;
    let resolve_lag = take_usize(input, "resolve lag")?;
    let ticks_per_event = read_uvarint(input).ok_or_else(|| malformed("config: ticks"))?;
    let u32_of = |v: usize, what: &str| {
        u32::try_from(v).map_err(|_| malformed(format!("config: {what} out of range")))
    };
    Ok(OnlineConfig {
        tournament: paco_branch::TournamentConfig {
            gshare_entries,
            bimodal_entries,
            selector_entries,
            history_bits: u32_of(t_history, "tournament history bits")?,
        },
        confidence: paco_branch::ConfidenceConfig {
            entries: conf_entries,
            counter_bits: u32_of(counter_bits, "counter bits")?,
            history_bits: u32_of(c_history, "confidence history bits")?,
            enhanced: enhanced == 1,
        },
        estimator,
        resolve_lag,
        ticks_per_event,
    })
}

fn decode_estimator(input: &mut &[u8]) -> Result<paco_sim::EstimatorKind, ProtoError> {
    use paco_sim::EstimatorKind as E;
    let (&tag, rest) = input
        .split_first()
        .ok_or_else(|| malformed("config: estimator tag"))?;
    *input = rest;
    Ok(match tag {
        0 => E::None,
        1 => {
            let refresh_period =
                read_uvarint(input).ok_or_else(|| malformed("config: refresh period"))?;
            let (&mode, rest) = input
                .split_first()
                .ok_or_else(|| malformed("config: log mode"))?;
            *input = rest;
            E::Paco(paco::PacoConfig {
                refresh_period,
                log_mode: log_mode_from(mode)?,
            })
        }
        2 => {
            let (&threshold, rest) = input
                .split_first()
                .ok_or_else(|| malformed("config: threshold"))?;
            *input = rest;
            E::ThresholdCount(paco::ThresholdCountConfig { threshold })
        }
        3 => E::StaticMrt,
        4 => {
            let entries = take_usize(input, "per-branch entries")?;
            let (&mode, rest) = input
                .split_first()
                .ok_or_else(|| malformed("config: log mode"))?;
            *input = rest;
            E::PerBranchMrt(paco::PerBranchMrtConfig {
                entries,
                log_mode: log_mode_from(mode)?,
            })
        }
        5 => {
            let refresh_period =
                read_uvarint(input).ok_or_else(|| malformed("config: refresh period"))?;
            let (&mode, rest) = input
                .split_first()
                .ok_or_else(|| malformed("config: log mode"))?;
            *input = rest;
            let u32_field = |input: &mut &[u8], what: &str| {
                read_uvarint(input)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| malformed(format!("config: {what}")))
            };
            let detect_window = u32_field(input, "detect window")?;
            let threshold_permille = u32_field(input, "threshold permille")?;
            let limit_permille = u32_field(input, "limit permille")?;
            let warmup_windows = u32_field(input, "warmup windows")?;
            let (&blend, rest) = input
                .split_first()
                .ok_or_else(|| malformed("config: blend flag"))?;
            *input = rest;
            if blend > 1 {
                return Err(malformed("config: blend flag out of range"));
            }
            E::AdaptiveMrt(paco::AdaptiveMrtConfig {
                refresh_period,
                log_mode: log_mode_from(mode)?,
                detect_window,
                threshold_permille,
                limit_permille,
                warmup_windows,
                blend: blend == 1,
            })
        }
        other => return Err(malformed(format!("config: unknown estimator tag {other}"))),
    })
}

// ------------------------------------------------------------------ //
//  WELCOME / SNAPSHOT                                                //
// ------------------------------------------------------------------ //

/// The server's handshake answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Welcome {
    /// The granted session id (use it for reconnect-by-id).
    pub session_id: u64,
    /// The server executable's fingerprint.
    pub fingerprint: u64,
    /// Events the session has already processed (0 for a fresh session;
    /// the resume point otherwise).
    pub events: u64,
}

/// Encodes a [`Welcome`] payload.
pub fn encode_welcome(w: &Welcome) -> Vec<u8> {
    let mut out = Vec::new();
    write_uvarint(&mut out, w.session_id);
    out.extend_from_slice(&w.fingerprint.to_le_bytes());
    write_uvarint(&mut out, w.events);
    out
}

/// Decodes a [`Welcome`] payload.
pub fn decode_welcome(mut input: &[u8]) -> Result<Welcome, ProtoError> {
    let input = &mut input;
    let session_id = read_uvarint(input).ok_or_else(|| malformed("welcome: session id"))?;
    let fingerprint = take_u64_le(input).ok_or_else(|| malformed("welcome: fingerprint"))?;
    let events = read_uvarint(input).ok_or_else(|| malformed("welcome: events"))?;
    if !input.is_empty() {
        return Err(malformed("welcome: trailing bytes"));
    }
    Ok(Welcome {
        session_id,
        fingerprint,
        events,
    })
}

/// A session snapshot: the opaque state blob plus its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The session the blob was taken from.
    pub session_id: u64,
    /// Events processed at snapshot time.
    pub events: u64,
    /// The opaque pipeline state (restore via [`Resume::State`]).
    pub state: Vec<u8>,
}

/// Encodes a [`Snapshot`] payload.
pub fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    let mut out = Vec::new();
    write_uvarint(&mut out, s.session_id);
    write_uvarint(&mut out, s.events);
    write_uvarint(&mut out, s.state.len() as u64);
    out.extend_from_slice(&s.state);
    out
}

/// Decodes a [`Snapshot`] payload.
pub fn decode_snapshot(mut input: &[u8]) -> Result<Snapshot, ProtoError> {
    let input = &mut input;
    let session_id = read_uvarint(input).ok_or_else(|| malformed("snapshot: session id"))?;
    let events = read_uvarint(input).ok_or_else(|| malformed("snapshot: events"))?;
    let len = read_uvarint(input)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| malformed("snapshot: state length"))?;
    if input.len() != len {
        return Err(malformed("snapshot: state length disagrees with payload"));
    }
    Ok(Snapshot {
        session_id,
        events,
        state: input.to_vec(),
    })
}

// ------------------------------------------------------------------ //
//  STATS (paco-watch telemetry)                                      //
// ------------------------------------------------------------------ //

/// Upper bound accepted for calibration-bin vectors in a STATS payload.
pub const MAX_STATS_BINS: usize = 1024;

/// Per-session watch telemetry, as carried in a [`FrameKind::Stats`]
/// frame: lifetime calibration counters plus the drift detector's
/// current verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStats {
    /// The session the metrics describe.
    pub session_id: u64,
    /// The declared workload family the drift detector scores against
    /// (`None` when the session did not declare one).
    pub family: Option<String>,
    /// Control events observed since the session started.
    pub events: u64,
    /// Mispredicted events since the session started.
    pub mispredicts: u64,
    /// Events that carried a probability estimate.
    pub with_prob: u64,
    /// Completed rolling windows fed to the drift detector.
    pub windows: u64,
    /// Events in the current (partial) rolling window.
    pub window_len: u64,
    /// IEEE-754 bits of the most recent completed window's divergence
    /// from the reference profile (0.0 before the first window or
    /// without a declared family). Bits, not a float: stats frames are
    /// part of the lane-determinism surface.
    pub last_divergence_bits: u64,
    /// IEEE-754 bits of the CUSUM drift accumulator.
    pub cusum_bits: u64,
    /// Whether the drift flag has latched for this session.
    pub drift_flagged: bool,
    /// The 1-based detector window at which the flag latched (0 =
    /// never).
    pub drift_window: u64,
    /// Lifetime `(instances, correct predictions)` calibration bins,
    /// low predicted probability first — feed to
    /// `paco_analysis::ReliabilityDiagram::from_bins`.
    pub bins: Vec<(u64, u64)>,
}

/// Fleet-aggregated watch telemetry: every session the server has seen,
/// pooled.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Sessions currently owned by a live connection.
    pub sessions_active: u64,
    /// Sessions parked awaiting a resume.
    pub sessions_parked: u64,
    /// Sessions ever established since the server started.
    pub sessions_seen: u64,
    /// Sessions whose drift flag has latched.
    pub flagged_sessions: u64,
    /// Control events observed across the fleet.
    pub events: u64,
    /// Mispredicted events across the fleet.
    pub mispredicts: u64,
    /// IEEE-754 bits of the server's recent fleet-wide event rate
    /// (events/second, exponentially smoothed over snapshot intervals).
    pub events_per_sec_bits: u64,
    /// Pooled calibration bins across the fleet (same layout as
    /// [`SessionStats::bins`], summed bin by bin over every session's
    /// answered batches).
    pub bins: Vec<(u64, u64)>,
}

/// A [`FrameKind::Stats`] payload: the requesting session's telemetry
/// plus the fleet snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Metrics of the session that sent STATS_REQ.
    pub session: SessionStats,
    /// Fleet-wide aggregate at the time of the request.
    pub fleet: FleetStats,
}

fn encode_bins(out: &mut Vec<u8>, bins: &[(u64, u64)]) {
    write_uvarint(out, bins.len() as u64);
    for &(instances, correct) in bins {
        write_uvarint(out, instances);
        write_uvarint(out, correct);
    }
}

fn decode_bins(input: &mut &[u8], what: &str) -> Result<Vec<(u64, u64)>, ProtoError> {
    let count = read_uvarint(input)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| malformed(format!("{what}: bin count")))?;
    if count > MAX_STATS_BINS {
        return Err(malformed(format!("{what}: implausible bin count")));
    }
    let mut bins = Vec::with_capacity(count);
    for _ in 0..count {
        let instances =
            read_uvarint(input).ok_or_else(|| malformed(format!("{what}: bin instances")))?;
        let correct =
            read_uvarint(input).ok_or_else(|| malformed(format!("{what}: bin correct")))?;
        bins.push((instances, correct));
    }
    Ok(bins)
}

fn encode_opt_name(out: &mut Vec<u8>, name: &Option<String>) {
    match name {
        None => out.push(0),
        Some(name) => {
            out.push(1);
            write_uvarint(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
    }
}

fn decode_opt_name(input: &mut &[u8], what: &str) -> Result<Option<String>, ProtoError> {
    let (&tag, rest) = input
        .split_first()
        .ok_or_else(|| malformed(format!("{what}: name tag")))?;
    *input = rest;
    match tag {
        0 => Ok(None),
        1 => {
            let len = read_uvarint(input)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| malformed(format!("{what}: name length")))?;
            if len > MAX_FAMILY_NAME {
                return Err(malformed(format!("{what}: name too long")));
            }
            if input.len() < len {
                return Err(malformed(format!("{what}: name truncated")));
            }
            let (name, rest) = input.split_at(len);
            *input = rest;
            let name = std::str::from_utf8(name)
                .map_err(|_| malformed(format!("{what}: name is not UTF-8")))?;
            Ok(Some(name.to_owned()))
        }
        other => Err(malformed(format!("{what}: unknown name tag {other}"))),
    }
}

/// Appends the wire encoding of a [`SessionStats`] to `out`. Exposed
/// separately from [`encode_stats`] so the lane-determinism test can
/// compare session telemetry byte-for-byte.
pub fn encode_session_stats(out: &mut Vec<u8>, s: &SessionStats) {
    write_uvarint(out, s.session_id);
    encode_opt_name(out, &s.family);
    write_uvarint(out, s.events);
    write_uvarint(out, s.mispredicts);
    write_uvarint(out, s.with_prob);
    write_uvarint(out, s.windows);
    write_uvarint(out, s.window_len);
    out.extend_from_slice(&s.last_divergence_bits.to_le_bytes());
    out.extend_from_slice(&s.cusum_bits.to_le_bytes());
    out.push(s.drift_flagged as u8);
    write_uvarint(out, s.drift_window);
    encode_bins(out, &s.bins);
}

fn decode_session_stats(input: &mut &[u8]) -> Result<SessionStats, ProtoError> {
    let session_id = read_uvarint(input).ok_or_else(|| malformed("stats: session id"))?;
    let family = decode_opt_name(input, "stats: family")?;
    let events = read_uvarint(input).ok_or_else(|| malformed("stats: events"))?;
    let mispredicts = read_uvarint(input).ok_or_else(|| malformed("stats: mispredicts"))?;
    let with_prob = read_uvarint(input).ok_or_else(|| malformed("stats: with_prob"))?;
    let windows = read_uvarint(input).ok_or_else(|| malformed("stats: windows"))?;
    let window_len = read_uvarint(input).ok_or_else(|| malformed("stats: window length"))?;
    let last_divergence_bits = take_u64_le(input).ok_or_else(|| malformed("stats: divergence"))?;
    let cusum_bits = take_u64_le(input).ok_or_else(|| malformed("stats: cusum"))?;
    let (&flag, rest) = input
        .split_first()
        .ok_or_else(|| malformed("stats: drift flag"))?;
    *input = rest;
    if flag > 1 {
        return Err(malformed("stats: drift flag out of range"));
    }
    let drift_window = read_uvarint(input).ok_or_else(|| malformed("stats: drift window"))?;
    let bins = decode_bins(input, "stats: session")?;
    Ok(SessionStats {
        session_id,
        family,
        events,
        mispredicts,
        with_prob,
        windows,
        window_len,
        last_divergence_bits,
        cusum_bits,
        drift_flagged: flag == 1,
        drift_window,
        bins,
    })
}

fn encode_fleet_stats(out: &mut Vec<u8>, f: &FleetStats) {
    write_uvarint(out, f.sessions_active);
    write_uvarint(out, f.sessions_parked);
    write_uvarint(out, f.sessions_seen);
    write_uvarint(out, f.flagged_sessions);
    write_uvarint(out, f.events);
    write_uvarint(out, f.mispredicts);
    out.extend_from_slice(&f.events_per_sec_bits.to_le_bytes());
    encode_bins(out, &f.bins);
}

fn decode_fleet_stats(input: &mut &[u8]) -> Result<FleetStats, ProtoError> {
    let sessions_active = read_uvarint(input).ok_or_else(|| malformed("stats: active sessions"))?;
    let sessions_parked = read_uvarint(input).ok_or_else(|| malformed("stats: parked sessions"))?;
    let sessions_seen = read_uvarint(input).ok_or_else(|| malformed("stats: seen sessions"))?;
    let flagged_sessions =
        read_uvarint(input).ok_or_else(|| malformed("stats: flagged sessions"))?;
    let events = read_uvarint(input).ok_or_else(|| malformed("stats: fleet events"))?;
    let mispredicts = read_uvarint(input).ok_or_else(|| malformed("stats: fleet mispredicts"))?;
    let events_per_sec_bits = take_u64_le(input).ok_or_else(|| malformed("stats: fleet rate"))?;
    let bins = decode_bins(input, "stats: fleet")?;
    Ok(FleetStats {
        sessions_active,
        sessions_parked,
        sessions_seen,
        flagged_sessions,
        events,
        mispredicts,
        events_per_sec_bits,
        bins,
    })
}

/// Encodes a [`Stats`] payload.
pub fn encode_stats(stats: &Stats) -> Vec<u8> {
    let mut out = Vec::new();
    encode_session_stats(&mut out, &stats.session);
    encode_fleet_stats(&mut out, &stats.fleet);
    out
}

/// Decodes a [`Stats`] payload.
pub fn decode_stats(mut input: &[u8]) -> Result<Stats, ProtoError> {
    let input = &mut input;
    let session = decode_session_stats(input)?;
    let fleet = decode_fleet_stats(input)?;
    if !input.is_empty() {
        return Err(malformed("stats: trailing bytes"));
    }
    Ok(Stats { session, fleet })
}

// ------------------------------------------------------------------ //
//  EVENTS / PREDICTIONS                                              //
// ------------------------------------------------------------------ //

/// EVENTS flag bits 0–3: the event's class code ([`InstrClass::code`];
/// codes above the last class are refused).
const EVENT_CLASS_MASK: u8 = 0x0f;
/// EVENTS flag bit 4: the event's architectural outcome was taken.
/// Bits 5–7 are reserved and refused.
pub const EVENT_FLAG_TAKEN: u8 = 0x10;

/// The longest encoding of one event: flags and a maximal PC delta
/// varint.
const MAX_EVENT_BYTES: usize = 1 + MAX_UVARINT_LEN;

/// Encodes a batch of branch events: the count, then per event a flags
/// byte (class code and taken bit) and the zigzag PC delta from the
/// previous event. The first delta is from PC 0, so frames decode
/// independently. Targets, dependency distances and memory addresses
/// are not sent: the online pipeline never reads them.
pub fn encode_events(instrs: &[DynInstr]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAX_UVARINT_LEN + instrs.len() * MAX_EVENT_BYTES);
    encode_events_into(&mut out, instrs);
    out
}

/// [`encode_events`] appending to `out` without clearing it — the
/// client encodes its EVENTS payload this way, straight into a reused
/// frame buffer.
///
/// `out` is grown once to the worst case (11 bytes per event), written
/// by index and truncated to the bytes written.
pub fn encode_events_into(out: &mut Vec<u8>, instrs: &[DynInstr]) {
    write_uvarint(out, instrs.len() as u64);
    let start = out.len();
    out.resize(start + instrs.len() * MAX_EVENT_BYTES, 0);
    let buf = &mut out[start..];
    let mut at = 0;
    let mut prev_pc = 0u64;
    for instr in instrs {
        let pc = instr.pc.addr();
        buf[at] = instr.class.code() | if instr.taken { EVENT_FLAG_TAKEN } else { 0 };
        at += 1;
        at += put_uvarint(&mut buf[at..], zigzag(pc.wrapping_sub(prev_pc) as i64));
        prev_pc = pc;
    }
    out.truncate(start + at);
}

/// Decodes a batch of branch events straight into a (reused)
/// struct-of-arrays [`EventBatch`] — the server hot path. The batch is
/// sized to the count once and its columns are filled by index; on any
/// error it is left empty.
///
/// Refuses a missing or implausible count (every event is at least two
/// bytes), a count above [`MAX_EVENTS_PER_FRAME`], reserved flag bits, unknown class codes, truncation anywhere
/// and trailing bytes. The batch's capacity is retained across frames,
/// so a steady-state connection allocates nothing per frame.
pub fn decode_events_into(input: &[u8], batch: &mut EventBatch) -> Result<(), ProtoError> {
    let decoded = decode_event_columns(input, batch);
    if decoded.is_err() {
        batch.clear();
    }
    decoded
}

/// Refuses an EVENTS frame of more than [`MAX_EVENTS_PER_FRAME`]
/// events: the server's decoder on receipt, the client before sending.
pub(crate) fn check_event_count(count: u64) -> Result<(), ProtoError> {
    if count > MAX_EVENTS_PER_FRAME as u64 {
        return Err(malformed(format!(
            "events: {count} events exceed the cap of {MAX_EVENTS_PER_FRAME} per frame"
        )));
    }
    Ok(())
}

/// [`decode_events_into`] without the clear on error.
fn decode_event_columns(mut input: &[u8], batch: &mut EventBatch) -> Result<(), ProtoError> {
    let input = &mut input;
    let count = read_uvarint(input).ok_or_else(|| malformed("events: count"))?;
    check_event_count(count)?;
    if count > input.len() as u64 / 2 {
        return Err(malformed("events: implausible count"));
    }
    let (pcs, classes, taken) = batch.columns_mut(count as usize);
    let mut pc = 0u64;
    for ((pc_out, class_out), taken_out) in pcs.iter_mut().zip(classes).zip(taken) {
        let (&flags, rest) = input
            .split_first()
            .ok_or_else(|| malformed("events: flags"))?;
        *input = rest;
        let code = flags & EVENT_CLASS_MASK;
        if flags & !(EVENT_CLASS_MASK | EVENT_FLAG_TAKEN) != 0 {
            return Err(malformed("events: unknown flag bits"));
        }
        if InstrClass::from_code(code).is_none() {
            return Err(malformed("events: unknown class code"));
        }
        let delta = read_uvarint(input).ok_or_else(|| malformed("events: pc delta"))?;
        pc = pc.wrapping_add(unzigzag(delta) as u64);
        *pc_out = pc;
        *class_out = code;
        *taken_out = flags & EVENT_FLAG_TAKEN != 0;
    }
    if !input.is_empty() {
        return Err(malformed("events: trailing bytes"));
    }
    Ok(())
}

// The wire flag bits are defined once, on `OutcomeBatch` in `paco-sim`,
// so the batched pipeline output and the wire encoding cannot drift.
const OUTCOME_PREDICTED: u8 = OutcomeBatch::FLAG_PREDICTED_TAKEN;
const OUTCOME_MISPREDICTED: u8 = OutcomeBatch::FLAG_MISPREDICTED;
const OUTCOME_HAS_PROB: u8 = OutcomeBatch::FLAG_HAS_PROB;

/// The longest encoding of one outcome: flags and a maximal score
/// varint.
const MAX_OUTCOME_BYTES: usize = 1 + MAX_UVARINT_LEN;

/// Encodes a batch of prediction outcomes. This encoding is the parity
/// surface: the integration suite requires the bytes streamed by
/// `paco-served` to equal the bytes produced by an offline
/// [`OnlinePipeline`](paco_sim::OnlinePipeline) run bit for bit. The
/// probability is not sent: with the has-probability flag set the
/// score is an encoded probability, decoded by
/// [`OnlineOutcome::probability`].
pub fn encode_outcomes(outcomes: &[OnlineOutcome]) -> Vec<u8> {
    let mut out = Vec::new();
    write_uvarint(&mut out, outcomes.len() as u64);
    for o in outcomes {
        let mut flags = 0u8;
        if o.predicted_taken {
            flags |= OUTCOME_PREDICTED;
        }
        if o.mispredicted {
            flags |= OUTCOME_MISPREDICTED;
        }
        if o.has_prob {
            flags |= OUTCOME_HAS_PROB;
        }
        out.push(flags);
        write_uvarint(&mut out, o.score);
    }
    out
}

/// Encodes a batch of prediction outcomes from a struct-of-arrays
/// [`OutcomeBatch`] — the server hot path. Produces bytes **identical**
/// to [`encode_outcomes`] over the same outcomes (the batch stores the
/// wire flag bytes directly, so this is a straight copy-out); appends
/// to `out` without clearing it, so a reused buffer must be cleared by
/// the caller.
///
/// `out` is grown once to the worst case (11 bytes per outcome),
/// written by index and truncated to the bytes written, so the loop
/// carries no per-byte capacity checks.
pub fn encode_outcomes_into(out: &mut Vec<u8>, outcomes: &OutcomeBatch) {
    write_uvarint(out, outcomes.len() as u64);
    let start = out.len();
    out.resize(start + outcomes.len() * MAX_OUTCOME_BYTES, 0);
    let buf = &mut out[start..];
    let mut at = 0;
    for (&flag, &score) in outcomes.flags().iter().zip(outcomes.scores()) {
        buf[at] = flag;
        at += 1;
        at += put_uvarint(&mut buf[at..], score);
    }
    out.truncate(start + at);
}

/// Decodes a batch of prediction outcomes.
pub fn decode_outcomes(input: &[u8]) -> Result<Vec<OnlineOutcome>, ProtoError> {
    decode_outcomes_with(input, |_| {})
}

/// [`decode_outcomes`] that hands every payload byte to `absorb`, in
/// order, in the same pass — the client feeds its [`Digest`] this way,
/// so the bytes are walked once. Every byte is absorbed exactly once,
/// also when decoding fails: the bytes from the failing outcome on are
/// absorbed before the error returns.
pub(crate) fn decode_outcomes_with(
    payload: &[u8],
    mut absorb: impl FnMut(u8),
) -> Result<Vec<OnlineOutcome>, ProtoError> {
    let mut rest = payload;
    let decoded = decode_outcome_pieces(&mut rest, &mut absorb);
    rest.iter().for_each(|&b| absorb(b));
    decoded
}

/// The body of [`decode_outcomes_with`]: `rest` is the part of the
/// payload not yet absorbed.
fn decode_outcome_pieces(
    rest: &mut &[u8],
    absorb: &mut impl FnMut(u8),
) -> Result<Vec<OnlineOutcome>, ProtoError> {
    let mut input = *rest;
    let count = read_uvarint(&mut input).ok_or_else(|| malformed("predictions: count"))?;
    rest[..rest.len() - input.len()]
        .iter()
        .for_each(|&b| absorb(b));
    *rest = input;
    if count > (input.len() as u64 / 2) + 1 {
        return Err(malformed("predictions: implausible count"));
    }
    const KNOWN: u8 = OUTCOME_PREDICTED | OUTCOME_MISPREDICTED | OUTCOME_HAS_PROB;
    let mut outcomes = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let (flags, score) = match *input {
            // The common cases, one- and two-byte scores, absorb as
            // they decode.
            [flags, s0, ref tail @ ..] if s0 < 0x80 && flags & !KNOWN == 0 => {
                absorb(flags);
                absorb(s0);
                input = tail;
                (flags, s0 as u64)
            }
            [flags, s0, s1, ref tail @ ..] if s1 < 0x80 && flags & !KNOWN == 0 => {
                absorb(flags);
                absorb(s0);
                absorb(s1);
                input = tail;
                (flags, (s0 & 0x7f) as u64 | (s1 as u64) << 7)
            }
            _ => {
                let (&flags, tail) = input
                    .split_first()
                    .ok_or_else(|| malformed("predictions: flags"))?;
                if flags & !KNOWN != 0 {
                    return Err(malformed("predictions: unknown flag bits"));
                }
                input = tail;
                let score =
                    read_uvarint(&mut input).ok_or_else(|| malformed("predictions: score"))?;
                rest[..rest.len() - input.len()]
                    .iter()
                    .for_each(|&b| absorb(b));
                (flags, score)
            }
        };
        *rest = input;
        outcomes.push(OnlineOutcome {
            score,
            has_prob: flags & OUTCOME_HAS_PROB != 0,
            predicted_taken: flags & OUTCOME_PREDICTED != 0,
            mispredicted: flags & OUTCOME_MISPREDICTED != 0,
        });
    }
    if !input.is_empty() {
        return Err(malformed("predictions: trailing bytes"));
    }
    Ok(outcomes)
}

// ------------------------------------------------------------------ //
//  MIGRATE                                                           //
// ------------------------------------------------------------------ //

/// A client → server [`FrameKind::Migrate`] payload: move the
/// connection's live session to another worker shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateReq {
    /// The session to move. Must be the session attached to the
    /// requesting connection (migrating someone else's session is
    /// refused with [`ErrorCode::BadState`]).
    pub session_id: u64,
    /// Destination worker shard; `None` lets the server pick the
    /// least-loaded worker.
    pub target_shard: Option<u32>,
}

/// A server → client [`FrameKind::Migrate`] payload acknowledging the
/// completed move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrateAck {
    /// The migrated session.
    pub session_id: u64,
    /// Worker shard the session left.
    pub from_shard: u32,
    /// Worker shard now owning the session.
    pub to_shard: u32,
}

/// Encodes a [`MigrateReq`] payload.
pub fn encode_migrate_req(req: &MigrateReq) -> Vec<u8> {
    let mut out = Vec::new();
    write_uvarint(&mut out, req.session_id);
    match req.target_shard {
        None => out.push(0),
        Some(shard) => {
            out.push(1);
            write_uvarint(&mut out, shard as u64);
        }
    }
    out
}

/// Decodes a [`MigrateReq`] payload.
pub fn decode_migrate_req(mut input: &[u8]) -> Result<MigrateReq, ProtoError> {
    let input = &mut input;
    let session_id = read_uvarint(input).ok_or_else(|| malformed("migrate: session id"))?;
    let (&tag, rest) = input
        .split_first()
        .ok_or_else(|| malformed("migrate: target tag"))?;
    *input = rest;
    let target_shard = match tag {
        0 => None,
        1 => Some(
            read_uvarint(input)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| malformed("migrate: target shard"))?,
        ),
        other => return Err(malformed(format!("migrate: unknown target tag {other}"))),
    };
    if !input.is_empty() {
        return Err(malformed("migrate: trailing bytes"));
    }
    Ok(MigrateReq {
        session_id,
        target_shard,
    })
}

/// Encodes a [`MigrateAck`] payload.
pub fn encode_migrate_ack(ack: &MigrateAck) -> Vec<u8> {
    let mut out = Vec::new();
    write_uvarint(&mut out, ack.session_id);
    write_uvarint(&mut out, ack.from_shard as u64);
    write_uvarint(&mut out, ack.to_shard as u64);
    out
}

/// Decodes a [`MigrateAck`] payload.
pub fn decode_migrate_ack(mut input: &[u8]) -> Result<MigrateAck, ProtoError> {
    let input = &mut input;
    let session_id = read_uvarint(input).ok_or_else(|| malformed("migrate ack: session id"))?;
    let from_shard = read_uvarint(input)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| malformed("migrate ack: from shard"))?;
    let to_shard = read_uvarint(input)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| malformed("migrate ack: to shard"))?;
    if !input.is_empty() {
        return Err(malformed("migrate ack: trailing bytes"));
    }
    Ok(MigrateAck {
        session_id,
        from_shard,
        to_shard,
    })
}

// ------------------------------------------------------------------ //
//  Incremental frame decoding (the reactor read path)                 //
// ------------------------------------------------------------------ //

/// An incremental frame decoder for non-blocking reads: bytes arrive in
/// arbitrary chunks via [`FrameDecoder::feed`], complete frames come
/// out of [`FrameDecoder::try_frame`].
///
/// The decoder reaches **exactly** the verdicts of [`read_frame`] over
/// the same byte stream, independent of how the stream is chunked: the
/// same frames in the same order, the same `Malformed` messages for
/// unknown kinds, oversized payloads and checksum mismatches, and —
/// via [`FrameDecoder::on_eof`] — the same clean-EOF/mid-frame-EOF
/// distinction. The equivalence is property-tested in
/// `crates/serve/tests/properties.rs`.
///
/// An oversized length prefix is rejected from the 5 header bytes
/// alone, before any payload-sized allocation.
///
/// Decoding is linear in the bytes fed: a frame is consumed by moving a
/// cursor, not by shifting the buffer, and the consumed prefix is
/// compacted away in [`FrameDecoder::feed`] only once it is longer than
/// the unconsumed rest (so each byte is moved O(1) times). The buffer
/// therefore holds at most twice the unconsumed bytes at a feed, plus
/// the bytes fed.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed as frames.
    pos: usize,
}

impl FrameDecoder {
    /// A decoder at a frame boundary with nothing buffered.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends raw transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The bytes buffered but not yet consumed as a frame.
    fn pending(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Bytes buffered but not yet consumed as a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The bytes the next frame takes when [`try_frame`](Self::try_frame)
    /// would answer now without more bytes: its length when it is whole,
    /// 0 for a header it refuses. `None` while more bytes are needed.
    fn next_frame_len(&self) -> Option<usize> {
        let pending = self.pending();
        if pending.len() < 5 {
            return None;
        }
        let len = u32::from_le_bytes(pending[1..5].try_into().unwrap()) as usize;
        if FrameKind::from_byte(pending[0]).is_none() || len > MAX_FRAME_PAYLOAD {
            Some(0)
        } else {
            (pending.len() >= 5 + len + 4).then_some(5 + len + 4)
        }
    }

    /// Whether [`try_frame`](Self::try_frame) would answer now without
    /// more bytes: a whole frame is buffered, or a header it refuses.
    pub(crate) fn frame_ready(&self) -> bool {
        self.next_frame_len().is_some()
    }

    /// Whether bytes past the next whole frame are buffered: the peer
    /// sent more than one frame ahead.
    pub(crate) fn past_frame(&self) -> bool {
        self.next_frame_len()
            .is_some_and(|len| self.buffered() > len)
    }

    /// Whether the decoder sits at a frame boundary (a clean EOF here is
    /// a clean close, not a protocol error).
    pub fn at_boundary(&self) -> bool {
        self.buffered() == 0
    }

    /// Extracts the next complete frame, lending its payload from the
    /// decoder's buffer (no copy). `Ok(None)` means more bytes are
    /// needed; an error is terminal (the stream is unusable, matching
    /// [`read_frame`]'s verdict at the same point).
    pub fn try_frame(&mut self) -> Result<Option<FrameRef<'_>>, ProtoError> {
        // A fully consumed buffer restarts here rather than when its
        // last frame is taken, since that frame borrows it.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        let pending = &self.buf[self.pos..];
        if pending.len() < 5 {
            return Ok(None);
        }
        let kind = FrameKind::from_byte(pending[0])
            .ok_or_else(|| malformed(format!("unknown frame kind {:#04x}", pending[0])))?;
        let len = u32::from_le_bytes(pending[1..5].try_into().unwrap()) as usize;
        if len > MAX_FRAME_PAYLOAD {
            return Err(malformed(format!("frame payload {len} exceeds the cap")));
        }
        let total = 5 + len + 4;
        if pending.len() < total {
            return Ok(None);
        }
        let crc = u32::from_le_bytes(pending[5 + len..total].try_into().unwrap());
        if crc != frame_crc(pending[0], &pending[5..5 + len]) {
            return Err(malformed("frame checksum mismatch"));
        }
        let start = self.pos + 5;
        self.pos += total;
        Ok(Some(FrameRef {
            kind,
            payload: &self.buf[start..start + len],
        }))
    }

    /// The verdict for an EOF observed now: `Ok` at a frame boundary,
    /// the matching [`read_frame`] mid-frame error otherwise. Only
    /// meaningful after [`FrameDecoder::try_frame`] returned `Ok(None)`
    /// (a decode error is already terminal).
    pub fn on_eof(&self) -> Result<(), ProtoError> {
        let pending = self.pending();
        if pending.is_empty() {
            return Ok(());
        }
        if pending.len() < 5 {
            return Err(malformed("eof inside a frame header"));
        }
        let len = u32::from_le_bytes(pending[1..5].try_into().unwrap()) as usize;
        if pending.len() < 5 + len {
            Err(malformed("eof inside a frame payload"))
        } else {
            Err(malformed("eof inside a frame checksum"))
        }
    }
}

/// Encodes an [`FrameKind::Error`] payload.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = vec![code as u8];
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes an [`FrameKind::Error`] payload into `(code, message)`.
pub fn decode_error(input: &[u8]) -> Result<(ErrorCode, String), ProtoError> {
    let (&code, rest) = input
        .split_first()
        .ok_or_else(|| malformed("error frame: code"))?;
    let code = ErrorCode::from_byte(code)
        .ok_or_else(|| malformed(format!("error frame: unknown code {code}")))?;
    let message = String::from_utf8_lossy(rest).into_owned();
    Ok((code, message))
}

/// A running FNV-1a 64-bit digest over prediction bytes — the
/// per-session result fingerprint reported by the load harness and
/// compared by the concurrency tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// A fresh digest (the FNV-1a offset basis).
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// A digest whose running state is `value` — resumes accumulation
    /// exactly where a previous digest's [`value`](Self::value) left
    /// off (the FNV-1a state *is* the value), so a churn driver can
    /// carry one digest across reconnects.
    pub fn seeded(value: u64) -> Self {
        Digest(value)
    }

    /// Feeds bytes into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.absorb(b));
    }

    /// Feeds one byte into the digest.
    #[inline]
    pub(crate) fn absorb(&mut self, byte: u8) {
        self.0 ^= byte as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// Convenience: the canonical hash of a config, as exchanged in HELLO.
pub fn config_hash(config: &OnlineConfig) -> u64 {
    config.canon_hash()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paco::PacoConfig;
    use paco_sim::EstimatorKind;
    use paco_types::Pc;
    use paco_workloads::{BenchmarkId, Workload};

    fn sample_config() -> OnlineConfig {
        OnlineConfig::tiny(EstimatorKind::Paco(PacoConfig::paper()))
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello frames".to_vec();
        let bytes = frame_bytes(FrameKind::Events, &payload);
        let frame = read_frame(&mut bytes.as_slice()).unwrap().unwrap();
        assert_eq!(frame.kind, FrameKind::Events);
        assert_eq!(frame.payload, payload);
    }

    #[test]
    fn encode_frame_into_appends() {
        let mut out = b"pending".to_vec();
        encode_frame_into(&mut out, FrameKind::Stats, b"abc");
        assert_eq!(&out[..7], b"pending");
        assert_eq!(&out[7..], frame_bytes(FrameKind::Stats, b"abc").as_slice());
    }

    #[test]
    fn read_frame_into_reuses_its_buffer_and_agrees_with_read_frame() {
        let mut stream = frame_bytes(FrameKind::Events, &[7u8; 300]);
        stream.extend_from_slice(&frame_bytes(FrameKind::Bye, &[]));
        stream.extend_from_slice(&frame_bytes(FrameKind::Stats, b"abc"));
        let mut blocking = stream.as_slice();
        let mut reused = stream.as_slice();
        let mut payload = b"stale".to_vec();
        while let Some(frame) = read_frame(&mut blocking).unwrap() {
            let kind = read_frame_into(&mut reused, &mut payload).unwrap();
            assert_eq!(kind, Some(frame.kind));
            assert_eq!(payload, frame.payload);
        }
        assert_eq!(read_frame_into(&mut reused, &mut payload).unwrap(), None);
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_error() {
        assert!(read_frame(&mut &b""[..]).unwrap().is_none());
        let bytes = frame_bytes(FrameKind::Bye, &[]);
        for cut in 1..bytes.len() {
            assert!(
                read_frame(&mut &bytes[..cut]).is_err(),
                "cut at {cut} must be an error, not silence"
            );
        }
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let bytes = frame_bytes(FrameKind::Events, b"payload-bytes");
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                read_frame(&mut bad.as_slice()).is_err(),
                "flip at {i} must be detected"
            );
        }
    }

    #[test]
    fn hello_round_trips_all_resume_modes() {
        for resume in [
            Resume::Fresh,
            Resume::SessionId(42),
            Resume::State(vec![1, 2, 3, 4]),
        ] {
            for family in [None, Some("biased_bimodal".to_owned())] {
                let hello = Hello {
                    protocol_version: PROTOCOL_VERSION,
                    fingerprint: 0xdead_beef,
                    config: sample_config(),
                    config_hash: config_hash(&sample_config()),
                    resume: resume.clone(),
                    family,
                };
                let bytes = encode_hello(&hello);
                assert_eq!(decode_hello(&bytes).unwrap(), hello);
            }
        }
    }

    #[test]
    fn hello_rejects_oversized_family_names() {
        let hello = Hello {
            protocol_version: PROTOCOL_VERSION,
            fingerprint: 1,
            config: sample_config(),
            config_hash: config_hash(&sample_config()),
            resume: Resume::Fresh,
            family: Some("f".repeat(MAX_FAMILY_NAME + 1)),
        };
        assert!(decode_hello(&encode_hello(&hello)).is_err());
    }

    #[test]
    fn config_codec_round_trips_every_estimator() {
        use paco_sim::EstimatorKind as E;
        let kinds = [
            E::None,
            E::Paco(PacoConfig::paper()),
            E::ThresholdCount(paco::ThresholdCountConfig::paper_default()),
            E::StaticMrt,
            E::PerBranchMrt(paco::PerBranchMrtConfig::paper()),
            E::AdaptiveMrt(paco::AdaptiveMrtConfig::paper()),
            E::AdaptiveMrt(paco::AdaptiveMrtConfig::paper().with_blend(false)),
        ];
        for kind in kinds {
            let config = OnlineConfig::paper(kind);
            let mut buf = Vec::new();
            encode_config(&mut buf, &config);
            let mut input = buf.as_slice();
            let back = decode_config(&mut input).unwrap();
            assert!(input.is_empty());
            assert_eq!(back, config);
            // The round-tripped config canon-hashes identically — the
            // property the HELLO hash check relies on.
            assert_eq!(config_hash(&back), config_hash(&config));
        }
    }

    fn varint_len(v: u64) -> usize {
        (64 - v.leading_zeros()).max(1).div_ceil(7) as usize
    }

    /// Events with every field an EVENTS record drops (targets, deps,
    /// memory addresses) and PC deltas from one to ten varint bytes.
    fn sample_events() -> Vec<DynInstr> {
        vec![
            DynInstr::branch(Pc::new(0x1000), true, Pc::new(0x2000)),
            DynInstr::alu(Pc::new(0x2000))
                .with_deps(1, 2)
                .with_mem(0xbeef),
            DynInstr::branch(Pc::new(0x2004), false, Pc::new(0x1000)),
            DynInstr::branch(Pc::new(1 << 62), false, Pc::new(0)),
            DynInstr::branch(Pc::new(u64::MAX), true, Pc::new(0)),
            DynInstr::branch(Pc::new(4), false, Pc::new(8)),
        ]
    }

    #[test]
    fn events_round_trip() {
        let instrs = sample_events();
        let payload = encode_events(&instrs);
        let mut batch = EventBatch::new();
        // Pre-dirty the batch: decode_events_into must replace it.
        batch.push(&DynInstr::alu(Pc::new(0xdead)));
        decode_events_into(&payload, &mut batch).unwrap();
        assert_eq!(batch, EventBatch::from(instrs.as_slice()));

        let mut out = b"pending".to_vec();
        encode_events_into(&mut out, &instrs);
        assert_eq!(&out[..7], b"pending");
        assert_eq!(&out[7..], payload.as_slice());

        decode_events_into(&encode_events(&[]), &mut batch).unwrap();
        assert!(batch.is_empty());
    }

    /// Decoding a whole payload (PC deltas chained across events) agrees
    /// with decoding every event from a payload of its own.
    #[test]
    fn batched_event_decode_agrees_with_per_event_decode() {
        let instrs = sample_events();
        let mut batch = EventBatch::new();
        // Pre-dirty the batch: decode_events_into must replace it.
        batch.push(&DynInstr::alu(Pc::new(0xdead)));
        decode_events_into(&encode_events(&instrs), &mut batch).unwrap();
        assert_eq!(batch.len(), instrs.len());
        let mut single = EventBatch::new();
        for (i, instr) in instrs.iter().enumerate() {
            decode_events_into(&encode_events(std::slice::from_ref(instr)), &mut single).unwrap();
            assert_eq!(single.len(), 1);
            assert_eq!(batch.pc(i), single.pc(0), "event {i}");
            assert_eq!(batch.class(i), single.class(0), "event {i}");
            assert_eq!(batch.taken(i), single.taken(0), "event {i}");
        }
    }

    #[test]
    fn event_decode_refuses_truncation_and_trailing_bytes() {
        let payload = encode_events(&sample_events());
        let mut batch = EventBatch::new();
        for cut in 0..payload.len() {
            batch.push(&DynInstr::alu(Pc::new(0xdead)));
            assert!(
                decode_events_into(&payload[..cut], &mut batch).is_err(),
                "truncation at cut {cut} must be refused"
            );
            assert!(batch.is_empty(), "a refused payload leaves the batch empty");
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_events_into(&long, &mut batch).is_err());
        assert!(batch.is_empty());
    }

    #[test]
    fn event_decode_refuses_more_events_than_the_frame_cap() {
        let events = vec![DynInstr::branch(Pc::new(4), true, Pc::new(4)); MAX_EVENTS_PER_FRAME + 1];
        let mut batch = EventBatch::new();
        decode_events_into(&encode_events(&events[1..]), &mut batch).unwrap();
        assert_eq!(batch.len(), MAX_EVENTS_PER_FRAME);
        let refused = decode_events_into(&encode_events(&events), &mut batch);
        assert!(
            matches!(&refused, Err(ProtoError::Malformed(m)) if m.contains("per frame")),
            "{refused:?}"
        );
        assert!(batch.is_empty());
    }

    #[test]
    fn event_decode_refuses_reserved_flag_bits_and_unknown_classes() {
        let mut batch = EventBatch::new();
        for flags in 0..=u8::MAX {
            // Two events so the refused flags byte is not the first one.
            let payload = [2, 0x05, 0x08, flags, 0x08];
            let code = flags & EVENT_CLASS_MASK;
            let legal = flags & !(EVENT_CLASS_MASK | EVENT_FLAG_TAKEN) == 0 && code <= 9;
            let decoded = decode_events_into(&payload, &mut batch);
            assert_eq!(decoded.is_ok(), legal, "flags {flags:#04x}");
            if legal {
                assert_eq!(batch.class(1).code(), code);
                assert_eq!(batch.taken(1), flags & EVENT_FLAG_TAKEN != 0);
                assert_eq!(batch.pc(1), Pc::new(8));
            } else {
                assert!(batch.is_empty(), "flags {flags:#04x}");
            }
        }
    }

    /// An EVENTS payload is the count, then one flags byte and one PC
    /// delta varint per event: no target, deps or memory bytes.
    #[test]
    fn events_payload_is_flags_plus_pc_delta_per_event() {
        let mut workload = BenchmarkId::Gzip.build(5);
        let instrs: Vec<DynInstr> = (0..20_000).map(|_| workload.next_instr()).collect();
        assert!(instrs.iter().any(|i| i.mem.is_some() && i.deps != [0, 0]));
        let mut prev = 0u64;
        let deltas: Vec<u64> = instrs
            .iter()
            .map(|i| {
                let delta = zigzag(i.pc.addr().wrapping_sub(prev) as i64);
                prev = i.pc.addr();
                delta
            })
            .collect();
        assert!(
            deltas.iter().any(|&d| d > 127),
            "deltas must span multi-byte varints"
        );
        let expected = varint_len(instrs.len() as u64)
            + deltas.iter().map(|&d| 1 + varint_len(d)).sum::<usize>();
        assert_eq!(encode_events(&instrs).len(), expected);
    }

    #[test]
    fn batched_outcome_encode_is_byte_identical() {
        let outcomes = vec![
            OnlineOutcome {
                score: 0,
                has_prob: false,
                predicted_taken: true,
                mispredicted: false,
            },
            OnlineOutcome {
                score: 99999,
                has_prob: true,
                predicted_taken: false,
                mispredicted: true,
            },
            OnlineOutcome {
                score: 0,
                has_prob: true,
                predicted_taken: true,
                mispredicted: true,
            },
            // A 10-byte score varint: the full MAX_OUTCOME_BYTES worst
            // case.
            OnlineOutcome {
                score: u64::MAX,
                has_prob: true,
                predicted_taken: true,
                mispredicted: true,
            },
        ];
        let mut batch = OutcomeBatch::new();
        for o in &outcomes {
            batch.push(o);
        }
        let mut from_batch = Vec::new();
        encode_outcomes_into(&mut from_batch, &batch);
        assert_eq!(from_batch, encode_outcomes(&outcomes));
        assert_eq!(decode_outcomes(&from_batch).unwrap(), outcomes);

        let mut worst = OutcomeBatch::new();
        worst.push(&outcomes[3]);
        let mut one = Vec::new();
        encode_outcomes_into(&mut one, &worst);
        assert_eq!(one.len(), 1 + MAX_OUTCOME_BYTES);

        let mut appended = b"pending".to_vec();
        encode_outcomes_into(&mut appended, &batch);
        assert_eq!(&appended[..7], b"pending");
        assert_eq!(&appended[7..], from_batch.as_slice());
    }

    #[test]
    fn outcomes_round_trip() {
        let outcomes = vec![
            OnlineOutcome {
                score: 0,
                has_prob: false,
                predicted_taken: true,
                mispredicted: false,
            },
            OnlineOutcome {
                score: 2048,
                has_prob: true,
                predicted_taken: false,
                mispredicted: true,
            },
        ];
        let payload = encode_outcomes(&outcomes);
        let back = decode_outcomes(&payload).unwrap();
        assert_eq!(back, outcomes);
        assert_eq!(back[1].probability(), Some(0.25));
    }

    /// The plain sequential PREDICTIONS decoder the fused one must
    /// agree with, verdict for verdict.
    fn sequential_decode(mut input: &[u8]) -> Result<Vec<OnlineOutcome>, String> {
        let input = &mut input;
        let count = read_uvarint(input).ok_or("predictions: count")?;
        if count > (input.len() as u64 / 2) + 1 {
            return Err("predictions: implausible count".into());
        }
        let mut outcomes = Vec::new();
        for _ in 0..count {
            let (&flags, rest) = input.split_first().ok_or("predictions: flags")?;
            *input = rest;
            if flags & !(OUTCOME_PREDICTED | OUTCOME_MISPREDICTED | OUTCOME_HAS_PROB) != 0 {
                return Err("predictions: unknown flag bits".into());
            }
            let score = read_uvarint(input).ok_or("predictions: score")?;
            outcomes.push(OnlineOutcome {
                score,
                has_prob: flags & OUTCOME_HAS_PROB != 0,
                predicted_taken: flags & OUTCOME_PREDICTED != 0,
                mispredicted: flags & OUTCOME_MISPREDICTED != 0,
            });
        }
        if !input.is_empty() {
            return Err("predictions: trailing bytes".into());
        }
        Ok(outcomes)
    }

    #[test]
    fn one_pass_decode_digests_every_byte_once() {
        // Scores of every varint length, then every corruption a
        // payload can carry: each must decode (or fail) exactly as the
        // sequential decoder does and digest the whole payload.
        let outcomes: Vec<OnlineOutcome> = [0u64, 1, 127, 128, 16_383, 16_384, 1 << 40, u64::MAX]
            .into_iter()
            .enumerate()
            .map(|(i, score)| OnlineOutcome {
                score,
                has_prob: i % 2 == 0,
                predicted_taken: i % 3 == 0,
                mispredicted: i % 4 == 0,
            })
            .collect();
        let payload = encode_outcomes(&outcomes);
        let mut variants = vec![payload.clone(), Vec::new()];
        for cut in 0..payload.len() {
            variants.push(payload[..cut].to_vec());
        }
        for at in 1..payload.len() {
            for bad in [0x08, 0x80, 0xff] {
                let mut v = payload.clone();
                v[at] = bad;
                variants.push(v);
            }
        }
        let mut trailing = payload.clone();
        trailing.push(0);
        variants.push(trailing);
        for v in &variants {
            let mut whole = Digest::new();
            whole.update(v);
            let mut fused = Digest::new();
            let decoded = decode_outcomes_with(v, |b| fused.absorb(b));
            assert_eq!(fused, whole, "payload {v:?}");
            match (decoded, sequential_decode(v)) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(ProtoError::Malformed(a)), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("verdicts differ on {v:?}: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(decode_outcomes(&payload).unwrap(), outcomes);
    }

    /// A PREDICTIONS payload is the count, then one flags byte and one
    /// score varint per outcome: no probability bytes.
    #[test]
    fn predictions_payload_is_flags_plus_score_per_outcome() {
        let config = OnlineConfig::tiny(EstimatorKind::Paco(
            PacoConfig::paper().with_refresh_period(500),
        ));
        let mut pipeline = paco_sim::OnlinePipeline::new(&config);
        let mut workload = BenchmarkId::Gzip.build(5);
        let instrs: Vec<DynInstr> = (0..20_000).map(|_| workload.next_instr()).collect();
        let mut batch = OutcomeBatch::new();
        pipeline.run_batch(&EventBatch::from(instrs.as_slice()), &mut batch);
        assert!(
            batch.scores().iter().any(|&s| s > 127),
            "scores must span multi-byte varints"
        );
        assert!(batch.flags().iter().all(|&f| f & OUTCOME_HAS_PROB != 0));

        let mut payload = Vec::new();
        encode_outcomes_into(&mut payload, &batch);
        let expected = varint_len(batch.len() as u64)
            + batch
                .scores()
                .iter()
                .map(|&s| 1 + varint_len(s))
                .sum::<usize>();
        assert_eq!(payload.len(), expected);
    }

    #[test]
    fn welcome_snapshot_error_round_trip() {
        let w = Welcome {
            session_id: 7,
            fingerprint: 9,
            events: 1234,
        };
        assert_eq!(decode_welcome(&encode_welcome(&w)).unwrap(), w);

        let s = Snapshot {
            session_id: 7,
            events: 1234,
            state: vec![5; 100],
        };
        assert_eq!(decode_snapshot(&encode_snapshot(&s)).unwrap(), s);

        let (code, msg) = decode_error(&encode_error(ErrorCode::BadState, "nope")).unwrap();
        assert_eq!(code, ErrorCode::BadState);
        assert_eq!(msg, "nope");
    }

    fn sample_stats() -> Stats {
        Stats {
            session: SessionStats {
                session_id: 17,
                family: Some("biased_bimodal".to_owned()),
                events: 100_000,
                mispredicts: 2_200,
                with_prob: 99_000,
                windows: 48,
                window_len: 700,
                last_divergence_bits: 0.31f64.to_bits(),
                cusum_bits: 0.62f64.to_bits(),
                drift_flagged: true,
                drift_window: 45,
                bins: (0..21).map(|i| (i * 10, i * 9)).collect(),
            },
            fleet: FleetStats {
                sessions_active: 4,
                sessions_parked: 1,
                sessions_seen: 9,
                flagged_sessions: 2,
                events: 800_000,
                mispredicts: 31_000,
                events_per_sec_bits: 125_000.0f64.to_bits(),
                bins: (0..21).map(|i| (i * 100, i * 80)).collect(),
            },
        }
    }

    #[test]
    fn stats_round_trip() {
        let stats = sample_stats();
        assert_eq!(decode_stats(&encode_stats(&stats)).unwrap(), stats);

        // A minimal frame too: no family, empty bins, nothing flagged.
        let quiet = Stats {
            session: SessionStats {
                session_id: 1,
                family: None,
                events: 0,
                mispredicts: 0,
                with_prob: 0,
                windows: 0,
                window_len: 0,
                last_divergence_bits: 0.0f64.to_bits(),
                cusum_bits: 0.0f64.to_bits(),
                drift_flagged: false,
                drift_window: 0,
                bins: Vec::new(),
            },
            fleet: FleetStats {
                sessions_active: 1,
                sessions_parked: 0,
                sessions_seen: 1,
                flagged_sessions: 0,
                events: 0,
                mispredicts: 0,
                events_per_sec_bits: 0.0f64.to_bits(),
                bins: Vec::new(),
            },
        };
        assert_eq!(decode_stats(&encode_stats(&quiet)).unwrap(), quiet);
    }

    #[test]
    fn stats_rejects_truncation_and_trailing_bytes() {
        let payload = encode_stats(&sample_stats());
        for cut in 0..payload.len() {
            assert!(
                decode_stats(&payload[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_stats(&long).is_err());
    }

    #[test]
    fn stats_rejects_implausible_bin_counts() {
        let mut stats = sample_stats();
        stats.session.bins = vec![(0, 0); MAX_STATS_BINS + 1];
        assert!(decode_stats(&encode_stats(&stats)).is_err());
    }

    #[test]
    fn migrate_codecs_round_trip() {
        for req in [
            MigrateReq {
                session_id: 7,
                target_shard: None,
            },
            MigrateReq {
                session_id: u64::MAX,
                target_shard: Some(3),
            },
        ] {
            assert_eq!(decode_migrate_req(&encode_migrate_req(&req)).unwrap(), req);
        }
        let ack = MigrateAck {
            session_id: 42,
            from_shard: 1,
            to_shard: 6,
        };
        assert_eq!(decode_migrate_ack(&encode_migrate_ack(&ack)).unwrap(), ack);

        // Truncations and trailing garbage are rejected.
        let req_bytes = encode_migrate_req(&MigrateReq {
            session_id: 300,
            target_shard: Some(2),
        });
        for cut in 0..req_bytes.len() {
            assert!(decode_migrate_req(&req_bytes[..cut]).is_err());
        }
        let mut long = req_bytes.clone();
        long.push(0);
        assert!(decode_migrate_req(&long).is_err());
        assert!(decode_migrate_req(&[7, 9]).is_err(), "unknown target tag");
    }

    #[test]
    fn frame_decoder_matches_read_frame_over_chunked_stream() {
        // Three frames, fed one byte at a time, must come out identical
        // to blocking reads of the same stream.
        let frames = [
            (FrameKind::Hello, b"abc".to_vec()),
            (FrameKind::Events, Vec::new()),
            (FrameKind::Migrate, vec![0u8; 100]),
        ];
        let mut stream = Vec::new();
        for (kind, payload) in &frames {
            stream.extend_from_slice(&frame_bytes(*kind, payload));
        }
        let mut decoder = FrameDecoder::new();
        let mut got = Vec::new();
        for &b in &stream {
            decoder.feed(&[b]);
            while let Some(frame) = decoder.try_frame().unwrap() {
                got.push(frame.to_frame());
            }
        }
        assert!(decoder.at_boundary());
        assert!(decoder.on_eof().is_ok());
        let mut cursor = stream.as_slice();
        for frame in &got {
            assert_eq!(read_frame(&mut cursor).unwrap().as_ref(), Some(frame));
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());
        assert_eq!(got.len(), frames.len());
    }

    #[test]
    fn frame_decoder_reports_a_whole_frame_and_bytes_past_it() {
        let frame = frame_bytes(FrameKind::Events, &[1, 2, 3]);
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frame[..frame.len() - 1]);
        assert!(!decoder.frame_ready() && !decoder.past_frame());
        decoder.feed(&frame[frame.len() - 1..]);
        assert!(decoder.frame_ready() && !decoder.past_frame());
        decoder.feed(&frame[..1]);
        assert!(decoder.frame_ready() && decoder.past_frame());
        assert_eq!(decoder.try_frame().unwrap().unwrap().payload, [1, 2, 3]);
        assert!(!decoder.frame_ready() && !decoder.past_frame());

        // A header try_frame refuses is an answer too.
        let mut decoder = FrameDecoder::new();
        decoder.feed(&[0xFF; 6]);
        assert!(decoder.frame_ready() && decoder.past_frame());
        assert!(decoder.try_frame().is_err());
    }

    #[test]
    fn frame_decoder_is_linear_in_buffered_frames() {
        // One sweep may buffer up to the read high-water mark before it
        // dispatches; draining those frames must not shift the rest of
        // the buffer once per frame, which made this input take tens of
        // seconds even in a release build.
        let frame = frame_bytes(FrameKind::Events, &[0]);
        assert_eq!(frame.len(), 10);
        let count = (4 << 20) / frame.len();
        let stream = frame.repeat(count);
        let started = std::time::Instant::now();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&stream);
        let mut decoded = 0;
        while let Some(got) = decoder.try_frame().unwrap() {
            assert_eq!(got.payload, [0]);
            decoded += 1;
        }
        let elapsed = started.elapsed();
        assert_eq!(decoded, 419_430);
        assert!(decoder.at_boundary());
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "decoding {decoded} buffered frames took {elapsed:?}"
        );
    }

    #[test]
    fn frame_decoder_rejects_what_read_frame_rejects() {
        // Unknown kind: rejected as soon as the header is complete.
        let mut decoder = FrameDecoder::new();
        decoder.feed(&[0xFF; 5]);
        assert!(matches!(
            decoder.try_frame(),
            Err(ProtoError::Malformed(m)) if m.contains("unknown frame kind")
        ));

        // Oversized payload: rejected from the header, no allocation.
        let mut decoder = FrameDecoder::new();
        let mut header = vec![FrameKind::Events as u8];
        header.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        decoder.feed(&header);
        assert!(matches!(
            decoder.try_frame(),
            Err(ProtoError::Malformed(m)) if m.contains("cap")
        ));

        // Corruption anywhere in a frame is caught.
        let bytes = frame_bytes(FrameKind::Events, b"payload-bytes");
        for i in 1..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bad);
            let verdict: Result<(), ProtoError> = loop {
                match decoder.try_frame() {
                    Ok(Some(_)) => continue,
                    // The stream has ended: an incomplete frame takes
                    // its verdict from the EOF rule, like read_frame.
                    Ok(None) => break decoder.on_eof(),
                    Err(e) => break Err(e),
                }
            };
            let blocking = read_frame(&mut bad.as_slice());
            assert_eq!(
                verdict.is_err(),
                blocking.is_err(),
                "divergent verdict for flip at {i}"
            );
        }

        // EOF mid-frame reproduces read_frame's exact messages.
        let bytes = frame_bytes(FrameKind::Bye, b"xy");
        for cut in 1..bytes.len() {
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bytes[..cut]);
            let incremental = match decoder.try_frame() {
                Ok(None) => decoder.on_eof().unwrap_err(),
                Ok(Some(_)) => panic!("truncated frame decoded at cut {cut}"),
                Err(e) => e,
            };
            let blocking = read_frame(&mut &bytes[..cut]).unwrap_err();
            let (ProtoError::Malformed(a), ProtoError::Malformed(b)) = (incremental, blocking)
            else {
                panic!("non-malformed verdict at cut {cut}");
            };
            assert_eq!(a, b, "divergent message at cut {cut}");
        }
    }

    /// A bulk-size EVENTS frame (4096 control events, ~12 KB, so its
    /// checksum runs the braided CRC loop) with one bit flipped in the
    /// payload or the CRC field is refused as a checksum mismatch by
    /// both decoders.
    #[test]
    fn bulk_frame_bit_flips_are_checksum_mismatches() {
        let mut workload = BenchmarkId::Gzip.build(5);
        let events: Vec<DynInstr> = std::iter::from_fn(|| Some(workload.next_instr()))
            .filter(|i| i.class.is_control())
            .take(4096)
            .collect();
        let bytes = frame_bytes(FrameKind::Events, &encode_events(&events));
        let payload = 5..bytes.len() - 4;
        assert!(
            payload.len() >= 8 * 1024,
            "payload of {} bytes",
            payload.len()
        );
        let flips = payload
            .clone()
            .step_by(97)
            .chain([payload.start, payload.end - 1])
            .map(|i| (i, 1u8 << (i % 8)))
            .chain((payload.end..bytes.len()).flat_map(|i| (0..8).map(move |b| (i, 1u8 << b))));
        for (i, bit) in flips {
            let mut bad = bytes.clone();
            bad[i] ^= bit;
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bad);
            for verdict in [
                decoder.try_frame().map(|_| ()),
                read_frame(&mut bad.as_slice()).map(|_| ()),
            ] {
                assert!(
                    matches!(&verdict, Err(ProtoError::Malformed(m)) if m == "frame checksum mismatch"),
                    "flip {bit:#04x} at byte {i}: {verdict:?}"
                );
            }
        }
    }

    #[test]
    fn digest_matches_one_shot_fnv() {
        let mut d = Digest::new();
        d.update(b"12345");
        d.update(b"6789");
        assert_eq!(d.value(), paco_types::canon::fnv1a64(b"123456789"));
    }
}

//! Blocking client for the `paco-serve` protocol, used by `paco-load`,
//! the integration suite, and anything else that wants online
//! predictions from a `paco-served` instance.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use paco_sim::{OnlineConfig, OnlineOutcome};
use paco_types::fingerprint::code_fingerprint;
use paco_types::DynInstr;

use crate::proto::{
    check_event_count, decode_error, decode_migrate_ack, decode_outcomes_with, decode_snapshot,
    decode_stats, decode_welcome, encode_events_into, encode_frame_with, encode_hello,
    encode_migrate_req, encode_outcomes, read_frame_into, Digest, ErrorCode, FrameKind, Hello,
    MigrateAck, MigrateReq, ProtoError, Resume, Snapshot, Stats, PROTOCOL_VERSION,
};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Proto(ProtoError),
    /// The server refused with an ERROR frame.
    Server(ErrorCode, String),
    /// The server closed or answered with an unexpected frame.
    Unexpected(String),
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "{e}"),
            ClientError::Server(code, msg) => write!(f, "server refused ({code:?}): {msg}"),
            ClientError::Unexpected(msg) => write!(f, "unexpected server behavior: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connected session.
///
/// Frames go out through `tx` and replies come in through `rx`; both
/// buffers are owned by the client and reused, so a steady EVENTS round
/// trip allocates nothing per frame and copies no payload.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    tx: Vec<u8>,
    rx: Vec<u8>,
    session_id: u64,
    server_fingerprint: u64,
    resumed_events: u64,
    digest: Digest,
}

impl Client {
    /// Opens a fresh session.
    pub fn connect(addr: impl ToSocketAddrs, config: &OnlineConfig) -> Result<Self, ClientError> {
        Self::handshake(addr, config, Resume::Fresh, None)
    }

    /// Opens a fresh session declaring a workload family: the server
    /// pins the session's drift detector against that family's
    /// reference calibration profile (see the STATS frame). Unknown
    /// names are refused with
    /// [`ErrorCode::UnknownFamily`](crate::proto::ErrorCode).
    pub fn connect_declaring(
        addr: impl ToSocketAddrs,
        config: &OnlineConfig,
        family: &str,
    ) -> Result<Self, ClientError> {
        Self::handshake(addr, config, Resume::Fresh, Some(family.to_owned()))
    }

    /// Reclaims a session the server parked when a previous connection
    /// dropped; streaming resumes exactly where it stopped.
    pub fn resume_by_id(
        addr: impl ToSocketAddrs,
        config: &OnlineConfig,
        session_id: u64,
    ) -> Result<Self, ClientError> {
        Self::handshake(addr, config, Resume::SessionId(session_id), None)
    }

    /// Opens a session restored from a snapshot blob the client carried
    /// across the disconnect (survives even a server restart).
    pub fn resume_with_state(
        addr: impl ToSocketAddrs,
        config: &OnlineConfig,
        state: Vec<u8>,
    ) -> Result<Self, ClientError> {
        Self::handshake(addr, config, Resume::State(state), None)
    }

    fn handshake(
        addr: impl ToSocketAddrs,
        config: &OnlineConfig,
        resume: Resume,
        family: Option<String>,
    ) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            reader,
            writer: stream,
            tx: Vec::new(),
            rx: Vec::new(),
            session_id: 0,
            server_fingerprint: 0,
            resumed_events: 0,
            digest: Digest::new(),
        };
        let hello = Hello {
            protocol_version: PROTOCOL_VERSION,
            fingerprint: code_fingerprint(),
            config: *config,
            config_hash: crate::proto::config_hash(config),
            resume,
            family,
        };
        client.send(FrameKind::Hello, |out| {
            out.extend_from_slice(&encode_hello(&hello))
        })?;
        client.expect_frame(FrameKind::Welcome)?;
        let welcome = decode_welcome(&client.rx)?;
        client.session_id = welcome.session_id;
        client.server_fingerprint = welcome.fingerprint;
        client.resumed_events = welcome.events;
        Ok(client)
    }

    /// Writes one frame whose payload `write_payload` encodes straight
    /// into the reused `tx` buffer.
    fn send(
        &mut self,
        kind: FrameKind,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), ClientError> {
        self.tx.clear();
        encode_frame_with(&mut self.tx, kind, write_payload);
        Ok(self.writer.write_all(&self.tx)?)
    }

    /// Reads one frame of `kind`, leaving its payload in `rx`;
    /// translates ERROR frames and surprises.
    fn expect_frame(&mut self, kind: FrameKind) -> Result<(), ClientError> {
        match read_frame_into(&mut self.reader, &mut self.rx)? {
            Some(got) if got == kind => Ok(()),
            Some(FrameKind::Error) => {
                let (code, msg) = decode_error(&self.rx)?;
                Err(ClientError::Server(code, msg))
            }
            Some(got) => Err(ClientError::Unexpected(format!(
                "wanted {kind:?}, got {got:?}"
            ))),
            None => Err(ClientError::Unexpected(
                "connection closed mid-exchange".into(),
            )),
        }
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The server executable's fingerprint (compare with your own
    /// `code_fingerprint()` to detect build mismatches).
    pub fn server_fingerprint(&self) -> u64 {
        self.server_fingerprint
    }

    /// Events the session had already processed when this connection
    /// opened (0 for a fresh session).
    pub fn resumed_events(&self) -> u64 {
        self.resumed_events
    }

    /// Running FNV-1a digest over every PREDICTIONS payload received on
    /// this connection — the session's result fingerprint.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// Seeds the running digest with a prior connection's final
    /// [`digest`](Self::digest) value, so one fingerprint spans a
    /// session's whole life across drops, resumes and migrations.
    pub fn seed_digest(&mut self, value: u64) {
        self.digest = Digest::seeded(value);
    }

    /// Asks the server to migrate this session to another worker shard
    /// (`None` lets the server pick the least-loaded one); blocks for
    /// the MIGRATE acknowledgement naming the shard pair. Predictions
    /// before and after the ack are part of one byte-identical stream.
    pub fn migrate(&mut self, target_shard: Option<u32>) -> Result<MigrateAck, ClientError> {
        let req = MigrateReq {
            session_id: self.session_id,
            target_shard,
        };
        self.send(FrameKind::Migrate, |out| {
            out.extend_from_slice(&encode_migrate_req(&req))
        })?;
        self.expect_frame(FrameKind::Migrate)?;
        Ok(decode_migrate_ack(&self.rx)?)
    }

    /// Streams a batch of events; blocks for and returns the
    /// predictions (one per control instruction in the batch).
    ///
    /// The reply is decoded and fed to the [`digest`](Self::digest) in
    /// one pass over its bytes; a payload that fails to decode is still
    /// digested whole.
    ///
    /// A batch of more than
    /// [`MAX_EVENTS_PER_FRAME`](crate::MAX_EVENTS_PER_FRAME) events is
    /// refused as malformed before anything is sent.
    pub fn send_events(&mut self, instrs: &[DynInstr]) -> Result<Vec<OnlineOutcome>, ClientError> {
        check_event_count(instrs.len() as u64)?;
        self.send(FrameKind::Events, |out| encode_events_into(out, instrs))?;
        self.expect_frame(FrameKind::Predictions)?;
        let digest = &mut self.digest;
        Ok(decode_outcomes_with(&self.rx, |byte| digest.absorb(byte))?)
    }

    /// Requests a snapshot of the session's full pipeline state.
    pub fn snapshot(&mut self) -> Result<Snapshot, ClientError> {
        self.send(FrameKind::SnapshotReq, |_| {})?;
        self.expect_frame(FrameKind::Snapshot)?;
        Ok(decode_snapshot(&self.rx)?)
    }

    /// Requests the session's watch telemetry plus the fleet snapshot.
    /// Stats polling never touches the prediction [`digest`](Self::digest)
    /// — parity checks are unaffected by how often a client watches.
    pub fn stats(&mut self) -> Result<Stats, ClientError> {
        self.send(FrameKind::StatsReq, |_| {})?;
        self.expect_frame(FrameKind::Stats)?;
        Ok(decode_stats(&self.rx)?)
    }

    /// Closes the session cleanly; the server discards it (it will not
    /// be resumable). Dropping a `Client` without `bye` leaves the
    /// session parked server-side for [`Client::resume_by_id`].
    pub fn bye(mut self) -> Result<(), ClientError> {
        self.send(FrameKind::Bye, |_| {})
    }
}

/// Feeds the same events through a local
/// [`OnlinePipeline`](paco_sim::OnlinePipeline) (`paco-sim`'s offline
/// semantics) and digests the outcome encodings exactly as the server
/// would — the reference value for parity checks.
///
/// Deliberately uses the **per-event** lane (`on_instr`) while
/// `paco-served` answers from the batched lane (`run_batch`): every
/// parity check against this digest is therefore also a cross-lane
/// byte-identity proof, not just a loopback echo test.
pub fn offline_digest(config: &OnlineConfig, instrs: &[DynInstr], batch: usize) -> u64 {
    let mut pipeline = paco_sim::OnlinePipeline::new(config);
    let mut digest = Digest::new();
    for chunk in instrs.chunks(batch.max(1)) {
        let outcomes: Vec<_> = chunk.iter().filter_map(|i| pipeline.on_instr(i)).collect();
        digest.update(&encode_outcomes(&outcomes));
    }
    digest.value()
}

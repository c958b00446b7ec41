//! `paco-served`: the sharded event-loop streaming prediction server.
//!
//! N pinned worker shards, each multiplexing its connections with a
//! non-blocking readiness loop over plain `std::net` — a small
//! hand-rolled reactor, no async runtime. There is no accept thread:
//! every worker keeps its own handle on the non-blocking listening
//! socket in its poll set and accepts one connection whenever `ppoll`
//! reports it readable. The accepting worker keeps the connection
//! unless a peer's `paco_shard_connections` gauge reads below its own
//! connection count; then the raw, pre-handshake connection goes to the
//! least-loaded peer. A session stays on the worker that ran its
//! handshake, resumes included.
//!
//! Each worker sweep drains its inbox, flushes pending writes, drains
//! readable bytes into a per-connection [`FrameDecoder`] and processes
//! the complete frames — the hot path stays lock-free (the only lock
//! is the inbox mutex at sweep start; each batch's watch delta reaches
//! the fleet aggregator through relaxed atomics). A sweep that moves
//! nothing ends in one `ppoll(2)` over the worker's own sockets, the
//! listener and its inbox's wake socket, so a waiting worker wakes the
//! moment a socket, a new connection or its inbox turns ready. For
//! ~2 ms after its last progress a worker that owns connections caps
//! each wait at 100 µs (`LINGER_TICK` says why); otherwise it blocks
//! with no timeout, so an idle server uses no CPU. A worker whose
//! sweeps keep making progress still polls once with a zero timeout
//! every `LINGER_TICK`, so new connections are accepted while every
//! worker is busy. That call makes this module Linux-only.
//!
//! **Live migration**: a session moves between workers by handing its
//! connection, live pipeline included, to the target's inbox. Nothing
//! is copied or rebuilt, so the session's next outcome is the one it
//! would have produced unmoved. Exposed two ways: the operator
//! `MIGRATE` control frame, and an automatic load-threshold policy that
//! sheds one session from a hot worker to the least-loaded one (read
//! from the `paco_shard_connections` gauges). A [`FaultInjector`] seam
//! lets the test harness stall a shard or sever a connection
//! mid-migration; every fault must leave surviving sessions
//! byte-identical to offline replay.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use paco_obs::FlightKind;
use paco_sim::OnlinePipeline;
use paco_types::fingerprint::code_fingerprint;

use crate::metrics::{ServeMetrics, SessionMode};
use crate::proto::{
    decode_events_into, decode_hello, decode_migrate_req, encode_error, encode_frame_into,
    encode_frame_with, encode_migrate_ack, encode_outcomes_into, encode_snapshot, encode_stats,
    encode_welcome, ErrorCode, FleetStats, Frame, FrameDecoder, FrameKind, Hello, MigrateAck,
    ProtoError, Resume, Snapshot, Stats, Welcome, MAX_FRAME_PAYLOAD, PROTOCOL_VERSION,
};
use crate::session::{Session, SessionTable};
use crate::watch::{FleetAggregator, WatchState};

/// Bytes read from one connection per `read` call.
const READ_CHUNK: usize = 64 * 1024;

/// The largest legal frame on the wire: kind byte, length prefix, a
/// maximal payload, CRC.
const MAX_FRAME_BYTES: usize = 5 + MAX_FRAME_PAYLOAD + 4;

/// A connection whose decoder already buffers this much stops reading
/// until frames drain — keeps one fire-hose client from starving its
/// shard's siblings. One maximal frame always fits, so every legal frame
/// completes; a decoder holds less than this plus one [`READ_CHUNK`]
/// unconsumed, and at most as much again of consumed prefix awaiting
/// compaction.
const READ_HIGH_WATER: usize = MAX_FRAME_BYTES;

/// A connection whose unflushed output reaches this much stops reading
/// and dispatching until the peer drains it — write backpressure
/// against a client that sends but never reads. One maximal frame plus
/// a read chunk of headroom; `out` holds less than this plus one reply.
const WRITE_HIGH_WATER: usize = MAX_FRAME_BYTES + READ_CHUNK;

/// How long a worker that owns connections and just made progress waits
/// at most per `ppoll`. Shorter than a hypervisor's typical
/// halt-polling window (200 µs on KVM), so a vCPU serving a paced client
/// is not descheduled between frames; on a 2-vCPU VM, waits with no
/// timeout made a paced client's own sleeps wake up to 4 ms late. Also
/// the longest a worker whose every sweep makes progress goes without
/// polling the listener.
const LINGER_TICK: Duration = Duration::from_micros(100);

/// Empty waits of at most [`LINGER_TICK`] after the last progress
/// (~2 ms); after that the worker blocks until something is ready. A
/// failed accept keeps the listener out of the worker's waits for as
/// long.
const LINGER_TICKS: u32 = 20;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` from `<time.h>` (`time_t` is `long` on Linux).
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

extern "C" {
    /// `ppoll(2)` from the C library std already links (`nfds_t` is
    /// `unsigned long` on Linux).
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits until some entry of `fds` is ready or `timeout` passes (`None`:
/// no timeout), filling in `revents`. A timeout or an error (`EINTR`
/// included) leaves every `revents` zero; the caller re-sweeps either way.
fn wait_ready(fds: &mut [PollFd], timeout: Option<Duration>) {
    let timeout = timeout.map(|t| Timespec {
        tv_sec: t.as_secs() as c_long,
        tv_nsec: t.subsec_nanos() as c_long,
    });
    let timeout = timeout
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is an exclusively borrowed, initialized slice of
    // `#[repr(C)]` pollfd records and `nfds` is its length, so ppoll
    // reads and writes (only `revents`) within the slice; the timeout
    // is null or points at a live timespec; a null signal mask leaves
    // the mask unchanged.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            timeout,
            std::ptr::null(),
        );
    }
}

/// Server construction knobs beyond the bind address.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker shards (event loops); also the session-table shard count.
    pub shards: usize,
    /// The automatic migration policy's load threshold: a worker owning
    /// more than this many connections sheds one session per sweep to
    /// the least-loaded worker (as long as that worker owns strictly
    /// fewer). `usize::MAX` disables the policy.
    pub policy_watermark: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            shards: ServeMetrics::DEFAULT_SHARDS,
            policy_watermark: 64,
        }
    }
}

/// The in-process fault-injection seam the churn/fault harness drives.
///
/// Each fault is one-shot: armed by a test, consumed by the first
/// worker that reaches the corresponding seam, then disarmed. The
/// keystone requirement is that **no injected fault may corrupt a
/// surviving session** — predictions stay byte-identical to offline
/// replay whether a connection died mid-migration (the session parks
/// for resume) or a shard stalled (its clients just wait).
#[derive(Debug)]
pub struct FaultInjector {
    stall_shard: AtomicU64,
    stall_ms: AtomicU64,
    drop_migration: AtomicBool,
}

impl FaultInjector {
    fn new() -> Self {
        FaultInjector {
            stall_shard: AtomicU64::new(u64::MAX),
            stall_ms: AtomicU64::new(0),
            drop_migration: AtomicBool::new(false),
        }
    }

    /// Arms a one-shot stall: worker `shard` sleeps `ms` milliseconds
    /// at the top of its next sweep (its connections see latency,
    /// nothing else changes).
    pub fn stall_shard(&self, shard: usize, ms: u64) {
        self.stall_ms.store(ms, Ordering::Relaxed);
        self.stall_shard.store(shard as u64, Ordering::Release);
    }

    /// Arms a one-shot mid-migration disconnect: the next migrating
    /// connection is severed after the source worker lets go of it and
    /// before the target adopts it. The target adopts a dead socket,
    /// observes EOF, and parks the session for a normal resume.
    pub fn drop_next_migration_conn(&self) {
        self.drop_migration.store(true, Ordering::Release);
    }

    fn take_stall(&self, shard: usize) -> Option<Duration> {
        if self.stall_shard.load(Ordering::Acquire) != shard as u64 {
            return None;
        }
        self.stall_shard
            .compare_exchange(shard as u64, u64::MAX, Ordering::AcqRel, Ordering::Relaxed)
            .ok()
            .map(|_| Duration::from_millis(self.stall_ms.load(Ordering::Relaxed)))
    }

    fn take_drop(&self) -> bool {
        self.drop_migration.swap(false, Ordering::AcqRel)
    }
}

/// A message into a worker's inbox.
enum ShardMsg {
    /// A freshly accepted, pre-handshake connection that its accepting
    /// worker passed on for balance.
    Conn(TcpStream, u64),
    /// An established connection migrating to another worker.
    Adopt(Box<Conn>),
}

/// One worker's inbox: a mutexed queue plus a non-blocking socket pair
/// whose read end turns "a message arrived" into readiness the worker's
/// `poll` waits on.
struct Inbox {
    queue: Mutex<Vec<ShardMsg>>,
    wake_tx: UnixStream,
    wake_rx: UnixStream,
}

impl Inbox {
    fn new() -> std::io::Result<Self> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Inbox {
            queue: Mutex::new(Vec::new()),
            wake_tx,
            wake_rx,
        })
    }

    /// Makes the wake socket readable. A full socket already holds
    /// unread bytes, so a `WouldBlock` loses no wakeup.
    fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1]);
    }

    /// Consumes pending wakeups. Called only after `poll` reported the
    /// wake socket readable and before the worker takes the queue: a
    /// byte is written after its message is pushed, so every byte this
    /// drains belongs to a message the following take will see.
    fn drain_wakeups(&self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }
}

/// State shared by every worker and the [`RunningServer`] handle. The
/// listener is not here: each worker owns its own handle on it, so the
/// port closes when the last worker exits, whoever still holds this.
struct Shared {
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    workers: usize,
    policy_watermark: usize,
    table: Arc<SessionTable>,
    fleet: Arc<FleetAggregator>,
    metrics: Arc<ServeMetrics>,
    faults: Arc<FaultInjector>,
    inboxes: Vec<Inbox>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("workers", &self.workers)
            .field("policy_watermark", &self.policy_watermark)
            .finish_non_exhaustive()
    }
}

impl Shared {
    fn send(&self, target: usize, msg: ShardMsg) {
        self.inboxes[target]
            .queue
            .lock()
            .expect("shard inbox poisoned")
            .push(msg);
        self.inboxes[target].wake();
    }

    /// Raises the shutdown flag and wakes every worker to see it.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for inbox in &self.inboxes {
            inbox.wake();
        }
    }

    /// Parks a session that lost its connection (any non-BYE exit).
    fn park_exit(&self, session: Session) {
        self.fleet.session_ended();
        self.metrics.session_parks.inc();
        self.metrics
            .recorder()
            .record(FlightKind::SessionPark, session.id, 0);
        self.table.park(session);
        self.metrics.track_parked(&self.table);
    }

    /// Closes a connection outside any worker (shutdown leftovers),
    /// parking its session if one is attached.
    fn close_leftover(&self, mut conn: Conn) {
        if let Some(session) = conn.session.take() {
            self.park_exit(session);
        }
        self.metrics
            .recorder()
            .record(FlightKind::ConnClose, conn.id, 0);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }

    /// Drains every inbox after the workers have exited: sessions
    /// inside in-flight adoptions (migrations included) must land in the
    /// table, not vanish.
    fn drain_leftovers(&self) {
        for inbox in &self.inboxes {
            let msgs = std::mem::take(&mut *inbox.queue.lock().expect("shard inbox poisoned"));
            for msg in msgs {
                match msg {
                    ShardMsg::Conn(stream, _) => {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                    ShardMsg::Adopt(conn) => self.close_leftover(*conn),
                }
            }
        }
    }
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    id: u64,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    /// Set once the connection is done (refusal sent, BYE handled, or
    /// EOF observed): stop reading, flush what remains, then close.
    closing: bool,
    session: Option<Session>,
}

impl Conn {
    fn new(stream: TcpStream, id: u64) -> Self {
        Conn {
            stream,
            id,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            closing: false,
            session: None,
        }
    }

    fn out_done(&self) -> bool {
        self.out_pos == self.out.len()
    }

    /// Whether unflushed output has reached [`WRITE_HIGH_WATER`]: the
    /// connection neither reads nor dispatches until the peer drains it.
    fn write_blocked(&self) -> bool {
        self.out.len() - self.out_pos >= WRITE_HIGH_WATER
    }

    /// The readiness this connection waits for while its worker idles:
    /// input unless it is closing or above a high-water mark, output
    /// while replies are unflushed. (`POLLERR`/`POLLHUP` always wake.)
    fn interest(&self) -> c_short {
        let mut events = 0;
        if !self.closing && self.decoder.buffered() < READ_HIGH_WATER && !self.write_blocked() {
            events |= POLLIN;
        }
        if !self.out_done() {
            events |= POLLOUT;
        }
        events
    }

    /// Writes as much pending output as the socket accepts right now.
    /// `Ok(true)` if any bytes moved.
    fn flush(&mut self) -> std::io::Result<bool> {
        let mut progress = false;
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_done() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(progress)
    }
}

/// Packs a migration's shard pair into a flight event's `b` detail
/// (`from` in the high 32 bits, `to` in the low).
fn shard_pair(from: u32, to: u32) -> u64 {
    ((from as u64) << 32) | to as u64
}

/// The human-facing message of a framing error (decode errors are
/// always `Malformed`; a transport error inside the decoder cannot
/// happen but renders sanely anyway).
fn proto_msg(e: ProtoError) -> String {
    match e {
        ProtoError::Malformed(m) => m,
        ProtoError::Io(e) => e.to_string(),
    }
}

/// Per-worker scratch buffers, reused across every connection and frame
/// the worker handles — a steady-state sweep allocates nothing.
struct Scratch {
    events: paco_types::EventBatch,
    outcomes: paco_sim::OutcomeBatch,
    read_buf: Vec<u8>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            events: paco_types::EventBatch::new(),
            outcomes: paco_sim::OutcomeBatch::new(),
            read_buf: vec![0u8; READ_CHUNK],
        }
    }
}

/// What a sweep decided about one connection.
enum Sweep {
    Keep { active: bool },
    Close,
    Migrate { target: usize, operator: bool },
}

/// What one frame's dispatch decided.
enum Flow {
    Continue,
    Refuse(ErrorCode, String),
    Bye,
    Migrate { target: usize, operator: bool },
}

/// One pinned worker shard: an event loop over the connections it owns
/// and the ones it accepts.
struct Worker {
    index: usize,
    shared: Arc<Shared>,
    /// This worker's handle on the non-blocking listening socket.
    listener: TcpListener,
}

impl Worker {
    fn run(&self) {
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut scratch = Scratch::new();
        // Reused across sweeps and waits, like `scratch`.
        let mut ids: Vec<u64> = Vec::new();
        let mut fds: Vec<PollFd> = Vec::new();
        let mut quiet = LINGER_TICKS;
        let mut last_wait = Instant::now();
        // After a failed accept: when the listener rejoins the waits.
        let mut accept_paused: Option<Instant> = None;
        loop {
            if let Some(wait) = self.shared.faults.take_stall(self.index) {
                thread::sleep(wait);
            }
            let msgs = std::mem::take(
                &mut *self.shared.inboxes[self.index]
                    .queue
                    .lock()
                    .expect("shard inbox poisoned"),
            );
            let mut active = !msgs.is_empty();
            for msg in msgs {
                self.admit(&mut conns, msg);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                for (_, conn) in conns.drain() {
                    self.close_conn(conn);
                }
                self.shared.metrics.shard_connections[self.index].set(0.0);
                return;
            }
            ids.clear();
            ids.extend(conns.keys().copied());
            ids.sort_unstable();
            for &id in &ids {
                let verdict = {
                    let conn = conns.get_mut(&id).expect("conn vanished mid-sweep");
                    self.sweep_conn(conn, &mut scratch)
                };
                match verdict {
                    Sweep::Keep { active: a } => active |= a,
                    Sweep::Close => {
                        let conn = conns.remove(&id).expect("conn vanished mid-sweep");
                        self.close_conn(conn);
                        active = true;
                    }
                    Sweep::Migrate { target, operator } => {
                        let conn = conns.remove(&id).expect("conn vanished mid-sweep");
                        self.start_migration(conn, target, operator);
                        active = true;
                    }
                }
            }
            active |= self.try_policy_migration(&mut conns);
            self.shared.metrics.shard_connections[self.index].set(conns.len() as f64);
            let mut timeout = if active {
                quiet = 0;
                // A busy worker still looks at the listener once per
                // tick, without waiting.
                if last_wait.elapsed() < LINGER_TICK {
                    continue;
                }
                Some(Duration::ZERO)
            } else {
                let timeout = (quiet < LINGER_TICKS && !conns.is_empty()).then_some(LINGER_TICK);
                quiet = quiet.saturating_add(1);
                timeout
            };
            let paused = accept_paused.map_or(Duration::ZERO, |until| {
                until.saturating_duration_since(Instant::now())
            });
            if !paused.is_zero() {
                timeout = Some(timeout.map_or(paused, |t| t.min(paused)));
            }
            let acceptable = self.wait(&conns, &mut fds, paused.is_zero(), timeout);
            last_wait = Instant::now();
            if acceptable && !self.accept(&mut conns) {
                accept_paused = Some(last_wait + LINGER_TICK * LINGER_TICKS);
            }
        }
    }

    /// Waits until the inbox, the listener (if `listen`) or one of the
    /// worker's connections is ready (or `timeout` passes), and says
    /// whether the listener polled readable. The fd array is rebuilt
    /// from `conns` on every wait, so a connection that arrives or
    /// leaves needs no registration.
    fn wait(
        &self,
        conns: &HashMap<u64, Conn>,
        fds: &mut Vec<PollFd>,
        listen: bool,
        timeout: Option<Duration>,
    ) -> bool {
        let inbox = &self.shared.inboxes[self.index];
        fds.clear();
        fds.push(PollFd {
            fd: inbox.wake_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        // A negative fd is skipped by `ppoll`.
        fds.push(PollFd {
            fd: if listen {
                self.listener.as_raw_fd()
            } else {
                -1
            },
            events: POLLIN,
            revents: 0,
        });
        fds.extend(conns.values().map(|conn| PollFd {
            fd: conn.stream.as_raw_fd(),
            events: conn.interest(),
            revents: 0,
        }));
        wait_ready(fds, timeout);
        if fds[0].revents != 0 {
            inbox.drain_wakeups();
        }
        fds[1].revents != 0
    }

    /// Accepts one connection from the listener. The worker keeps it
    /// unless a peer's gauge reads below its own connection count; then
    /// the least-loaded peer gets it before the handshake. `false` on a
    /// failed accept (an exhausted fd table, say): the caller leaves
    /// the listener out of its waits for a while, since the connection
    /// stays queued and would make every wait return at once.
    fn accept(&self, conns: &mut HashMap<u64, Conn>) -> bool {
        let shared = &self.shared;
        let stream = match self.listener.accept() {
            Ok((stream, _)) => stream,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::Interrupted | ErrorKind::ConnectionAborted
                ) =>
            {
                return true;
            }
            Err(_) => {
                shared.metrics.accept_errors.inc();
                return false;
            }
        };
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        shared.metrics.connections.inc();
        shared
            .metrics
            .recorder()
            .record(FlightKind::ConnOpen, conn_id, 0);
        let msg = ShardMsg::Conn(stream, conn_id);
        let target = self.least_loaded_other();
        if target != self.index
            && shared.metrics.shard_connections[target].value() < conns.len() as f64
        {
            shared.send(target, msg);
        } else {
            self.admit(conns, msg);
        }
        true
    }

    fn admit(&self, conns: &mut HashMap<u64, Conn>, msg: ShardMsg) {
        match msg {
            ShardMsg::Conn(stream, id) => {
                let _ = stream.set_nodelay(true);
                if stream.set_nonblocking(true).is_err() {
                    // A socket that can't join the readiness loop is
                    // refused (the close balances the open event).
                    self.shared
                        .metrics
                        .recorder()
                        .record(FlightKind::ConnClose, id, 0);
                    return;
                }
                conns.insert(id, Conn::new(stream, id));
            }
            ShardMsg::Adopt(conn) => {
                conns.insert(conn.id, *conn);
            }
        }
    }

    /// One readiness pass over one connection: flush, read, decode,
    /// dispatch, flush. Reading and dispatch pause while the
    /// connection is write-blocked.
    fn sweep_conn(&self, conn: &mut Conn, scratch: &mut Scratch) -> Sweep {
        let mut active = match conn.flush() {
            Ok(progress) => progress,
            Err(_) => return Sweep::Close,
        };
        if conn.closing {
            return if conn.out_done() {
                Sweep::Close
            } else {
                Sweep::Keep { active }
            };
        }

        let mut saw_eof = false;
        while conn.decoder.buffered() < READ_HIGH_WATER && !conn.write_blocked() {
            match conn.stream.read(&mut scratch.read_buf) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    active = true;
                    conn.decoder.feed(&scratch.read_buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // A hard transport error ends the stream like an EOF;
                // the decoder's boundary state decides the verdict.
                Err(_) => {
                    saw_eof = true;
                    break;
                }
            }
        }

        // Cleared if backpressure stops dispatch with frames still
        // buffered: the EOF verdict waits for them (a later read sees
        // the EOF again).
        let mut drained = true;
        loop {
            if conn.write_blocked() {
                drained = false;
                break;
            }
            match conn.decoder.try_frame() {
                Ok(Some(frame)) => {
                    active = true;
                    match self.on_frame(conn, frame, scratch) {
                        Flow::Continue => {}
                        Flow::Refuse(code, msg) => {
                            self.refuse(conn, code, &msg);
                            break;
                        }
                        Flow::Bye => {
                            let session = conn.session.take().expect("BYE without a session");
                            self.bye_exit(session);
                            conn.closing = true;
                            break;
                        }
                        Flow::Migrate { target, operator } => {
                            return Sweep::Migrate { target, operator }
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    self.refuse(conn, ErrorCode::Malformed, &proto_msg(e));
                    break;
                }
            }
        }

        if saw_eof && drained && !conn.closing {
            match conn.decoder.on_eof() {
                Ok(()) => {
                    // Clean close at a frame boundary: a non-BYE exit,
                    // so the session parks for resume.
                    if let Some(session) = conn.session.take() {
                        self.shared.park_exit(session);
                    }
                    conn.closing = true;
                }
                Err(e) => self.refuse(conn, ErrorCode::Malformed, &proto_msg(e)),
            }
        }

        if !conn.out_done() {
            match conn.flush() {
                Ok(progress) => active |= progress,
                Err(_) => return Sweep::Close,
            }
        }
        if conn.closing && conn.out_done() {
            return Sweep::Close;
        }
        Sweep::Keep { active }
    }

    fn on_frame(&self, conn: &mut Conn, frame: Frame, scratch: &mut Scratch) -> Flow {
        if conn.session.is_none() {
            self.on_handshake_frame(conn, frame)
        } else {
            self.on_session_frame(conn, frame, scratch)
        }
    }

    /// The first frame must be a valid HELLO; a good one establishes
    /// the session on this worker.
    fn on_handshake_frame(&self, conn: &mut Conn, frame: Frame) -> Flow {
        if frame.kind != FrameKind::Hello {
            return Flow::Refuse(
                ErrorCode::Malformed,
                "expected HELLO as the first frame".into(),
            );
        }
        let hello = match decode_hello(&frame.payload) {
            Ok(hello) => hello,
            Err(e) => return Flow::Refuse(ErrorCode::Malformed, e.to_string()),
        };
        self.shared.metrics.frame(FrameKind::Hello).inc();
        let session = match establish(&hello, &self.shared.table) {
            Ok(session) => session,
            Err((code, msg)) => return Flow::Refuse(code, msg),
        };
        let (mode, flight_kind) = match &hello.resume {
            Resume::Fresh => (SessionMode::Fresh, FlightKind::SessionFresh),
            Resume::SessionId(_) => (SessionMode::Resumed, FlightKind::SessionResume),
            Resume::State(_) => (SessionMode::Restored, FlightKind::SessionRestore),
        };
        self.shared.fleet.session_started(mode);
        self.shared
            .metrics
            .recorder()
            .record(flight_kind, session.id, 0);
        // A resume just removed a parked session; keep the gauges
        // current.
        self.shared.metrics.track_parked(&self.shared.table);
        let welcome = Welcome {
            session_id: session.id,
            fingerprint: code_fingerprint(),
            events: session.pipeline.events(),
        };
        encode_frame_into(&mut conn.out, FrameKind::Welcome, &encode_welcome(&welcome));
        conn.session = Some(session);
        Flow::Continue
    }

    fn on_session_frame(&self, conn: &mut Conn, frame: Frame, scratch: &mut Scratch) -> Flow {
        let shared = &self.shared;
        let metrics = &shared.metrics;
        metrics.frame(frame.kind).inc();
        let Conn { session, out, .. } = conn;
        let session = session.as_mut().expect("session frame without a session");
        match frame.kind {
            FrameKind::Events => {
                let started = Instant::now();
                if let Err(e) = decode_events_into(&frame.payload, &mut scratch.events) {
                    return Flow::Refuse(ErrorCode::Malformed, e.to_string());
                }
                scratch.outcomes.clear();
                session
                    .pipeline
                    .run_batch(&scratch.events, &mut scratch.outcomes);
                encode_frame_with(out, FrameKind::Predictions, |out| {
                    encode_outcomes_into(out, &scratch.outcomes)
                });
                // Watch telemetry rides the hot loop allocation-free,
                // and the fleet counts the batch before its reply goes
                // out.
                let delta = session.watch.observe_batch(&scratch.outcomes);
                shared.fleet.add(&delta);
                metrics.batch_events.record(scratch.events.len() as u64);
                metrics
                    .batch_handle_ns
                    .record(started.elapsed().as_nanos() as u64);
                if delta.latched {
                    metrics.recorder().record(
                        FlightKind::DriftLatch,
                        session.id,
                        session.watch.drift_window(),
                    );
                }
                Flow::Continue
            }
            FrameKind::StatsReq => {
                let stats = Stats {
                    session: session.watch.session_stats(session.id),
                    fleet: shared.fleet.snapshot(shared.table.parked()),
                };
                encode_frame_into(out, FrameKind::Stats, &encode_stats(&stats));
                Flow::Continue
            }
            FrameKind::SnapshotReq => {
                let mut state = Vec::new();
                session.pipeline.save_state(&mut state);
                let snapshot = Snapshot {
                    session_id: session.id,
                    events: session.pipeline.events(),
                    state,
                };
                encode_frame_into(out, FrameKind::Snapshot, &encode_snapshot(&snapshot));
                Flow::Continue
            }
            FrameKind::Bye => Flow::Bye,
            FrameKind::Migrate => {
                let req = match decode_migrate_req(&frame.payload) {
                    Ok(req) => req,
                    Err(e) => return Flow::Refuse(ErrorCode::Malformed, e.to_string()),
                };
                if req.session_id != session.id {
                    return Flow::Refuse(
                        ErrorCode::BadState,
                        format!(
                            "MIGRATE names session {} but this connection owns session {}",
                            req.session_id, session.id
                        ),
                    );
                }
                let target = match req.target_shard {
                    Some(t) if (t as usize) >= shared.workers => {
                        return Flow::Refuse(
                            ErrorCode::BadState,
                            format!("target shard {t} out of range ({} workers)", shared.workers),
                        );
                    }
                    Some(t) => t as usize,
                    None => self.least_loaded_other(),
                };
                if target == self.index {
                    // Already there (or a single-worker server):
                    // acknowledge without moving anything.
                    let ack = MigrateAck {
                        session_id: session.id,
                        from_shard: self.index as u32,
                        to_shard: self.index as u32,
                    };
                    encode_frame_into(out, FrameKind::Migrate, &encode_migrate_ack(&ack));
                    return Flow::Continue;
                }
                Flow::Migrate {
                    target,
                    operator: true,
                }
            }
            _ => Flow::Refuse(
                ErrorCode::Malformed,
                "unexpected frame kind from client".into(),
            ),
        }
    }

    /// The least-loaded worker other than this one, read from the
    /// `paco_shard_connections` gauges (peers update theirs at sweep
    /// cadence, so the reading may lag a sweep — good enough for load
    /// shedding).
    fn least_loaded_other(&self) -> usize {
        let gauges = &self.shared.metrics.shard_connections;
        (0..self.shared.workers)
            .filter(|&j| j != self.index)
            .min_by(|&a, &b| {
                gauges[a]
                    .value()
                    .partial_cmp(&gauges[b].value())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(self.index)
    }

    /// The automatic rebalancing policy: a worker above the watermark
    /// sheds its lowest-id session to the least-loaded worker, at most
    /// one per sweep.
    fn try_policy_migration(&self, conns: &mut HashMap<u64, Conn>) -> bool {
        let shared = &self.shared;
        if shared.workers < 2
            || shared.shutdown.load(Ordering::Relaxed)
            || conns.len() <= shared.policy_watermark
        {
            return false;
        }
        let target = self.least_loaded_other();
        if shared.metrics.shard_connections[target].value() >= conns.len() as f64 {
            return false;
        }
        let victim = conns
            .iter()
            .filter(|(_, c)| c.session.is_some() && !c.closing)
            .min_by_key(|(_, c)| c.session.as_ref().map_or(u64::MAX, |s| s.id))
            .map(|(&id, _)| id);
        let Some(id) = victim else {
            return false;
        };
        let conn = conns.remove(&id).expect("policy victim vanished");
        self.start_migration(conn, target, false);
        true
    }

    /// Moves a session's connection to `target`: records the
    /// migration, queues an operator's MIGRATE ack behind any unflushed
    /// output (the target flushes it once the session is live there),
    /// applies the drop fault, and hands the connection over.
    fn start_migration(&self, mut conn: Conn, target: usize, operator: bool) {
        let metrics = &self.shared.metrics;
        let session_id = conn
            .session
            .as_ref()
            .expect("migrating conn without session")
            .id;
        let (from, to) = (self.index as u32, target as u32);
        metrics
            .recorder()
            .record(FlightKind::SessionMigrate, session_id, shard_pair(from, to));
        metrics.migrations(operator).inc();
        if operator {
            let ack = MigrateAck {
                session_id,
                from_shard: from,
                to_shard: to,
            };
            encode_frame_into(&mut conn.out, FrameKind::Migrate, &encode_migrate_ack(&ack));
        }
        if self.shared.faults.take_drop() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.shared.send(target, ShardMsg::Adopt(Box::new(conn)));
    }

    /// Counts a refusal, answers with an ERROR frame, and finishes the
    /// connection. A *malformed* refusal additionally lands in the
    /// flight recorder and dumps it — the "something impossible arrived
    /// on the wire" diagnostic path. A refused streaming connection
    /// parks its session (the client may resume with correct framing).
    fn refuse(&self, conn: &mut Conn, code: ErrorCode, msg: &str) {
        let metrics = &self.shared.metrics;
        let session_id = conn.session.as_ref().map_or(0, |s| s.id);
        metrics.protocol_errors.inc();
        if code == ErrorCode::Malformed {
            metrics
                .recorder()
                .record(FlightKind::FrameError, conn.id, session_id);
            metrics.recorder().dump("protocol error");
        }
        encode_frame_into(&mut conn.out, FrameKind::Error, &encode_error(code, msg));
        conn.closing = true;
        if let Some(session) = conn.session.take() {
            self.shared.park_exit(session);
        }
    }

    /// Clean close: the session is discarded, but its telemetry still
    /// counts toward the fleet totals.
    fn bye_exit(&self, session: Session) {
        self.shared.fleet.session_ended();
        self.shared
            .metrics
            .recorder()
            .record(FlightKind::SessionBye, session.id, 0);
    }

    /// Final teardown of one connection: best-effort flush, park any
    /// still-attached session, record the close.
    fn close_conn(&self, mut conn: Conn) {
        let _ = conn.flush();
        if let Some(session) = conn.session.take() {
            self.shared.park_exit(session);
        }
        self.shared
            .metrics
            .recorder()
            .record(FlightKind::ConnClose, conn.id, 0);
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
}

/// A server running on background threads, one per worker shard.
/// Dropping it (or calling [`stop`](Self::stop)) shuts every worker
/// down and joins them; the listener closes with the last one.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    worker_threads: Vec<thread::JoinHandle<()>>,
}

impl RunningServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral test port) and
    /// starts serving with `shards` worker shards and the default
    /// migration policy.
    pub fn bind(addr: impl ToSocketAddrs, shards: usize) -> std::io::Result<RunningServer> {
        RunningServer::bind_with(
            addr,
            ServeOptions {
                shards,
                ..ServeOptions::default()
            },
        )
    }

    /// Binds `addr` with explicit [`ServeOptions`].
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        options: ServeOptions,
    ) -> std::io::Result<RunningServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = options.shards.max(1);
        let metrics = Arc::new(ServeMetrics::with_shards(workers));
        // The aggregator's scalar counters ARE the registry's cells:
        // fleet log, STATS frames and /metrics scrapes read one source.
        let fleet = Arc::new(FleetAggregator::with_counters(metrics.fleet.clone()));
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            workers,
            policy_watermark: options.policy_watermark,
            table: Arc::new(SessionTable::new(workers)),
            fleet,
            metrics,
            faults: Arc::new(FaultInjector::new()),
            inboxes: (0..workers)
                .map(|_| Inbox::new())
                .collect::<std::io::Result<_>>()?,
        });
        // Built before the workers start, so an error part-way drops it
        // and stops the workers already running.
        let mut server = RunningServer {
            addr,
            shared,
            worker_threads: Vec::with_capacity(workers),
        };
        for index in 0..workers {
            let worker = Worker {
                index,
                shared: Arc::clone(&server.shared),
                listener: listener.try_clone()?,
            };
            server.worker_threads.push(
                thread::Builder::new()
                    .name(format!("paco-shard-{index}"))
                    .spawn(move || worker.run())?,
            );
        }
        Ok(server)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metric plane (registry + flight recorder) — what
    /// `--metrics-addr` exposes and tests scrape.
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.shared.metrics
    }

    /// The fault-injection seam the churn/fault harness arms.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.shared.faults
    }

    /// Sessions currently parked (detached, resumable).
    pub fn parked_sessions(&self) -> usize {
        self.shared.table.parked()
    }

    /// A `'static` closure returning the current fleet-wide watch
    /// snapshot (what a STATS frame's fleet half would report) — for the
    /// binary's periodic fleet log, whose detached logger thread must
    /// outlive the borrow of `self`.
    pub fn fleet_handle(&self) -> impl Fn() -> FleetStats + Send + 'static {
        let shared = Arc::clone(&self.shared);
        move || shared.fleet.snapshot(shared.table.parked())
    }

    /// Shuts down: stops accepting, severs live connections (parking
    /// their sessions), joins all threads.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.shut_down();
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
        // Anything still queued in an inbox (say, a migration in flight
        // at shutdown) must park its session, not leak it.
        self.shared.drain_leftovers();
    }

    /// Blocks until the workers exit (for the foreground binary); they
    /// only exit via [`stop`](Self::stop) or process signals.
    pub fn join(mut self) {
        for handle in self.worker_threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

type Refusal = (ErrorCode, String);

/// Validates a HELLO and produces the session it asks for.
fn establish(hello: &Hello, table: &SessionTable) -> Result<Session, Refusal> {
    if hello.protocol_version != PROTOCOL_VERSION {
        return Err((
            ErrorCode::ProtocolMismatch,
            format!(
                "server speaks protocol {PROTOCOL_VERSION}, client sent {}",
                hello.protocol_version
            ),
        ));
    }
    if let Err(reason) = hello.config.validate() {
        return Err((ErrorCode::ConfigInvalid, reason));
    }
    let server_hash = crate::proto::config_hash(&hello.config);
    if server_hash != hello.config_hash {
        return Err((
            ErrorCode::ConfigHashMismatch,
            format!(
                "decoded config canon-hashes to {server_hash:016x}, client claims {:016x} \
                 (incompatible builds?)",
                hello.config_hash
            ),
        ));
    }
    // Resolve the declared workload family (if any) to its shipped
    // reference profile before touching any session state, so an
    // unknown name refuses cleanly.
    let declared = match &hello.family {
        None => None,
        Some(name) => match paco_corpus::reference_profile(name) {
            Some(profile) => Some((name.clone(), profile)),
            None => {
                let known: Vec<&str> = paco_corpus::CORPUS.iter().map(|e| e.name).collect();
                return Err((
                    ErrorCode::UnknownFamily,
                    format!(
                        "no reference profile for family `{name}` (known: {})",
                        known.join(" ")
                    ),
                ));
            }
        },
    };
    let fresh_watch = |declared: Option<(String, _)>| match declared {
        Some((name, profile)) => WatchState::new(Some(name), Some(profile)),
        None => WatchState::default(),
    };
    match &hello.resume {
        Resume::Fresh => Ok(Session {
            id: table.allocate_id(),
            pipeline: OnlinePipeline::new(&hello.config),
            watch: fresh_watch(declared),
        }),
        Resume::SessionId(id) => {
            let mut session = table.claim(*id).ok_or_else(|| {
                (
                    ErrorCode::UnknownSession,
                    format!("session {id} is unknown, expired or already claimed"),
                )
            })?;
            if session.pipeline.config_hash() != server_hash {
                // Hand the session back before refusing: the rightful
                // owner may still reclaim it with the right config.
                table.park(session);
                return Err((
                    ErrorCode::ConfigHashMismatch,
                    format!("session {id} was created under a different configuration"),
                ));
            }
            // A reclaimed session keeps its accumulated telemetry; a
            // declaring HELLO can pin a family onto a session that never
            // had one (WatchState::declare is first-writer-wins).
            if let Some((name, profile)) = declared {
                session.watch.declare(name, profile);
            }
            Ok(session)
        }
        Resume::State(blob) => {
            let mut pipeline = OnlinePipeline::new(&hello.config);
            let mut input = blob.as_slice();
            if !pipeline.load_state(&mut input) || !input.is_empty() {
                return Err((
                    ErrorCode::BadState,
                    "state blob failed to restore (wrong config or corrupt)".into(),
                ));
            }
            // Snapshot blobs carry pipeline state only; telemetry
            // restarts (a restored session is a new observation stream).
            Ok(Session {
                id: table.allocate_id(),
                pipeline,
                watch: fresh_watch(declared),
            })
        }
    }
}

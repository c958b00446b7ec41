//! The flight recorder: a fixed-size ring of structured, timestamped
//! control-plane events.
//!
//! Connection opens and closes, frame decode errors, session
//! park/resume/restore and drift latches are *rare* relative to the
//! per-branch-event hot path, but they are exactly what an operator
//! needs when a server misbehaves. The recorder keeps the last
//! N of them in per-thread-stripe ring buffers (one short uncontended
//! mutex acquisition per event — never on the per-event prediction
//! path, which records nothing here) and renders them as readable text
//! on demand: on a protocol error, on panic (via
//! [`install_panic_hook`]), or over the exposition endpoint's
//! `/flight` path.
//!
//! Events are fixed-size binary records — a global sequence number, a
//! microsecond timestamp from the recorder's epoch, a [`FlightKind`],
//! and two argument words whose meaning the kind defines — so recording
//! never allocates and the ring's memory footprint is constant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::metrics::{thread_stripe, STRIPES};

/// What happened. The two argument words (`a`, `b`) are
/// kind-specific; see each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A TCP connection was accepted. `a` = connection id.
    ConnOpen = 1,
    /// A connection finished (any reason). `a` = connection id.
    ConnClose = 2,
    /// A frame failed to decode (protocol violation). `a` = connection
    /// id, `b` = session id (0 before handshake).
    FrameError = 3,
    /// A fresh session was established. `a` = session id.
    SessionFresh = 4,
    /// A session was parked for later resume. `a` = session id.
    SessionPark = 5,
    /// A parked session was reclaimed by id. `a` = session id.
    SessionResume = 6,
    /// A session was rebuilt from a client-held snapshot blob.
    /// `a` = the new session id.
    SessionRestore = 7,
    /// A session ended with a clean BYE. `a` = session id.
    SessionBye = 8,
    /// A session's drift detector latched. `a` = session id, `b` = the
    /// 1-based window index at which the flag latched.
    DriftLatch = 9,
    /// A session's connection, live pipeline included, moved to another
    /// worker shard. `a` = session id, `b` = packed shards
    /// (`from << 32 | to`).
    SessionMigrate = 10,
}

impl FlightKind {
    /// Every kind, in code order — the doc-drift catalog iterates this.
    pub const ALL: [FlightKind; 10] = [
        FlightKind::ConnOpen,
        FlightKind::ConnClose,
        FlightKind::FrameError,
        FlightKind::SessionFresh,
        FlightKind::SessionPark,
        FlightKind::SessionResume,
        FlightKind::SessionRestore,
        FlightKind::SessionBye,
        FlightKind::DriftLatch,
        FlightKind::SessionMigrate,
    ];

    /// The kind's stable kebab-case name (used in dumps and docs).
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::ConnOpen => "conn-open",
            FlightKind::ConnClose => "conn-close",
            FlightKind::FrameError => "frame-error",
            FlightKind::SessionFresh => "session-fresh",
            FlightKind::SessionPark => "session-park",
            FlightKind::SessionResume => "session-resume",
            FlightKind::SessionRestore => "session-restore",
            FlightKind::SessionBye => "session-bye",
            FlightKind::DriftLatch => "drift-latch",
            FlightKind::SessionMigrate => "session-migrate",
        }
    }

    /// Renders the argument words with kind-appropriate names.
    fn describe(self, a: u64, b: u64) -> String {
        match self {
            FlightKind::ConnOpen | FlightKind::ConnClose => format!("conn={a}"),
            FlightKind::FrameError => format!("conn={a} session={b}"),
            FlightKind::SessionFresh
            | FlightKind::SessionPark
            | FlightKind::SessionResume
            | FlightKind::SessionRestore
            | FlightKind::SessionBye => format!("session={a}"),
            FlightKind::DriftLatch => format!("session={a} window={b}"),
            FlightKind::SessionMigrate => {
                format!("session={a} shard={}->{}", b >> 32, b & 0xffff_ffff)
            }
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global ordering stamp (monotonic across threads).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub micros: u64,
    /// What happened.
    pub kind: FlightKind,
    /// First argument word (see [`FlightKind`]).
    pub a: u64,
    /// Second argument word (see [`FlightKind`]).
    pub b: u64,
}

#[derive(Debug)]
struct Ring {
    /// Pre-allocated storage; once full, the oldest slot is overwritten.
    slots: Vec<FlightEvent>,
    capacity: usize,
    /// Next write position (wraps).
    next: usize,
}

impl Ring {
    fn push(&mut self, event: FlightEvent) {
        if self.slots.len() < self.capacity {
            self.slots.push(event);
        } else {
            self.slots[self.next] = event;
        }
        self.next = (self.next + 1) % self.capacity;
    }
}

/// The recorder: [`STRIPES`] rings, one per thread stripe, each holding
/// the stripe's most recent events.
#[derive(Debug)]
pub struct FlightRecorder {
    epoch: Instant,
    seq: AtomicU64,
    recorded: AtomicU64,
    /// Lifetime counts per kind, indexed by `FlightKind as u8`. The
    /// rings retain only the recent tail; these survive overwrites, so
    /// event counts can be reconciled against metric counters exactly
    /// even after millions of events.
    recorded_by_kind: [AtomicU64; FlightRecorder::KIND_SLOTS],
    rings: Vec<Mutex<Ring>>,
}

impl FlightRecorder {
    /// Events each stripe ring retains by default (total capacity is
    /// `STRIPES` times this).
    pub const DEFAULT_RING_CAPACITY: usize = 512;

    /// Per-kind counter slots (covers every `FlightKind` repr value).
    const KIND_SLOTS: usize = 11;

    /// A recorder with the default per-ring capacity.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(Self::DEFAULT_RING_CAPACITY)
    }

    /// A recorder retaining `per_ring` events per stripe (at least 1).
    pub fn with_capacity(per_ring: usize) -> Self {
        let capacity = per_ring.max(1);
        FlightRecorder {
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            recorded_by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
            rings: (0..STRIPES)
                .map(|_| {
                    Mutex::new(Ring {
                        slots: Vec::with_capacity(capacity),
                        capacity,
                        next: 0,
                    })
                })
                .collect(),
        }
    }

    /// Records one event into the calling thread's stripe ring.
    pub fn record(&self, kind: FlightKind, a: u64, b: u64) {
        let event = FlightEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            micros: self.epoch.elapsed().as_micros() as u64,
            kind,
            a,
            b,
        };
        self.recorded.fetch_add(1, Ordering::Relaxed);
        self.recorded_by_kind[kind as usize].fetch_add(1, Ordering::Relaxed);
        let mut ring = self.rings[thread_stripe()]
            .lock()
            .expect("flight ring poisoned");
        ring.push(event);
    }

    /// Events recorded over the recorder's lifetime (retained or not).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Lifetime count of events of one kind (retained or not) — the
    /// reconciliation surface scale tests compare against metric
    /// counters, since rings overwrite their oldest events.
    pub fn recorded_of(&self, kind: FlightKind) -> u64 {
        self.recorded_by_kind[kind as usize].load(Ordering::Relaxed)
    }

    /// The retained events, oldest first (merged across rings, ordered
    /// by sequence number).
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut all: Vec<FlightEvent> = Vec::new();
        for ring in &self.rings {
            all.extend(ring.lock().expect("flight ring poisoned").slots.iter());
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Renders the retained events as readable text, one line per event:
    ///
    /// ```text
    /// flight recorder: 3 events retained (3 recorded)
    ///   +0.000102s #0 conn-open        conn=1
    ///   +0.004711s #1 session-fresh    session=1
    ///   +0.009815s #2 frame-error      conn=1 session=1
    /// ```
    pub fn render(&self) -> String {
        let events = self.events();
        let mut out = format!(
            "flight recorder: {} events retained ({} recorded)\n",
            events.len(),
            self.recorded()
        );
        for e in events {
            out.push_str(&format!(
                "  +{:.6}s #{} {:<16} {}\n",
                e.micros as f64 / 1e6,
                e.seq,
                e.kind.name(),
                e.kind.describe(e.a, e.b)
            ));
        }
        out
    }

    /// Dumps [`render`](Self::render) to stderr under a banner naming
    /// `reason` — the protocol-error / operator-request dump path.
    pub fn dump(&self, reason: &str) {
        eprintln!("=== flight recorder dump ({reason}) ===\n{}", self.render());
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

/// Installs a panic hook that dumps `recorder` to stderr before
/// delegating to the previously installed hook. Call once at server
/// startup; calling again chains another dump.
pub fn install_panic_hook(recorder: std::sync::Arc<FlightRecorder>) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        recorder.dump("panic");
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders_in_order() {
        let rec = FlightRecorder::with_capacity(16);
        rec.record(FlightKind::ConnOpen, 1, 0);
        rec.record(FlightKind::SessionFresh, 9, 0);
        rec.record(FlightKind::DriftLatch, 9, 16);
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, FlightKind::ConnOpen);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        let text = rec.render();
        assert!(text.contains("conn-open"));
        assert!(text.contains("session=9 window=16"));
        assert!(text.starts_with("flight recorder: 3 events retained (3 recorded)"));
    }

    #[test]
    fn ring_overwrites_oldest_at_capacity() {
        let rec = FlightRecorder::with_capacity(4);
        // Single-threaded: everything lands in one ring.
        for i in 0..10 {
            rec.record(FlightKind::ConnOpen, i, 0);
        }
        let events = rec.events();
        assert_eq!(events.len(), 4, "ring must stay fixed-size");
        assert_eq!(rec.recorded(), 10);
        // The newest four survive.
        let ids: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
    }

    #[test]
    fn cross_thread_events_merge_by_sequence() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let rec = std::sync::Arc::clone(&rec);
                scope.spawn(move || {
                    for i in 0..8 {
                        rec.record(FlightKind::SessionPark, t * 100 + i, 0);
                    }
                });
            }
        });
        let events = rec.events();
        assert_eq!(events.len(), 32);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn per_kind_counts_survive_ring_overwrites() {
        let rec = FlightRecorder::with_capacity(2);
        for i in 0..9 {
            rec.record(FlightKind::SessionPark, i, 0);
        }
        rec.record(FlightKind::SessionMigrate, 9, 3 << 32 | 5);
        assert_eq!(rec.recorded_of(FlightKind::SessionPark), 9);
        assert_eq!(rec.recorded_of(FlightKind::SessionMigrate), 1);
        let text = rec.render();
        assert!(text.contains("session=9 shard=3->5"));
    }

    #[test]
    fn every_kind_has_a_distinct_name() {
        let mut names: Vec<&str> = FlightKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FlightKind::ALL.len());
    }
}

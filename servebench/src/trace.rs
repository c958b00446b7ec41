//! Spans recorded in memory around the benchmark's calls into the
//! serving stack, written out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// The parent of a root span, and the id a disabled tracer hands out.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer function the span wraps, e.g. `proto.decode_events`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The session the call belongs to (its index in the round).
    pub session: u64,
    /// The frame within the session.
    pub frame: u32,
}

impl Span {
    /// The span's duration, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer owned by one thread. A disabled tracer never reads the
/// clock and records nothing, so untraced runs pay one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer timing against `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether this tracer records spans.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32, session: u64, frame: u32) -> u32 {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            session,
            frame,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        if id != NO_PARENT {
            let now = self.now();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// The duration of closed span `id` (0 when tracing is off).
    pub fn duration_ns(&self, id: u32) -> u64 {
        self.spans.get(id as usize).map_or(0, Span::duration_ns)
    }

    /// Moves `other`'s spans into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as tab-separated lines
    /// (`name start_ns end_ns parent session frame`).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tsession\tframe")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.session, s.frame
            )?;
        }
        out.flush()
    }
}

/// Total self time (duration minus the part covered by child spans) and
/// span count, by span name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, child) in spans.iter().zip(covered) {
        let entry = out.entry(s.name).or_insert((0, 0));
        entry.0 += s.duration_ns().saturating_sub(child);
        entry.1 += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            Span {
                name: "frame",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                session: 0,
                frame: 0,
            },
            Span {
                name: "stage",
                start_ns: 10,
                end_ns: 40,
                parent: 0,
                session: 0,
                frame: 0,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["frame"], (70, 1));
        assert_eq!(t["stage"], (30, 1));
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        let root = a.open("a", NO_PARENT, 0, 0);
        a.close(root);
        let mut b = Tracer::new(epoch, true);
        let p = b.open("b", NO_PARENT, 1, 0);
        let c = b.open("c", p, 1, 0);
        b.close(c);
        b.close(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
    }
}

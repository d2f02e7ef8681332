//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name, a start and an end on the run's clock, the span
//! that caused it, and a trace id shared by every span of one producer
//! batch. Spans stay in memory and are written as JSONL when the run
//! ends, each line carrying its self time: the span's duration minus
//! the part of it that its children cover.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique within the run (never 0).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Shared by every span of one producer batch (see [`batch_trace`])
    /// or of one cluster cycle (see [`cycle_trace`]).
    pub trace: u64,
    /// Layer-qualified name, e.g. `gate.admit`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's clock origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's clock origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Trace id of producer `producer`'s batch `batch` in cycle `cycle`.
pub fn batch_trace(cycle: u64, producer: u64, batch: u64) -> u64 {
    (cycle << 56) | (producer << 40) | batch
}

/// Trace id of the cluster-level spans of cycle `cycle`.
pub fn cycle_trace(cycle: u64) -> u64 {
    (1 << 63) | cycle
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// hands out id 0.
pub struct Tracer {
    on: bool,
    origin: Instant,
    base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose ids start above `lane << 40`, so tracers of
    /// different threads never collide.
    pub fn new(on: bool, origin: Instant, lane: u64) -> Tracer {
        Tracer {
            on,
            origin,
            base: lane << 40,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<u64>, trace: u64) -> u64 {
        if !self.on {
            return 0;
        }
        let now = self.ns(Instant::now());
        let id = self.base + self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: now,
            end_ns: now,
        });
        id
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u64) {
        if !self.on || id == 0 {
            return;
        }
        let now = self.ns(Instant::now());
        let i = (id - self.base - 1) as usize;
        self.spans[i].end_ns = now;
    }

    /// Closes span `id` at `at`.
    pub fn close_at(&mut self, id: u64, at: Instant) {
        if !self.on || id == 0 {
            return;
        }
        let i = (id - self.base - 1) as usize;
        self.spans[i].end_ns = self.ns(at);
    }

    /// Records an already-finished interval.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.base + self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Moves every span out of the recorder.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span (same order as `spans`): its duration minus
/// the union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut w = BufWriter::new(File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"trace\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.name, s.id, parent, s.trace, s.start_ns, s.end_ns, self_ns
        )?;
    }
    w.flush()
}

/// Durations (µs) of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),  // overlaps span 2
            span(4, Some(1), 90, 120), // runs past the parent
            span(5, Some(2), 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 20, 30, 10]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let id = t.begin("x", None, 0);
        t.end(id);
        assert_eq!(id, 0);
        assert!(t.take().is_empty());
    }

    #[test]
    fn lanes_keep_ids_apart() {
        let origin = Instant::now();
        let (mut a, mut b) = (Tracer::new(true, origin, 1), Tracer::new(true, origin, 2));
        let (x, y) = (a.begin("x", None, 0), b.begin("y", None, 0));
        assert_ne!(x, y);
        a.end(x);
        b.end(y);
        assert_eq!((a.take().len(), b.take().len()), (1, 1));
    }
}

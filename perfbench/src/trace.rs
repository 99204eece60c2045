//! In-memory spans recorded around the public calls into each layer.
//! Spans are kept in memory while a run measures and written out as
//! JSON lines once it ends.

use crate::stats::{self_time, Interval};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `"plan"`.
    pub name: &'static str,
    /// Submission kind of the workload it belongs to (`"new"`, `"replay"`,
    /// `"explore"`).
    pub kind: &'static str,
    /// Workload id: the submission's position in its repeat.
    pub workload: u64,
    /// Repeat the span was recorded in.
    pub repeat: usize,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    /// Nanoseconds since the tracer's origin.
    pub end: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) as f64 / 1e6
    }
}

/// A span recorder. Each thread keeps its own; [`Tracer::merge`] joins
/// them afterwards.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    repeat: usize,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            repeat: 0,
            spans: Vec::new(),
        }
    }

    /// The instant the clock counts from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The repeat new spans are tagged with.
    pub fn repeat(&self) -> usize {
        self.repeat
    }

    /// Tag the spans recorded from now on with `repeat`.
    pub fn set_repeat(&mut self, repeat: usize) {
        self.repeat = repeat;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        kind: &'static str,
        workload: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let start = self.now();
        self.spans.push(Span {
            name,
            kind,
            workload,
            repeat: self.repeat,
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id].end = now;
    }

    /// Move every span of `other` into this recorder, keeping parent
    /// links intact. Both must share one origin.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span, in the order it was opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span of the repeats `keep` accepts, in
    /// nanoseconds, grouped by span name: each span's duration minus the
    /// part its children cover.
    pub fn self_times(&self, keep: impl Fn(usize) -> bool) -> BTreeMap<&'static str, Vec<u64>> {
        let mut children: Vec<Vec<Interval>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push(Interval {
                    start: s.start,
                    end: s.end,
                });
            }
        }
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, kids) in self
            .spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| keep(s.repeat))
        {
            let own = self_time(
                Interval {
                    start: s.start,
                    end: s.end,
                },
                kids,
            );
            out.entry(s.name).or_default().push(own);
        }
        out
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"repeat\":{},\"name\":\"{}\",\"kind\":\"{}\",\"workload\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.repeat, s.name, s.kind, s.workload, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children_and_merge_keeps_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.begin("submit", "new", 0, None);
        let child = a.begin("plan", "new", 0, Some(root));
        a.end(child);
        a.end(root);
        // Pin the clock readings so the arithmetic is exact.
        a.spans[root].start = 100;
        a.spans[root].end = 200;
        a.spans[child].start = 120;
        a.spans[child].end = 150;
        let mut b = Tracer::new(origin);
        let other = b.begin("submit", "replay", 1, None);
        let inner = b.begin("publish", "replay", 1, Some(other));
        b.end(inner);
        b.end(other);
        a.merge(b);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert!(a.self_times(|_| false).is_empty());
        let by_name = a.self_times(|_| true);
        assert_eq!(by_name["plan"], vec![30]);
        assert_eq!(by_name["submit"][0], 70);
        assert_eq!(by_name["submit"].len(), 2);
    }
}

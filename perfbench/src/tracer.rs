//! In-memory spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and a parent; every span of one op carries the
//! op's id. A layer's self time is its span's duration minus the part covered by its
//! direct children. Spans stay in memory until the run ends and are then written out
//! as JSON lines.

use ccache_json::{Json, ToJson};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Id of the op (or set-up round) the span belongs to.
    pub op: u64,
    /// Layer-boundary name, e.g. `layout.conflict_graph`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer with no spans.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the op id that the next spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span; it encloses every span opened before the matching [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in nanoseconds.
    pub fn exit(&mut self) -> u64 {
        let idx = self.stack.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].duration_ns()
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records an already-measured interval `[start, end)` (instants taken by the
    /// caller) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let to_ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(SpanRec {
            op: self.op,
            name,
            parent: self.stack.last().copied(),
            start_ns: to_ns(start),
            end_ns: to_ns(end),
        });
    }

    /// Self time and count per span name: `name -> (self_ns, spans)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let entry = out.entry(span.name).or_default();
            entry.0 += span.duration_ns().saturating_sub(child_ns[i]);
            entry.1 += 1;
        }
        out
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::duration_ns)
            .sum()
    }

    /// Appends every span of `other` (taken on another thread), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        let shift = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s.start_ns += shift;
            s.end_ns += shift;
            s
        }));
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", (id as u64).to_json()),
                ("op", span.op.to_json()),
                ("name", span.name.to_json()),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| (p as u64).to_json()),
                ),
                ("start_ns", span.start_ns.to_json()),
                ("end_ns", span.end_ns.to_json()),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.enter("op");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let total = t.exit();
        let times = t.self_times();
        let (child_ns, _) = times["child"];
        let (op_ns, _) = times["op"];
        assert!(child_ns >= 5_000_000);
        assert_eq!(op_ns + child_ns, total);
    }
}

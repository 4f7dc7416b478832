//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each crate's public functions (spans *inside* the engine are a
//! later change).  They are kept in memory and written out once, when
//! the pass ends.

use std::time::Instant;

use crate::json::Json;

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<function>`, e.g. `runtime.resolve`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one operation share its id.
    pub op_id: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A count taken at a layer boundary (`ExecutionStats`, `ServerStats`,
/// link counters), attributed to an operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Count {
    /// `<crate>.<counter>`.
    pub name: &'static str,
    /// The operation it was read after.
    pub op_id: u64,
    /// The value.
    pub value: f64,
}

/// An in-memory span and count log with one time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder::with_origin(Instant::now())
    }

    /// An empty recorder on another recorder's clock, so logs filled by
    /// several client threads can be merged.
    #[must_use]
    pub fn with_origin(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// The recorder's time origin.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Recorder::close`].  Used for parent
    /// spans whose children are recorded while they are open.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op_id: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `call` as one span and returns its result with the span's
    /// duration in milliseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op_id: u64,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, op_id);
        let out = call();
        self.close(id);
        #[allow(clippy::cast_precision_loss)]
        let ms = self.spans[id].duration_ns() as f64 / 1e6;
        (out, ms)
    }

    /// Records a boundary count.
    pub fn count(&mut self, name: &'static str, op_id: u64, value: f64) {
        self.counts.push(Count { name, op_id, value });
    }

    /// Appends another recorder's log (same origin), re-basing its
    /// parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
        self.counts.extend(other.counts);
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded counts.
    #[must_use]
    pub fn counts(&self) -> &[Count] {
        &self.counts
    }

    /// Self time of every span, in nanoseconds: its duration minus the
    /// part of its interval its direct children cover (overlapping
    /// children are counted once).
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let start = span.start_ns.clamp(p.start_ns, p.end_ns);
                let end = span.end_ns.clamp(p.start_ns, p.end_ns);
                children[parent].push((start, end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut covered)| {
                covered.sort_unstable();
                let mut total = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in covered {
                    let start = start.max(reach);
                    if end > start {
                        total += end - start;
                        reach = end;
                    }
                }
                span.duration_ns() - total
            })
            .collect()
    }

    /// The whole log as JSON: `{"spans": [...], "counts": [...]}`, each
    /// span with its computed `self_ns`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        #[allow(clippy::cast_precision_loss)]
        let num = |n: u64| Json::Num(n as f64);
        let self_times = self.self_times_ns();
        let spans = self
            .spans
            .iter()
            .zip(self_times)
            .map(|(span, self_ns)| {
                Json::obj([
                    ("name", Json::Str(span.name.to_owned())),
                    ("start_ns", num(span.start_ns)),
                    ("end_ns", num(span.end_ns)),
                    ("self_ns", num(self_ns)),
                    ("parent", span.parent.map_or(Json::Null, |p| num(p as u64))),
                    ("op_id", num(span.op_id)),
                ])
            })
            .collect();
        let counts = self
            .counts
            .iter()
            .map(|count| {
                Json::obj([
                    ("name", Json::Str(count.name.to_owned())),
                    ("op_id", num(count.op_id)),
                    ("value", Json::Num(count.value)),
                ])
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans)), ("counts", Json::Arr(counts))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)), // overlaps the first child by 10
            span(80, 90, Some(0)),
            span(35, 38, Some(2)), // grandchild: not subtracted from the root
        ];
        let self_times = rec.self_times_ns();
        assert_eq!(self_times[0], 100 - 50 - 10);
        assert_eq!(self_times[1], 30);
        assert_eq!(self_times[2], 27);
    }

    #[test]
    fn absorb_rebases_parents() {
        let mut a = Recorder::new();
        let root = a.open("a", None, 1);
        a.close(root);
        let mut b = Recorder::with_origin(a.origin());
        let parent = b.open("b", None, 2);
        let (_, _) = b.time("c", Some(parent), 2, || ());
        b.close(parent);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(Json::parse(&a.to_json().to_string()).is_ok());
    }
}

//! Streaming union and flatten, and the sweep both a union and a class
//! spine serve their inputs by.

use std::time::Instant;

use disco_value::{Bag, BagCursor, Value};

use crate::exec::ResolutionEvents;

use super::columnar::{Batch, BatchSource};
use super::{BoxedRowStream, InputRows, PipelineCtx, PipelineMetrics, Result, Row, RowStream};
use crate::RuntimeError;

/// How a union and a class spine serve their inputs: a rotating sweep
/// over lock-free readiness hints ([`Sweep::pick`]).
#[derive(Default)]
pub(crate) struct Sweep {
    /// The input pulled last.
    last: usize,
    /// Whether any input was pulled yet.
    started: bool,
}

impl Sweep {
    /// Picks the input to pull from next, among `len` inputs of which
    /// `state(i)` is `None` for one that is exhausted and otherwise its
    /// readiness hint: the input pulled last while it is ready, else the
    /// first ready one after it, round the ring.  With every input ready
    /// that drains them in order.
    ///
    /// Only when a full sweep finds nothing ready does the consumer park
    /// on the resolution's event generation — read before a second
    /// sweep, so that progress landing between the two cannot be missed
    /// — and the park counts as source wait.  Before anything was pulled
    /// it wakes at the first progress, so the first row leaves as soon as
    /// any source has one; after that, once `waiting()` progress events
    /// happened: the caller's count of distinct sources its unready
    /// inputs wait for, each of which has at least one event to come — so
    /// a wide class wakes a few times per query, not once per chunk.
    /// At the deadline, or without a streamed resolution (where
    /// everything is ready), the first live input is returned: pulling it
    /// classifies its source through the spool's own wait loop.  At
    /// least one input must be live.
    pub(crate) fn pick(
        &mut self,
        len: usize,
        state: impl Fn(usize) -> Option<bool>,
        mut waiting: impl FnMut() -> usize,
        events: Option<&ResolutionEvents>,
        metrics: &PipelineMetrics,
    ) -> usize {
        let last = self.last.min(len);
        let ready = || (last..len).chain(0..last).find(|&i| state(i) == Some(true));
        let picked = loop {
            if let Some(i) = ready() {
                break Some(i);
            }
            let Some(events) = events else { break None };
            let seen = events.generation();
            if let Some(i) = ready() {
                break Some(i);
            }
            if events.deadline_passed() {
                break None;
            }
            let events_to_come = if self.started { waiting() } else { 1 };
            let parked = Instant::now();
            let progressed = events.wait_after(seen, events_to_come as u64);
            metrics.add_source_wait(parked.elapsed());
            if !progressed {
                break None;
            }
        };
        let picked = picked.unwrap_or_else(|| {
            (0..len)
                .find(|&i| state(i).is_some())
                .expect("a sweep has a live input")
        });
        (self.last, self.started) = (picked, true);
        picked
    }
}

/// Streams union inputs (`mkunion`, fan-out) as a batch source — no
/// branch result is ever collected into an intermediate bag, and each
/// input's batches pass on in the form they have: a fused class's struct
/// columns reach a `distinct` above the union as columns.
///
/// The inputs are what `columnar::union_source` makes of a `mkunion`'s
/// branches — one each — and what `columnar::fan_out_source` makes of a
/// fan-out: one spine per class, in the place of the class's first
/// member, and each member whose template does not fuse.  They are
/// served by a [`Sweep`]: with materialized inputs everything is always
/// ready and the inputs drain in order; with *pending* sources the union
/// pulls from whichever input has data, so the slowest source does not
/// gate the ones behind it, and parks on the resolution's shared event
/// channel only when none has.  Union output is a bag, so the
/// arrival-dependent order never changes the answer multiset or any
/// metric.
///
/// The root union of a pass drops an input whose source turned out
/// unavailable (reported, or at the deadline) and streams on; any other
/// union hands the loss up like every error.
pub(crate) struct Union<'a> {
    /// The inputs, each with its branch (a class spine knows its members').
    branches: Vec<(usize, BatchSource<'a>)>,
    /// Indexes into `branches` that are not yet exhausted.
    active: Vec<usize>,
    /// The input whose batch was handed out last.
    last: usize,
    root: bool,
    /// Serves positions in `active`.
    sweep: Sweep,
    events: Option<&'a ResolutionEvents>,
    metrics: &'a PipelineMetrics,
}

impl<'a> Union<'a> {
    pub(crate) fn new(
        branches: Vec<(usize, BatchSource<'a>)>,
        root: bool,
        ctx: PipelineCtx<'a>,
    ) -> Self {
        Union {
            active: (0..branches.len()).collect(),
            branches,
            last: 0,
            root,
            sweep: Sweep::default(),
            events: ctx.resolved.events().map(|events| &**events),
            metrics: ctx.metrics,
        }
    }

    /// The union branch the batch handed out last came from.
    pub(crate) fn branch(&self) -> usize {
        match &self.branches[self.last] {
            (_, class @ BatchSource::Spine(spine)) if spine.serves_members() => class.branch(),
            (branch, _) => *branch,
        }
    }

    /// The next batch of whichever input has one; `None` when every
    /// input is exhausted.
    pub(crate) fn next_chunk(&mut self, hint: usize) -> Result<Option<Batch<'a>>> {
        while !self.active.is_empty() {
            let (branches, active) = (&self.branches, &self.active);
            // Two inputs may wait for one source: wake at its progress.
            let pos = self.sweep.pick(
                active.len(),
                |i| Some(branches[active[i]].1.ready()),
                || 1,
                self.events,
                self.metrics,
            );
            let input = self.active[pos];
            match self.branches[input].1.next_chunk(hint) {
                Ok(Some(batch)) => {
                    self.last = input;
                    return Ok(Some(batch));
                }
                Ok(None) => {}
                Err(RuntimeError::PendingUnavailable(_)) if self.root => {}
                Err(err) => return Err(err),
            }
            self.active.remove(pos);
        }
        Ok(None)
    }

    /// Whether the next batch is there without blocking on a source.
    pub(crate) fn ready(&self) -> bool {
        self.active.is_empty()
            || self
                .active
                .iter()
                .any(|&index| self.branches[index].1.ready())
    }
}

/// Unnests one level of bags (`mkflatten`): bag- and list-valued rows are
/// expanded element by element through a shared-storage cursor, everything
/// else passes through — matching `Bag::flatten`'s permissive behaviour.
/// A bag being expanded carries over to the next pull when the output
/// batch fills.
pub(crate) struct FlattenCursor<'a> {
    input: InputRows<'a>,
    ctx: PipelineCtx<'a>,
    inner: Option<BagCursor>,
}

impl<'a> FlattenCursor<'a> {
    pub(crate) fn new(input: BoxedRowStream<'a>, ctx: PipelineCtx<'a>) -> Self {
        FlattenCursor {
            input: InputRows::new(input, ctx.batch_rows),
            ctx,
            inner: None,
        }
    }
}

impl<'a> RowStream<'a> for FlattenCursor<'a> {
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let start = out.len();
        while out.len() - start < max {
            if let Some(value) = self.inner.as_mut().and_then(BagCursor::next) {
                out.push(Row::owned(value));
                continue;
            }
            self.inner = None;
            let Some(row) = self.input.next(out.len() > start)? else {
                return Ok(self.input.more);
            };
            match row.materialize(self.ctx.metrics)? {
                Value::Bag(inner) => self.inner = Some(inner.into_cursor()),
                Value::List(items) => self.inner = Some(Bag::from_shared(items).into_cursor()),
                other => out.push(Row::owned(other)),
            }
        }
        Ok(true)
    }

    fn ready(&self) -> bool {
        self.inner.is_some() || self.input.ready()
    }
}

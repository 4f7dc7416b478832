//! Streaming union and flatten.

use std::sync::Arc;

use disco_value::{Bag, BagCursor, Value};

use crate::exec::ResolutionEvents;

use super::columnar::{Batch, BatchSource};
use super::{BoxedRowStream, PipelineCtx, Result, Row, RowStream};

/// Streams union branches (`mkunion`) as a batch source — no branch
/// result is ever collected into an intermediate bag, and each branch's
/// batches pass on in the form they have: a fused branch's struct columns
/// reach a `distinct` above the union as columns.
///
/// With materialized inputs every branch is always ready, so branches
/// drain in order, exactly the pre-streaming behaviour.  With *pending*
/// (still-resolving) sources among the branches, the union polls
/// readiness and pulls from whichever branch has data: the per-source
/// scans of a federated extent emit rows as each wrapper answers, instead
/// of the slowest branch gating all the ones behind it.  When no branch
/// is ready it parks on the resolution's shared event channel until any
/// source makes progress (bounded by the deadline).  Union output is a
/// bag, so the arrival-dependent order never changes the answer multiset
/// or any metric.
pub(crate) struct Union<'a> {
    branches: Vec<BatchSource<'a>>,
    /// Indexes into `branches` that are not yet exhausted.
    active: Vec<usize>,
    events: Option<Arc<ResolutionEvents>>,
}

impl<'a> Union<'a> {
    pub(crate) fn new(branches: Vec<BatchSource<'a>>, ctx: PipelineCtx<'a>) -> Self {
        Union {
            active: (0..branches.len()).collect(),
            branches,
            events: ctx.resolved.events().cloned(),
        }
    }

    /// The next active branch to pull from: the first that is ready,
    /// blocking on the event channel while none is.  `None` when every
    /// branch is exhausted.
    fn pick(&self) -> Option<usize> {
        loop {
            if self.active.is_empty() {
                return None;
            }
            // Read the generation before polling readiness so a chunk
            // landing between the poll and the wait cannot be missed.
            let seen = self.events.as_ref().map(|e| e.generation());
            if let Some(pos) = self
                .active
                .iter()
                .position(|&index| self.branches[index].ready())
            {
                return Some(pos);
            }
            match (&self.events, seen) {
                (Some(events), Some(seen)) => {
                    if events.deadline_passed() || !events.wait_after(seen) {
                        // Deadline: pull from the first active branch; its
                        // own wait classifies the source and surfaces the
                        // pending-unavailable error.
                        return Some(0);
                    }
                }
                // No streamed resolution: every branch is ready, so this
                // is unreachable; pull in order as a safe fallback.
                _ => return Some(0),
            }
        }
    }

    /// The next batch of whichever branch has one; `None` when every
    /// branch is exhausted.
    pub(crate) fn next_chunk(&mut self, hint: usize) -> Result<Option<Batch<'a>>> {
        while let Some(pos) = self.pick() {
            match self.branches[self.active[pos]].next_chunk(hint)? {
                Some(batch) => return Ok(Some(batch)),
                None => {
                    self.active.remove(pos);
                }
            }
        }
        Ok(None)
    }

    /// Whether the next batch is there without blocking on a source.
    pub(crate) fn ready(&self) -> bool {
        self.active.is_empty()
            || self
                .active
                .iter()
                .any(|&index| self.branches[index].ready())
    }
}

/// Unnests one level of bags (`mkflatten`): bag- and list-valued rows are
/// expanded element by element through a shared-storage cursor, everything
/// else passes through — matching `Bag::flatten`'s permissive behaviour.
pub(crate) struct FlattenCursor<'a> {
    input: BoxedRowStream<'a>,
    ctx: PipelineCtx<'a>,
    inner: Option<BagCursor>,
}

impl<'a> FlattenCursor<'a> {
    pub(crate) fn new(input: BoxedRowStream<'a>, ctx: PipelineCtx<'a>) -> Self {
        FlattenCursor {
            input,
            ctx,
            inner: None,
        }
    }
}

impl<'a> RowStream<'a> for FlattenCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        loop {
            if let Some(inner) = &mut self.inner {
                match inner.next() {
                    Some(value) => return Some(Ok(Row::owned(value))),
                    None => self.inner = None,
                }
            }
            let row = match self.input.next_row()? {
                Ok(row) => row,
                Err(err) => return Some(Err(err)),
            };
            let value = match row.materialize(self.ctx.metrics) {
                Ok(value) => value,
                Err(err) => return Some(Err(err)),
            };
            match value {
                Value::Bag(inner) => self.inner = Some(inner.into_cursor()),
                Value::List(items) => self.inner = Some(Bag::from_shared(items).into_cursor()),
                other => return Some(Ok(Row::owned(other))),
            }
        }
    }

    fn ready(&self) -> bool {
        self.inner.is_some() || self.input.ready()
    }
}

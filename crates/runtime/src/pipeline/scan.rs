//! Leaf cursors: scans over in-memory bags and over still-streaming
//! pending sources.

use std::collections::VecDeque;
use std::sync::Arc;

use disco_value::{Bag, Value};

use crate::exec::{PendingSource, Progress};
use crate::RuntimeError;

use super::{PipelineCtx, Result, Row, RowStream};

/// Streams the elements of a bag **by reference**: the bag lives in the
/// plan (`memscan` literal data) or in the resolved `exec` outcomes, both
/// of which outlive the pipeline, so the scan yields one borrowed frame
/// per row — no clone, no collect, not even a reference-count bump.  A
/// value is cloned only if its row survives to a consumer that needs
/// ownership (join build table, distinct seen-set, the final sink).
pub(crate) struct ScanCursor<'a> {
    items: &'a [disco_value::Value],
    index: usize,
}

impl<'a> ScanCursor<'a> {
    pub(crate) fn new(bag: &'a Bag) -> Self {
        ScanCursor::over(bag.as_slice())
    }

    /// A scan over an arbitrary value slice — the parallel engine hands
    /// each worker one morsel-sized sub-slice of a leaf bag through this.
    pub(crate) fn over(items: &'a [disco_value::Value]) -> Self {
        ScanCursor { items, index: 0 }
    }
}

impl<'a> RowStream<'a> for ScanCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        let item = self.items.get(self.index)?;
        self.index += 1;
        Some(Ok(Row::borrowed(item)))
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let end = (self.index + max).min(self.items.len());
        out.extend(self.items[self.index..end].iter().map(Row::borrowed));
        self.index = end;
        Ok(self.index < self.items.len())
    }
}

/// Streams a still-resolving `exec` call: rows are pulled out of the
/// [`PendingSource`] spool as the wrapper call pushes chunks, so the
/// pipeline above combines data while slower sources are still answering.
/// The cursor blocks only when *its own* source is behind; the blocked
/// time is charged to [`PipelineMetrics::source_wait`](super::PipelineMetrics::source_wait).
///
/// Rows are cloned out of the spool (`Arc` bumps), so the cursor owns its
/// rows and several scans of the same deduplicated call can read one
/// spool independently, each with its own index.
///
/// At the execution deadline a blocked wait flips the spool to
/// unavailable; the cursor then surfaces
/// [`RuntimeError::PendingUnavailable`], which the executor catches to
/// fall back to partial evaluation.
pub(crate) struct PendingScanCursor<'a> {
    source: Arc<PendingSource>,
    ctx: PipelineCtx<'a>,
    /// Read index into the spool (rows consumed into `buf`).
    index: usize,
    /// Rows fetched but not yet handed out (feeds `next_row`).
    buf: VecDeque<Value>,
    exhausted: bool,
}

impl<'a> PendingScanCursor<'a> {
    pub(crate) fn new(source: Arc<PendingSource>, ctx: PipelineCtx<'a>) -> Self {
        PendingScanCursor {
            source,
            ctx,
            index: 0,
            buf: VecDeque::new(),
            exhausted: false,
        }
    }

    /// Waits for up to `max` more rows; `None` when the stream completed.
    fn fetch(&mut self, max: usize) -> Result<Option<Vec<Value>>> {
        if self.exhausted {
            return Ok(None);
        }
        let (progress, blocked) = self.source.wait_rows(self.index, max);
        if !blocked.is_zero() {
            self.ctx.metrics.add_source_wait(blocked);
        }
        match progress {
            Progress::Rows(rows) => {
                self.index += rows.len();
                Ok(Some(rows))
            }
            Progress::Done => {
                self.exhausted = true;
                Ok(None)
            }
            Progress::Unavailable => Err(RuntimeError::PendingUnavailable(
                self.source.repository().to_owned(),
            )),
            Progress::Failed(err) => Err(RuntimeError::Wrapper(err)),
            Progress::Panicked(msg) => Err(RuntimeError::WorkerPanic(msg)),
            Progress::SpillError(msg) => Err(RuntimeError::Spill(msg)),
        }
    }
}

impl<'a> RowStream<'a> for PendingScanCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        if let Some(value) = self.buf.pop_front() {
            return Some(Ok(Row::owned(value)));
        }
        match self.fetch(self.ctx.batch_rows) {
            Ok(Some(rows)) => {
                self.buf.extend(rows);
                self.buf.pop_front().map(|value| Ok(Row::owned(value)))
            }
            Ok(None) => None,
            Err(err) => Some(Err(err)),
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        if !self.buf.is_empty() {
            let take = self.buf.len().min(max);
            out.extend(self.buf.drain(..take).map(Row::owned));
            return Ok(true);
        }
        match self.fetch(max)? {
            Some(rows) => {
                out.extend(rows.into_iter().map(Row::owned));
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn ready(&self) -> bool {
        !self.buf.is_empty() || self.exhausted || self.source.ready(self.index)
    }
}

/// A scan over an owned chunk of rows — the parallel engine's morsel unit
/// for *growing* (pending) sources: workers claim chunks as they land in
/// the spool and run their cursor tree over each.
pub(crate) struct ChunkScanCursor {
    rows: Arc<Vec<Value>>,
    index: usize,
}

impl ChunkScanCursor {
    pub(crate) fn new(rows: Arc<Vec<Value>>) -> Self {
        ChunkScanCursor { rows, index: 0 }
    }
}

impl<'a> RowStream<'a> for ChunkScanCursor {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        let value = self.rows.get(self.index)?.clone();
        self.index += 1;
        Some(Ok(Row::owned(value)))
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let end = (self.index + max).min(self.rows.len());
        out.extend(self.rows[self.index..end].iter().cloned().map(Row::owned));
        self.index = end;
        Ok(self.index < self.rows.len())
    }
}

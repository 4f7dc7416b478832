//! Leaf cursors: scans over in-memory bags and over still-streaming
//! pending sources.
//!
//! A pending source is read in one of two ways, decided by what its spool
//! is made of.  An unbudgeted spool is a chain of immutable chunks:
//! [`SpoolReader`] walks it and hands out the **borrowed** chunks — to
//! the fused spine (`columnar::Spine`), which takes them a batch at a
//! time and reads a column-faced chunk's columns in place; to everything
//! that does not fuse (a bare scan under a union, a nested-loop or merge
//! join side) a row at a time through [`SpoolScanCursor`], for which a
//! column-faced chunk builds its rows.  A budgeted spool
//! may evict rows to disk, so nothing can borrow from it:
//! [`PendingScanCursor`] copies rows out through
//! `PendingSource::wait_rows`, and is built for that spool only.  Either
//! way the reader blocks only on *its own* source, through the spool's
//! one wait loop: the deadline flips a still-streaming spool to
//! unavailable, which surfaces as
//! [`RuntimeError::PendingUnavailable`](crate::RuntimeError) and sends the
//! executor to partial evaluation.

use std::collections::VecDeque;
use std::sync::Arc;

use disco_value::{Bag, Value};

use crate::exec::{PendingSource, SpoolChunk};

use super::{PipelineCtx, PipelineMetrics, Result, Row, RowStream};

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
        ScanCursor {
            items: bag.as_slice(),
            index: 0,
        }
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

/// A position in the chunk chain of an unbudgeted spool.  Chunks come
/// out as bags borrowed from the spool — never copied, never locked;
/// for the next one the reader waits through
/// `PendingSource::chunk_after` and charges the time to
/// [`PipelineMetrics::source_wait`].  Several readers of one
/// (deduplicated) call walk the same chain independently.
pub(crate) struct SpoolReader<'a> {
    source: &'a PendingSource,
    /// The chunk handed out last.
    chunk: Option<&'a SpoolChunk>,
    /// Rows handed out over all chunks: the position
    /// [`PendingSource::ready`] is asked about.
    consumed: usize,
    exhausted: bool,
}

impl<'a> SpoolReader<'a> {
    /// A reader at the start of `source`'s chain; `None` when the spool
    /// is budgeted (not a chain).
    pub(crate) fn new(source: &'a PendingSource) -> Option<Self> {
        source.is_chain().then_some(SpoolReader {
            source,
            chunk: None,
            consumed: 0,
            exhausted: false,
        })
    }

    /// The next chunk, as it arrived (rows, or columns a spine reads in
    /// place); `None` once the stream completed.
    ///
    /// # Errors
    ///
    /// Those of `PendingSource::chunk_after`: the source turned out (or
    /// was deadline-classified) unavailable, failed, or panicked.
    pub(crate) fn next_chunk(&mut self, metrics: &PipelineMetrics) -> Result<Option<&'a Bag>> {
        if self.exhausted {
            return Ok(None);
        }
        let (next, blocked) = self.source.chunk_after(self.chunk);
        metrics.add_source_wait(blocked);
        let next = next?;
        match next {
            Some(chunk) => {
                self.chunk = Some(chunk);
                self.consumed += chunk.rows().len();
            }
            None => self.exhausted = true,
        }
        Ok(next.map(SpoolChunk::rows))
    }

    /// Whether [`SpoolReader::next_chunk`] would answer without blocking.
    pub(crate) fn ready(&self) -> bool {
        self.exhausted || self.source.ready(self.consumed)
    }
}

/// Streams a still-resolving `exec` call out of an unbudgeted spool for
/// the consumers that do not fuse: every row is a borrowed frame, exactly
/// as [`ScanCursor`] yields them over a materialized answer.
pub(crate) struct SpoolScanCursor<'a> {
    reader: SpoolReader<'a>,
    /// What is left of the chunk being handed out.
    current: std::slice::Iter<'a, Value>,
    ctx: PipelineCtx<'a>,
}

impl<'a> SpoolScanCursor<'a> {
    pub(crate) fn new(reader: SpoolReader<'a>, ctx: PipelineCtx<'a>) -> Self {
        SpoolScanCursor {
            reader,
            current: [].iter(),
            ctx,
        }
    }
}

impl<'a> RowStream<'a> for SpoolScanCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        super::row_from_batches(self)
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        if self.current.as_slice().is_empty() {
            // This consumer hands rows on: a column-faced chunk becomes
            // rows here.
            match self.reader.next_chunk(self.ctx.metrics)? {
                Some(rows) => self.current = rows.iter(),
                None => return Ok(false),
            }
        }
        out.extend(self.current.by_ref().take(max).map(Row::borrowed));
        Ok(true)
    }

    fn ready(&self) -> bool {
        !self.current.as_slice().is_empty() || self.reader.ready()
    }
}

/// Streams a still-resolving `exec` call out of a **budgeted** spool,
/// whose rows may have moved to its disk tier: rows are copied out
/// (`Arc` bumps) through `PendingSource::wait_rows`, so the cursor owns
/// them.  The cursor blocks only when *its own* source is behind; the
/// blocked time is charged to
/// [`PipelineMetrics::source_wait`](super::PipelineMetrics::source_wait).
/// Several scans of the same deduplicated call read one spool
/// independently, each with its own index.
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
        let rows = progress?;
        match &rows {
            Some(rows) => self.index += rows.len(),
            None => self.exhausted = true,
        }
        Ok(rows)
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

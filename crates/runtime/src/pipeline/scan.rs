//! Leaf cursors: scans over in-memory bags and over still-streaming
//! pending sources.
//!
//! A pending source's spool is a chain of immutable chunks, with or
//! without a memory budget: [`SpoolReader`] walks it and hands out the
//! **borrowed** chunks — to the fused spine (`columnar::Spine`), which
//! takes them a batch at a time and reads a column-faced chunk's columns
//! in place; to everything that does not fuse (a bare scan under a union,
//! a nested-loop or merge join side) as batches of borrowed rows through
//! [`SpoolScanCursor`], for which a column-faced chunk builds its rows.
//! The reader blocks only on *its own* source, through the spool's one
//! wait loop: the deadline flips a still-streaming spool to
//! unavailable, which surfaces as
//! [`RuntimeError::PendingUnavailable`](crate::RuntimeError) and unwinds
//! to the root union branch reading the source (the whole pass under any
//! other root).

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
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let end = (self.index + max).min(self.items.len());
        out.extend(self.items[self.index..end].iter().map(Row::borrowed));
        self.index = end;
        Ok(self.index < self.items.len())
    }
}

/// A position in the chunk chain of a spool.  Chunks come
/// out as bags borrowed from the spool — never copied, never locked;
/// for the next one the reader waits through
/// `PendingSource::chunk_after` and charges the time it parked to
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
    /// A reader at the start of `source`'s chain.
    pub(crate) fn new(source: &'a PendingSource) -> Self {
        SpoolReader {
            source,
            chunk: None,
            consumed: 0,
            exhausted: false,
        }
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

    /// The spool read.
    pub(crate) fn source(&self) -> &'a PendingSource {
        self.source
    }
}

/// Streams a still-resolving `exec` call out of its spool for
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

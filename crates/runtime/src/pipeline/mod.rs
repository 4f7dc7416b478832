//! The streaming operator engine: a pull-based cursor pipeline.
//!
//! The seed evaluator materialized a full [`Bag`] at **every** operator
//! boundary — a deep pipeline paid one intermediate bag per operator, and
//! a hash join constructed every merged output row up front.  This module
//! replaces that with operator-at-a-time execution: a physical plan is
//! opened into a tree of cursors ([`RowStream`]s), and rows are *pulled*
//! through the tree a batch at a time.  Only pipeline breakers ever
//! buffer rows:
//!
//! * the **hash-join build side** (the smaller input, chosen from resolved
//!   cardinalities) and the re-scanned inner of a nested-loop or
//!   merge-tuples join,
//! * **distinct**, which keeps the set of values already emitted,
//! * **aggregates**, which fold their input into one value (O(1) state —
//!   no input bag is ever built),
//! * the **final sink** that turns the root's batches into the answer bag
//!   (it reads the root's batch source, not a cursor, and moves kernel
//!   results into the answer).
//!
//! Everything else — scan, filter, project, map, bind, union, flatten —
//! forwards rows as soon as they are produced, so intermediate state stays
//! bounded no matter how deep the pipeline is.
//!
//! # Lazy join rows
//!
//! A join does not merge its matching rows into an output struct.  It
//! yields a [`Row`] carrying the *frames* of both sides; scalar expressions
//! downstream (a projection, a residual predicate, another join key) are
//! evaluated against a layered [`Env`] built from the frames, so the merged
//! struct is only constructed if an unmerged join row reaches a consumer
//! that genuinely needs a single value (distinct, the final sink).  A
//! `join → project` pipeline therefore never calls `StructValue::merged`
//! at all — the projection reads `x.name` straight out of the frames.
//!
//! [`PipelineMetrics`] counts what actually got buffered
//! ([`PipelineMetrics::rows_materialized`]) and how many join rows had to
//! be merged ([`PipelineMetrics::rows_merged`]), making the streaming
//! claim testable.

mod columnar;
mod filter;
mod join;
mod scan;
mod sink;
pub mod spill;
mod union;

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use disco_algebra::{
    eval_scalar_with, lower, AlgebraError, Env, FanOut, LogicalExpr, PhysicalExpr, ScalarExpr,
};
use disco_value::{Bag, StructValue, Value};

use crate::exec::{ExecOutcome, ResolvedExecs};
use crate::{Result, RuntimeError};

pub use join::BuildSide;
pub use spill::{MemBudget, MemoryBudget};

/// One environment frame of a [`Row`]: a value that is either owned by
/// the pipeline (computed by an operator) or borrowed straight out of the
/// plan's literal data / a resolved source answer.
///
/// The borrowed form is what makes scans free: a scan over a bag yields
/// one pointer per row, and the value is cloned (an `Arc` bump) only if
/// the row survives to a consumer that needs ownership — a join build
/// table, the distinct seen-set, the final sink.  Rows that a filter
/// drops cost nothing at all.
#[derive(Debug, Clone)]
pub enum Frame<'a> {
    /// A value owned by the pipeline.
    Owned(Value),
    /// A value borrowed from plan or resolved-source storage.
    Borrowed(&'a Value),
}

impl<'a> Frame<'a> {
    /// The value behind the frame.
    #[must_use]
    pub fn value(&self) -> &Value {
        match self {
            Frame::Owned(v) => v,
            Frame::Borrowed(v) => v,
        }
    }

    /// Takes ownership: a move for owned frames, an `Arc`-bump clone for
    /// borrowed ones.
    #[must_use]
    pub fn into_value(self) -> Value {
        match self {
            Frame::Owned(v) => v,
            Frame::Borrowed(v) => v.clone(),
        }
    }
}

/// One row flowing through the pipeline.
///
/// Scans produce single (borrowed) values; joins produce *frame
/// sequences* — the environment rows of both sides, stacked left to
/// right, with later frames shadowing earlier ones (exactly the
/// layered-[`Env`] shadowing the evaluator uses).  A frame sequence is
/// merged into one struct only on demand ([`Row::materialize`]); until
/// then, passing a join row to the next operator moves a couple of
/// pointers.
#[derive(Debug, Clone)]
pub enum Row<'a> {
    /// A single value.
    One(Frame<'a>),
    /// A join row of two frames (the overwhelmingly common join shape).
    Two([Frame<'a>; 2]),
    /// A join row of three or more frames (joins over joins).
    Many(Vec<Frame<'a>>),
}

impl<'a> Row<'a> {
    /// A row owning `value`.
    #[must_use]
    pub fn owned(value: Value) -> Row<'a> {
        Row::One(Frame::Owned(value))
    }

    /// A row borrowing `value` from plan or source storage.
    #[must_use]
    pub fn borrowed(value: &'a Value) -> Row<'a> {
        Row::One(Frame::Borrowed(value))
    }

    /// The environment frames of the row, outermost first.
    #[must_use]
    pub fn frames(&self) -> &[Frame<'a>] {
        match self {
            Row::One(f) => std::slice::from_ref(f),
            Row::Two(pair) => pair,
            Row::Many(frames) => frames,
        }
    }

    /// The row's value, when it is a single frame (not a join row).
    /// Borrow-only: no clone happens.
    #[must_use]
    pub fn single_value(&self) -> Option<&Value> {
        match self {
            Row::One(f) => Some(f.value()),
            _ => None,
        }
    }

    /// Consumes the row into its frames.
    fn into_frame_vec(self) -> Vec<Frame<'a>> {
        match self {
            Row::One(f) => vec![f],
            Row::Two([l, r]) => vec![l, r],
            Row::Many(frames) => frames,
        }
    }

    /// Joins two rows into one by concatenating their frames (left frames
    /// first, so right fields shadow left fields downstream).
    #[must_use]
    pub fn joined(left: Row<'a>, right: Row<'a>) -> Row<'a> {
        match (left, right) {
            (Row::One(l), Row::One(r)) => Row::Two([l, r]),
            (l, r) => {
                let mut frames = l.into_frame_vec();
                frames.extend(r.into_frame_vec());
                Row::Many(frames)
            }
        }
    }

    /// Collapses the row into one owned value.
    ///
    /// Single-frame rows are returned as-is (borrowed frames cost one
    /// `Arc` bump); join rows merge their frames left to right (later
    /// frames win on name clashes, mirroring [`StructValue::merged`] and
    /// the environment shadowing).  Each merge is counted in
    /// [`PipelineMetrics::rows_merged`].
    ///
    /// # Errors
    ///
    /// Returns a type error if a join frame is not a struct.
    pub fn materialize(self, metrics: &PipelineMetrics) -> Result<Value> {
        match self {
            Row::One(f) => Ok(f.into_value()),
            row => {
                let frames = row.into_frame_vec();
                let mut iter = frames.iter();
                let first = iter
                    .next()
                    .expect("join rows have at least two frames")
                    .value()
                    .as_struct()
                    .map_err(AlgebraError::from)?;
                let mut acc: StructValue = first.clone();
                for frame in iter {
                    acc = acc.merged(frame.value().as_struct().map_err(AlgebraError::from)?);
                }
                metrics.rows_merged.fetch_add(1, Ordering::Relaxed);
                Ok(Value::Struct(acc))
            }
        }
    }
}

/// Rows per batch — per [`RowStream::next_batch`] pull and per batch a
/// batch source produces from its input: large enough to amortize the
/// per-batch virtual dispatch, small enough that a batch (of `Row`s, of
/// kernel result columns) stays cache-resident.  A join batch can hold
/// more output rows than this (one probe batch fanning out).
pub const BATCH_ROWS: usize = 256;

/// A pull-based cursor over [`Row`]s — the operator interface of the
/// streaming engine.  The lifetime is the plan/resolved-sources borrow
/// rows may point into.
///
/// A cursor has one pull, [`RowStream::next_batch`]: every operator takes
/// its input and hands on its output in batches (of the execution's
/// [`PipelineOptions::batch_rows`]), which amortizes the per-operator
/// virtual call and row move, and is the one place an operator's rows
/// and batches are counted.
pub trait RowStream<'a> {
    /// Whether a pull would make progress *without blocking on a
    /// still-streaming source*.  Cursors over materialized inputs are
    /// always ready; a pending scan reports its spool state, and
    /// streaming transformers (filter, map, bind, project, flatten)
    /// delegate to their input.  Unions use this to pull from whichever
    /// branch has data while slower sources are still answering.
    ///
    /// `true` is always a *safe* answer (the pull may still block); it
    /// only costs overlap, never correctness.
    fn ready(&self) -> bool {
        true
    }

    /// Appends up to `max` rows to `out`.
    ///
    /// Returns `Ok(false)` once the stream is exhausted (no future call
    /// will produce rows).  A `true` return with fewer than `max` rows
    /// appended — even zero, e.g. a filter batch in which nothing matched
    /// — just means "call again".
    ///
    /// # Errors
    ///
    /// Propagates the first row error; the stream should then be dropped.
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool>;
}

/// A boxed cursor borrowing the plan it executes.
pub type BoxedRowStream<'a> = Box<dyn RowStream<'a> + 'a>;

/// A cursor's input pulled a batch at a time and handed out a row at a
/// time, for the operators that do per-row work between pulls: the left
/// side of the nested-loop and merge-tuples joins, and flatten.
pub(crate) struct InputRows<'a> {
    input: BoxedRowStream<'a>,
    batch_rows: usize,
    /// What is left of the batch pulled last.
    batch: std::vec::IntoIter<Row<'a>>,
    /// Whether the input may have more batches.
    pub(crate) more: bool,
}

impl<'a> InputRows<'a> {
    pub(crate) fn new(input: BoxedRowStream<'a>, batch_rows: usize) -> Self {
        InputRows {
            input,
            batch_rows,
            batch: Vec::new().into_iter(),
            more: true,
        }
    }

    /// The next row, pulling the next batch once this one is through; a
    /// batch is pulled whole, so an input error in it comes before any
    /// of its rows.  `None` when the input is exhausted — or still
    /// streaming while the caller has `rows_in_hand`, which go
    /// downstream first.
    pub(crate) fn next(&mut self, rows_in_hand: bool) -> Result<Option<Row<'a>>> {
        loop {
            if let Some(row) = self.batch.next() {
                return Ok(Some(row));
            }
            if !self.more || (rows_in_hand && !self.input.ready()) {
                return Ok(None);
            }
            let mut rows = Vec::with_capacity(self.batch_rows);
            self.more = self.input.next_batch(&mut rows, self.batch_rows)?;
            self.batch = rows.into_iter();
        }
    }

    /// Whether [`InputRows::next`] would answer without blocking on a
    /// still-streaming source.
    pub(crate) fn ready(&self) -> bool {
        !self.batch.as_slice().is_empty() || self.input.ready()
    }
}

/// Counters recording where a pipeline execution actually buffered or
/// merged rows.
///
/// Atomic (relaxed) so every cursor of an execution bumps them through
/// one shared reference.  One `PipelineMetrics` instance tracks one plan
/// execution, including any correlated sub-queries it evaluates;
/// [`PipelineMetrics::merge`] sums the instances of several executions.
#[derive(Debug)]
pub struct PipelineMetrics {
    rows_materialized: AtomicUsize,
    rows_merged: AtomicUsize,
    rows_emitted: AtomicUsize,
    rows_kernel: AtomicUsize,
    rows_fallback: AtomicUsize,
    spines_compiled: AtomicUsize,
    /// Nanoseconds since [`metrics_epoch`] at which the first row reached
    /// a sink through this instance; `u64::MAX` = no row yet.
    first_row_ns: AtomicU64,
    /// Nanoseconds a consumer of this instance spent parked waiting for
    /// a still-streaming source: in a spool's wait loop, or in a union's
    /// or a class spine's sweep that found no input ready.  The
    /// complement of overlap: execution-window time not spent here was
    /// useful combine work.
    source_wait_ns: AtomicU64,
    /// Bytes written to spill runs by memory-budgeted pipeline breakers
    /// (hash-join builds, distinct seen-sets).  Zero under the default
    /// unbounded budget.
    bytes_spilled: AtomicU64,
    /// Grace partitions created by spilling breakers (8 per spill or
    /// re-split).  Zero under the default unbounded budget.
    spill_partitions: AtomicUsize,
    /// High-water mark of budget-tracked breaker bytes (merged by
    /// maximum).
    peak_tracked_bytes: AtomicUsize,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        PipelineMetrics {
            rows_materialized: AtomicUsize::new(0),
            rows_merged: AtomicUsize::new(0),
            rows_emitted: AtomicUsize::new(0),
            rows_kernel: AtomicUsize::new(0),
            rows_fallback: AtomicUsize::new(0),
            spines_compiled: AtomicUsize::new(0),
            first_row_ns: AtomicU64::new(u64::MAX),
            source_wait_ns: AtomicU64::new(0),
            bytes_spilled: AtomicU64::new(0),
            spill_partitions: AtomicUsize::new(0),
            peak_tracked_bytes: AtomicUsize::new(0),
        }
    }
}

/// The process-wide epoch first-row timestamps are measured against
/// (fixed at first use, so offsets from different metrics instances are
/// comparable and `merge` can take a plain minimum).
fn metrics_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[allow(clippy::cast_possible_truncation)]
fn since_epoch_ns() -> u64 {
    metrics_epoch().elapsed().as_nanos() as u64
}

impl PipelineMetrics {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        PipelineMetrics::default()
    }

    /// Adds another instance's counts into `self`: row and byte counts
    /// are exact sums, first-row timestamps merge by minimum, source-wait
    /// times sum (they are per-consumer blocked time, not wall-clock) and
    /// the tracked peak by maximum.
    pub fn merge(&self, other: &PipelineMetrics) {
        self.rows_materialized
            .fetch_add(other.rows_materialized(), Ordering::Relaxed);
        self.rows_merged
            .fetch_add(other.rows_merged(), Ordering::Relaxed);
        self.rows_emitted
            .fetch_add(other.rows_emitted(), Ordering::Relaxed);
        self.rows_kernel
            .fetch_add(other.rows_kernel(), Ordering::Relaxed);
        self.rows_fallback
            .fetch_add(other.rows_fallback(), Ordering::Relaxed);
        self.spines_compiled
            .fetch_add(other.spines_compiled(), Ordering::Relaxed);
        self.first_row_ns.fetch_min(
            other.first_row_ns.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.source_wait_ns.fetch_add(
            other.source_wait_ns.load(Ordering::Relaxed),
            Ordering::Relaxed,
        );
        self.bytes_spilled
            .fetch_add(other.bytes_spilled(), Ordering::Relaxed);
        self.spill_partitions
            .fetch_add(other.spill_partitions(), Ordering::Relaxed);
        self.peak_tracked_bytes
            .fetch_max(other.peak_tracked_bytes(), Ordering::Relaxed);
    }

    /// Rows buffered by pipeline breakers: the hash-join build side (one
    /// per build row, kept as a position in its batch or as a row), the
    /// inner side of a nested-loop or merge-tuples join, and the distinct
    /// seen-set.  Streaming operators never contribute here — that is the
    /// invariant the streaming engine exists for.
    #[must_use]
    pub fn rows_materialized(&self) -> usize {
        self.rows_materialized.load(Ordering::Relaxed)
    }

    /// Join rows whose frames had to be merged into a single struct
    /// (because they reached distinct, a column projection, or the final
    /// sink unprojected).  A `join → map-project` pipeline keeps this at
    /// zero.
    #[must_use]
    pub fn rows_merged(&self) -> usize {
        self.rows_merged.load(Ordering::Relaxed)
    }

    /// Rows delivered to the final sink (the answer size).
    #[must_use]
    pub fn rows_emitted(&self) -> usize {
        self.rows_emitted.load(Ordering::Relaxed)
    }

    /// Rows whose scalar work (filter predicates, map projections) ran
    /// through vectorized columnar kernels.  Together with
    /// [`PipelineMetrics::rows_fallback`] this makes kernel *coverage*
    /// observable: a pipeline the kernel set fully covers reports zero
    /// fallback rows.
    #[must_use]
    pub fn rows_kernel(&self) -> usize {
        self.rows_kernel.load(Ordering::Relaxed)
    }

    /// Rows a columnar stretch had to evaluate through the per-row
    /// [`Env`] path instead — an irregular batch (non-struct rows, missing
    /// fields, mixed types hitting a typed fast path) or a would-be
    /// evaluation error that the row evaluator must report.  Rows outside
    /// any columnar stretch count in neither bucket.
    #[must_use]
    pub fn rows_fallback(&self) -> usize {
        self.rows_fallback.load(Ordering::Relaxed)
    }

    /// Fused spines compiled: one per class of a fan-out, one per join
    /// side, one per other fused stretch.  A fan-out over any number of
    /// sources whose class's template fuses compiles one for the class.
    #[must_use]
    pub fn spines_compiled(&self) -> usize {
        self.spines_compiled.load(Ordering::Relaxed)
    }

    /// When the first row reached a sink, as an elapsed time since
    /// `started` — the *time-to-first-row* of the execution.  `None` when
    /// no row was emitted (empty answers) or `started` is after the first
    /// row.
    #[must_use]
    pub fn time_to_first_row_since(&self, started: Instant) -> Option<Duration> {
        let ns = self.first_row_ns.load(Ordering::Relaxed);
        if ns == u64::MAX {
            return None;
        }
        let at = metrics_epoch() + Duration::from_nanos(ns);
        Some(at.saturating_duration_since(started))
    }

    /// Total time the execution spent parked waiting on still-streaming
    /// sources (zero when every chunk it read was already there).
    #[must_use]
    pub fn source_wait(&self) -> Duration {
        Duration::from_nanos(self.source_wait_ns.load(Ordering::Relaxed))
    }

    /// Bytes written to disk spill runs by memory-budgeted pipeline
    /// breakers.  Always zero under the default unbounded budget.
    #[must_use]
    pub fn bytes_spilled(&self) -> u64 {
        self.bytes_spilled.load(Ordering::Relaxed)
    }

    /// Grace partitions created by spilling breakers (8 per initial spill
    /// and 8 more per recursive re-split).
    #[must_use]
    pub fn spill_partitions(&self) -> usize {
        self.spill_partitions.load(Ordering::Relaxed)
    }

    /// High-water mark of budget-tracked breaker bytes over the
    /// execution.  Zero when the budget is unbounded (nothing is
    /// tracked then).
    #[must_use]
    pub fn peak_tracked_bytes(&self) -> usize {
        self.peak_tracked_bytes.load(Ordering::Relaxed)
    }

    fn note_first_row(&self) {
        // `fetch_min`, like `merge`: a load-then-store pair would let a
        // *later* timestamp overwrite the earlier one.  The clock is read
        // only while no row is noted: a row that finds one noted came
        // after it.
        if self.first_row_ns.load(Ordering::Relaxed) == u64::MAX {
            self.first_row_ns
                .fetch_min(since_epoch_ns(), Ordering::Relaxed);
        }
    }

    pub(crate) fn add_source_wait(&self, blocked: Duration) {
        #[allow(clippy::cast_possible_truncation)]
        self.source_wait_ns
            .fetch_add(blocked.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn bump_materialized(&self) {
        self.rows_materialized.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_emitted(&self, n: usize) {
        if n == 0 {
            return;
        }
        self.rows_emitted.fetch_add(n, Ordering::Relaxed);
        self.note_first_row();
    }

    pub(crate) fn add_kernel(&self, n: usize) {
        if n != 0 {
            self.rows_kernel.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_fallback(&self, n: usize) {
        if n != 0 {
            self.rows_fallback.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn bump_spines_compiled(&self) {
        self.spines_compiled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_bytes_spilled(&self, n: u64) {
        if n != 0 {
            self.bytes_spilled.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_spill_partitions(&self, n: usize) {
        if n != 0 {
            self.spill_partitions.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub(crate) fn note_peak_tracked(&self, bytes: usize) {
        self.peak_tracked_bytes.fetch_max(bytes, Ordering::Relaxed);
    }
}

/// Options steering cursor construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineOptions {
    /// Which hash-join input to buffer as the build side.  `Auto` (the
    /// default) picks the smaller input by estimated cardinality.
    pub build_side: BuildSide,
    /// Ignored: nothing reads it.  Kept only because `perfbench/` still
    /// sets it for `runtime.combine_ms_tn`; goes when a benchmark PR of
    /// its own retires that metric.
    #[doc(hidden)]
    pub threads: usize,
    /// Rows per pipeline batch (and per columnar chunk).  `0` (the
    /// default) means [`BATCH_ROWS`].  Clamped to `1..=1_048_576`.
    pub batch_rows: usize,
    /// Memory budget for pipeline breakers; see [`MemBudget`].  The
    /// default (`Auto`) defers to `DISCO_MEM_BUDGET`, which itself
    /// defaults to unbounded — the pre-spill behavior.
    pub mem_budget: MemBudget,
}

impl PipelineOptions {
    /// The batch/chunk size this execution actually uses, with `0 →`
    /// [`BATCH_ROWS`] applied.  Explicit values above [`MAX_BATCH_ROWS`]
    /// are clamped (warning once per process).
    #[must_use]
    pub fn effective_batch_rows(self) -> usize {
        if self.batch_rows == 0 {
            return BATCH_ROWS;
        }
        if self.batch_rows > MAX_BATCH_ROWS {
            static WARNED: OnceLock<()> = OnceLock::new();
            WARNED.get_or_init(|| {
                eprintln!(
                    "disco: PipelineOptions::batch_rows {} exceeds the maximum; clamping to {}",
                    self.batch_rows, MAX_BATCH_ROWS
                );
            });
        }
        self.batch_rows.clamp(1, MAX_BATCH_ROWS)
    }

    /// The breaker memory budget this execution actually uses, with the
    /// `Auto → environment → unbounded` resolution applied.  `None` means
    /// unbounded (never spill).
    #[must_use]
    pub fn effective_mem_budget(self) -> Option<usize> {
        self.mem_budget.resolve()
    }
}

/// Upper bound on the rows-per-batch knob: chunk row indices are `u32`
/// and anything larger defeats cache-friendly batching anyway.
pub const MAX_BATCH_ROWS: usize = 1 << 20;

/// Shared, `Copy` context threaded through every cursor of one execution.
#[derive(Clone, Copy)]
pub(crate) struct PipelineCtx<'a> {
    pub resolved: &'a ResolvedExecs,
    pub outer: &'a Env<'a>,
    pub metrics: &'a PipelineMetrics,
    pub options: PipelineOptions,
    /// [`PipelineOptions::effective_batch_rows`], resolved once per
    /// evaluation: the rows every cursor, breaker and sink of this
    /// execution pulls per batch.
    pub batch_rows: usize,
    /// The breaker memory budget of this evaluation, shared by every
    /// cursor; allocated once per evaluation from
    /// [`PipelineOptions::effective_mem_budget`].
    pub budget: &'a MemoryBudget,
    /// The fan-out member whose branch is being built: the `exec` of its
    /// class's template is that member's call.
    pub member: Option<(&'a FanOut, usize)>,
}

impl<'a> PipelineCtx<'a> {
    /// The outcome of the call of an `exec` node — under a member's
    /// branch, of the member's.
    pub(crate) fn outcome(
        &self,
        repository: &str,
        extent: &str,
        logical: &LogicalExpr,
    ) -> Option<&'a ExecOutcome> {
        match self.member {
            Some((node, i)) => self.resolved.member_outcome(node, i),
            None => self.resolved.outcome_of(repository, extent, logical),
        }
    }
}

/// The final sink of every pipeline: appends each batch of `source`
/// whole to one vector and wraps it as the answer bag once.  Kernel
/// results are moved out of their vectors; join rows reaching the sink
/// unmerged are materialized here (counted in
/// [`PipelineMetrics::rows_merged`]).  `pulled` learns how many rows each
/// batch delivered, before they are written.
fn write_answer<'a>(
    source: &mut columnar::BatchSource<'a>,
    ctx: PipelineCtx<'a>,
    mut pulled: impl FnMut(&columnar::BatchSource<'a>, usize),
) -> Result<Bag> {
    let mut answer = Vec::new();
    while let Some(batch) = source.next_chunk(ctx.batch_rows)? {
        ctx.metrics.add_emitted(batch.len());
        pulled(source, batch.len());
        batch.append_to(&mut answer, ctx.metrics)?;
    }
    Ok(Bag::from(answer))
}

/// Recursively builds the cursor for one plan node.
pub(crate) fn build<'a>(
    plan: &'a PhysicalExpr,
    ctx: PipelineCtx<'a>,
) -> Result<BoxedRowStream<'a>> {
    // Columnar interception: when a stretch of this subtree fuses into a
    // vectorized kernel pipeline, run it batch-at-a-time.  `None` simply
    // means "not fusable here" — recursion below still intercepts fusable
    // *inner* subtrees (partial fusion).  Breakers exist once and take
    // either input form (`columnar::batch_source`).
    if let Some(cursor) = columnar::try_build(plan, ctx) {
        return Ok(cursor);
    }
    match plan {
        PhysicalExpr::Exec {
            repository,
            extent,
            logical,
            ..
        } => {
            let outcome = ctx.outcome(repository, extent, logical);
            // A template's names are its class's first member's.
            let (repository, extent) = match ctx.member {
                Some((node, i)) => (&*node.members[i].repository, &*node.members[i].extent),
                None => (repository.as_str(), extent.as_str()),
            };
            match outcome {
                Some(ExecOutcome::Rows(rows)) => Ok(Box::new(scan::ScanCursor::new(rows))),
                Some(ExecOutcome::Pending(source)) => Ok(Box::new(scan::SpoolScanCursor::new(
                    scan::SpoolReader::new(source),
                    ctx,
                ))),
                Some(ExecOutcome::Unavailable) => Err(RuntimeError::Unsupported(format!(
                    "exec call to unavailable source {repository} reached the evaluator"
                ))),
                None => Err(RuntimeError::Unsupported(format!(
                    "unresolved exec call to {repository} ({extent})"
                ))),
            }
        }
        PhysicalExpr::MemScan(bag) => Ok(Box::new(scan::ScanCursor::new(bag))),
        PhysicalExpr::FilterOp { input, predicate } => Ok(Box::new(filter::FilterCursor::new(
            build(input, ctx)?,
            predicate,
            ctx,
        ))),
        PhysicalExpr::ProjectOp { input, columns } => Ok(Box::new(filter::ProjectCursor::new(
            build(input, ctx)?,
            columns,
            ctx,
        ))),
        PhysicalExpr::MapOp { input, projection } => Ok(Box::new(filter::MapCursor::new(
            build(input, ctx)?,
            projection,
            ctx,
        ))),
        PhysicalExpr::BindOp { var, input } => Ok(Box::new(filter::BindCursor::new(
            build(input, ctx)?,
            var,
            ctx,
        ))),
        PhysicalExpr::NestedLoopJoin {
            left,
            right,
            predicate,
        } => Ok(Box::new(join::NestedLoopCursor::new(
            build(left, ctx)?,
            build(right, ctx)?,
            predicate.as_ref(),
            ctx,
        ))),
        PhysicalExpr::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let build_on_left = decide_build_side(left, right, ctx);
            let table = join::JoinTable::default();
            let side = |plan, key| -> Result<_> {
                let input = build(plan, ctx)?;
                Ok(join::KeyedSource::rows(input, key, table.state(), ctx))
            };
            let (left, right) = (side(left, left_key)?, side(right, right_key)?);
            let (build, probe) = if build_on_left {
                (left, right)
            } else {
                (right, left)
            };
            let spec = join::PairSpec {
                residual: residual.as_ref(),
                map: None,
                build_on_left,
            };
            Ok(Box::new(join::HashJoin::new(
                build, probe, table, spec, None, ctx,
            )))
        }
        PhysicalExpr::MergeTuplesJoin { left, right, on } => Ok(Box::new(
            join::MergeTuplesCursor::new(build(left, ctx)?, build(right, ctx)?, on, ctx),
        )),
        PhysicalExpr::MkUnion(_) | PhysicalExpr::FanOut(_) => Ok(Box::new(
            columnar::SpineCursor::new(columnar::batch_source(plan, ctx)?),
        )),
        PhysicalExpr::MkFlatten(inner) => {
            Ok(Box::new(union::FlattenCursor::new(build(inner, ctx)?, ctx)))
        }
        PhysicalExpr::MkDistinct(inner) => Ok(Box::new(sink::DistinctCursor::new(
            columnar::batch_source(inner, ctx)?,
            ctx,
        ))),
        PhysicalExpr::MkAggregate { func, input } => Ok(Box::new(sink::AggregateCursor::new(
            columnar::batch_source(input, ctx)?,
            *func,
            ctx,
        ))),
    }
}

/// Picks the hash-join build side for one `HashJoin` node.
///
/// Under `BuildSide::Auto` the join buffers the smaller input by final
/// cardinality ([`estimated_rows`], which awaits pending sources) — the
/// choice an evaluation over materialized outcomes makes, so
/// `rows_materialized` is a function of the data.  Ties and unknowns keep
/// the conventional right-side build.
pub(crate) fn decide_build_side(
    left: &PhysicalExpr,
    right: &PhysicalExpr,
    ctx: PipelineCtx<'_>,
) -> bool {
    match ctx.options.build_side {
        BuildSide::Left => true,
        BuildSide::Right => false,
        BuildSide::Auto => match (estimated_rows(left, ctx), estimated_rows(right, ctx)) {
            (Some(l), Some(r)) => l < r,
            _ => false,
        },
    }
}

/// Static cardinality estimate of a physical plan, from resolved `exec`
/// outcomes and literal bag lengths.
///
/// Filters, projections and distinct report their input size (an upper
/// bound); joins multiply; an unavailable or unresolved source is
/// unknown.  Used to pick the hash-join build side.
///
/// A still-pending source is asked for its final length through
/// [`PendingSource::await_len`](crate::exec::PendingSource), which blocks
/// until the call completes (bounded by the deadline).  Union/branch
/// shapes never ask, so the federated overlap path is unaffected.
fn estimated_rows(plan: &PhysicalExpr, ctx: PipelineCtx<'_>) -> Option<usize> {
    let estimate = |plan: &PhysicalExpr| estimated_rows(plan, ctx);
    match plan {
        PhysicalExpr::MemScan(bag) => Some(bag.len()),
        PhysicalExpr::Exec {
            repository,
            extent,
            logical,
            ..
        } => match ctx.outcome(repository, extent, logical) {
            Some(ExecOutcome::Rows(rows)) => Some(rows.len()),
            Some(ExecOutcome::Pending(source)) => source.await_len(),
            _ => None,
        },
        PhysicalExpr::FilterOp { input, .. }
        | PhysicalExpr::ProjectOp { input, .. }
        | PhysicalExpr::MapOp { input, .. }
        | PhysicalExpr::BindOp { input, .. } => estimate(input),
        PhysicalExpr::MkFlatten(inner) | PhysicalExpr::MkDistinct(inner) => estimate(inner),
        PhysicalExpr::MkUnion(items) => items
            .iter()
            .map(estimate)
            .try_fold(0usize, |acc, n| n.map(|n| acc + n)),
        PhysicalExpr::FanOut(node) => (0..node.members.len())
            .map(|i| {
                let ctx = PipelineCtx {
                    member: Some((node, i)),
                    ..ctx
                };
                estimated_rows(&node.templates[node.members[i].class], ctx)
            })
            .try_fold(0usize, |acc, n| n.map(|n| acc + n)),
        PhysicalExpr::NestedLoopJoin { left, right, .. }
        | PhysicalExpr::HashJoin { left, right, .. }
        | PhysicalExpr::MergeTuplesJoin { left, right, .. } => {
            estimate(left)?.checked_mul(estimate(right)?)
        }
        PhysicalExpr::MkAggregate { .. } => Some(1),
    }
}

/// Evaluates a physical plan through the streaming engine into a bag.
pub(crate) fn evaluate_physical_streamed(
    plan: &PhysicalExpr,
    resolved: &ResolvedExecs,
    outer: &Env<'_>,
    metrics: &PipelineMetrics,
    options: PipelineOptions,
) -> Result<Bag> {
    // One breaker memory budget per top-level evaluation, shared with
    // every nested (correlated sub-query) evaluation below it so that
    // `DISCO_MEM_BUDGET` is a true per-query ceiling.  The default
    // resolves to unbounded, where `charge` is a no-op and nothing below
    // ever spills.
    let budget = spill::MemoryBudget::from_limit(options.effective_mem_budget());
    let result = evaluate_with_budget(plan, resolved, outer, metrics, options, &budget);
    metrics.note_peak_tracked(budget.peak());
    result
}

/// The branches a pass keeps apart, as logical plans: those of a root
/// union of two or more, or a root fan-out's members'.
pub(crate) fn root_branches(plan: &PhysicalExpr) -> Option<Vec<LogicalExpr>> {
    match plan {
        PhysicalExpr::MkUnion(items) if items.len() > 1 => {
            Some(items.iter().map(PhysicalExpr::to_logical).collect())
        }
        PhysicalExpr::FanOut(node) => {
            let branches = (0..node.members.len()).map(|i| node.branch(i).to_logical());
            Some(branches.collect())
        }
        _ => None,
    }
}

/// One run of a pass's answer rows from one branch: the branch, the rows
/// of the answer, and when its first row reached the sink.
pub(crate) type Run = (usize, Range<usize>, Instant);

/// What a pass delivered: the answer rows and, under a root union or
/// fan-out ([`root_branches`]), the branch each run of them came from, as
/// coalesced runs in sink order.
pub(crate) type Pass = (Bag, Vec<Run>);

/// The one pass of an execution.  Under a root union (or fan-out) a
/// source that turns out unavailable unwinds only to the branch (or
/// member) that reads it, which is dropped while the others stream on;
/// under any other root it ends the pass with
/// [`RuntimeError::PendingUnavailable`].
pub(crate) fn evaluate_pass(
    plan: &PhysicalExpr,
    resolved: &ResolvedExecs,
    metrics: &PipelineMetrics,
    options: PipelineOptions,
) -> Result<Pass> {
    let outer = Env::root();
    let budget = spill::MemoryBudget::from_limit(options.effective_mem_budget());
    let ctx = PipelineCtx {
        resolved,
        outer: &outer,
        metrics,
        options,
        batch_rows: options.effective_batch_rows(),
        budget: &budget,
        member: None,
    };
    let root = match plan {
        PhysicalExpr::FanOut(node) => Some(columnar::fan_out_source(node, true, ctx)),
        PhysicalExpr::MkUnion(items) if items.len() > 1 => {
            Some(columnar::union_source(items, true, ctx))
        }
        _ => None,
    };
    let mut runs = Vec::<Run>::new();
    let data = match root {
        Some(source) => source.and_then(|mut source| {
            write_answer(&mut source, ctx, |source, rows| match runs.last_mut() {
                Some((branch, run, _)) if *branch == source.branch() => run.end += rows,
                last if rows > 0 => {
                    let at = last.map_or(0, |(_, run, _)| run.end);
                    runs.push((source.branch(), at..at + rows, Instant::now()));
                }
                _ => {}
            })
        }),
        None => evaluate_with_budget(plan, resolved, &outer, metrics, options, &budget),
    };
    metrics.note_peak_tracked(budget.peak());
    Ok((data?, runs))
}

/// [`evaluate_physical_streamed`] against a caller-owned budget.  Peak
/// tracking is the allocating caller's job — this function only charges.
fn evaluate_with_budget(
    plan: &PhysicalExpr,
    resolved: &ResolvedExecs,
    outer: &Env<'_>,
    metrics: &PipelineMetrics,
    options: PipelineOptions,
    budget: &MemoryBudget,
) -> Result<Bag> {
    // Pass-through roots keep the O(1) bag-adoption fast path the
    // materializing evaluator had: the answer *is* the (shared) bag, so
    // cloning it is one Arc bump instead of an element-by-element copy
    // through the sink.  Partial evaluation leans on this when collapsing
    // an answered `submit` or a `Data` subtree.
    match plan {
        PhysicalExpr::MemScan(bag) => {
            metrics.add_emitted(bag.len());
            return Ok(bag.clone());
        }
        PhysicalExpr::Exec {
            repository,
            extent,
            logical,
            ..
        } => {
            if let Some(ExecOutcome::Rows(rows)) = resolved.outcome_of(repository, extent, logical)
            {
                metrics.add_emitted(rows.len());
                return Ok(rows.clone());
            }
            // Fall through to `build`, which reports the precise
            // unavailable/unresolved error for this node.
        }
        _ => {}
    }
    let ctx = PipelineCtx {
        resolved,
        outer,
        metrics,
        options,
        batch_rows: options.effective_batch_rows(),
        budget,
        member: None,
    };
    write_answer(&mut columnar::batch_source(plan, ctx)?, ctx, |_, _| {})
}

/// Builds the layered environment of a row's frames on top of `outer` and
/// hands it to `f`.
///
/// Continuation-passing because an [`Env`] chains borrowed scopes: each
/// frame's scope lives on this call stack, so the environment can only be
/// used inside the callback.  The one- and two-frame cases (every row
/// except joins-over-joins) are statically dispatched; deeper frame
/// stacks fall back to a dynamic recursion so the compiler does not
/// instantiate a closure type per depth.
pub(crate) fn with_row_env<R>(
    frames: &[Frame<'_>],
    outer: &Env<'_>,
    f: impl FnOnce(&Env<'_>) -> R,
) -> R {
    match frames {
        [] => f(outer),
        [a] => f(&outer.with_value(a.value())),
        [a, b] => {
            let inner = outer.with_value(a.value());
            f(&inner.with_value(b.value()))
        }
        [first, rest @ ..] => {
            let env = outer.with_value(first.value());
            let mut f = Some(f);
            let mut result = None;
            with_row_env_dyn(rest, &env, &mut |env| {
                result = Some(f.take().expect("called once")(env));
            });
            result.expect("callback ran")
        }
    }
}

/// Dynamic-dispatch tail of [`with_row_env`] for 3+ frame rows.
fn with_row_env_dyn(frames: &[Frame<'_>], outer: &Env<'_>, f: &mut dyn FnMut(&Env<'_>)) {
    match frames.split_first() {
        None => f(outer),
        Some((first, rest)) => {
            let env = outer.with_value(first.value());
            with_row_env_dyn(rest, &env, f);
        }
    }
}

/// Evaluates a scalar expression against an environment, resolving
/// aggregate sub-queries through a nested streaming pipeline that shares
/// this execution's metrics.
pub(crate) fn eval_row_scalar(
    expr: &ScalarExpr,
    env: &Env<'_>,
    ctx: PipelineCtx<'_>,
) -> Result<Value> {
    // A source lost under a sub-query unwinds past the scalar evaluator,
    // which only carries evaluation errors, like a loss anywhere else.
    let lost = std::cell::Cell::new(None);
    let callback = |plan: &LogicalExpr, outer: &Env<'_>| {
        // Correlated sub-queries charge the parent execution's shared
        // budget (`ctx.budget`), not a fresh one per evaluation — k
        // nested evaluations under one query share one ceiling.
        lower(plan)
            .map_err(RuntimeError::Algebra)
            .and_then(|physical| {
                evaluate_with_budget(
                    &physical,
                    ctx.resolved,
                    outer,
                    ctx.metrics,
                    ctx.options,
                    ctx.budget,
                )
            })
            .map_err(|e| {
                let message = e.to_string();
                if let RuntimeError::PendingUnavailable(_) = e {
                    lost.set(Some(e));
                }
                AlgebraError::Unsupported(message)
            })
    };
    eval_scalar_with(expr, env, &callback)
        .map_err(|e| lost.take().unwrap_or(RuntimeError::Algebra(e)))
}

/// Evaluates a scalar expression in the environment of a row's frames.
pub(crate) fn eval_in_row(expr: &ScalarExpr, row: &Row<'_>, ctx: PipelineCtx<'_>) -> Result<Value> {
    with_row_env(row.frames(), ctx.outer, |env| {
        eval_row_scalar(expr, env, ctx)
    })
}

/// Evaluates a scalar expression in the environment of a candidate join
/// pair — left frames stacked first, right frames shadowing — **without**
/// constructing the joined row.  Joins use this for predicates and
/// residuals so that only surviving pairs pay for a [`Row::joined`].
pub(crate) fn eval_in_pair(
    expr: &ScalarExpr,
    left: &Row<'_>,
    right: &Row<'_>,
    ctx: PipelineCtx<'_>,
) -> Result<Value> {
    with_row_env(left.frames(), ctx.outer, |lenv| {
        with_row_env(right.frames(), lenv, |env| eval_row_scalar(expr, env, ctx))
    })
}

/// Runs `f` with the context of an unbounded evaluation over no sources —
/// enough for a unit test that drives one cursor by hand.
#[cfg(test)]
pub(crate) fn with_test_ctx<R>(f: impl FnOnce(PipelineCtx<'_>) -> R) -> R {
    let resolved = ResolvedExecs::default();
    let outer = Env::root();
    let metrics = PipelineMetrics::new();
    let budget = MemoryBudget::unbounded();
    let options = PipelineOptions::default();
    f(PipelineCtx {
        resolved: &resolved,
        outer: &outer,
        metrics: &metrics,
        options,
        batch_rows: options.effective_batch_rows(),
        budget: &budget,
        member: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression test: `note_first_row` used to be a load-then-store
    /// pair (`if first_row_ns == MAX { store(now) }`), so two racing
    /// callers could both pass the check and the *later* timestamp would
    /// overwrite the earlier one.  The fix is an unconditional
    /// `fetch_min`; pin that a second, later observation never moves the
    /// timestamp.
    #[test]
    fn note_first_row_keeps_the_earliest_timestamp() {
        let metrics = PipelineMetrics::new();
        assert_eq!(metrics.first_row_ns.load(Ordering::Relaxed), u64::MAX);
        metrics.note_first_row();
        let first = metrics.first_row_ns.load(Ordering::Relaxed);
        assert_ne!(first, u64::MAX);
        std::thread::sleep(Duration::from_millis(2));
        metrics.note_first_row();
        assert_eq!(
            metrics.first_row_ns.load(Ordering::Relaxed),
            first,
            "a later first-row observation must not overwrite the earlier one"
        );
    }

    /// The same property through `merge`: folding in an execution whose
    /// first row landed later must not move an earlier timestamp (and
    /// folding in an earlier one must).
    #[test]
    fn merge_takes_the_minimum_first_row_timestamp() {
        let early = PipelineMetrics::new();
        early.note_first_row();
        let early_ns = early.first_row_ns.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(2));
        let late = PipelineMetrics::new();
        late.note_first_row();

        let merged = PipelineMetrics::new();
        merged.merge(&late);
        merged.merge(&early);
        assert_eq!(merged.first_row_ns.load(Ordering::Relaxed), early_ns);

        // A never-fired instance (`u64::MAX`) must not clobber anything
        // either direction.
        let idle = PipelineMetrics::new();
        merged.merge(&idle);
        assert_eq!(merged.first_row_ns.load(Ordering::Relaxed), early_ns);
    }
}

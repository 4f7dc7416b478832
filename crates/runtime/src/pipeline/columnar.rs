//! Columnar execution of fused pipeline stretches.
//!
//! The row cursors move one `Row` at a time; this module intercepts the
//! shapes the mediator's combine step actually spends its time on — a
//! *spine* of `map? → filter* → bind? → scan` over a fully-materialized
//! input — and runs them batch-at-a-time: the scan decodes one
//! [`ChunkBuilder`] chunk per batch, compiled [`Kernel`]s evaluate the
//! filter predicates and the map projection over whole columns, and a
//! selection vector marks surviving rows instead of copying them.
//! Distinct and aggregate breakers consume the fused spine's batches
//! directly (distinct gets a dictionary-code fast path for string keys).
//!
//! # Fallback rule
//!
//! Columnar execution must be *observably identical* to the row cursors.
//! Three levels guarantee that:
//!
//! * **Fusion** is all-or-nothing per stretch: every filter predicate
//!   (and the map projection, when present) must compile to a kernel,
//!   and the source must be a resolved scan.  Anything else builds row
//!   cursors as before — with fusable *inner* stretches still
//!   intercepted, so partial coverage composes.
//! * **Decoding** is strict: a batch containing a non-struct row or a
//!   row lacking a referenced field refuses to decode, and that batch
//!   runs through the per-row [`Env`](disco_algebra::Env) path (counted
//!   in [`PipelineMetrics::rows_fallback`](super::PipelineMetrics)).
//!   Strictness is what makes kernel column reads equal to environment
//!   lookups: a decoded field is present in every row, so the innermost
//!   scope always wins the lookup.
//! * **Evaluation** never reports an error from a kernel: a would-be
//!   error (division by zero, a type mismatch) bails the batch to the
//!   same per-row path, which reproduces the row engine's exact error at
//!   the exact row.  The per-row fallback applies each operator across
//!   the whole batch before the next operator — the same order the
//!   batched row cursors stack — so even error *ordering* within a batch
//!   matches.
//!
//! Metric invariants: spine operators bump neither `rows_materialized`
//! nor `rows_merged` (just like the row cursors they replace — bind's
//! single-frame materialize is uncounted, and spine rows are never join
//! rows), and the columnar distinct bumps `rows_materialized` exactly
//! once per admitted row.  `rows_kernel`/`rows_fallback` count each
//! scanned row into exactly one bucket.

use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::sync::Arc;

use disco_algebra::{
    kernel::{EvalVec, Kernel, KernelBuilder, PairKernel, PairKernelBuilder},
    truthy, AggKind, AlgebraError, PhysicalExpr, ScalarExpr,
};
use disco_value::{ChunkBuilder, Column, ColumnarChunk, KeyHasher, StrDict, StructValue, Value};

use crate::exec::{ExecKey, ExecOutcome};

use super::join::{check_struct_frames, ColumnarJoinTable};
use super::sink::{AggState, SeenSet};
use super::{decide_build_side, eval_in_row, BoxedRowStream, PipelineCtx, Result, Row, RowStream};

/// Attempts to intercept `plan` with a columnar cursor; `None` means "not
/// fusable here" and the caller builds row cursors (recursing into this
/// function for inner subtrees).
pub(crate) fn try_build<'a>(
    plan: &'a PhysicalExpr,
    ctx: PipelineCtx<'a>,
) -> Option<BoxedRowStream<'a>> {
    match plan {
        // Breakers consume the fused source's batches directly; distinct
        // interns bare-column string keys in its own dictionary so equal
        // keys can be skipped on a dense code bitmap.  Under a bounded
        // memory budget, buffering breakers must go through the row
        // engine's spilling cursors, so the columnar distinct (and the
        // fused join below, via `fuse_source`) decline.
        PhysicalExpr::MkDistinct(inner) => {
            if ctx.budget.is_bounded() {
                return None;
            }
            let source = fuse_source(inner, ctx)?;
            Some(Box::new(ColumnarDistinctCursor::new(source)))
        }
        PhysicalExpr::MkAggregate { func, input } => {
            let source = fuse_source(input, ctx)?;
            Some(Box::new(ColumnarAggregateCursor::new(source, *func)))
        }
        _ => {
            let source = fuse_source(plan, ctx)?;
            Some(Box::new(SpineCursor::new(source)))
        }
    }
}

/// Fuses `plan` into a columnar batch source: a vectorized hash join when
/// the plan is a (possibly mapped) equi-join over fusable sides, else a
/// plain fused spine.
fn fuse_source<'a>(plan: &'a PhysicalExpr, ctx: PipelineCtx<'a>) -> Option<ColumnarSource<'a>> {
    // The fused join buffers its whole build side without budget
    // accounting; a bounded budget routes joins to the row engine's
    // spilling hash-join cursor instead.  Plain spines buffer nothing.
    if !ctx.budget.is_bounded() {
        if let Some(join) = FusedJoin::fuse(plan, ctx) {
            return Some(ColumnarSource::Join(Box::new(join)));
        }
    }
    FusedSpine::fuse(plan, ctx)
        .map(Box::new)
        .map(ColumnarSource::Spine)
}

/// A columnar batch producer: either a fused scan spine or a fused join.
/// Both variants are boxed — the source lives behind a cursor for a whole
/// execution, and the spine alone is a couple hundred bytes.
pub(crate) enum ColumnarSource<'a> {
    Spine(Box<FusedSpine<'a>>),
    Join(Box<FusedJoin<'a>>),
}

impl<'a> ColumnarSource<'a> {
    fn next_chunk(&mut self, hint: usize) -> Result<Option<SpineBatch<'a>>> {
        match self {
            ColumnarSource::Spine(spine) => spine.next_chunk(hint),
            ColumnarSource::Join(join) => join.next_out(hint),
        }
    }

    fn ctx(&self) -> PipelineCtx<'a> {
        match self {
            ColumnarSource::Spine(spine) => spine.ctx,
            ColumnarSource::Join(join) => join.ctx,
        }
    }
}

/// The fusable plan shape: `map? → filter* → bind? → (resolved scan)`.
struct SpineShape<'a> {
    map: Option<&'a ScalarExpr>,
    /// Filter predicates in execution (innermost-first) order.
    filters: Vec<&'a ScalarExpr>,
    binding: Option<&'a str>,
    rows: &'a [Value],
}

/// Peels `map? → filter* → bind?` off `plan`, leaving the source node.
fn peel_ops(
    plan: &PhysicalExpr,
) -> (
    Option<&ScalarExpr>,
    Vec<&ScalarExpr>,
    Option<&str>,
    &PhysicalExpr,
) {
    let mut node = plan;
    let mut map = None;
    if let PhysicalExpr::MapOp { input, projection } = node {
        map = Some(projection);
        node = input;
    }
    let mut filters = Vec::new();
    while let PhysicalExpr::FilterOp { input, predicate } = node {
        filters.push(predicate);
        node = input;
    }
    filters.reverse();
    let mut binding = None;
    if let PhysicalExpr::BindOp { var, input } = node {
        binding = Some(var.as_str());
        node = input;
    }
    (map, filters, binding, node)
}

/// `allow_bare = false` refuses map-less filter-less stretches (bare
/// scans and bind-only stretches have no scalar work to vectorize, and
/// the row path is already optimal for them).  Join sides pass `true`:
/// the join key itself is the scalar work.
fn spine_shape<'a>(
    plan: &'a PhysicalExpr,
    ctx: &PipelineCtx<'a>,
    allow_bare: bool,
) -> Option<SpineShape<'a>> {
    let (map, filters, binding, node) = peel_ops(plan);
    let rows: &'a [Value] = match node {
        PhysicalExpr::MemScan(bag) => bag.as_slice(),
        PhysicalExpr::Exec {
            repository,
            extent,
            logical,
            ..
        } => {
            let key = ExecKey::new(repository, extent, logical);
            match ctx.resolved.outcome(&key) {
                Some(ExecOutcome::Rows(rows)) => rows.as_slice(),
                // Pending spools and unresolved/unavailable sources keep
                // the row path (which reports the precise error).
                _ => return None,
            }
        }
        _ => return None,
    };
    if !allow_bare && map.is_none() && filters.is_empty() {
        return None;
    }
    Some(SpineShape {
        map,
        filters,
        binding,
        rows,
    })
}

/// [`spine_shape`] for a parallel morsel: the stretch must bottom out at
/// the scheduler's partition node (`leaf`, matched by pointer identity,
/// exactly like `PartPipeline::open_node` does), and the rows are the
/// worker's claimed slice instead of the leaf's full extent.
fn partition_shape<'a>(
    plan: &'a PhysicalExpr,
    leaf: &'a PhysicalExpr,
    rows: &'a [Value],
    allow_bare: bool,
) -> Option<SpineShape<'a>> {
    let (map, filters, binding, node) = peel_ops(plan);
    if !std::ptr::eq(node, leaf) {
        return None;
    }
    if !allow_bare && map.is_none() && filters.is_empty() {
        return None;
    }
    Some(SpineShape {
        map,
        filters,
        binding,
        rows,
    })
}

/// Columnar interception for one parallel morsel: fuses the spine stretch
/// from `plan` down to the scheduler's partition `leaf` over the morsel's
/// row slice.  `None` keeps the worker on the row path for this stretch.
pub(crate) fn try_build_partition<'a>(
    plan: &'a PhysicalExpr,
    leaf: &'a PhysicalExpr,
    rows: &'a [Value],
    ctx: PipelineCtx<'a>,
) -> Option<BoxedRowStream<'a>> {
    let shape = partition_shape(plan, leaf, rows, false)?;
    let spine = FusedSpine::from_shape(shape, ctx)?;
    Some(Box::new(SpineCursor::new(ColumnarSource::Spine(Box::new(
        spine,
    )))))
}

/// Columnar interception for a parallel join-build morsel: fuses
/// `filter* → bind? → leaf` over the morsel's slice together with the
/// stage's build key, hashing through a clone of the stage table's
/// `RandomState` so batch-computed hashes agree with the row path's
/// `hash_one` inserts.  `None` keeps the worker's scatter on the row path.
pub(crate) fn keyed_partition<'a>(
    plan: &'a PhysicalExpr,
    leaf: &'a PhysicalExpr,
    rows: &'a [Value],
    key: &'a ScalarExpr,
    state: RandomState,
    ctx: PipelineCtx<'a>,
) -> Option<KeyedSpine<'a>> {
    let shape = partition_shape(plan, leaf, rows, true)?;
    let draft = KeyedSpineDraft::compile(shape, key)?;
    let fields = draft.fields().to_vec();
    Some(draft.finalize(&fields, state, ctx))
}

/// A bare-column map projection, gathered lazily: the projected value is
/// borrowed straight from the surviving source rows, so neither a column
/// decode nor an [`EvalVec`] gather (both of which clone) ever runs.
struct GatherPlan {
    name: Arc<str>,
    /// Positional guess, updated on the fly (rows from one source share
    /// their layout, so after the first row every lookup is one indexed
    /// access plus a name check).
    guess: usize,
}

/// Field lookup with the positional fast path.
fn gather_lookup<'v>(row: &'v StructValue, plan: &mut GatherPlan) -> Option<&'v Value> {
    if let Some((name, value)) = row.field_at(plan.guess) {
        if name == plan.name.as_ref() {
            return Some(value);
        }
    }
    let (index, value) = row.position(plan.name.as_ref())?;
    plan.guess = index;
    Some(value)
}

/// A fused spine: compiled kernels, the chunk decoder, and the original
/// expressions for the per-batch fallback.
pub(crate) struct FusedSpine<'a> {
    rows: &'a [Value],
    pos: usize,
    builder: ChunkBuilder,
    filter_kernels: Vec<Kernel>,
    /// Compound map projections evaluate through this kernel; bare column
    /// reads use `gather` instead (and leave this `None`).
    map_kernel: Option<Kernel>,
    gather: Option<GatherPlan>,
    filter_exprs: Vec<&'a ScalarExpr>,
    map_expr: Option<&'a ScalarExpr>,
    bind_name: Option<Arc<str>>,
    ctx: PipelineCtx<'a>,
}

/// One batch of spine output.
enum SpineBatch<'a> {
    /// Kernel-evaluated map results for `n` surviving rows.
    Mapped(EvalVec, usize),
    /// Bare-column map results borrowed from the surviving source rows.
    Proj(Vec<&'a Value>),
    /// Surviving rows (no map stage, or the per-row fallback ran).
    Rows(Vec<Row<'a>>),
}

impl<'a> FusedSpine<'a> {
    /// Fuses `plan` when its shape matches and every scalar stage
    /// compiles to a kernel.
    fn fuse(plan: &'a PhysicalExpr, ctx: PipelineCtx<'a>) -> Option<FusedSpine<'a>> {
        let shape = spine_shape(plan, &ctx, false)?;
        FusedSpine::from_shape(shape, ctx)
    }

    /// Compiles an already-matched shape into a fused spine.
    fn from_shape(shape: SpineShape<'a>, ctx: PipelineCtx<'a>) -> Option<FusedSpine<'a>> {
        let mut kb = KernelBuilder::new(shape.binding);
        let mut filter_kernels = Vec::with_capacity(shape.filters.len());
        for predicate in &shape.filters {
            filter_kernels.push(kb.compile(predicate)?);
        }
        // Slots allocated so far are referenced by filter kernels and
        // must decode; a slot the map alone reads is gathered lazily and
        // needs no column at all.
        let filter_slots = kb.fields().len();
        let mut map_kernel = None;
        let mut gather = None;
        if let Some(projection) = shape.map {
            let kernel = kb.compile(projection)?;
            match kernel.as_col() {
                Some(slot) => {
                    gather = Some(GatherPlan {
                        name: Arc::clone(&kb.fields()[slot]),
                        guess: 0,
                    });
                }
                None => map_kernel = Some(kernel),
            }
        }
        let decoded_slots = if map_kernel.is_none() {
            filter_slots
        } else {
            kb.fields().len()
        };
        let mut builder = ChunkBuilder::new();
        for field in &kb.fields()[..decoded_slots] {
            builder.add_field(Arc::clone(field));
        }
        Some(FusedSpine {
            rows: shape.rows,
            pos: 0,
            builder,
            filter_kernels,
            map_kernel,
            gather,
            filter_exprs: shape.filters,
            map_expr: shape.map,
            bind_name: shape.binding.map(Arc::from),
            ctx,
        })
    }

    fn done(&self) -> bool {
        self.pos >= self.rows.len()
    }

    /// Produces the next batch of at most `hint` source rows; `None` when
    /// the scan is exhausted.
    fn next_chunk(&mut self, hint: usize) -> Result<Option<SpineBatch<'a>>> {
        if self.done() {
            return Ok(None);
        }
        let rows = self.rows;
        let take = hint
            .clamp(1, super::MAX_BATCH_ROWS)
            .min(rows.len() - self.pos);
        let slice = &rows[self.pos..self.pos + take];
        self.pos += take;
        match self.kernel_chunk(slice)? {
            Some(batch) => Ok(Some(batch)),
            None => {
                self.ctx.metrics.add_fallback(slice.len());
                Ok(Some(SpineBatch::Rows(self.fallback_chunk(slice)?)))
            }
        }
    }

    /// The vectorized path; `Ok(None)` bails the batch to the fallback
    /// (undecodable chunk, or a kernel hit an unsupported combination /
    /// would-be error).
    fn kernel_chunk(&mut self, slice: &'a [Value]) -> Result<Option<SpineBatch<'a>>> {
        let Some(chunk) = self.builder.build(slice) else {
            return Ok(None);
        };
        let len = u32::try_from(slice.len()).expect("chunk size is clamped below u32::MAX");
        let mut sel: Vec<u32> = (0..len).collect();
        for kernel in &self.filter_kernels {
            if sel.is_empty() {
                break;
            }
            let Some(result) = kernel.eval(&chunk, &sel) else {
                return Ok(None);
            };
            let mask = result.truthy_mask(sel.len());
            let mut kept = Vec::with_capacity(sel.len());
            for (i, keep) in mask.into_iter().enumerate() {
                if keep {
                    kept.push(sel[i]);
                }
            }
            sel = kept;
        }
        if let Some(plan) = &mut self.gather {
            // Bare-column map: borrow the field from each surviving row.
            // A survivor that is not a struct or lacks the field bails the
            // whole batch (nothing was emitted or counted yet), and the
            // per-row path reproduces the exact row-engine behaviour.
            let mut out = Vec::with_capacity(sel.len());
            for &i in &sel {
                let Value::Struct(row) = &slice[i as usize] else {
                    return Ok(None);
                };
                let Some(value) = gather_lookup(row, plan) else {
                    return Ok(None);
                };
                out.push(value);
            }
            self.ctx.metrics.add_kernel(slice.len());
            return Ok(Some(SpineBatch::Proj(out)));
        }
        let batch = match &self.map_kernel {
            Some(kernel) => {
                let Some(result) = kernel.eval(&chunk, &sel) else {
                    return Ok(None);
                };
                SpineBatch::Mapped(result, sel.len())
            }
            None => {
                let mut out = Vec::with_capacity(sel.len());
                match &self.bind_name {
                    // Survivors of a bound spine come out as the same
                    // `{var: row}` structs `BindCursor` builds — but only
                    // for survivors, after the filters ran on raw columns.
                    Some(name) => {
                        for &i in &sel {
                            let env_row = StructValue::new(vec![(
                                Arc::clone(name),
                                slice[i as usize].clone(),
                            )])
                            .map_err(AlgebraError::from)?;
                            out.push(Row::owned(Value::Struct(env_row)));
                        }
                    }
                    None => {
                        for &i in &sel {
                            out.push(Row::borrowed(&slice[i as usize]));
                        }
                    }
                }
                SpineBatch::Rows(out)
            }
        };
        self.ctx.metrics.add_kernel(slice.len());
        Ok(Some(batch))
    }

    /// The per-row path for one batch: [`fallback_rows`], then the map
    /// across the surviving rows.
    fn fallback_chunk(&self, slice: &'a [Value]) -> Result<Vec<Row<'a>>> {
        let rows = fallback_rows(slice, self.bind_name.as_ref(), &self.filter_exprs, self.ctx)?;
        rows.into_iter()
            .map(|(_, row)| match self.map_expr {
                Some(projection) => eval_in_row(projection, &row, self.ctx).map(Row::owned),
                None => Ok(row),
            })
            .collect()
    }
}

/// The per-row path for the `filter* → bind?` part of one batch, stacked
/// operator-by-operator across the whole batch (bind across the batch,
/// then each filter across the batch) — exactly how the row cursors'
/// `next_batch` implementations compose, so results, errors and error
/// order match.  Each row keeps its source index into `slice` so callers
/// can recover the raw (pre-bind) value.
fn fallback_rows<'a>(
    slice: &'a [Value],
    bind_name: Option<&Arc<str>>,
    filters: &[&'a ScalarExpr],
    ctx: PipelineCtx<'a>,
) -> Result<Vec<(u32, Row<'a>)>> {
    let mut rows: Vec<(u32, Row<'a>)> = slice
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let i = u32::try_from(i).expect("chunk size is clamped below u32::MAX");
            (i, Row::borrowed(v))
        })
        .collect();
    if let Some(name) = bind_name {
        let mut bound = Vec::with_capacity(rows.len());
        for (i, row) in rows {
            let value = row.materialize(ctx.metrics)?;
            let env_row =
                StructValue::new(vec![(Arc::clone(name), value)]).map_err(AlgebraError::from)?;
            bound.push((i, Row::owned(Value::Struct(env_row))));
        }
        rows = bound;
    }
    for predicate in filters {
        let mut kept = Vec::with_capacity(rows.len());
        for (i, row) in rows {
            if truthy(&eval_in_row(predicate, &row, ctx)?) {
                kept.push((i, row));
            }
        }
        rows = kept;
    }
    Ok(rows)
}

/// A compiled-but-not-finalized keyed spine: filter and key kernels exist
/// and the referenced fields are known, but the chunk layout is still
/// open so a pair-projection kernel can claim extra columns (the probe
/// chunk then serves the filters, the key *and* the output projection
/// from one decode).
pub(crate) struct KeyedSpineDraft<'a> {
    rows: &'a [Value],
    filter_kernels: Vec<Kernel>,
    key_kernel: Kernel,
    key_slot: Option<usize>,
    fields: Vec<Arc<str>>,
    filter_exprs: Vec<&'a ScalarExpr>,
    key_expr: &'a ScalarExpr,
    binding: Option<&'a str>,
}

impl<'a> KeyedSpineDraft<'a> {
    /// Compiles a join side's `filter* → bind? → scan` stretch together
    /// with its key expression.  `None` (a map-bearing side, or any stage
    /// outside the kernel subset) keeps the whole join on the row path.
    fn compile(shape: SpineShape<'a>, key: &'a ScalarExpr) -> Option<Self> {
        if shape.map.is_some() {
            return None;
        }
        let mut kb = KernelBuilder::new(shape.binding);
        let mut filter_kernels = Vec::with_capacity(shape.filters.len());
        for predicate in &shape.filters {
            filter_kernels.push(kb.compile(predicate)?);
        }
        let key_kernel = kb.compile(key)?;
        let key_slot = key_kernel.as_col();
        Some(KeyedSpineDraft {
            rows: shape.rows,
            filter_kernels,
            key_kernel,
            key_slot,
            fields: kb.fields().to_vec(),
            filter_exprs: shape.filters,
            key_expr: key,
            binding: shape.binding,
        })
    }

    fn binding(&self) -> Option<&'a str> {
        self.binding
    }

    /// The fields the filters and key reference, in column-slot order.
    fn fields(&self) -> &[Arc<str>] {
        &self.fields
    }

    /// Freezes the chunk layout (`fields` must extend [`Self::fields`] in
    /// order) and attaches the hash state the key hashes must agree with.
    /// The key's own column decodes dictionary-encoded so repeated string
    /// keys hash once per distinct code.
    fn finalize(
        self,
        fields: &[Arc<str>],
        state: RandomState,
        ctx: PipelineCtx<'a>,
    ) -> KeyedSpine<'a> {
        debug_assert!(fields[..self.fields.len()]
            .iter()
            .zip(&self.fields)
            .all(|(a, b)| a == b));
        let mut builder = ChunkBuilder::new();
        for (i, field) in fields.iter().enumerate() {
            if Some(i) == self.key_slot {
                builder.add_dict_field(Arc::clone(field));
            } else {
                builder.add_field(Arc::clone(field));
            }
        }
        KeyedSpine {
            rows: self.rows,
            pos: 0,
            builder,
            filter_kernels: self.filter_kernels,
            key_kernel: self.key_kernel,
            key_slot: self.key_slot,
            filter_exprs: self.filter_exprs,
            key_expr: self.key_expr,
            bind_name: self.binding.map(Arc::from),
            hasher: KeyHasher::with_state(state),
            ctx,
        }
    }
}

/// A join side fused with its key: `filter* → bind? → scan` plus a
/// vectorized key evaluation whose hashes are bit-identical to
/// `RandomState::hash_one` over the row path's key values.
pub(crate) struct KeyedSpine<'a> {
    rows: &'a [Value],
    pos: usize,
    builder: ChunkBuilder,
    filter_kernels: Vec<Kernel>,
    key_kernel: Kernel,
    /// The key's chunk slot when it is a bare column read — hashed
    /// straight off the (dictionary-coded) column.
    key_slot: Option<usize>,
    filter_exprs: Vec<&'a ScalarExpr>,
    pub(crate) key_expr: &'a ScalarExpr,
    bind_name: Option<Arc<str>>,
    hasher: KeyHasher,
    ctx: PipelineCtx<'a>,
}

/// One batch of keyed spine output.
pub(crate) enum KeyedBatch<'a> {
    /// Vectorized: survivors of the filters with their key values and key
    /// hashes (`keys`/`hashes[j]` belong to chunk row `sel[j]`).
    Kernel {
        slice: &'a [Value],
        chunk: ColumnarChunk,
        sel: Vec<u32>,
        keys: EvalVec,
        hashes: Vec<u64>,
    },
    /// The batch must run per-row (decode failure, mixed-type key column,
    /// or a would-be evaluation error): see [`KeyedSpine::fallback_rows`].
    Fallback { slice: &'a [Value] },
}

impl<'a> KeyedSpine<'a> {
    /// Produces the next batch of at most `hint` source rows (`None` when
    /// exhausted), counting every scanned row into exactly one of
    /// `rows_kernel`/`rows_fallback`.
    pub(crate) fn next_keyed(&mut self, hint: usize) -> Option<KeyedBatch<'a>> {
        if self.pos >= self.rows.len() {
            return None;
        }
        let take = hint
            .clamp(1, super::MAX_BATCH_ROWS)
            .min(self.rows.len() - self.pos);
        let slice = &self.rows[self.pos..self.pos + take];
        self.pos += take;
        match self.kernel_batch(slice) {
            Some(batch) => {
                self.ctx.metrics.add_kernel(slice.len());
                Some(batch)
            }
            None => {
                self.ctx.metrics.add_fallback(slice.len());
                Some(KeyedBatch::Fallback { slice })
            }
        }
    }

    fn kernel_batch(&mut self, slice: &'a [Value]) -> Option<KeyedBatch<'a>> {
        let chunk = self.builder.build(slice)?;
        let len = u32::try_from(slice.len()).expect("chunk size is clamped below u32::MAX");
        let mut sel: Vec<u32> = (0..len).collect();
        for kernel in &self.filter_kernels {
            if sel.is_empty() {
                break;
            }
            let result = kernel.eval(&chunk, &sel)?;
            let mask = result.truthy_mask(sel.len());
            let mut kept = Vec::with_capacity(sel.len());
            for (i, keep) in mask.into_iter().enumerate() {
                if keep {
                    kept.push(sel[i]);
                }
            }
            sel = kept;
        }
        // A mixed-type (or all-null) key column decodes to boxed values;
        // those batches take the exact row path.
        if let Some(slot) = self.key_slot {
            if matches!(chunk.column(slot), Column::Values(_)) {
                return None;
            }
        }
        let keys = self.key_kernel.eval(&chunk, &sel)?;
        let mut hashes = Vec::with_capacity(sel.len());
        match self.key_slot {
            // Bare key column: hash in one pass, reusing one hash per
            // distinct dictionary code for string keys.
            Some(slot) => self
                .hasher
                .hash_column(chunk.column(slot), &sel, &mut hashes),
            None => hash_eval_vec(&self.hasher, &keys, sel.len(), &mut hashes),
        }
        Some(KeyedBatch::Kernel {
            slice,
            chunk,
            sel,
            keys,
            hashes,
        })
    }

    /// The spine's output row for chunk row `i` — exactly what the row
    /// path's cursor chain would hand the join for that source row.
    pub(crate) fn make_row(&self, slice: &'a [Value], i: u32) -> Row<'a> {
        match &self.bind_name {
            Some(name) => Row::owned(Value::Struct(StructValue::from_distinct_fields(vec![(
                Arc::clone(name),
                slice[i as usize].clone(),
            )]))),
            None => Row::borrowed(&slice[i as usize]),
        }
    }

    /// The per-row path for one batch ([`fallback_rows`]).
    pub(crate) fn fallback_rows(&self, slice: &'a [Value]) -> Result<Vec<(u32, Row<'a>)>> {
        fallback_rows(slice, self.bind_name.as_ref(), &self.filter_exprs, self.ctx)
    }
}

/// Hashes a computed key vector; hashes funnel through the same canonical
/// `hash_one` as the row path (a broadcast constant hashes once).
fn hash_eval_vec(hasher: &KeyHasher, keys: &EvalVec, n: usize, out: &mut Vec<u64>) {
    if let EvalVec::Const(v) = keys {
        out.resize(n, hasher.hash_value(v));
        return;
    }
    for i in 0..n {
        out.push(hasher.hash_value(&keys.value_at(i)));
    }
}

/// A vectorized hash join: both sides flow through [`KeyedSpine`]s into /
/// against a [`ColumnarJoinTable`] keyed by batch-computed hashes, and the
/// (optional) fused output projection evaluates per *batch of matched
/// pairs* through a [`PairKernel`] over the probe chunk and a build-side
/// payload chunk — no joined row is ever constructed on the fast path.
///
/// Every bail (undecodable batch, mixed-type keys, would-be errors, a
/// pair projection outside the kernel subset) lands on the exact row
/// path: per-row key evaluation hashed through the same [`RandomState`],
/// per-pair map evaluation over the layered environment — reproducing the
/// row engine's answers, errors and error order.
pub(crate) struct FusedJoin<'a> {
    build: KeyedSpine<'a>,
    probe: KeyedSpine<'a>,
    map_expr: Option<&'a ScalarExpr>,
    /// The fused output projection; disabled (per-pair fallback) when the
    /// payload chunk cannot decode.
    pair_kernel: Option<PairKernel>,
    payload_builder: ChunkBuilder,
    /// Raw build-side source values in table-index order, drained into the
    /// payload chunk once the build completes.
    payload_rows: Vec<Value>,
    payload: Option<ColumnarChunk>,
    /// `true` when the build side is the plan's *left* input; output pairs
    /// are always ordered left-then-right regardless.
    build_on_left: bool,
    table: ColumnarJoinTable<'a>,
    built: bool,
    ctx: PipelineCtx<'a>,
}

impl<'a> FusedJoin<'a> {
    /// Fuses a `map?(hash_join(spine, spine))` plan.  The build side is
    /// chosen exactly as the row engine's `build` does, so
    /// `rows_materialized` (one bump per build row) stays bit-identical.
    fn fuse(plan: &'a PhysicalExpr, ctx: PipelineCtx<'a>) -> Option<FusedJoin<'a>> {
        let (map_expr, join_node) = match plan {
            PhysicalExpr::MapOp { input, projection } => match input.as_ref() {
                join @ PhysicalExpr::HashJoin { .. } => (Some(projection), join),
                _ => return None,
            },
            join @ PhysicalExpr::HashJoin { .. } => (None, join),
            _ => return None,
        };
        let PhysicalExpr::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } = join_node
        else {
            return None;
        };
        if residual.is_some() {
            return None;
        }
        let left_shape = spine_shape(left, &ctx, true)?;
        let right_shape = spine_shape(right, &ctx, true)?;
        let build_on_left = decide_build_side(left, right, ctx.options, ctx.resolved);
        let (build_shape, probe_shape, build_key, probe_key) = if build_on_left {
            (left_shape, right_shape, left_key, right_key)
        } else {
            (right_shape, left_shape, right_key, left_key)
        };
        let build_draft = KeyedSpineDraft::compile(build_shape, build_key)?;
        let probe_draft = KeyedSpineDraft::compile(probe_shape, probe_key)?;
        // Fuse the map over matched pairs when both sides are bound with
        // distinct names and the projection compiles.  The probe side of
        // the pair kernel is seeded with the probe spine's filter/key
        // columns so both kernels share the probe chunk layout; the build
        // side starts empty and claims only the payload columns the
        // projection reads.
        let mut pair_kernel = None;
        let mut payload_builder = ChunkBuilder::new();
        let mut probe_fields = probe_draft.fields().to_vec();
        if let Some(projection) = map_expr {
            let bindings = if build_on_left {
                build_draft.binding().zip(probe_draft.binding())
            } else {
                probe_draft.binding().zip(build_draft.binding())
            };
            if let Some(mut pb) = bindings.and_then(|(l, r)| PairKernelBuilder::new(l, r)) {
                if build_on_left {
                    pb.seed_right(&probe_fields);
                } else {
                    pb.seed_left(&probe_fields);
                }
                if let Some(kernel) = pb.compile(projection) {
                    let (payload_fields, probe_side) = if build_on_left {
                        (pb.left_fields(), pb.right_fields())
                    } else {
                        (pb.right_fields(), pb.left_fields())
                    };
                    for field in payload_fields {
                        payload_builder.add_field(Arc::clone(field));
                    }
                    probe_fields = probe_side.to_vec();
                    pair_kernel = Some(kernel);
                }
            }
        }
        let table = ColumnarJoinTable::new();
        let build_fields = build_draft.fields().to_vec();
        let build = build_draft.finalize(&build_fields, table.state(), ctx);
        let probe = probe_draft.finalize(&probe_fields, table.state(), ctx);
        Some(FusedJoin {
            build,
            probe,
            map_expr,
            pair_kernel,
            payload_builder,
            payload_rows: Vec::new(),
            payload: None,
            build_on_left,
            table,
            built: false,
            ctx,
        })
    }

    /// Drains the build spine into the hash table (one `rows_materialized`
    /// bump per build row, like the row engine's `build_table`), then
    /// freezes the payload chunk.
    fn ensure_built(&mut self) -> Result<()> {
        while let Some(batch) = self.build.next_keyed(self.ctx.batch_rows) {
            match batch {
                // Decoded batches are structs by construction, so the row
                // path's per-row struct-frame check is a proven no-op here.
                KeyedBatch::Kernel {
                    slice,
                    sel,
                    keys,
                    hashes,
                    ..
                } => {
                    for (j, &i) in sel.iter().enumerate() {
                        let row = self.build.make_row(slice, i);
                        self.ctx.metrics.bump_materialized();
                        if self.pair_kernel.is_some() {
                            self.payload_rows.push(slice[i as usize].clone());
                        }
                        self.table.insert(hashes[j], keys.value_at(j), row);
                    }
                }
                KeyedBatch::Fallback { slice } => {
                    for (i, row) in self.build.fallback_rows(slice)? {
                        check_struct_frames(&row)?;
                        let key = eval_in_row(self.build.key_expr, &row, self.ctx)?;
                        let hash = self.table.hash_value(&key);
                        self.ctx.metrics.bump_materialized();
                        if self.pair_kernel.is_some() {
                            self.payload_rows.push(slice[i as usize].clone());
                        }
                        self.table.insert(hash, key, row);
                    }
                }
            }
        }
        if self.pair_kernel.is_some() {
            // An undecodable payload (a build row missing a projected
            // column) permanently drops to per-pair map evaluation, which
            // reports the row engine's exact error for the missing field.
            match self.payload_builder.build(&self.payload_rows) {
                Some(chunk) => self.payload = Some(chunk),
                None => self.pair_kernel = None,
            }
            self.payload_rows = Vec::new();
        }
        Ok(())
    }

    /// The next batch of join output (matched pairs of one probe batch),
    /// probe-major with build-insertion order within a key group — the row
    /// engine's output order.
    fn next_out(&mut self, hint: usize) -> Result<Option<SpineBatch<'a>>> {
        if !self.built {
            self.ensure_built()?;
            self.built = true;
        }
        loop {
            let Some(batch) = self.probe.next_keyed(hint) else {
                return Ok(None);
            };
            match batch {
                KeyedBatch::Kernel {
                    slice,
                    chunk,
                    sel,
                    keys,
                    hashes,
                } => {
                    // Parallel pair-index vectors: pair `p` joins probe
                    // chunk row `probe_sel[p]` with build table row
                    // `build_sel[p]`.
                    let mut probe_sel: Vec<u32> = Vec::new();
                    let mut build_sel: Vec<u32> = Vec::new();
                    for (j, &i) in sel.iter().enumerate() {
                        let key = keys.value_at(j);
                        for &b in self.table.lookup(hashes[j], &key) {
                            probe_sel.push(i);
                            build_sel.push(b);
                        }
                    }
                    if probe_sel.is_empty() {
                        continue;
                    }
                    if let (Some(kernel), Some(payload)) = (&self.pair_kernel, &self.payload) {
                        let result = if self.build_on_left {
                            kernel.eval(payload, &build_sel, &chunk, &probe_sel)
                        } else {
                            kernel.eval(&chunk, &probe_sel, payload, &build_sel)
                        };
                        if let Some(result) = result {
                            return Ok(Some(SpineBatch::Mapped(result, probe_sel.len())));
                        }
                    }
                    // Pair fallback: construct the joined rows (cloning
                    // each probe row once per run of matches) and map them
                    // per pair, reproducing row-engine errors in order.
                    let mut out = Vec::with_capacity(probe_sel.len());
                    let mut current: Option<(u32, Row<'a>)> = None;
                    for (&p, &b) in probe_sel.iter().zip(&build_sel) {
                        let prow = match &current {
                            Some((i, row)) if *i == p => row.clone(),
                            _ => {
                                let row = self.probe.make_row(slice, p);
                                current = Some((p, row.clone()));
                                row
                            }
                        };
                        let brow = self.table.row(b).clone();
                        let joined = if self.build_on_left {
                            Row::joined(brow, prow)
                        } else {
                            Row::joined(prow, brow)
                        };
                        out.push(match self.map_expr {
                            Some(map) => Row::owned(eval_in_row(map, &joined, self.ctx)?),
                            None => joined,
                        });
                    }
                    return Ok(Some(SpineBatch::Rows(out)));
                }
                KeyedBatch::Fallback { slice } => {
                    let mut out = Vec::new();
                    for (_, row) in self.probe.fallback_rows(slice)? {
                        check_struct_frames(&row)?;
                        let key = eval_in_row(self.probe.key_expr, &row, self.ctx)?;
                        for &b in self.table.lookup(self.table.hash_value(&key), &key) {
                            let brow = self.table.row(b).clone();
                            let joined = if self.build_on_left {
                                Row::joined(brow, row.clone())
                            } else {
                                Row::joined(row.clone(), brow)
                            };
                            out.push(match self.map_expr {
                                Some(map) => Row::owned(eval_in_row(map, &joined, self.ctx)?),
                                None => joined,
                            });
                        }
                    }
                    if out.is_empty() {
                        continue;
                    }
                    return Ok(Some(SpineBatch::Rows(out)));
                }
            }
        }
    }
}

/// Queues one spine batch's rows for row-at-a-time consumers.
fn enqueue<'a>(pending: &mut VecDeque<Row<'a>>, batch: SpineBatch<'a>) {
    match batch {
        SpineBatch::Mapped(result, n) => {
            for i in 0..n {
                pending.push_back(Row::owned(result.value_at(i)));
            }
        }
        SpineBatch::Proj(values) => pending.extend(values.into_iter().map(Row::borrowed)),
        SpineBatch::Rows(rows) => pending.extend(rows),
    }
}

/// A fused spine exposed as an ordinary [`RowStream`] — what the rest of
/// the engine (joins, unions, the collect sink) consumes.
pub(crate) struct SpineCursor<'a> {
    source: ColumnarSource<'a>,
    pending: VecDeque<Row<'a>>,
    /// A kernel-mapped batch larger than the consumer's `max` (a join
    /// batch fanning out), served incrementally: `(results, next, len)`.
    /// Rows come straight out of the [`EvalVec`] — no queue round-trip.
    mapped: Option<(EvalVec, usize, usize)>,
}

impl<'a> SpineCursor<'a> {
    fn new(source: ColumnarSource<'a>) -> Self {
        SpineCursor {
            source,
            pending: VecDeque::new(),
            mapped: None,
        }
    }

    /// Serves up to `max` rows from the partially-consumed mapped batch.
    fn drain_mapped(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> bool {
        let Some((result, next, n)) = &mut self.mapped else {
            return false;
        };
        let take = (*n - *next).min(max);
        for i in *next..*next + take {
            out.push(Row::owned(result.value_at(i)));
        }
        *next += take;
        if next >= n {
            self.mapped = None;
        }
        take > 0
    }
}

impl<'a> RowStream<'a> for SpineCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        loop {
            if let Some((result, next, n)) = &mut self.mapped {
                let row = Row::owned(result.value_at(*next));
                *next += 1;
                if next >= n {
                    self.mapped = None;
                }
                return Some(Ok(row));
            }
            if let Some(row) = self.pending.pop_front() {
                return Some(Ok(row));
            }
            match self.source.next_chunk(self.source.ctx().batch_rows) {
                Ok(Some(SpineBatch::Mapped(result, n))) => self.mapped = Some((result, 0, n)),
                Ok(Some(batch)) => enqueue(&mut self.pending, batch),
                Ok(None) => return None,
                Err(err) => return Some(Err(err)),
            }
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        loop {
            if self.drain_mapped(out, max) {
                return Ok(true);
            }
            if !self.pending.is_empty() {
                let take = self.pending.len().min(max);
                out.extend(self.pending.drain(..take));
                return Ok(true);
            }
            // A join batch can hold more than `max` rows (one probe batch
            // fans out to all its matches); the overflow stays in `mapped`
            // / `pending` for the next pull.
            match self.source.next_chunk(max)? {
                Some(SpineBatch::Mapped(result, n)) => {
                    self.mapped = Some((result, 0, n));
                }
                Some(SpineBatch::Proj(values)) => {
                    out.extend(values.into_iter().map(Row::borrowed));
                    return Ok(true);
                }
                Some(SpineBatch::Rows(mut rows)) => {
                    if rows.len() > max {
                        self.pending.extend(rows.drain(max..));
                    }
                    out.extend(rows);
                    return Ok(true);
                }
                None => return Ok(false),
            }
        }
    }
}

/// Distinct over a fused spine.
///
/// Mirrors `DistinctCursor` (one canonical hash per probed row, borrowed
/// duplicate rejection, one `rows_materialized` bump per admitted row)
/// and adds a fast path for bare-column string keys: the cursor interns
/// each key in its own [`StrDict`] (FNV, cheap on the short strings that
/// make up attribute values) and skips repeated codes on a dense
/// `code → seen` bitmap without ever paying the seen-set's canonical
/// `Value` hash.  The bitmap is only ever a shortcut — admission always
/// goes through the shared [`SeenSet`], so gathered, kernel-mapped and
/// fallback batches stay mutually consistent.
pub(crate) struct ColumnarDistinctCursor<'a> {
    source: ColumnarSource<'a>,
    seen: SeenSet,
    dict: StrDict,
    code_seen: Vec<bool>,
    pending: VecDeque<Row<'a>>,
}

impl<'a> ColumnarDistinctCursor<'a> {
    fn new(source: ColumnarSource<'a>) -> Self {
        ColumnarDistinctCursor {
            source,
            seen: SeenSet::default(),
            dict: StrDict::new(),
            code_seen: Vec::new(),
            pending: VecDeque::new(),
        }
    }

    /// Admits an owned candidate value: `None` for duplicates, the output
    /// row (plus the seen-set copy and metrics bump) for new values.
    fn admit_owned(&mut self, value: Value) -> Option<Row<'a>> {
        let hash = self.seen.check(&value)?;
        self.seen.insert_hashed(hash, value.clone());
        self.source.ctx().metrics.bump_materialized();
        Some(Row::owned(value))
    }

    /// Like [`ColumnarDistinctCursor::admit_owned`], but rejects
    /// duplicates on the borrowed value without cloning it.
    fn admit_borrowed(&mut self, value: &Value) -> Option<Row<'a>> {
        let hash = self.seen.check(value)?;
        let value = value.clone();
        self.seen.insert_hashed(hash, value.clone());
        self.source.ctx().metrics.bump_materialized();
        Some(Row::owned(value))
    }

    fn process(&mut self, batch: SpineBatch<'a>) -> Result<()> {
        match batch {
            SpineBatch::Proj(values) => {
                for value in values {
                    if let Value::Str(s) = value {
                        if let Some(code) = self.dict.code(s) {
                            let slot = code as usize;
                            if self.code_seen.get(slot).copied().unwrap_or(false) {
                                continue;
                            }
                            if self.code_seen.len() <= slot {
                                self.code_seen.resize(slot + 1, false);
                            }
                            self.code_seen[slot] = true;
                        }
                        // A full dictionary (or a fresh code) falls
                        // through to the seen-set, which stays the one
                        // source of truth.
                    }
                    if let Some(row) = self.admit_borrowed(value) {
                        self.pending.push_back(row);
                    }
                }
            }
            SpineBatch::Mapped(result, n) => {
                for i in 0..n {
                    if let Some(row) = self.admit_owned(result.value_at(i)) {
                        self.pending.push_back(row);
                    }
                }
            }
            SpineBatch::Rows(rows) => {
                for row in rows {
                    // The exact `DistinctCursor::admit` dance, including
                    // the borrowed duplicate check for single-frame rows.
                    let (hash, value) = if let Some(value) = row.single_value() {
                        let Some(hash) = self.seen.check(value) else {
                            continue;
                        };
                        (hash, row.materialize(self.source.ctx().metrics)?)
                    } else {
                        let value = row.materialize(self.source.ctx().metrics)?;
                        let Some(hash) = self.seen.check(&value) else {
                            continue;
                        };
                        (hash, value)
                    };
                    self.seen.insert_hashed(hash, value.clone());
                    self.source.ctx().metrics.bump_materialized();
                    self.pending.push_back(Row::owned(value));
                }
            }
        }
        Ok(())
    }
}

impl<'a> RowStream<'a> for ColumnarDistinctCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        loop {
            if let Some(row) = self.pending.pop_front() {
                return Some(Ok(row));
            }
            match self.source.next_chunk(self.source.ctx().batch_rows) {
                Ok(Some(batch)) => {
                    if let Err(err) = self.process(batch) {
                        return Some(Err(err));
                    }
                }
                Ok(None) => return None,
                Err(err) => return Some(Err(err)),
            }
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        loop {
            if !self.pending.is_empty() {
                let take = self.pending.len().min(max);
                out.extend(self.pending.drain(..take));
                return Ok(true);
            }
            match self.source.next_chunk(max)? {
                Some(batch) => self.process(batch)?,
                None => return Ok(false),
            }
        }
    }
}

/// Aggregate over a fused spine: folds batch values straight into an
/// [`AggState`] in row order, mirroring the serial `fold_aggregate`
/// (which bumps no metrics).
pub(crate) struct ColumnarAggregateCursor<'a> {
    source: Option<ColumnarSource<'a>>,
    func: AggKind,
}

impl<'a> ColumnarAggregateCursor<'a> {
    fn new(source: ColumnarSource<'a>, func: AggKind) -> Self {
        ColumnarAggregateCursor {
            source: Some(source),
            func,
        }
    }
}

impl<'a> RowStream<'a> for ColumnarAggregateCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        let mut source = self.source.take()?;
        let mut state = AggState::new(self.func);
        let batch_rows = source.ctx().batch_rows;
        loop {
            match source.next_chunk(batch_rows) {
                Ok(Some(SpineBatch::Mapped(result, n))) => {
                    for i in 0..n {
                        if let Err(err) = state.update(&result.value_at(i)) {
                            return Some(Err(err));
                        }
                    }
                }
                Ok(Some(SpineBatch::Proj(values))) => {
                    for value in values {
                        if let Err(err) = state.update(value) {
                            return Some(Err(err));
                        }
                    }
                }
                Ok(Some(SpineBatch::Rows(rows))) => {
                    for row in rows {
                        let merged;
                        let value: &Value = match row.single_value() {
                            Some(value) => value,
                            None => {
                                merged = match row.materialize(source.ctx().metrics) {
                                    Ok(value) => value,
                                    Err(err) => return Some(Err(err)),
                                };
                                &merged
                            }
                        };
                        if let Err(err) = state.update(value) {
                            return Some(Err(err));
                        }
                    }
                }
                Ok(None) => return Some(Ok(Row::owned(state.finish()))),
                Err(err) => return Some(Err(err)),
            }
        }
    }
}

//! Columnar batch producers for fused pipeline stretches.
//!
//! The row cursors move batches of `Row`s; this module intercepts the
//! shapes the mediator's combine step actually spends its time on — a
//! *spine* of `map? → filter* → bind? → (filter | project)* → scan` —
//! and runs them batch-at-a-time: the scan decodes one [`ChunkBuilder`]
//! chunk per batch, compiled [`Kernel`]s evaluate the filter predicates
//! and the tail (a map projection, or a join key with its hashes) over
//! whole columns, and a selection vector marks surviving rows instead of
//! copying them.
//!
//! A spine reads its rows as borrowed slices from the members of its
//! [`Supply`] — one per member of a fan-out's class (the class's
//! template is the stretch it compiles, read off the node), one for any
//! other stretch — each a bag that is all there
//! (literal data, a materialized answer) or a position in the chunk chain
//! of a spool its wrapper call is still filling ([`SpoolReader`]): a row
//! that left the wrapper is stored once and meets the kernels where it
//! lies.  Only a spool can make a spine wait; the wait, the deadline and
//! a source's failure all come through the spool's one wait loop, and
//! [`RowStream::ready`] of everything built on a spine reports whether a
//! member has rows there.  A memory budget changes no member.
//!
//! A slice comes in the form its bag has.  Row values (literal data, a
//! CSV or document wrapper's chunk) are decoded, batch by batch, into the
//! columns the kernels read.  A **column chunk** — a relational wrapper
//! answers with columns of its table's image under a selection, see
//! [`disco_value::BagColumns`] — has them already: the spine maps its
//! slots to the chunk's columns by name, once per chunk, and runs the
//! kernels under the chunk's own selection; nothing is decoded, and no
//! row exists unless the tail hands rows on (a `Rows` tail, a join side
//! whose join asks for its rows) or the batch bails, at which point the
//! bag builds its rows once, for every reader.
//!
//! The operators beneath the bind are what the optimizer leaves at the
//! mediator when a wrapper does not filter or project itself.  They see
//! the raw row (`salary > 139`), those above the bind the bound one
//! (`x.salary`); one [`KernelBuilder`] compiles both, so they share
//! column slots and the one decode.  A `mkproj` there costs nothing per
//! row unless the rows themselves are handed on: see [`Spine`].
//!
//! The module only *produces* batches.  Breaker state lives with the
//! breakers: distinct and aggregate ([`super::sink`]) and the hash join
//! ([`super::join`]) each exist once and consume a [`BatchSource`] (or,
//! for join sides, a keyed spine) when the plan fuses and a row stream
//! when it does not.
//!
//! # Fallback rule
//!
//! Columnar execution must be *observably identical* to the row cursors.
//! Three levels guarantee that:
//!
//! * **Fusion** is all-or-nothing per stretch: every filter predicate
//!   (and the tail expression, when present) must compile to a kernel
//!   and read only what a projection beneath it kept, and the source
//!   must be a scan with a row supply.  Anything else builds row
//!   cursors as before — with fusable *inner* stretches still
//!   intercepted, so partial coverage composes.
//! * **Decoding** is strict: a batch containing a non-struct row or a
//!   row lacking a referenced field refuses to decode — and a column
//!   chunk lacking a referenced field has no chunk to offer — and that
//!   batch runs through the per-row [`Env`](disco_algebra::Env) path
//!   (counted in
//!   [`PipelineMetrics::rows_fallback`](super::PipelineMetrics)).
//!   Strictness is what makes kernel column reads equal to environment
//!   lookups: a decoded field is present in every row, so the innermost
//!   scope always wins the lookup.
//! * **Evaluation** never reports an error from a kernel: a would-be
//!   error (division by zero, an integer overflow, a type mismatch) bails
//!   the batch to the same per-row path, which reproduces the row
//!   engine's exact error at the exact row.  The per-row fallback applies
//!   each operator across the whole batch before the next operator — the
//!   same order the batched row cursors stack — so even error *ordering*
//!   within a batch matches.
//!
//! Metric invariants: spine operators bump neither `rows_materialized`
//! nor `rows_merged` (just like the row cursors they replace — bind's
//! single-frame materialize is uncounted, and spine rows are never join
//! rows).  `rows_kernel`/`rows_fallback` count each scanned row into
//! exactly one bucket.

use std::collections::hash_map::RandomState;
use std::ops::Range;
use std::sync::Arc;

use disco_algebra::{
    kernel::{EvalVec, Kernel, KernelBuilder, PairKernelBuilder},
    truthy, FanOut, PhysicalExpr, ScalarExpr,
};
use disco_value::{
    Bag, BagColumns, ChunkBuilder, Column, ColumnarChunk, KeyHasher, StructValue, Value,
};

use crate::exec::{ExecOutcome, PendingSource, ResolutionEvents};

use super::filter::{bind_value, project_row};
use super::join::{
    check_struct_frames, HashJoin, JoinTable, KeyedRow, KeyedSource, PairPlan, PairSpec,
};
use super::scan::SpoolReader;
use super::union::{Sweep, Union};
use super::{
    build, decide_build_side, eval_in_row, BoxedRowStream, PipelineCtx, PipelineMetrics, Result,
    Row, RowStream,
};
use crate::RuntimeError;

/// Attempts to intercept `plan` with a columnar cursor; `None` means "not
/// fusable here" and the caller builds row cursors (recursing into this
/// function for inner subtrees).
pub(crate) fn try_build<'a>(
    plan: &'a PhysicalExpr,
    ctx: PipelineCtx<'a>,
) -> Option<BoxedRowStream<'a>> {
    let source = fuse_source(plan, ctx)?;
    Some(Box::new(SpineCursor::new(source)))
}

/// The batch input of a breaker over `plan`: columnar when the plan
/// fuses, a union of its branches for `mkunion` ([`union_source`]) and a
/// union of its classes for a fan-out ([`fan_out_source`]), the row
/// cursors' batches otherwise.
pub(crate) fn batch_source<'a>(
    plan: &'a PhysicalExpr,
    ctx: PipelineCtx<'a>,
) -> Result<BatchSource<'a>> {
    match plan {
        PhysicalExpr::MkUnion(items) => return union_source(items, false, ctx),
        PhysicalExpr::FanOut(node) => return fan_out_source(node, false, ctx),
        _ => {}
    }
    match fuse_source(plan, ctx) {
        Some(source) => Ok(source),
        None => Ok(BatchSource::rows(build(plan, ctx)?)),
    }
}

/// The batch source of a `mkunion`: each branch's, as one input of a
/// [`Union`].  A union of one input is that input.
///
/// The `root` union of a pass is as far as a lost source unwinds: the
/// [`Union`] drops the input that reads it, and the other branches stream
/// on.  Each input knows which branch its batches come from
/// ([`BatchSource::branch`]).
pub(crate) fn union_source<'a>(
    items: &'a [PhysicalExpr],
    root: bool,
    ctx: PipelineCtx<'a>,
) -> Result<BatchSource<'a>> {
    let mut inputs = items
        .iter()
        .enumerate()
        .map(|(i, item)| Ok((i, batch_source(item, ctx)?)))
        .collect::<Result<Vec<_>>>()?;
    if inputs.len() == 1 {
        return Ok(inputs.pop().expect("one input").1);
    }
    Ok(BatchSource::Union(Box::new(Union::new(inputs, root, ctx))))
}

/// The batch source of a fan-out: per class, one [`Spine`] compiled from
/// the class's template whose [`Supply`] reads every member's bag or
/// spool, in the place of the class's first member.  A member's call is
/// found by its index.  The members of a class whose template does not
/// fuse, and a member whose source did not answer (the row path reports
/// it), are inputs of their own, each the template's batch source with
/// the member's call beneath.
///
/// The branches are the members: under the `root` fan-out of a pass the
/// [`Union`] drops an input, and a class's [`Supply`] a member, whose
/// source turned out unavailable.
pub(crate) fn fan_out_source<'a>(
    node: &'a FanOut,
    root: bool,
    ctx: PipelineCtx<'a>,
) -> Result<BatchSource<'a>> {
    let mut inputs: Vec<(usize, BatchSource<'a>)> = Vec::new();
    let mut alone: Vec<usize> = Vec::new();
    for (class, template) in node.templates.iter().enumerate() {
        let in_class = || (0..node.members.len()).filter(|&i| node.members[i].class == class);
        let Some((shape, scan)) = spine_shape(template, false) else {
            alone.extend(in_class());
            continue;
        };
        let mut supply: Option<Supply<'a>> = None;
        let unavailable = alone.len();
        for i in in_class() {
            let member_ctx = PipelineCtx {
                member: Some((node, i)),
                ..ctx
            };
            match member_of(scan, &member_ctx) {
                Some(member) => match &mut supply {
                    Some(supply) => supply.push(i, member),
                    None => {
                        let mut first = Supply::new(member, node.members.len() - i, &ctx);
                        (first.root, first.members[0].0) = (root, i);
                        supply = Some(first);
                    }
                },
                None => alone.push(i),
            }
        }
        let Some(supply) = supply else { continue };
        let first = supply.members[0].0;
        match Spine::compile(shape, supply, None, ctx) {
            Some(spine) => inputs.push((first, BatchSource::Spine(Box::new(spine)))),
            None => {
                alone.truncate(unavailable);
                alone.extend(in_class());
            }
        }
    }
    for i in alone {
        let ctx = PipelineCtx {
            member: Some((node, i)),
            ..ctx
        };
        let template = &node.templates[node.members[i].class];
        inputs.push((i, batch_source(template, ctx)?));
    }
    inputs.sort_by_key(|(branch, _)| *branch);
    if inputs.len() == 1 {
        return Ok(inputs.pop().expect("one input").1);
    }
    Ok(BatchSource::Union(Box::new(Union::new(inputs, root, ctx))))
}

/// Fuses `plan` into a columnar batch source: a vectorized hash join when
/// the plan is a (possibly mapped) equi-join over fusable sides, else a
/// plain fused spine.
fn fuse_source<'a>(plan: &'a PhysicalExpr, ctx: PipelineCtx<'a>) -> Option<BatchSource<'a>> {
    if let Some(join) = fuse_join(plan, ctx) {
        return Some(BatchSource::Join(Box::new(join)));
    }
    fuse_spine(plan, 1, ctx)
        .map(Box::new)
        .map(BatchSource::Spine)
}

/// The spine of `plan`'s stretch over the scan beneath it, when the
/// stretch fuses (see [`spine_shape`]) and the scan has a row supply;
/// `members` is how many members the supply may grow to.
fn fuse_spine<'a>(
    plan: &'a PhysicalExpr,
    members: usize,
    ctx: PipelineCtx<'a>,
) -> Option<Spine<'a>> {
    let (shape, scan) = spine_shape(plan, false)?;
    let supply = Supply::new(member_of(scan, &ctx)?, members, &ctx);
    Spine::compile(shape, supply, None, ctx)
}

/// A producer of [`Batch`]es — the input form of every breaker, of the
/// final sink and of [`SpineCursor`].  The columnar variants are boxed: a
/// source lives behind a cursor for a whole execution, and the spine
/// alone is a couple hundred bytes.
pub(crate) enum BatchSource<'a> {
    /// Batches pulled from a row cursor (plans that do not fuse).
    Rows {
        input: BoxedRowStream<'a>,
        done: bool,
    },
    Spine(Box<Spine<'a>>),
    Join(Box<HashJoin<'a>>),
    Union(Box<Union<'a>>),
}

impl<'a> BatchSource<'a> {
    pub(crate) fn rows(input: BoxedRowStream<'a>) -> Self {
        BatchSource::Rows { input, done: false }
    }

    /// Whether the next batch is there without blocking on a
    /// still-streaming source (see [`RowStream::ready`]).
    pub(crate) fn ready(&self) -> bool {
        match self {
            BatchSource::Rows { input, done } => *done || input.ready(),
            BatchSource::Spine(spine) => spine.ready(),
            BatchSource::Join(join) => join.ready(),
            BatchSource::Union(union) => union.ready(),
        }
    }

    /// The branch of a root union the last batch came from, for the
    /// source [`union_source`] made of a root union of two or more
    /// branches, or [`fan_out_source`] of a root fan-out (whose branches
    /// are its members): a union, or the one class spine they all formed.
    pub(crate) fn branch(&self) -> usize {
        match self {
            BatchSource::Spine(spine) => spine.supply.branch(),
            BatchSource::Union(union) => union.branch(),
            BatchSource::Rows { .. } | BatchSource::Join(_) => 0,
        }
    }

    /// The next batch, from at most `hint` input rows (a join batch can
    /// hold fewer or — one probe batch fanning out — more output rows);
    /// `None` when the source is exhausted.
    pub(crate) fn next_chunk(&mut self, hint: usize) -> Result<Option<Batch<'a>>> {
        match self {
            BatchSource::Rows { done: true, .. } => Ok(None),
            BatchSource::Rows { input, done } => {
                let mut rows = Vec::new();
                *done = !input.next_batch(&mut rows, hint)?;
                // An empty last pull is the end, not a batch: a union moves
                // on to its next branch in the same call.
                Ok((!*done || !rows.is_empty()).then(|| Batch::Rows(rows.into_iter())))
            }
            BatchSource::Spine(spine) => spine.next_chunk(hint),
            BatchSource::Join(join) => join.next_out(hint),
            BatchSource::Union(union) => union.next_chunk(hint),
        }
    }
}

/// One batch of rows in whatever form its producer had them; iterating
/// yields [`Row`]s and converts lazily, so a consumer that stops early
/// (a budget trip, a full output batch) keeps the rest as is.
pub(crate) enum Batch<'a> {
    /// Kernel-evaluated values, served from the result vector.
    Mapped(EvalVec, Range<usize>),
    /// Bare-column map results borrowed from the surviving source rows.
    Proj(std::vec::IntoIter<&'a Value>),
    /// Rows (no map stage, a row cursor's batch, or a per-row fallback).
    Rows(std::vec::IntoIter<Row<'a>>),
}

impl Default for Batch<'_> {
    fn default() -> Self {
        Batch::Rows(Vec::new().into_iter())
    }
}

impl<'a> Iterator for Batch<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        match self {
            Batch::Mapped(result, range) => range.next().map(|i| Row::owned(result.value_at(i))),
            Batch::Proj(values) => values.next().map(Row::borrowed),
            Batch::Rows(rows) => rows.next(),
        }
    }
}

impl<'a> Batch<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Batch::Mapped(_, range) => range.len(),
            Batch::Proj(values) => values.len(),
            Batch::Rows(rows) => rows.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the batch's values to `out`, consuming it: kernel results
    /// are moved out of their vector ([`EvalVec::drain_into`]), borrowed
    /// values cloned once, and rows materialized (join rows merged).
    ///
    /// # Errors
    ///
    /// A join row whose frames are not structs ([`Row::materialize`]).
    pub(crate) fn append_to(self, out: &mut Vec<Value>, metrics: &PipelineMetrics) -> Result<()> {
        match self {
            Batch::Mapped(result, range) => result.drain_into(range, out),
            Batch::Proj(values) => out.extend(values.cloned()),
            Batch::Rows(rows) => {
                out.reserve(rows.len());
                for row in rows {
                    out.push(row.materialize(metrics)?);
                }
            }
        }
        Ok(())
    }

    /// Moves up to `max` rows into `out`.  The common case — the whole
    /// batch fits — hands `extend` the owning iterator, whose exact length
    /// makes it one reserve and a tight copy loop.
    fn drain_into(&mut self, out: &mut Vec<Row<'a>>, max: usize) {
        match self {
            Batch::Proj(values) if values.len() <= max => {
                out.extend(std::mem::take(values).map(Row::borrowed));
            }
            Batch::Rows(rows) if rows.len() <= max => out.extend(std::mem::take(rows)),
            Batch::Mapped(result, range) => {
                out.extend(range.take(max).map(|i| Row::owned(result.value_at(i))));
            }
            rest => out.extend(rest.take(max)),
        }
    }
}

/// Where a spine's rows come from: the **members** of its class — one per
/// union branch the spine serves, one for any other stretch — each a bag
/// that is all there (literal data, a materialized answer) or the chunk
/// chain of a spool its wrapper call is still filling, taken a chunk at a
/// time.  Either way the spine gets borrowed [`Slice`]s of one member's
/// bag at a time; only a spool can make it wait.
///
/// The members are served by a rotating sweep over their lock-free
/// readiness hints ([`Sweep`]): the member served last while it is ready,
/// else the first ready one after it, and a park on the resolution's
/// generation only when a full sweep finds none.  With every member ready
/// (materialized inputs) that drains them in branch order.  A member's
/// failure, unavailability or deadline classification surfaces when it
/// is pulled, through its own spool's wait loop — but a root fan-out's
/// class drops a member whose source turned out unavailable, and reads on.
pub(crate) struct Supply<'a> {
    /// The bag — or the spool's current chunk — being read, and how much
    /// of it was handed out.
    bag: Option<&'a Bag>,
    pos: usize,
    /// The members, each with the fan-out member it is (0 off a fan-out).
    members: Vec<(usize, Member<'a>)>,
    /// The member `bag` came from.
    current: usize,
    /// Whether the members are branches of a pass's root fan-out.
    root: bool,
    sweep: Sweep,
    /// Members not yet read to their end.
    live: usize,
    /// The spools unready members wait for, gathered to count them once
    /// each (two branches may read one call).
    waiting: Vec<*const PendingSource>,
    events: Option<&'a ResolutionEvents>,
}

/// One member of a [`Supply`]: the scan beneath one branch.
enum Member<'a> {
    /// A bag that is all there, not yet handed out.
    Bag(&'a Bag),
    /// A still-streaming call's spool.
    Spool(SpoolReader<'a>),
    /// Handed out, or read to its end.
    Done,
}

impl<'a> Member<'a> {
    /// `None` once the member is done, else whether its next bag is there
    /// without blocking.
    fn state(&self) -> Option<bool> {
        match self {
            Member::Bag(_) => Some(true),
            Member::Spool(reader) => Some(reader.ready()),
            Member::Done => None,
        }
    }

    /// The member's next bag; `None` at its end (the member is then done).
    fn next(&mut self, metrics: &super::PipelineMetrics) -> Result<Option<&'a Bag>> {
        let next = match self {
            Member::Bag(bag) => Some(*bag),
            Member::Spool(reader) => reader.next_chunk(metrics)?,
            Member::Done => None,
        };
        if next.is_none() || matches!(self, Member::Bag(_)) {
            *self = Member::Done;
        }
        Ok(next)
    }
}

/// How many distinct spools the members not ready wait for: each has a
/// progress event to come.
fn waiting_sources(
    members: &[(usize, Member<'_>)],
    waiting: &mut Vec<*const PendingSource>,
) -> usize {
    waiting.clear();
    waiting.extend(members.iter().filter_map(|(_, member)| match member {
        Member::Spool(reader) if !reader.ready() => Some(std::ptr::from_ref(reader.source())),
        _ => None,
    }));
    waiting.sort_unstable();
    waiting.dedup();
    waiting.len()
}

/// One batch of a [`Supply`], in the form its bag has.
#[derive(Clone, Copy)]
enum Slice<'a> {
    /// Row values: the spine decodes the columns it reads.
    Rows(&'a [Value]),
    /// Elements `start..end` of a column-faced bag (a relational
    /// wrapper's answer): the kernels read its columns in place, and its
    /// rows are built only if a tail hands rows on (or the batch bails).
    Columns {
        bag: &'a Bag,
        columns: &'a BagColumns,
        start: usize,
        end: usize,
    },
}

impl<'a> Slice<'a> {
    fn len(&self) -> usize {
        match self {
            Slice::Rows(rows) => rows.len(),
            Slice::Columns { start, end, .. } => end - start,
        }
    }

    /// The batch as row values — for a column-faced bag, the point at
    /// which its rows are built.
    fn rows(&self) -> &'a [Value] {
        match *self {
            Slice::Rows(rows) => rows,
            Slice::Columns {
                bag, start, end, ..
            } => &bag.as_slice()[start..end],
        }
    }
}

impl<'a> Supply<'a> {
    /// A supply of `first`, with room for `members` members in all.
    fn new(first: Member<'a>, members: usize, ctx: &PipelineCtx<'a>) -> Self {
        let mut all = Vec::with_capacity(members);
        all.push((0, first));
        Supply {
            bag: None,
            pos: 0,
            members: all,
            current: 0,
            root: false,
            sweep: Sweep::default(),
            live: 1,
            waiting: Vec::new(),
            events: ctx.resolved.events().map(|events| &**events),
        }
    }

    /// Adds a member: union branch `branch`, which joined the class.
    fn push(&mut self, branch: usize, member: Member<'a>) {
        self.members.push((branch, member));
        self.live += 1;
    }

    /// The union branch the slice handed out last belongs to.
    fn branch(&self) -> usize {
        self.members[self.current].0
    }

    /// What is left of the current bag.
    fn at_hand(&self) -> Option<&'a Bag> {
        self.bag.filter(|bag| self.pos < bag.len())
    }

    /// The next at most `max` rows; `None` when every member is exhausted.
    fn next_slice(
        &mut self,
        max: usize,
        metrics: &super::PipelineMetrics,
    ) -> Result<Option<Slice<'a>>> {
        let bag = loop {
            if let Some(bag) = self.at_hand() {
                break bag;
            }
            if self.live == 0 {
                return Ok(None);
            }
            let (members, waiting) = (&self.members, &mut self.waiting);
            let at = self.sweep.pick(
                members.len(),
                |i| members[i].1.state(),
                || waiting_sources(members, waiting),
                self.events,
                metrics,
            );
            let member = &mut self.members[at].1;
            let next = match member.next(metrics) {
                // A root fan-out's member is as far as a lost source
                // unwinds: the member goes, the class reads on.
                Err(RuntimeError::PendingUnavailable(_)) if self.root => {
                    *member = Member::Done;
                    None
                }
                next => next?,
            };
            if matches!(member, Member::Done) {
                self.live -= 1;
            }
            if let Some(bag) = next {
                (self.bag, self.pos, self.current) = (Some(bag), 0, at);
            }
        };
        let (start, end) = (self.pos, (self.pos + max).min(bag.len()));
        self.pos = end;
        Ok(Some(match bag.columns() {
            Some(columns) => Slice::Columns {
                bag,
                columns,
                start,
                end,
            },
            None => Slice::Rows(&bag.as_slice()[start..end]),
        }))
    }

    /// Whether the next slice is there without blocking on a source.
    fn ready(&self) -> bool {
        self.at_hand().is_some()
            || self.live == 0
            || self
                .members
                .iter()
                .any(|(_, member)| member.state() == Some(true))
    }
}

/// An operator beneath the `bind` of a spine: it sees the raw source row.
#[derive(Clone, Copy)]
enum RawOp<'a> {
    Filter(&'a ScalarExpr),
    Project(&'a [String]),
}

/// The fusable plan shape:
/// `map? → filter* → bind? → (filter | project)* → (rows)`.
struct SpineShape<'a> {
    map: Option<&'a ScalarExpr>,
    /// Predicates above the bind, in execution (innermost-first) order.
    filters: Vec<&'a ScalarExpr>,
    binding: Option<&'a str>,
    /// The operators beneath the bind, in execution order: what the
    /// optimizer leaves at the mediator when a wrapper cannot (or is not
    /// asked to) filter and project itself.
    raw: Vec<RawOp<'a>>,
}

/// Peels `map? → filter* → bind? → (filter | project)*` off `plan` and
/// returns it with the node beneath, which must be a scan with a row
/// supply ([`member_of`]) for the stretch to fuse.
///
/// `allow_bare = false` refuses stretches without a map or a filter (bare
/// scans and bind/project-only stretches have no scalar work to
/// vectorize, and the row path is already optimal for them).  Join sides
/// pass `true`: the join key itself is the scalar work.
fn spine_shape(plan: &PhysicalExpr, allow_bare: bool) -> Option<(SpineShape<'_>, &PhysicalExpr)> {
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
    let mut raw = Vec::new();
    loop {
        node = match node {
            PhysicalExpr::FilterOp { input, predicate } => {
                raw.push(RawOp::Filter(predicate));
                input
            }
            PhysicalExpr::ProjectOp { input, columns } => {
                raw.push(RawOp::Project(columns));
                input
            }
            _ => break,
        };
    }
    raw.reverse();
    let filtered = !filters.is_empty() || raw.iter().any(|op| matches!(op, RawOp::Filter(_)));
    if !allow_bare && map.is_none() && !filtered {
        return None;
    }
    let shape = SpineShape {
        map,
        filters,
        binding,
        raw,
    };
    Some((shape, node))
}

/// The supply member of a scan node: the rows of literal data or of a
/// materialized answer, or the chunk chain of a still-streaming call.
/// Unresolved and unavailable sources keep the row path (which reports
/// the precise error).
fn member_of<'a>(node: &'a PhysicalExpr, ctx: &PipelineCtx<'a>) -> Option<Member<'a>> {
    match node {
        PhysicalExpr::MemScan(bag) => Some(Member::Bag(bag)),
        PhysicalExpr::Exec {
            repository,
            extent,
            logical,
            ..
        } => match ctx.outcome(repository, extent, logical)? {
            ExecOutcome::Rows(rows) => Some(Member::Bag(rows)),
            ExecOutcome::Pending(source) => Some(Member::Spool(SpoolReader::new(source))),
            ExecOutcome::Unavailable => None,
        },
        _ => None,
    }
}

/// Whether the projection a stretch's rows were narrowed by (if any) kept
/// `field`.
fn kept(narrowed: Option<&[String]>, field: &str) -> bool {
    narrowed.is_none_or(|columns| columns.iter().any(|c| c == field))
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

/// What a spine does with the rows that survive its filters.
enum Tail<'a> {
    /// Nothing: the rows themselves come out (bound, when the spine
    /// binds).
    Rows,
    /// A compound map projection, evaluated through its kernel.
    Map(&'a ScalarExpr, Kernel),
    /// A bare-column map projection: borrowed from the source rows where
    /// those are rows, read off the column (the kernel, a bare column
    /// read) where they are columns already.
    Gather(&'a ScalarExpr, GatherPlan, Kernel),
    /// A join key: the key kernel and the hasher whose hashes are
    /// bit-identical to `RandomState::hash_one` over the row path's key
    /// values.  `slot` is the key's chunk slot when it is a bare column
    /// read — hashed straight off the (dictionary-coded) column.
    Key {
        expr: &'a ScalarExpr,
        kernel: Kernel,
        slot: Option<usize>,
        hasher: KeyHasher,
    },
}

/// A fused spine: the row supply, the chunk decoder, the compiled filter
/// kernels, the tail, and the original operators for the per-batch
/// fallback.
pub(crate) struct Spine<'a> {
    supply: Supply<'a>,
    /// Decodes a batch of row values: the leading `fields`, less a slot
    /// that only a gathered projection reads (it is borrowed from the
    /// rows instead; a column-faced batch has every column there anyway).
    builder: ChunkBuilder,
    /// The fields the kernels read, in column-slot order.
    fields: Vec<Arc<str>>,
    /// The column-faced bag being read and `fields` of it as a chunk —
    /// slots mapped by name once per bag (bags of a class's members
    /// differ, and each is mapped as it comes), `None` when it lacks a
    /// field the stretch reads (its batches then run per row).  The
    /// kernels read the chunk where it lies.
    mapped: Option<(&'a Bag, Option<ColumnarChunk>)>,
    /// The selection vector of the last batch, kept for the next one.
    spare_sel: Vec<u32>,
    /// Every filter predicate of the stretch — beneath the bind and above
    /// it alike: both read columns of the one decoded chunk — in
    /// execution order.
    kernels: Vec<Kernel>,
    /// The operators beneath the bind, for the per-batch fallback.
    raw: Vec<RawOp<'a>>,
    /// The predicates above the bind, for the per-batch fallback.
    filters: Vec<&'a ScalarExpr>,
    /// What a surviving source row is handed on as.
    shape: RowShape<'a>,
    /// Projected columns no kernel decodes: checked for presence in
    /// every row of a batch, so that a row lacking one bails the batch to
    /// the row path, which reports it.
    required: Vec<GatherPlan>,
    tail: Tail<'a>,
    ctx: PipelineCtx<'a>,
}

/// How a spine hands on a surviving source row: narrowed as
/// `ProjectCursor` narrows it, inside the `{var: row}` struct
/// `BindCursor` builds.
#[derive(Clone)]
pub(crate) struct RowShape<'a> {
    /// The columns a `mkproj` beneath the bind narrows rows to (the
    /// outermost one's, when several stack).  Kernels, a gathered column
    /// and a key read the source row whatever it is narrowed to — the
    /// stretch only fuses when they read nothing else — so the projected
    /// struct is built for the rows a `Rows` tail or a join table asks
    /// for, and for no other.
    narrowed: Option<&'a [String]>,
    bind_name: Option<Arc<str>>,
    metrics: &'a PipelineMetrics,
}

impl<'a> RowShape<'a> {
    /// The row the row path's cursor chain would hand on for `source`, a
    /// surviving row of a batch that decoded.  Such a row is a struct
    /// holding every projected column, so the row path's errors, returned
    /// here, do not arise.
    fn make_row(&self, source: &'a Value) -> Result<Row<'a>> {
        let row = match self.narrowed {
            None => Row::borrowed(source),
            Some(columns) => project_row(Row::borrowed(source), columns, self.metrics)?,
        };
        Ok(match (&self.bind_name, row) {
            (Some(name), Row::One(frame)) => bind_value(name, frame.into_value()),
            (_, row) => row,
        })
    }
}

/// Where the row values of a batch's survivors are (`sel[j]` being the
/// chunk row of survivor `j`).
pub(crate) enum RowsOf<'a> {
    /// Decoded from row values: chunk row `i` is `slice[i]`.
    Slice(&'a [Value]),
    /// Read off a column-faced bag: survivor `j` is its element `at[j]` —
    /// as a row value built with the bag's other rows, the first time a
    /// tail that hands rows on asks for one.
    Bag { bag: &'a Bag, at: Vec<u32> },
}

impl<'a> RowsOf<'a> {
    fn get(&self, j: usize, sel: &[u32]) -> &'a Value {
        match self {
            RowsOf::Slice(slice) => &slice[sel[j] as usize],
            RowsOf::Bag { bag, at } => &bag.as_slice()[at[j] as usize],
        }
    }
}

/// A batch through the filter kernels: its surviving rows and where their
/// row values are.  The chunk is `decoded` for a batch of row values; a
/// column-faced batch's is the spine's `mapped` one ([`chunk_of`]).
struct Selected<'a> {
    decoded: Option<ColumnarChunk>,
    sel: Vec<u32>,
    rows: RowsOf<'a>,
}

/// The chunk the kernels evaluate a batch over: the one `decoded` for
/// it, or the spine's `mapped` one.
fn chunk_of<'s>(
    mapped: &'s Option<(&Bag, Option<ColumnarChunk>)>,
    decoded: &'s Option<ColumnarChunk>,
) -> &'s ColumnarChunk {
    decoded
        .as_ref()
        .or_else(|| mapped.as_ref()?.1.as_ref())
        .expect("a column-faced batch selects over a mapped chunk")
}

/// The survivors of one vectorized join-side batch, by position:
/// survivor `j` is chunk row `sel[j]`, and its row value is in `rows`.
/// Its output row is made only when somebody asks for it.
pub(crate) struct Positions<'a> {
    rows: RowsOf<'a>,
    pub(crate) chunk: ColumnarChunk,
    pub(crate) sel: Vec<u32>,
    shape: RowShape<'a>,
}

impl<'a> Positions<'a> {
    pub(crate) fn len(&self) -> usize {
        self.sel.len()
    }

    /// Survivor `j`'s output row, as the spine hands rows on.  It reads
    /// `rows` and `sel` only: the chunk may be dropped.
    pub(crate) fn row(&self, j: usize) -> Result<Row<'a>> {
        self.shape.make_row(self.rows.get(j, &self.sel))
    }

    /// Rough bytes of the chunk the batch holds: all of one decoded for
    /// it; of a column-faced bag's own columns, the survivors' rows (what
    /// they take in a gathered payload).
    pub(crate) fn chunk_bytes(&self) -> usize {
        let rows = match self.rows {
            RowsOf::Slice(_) => self.chunk.len(),
            RowsOf::Bag { .. } => self.len(),
        };
        self.chunk.approx_bytes(rows)
    }

    /// Rough bytes of the batch: [`Self::chunk_bytes`] and two positions
    /// a survivor.
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.chunk_bytes() + self.len() * 8
    }
}

/// One batch of keyed spine output.
pub(crate) enum KeyedBatch<'a> {
    /// Vectorized: survivors of the filters with their key values and key
    /// hashes (`keys`/`hashes[j]` belong to survivor `j`).
    Kernel {
        at: Positions<'a>,
        keys: EvalVec,
        hashes: Vec<u64>,
    },
    /// The batch ran per row (decode failure, mixed-type key column, or a
    /// would-be evaluation error).
    Rows(Vec<KeyedRow<'a>>),
}

impl<'a> KeyedBatch<'a> {
    /// The batch as `(hash, key, row)` triples.  Decoded batches are
    /// structs by construction, so the row path's per-row struct-frame
    /// check is a proven no-op for them.
    pub(crate) fn into_rows(self) -> Result<Vec<KeyedRow<'a>>> {
        match self {
            KeyedBatch::Rows(rows) => Ok(rows),
            KeyedBatch::Kernel { at, keys, hashes } => (0..at.len())
                .map(|j| Ok((hashes[j], keys.value_at(j), at.row(j)?)))
                .collect(),
        }
    }
}

impl<'a> Spine<'a> {
    /// Compiles a matched shape over `supply` when every scalar stage
    /// compiles to a kernel — which depends on the shape only, so one
    /// compilation serves every member of a class.  With `key` the spine
    /// is a join side (which cannot also carry a map) whose hashes go
    /// through the given table state.
    ///
    /// The operators beneath the bind compile with the builder unbound
    /// (`salary > 139`), those above it with the binding (`x.salary`),
    /// into one builder: column slots — and the one chunk decode per
    /// batch — are shared.  A `mkproj` compiles to nothing; it narrows
    /// what everything after it may read, and a stretch in which
    /// something reads more does not fuse (the row path reports the
    /// missing attribute).
    fn compile(
        shape: SpineShape<'a>,
        supply: Supply<'a>,
        key: Option<(&'a ScalarExpr, RandomState)>,
        ctx: PipelineCtx<'a>,
    ) -> Option<Spine<'a>> {
        let mut kb = KernelBuilder::new(None);
        let mut kernels = Vec::new();
        // The innermost and the outermost projection beneath the bind.
        let mut widest: Option<&'a [String]> = None;
        let mut narrowed: Option<&'a [String]> = None;
        // A kernel for `expr`, if it reads only what `narrowed` kept.
        let compile = |kb: &mut KernelBuilder, expr, narrowed: Option<&[String]>| {
            let kernel = kb.compile(expr)?;
            let reads = narrowed.map_or(Vec::new(), |_| kernel.columns());
            reads
                .iter()
                .all(|&slot| kept(narrowed, &kb.fields()[slot]))
                .then_some(kernel)
        };
        for op in &shape.raw {
            match *op {
                RawOp::Filter(predicate) => kernels.push(compile(&mut kb, predicate, narrowed)?),
                RawOp::Project(columns) => {
                    // Repeated or (after an earlier projection) absent
                    // columns fail every row on the row path.
                    let distinct = (0..columns.len()).all(|i| !columns[..i].contains(&columns[i]));
                    let present = columns.iter().all(|c| kept(narrowed, c));
                    if !distinct || !present {
                        return None;
                    }
                    widest = widest.or(Some(columns));
                    narrowed = Some(columns);
                }
            }
        }
        kb.rebind(shape.binding);
        for predicate in &shape.filters {
            kernels.push(compile(&mut kb, predicate, narrowed)?);
        }
        // Slots the filters and a kernel tail read must decode; a slot a
        // gathered projection alone reads needs no column at all.
        let mut decoded = kb.fields().len();
        let tail = match (shape.map, key) {
            (Some(_), Some(_)) => return None,
            (None, None) => Tail::Rows,
            (Some(projection), None) => {
                let kernel = compile(&mut kb, projection, narrowed)?;
                match kernel.as_col() {
                    Some(slot) => Tail::Gather(
                        projection,
                        GatherPlan {
                            name: Arc::clone(&kb.fields()[slot]),
                            guess: 0,
                        },
                        kernel,
                    ),
                    None => {
                        decoded = kb.fields().len();
                        Tail::Map(projection, kernel)
                    }
                }
            }
            (None, Some((expr, state))) => {
                let kernel = compile(&mut kb, expr, narrowed)?;
                decoded = kb.fields().len();
                Tail::Key {
                    expr,
                    slot: kernel.as_col(),
                    kernel,
                    hasher: KeyHasher::with_state(state),
                }
            }
        };
        let required = widest
            .unwrap_or_default()
            .iter()
            .filter(|column| !kb.fields()[..decoded].iter().any(|f| **f == ***column))
            .map(|column| GatherPlan {
                name: Arc::from(column.as_str()),
                guess: 0,
            })
            .collect();
        let mut spine = Spine {
            supply,
            builder: ChunkBuilder::new(),
            fields: Vec::new(),
            mapped: None,
            spare_sel: Vec::new(),
            kernels,
            raw: shape.raw,
            filters: shape.filters,
            shape: RowShape {
                narrowed,
                bind_name: shape.binding.map(Arc::from),
                metrics: ctx.metrics,
            },
            required,
            tail,
            ctx,
        };
        spine.set_layout(kb.fields(), decoded);
        ctx.metrics.bump_spines_compiled();
        Some(spine)
    }

    /// Whether a consumer that sees this spine's rows (a pair projection
    /// over a join) may read `fields` of them: nothing beneath the bind
    /// projected them away.
    fn exposes(&self, fields: &[Arc<str>]) -> bool {
        fields.iter().all(|field| kept(self.shape.narrowed, field))
    }

    /// Whether the next batch is there without blocking on a source.
    pub(crate) fn ready(&self) -> bool {
        self.supply.ready()
    }

    /// Whether this is a class spine of a pass's root fan-out, whose
    /// members are the branches.
    pub(crate) fn serves_members(&self) -> bool {
        self.supply.root
    }

    /// Fixes the chunk layout: the fields behind the kernels' slots, the
    /// first `decoded` of which a batch of row values is decoded for.  A
    /// join side's probe chunk may be asked to decode extra columns so
    /// one decode serves the filters, the key *and* a pair projection
    /// (`fields` must then extend the current layout in order).  The
    /// key's own column decodes dictionary-encoded so repeated string
    /// keys hash once per distinct code.
    fn set_layout(&mut self, fields: &[Arc<str>], decoded: usize) {
        debug_assert!(fields.starts_with(&self.fields));
        let key_slot = match &self.tail {
            Tail::Key { slot, .. } => *slot,
            _ => None,
        };
        self.builder = ChunkBuilder::new();
        for (i, field) in fields[..decoded].iter().enumerate() {
            if Some(i) == key_slot {
                self.builder.add_dict_field(Arc::clone(field));
            } else {
                self.builder.add_field(Arc::clone(field));
            }
        }
        self.fields = fields.to_vec();
        self.mapped = None;
    }

    /// The next at most `hint` source rows; `None` when the scan is
    /// exhausted.  Over a still-streaming source this is where the spine
    /// waits (and where the source's failure or its deadline surfaces).
    fn next_slice(&mut self, hint: usize) -> Result<Option<Slice<'a>>> {
        self.supply
            .next_slice(hint.clamp(1, super::MAX_BATCH_ROWS), self.ctx.metrics)
    }

    /// Maps `fields` of a column-faced bag as the kernels' chunk (its own
    /// columns, slots mapped by name once per bag) into `mapped`; `false`
    /// when the bag lacks a field the stretch reads or a `mkproj` beneath
    /// the bind keeps — the row path's to miss.
    fn map_columns(&mut self, bag: &'a Bag, columns: &BagColumns) -> bool {
        if !self
            .mapped
            .as_ref()
            .is_some_and(|(mapped, _)| std::ptr::eq(*mapped, bag))
        {
            let kept = self
                .required
                .iter()
                .all(|column| columns.slot_of(&column.name).is_some());
            let chunk = columns.chunk(&self.fields).filter(|_| kept);
            self.mapped = Some((bag, chunk));
        }
        self.mapped
            .as_ref()
            .is_some_and(|(_, chunk)| chunk.is_some())
    }

    /// The chunk of `slice` — decoded from row values, or the columns a
    /// column-faced bag has already — and its rows narrowed through the
    /// filter kernels.  `None` bails the batch to the per-row path
    /// (undecodable chunk, a row a projection cannot be taken of, or a
    /// kernel hit an unsupported combination / would-be error).
    fn select(&mut self, slice: Slice<'a>) -> Option<Selected<'a>> {
        let mut sel = std::mem::take(&mut self.spare_sel);
        sel.clear();
        let (decoded, mut rows) = match slice {
            Slice::Rows(values) => {
                let chunk = self.builder.build(values)?;
                if self.shape.narrowed.is_some() {
                    for row in values {
                        let Value::Struct(row) = row else {
                            return None;
                        };
                        for column in &mut self.required {
                            gather_lookup(row, column)?;
                        }
                    }
                }
                let len =
                    u32::try_from(values.len()).expect("chunk size is clamped below u32::MAX");
                sel.extend(0..len);
                (Some(chunk), RowsOf::Slice(values))
            }
            Slice::Columns {
                bag,
                columns,
                start,
                end,
            } => {
                if !self.map_columns(bag, columns) {
                    return None;
                }
                columns.rows_at(start..end, &mut sel);
                // Elements and column rows are numbered apart; the
                // elements are wanted only by a tail that hands rows on.
                let element = |i| u32::try_from(i).expect("a bag of u32 rows");
                let at = match self.tail {
                    Tail::Rows | Tail::Key { .. } => (element(start)..element(end)).collect(),
                    Tail::Map(..) | Tail::Gather(..) => Vec::new(),
                };
                (None, RowsOf::Bag { bag, at })
            }
        };
        let chunk = chunk_of(&self.mapped, &decoded);
        for kernel in &self.kernels {
            if sel.is_empty() {
                break;
            }
            // `at` is kept parallel to `sel` only for a tail that hands
            // rows on; it is empty otherwise.
            let at = match &mut rows {
                RowsOf::Bag { at, .. } if !at.is_empty() => Some(at),
                _ => None,
            };
            kernel.narrow(chunk, &mut sel, at)?;
        }
        Some(Selected { decoded, sel, rows })
    }

    /// The per-row path for everything but the tail of one batch, stacked
    /// operator-by-operator across the whole batch (each filter and
    /// projection beneath the bind, the bind, then each filter above it)
    /// — exactly how the row cursors' `next_batch` implementations
    /// compose, so results, errors and error order match.
    fn fallback_rows(&self, slice: &'a [Value]) -> Result<Vec<Row<'a>>> {
        self.ctx.metrics.add_fallback(slice.len());
        let mut rows: Vec<Row<'a>> = slice.iter().map(Row::borrowed).collect();
        let filter = |rows: Vec<Row<'a>>, predicate| -> Result<Vec<Row<'a>>> {
            let mut kept = Vec::with_capacity(rows.len());
            for row in rows {
                if truthy(&eval_in_row(predicate, &row, self.ctx)?) {
                    kept.push(row);
                }
            }
            Ok(kept)
        };
        for op in &self.raw {
            rows = match *op {
                RawOp::Filter(predicate) => filter(rows, predicate)?,
                RawOp::Project(columns) => rows
                    .into_iter()
                    .map(|row| project_row(row, columns, self.ctx.metrics))
                    .collect::<Result<_>>()?,
            };
        }
        if let Some(name) = &self.shape.bind_name {
            rows = rows
                .into_iter()
                .map(|row| Ok(bind_value(name, row.materialize(self.ctx.metrics)?)))
                .collect::<Result<_>>()?;
        }
        for predicate in &self.filters {
            rows = filter(rows, predicate)?;
        }
        Ok(rows)
    }

    /// Produces the next batch of a map/rows spine, counting every
    /// scanned row into exactly one of `rows_kernel`/`rows_fallback`.
    fn next_chunk(&mut self, hint: usize) -> Result<Option<Batch<'a>>> {
        let Some(slice) = self.next_slice(hint)? else {
            return Ok(None);
        };
        if let Some(batch) = self.kernel_chunk(slice) {
            self.ctx.metrics.add_kernel(slice.len());
            return Ok(Some(batch));
        }
        let mut rows = self.fallback_rows(slice.rows())?;
        if let Tail::Map(projection, _) | Tail::Gather(projection, ..) = &self.tail {
            for row in &mut rows {
                *row = Row::owned(eval_in_row(projection, row, self.ctx)?);
            }
        }
        Ok(Some(Batch::Rows(rows.into_iter())))
    }

    fn kernel_chunk(&mut self, slice: Slice<'a>) -> Option<Batch<'a>> {
        let selected = self.select(slice)?;
        let Selected { sel, rows, .. } = &selected;
        let batch = match (&mut self.tail, rows) {
            (Tail::Map(_, kernel), _) | (Tail::Gather(_, _, kernel), RowsOf::Bag { .. }) => {
                let chunk = chunk_of(&self.mapped, &selected.decoded);
                Batch::Mapped(kernel.eval(chunk, sel)?, 0..sel.len())
            }
            // A survivor that is not a struct or lacks the field bails the
            // whole batch (nothing was emitted or counted yet), and the
            // per-row path reproduces the exact row-engine behaviour.
            (Tail::Gather(_, plan, _), RowsOf::Slice(slice)) => {
                let mut out = Vec::with_capacity(sel.len());
                for &i in sel {
                    let Value::Struct(row) = &slice[i as usize] else {
                        return None;
                    };
                    out.push(gather_lookup(row, plan)?);
                }
                Batch::Proj(out.into_iter())
            }
            (Tail::Rows | Tail::Key { .. }, _) => {
                let rows: Vec<Row<'a>> = (0..sel.len())
                    .map(|j| self.shape.make_row(rows.get(j, sel)).ok())
                    .collect::<Option<_>>()?;
                Batch::Rows(rows.into_iter())
            }
        };
        self.spare_sel = selected.sel;
        Some(batch)
    }

    /// Produces the next batch of a join side with its keys and hashes,
    /// counting every scanned row into exactly one of
    /// `rows_kernel`/`rows_fallback`.
    pub(crate) fn next_keyed(&mut self, hint: usize) -> Result<Option<KeyedBatch<'a>>> {
        let Some(slice) = self.next_slice(hint)? else {
            return Ok(None);
        };
        if let Some(batch) = self.kernel_keys(slice) {
            self.ctx.metrics.add_kernel(slice.len());
            return Ok(Some(batch));
        }
        let Tail::Key { expr, hasher, .. } = &self.tail else {
            unreachable!("keyed batches come from key spines");
        };
        let mut keyed = Vec::new();
        for row in self.fallback_rows(slice.rows())? {
            check_struct_frames(&row)?;
            let key = eval_in_row(expr, &row, self.ctx)?;
            keyed.push((hasher.hash_value(&key), key, row));
        }
        Ok(Some(KeyedBatch::Rows(keyed)))
    }

    fn kernel_keys(&mut self, slice: Slice<'a>) -> Option<KeyedBatch<'a>> {
        let Selected { decoded, sel, rows } = self.select(slice)?;
        // The batch keeps its chunk (a pair projection reads it later).
        let chunk = match decoded {
            Some(chunk) => chunk,
            None => chunk_of(&self.mapped, &None).clone(),
        };
        let Tail::Key {
            kernel,
            slot,
            hasher,
            ..
        } = &mut self.tail
        else {
            unreachable!("keyed batches come from key spines");
        };
        // A mixed-type (or all-null) key column decodes to boxed values;
        // those batches take the exact row path.
        if slot.is_some_and(|slot| matches!(chunk.column(slot), Column::Values(_))) {
            return None;
        }
        let keys = kernel.eval(&chunk, &sel)?;
        let mut hashes = Vec::with_capacity(sel.len());
        match (*slot, &keys) {
            // Bare key column: hash in one pass, reusing one hash per
            // distinct dictionary code for string keys.
            (Some(slot), _) => hasher.hash_column(chunk.column(slot), &sel, &mut hashes),
            // Computed keys funnel through the same canonical `hash_one`
            // as the row path (a broadcast constant hashes once).
            (None, EvalVec::Const(v)) => hashes.resize(sel.len(), hasher.hash_value(v)),
            (None, keys) => {
                hashes.extend((0..sel.len()).map(|j| hasher.hash_value(&keys.value_at(j))));
            }
        }
        let at = Positions {
            rows,
            chunk,
            sel,
            shape: self.shape.clone(),
        };
        Some(KeyedBatch::Kernel { at, keys, hashes })
    }
}

/// Fuses a `map?(hash_join(spine, spine))` plan into the hash join with
/// vectorized sides: both flow through key spines into / against the
/// table, and the (optional) output projection evaluates per *batch of
/// matched pairs* through a [`PairPlan`].  The build side is chosen
/// exactly as the row form's `build` does, so `rows_materialized` (one
/// bump per build row) stays bit-identical.
fn fuse_join<'a>(plan: &'a PhysicalExpr, ctx: PipelineCtx<'a>) -> Option<HashJoin<'a>> {
    let (map, join_node) = match plan {
        PhysicalExpr::MapOp { input, projection } => (Some(projection), input.as_ref()),
        node => (None, node),
    };
    let PhysicalExpr::HashJoin {
        left,
        right,
        left_key,
        right_key,
        residual: None,
    } = join_node
    else {
        return None;
    };
    let side = |plan| {
        let (shape, scan) = spine_shape(plan, true)?;
        Some((shape, Supply::new(member_of(scan, &ctx)?, 1, &ctx)))
    };
    let (left_side, right_side) = (side(left)?, side(right)?);
    let build_on_left = decide_build_side(left, right, ctx);
    let (build_side, probe_side, build_key, probe_key) = if build_on_left {
        (left_side, right_side, left_key, right_key)
    } else {
        (right_side, left_side, right_key, left_key)
    };
    let (build_binding, probe_binding) = (build_side.0.binding, probe_side.0.binding);
    let table = JoinTable::default();
    let (shape, supply) = build_side;
    let mut build = Spine::compile(shape, supply, Some((build_key, table.state())), ctx)?;
    let (shape, supply) = probe_side;
    let mut probe = Spine::compile(shape, supply, Some((probe_key, table.state())), ctx)?;
    // Fuse the map over matched pairs when both sides are bound with
    // distinct names and the projection compiles.  Each side of the pair
    // kernel is seeded with its spine's filter/key columns, and each
    // spine's layout extended with the columns the projection reads
    // besides: one chunk per batch serves the filters, the key and the
    // pair projection, on the probe side and — kept by the table, as the
    // payload — on the build side.
    let bindings = if build_on_left {
        build_binding.zip(probe_binding)
    } else {
        probe_binding.zip(build_binding)
    };
    let pair = map.zip(bindings).and_then(|(projection, (l, r))| {
        let mut pb = PairKernelBuilder::new(l, r)?;
        if build_on_left {
            pb.seed_left(&build.fields);
            pb.seed_right(&probe.fields);
        } else {
            pb.seed_left(&probe.fields);
            pb.seed_right(&build.fields);
        }
        let kernel = pb.compile(projection)?;
        let (build_fields, probe_fields) = if build_on_left {
            (pb.left_fields(), pb.right_fields())
        } else {
            (pb.right_fields(), pb.left_fields())
        };
        // A chunk holds source rows' columns, whatever a projection
        // beneath the bind narrows the rows to: a field it drops must
        // stay the per-row path's to miss.
        if !probe.exposes(probe_fields) || !build.exposes(build_fields) {
            return None;
        }
        probe.set_layout(probe_fields, probe_fields.len());
        build.set_layout(build_fields, build_fields.len());
        Some(PairPlan {
            kernel,
            payload: None,
        })
    });
    let spec = PairSpec {
        residual: None,
        map,
        build_on_left,
    };
    Some(HashJoin::new(
        KeyedSource::Spine(Box::new(build)),
        KeyedSource::Spine(Box::new(probe)),
        table,
        spec,
        pair,
        ctx,
    ))
}

/// A batch source exposed as an ordinary [`RowStream`] — what the row
/// operators (joins, flatten) consume.
pub(crate) struct SpineCursor<'a> {
    source: BatchSource<'a>,
    /// The batch being handed out; a join batch can hold more rows than
    /// one pull asks for (one probe batch fans out to all its matches).
    current: Batch<'a>,
}

impl<'a> SpineCursor<'a> {
    pub(crate) fn new(source: BatchSource<'a>) -> Self {
        SpineCursor {
            source,
            current: Batch::default(),
        }
    }
}

impl<'a> RowStream<'a> for SpineCursor<'a> {
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        if self.current.is_empty() {
            match self.source.next_chunk(max)? {
                Some(batch) => self.current = batch,
                None => return Ok(false),
            }
        }
        self.current.drain_into(out, max);
        Ok(true)
    }

    fn ready(&self) -> bool {
        !self.current.is_empty() || self.source.ready()
    }
}

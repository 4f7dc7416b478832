//! Join cursors.
//!
//! There is one hash join.  It buffers exactly one input (the *build
//! side* — by default the smaller one by estimated cardinality) into a
//! [`JoinTable`] and streams the other input through it.  A join side is
//! a [`KeyedSource`]: a producer of [`KeyedBatch`]es that is vectorized
//! when the side is a fusable scan spine (kernel-evaluated keys, one-pass
//! batched hashing) and per-row otherwise; one build loop
//! ([`JoinTable::absorb`]) and one expansion loop ([`Probe::pump`])
//! consume either form, resident and in every reloaded Grace partition.
//!
//! The table keeps a vectorized build batch **by position**: its chunk,
//! its selection and where its row values are.  A build row is made only
//! when something needs one, and then for the whole table at once: the
//! per-row expansion (a residual predicate, a join without a fused
//! projection, a pair kernel that bails, a probe batch that ran per row)
//! or a Grace unload.  A fused projection over matched pairs reads the
//! build batches' columns, gathered once in table order (the *payload*),
//! so it never needs one.
//! Output rows are **lazy**: a match yields a [`Row`] carrying the frames of
//! both sides, and the merged struct is only constructed if a downstream
//! consumer needs one value.  The nested-loop and merge-tuples joins
//! buffer their right input (it is re-scanned once per left row) and
//! stream the left a batch at a time, in one loop ([`Outer::join`]).
//!
//! # Spilling (bounded memory budgets)
//!
//! The build loop is the same under any budget; a bounded
//! [`MemoryBudget`] only counts what the table holds.  A kept build row is
//! charged its key and its share of its batch, a made one its row and key,
//! and the payload its columns, once it has released the chunks it
//! replaces.  The row whose charge fails sends the
//! join down the [`Grace`] path: the resident table and the rest of the
//! build input are hash-routed into 8 disk runs, the whole probe input is
//! routed by the same hash (probe *keys* are still evaluated in arrival
//! order, so key-evaluation errors surface exactly where the in-memory
//! path reports them), and each (build, probe) partition pair is then
//! loaded and probed in turn — re-splitting into 8 children at the next
//! hash level if a partition alone still exceeds the budget.  The output
//! multiset, error identity and `rows_materialized` (one bump per build
//! row, at original consumption only) are identical to the in-memory
//! path; only the emission *order* differs (partition-major), which the
//! answer bag — a multiset — does not observe.
//!
//! The nested-loop and merge-tuples inner buffers are bounded too
//! ([`InnerBuffer`]): rows past the budget trip go to a single disk run
//! that is rewound and re-read once per outer row, at row-granularity
//! trip detection (peak overshoot ≤ one row).  Emission order is
//! unchanged — the tail pass replays rows in their original order.
//!
//! Outside tests this module denies `unwrap`, `expect`, `panic!` and
//! `unreachable!`: a condition that cannot hold is a typed
//! [`RuntimeError`], or an `#[expect]` that names its invariant.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault};

use disco_algebra::{kernel::PairKernel, truthy, AlgebraError, ScalarExpr};
use disco_value::{approx_value_bytes, ColumnarChunk, Value};

use super::columnar::{Batch, KeyedBatch, Positions, Spine};
use super::sink::IdentityHasher;
use super::spill::{
    approx_row_bytes, record_row, row_record, Grace, MemoryBudget, Resident, RewindableRun,
    RunFile, RunFileReader, RunPass,
};
use super::{
    eval_in_pair, eval_in_row, BoxedRowStream, Frame, InputRows, PipelineCtx, Result, Row,
    RowStream,
};
use crate::RuntimeError;

/// Which hash-join input to buffer as the build side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BuildSide {
    /// Pick the smaller input by estimated cardinality (resolved `exec`
    /// row counts and literal bag lengths); unknowns fall back to `Right`.
    #[default]
    Auto,
    /// Always buffer the left input and probe with the right.
    Left,
    /// Always buffer the right input and probe with the left.
    Right,
}

/// Validates that every frame a join consumes is a struct row, mirroring
/// the materializing evaluator's `as_struct` checks at join boundaries.
pub(crate) fn check_struct_frames(row: &Row<'_>) -> Result<()> {
    for frame in row.frames() {
        frame.value().as_struct().map_err(AlgebraError::from)?;
    }
    Ok(())
}

/// A join-side row with its key and the key's canonical hash under the
/// join table's [`RandomState`].
pub(crate) type KeyedRow<'a> = (u64, Value, Row<'a>);

/// One side of a hash join: a producer of [`KeyedBatch`]es.
pub(crate) enum KeyedSource<'a> {
    /// A fused scan stretch (`filter* → bind? → (filter | project)* →
    /// scan`, over rows at hand or a still-streaming source) whose tail
    /// is the key kernel: keys and hashes come out a column at a time, and irregular
    /// batches fall back per row inside the spine.
    Spine(Box<Spine<'a>>),
    /// Any other input, keyed per row: struct-frame check, key
    /// evaluation in the row's environment, `hash_one`.
    Rows {
        input: BoxedRowStream<'a>,
        key: &'a ScalarExpr,
        state: RandomState,
        done: bool,
        scratch: Vec<Row<'a>>,
        ctx: PipelineCtx<'a>,
    },
}

impl<'a> KeyedSource<'a> {
    /// The per-row form over `input`; `state` must be the join table's.
    pub(crate) fn rows(
        input: BoxedRowStream<'a>,
        key: &'a ScalarExpr,
        state: RandomState,
        ctx: PipelineCtx<'a>,
    ) -> Self {
        KeyedSource::Rows {
            input,
            key,
            state,
            done: false,
            scratch: Vec::new(),
            ctx,
        }
    }

    /// Whether a pull would make progress without blocking on a
    /// still-streaming source (see [`RowStream::ready`]).
    fn ready(&self) -> bool {
        match self {
            KeyedSource::Spine(spine) => spine.ready(),
            KeyedSource::Rows { input, done, .. } => *done || input.ready(),
        }
    }

    /// The next batch of at most `hint` input rows, keyed (possibly empty
    /// — a filter batch in which nothing matched); `None` once exhausted.
    pub(crate) fn next_keyed(&mut self, hint: usize) -> Result<Option<KeyedBatch<'a>>> {
        match self {
            KeyedSource::Spine(spine) => spine.next_keyed(hint),
            KeyedSource::Rows {
                input,
                key,
                state,
                done,
                scratch,
                ctx,
            } => {
                if *done {
                    return Ok(None);
                }
                scratch.clear();
                *done = !input.next_batch(scratch, hint)?;
                let mut out = Vec::with_capacity(scratch.len());
                for row in scratch.drain(..) {
                    check_struct_frames(&row)?;
                    let key = eval_in_row(key, &row, *ctx)?;
                    out.push((state.hash_one(&key), key, row));
                }
                Ok(Some(KeyedBatch::Rows(out)))
            }
        }
    }
}

/// The hash join's build table.
///
/// Bucketed by *precomputed* canonical hash (identity-hashed buckets, no
/// re-hash on insert or probe), so a columnar side can hash a whole key
/// column in one [`disco_value::KeyHasher`] pass while per-row sides hash
/// the same key values through the same [`RandomState`].  A build row has
/// a *table index*, in insertion order; a key group lists its rows'
/// indices, and an expansion in flight refers to its group by id.
///
/// The rows themselves are in one of two forms, in table order: first the
/// rows made (`rows`: a batch that ran per row, a reloaded Grace record),
/// then the vectorized batches kept by position (`kept`).
/// [`JoinTable::make_rows`] turns the kept batches into rows, once, when
/// something first needs a row.  While every row is kept by position the
/// batches' columns, gathered, are the payload a pair projection reads
/// ([`JoinTable::payload`]).
pub(crate) struct JoinTable<'a> {
    state: RandomState,
    /// Key hash → the first group of that hash (almost always the only).
    buckets: HashMap<u64, u32, BuildHasherDefault<IdentityHasher>>,
    groups: Vec<Group>,
    /// The rows made: table indices `0..rows.len()`.
    rows: Vec<Row<'a>>,
    /// The batches kept by position: the table indices after `rows`.
    kept: Vec<Positions<'a>>,
    /// Build rows in all, made or kept.
    len: u32,
}

/// Build rows sharing one key value (equality is the canonical `Value`
/// equality; hash collisions chain separate groups).  The first row's
/// index is kept inline: a key's other rows — in insertion order — are
/// the only thing a group allocates for.
struct Group {
    key: Value,
    first: u32,
    more: Vec<u32>,
    /// The next group under the same hash.
    next: Option<u32>,
}

impl Group {
    fn len(&self) -> usize {
        1 + self.more.len()
    }

    /// The table index of the group's `k`-th row.
    fn at(&self, k: usize) -> u32 {
        match k.checked_sub(1) {
            None => self.first,
            Some(k) => self.more[k],
        }
    }

    /// The table indices of the group's rows, in insertion order.
    fn indices(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.first).chain(self.more.iter().copied())
    }
}

impl Default for JoinTable<'_> {
    fn default() -> Self {
        JoinTable {
            state: RandomState::new(),
            buckets: HashMap::default(),
            groups: Vec::new(),
            rows: Vec::new(),
            kept: Vec::new(),
            len: 0,
        }
    }
}

impl<'a> JoinTable<'a> {
    /// A clone of the table's hash state — every [`KeyedSource`] feeding
    /// or probing the table hashes through this.
    pub(crate) fn state(&self) -> RandomState {
        self.state.clone()
    }

    /// The group holding `key` in the chain of same-hash groups starting
    /// at `at`.
    fn find(groups: &[Group], mut at: Option<u32>, key: &Value) -> Option<u32> {
        while let Some(id) = at {
            let group = &groups[id as usize];
            if group.key == *key {
                return Some(id);
            }
            at = group.next;
        }
        None
    }

    /// Files the next build row under its precomputed key hash; the row
    /// itself goes to `rows` or `kept` by the caller.
    fn insert(&mut self, hash: u64, key: Value) -> Result<()> {
        let index = self.len;
        // A group's id is at most the index of its first row.
        let id = self.groups.len() as u32;
        self.len = index.checked_add(1).ok_or_else(|| {
            RuntimeError::Unsupported("a hash-join build side of 2^32 rows or more".into())
        })?;
        let head = match self.buckets.entry(hash) {
            Entry::Occupied(mut entry) => {
                if let Some(found) = Self::find(&self.groups, Some(*entry.get()), &key) {
                    self.groups[found as usize].more.push(index);
                    return Ok(());
                }
                Some(entry.insert(id))
            }
            Entry::Vacant(entry) => {
                entry.insert(id);
                None
            }
        };
        self.groups.push(Group {
            key,
            first: index,
            more: Vec::new(),
            next: head,
        });
        Ok(())
    }

    /// The one build loop, over either form of keyed batch: every build
    /// row bumps `rows_materialized`, is inserted and is charged against
    /// the budget.  A vectorized batch is kept by position, each survivor
    /// charged its key and its share of the batch
    /// ([`Positions::approx_bytes`]); a per-row batch's rows are kept as
    /// they came, each charged its row and key.  The loop stops at the row
    /// whose charge failed (it is in the table), returning the rest of the
    /// batch as rows: the caller then goes Grace with it.
    fn absorb(
        &mut self,
        batch: KeyedBatch<'a>,
        charged: &mut usize,
        ctx: PipelineCtx<'_>,
    ) -> Result<Option<std::vec::IntoIter<KeyedRow<'a>>>> {
        let mut rows = match batch {
            // A batch in which nothing survived holds nothing.
            KeyedBatch::Kernel { hashes, .. } if hashes.is_empty() => return Ok(None),
            KeyedBatch::Kernel {
                mut at,
                keys,
                hashes,
            } => {
                let (n, mut whole) = (at.len(), None);
                for (j, &hash) in hashes.iter().enumerate() {
                    ctx.metrics.bump_materialized();
                    let key = keys.value_at(j);
                    // The shares of survivors `..=j` add up to `(j + 1) / n`
                    // of the batch.
                    let fits = ctx.budget.charge_with(charged, || {
                        let whole = *whole.get_or_insert_with(|| at.approx_bytes());
                        approx_value_bytes(&key) + whole * (j + 1) / n - whole * j / n
                    });
                    self.insert(hash, key)?;
                    if !fits {
                        let rest = (j + 1..n)
                            .map(|k| Ok((hashes[k], keys.value_at(k), at.row(k)?)))
                            .collect::<Result<Vec<_>>>()?;
                        // A batch is as long as its selection.
                        at.sel.truncate(j + 1);
                        self.kept.push(at);
                        return Ok(Some(rest.into_iter()));
                    }
                }
                self.kept.push(at);
                return Ok(None);
            }
            KeyedBatch::Rows(rows) => rows.into_iter(),
        };
        // Made rows come before kept ones in table order.
        if !rows.as_slice().is_empty() {
            self.make_rows()?;
        }
        while let Some((hash, key, row)) = rows.next() {
            ctx.metrics.bump_materialized();
            let fits = ctx.budget.charge_with(charged, || {
                approx_row_bytes(&row) + approx_value_bytes(&key)
            });
            self.insert(hash, key)?;
            self.rows.push(row);
            if !fits {
                return Ok(Some(rows));
            }
        }
        Ok(None)
    }

    /// Makes the rows of the batches kept by position, in table order.
    fn make_rows(&mut self) -> Result<()> {
        for batch in self.kept.drain(..) {
            self.rows.reserve(batch.len());
            for j in 0..batch.len() {
                self.rows.push(batch.row(j)?);
            }
        }
        Ok(())
    }

    /// The payload of a pair projection: the kept rows of the build
    /// batches' columns gathered in table order, so chunk row `i` is build
    /// row `i`; `None` once any build row is made (a batch ran per row).
    /// It replaces the kept chunks: they are dropped (a kept row is made
    /// from its positions alone) and their charge released before the
    /// payload's is taken.
    fn payload(&mut self, charged: &mut usize, budget: &MemoryBudget) -> Option<ColumnarChunk> {
        if !self.rows.is_empty() {
            return None;
        }
        let parts: Vec<(&ColumnarChunk, &[u32])> = self
            .kept
            .iter()
            .map(|batch| (&batch.chunk, batch.sel.as_slice()))
            .collect();
        let payload = ColumnarChunk::gather(&parts);
        budget.uncharge_with(charged, || {
            self.kept.iter().map(Positions::chunk_bytes).sum()
        });
        for batch in &mut self.kept {
            batch.chunk = ColumnarChunk::default();
        }
        // It holds the chunks' columns cut to the survivors, so it trips
        // nothing the build did not.
        budget.charge_with(charged, || payload.approx_bytes(payload.len()));
        Some(payload)
    }

    /// The id of the group of build rows matching `key`, if any.
    fn group(&self, hash: u64, key: &Value) -> Option<u32> {
        Self::find(&self.groups, self.buckets.get(&hash).copied(), key)
    }

    /// The table indices of the build rows matching `key` (none when
    /// none), in insertion order.
    fn matches(&self, hash: u64, key: &Value) -> impl Iterator<Item = u32> + '_ {
        self.group(hash, key)
            .into_iter()
            .flat_map(|id| self.groups[id as usize].indices())
    }
}

/// Splits a join spill record — resident or candidate — into its key
/// and the values of its row (at least one: a row has a frame).
fn split_record(mut record: Vec<Value>) -> Result<(Value, Vec<Value>)> {
    if record.len() < 2 {
        return Err(RuntimeError::Spill(format!(
            "a join spill record holds a key and a row, not {} values",
            record.len()
        )));
    }
    let key = record.remove(0);
    Ok((key, record))
}

impl Resident for JoinTable<'_> {
    fn load(&mut self, record: Vec<Value>) -> Result<usize> {
        let (key, record) = split_record(record)?;
        let row = record_row(record)?;
        let cost = approx_row_bytes(&row) + approx_value_bytes(&key);
        self.insert(self.state.hash_one(&key), key)?;
        self.rows.push(row);
        Ok(cost)
    }

    fn unload(&mut self, sink: &mut dyn FnMut(&[Value]) -> Result<()>) -> Result<()> {
        self.make_rows()?;
        let table = std::mem::take(self);
        // Each filed row is made once and is in exactly one group.
        let misfiled = || RuntimeError::Spill("a join table holds rows it did not file".into());
        let mut rows: Vec<Option<Row<'_>>> = table.rows.into_iter().map(Some).collect();
        if rows.len() != table.len as usize {
            return Err(misfiled());
        }
        for group in table.groups {
            for index in group.indices() {
                let row = rows[index as usize].take().ok_or_else(misfiled)?;
                sink(&row_record(&group.key, row))?;
            }
        }
        Ok(())
    }
}

/// How a hash join turns a matched pair into an output row.
#[derive(Clone, Copy)]
pub(crate) struct PairSpec<'a> {
    /// Evaluated over the candidate pair; only surviving pairs construct
    /// an output row.
    pub(crate) residual: Option<&'a ScalarExpr>,
    /// A projection fused over the joined row.
    pub(crate) map: Option<&'a ScalarExpr>,
    /// `true` when the table buffers the plan's *left* input; output
    /// frames are always ordered left-then-right regardless.
    pub(crate) build_on_left: bool,
}

/// Where a [`Probe`] gets its keyed probe rows from.
enum Feed<'a> {
    /// The probe side of the join.
    Source(KeyedSource<'a>),
    /// The probe run of the Grace partition currently loaded.
    Run(RunFileReader),
}

/// The probe half of a hash join: pulls keyed probe rows and expands each
/// against a finished [`JoinTable`] — the resident one, or the Grace
/// partition just reloaded.
struct Probe<'a> {
    feed: Feed<'a>,
    /// Keyed rows of the current probe batch, handed out one at a time.
    batch: std::vec::IntoIter<KeyedRow<'a>>,
    /// The probe row being expanded, its key group in the table, and the
    /// next match within the group.
    current: Option<(Row<'a>, u32, usize)>,
    spec: PairSpec<'a>,
    ctx: PipelineCtx<'a>,
}

/// One attempt to pull a probe row.
enum Pulled<'a> {
    Row(KeyedRow<'a>),
    /// The source is still streaming and finished rows are in hand.
    NotReady,
    Done,
}

impl<'a> Probe<'a> {
    fn new(source: KeyedSource<'a>, spec: PairSpec<'a>, ctx: PipelineCtx<'a>) -> Self {
        Probe {
            feed: Feed::Source(source),
            batch: Vec::new().into_iter(),
            current: None,
            spec,
            ctx,
        }
    }

    fn pull(&mut self, table: &JoinTable<'a>, rows_in_hand: bool) -> Result<Pulled<'a>> {
        loop {
            if let Some(keyed) = self.batch.next() {
                return Ok(Pulled::Row(keyed));
            }
            match &mut self.feed {
                Feed::Source(source) => {
                    // Never sit on finished rows waiting for a source
                    // that is still answering: hand them downstream.
                    if rows_in_hand && !source.ready() {
                        return Ok(Pulled::NotReady);
                    }
                    match source.next_keyed(self.ctx.batch_rows)? {
                        Some(batch) => self.batch = batch.into_rows()?.into_iter(),
                        None => return Ok(Pulled::Done),
                    }
                }
                Feed::Run(run) => {
                    return Ok(match run.next_record()? {
                        Some(record) => {
                            let (key, record) = split_record(record)?;
                            Pulled::Row((table.state.hash_one(&key), key, record_row(record)?))
                        }
                        None => Pulled::Done,
                    })
                }
            }
        }
    }

    /// The one expansion loop: appends joined rows to `out` until it
    /// holds `max`, the probe feed is exhausted (`Ok(false)`), or the
    /// feed would block with rows in hand.  Matches of one probe row come
    /// out in build-insertion order.
    fn pump(
        &mut self,
        table: &mut JoinTable<'a>,
        out: &mut Vec<Row<'a>>,
        max: usize,
    ) -> Result<bool> {
        let start = out.len();
        let PairSpec {
            residual,
            map,
            build_on_left,
        } = self.spec;
        loop {
            if let Some((probe, group, next)) = &mut self.current {
                let matches = &table.groups[*group as usize];
                while *next < matches.len() {
                    if out.len() - start >= max {
                        return Ok(true);
                    }
                    let candidate = &table.rows[matches.at(*next) as usize];
                    *next += 1;
                    let (lrow, rrow) = if build_on_left {
                        (candidate, &*probe)
                    } else {
                        (&*probe, candidate)
                    };
                    let keep = match residual {
                        Some(p) => truthy(&eval_in_pair(p, lrow, rrow, self.ctx)?),
                        None => true,
                    };
                    if keep {
                        let joined = Row::joined(lrow.clone(), rrow.clone());
                        out.push(match map {
                            Some(map) => Row::owned(eval_in_row(map, &joined, self.ctx)?),
                            None => joined,
                        });
                    }
                }
                self.current = None;
            }
            if out.len() - start >= max {
                return Ok(true);
            }
            match self.pull(table, out.len() > start)? {
                Pulled::Row((hash, key, probe)) => {
                    if let Some(group) = table.group(hash, &key) {
                        // The expansion reads build rows: they are made
                        // at the first match, for the whole table.
                        table.make_rows()?;
                        self.current = Some((probe, group, 0));
                    }
                }
                Pulled::NotReady => return Ok(true),
                Pulled::Done => return Ok(false),
            }
        }
    }
}

/// A projection fused over matched pairs and evaluated a batch of pairs at
/// a time: the kernel reads the probe chunk through one binding and the
/// build side's payload chunk ([`JoinTable::payload`]) through the other,
/// so no joined row — and no build row — is constructed.
pub(crate) struct PairPlan {
    pub(crate) kernel: PairKernel,
    /// Set once the build side is complete, if it has one.
    pub(crate) payload: Option<ColumnarChunk>,
}

/// The hash join operator, with lazy output rows.  Its sides are
/// [`KeyedSource`]s of either form; with spine sides and a compilable
/// output projection ([`PairPlan`]) matched pairs of a vectorized probe
/// batch are projected column-at-a-time, and everything else — per-row
/// sides, residual predicates, kernel bail-outs, Grace partitions — runs
/// the one per-row expansion ([`Probe::pump`]), which reproduces the row
/// evaluator's answers, errors and error order.
pub(crate) struct HashJoin<'a> {
    /// `Some` until the build side has been consumed.
    build: Option<KeyedSource<'a>>,
    probe: Probe<'a>,
    /// The resident build table, or the Grace partition just reloaded.
    table: JoinTable<'a>,
    /// Bytes charged against the budget for `table`.
    charged: usize,
    /// `Some` once the build tripped the memory budget.
    grace: Option<Grace>,
    pair: Option<PairPlan>,
    ctx: PipelineCtx<'a>,
}

impl<'a> HashJoin<'a> {
    /// `table` is the (empty) table both sources hash through.
    pub(crate) fn new(
        build: KeyedSource<'a>,
        probe: KeyedSource<'a>,
        table: JoinTable<'a>,
        spec: PairSpec<'a>,
        pair: Option<PairPlan>,
        ctx: PipelineCtx<'a>,
    ) -> Self {
        HashJoin {
            build: Some(build),
            probe: Probe::new(probe, spec, ctx),
            table,
            charged: 0,
            grace: None,
            pair,
            ctx,
        }
    }

    /// Drains the build side into the table (the one materialization this
    /// operator performs), going Grace at the row that trips the budget.
    fn ensure_built(&mut self) -> Result<()> {
        let Some(mut build) = self.build.take() else {
            return Ok(());
        };
        while let Some(batch) = build.next_keyed(self.ctx.batch_rows)? {
            if let Some(rest) = self.table.absorb(batch, &mut self.charged, self.ctx)? {
                return self.spill(build, rest);
            }
        }
        // The payload is breaker state too, and charged.
        if let Some(pair) = &mut self.pair {
            pair.payload = self.table.payload(&mut self.charged, self.ctx.budget);
        }
        Ok(())
    }

    /// Grace spill: flush the resident table plus the rest of the build
    /// side into the resident runs, then route the *entire* probe side by
    /// the same hash.  Both sides keep coming through their keyed
    /// producers, so keys are evaluated (vectorized or not) in arrival
    /// order and errors surface where the in-memory join reports them.
    fn spill(
        &mut self,
        mut build: KeyedSource<'a>,
        mut rest: std::vec::IntoIter<KeyedRow<'a>>,
    ) -> Result<()> {
        let ctx = self.ctx;
        let mut grace = Grace::new(true);
        let mut fan = grace.fanout(0)?;
        self.table.unload(&mut |record| fan.push_resident(record))?;
        ctx.budget.uncharge(std::mem::take(&mut self.charged));
        loop {
            // This is the rows' original consumption, so it still bumps
            // `rows_materialized` — reloads from disk never bump again.
            for (_, key, row) in rest {
                ctx.metrics.bump_materialized();
                fan.push_resident(&row_record(&key, row))?;
            }
            match build.next_keyed(ctx.batch_rows)? {
                Some(batch) => rest = batch.into_rows()?.into_iter(),
                None => break,
            }
        }
        #[expect(
            clippy::unreachable,
            reason = "the build completes before the first probe, and a probe run exists only after this"
        )]
        let Feed::Source(probe) = &mut self.probe.feed
        else {
            unreachable!("the build completes before the first probe");
        };
        while let Some(batch) = probe.next_keyed(ctx.batch_rows)? {
            for (_, key, row) in batch.into_rows()? {
                fan.push_streamed(&row_record(&key, row))?;
            }
        }
        grace.finish(fan, ctx.metrics)?;
        self.grace = Some(grace);
        self.pair = None;
        self.next_partition().map(drop)
    }

    /// Releases the drained table and loads the next Grace partition;
    /// `false` once every partition has been probed, or when the join did
    /// not spill.
    fn next_partition(&mut self) -> Result<bool> {
        let Some(grace) = self.grace.as_mut() else {
            return Ok(false);
        };
        self.ctx.budget.uncharge(std::mem::take(&mut self.charged));
        self.table = JoinTable::default();
        let Some(loaded) = grace.load_next(JoinTable::default, self.ctx)? else {
            return Ok(false);
        };
        self.table = loaded.state;
        self.charged = loaded.charged;
        self.probe.feed = Feed::Run(loaded.streamed);
        Ok(true)
    }

    /// The next batch of join output for batch consumers, probe-major
    /// with build-insertion order within a key group — the row
    /// evaluator's output order; `None` when exhausted.
    pub(crate) fn next_out(&mut self, hint: usize) -> Result<Option<Batch<'a>>> {
        self.ensure_built()?;
        loop {
            if let Some(batch) = self.next_paired(hint)? {
                return Ok(Some(batch));
            }
            let mut out = Vec::new();
            let more = self.next_batch(&mut out, hint)?;
            if !out.is_empty() {
                return Ok(Some(Batch::Rows(out.into_iter())));
            }
            if !more {
                return Ok(None);
            }
        }
    }

    /// The vectorized probe: between probe batches, with a pair kernel
    /// and its payload in place, one spine batch is looked up and its
    /// matched pairs projected in one kernel evaluation.  `None` leaves
    /// the batch (if one was pulled) queued for the per-row expansion.
    fn next_paired(&mut self, hint: usize) -> Result<Option<Batch<'a>>> {
        let (
            Some(PairPlan {
                kernel,
                payload: Some(payload),
            }),
            Feed::Source(KeyedSource::Spine(spine)),
        ) = (&self.pair, &mut self.probe.feed)
        else {
            return Ok(None);
        };
        while self.probe.current.is_none() && self.probe.batch.as_slice().is_empty() {
            let Some(batch) = spine.next_keyed(hint)? else {
                return Ok(None);
            };
            if let KeyedBatch::Kernel { at, keys, hashes } = &batch {
                // Twin pair-index vectors: pair `p` joins probe chunk
                // row `probe_sel[p]` with payload row `build_sel[p]`.
                let mut probe_sel: Vec<u32> = Vec::new();
                let mut build_sel: Vec<u32> = Vec::new();
                for (j, &i) in at.sel.iter().enumerate() {
                    for b in self.table.matches(hashes[j], &keys.value_at(j)) {
                        probe_sel.push(i);
                        build_sel.push(b);
                    }
                }
                if probe_sel.is_empty() {
                    continue;
                }
                let result = if self.probe.spec.build_on_left {
                    kernel.eval(payload, &build_sel, &at.chunk, &probe_sel)
                } else {
                    kernel.eval(&at.chunk, &probe_sel, payload, &build_sel)
                };
                if let Some(result) = result {
                    return Ok(Some(Batch::Mapped(result, 0..probe_sel.len())));
                }
            }
            self.probe.batch = batch.into_rows()?.into_iter();
        }
        Ok(None)
    }
}

impl<'a> RowStream<'a> for HashJoin<'a> {
    /// The side the next pull reads from: the build side until it is
    /// consumed, then whatever feeds the probe.
    fn ready(&self) -> bool {
        match (&self.build, &self.probe.feed) {
            (Some(build), _) => build.ready(),
            (None, Feed::Source(probe)) => {
                self.probe.current.is_some()
                    || !self.probe.batch.as_slice().is_empty()
                    || probe.ready()
            }
            (None, Feed::Run(_)) => true,
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        self.ensure_built()?;
        loop {
            if self.probe.pump(&mut self.table, out, max)? {
                return Ok(true);
            }
            // The table's probe feed is drained: on to the next Grace
            // partition, if the join spilled.
            if !self.next_partition()? {
                return Ok(false);
            }
        }
    }
}

/// The budget-bounded inner buffer of the nested-loop and merge-tuples
/// joins: a resident prefix (charged against the budget) plus an optional
/// disk tail for everything past the trip point.  The buffer is walked
/// once per outer row ([`InnerBuffer::next`]): the resident items, then
/// a pass over the sealed tail through [`RewindableRun::pass`].
///
/// The trip is at **row granularity** — the first row whose charge fails
/// goes to disk immediately (and is uncharged), so the tracked peak
/// overshoots the limit by at most that one row.  Every row is counted in
/// `rows_materialized` at original consumption, spilled or not, so the
/// counter is budget-invariant; the run's bytes land in `bytes_spilled`.
struct InnerBuffer<T> {
    resident: Vec<T>,
    tail: Option<Tail>,
    charged: usize,
    /// The walk of the current outer row: the next resident item, then
    /// the pass over the tail once the resident items are through.
    next: usize,
    pass: Option<RunPass>,
}

impl<T> Default for InnerBuffer<T> {
    fn default() -> Self {
        InnerBuffer {
            resident: Vec::new(),
            tail: None,
            charged: 0,
            next: 0,
            pass: None,
        }
    }
}

impl<T> InnerBuffer<T> {
    /// Buffers a whole cursor, pulled a batch at a time: `item` turns a
    /// row into the buffered item and its resident size, `record` an item
    /// into its spill record.
    fn fill<'a>(
        mut input: BoxedRowStream<'a>,
        item: impl Fn(Row<'a>) -> Result<(T, usize)>,
        record: fn(T) -> Vec<Value>,
        ctx: PipelineCtx<'a>,
    ) -> Result<Self> {
        let mut buffer = InnerBuffer::default();
        let mut rows = Vec::with_capacity(ctx.batch_rows);
        loop {
            let more = input.next_batch(&mut rows, ctx.batch_rows)?;
            for row in rows.drain(..) {
                let (item, cost) = item(row)?;
                ctx.metrics.bump_materialized();
                buffer.admit(item, cost, record, ctx)?;
            }
            if !more {
                break;
            }
        }
        if let Some(Tail::Writing(run)) = buffer.tail.take() {
            ctx.metrics.add_bytes_spilled(run.bytes());
            buffer.tail = Some(Tail::Sealed(RewindableRun::from_run(run)?));
        }
        Ok(buffer)
    }

    /// Admit one item: resident while the budget holds, spilled to the
    /// tail run from the first failed charge on.
    fn admit(
        &mut self,
        item: T,
        cost: usize,
        record: fn(T) -> Vec<Value>,
        ctx: PipelineCtx<'_>,
    ) -> Result<()> {
        if self.tail.is_none() {
            if ctx.budget.charge(cost) {
                self.charged += cost;
                self.resident.push(item);
                return Ok(());
            }
            ctx.budget.uncharge(cost);
            self.tail = Some(Tail::Writing(RunFile::create()?));
        }
        match &mut self.tail {
            Some(Tail::Writing(run)) => run.push(&record(item)),
            _ => Err(RuntimeError::Spill(
                "a row was admitted to a sealed inner buffer".into(),
            )),
        }
    }

    /// Starts the walk over the buffer again, for the next outer row.
    fn rewind(&mut self) {
        self.next = 0;
        self.pass = None;
    }

    /// The next item of the walk, `decode` turning a tail record back
    /// into one; `None` at the end of the walk.
    fn next(&mut self, decode: fn(Vec<Value>) -> Result<T>) -> Result<Option<T>>
    where
        T: Clone,
    {
        if let Some(item) = self.resident.get(self.next) {
            self.next += 1;
            return Ok(Some(item.clone()));
        }
        let pass = match (&mut self.pass, &mut self.tail) {
            (Some(pass), _) => pass,
            (_, None) => return Ok(None),
            (pass @ None, Some(Tail::Sealed(run))) => pass.insert(run.pass()?),
            (None, Some(Tail::Writing(_))) => {
                return Err(RuntimeError::Spill(
                    "an inner buffer was walked before its tail was sealed".into(),
                ))
            }
        };
        pass.next_record()?.map(decode).transpose()
    }
}

/// A tail run is written once during buffering, then sealed into its
/// rewindable form for the per-outer-row passes.
enum Tail {
    Writing(RunFile),
    Sealed(RewindableRun),
}

/// The streamed (left) side of a nested-loop or merge-tuples join, and
/// the row of it walking the inner buffer.
struct Outer<'a, L> {
    input: InputRows<'a>,
    /// The row walking the inner buffer, as `prepare` made it.
    current: Option<L>,
}

impl<'a, L> Outer<'a, L> {
    fn new(input: BoxedRowStream<'a>, batch_rows: usize) -> Self {
        Outer {
            input: InputRows::new(input, batch_rows),
            current: None,
        }
    }

    /// The one loop of both joins, answering as [`RowStream::next_batch`]
    /// does: each left row, `prepare`d, walks `inner` (`decode` reads its
    /// tail), and `pair` makes a pair's output row if the pair is kept.
    /// A left batch is pulled whole before any of its rows is paired, as
    /// an evaluator that materializes the left input first pairs them.
    fn join<T: Clone>(
        &mut self,
        inner: &mut InnerBuffer<T>,
        out: &mut Vec<Row<'a>>,
        max: usize,
        prepare: impl Fn(Row<'a>) -> Result<L>,
        decode: fn(Vec<Value>) -> Result<T>,
        pair: impl Fn(&L, T) -> Result<Option<Row<'a>>>,
    ) -> Result<bool> {
        let start = out.len();
        while out.len() - start < max {
            let Some(left) = &self.current else {
                let Some(row) = self.input.next(out.len() > start)? else {
                    return Ok(self.input.more);
                };
                self.current = Some(prepare(row)?);
                inner.rewind();
                continue;
            };
            match inner.next(decode)? {
                Some(right) => out.extend(pair(left, right)?),
                None => self.current = None,
            }
        }
        Ok(true)
    }
}

/// Serialize a row's frames as a spill record ([`record_row`] reverses
/// it; inner-buffer records carry no join key).
fn frames_record(row: Row<'_>) -> Vec<Value> {
    row.into_frame_vec()
        .into_iter()
        .map(Frame::into_value)
        .collect()
}

/// Nested-loop join: streams the left input, buffering the right (which is
/// re-scanned once per left row — from memory, plus a rewound disk pass
/// for any spilled tail).
pub(crate) struct NestedLoopCursor<'a> {
    left: Outer<'a, Row<'a>>,
    right_input: Option<BoxedRowStream<'a>>,
    right: InnerBuffer<Row<'a>>,
    predicate: Option<&'a ScalarExpr>,
    ctx: PipelineCtx<'a>,
}

impl<'a> NestedLoopCursor<'a> {
    pub(crate) fn new(
        left: BoxedRowStream<'a>,
        right: BoxedRowStream<'a>,
        predicate: Option<&'a ScalarExpr>,
        ctx: PipelineCtx<'a>,
    ) -> Self {
        NestedLoopCursor {
            left: Outer::new(left, ctx.batch_rows),
            right_input: Some(right),
            right: InnerBuffer::default(),
            predicate,
            ctx,
        }
    }
}

impl Drop for NestedLoopCursor<'_> {
    fn drop(&mut self) {
        self.ctx.budget.uncharge(self.right.charged);
        self.right.charged = 0;
    }
}

impl<'a> RowStream<'a> for NestedLoopCursor<'a> {
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let ctx = self.ctx;
        if let Some(right) = self.right_input.take() {
            let item = |row: Row<'a>| {
                check_struct_frames(&row)?;
                let cost = approx_row_bytes(&row);
                Ok((row, cost))
            };
            self.right = InnerBuffer::fill(right, item, frames_record, ctx)?;
        }
        let predicate = self.predicate;
        let pair = |left: &Row<'a>, right: Row<'a>| {
            let keep = match predicate {
                Some(p) => truthy(&eval_in_pair(p, left, &right, ctx)?),
                None => true,
            };
            // Only surviving pairs construct an output row.
            Ok(keep.then(|| Row::joined(left.clone(), right)))
        };
        let prepare = |row: Row<'a>| check_struct_frames(&row).map(|()| row);
        self.left
            .join(&mut self.right, out, max, prepare, record_row, pair)
    }
}

/// Source-style equi-join executed at the mediator: merges the raw source
/// tuples with a disambiguating prefix (the `MergeTuplesJoin` semantics),
/// so its output rows are materialized structs by construction.
pub(crate) struct MergeTuplesCursor<'a> {
    left: Outer<'a, Value>,
    right_input: Option<BoxedRowStream<'a>>,
    right: InnerBuffer<Value>,
    on: &'a [(String, String)],
    ctx: PipelineCtx<'a>,
}

/// One merge-tuples pair: the merged struct when the `on` attributes
/// match.
fn merge_tuples<'r>(
    on: &[(String, String)],
    left: &Value,
    right: &Value,
) -> Result<Option<Row<'r>>> {
    let ls = left.as_struct().map_err(AlgebraError::from)?;
    let rs = right.as_struct().map_err(AlgebraError::from)?;
    for (lattr, rattr) in on {
        let lv = ls.field(lattr).map_err(AlgebraError::from)?;
        let rv = rs.field(rattr).map_err(AlgebraError::from)?;
        if lv != rv {
            return Ok(None);
        }
    }
    let merged = ls
        .merge_with_prefix(rs, "right")
        .map_err(AlgebraError::from)?;
    Ok(Some(Row::owned(Value::Struct(merged))))
}

impl<'a> MergeTuplesCursor<'a> {
    pub(crate) fn new(
        left: BoxedRowStream<'a>,
        right: BoxedRowStream<'a>,
        on: &'a [(String, String)],
        ctx: PipelineCtx<'a>,
    ) -> Self {
        MergeTuplesCursor {
            left: Outer::new(left, ctx.batch_rows),
            right_input: Some(right),
            right: InnerBuffer::default(),
            on,
            ctx,
        }
    }
}

impl Drop for MergeTuplesCursor<'_> {
    fn drop(&mut self) {
        self.ctx.budget.uncharge(self.right.charged);
        self.right.charged = 0;
    }
}

impl<'a> RowStream<'a> for MergeTuplesCursor<'a> {
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let ctx = self.ctx;
        if let Some(right) = self.right_input.take() {
            let item = |row: Row<'a>| {
                let value = row.materialize(ctx.metrics)?;
                let cost = approx_value_bytes(&value);
                Ok((value, cost))
            };
            self.right = InnerBuffer::fill(right, item, |v| vec![v], ctx)?;
        }
        let on = self.on;
        let pair = |left: &Value, right: Value| merge_tuples(on, left, &right);
        let prepare = |row: Row<'a>| row.materialize(ctx.metrics);
        let decode = |record: Vec<Value>| match <[Value; 1]>::try_from(record) {
            Ok([value]) => Ok(value),
            Err(record) => Err(RuntimeError::Spill(format!(
                "a merge-join spill record holds one value, not {}",
                record.len()
            ))),
        };
        self.left
            .join(&mut self.right, out, max, prepare, decode, pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::scan::ScanCursor;
    use crate::pipeline::with_test_ctx;
    use disco_value::{Bag, StructValue};

    fn run_of(record: &[Value]) -> RunFileReader {
        let mut run = RunFile::create().unwrap();
        run.push(record).unwrap();
        run.into_reader().unwrap()
    }

    /// An inner buffer holding nothing but a spilled tail of one `record`.
    fn spilled_inner<T>(record: &[Value]) -> InnerBuffer<T> {
        let mut run = RunFile::create().unwrap();
        run.push(record).unwrap();
        InnerBuffer {
            tail: Some(Tail::Sealed(RewindableRun::from_run(run).unwrap())),
            ..InnerBuffer::default()
        }
    }

    /// A one-field struct, so each outer row passes the struct checks.
    fn one_struct() -> Value {
        Value::Struct(StructValue::new(vec![("id", Value::Int(1))]).unwrap())
    }

    #[test]
    fn a_resident_record_without_a_row_is_a_spill_error() {
        let mut table = JoinTable::default();
        for record in [vec![], vec![Value::Int(1)]] {
            assert!(matches!(table.load(record), Err(RuntimeError::Spill(_))));
        }
        assert_eq!(table.len, 0, "nothing was filed");
    }

    #[test]
    fn a_candidate_record_without_a_row_is_a_spill_error() {
        with_test_ctx(|ctx| {
            let table = JoinTable::default();
            let mut probe = Probe {
                feed: Feed::Run(run_of(&[])),
                batch: Vec::new().into_iter(),
                current: None,
                spec: PairSpec {
                    residual: None,
                    map: None,
                    build_on_left: true,
                },
                ctx,
            };
            assert!(matches!(
                probe.pull(&table, false),
                Err(RuntimeError::Spill(_))
            ));
        });
    }

    #[test]
    fn a_nested_loop_inner_record_without_a_frame_is_a_spill_error() {
        with_test_ctx(|ctx| {
            let left: Bag = [one_struct()].into_iter().collect();
            let mut cursor = NestedLoopCursor {
                left: Outer::new(Box::new(ScanCursor::new(&left)), ctx.batch_rows),
                right_input: None,
                right: spilled_inner(&[]),
                predicate: None,
                ctx,
            };
            let mut out = Vec::new();
            assert!(matches!(
                cursor.next_batch(&mut out, 8),
                Err(RuntimeError::Spill(_))
            ));
        });
    }

    #[test]
    fn a_merge_tuples_inner_record_not_of_one_value_is_a_spill_error() {
        for record in [vec![], vec![one_struct(), one_struct()]] {
            with_test_ctx(|ctx| {
                let left: Bag = [one_struct()].into_iter().collect();
                let mut cursor = MergeTuplesCursor {
                    left: Outer::new(Box::new(ScanCursor::new(&left)), ctx.batch_rows),
                    right_input: None,
                    right: spilled_inner(&record),
                    on: &[],
                    ctx,
                };
                let mut out = Vec::new();
                assert!(
                    matches!(cursor.next_batch(&mut out, 8), Err(RuntimeError::Spill(_))),
                    "{record:?}"
                );
            });
        }
    }
}

//! Pipeline-breaking sinks: distinct and aggregates.
//!
//! Distinct streams its *output* — a row is emitted the moment it turns
//! out to be new — but buffers the set of values already seen, which is
//! what makes it a (partial) pipeline breaker.  Duplicate rows are
//! rejected on a borrowed hash lookup without ever cloning the value.
//! Aggregates fold their whole input into one value with O(1) state; no
//! input bag is ever collected, so the only "materialized" row is the
//! single result.
//!
//! # Spilling (bounded memory budgets)
//!
//! Under a bounded [`MemoryBudget`](super::spill::MemoryBudget) the
//! distinct seen-set charges every value it retains.  When the budget
//! trips, the operator goes Grace: the resident seen-set is dumped to 8
//! hash-routed disk runs (these values were already emitted — on disk
//! they only serve to suppress later duplicates), the rest of the input
//! is routed to 8 matching candidate runs without any emission, and each
//! partition is then drained independently — reload its seen run, stream
//! its candidate run, emit values that are new.  A partition whose
//! reloaded (or growing) seen-set trips the budget again is re-split
//! with 3 fresh hash bits per level, so repeated duplicates of a heavy
//! value never force the whole set resident.  The emitted multiset, the
//! input error positions, and `rows_materialized` (one bump per distinct
//! value) are identical to the in-memory path; only the emission *order*
//! after the trip differs, which `distinct` — a bag operator — does not
//! promise.  Aggregates never spill: their state is O(1) regardless of
//! budget.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

use disco_algebra::{AggKind, AlgebraError};
use disco_value::{approx_value_bytes, Value};

use super::spill::{
    new_runs, spill_partition, RunFile, RunFileReader, MAX_SPILL_LEVEL, SPILL_FANOUT,
};
use super::{BoxedRowStream, PipelineCtx, Result, Row, RowStream};

/// Pass-through hasher for keys that already *are* hashes.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("identity hasher is only fed u64 keys");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// One seen-set bucket: values sharing a 64-bit hash (almost always one).
enum Bucket {
    One(Value),
    Many(Vec<Value>),
}

impl Bucket {
    fn contains(&self, value: &Value) -> bool {
        match self {
            Bucket::One(v) => v == value,
            Bucket::Many(vs) => vs.iter().any(|v| v == value),
        }
    }

    fn push(&mut self, value: Value) {
        match self {
            Bucket::One(first) => {
                *self = Bucket::Many(vec![std::mem::take(first), value]);
            }
            Bucket::Many(vs) => vs.push(value),
        }
    }
}

/// A set of values that computes each value's canonical hash — which
/// walks strings and structs, so it is the expensive part — exactly once
/// per probed row.  Buckets are keyed by the 64-bit hash through an
/// identity hasher; equality is only checked within a bucket.  A plain
/// `HashSet<Value>` hashes every *new* value twice (miss, then insert),
/// which dominates distinct-over-structs pipelines whose rows are mostly
/// unique.
#[derive(Default)]
pub(crate) struct SeenSet {
    hasher: RandomState,
    buckets: HashMap<u64, Bucket, BuildHasherDefault<IdentityHasher>>,
}

impl SeenSet {
    /// A seen-set that buckets with a caller-supplied hasher — used by the
    /// parallel distinct shards, which route rows to shards and bucket
    /// them inside the shard off one and the same hash computation.
    pub(crate) fn with_hasher(hasher: RandomState) -> Self {
        SeenSet {
            hasher,
            buckets: HashMap::default(),
        }
    }

    /// The canonical hash this set buckets `value` under.
    pub(crate) fn hash_of(&self, value: &Value) -> u64 {
        self.hasher.hash_one(value)
    }

    /// Returns the value's hash when it has not been seen, `None` when it
    /// is a duplicate.  Borrow-only — no clone either way.
    pub(crate) fn check(&self, value: &Value) -> Option<u64> {
        let hash = self.hash_of(value);
        if self.check_hashed(hash, value) {
            Some(hash)
        } else {
            None
        }
    }

    /// Like [`SeenSet::check`] with the hash precomputed (`true` = new).
    /// The hash must come from this set's hasher ([`SeenSet::hash_of`] or
    /// a clone of the [`RandomState`] it was built with).
    pub(crate) fn check_hashed(&self, hash: u64, value: &Value) -> bool {
        match self.buckets.get(&hash) {
            Some(bucket) => !bucket.contains(value),
            None => true,
        }
    }

    /// Records a value under the hash [`SeenSet::check`] returned for it.
    pub(crate) fn insert_hashed(&mut self, hash: u64, value: Value) {
        match self.buckets.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut entry) => entry.get_mut().push(value),
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(Bucket::One(value));
            }
        }
    }

    /// Moves every stored value out of the set, leaving it empty.  The
    /// spill path uses this to dump the resident set into hash-routed
    /// disk runs when the memory budget trips.
    fn drain_values(&mut self) -> Vec<Value> {
        let mut out = Vec::new();
        for (_, bucket) in self.buckets.drain() {
            match bucket {
                Bucket::One(v) => out.push(v),
                Bucket::Many(vs) => out.extend(vs),
            }
        }
        out
    }
}

/// Approximate resident bytes of one seen-set entry: the stored value's
/// payload plus the bucket-map slot holding it.
fn entry_cost(value: &Value) -> usize {
    std::mem::size_of::<(u64, Bucket)>() + approx_value_bytes(value)
}

/// Emits each distinct value once, preserving first-occurrence order
/// while in memory; after a budget trip, partition-major order.
pub(crate) struct DistinctCursor<'a> {
    input: BoxedRowStream<'a>,
    seen: SeenSet,
    ctx: PipelineCtx<'a>,
    scratch: Vec<Row<'a>>,
    /// Bytes charged against the budget for the resident seen-set.
    charged: usize,
    /// Set when a charge fails; the next pull enters the spill path.
    /// Trips are acted on per admitted value — a batch stops admitting
    /// mid-way — so the resident overshoot is at most one entry.
    tripped: bool,
    /// Rows pulled from the input but not yet admitted when a trip cut a
    /// batch short; the spill transition routes them as candidates ahead
    /// of the rest of the input.
    pending: Vec<Row<'a>>,
    spill: Option<DistinctSpill>,
}

/// Grace state of a spilled distinct: hash-partitioned seen/candidate
/// run pairs plus the partition currently being drained.
struct DistinctSpill {
    /// Partition router, independent of every seen-set's bucket hasher.
    route: RandomState,
    queue: VecDeque<DistinctPartition>,
    current: Option<PartitionDrain>,
}

/// One on-disk partition: the values already emitted for it (if any) and
/// the candidate values still to be deduplicated.
struct DistinctPartition {
    seen: Option<RunFileReader>,
    input: RunFileReader,
    level: u32,
}

/// A partition being drained: its reloaded (and growing) seen-set and
/// the candidate run it is streaming.
struct PartitionDrain {
    seen: SeenSet,
    input: RunFileReader,
    charged: usize,
    level: u32,
    /// Set when the growing seen-set trips the budget mid-stream; the
    /// next pull re-splits this partition instead of continuing.
    resplit: bool,
}

/// Either a partition small enough to drain, or its re-split children.
enum LoadedDistinct {
    Drain(PartitionDrain),
    Split(Vec<DistinctPartition>),
}

impl<'a> DistinctCursor<'a> {
    pub(crate) fn new(input: BoxedRowStream<'a>, ctx: PipelineCtx<'a>) -> Self {
        DistinctCursor {
            input,
            seen: SeenSet::default(),
            ctx,
            scratch: Vec::new(),
            charged: 0,
            tripped: false,
            pending: Vec::new(),
            spill: None,
        }
    }

    /// Admits a row if its value has not been seen: every row pays one
    /// hash computation; duplicates are rejected on a borrowed lookup
    /// without any clone; new values are copied once into the seen-set
    /// (an `Arc` bump).
    fn admit(&mut self, row: Row<'a>) -> Result<Option<Row<'a>>> {
        let (hash, value) = if let Some(value) = row.single_value() {
            let Some(hash) = self.seen.check(value) else {
                return Ok(None);
            };
            (hash, row.materialize(self.ctx.metrics)?)
        } else {
            // Join rows must be merged before they can be compared.
            let value = row.materialize(self.ctx.metrics)?;
            let Some(hash) = self.seen.check(&value) else {
                return Ok(None);
            };
            (hash, value)
        };
        // The seen-set keeps one copy per distinct value — the operator's
        // entire buffered state.
        self.seen.insert_hashed(hash, value.clone());
        if self.ctx.budget.is_bounded() {
            let cost = entry_cost(&value);
            self.charged += cost;
            if !self.ctx.budget.charge(cost) {
                self.tripped = true;
            }
        }
        self.ctx.metrics.bump_materialized();
        Ok(Some(Row::owned(value)))
    }

    /// Transitions to the Grace path: dumps the resident seen-set into 8
    /// hash-routed runs (no re-emission — these values already went
    /// downstream), then routes the *entire* rest of the input into 8
    /// matching candidate runs.  Join rows are merged here exactly where
    /// the in-memory loop would merge them, so `rows_merged` and the
    /// positions of input errors are unchanged.
    fn enter_spill(&mut self) -> Result<()> {
        let route = RandomState::new();
        let mut seen_runs = new_runs()?;
        for value in self.seen.drain_values() {
            let p = spill_partition(route.hash_one(&value), 0);
            seen_runs[p].push(std::slice::from_ref(&value))?;
        }
        self.ctx.budget.uncharge(self.charged);
        self.charged = 0;
        let mut input_runs = new_runs()?;
        // Rows a trip cut out of their batch come first: they were read
        // from the input before anything still buffered there.
        for row in std::mem::take(&mut self.pending) {
            let value = row.materialize(self.ctx.metrics)?;
            let p = spill_partition(route.hash_one(&value), 0);
            input_runs[p].push(std::slice::from_ref(&value))?;
        }
        let mut buf = std::mem::take(&mut self.scratch);
        loop {
            buf.clear();
            let more = self.input.next_batch(&mut buf, self.ctx.batch_rows)?;
            for row in buf.drain(..) {
                let value = row.materialize(self.ctx.metrics)?;
                let p = spill_partition(route.hash_one(&value), 0);
                input_runs[p].push(std::slice::from_ref(&value))?;
            }
            if !more {
                break;
            }
        }
        self.scratch = buf;
        let bytes: u64 = seen_runs.iter().map(RunFile::bytes).sum::<u64>()
            + input_runs.iter().map(RunFile::bytes).sum::<u64>();
        self.ctx.metrics.add_bytes_spilled(bytes);
        self.ctx.metrics.add_spill_partitions(SPILL_FANOUT);
        let mut queue = VecDeque::new();
        for (seen, input) in seen_runs.into_iter().zip(input_runs) {
            // A partition with no candidates has nothing left to emit —
            // its seen values already went downstream.
            if input.rows() == 0 {
                continue;
            }
            queue.push_back(DistinctPartition {
                seen: (seen.rows() > 0).then(|| seen.into_reader()).transpose()?,
                input: input.into_reader()?,
                level: 0,
            });
        }
        self.spill = Some(DistinctSpill {
            route,
            queue,
            current: None,
        });
        Ok(())
    }

    /// Produces the next new value from the spilled partitions,
    /// re-splitting any partition whose seen-set cannot fit the budget.
    fn next_spilled(&mut self) -> Result<Option<Row<'a>>> {
        if self.spill.is_none() {
            self.enter_spill()?;
        }
        let ctx = self.ctx;
        let spill = self.spill.as_mut().expect("entered above");
        loop {
            if let Some(part) = spill.current.as_mut() {
                if part.resplit {
                    let part = spill.current.take().expect("checked above");
                    let children = split_distinct(
                        ctx,
                        &spill.route,
                        part.seen,
                        part.charged,
                        None,
                        part.input,
                        part.level,
                    )?;
                    // Depth-first: finish this partition's children before
                    // the siblings, keeping few run files live at once.
                    for child in children.into_iter().rev() {
                        spill.queue.push_front(child);
                    }
                    continue;
                }
                let Some(mut rec) = part.input.next_record()? else {
                    let part = spill.current.take().expect("checked above");
                    ctx.budget.uncharge(part.charged);
                    continue;
                };
                let value = rec.pop().unwrap_or(Value::Null);
                let Some(hash) = part.seen.check(&value) else {
                    continue;
                };
                let cost = entry_cost(&value);
                let within = ctx.budget.charge(cost);
                part.charged += cost;
                part.seen.insert_hashed(hash, value.clone());
                // A candidate surviving the seen run is a value the
                // in-memory path would have admitted: bump exactly once.
                ctx.metrics.bump_materialized();
                if !within && part.level < MAX_SPILL_LEVEL {
                    part.resplit = true;
                }
                return Ok(Some(Row::owned(value)));
            }
            let Some(part) = spill.queue.pop_front() else {
                return Ok(None);
            };
            match load_distinct(ctx, &spill.route, part)? {
                LoadedDistinct::Drain(drain) => spill.current = Some(drain),
                LoadedDistinct::Split(children) => {
                    for child in children.into_iter().rev() {
                        spill.queue.push_front(child);
                    }
                }
            }
        }
    }
}

impl<'a> RowStream<'a> for DistinctCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        loop {
            if self.spill.is_some() || self.tripped {
                return self.next_spilled().transpose();
            }
            let row = match self.input.next_row()? {
                Ok(row) => row,
                Err(err) => return Some(Err(err)),
            };
            match self.admit(row) {
                Ok(Some(row)) => return Some(Ok(row)),
                Ok(None) => {}
                Err(err) => return Some(Err(err)),
            }
        }
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        if self.spill.is_some() || self.tripped {
            while out.len() < max {
                match self.next_spilled()? {
                    Some(row) => out.push(row),
                    None => return Ok(false),
                }
            }
            return Ok(true);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let more = self.input.next_batch(&mut scratch, max)?;
        let mut rows = scratch.drain(..);
        for row in rows.by_ref() {
            if let Some(row) = self.admit(row)? {
                out.push(row);
            }
            // Act on a trip immediately: the rest of the batch is routed
            // through the spill path, keeping the resident overshoot to
            // at most one entry.
            if self.tripped {
                break;
            }
        }
        self.pending.extend(rows);
        self.scratch = scratch;
        // A trip with the input fully admitted needs no spill: every
        // distinct value is already out the door.
        if !more && self.pending.is_empty() {
            self.tripped = false;
        }
        Ok(more || !self.pending.is_empty())
    }
}

/// Reloads a partition's seen run into a fresh in-memory set, charging
/// per value (no `rows_materialized` bumps — these were counted when
/// first admitted).  If the reload itself trips the budget the partition
/// is re-split with fresh hash bits instead; past the deepest level it
/// loads whole, overcommitting the budget rather than looping.
fn load_distinct(
    ctx: PipelineCtx<'_>,
    route: &RandomState,
    part: DistinctPartition,
) -> Result<LoadedDistinct> {
    let DistinctPartition {
        seen: seen_run,
        input,
        level,
    } = part;
    let mut seen = SeenSet::default();
    let mut charged = 0usize;
    if let Some(mut run) = seen_run {
        while let Some(mut rec) = run.next_record()? {
            let value = rec.pop().unwrap_or(Value::Null);
            let cost = entry_cost(&value);
            let within = ctx.budget.charge(cost);
            charged += cost;
            // Seen runs hold values dumped from a set, so they are
            // already unique: insert without probing.
            let hash = seen.hash_of(&value);
            seen.insert_hashed(hash, value);
            if !within && level < MAX_SPILL_LEVEL {
                return split_distinct(ctx, route, seen, charged, Some(run), input, level)
                    .map(LoadedDistinct::Split);
            }
        }
    }
    Ok(LoadedDistinct::Drain(PartitionDrain {
        seen,
        input,
        charged,
        level,
        resplit: false,
    }))
}

/// Re-splits one partition a level deeper: the in-memory seen values,
/// the unread rest of the seen run (when the trip hit during reload),
/// and the candidate run are all re-routed on 3 fresh hash bits.
fn split_distinct(
    ctx: PipelineCtx<'_>,
    route: &RandomState,
    mut seen: SeenSet,
    charged: usize,
    seen_rest: Option<RunFileReader>,
    mut input: RunFileReader,
    level: u32,
) -> Result<Vec<DistinctPartition>> {
    let next = level + 1;
    let mut seen_runs = new_runs()?;
    for value in seen.drain_values() {
        let p = spill_partition(route.hash_one(&value), next);
        seen_runs[p].push(std::slice::from_ref(&value))?;
    }
    if let Some(mut rest) = seen_rest {
        while let Some(rec) = rest.next_record()? {
            let p = spill_partition(route.hash_one(&rec[0]), next);
            seen_runs[p].push(&rec)?;
        }
    }
    ctx.budget.uncharge(charged);
    let mut input_runs = new_runs()?;
    while let Some(rec) = input.next_record()? {
        let p = spill_partition(route.hash_one(&rec[0]), next);
        input_runs[p].push(&rec)?;
    }
    let bytes: u64 = seen_runs.iter().map(RunFile::bytes).sum::<u64>()
        + input_runs.iter().map(RunFile::bytes).sum::<u64>();
    ctx.metrics.add_bytes_spilled(bytes);
    ctx.metrics.add_spill_partitions(SPILL_FANOUT);
    let mut children = Vec::new();
    for (seen, input) in seen_runs.into_iter().zip(input_runs) {
        if input.rows() == 0 {
            continue;
        }
        children.push(DistinctPartition {
            seen: (seen.rows() > 0).then(|| seen.into_reader()).transpose()?,
            input: input.into_reader()?,
            level: next,
        });
    }
    Ok(children)
}

/// Folds the whole input into one aggregate value (`mkagg`).
pub(crate) struct AggregateCursor<'a> {
    input: Option<BoxedRowStream<'a>>,
    func: AggKind,
    ctx: PipelineCtx<'a>,
}

impl<'a> AggregateCursor<'a> {
    pub(crate) fn new(input: BoxedRowStream<'a>, func: AggKind, ctx: PipelineCtx<'a>) -> Self {
        AggregateCursor {
            input: Some(input),
            func,
            ctx,
        }
    }
}

impl<'a> RowStream<'a> for AggregateCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        let input = self.input.take()?;
        Some(fold_aggregate(self.func, input, self.ctx).map(Row::owned))
    }
}

/// Mergeable aggregate accumulator, mirroring `AggKind::apply`'s
/// semantics (numeric promotion, empty-input results, first-minimum /
/// last-maximum tie-breaking) with O(1) state.
///
/// The serial [`AggregateCursor`] folds its whole input into one state;
/// the parallel engine folds one state **per morsel** and merges them in
/// morsel order at the barrier, which keeps the result independent of
/// which worker processed which morsel: counts and integer sums are
/// associative, and the ordered merge preserves the first-minimum /
/// last-maximum tie-breaking of the serial fold.  (Float sums merge
/// partial sums, so they can differ from the serial fold in the last
/// bits — but deterministically so at a fixed thread count.)
pub(crate) struct AggState {
    func: AggKind,
    count: usize,
    acc: f64,
    all_int: bool,
    best: Option<Value>,
}

impl AggState {
    pub(crate) fn new(func: AggKind) -> Self {
        AggState {
            func,
            count: 0,
            acc: 0.0,
            all_int: true,
            best: None,
        }
    }

    /// Folds one value into the state.
    pub(crate) fn update(&mut self, value: &Value) -> Result<()> {
        self.count += 1;
        match self.func {
            AggKind::Count => {}
            AggKind::Sum => {
                if matches!(value, Value::Float(_)) {
                    self.all_int = false;
                }
                self.acc += value.as_float().map_err(|_| {
                    AlgebraError::Type(format!("sum over non-numeric value {value}"))
                })?;
            }
            AggKind::Avg => {
                self.acc += value.as_float().map_err(|_| {
                    AlgebraError::Type(format!("avg over non-numeric value {value}"))
                })?;
            }
            AggKind::Min => match &self.best {
                Some(b) if value.total_cmp(b) != std::cmp::Ordering::Less => {}
                _ => self.best = Some(value.clone()),
            },
            AggKind::Max => match &self.best {
                Some(b) if value.total_cmp(b) == std::cmp::Ordering::Less => {}
                _ => self.best = Some(value.clone()),
            },
        }
        Ok(())
    }

    /// Merges a state folded over a **later** stretch of the input into
    /// `self`.  Merging per-morsel states in morsel order reproduces the
    /// serial fold's tie-breaking: an equal minimum in a later morsel
    /// loses, an equal maximum wins.
    pub(crate) fn merge(&mut self, later: AggState) {
        self.count += later.count;
        self.acc += later.acc;
        self.all_int &= later.all_int;
        if let Some(candidate) = later.best {
            match (&self.best, self.func) {
                (None, _) => self.best = Some(candidate),
                (Some(b), AggKind::Min) if candidate.total_cmp(b) == std::cmp::Ordering::Less => {
                    self.best = Some(candidate);
                }
                (Some(b), AggKind::Max) if candidate.total_cmp(b) != std::cmp::Ordering::Less => {
                    self.best = Some(candidate);
                }
                _ => {}
            }
        }
    }

    /// The aggregate's final value.
    pub(crate) fn finish(self) -> Value {
        match self.func {
            AggKind::Count => Value::Int(i64::try_from(self.count).unwrap_or(i64::MAX)),
            #[allow(clippy::cast_possible_truncation)]
            AggKind::Sum => {
                if self.all_int {
                    Value::Int(self.acc as i64)
                } else {
                    Value::Float(self.acc)
                }
            }
            AggKind::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    #[allow(clippy::cast_precision_loss)]
                    Value::Float(self.acc / self.count as f64)
                }
            }
            AggKind::Min | AggKind::Max => self.best.unwrap_or(Value::Null),
        }
    }
}

/// Incrementally computes an aggregate over a stream without building the
/// input bag.  Rows are consumed by reference; only a min/max champion is
/// ever cloned.
fn fold_aggregate(
    func: AggKind,
    mut input: BoxedRowStream<'_>,
    ctx: PipelineCtx<'_>,
) -> Result<Value> {
    let mut state = AggState::new(func);
    let mut buf = Vec::with_capacity(ctx.batch_rows);
    loop {
        let more = input.next_batch(&mut buf, ctx.batch_rows)?;
        for row in buf.drain(..) {
            let merged;
            let value: &Value = match row.single_value() {
                Some(value) => value,
                None => {
                    merged = row.materialize(ctx.metrics)?;
                    &merged
                }
            };
            state.update(value)?;
        }
        if !more {
            break;
        }
    }
    Ok(state.finish())
}

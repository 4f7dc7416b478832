//! Pipeline-breaking sinks: distinct and aggregates.
//!
//! Each exists once and consumes [`Batch`]es from a [`BatchSource`] —
//! columnar when the input fuses, a row cursor's batches otherwise.
//! Distinct streams its *output* — a row is emitted the moment it turns
//! out to be new — but buffers the set of values already seen, which is
//! what makes it a (partial) pipeline breaker.  Duplicate rows are
//! rejected on a borrowed hash lookup without ever cloning the value; a
//! batch of struct columns (a fused `struct(...)` projection) is hashed
//! and compared on its columns, and only the structs that turn out new
//! are built — under a budget too, where each one is charged as it is
//! kept.  Aggregates fold their whole input into one value with O(1) state
//! ([`AggState`]); no input bag is ever collected, so the only
//! "materialized" row is the single result.
//!
//! # Spilling (bounded memory budgets)
//!
//! Under a bounded [`MemoryBudget`](super::spill::MemoryBudget) the
//! distinct seen-set charges every value it retains.  When the budget
//! trips, the operator goes [`Grace`]: the resident seen-set is dumped to
//! 8 hash-routed disk runs (these values were already emitted — on disk
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
//!
//! Outside tests this module denies `unwrap`, `expect`, `panic!` and
//! `unreachable!`: a condition that cannot hold is a matched state or a
//! typed [`RuntimeError`].
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

use disco_algebra::{AggKind, AggState, EvalVec};
use disco_value::{approx_value_bytes, Value};

use super::columnar::{Batch, BatchSource};
use super::spill::{can_split, Grace, Loaded, Resident, RunFileReader};
use super::{Frame, PipelineCtx, PipelineMetrics, Result, Row, RowStream};
use crate::RuntimeError;

/// Pass-through hasher for keys that already *are* hashes.  Bytes fed
/// any other way (no key here is) are folded in FNV-1a style, so the
/// hasher is total.
#[derive(Default)]
pub(crate) struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
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
    fn contains(&self, mut equal: impl FnMut(&Value) -> bool) -> bool {
        match self {
            Bucket::One(v) => equal(v),
            Bucket::Many(vs) => vs.iter().any(equal),
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

/// A set of values probed with a precomputed canonical hash — computing
/// it walks strings and structs, so it is the expensive part, and
/// [`admit`] does it exactly once per probed row.  Buckets are keyed by
/// the 64-bit hash through an identity hasher; equality is only checked
/// within a bucket.  A plain `HashSet<Value>` hashes every *new* value
/// twice (miss, then insert), which dominates distinct-over-structs
/// pipelines whose rows are mostly unique.
pub(crate) struct SeenSet {
    hasher: RandomState,
    buckets: HashMap<u64, Bucket, BuildHasherDefault<IdentityHasher>>,
}

impl SeenSet {
    /// A seen-set bucketing hashes of `hasher`.
    pub(crate) fn with_hasher(hasher: RandomState) -> Self {
        SeenSet {
            hasher,
            buckets: HashMap::default(),
        }
    }

    /// Whether no value stored under `hash` is `equal` to the candidate
    /// (`true` = new).  Borrow-only — no clone either way.  The hash must
    /// come from a clone of the [`RandomState`] the set was built with.
    fn check_hashed(&self, hash: u64, equal: impl FnMut(&Value) -> bool) -> bool {
        self.buckets
            .get(&hash)
            .is_none_or(|bucket| !bucket.contains(equal))
    }

    /// Records a value under its hash.
    fn insert_hashed(&mut self, hash: u64, value: Value) {
        match self.buckets.entry(hash) {
            std::collections::hash_map::Entry::Occupied(mut entry) => entry.get_mut().push(value),
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert(Bucket::One(value));
            }
        }
    }
}

/// The one value of a distinct's spill record — resident or candidate.
fn record_value(record: Vec<Value>) -> Result<Value> {
    let [value] = <[Value; 1]>::try_from(record).map_err(|record| {
        RuntimeError::Spill(format!(
            "a distinct spill record holds one value, not {}",
            record.len()
        ))
    })?;
    Ok(value)
}

impl Resident for SeenSet {
    fn load(&mut self, record: Vec<Value>) -> Result<usize> {
        let value = record_value(record)?;
        let cost = entry_cost(&value);
        // Resident runs hold values dumped from a set, so they are
        // already unique: insert without probing.
        self.insert_hashed(self.hasher.hash_one(&value), value);
        Ok(cost)
    }

    fn unload(&mut self, sink: &mut dyn FnMut(&[Value]) -> Result<()>) -> Result<()> {
        for (_, bucket) in self.buckets.drain() {
            match bucket {
                Bucket::One(v) => sink(std::slice::from_ref(&v))?,
                Bucket::Many(vs) => vs.iter().try_for_each(|v| sink(std::slice::from_ref(v)))?,
            }
        }
        Ok(())
    }
}

/// Approximate resident bytes of one seen-set entry: the stored value's
/// payload plus the bucket-map slot holding it.
fn entry_cost(value: &Value) -> usize {
    std::mem::size_of::<(u64, Bucket)>() + approx_value_bytes(value)
}

/// The one distinct admission: every row pays one hash computation; a
/// duplicate is rejected on a borrowed lookup without any clone; a new
/// value is copied once into `seen` (an `Arc` bump), bumps
/// `rows_materialized`, and is returned.
// Forced inline: left to itself the compiler keeps this call (and its
// `Result<Option<_>>`) out of line in the cursor's per-row loop, which
// measures ~10 % on E9 `union8_distinct`.
#[inline(always)]
fn admit(row: Row<'_>, metrics: &PipelineMetrics, seen: &mut SeenSet) -> Result<Option<Value>> {
    // Join rows must be merged before they can be compared.
    let candidate = match row {
        Row::One(frame) => frame,
        joined => Frame::Owned(joined.materialize(metrics)?),
    };
    let hash = seen.hasher.hash_one(candidate.value());
    if !seen.check_hashed(hash, |stored| stored == candidate.value()) {
        return Ok(None);
    }
    Ok(Some(keep(seen, hash, candidate.into_value(), metrics)))
}

/// [`admit`] on the columns, for the `i`-th struct of a struct result
/// vector whose canonical hash is `hash`: the lookup compares the stored
/// values with the struct's fields in place, so the struct is built only
/// if it is new.
#[inline(always)]
fn admit_struct(
    result: &EvalVec,
    i: usize,
    hash: u64,
    metrics: &PipelineMetrics,
    seen: &mut SeenSet,
) -> Option<Value> {
    if !seen.check_hashed(hash, |stored| result.struct_eq_at(i, stored)) {
        return None;
    }
    Some(keep(seen, hash, result.value_at(i), metrics))
}

/// Records a new value: the seen-set keeps one copy per distinct value —
/// the operator's entire buffered state — and `rows_materialized` counts
/// it.
fn keep(seen: &mut SeenSet, hash: u64, value: Value, metrics: &PipelineMetrics) -> Value {
    seen.insert_hashed(hash, value.clone());
    metrics.bump_materialized();
    value
}

/// Emits each distinct value once, preserving first-occurrence order
/// while in memory; after a budget trip, partition-major order.
pub(crate) struct DistinctCursor<'a> {
    source: BatchSource<'a>,
    /// Candidates of the current source batch not yet looked at — a full
    /// output batch or a budget trip can cut a batch short.
    batch: Batch<'a>,
    /// The canonical hashes of `batch`'s structs when it is a struct
    /// result vector, indexed like the vector.
    hashes: Vec<u64>,
    hasher: RandomState,
    /// The resident seen-set, or that of the Grace partition being
    /// drained.
    seen: SeenSet,
    /// Bytes charged against the budget for `seen`.
    charged: usize,
    /// Set when a charge fails; the next pull spills (or re-splits the
    /// current partition).  Trips are acted on per admitted value, so the
    /// resident overshoot is at most one entry.
    tripped: bool,
    /// `Some` once the seen-set tripped the budget.
    grace: Option<Grace>,
    /// The candidate run and hash level of the partition being drained.
    partition: Option<(RunFileReader, u32)>,
    ctx: PipelineCtx<'a>,
}

impl<'a> DistinctCursor<'a> {
    pub(crate) fn new(source: BatchSource<'a>, ctx: PipelineCtx<'a>) -> Self {
        let hasher = RandomState::new();
        DistinctCursor {
            source,
            batch: Batch::default(),
            hashes: Vec::new(),
            seen: SeenSet::with_hasher(hasher.clone()),
            hasher,
            charged: 0,
            tripped: false,
            grace: None,
            partition: None,
            ctx,
        }
    }

    /// [`admit`] into the current seen-set, and [`Self::emit`] the row if
    /// it is new.
    #[inline(always)]
    fn admit(&mut self, row: Row<'a>, out: &mut Vec<Row<'a>>) -> Result<()> {
        if let Some(value) = admit(row, self.ctx.metrics, &mut self.seen)? {
            self.emit(value, out);
        }
        Ok(())
    }

    /// Charges the budget for a value the seen-set now retains and emits
    /// it.
    #[inline(always)]
    fn emit(&mut self, value: Value, out: &mut Vec<Row<'a>>) {
        let budget = self.ctx.budget;
        if !budget.charge_with(&mut self.charged, || entry_cost(&value)) {
            // Past the deepest level a partition stays whole and the
            // budget overcommits rather than looping.
            self.tripped = self
                .partition
                .as_ref()
                .is_none_or(|(_, level)| can_split(*level));
        }
        out.push(Row::owned(value));
    }

    /// Transitions to the Grace path: dumps the resident seen-set into
    /// the resident runs (no re-emission — these values already went
    /// downstream), then routes the *entire* rest of the input into the
    /// candidate runs.  Join rows are merged here exactly where the
    /// in-memory loop would merge them, so `rows_merged` and the
    /// positions of input errors are unchanged.
    fn enter_spill(&mut self) -> Result<()> {
        let ctx = self.ctx;
        self.tripped = false;
        // A trip with the input fully admitted needs no spill: every
        // distinct value is already out the door.
        while self.batch.is_empty() {
            match self.source.next_chunk(ctx.batch_rows)? {
                Some(batch) => self.batch = batch,
                None => return Ok(()),
            }
        }
        let mut grace = Grace::new(false);
        let mut fan = grace.fanout(0)?;
        self.seen.unload(&mut |record| fan.push_resident(record))?;
        ctx.budget.uncharge(std::mem::take(&mut self.charged));
        loop {
            for row in self.batch.by_ref() {
                let value = row.materialize(ctx.metrics)?;
                fan.push_streamed(std::slice::from_ref(&value))?;
            }
            match self.source.next_chunk(ctx.batch_rows)? {
                Some(batch) => self.batch = batch,
                None => break,
            }
        }
        grace.finish(fan, ctx.metrics)?;
        self.grace = Some(grace);
        Ok(())
    }

    /// Emits new values from the spilled partitions of `grace`,
    /// re-splitting any partition whose seen-set cannot fit the budget.
    fn drain_partitions(
        &mut self,
        grace: &mut Grace,
        out: &mut Vec<Row<'a>>,
        max: usize,
    ) -> Result<bool> {
        let ctx = self.ctx;
        let hasher = self.hasher.clone();
        let fresh = || SeenSet::with_hasher(hasher.clone());
        let start = out.len();
        while out.len() - start < max {
            // A trip past the spill is only ever set by an admission from
            // a partition's candidate run: the partition's growing
            // seen-set tripped the budget mid-stream, so re-split what is
            // left of it.
            if std::mem::take(&mut self.tripped) {
                if let Some((streamed, level)) = self.partition.take() {
                    let loaded = Loaded {
                        state: std::mem::replace(&mut self.seen, fresh()),
                        streamed,
                        charged: std::mem::take(&mut self.charged),
                        level,
                    };
                    grace.resplit(loaded, None, ctx)?;
                }
            }
            let Some((run, _)) = &mut self.partition else {
                let Some(loaded) = grace.load_next(fresh, ctx)? else {
                    return Ok(false);
                };
                self.seen = loaded.state;
                self.charged = loaded.charged;
                self.partition = Some((loaded.streamed, loaded.level));
                continue;
            };
            match run.next_record()? {
                // A candidate surviving the seen run is a value the
                // in-memory path would have admitted.
                Some(record) => {
                    let value = record_value(record)?;
                    self.admit(Row::owned(value), out)?;
                }
                None => {
                    ctx.budget.uncharge(std::mem::take(&mut self.charged));
                    self.seen = fresh();
                    self.partition = None;
                }
            }
        }
        Ok(true)
    }
}

impl<'a> RowStream<'a> for DistinctCursor<'a> {
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        if self.tripped && self.grace.is_none() {
            self.enter_spill()?;
        }
        if let Some(mut grace) = self.grace.take() {
            let more = self.drain_partitions(&mut grace, out, max);
            self.grace = Some(grace);
            return more;
        }
        // In memory: one source batch per pull, so rows reach the consumer
        // as soon as their batch is through.
        if self.batch.is_empty() {
            let Some(batch) = self.source.next_chunk(max)? else {
                return Ok(false);
            };
            if let Batch::Mapped(result, range) = &batch {
                self.hashes.clear();
                result.struct_hashes(&self.hasher, range.end, &mut self.hashes);
            }
            self.batch = batch;
        }
        let start = out.len();
        match std::mem::take(&mut self.batch) {
            // Struct columns: hashed once per batch (above),
            // compared in place, built only when new.
            Batch::Mapped(result @ EvalVec::Struct(_), mut range) => {
                while out.len() - start < max && !self.tripped {
                    let Some(i) = range.next() else {
                        break;
                    };
                    let hash = self.hashes[i];
                    if let Some(value) =
                        admit_struct(&result, i, hash, self.ctx.metrics, &mut self.seen)
                    {
                        self.emit(value, out);
                    }
                }
                self.batch = Batch::Mapped(result, range);
            }
            rows => {
                self.batch = rows;
                while out.len() - start < max && !self.tripped {
                    let Some(row) = self.batch.next() else {
                        break;
                    };
                    self.admit(row, out)?;
                }
            }
        }
        Ok(true)
    }
}

/// Folds the whole input into one aggregate value (`mkagg`).
pub(crate) struct AggregateCursor<'a> {
    source: Option<BatchSource<'a>>,
    func: AggKind,
    ctx: PipelineCtx<'a>,
}

impl<'a> AggregateCursor<'a> {
    pub(crate) fn new(source: BatchSource<'a>, func: AggKind, ctx: PipelineCtx<'a>) -> Self {
        AggregateCursor {
            source: Some(source),
            func,
            ctx,
        }
    }
}

impl<'a> RowStream<'a> for AggregateCursor<'a> {
    /// The one row, and the end.
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, _max: usize) -> Result<bool> {
        if let Some(source) = self.source.take() {
            out.push(Row::owned(
                fold_aggregate(self.func, source, self.ctx)?.finish(),
            ));
        }
        Ok(false)
    }
}

/// The one aggregate fold: incrementally folds a batch source into an
/// [`AggState`] without building the input bag (and without bumping any
/// metric).  A null-free integer result vector folds as one run
/// ([`AggState::update_ints`]), borrowed values one by one, and rows by
/// reference — a join row is merged first; only a min/max champion is
/// ever cloned.
fn fold_aggregate(
    func: AggKind,
    mut source: BatchSource<'_>,
    ctx: PipelineCtx<'_>,
) -> Result<AggState> {
    let mut state = AggState::new(func);
    while let Some(batch) = source.next_chunk(ctx.batch_rows)? {
        match batch {
            Batch::Mapped(EvalVec::Int { data, nulls: None }, range) => {
                state.update_ints(&data[range])?;
            }
            Batch::Proj(values) => {
                for value in values {
                    state.update(value)?;
                }
            }
            rows => {
                for row in rows {
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
            }
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use std::hash::{Hash, Hasher, RandomState};

    use disco_value::Value;

    use super::{BatchSource, DistinctCursor, IdentityHasher, Resident, SeenSet};
    use crate::pipeline::spill::{Grace, RunFile};
    use crate::pipeline::{with_test_ctx, Result, Row, RowStream};
    use crate::RuntimeError;

    /// A row stream with no rows.
    struct NoRows;

    impl<'a> RowStream<'a> for NoRows {
        fn next_batch(&mut self, _out: &mut Vec<Row<'a>>, _max: usize) -> Result<bool> {
            Ok(false)
        }
    }

    #[test]
    fn a_resident_record_without_a_value_is_a_spill_error() {
        let mut seen = SeenSet::with_hasher(RandomState::new());
        for record in [vec![], vec![Value::Int(1), Value::Int(2)]] {
            assert!(matches!(seen.load(record), Err(RuntimeError::Spill(_))));
        }
        assert!(seen.buckets.is_empty(), "nothing was kept");
    }

    #[test]
    fn a_candidate_record_without_a_value_is_a_spill_error() {
        with_test_ctx(|ctx| {
            let mut cursor = DistinctCursor::new(BatchSource::rows(Box::new(NoRows)), ctx);
            let mut run = RunFile::create().unwrap();
            run.push(&[]).unwrap();
            cursor.grace = Some(Grace::new(false));
            cursor.partition = Some((run.into_reader().unwrap(), 0));
            let mut out = Vec::new();
            assert!(matches!(
                cursor.next_batch(&mut out, 8),
                Err(RuntimeError::Spill(_))
            ));
            assert!(out.is_empty(), "nothing was emitted");
        });
    }

    fn hash_of(key: impl Hash) -> u64 {
        let mut hasher = IdentityHasher::default();
        key.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn identity_hasher_passes_u64_keys_through() {
        assert_eq!(hash_of(0xDEAD_BEEF_u64), 0xDEAD_BEEF);
    }

    #[test]
    fn identity_hasher_folds_bytes_instead_of_panicking() {
        let mut hasher = IdentityHasher::default();
        hasher.write(b"disco");
        let folded = hasher.finish();
        assert_ne!(folded, 0);
        assert_eq!(hash_of("disco"), hash_of("disco"));
        assert_ne!(hash_of("disco"), hash_of("odisc"), "order matters");
        assert_ne!(hash_of([1u8, 2]), hash_of([2u8, 1]));
    }
}

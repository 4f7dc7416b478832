//! Join cursors.
//!
//! The hash join buffers exactly one input (the *build side* — by default
//! the smaller one by estimated cardinality) into a hash table keyed by
//! the canonical `Value` hash, then streams the other input through it.
//! Output rows are **lazy**: a match yields a [`Row`] carrying the frames
//! of both sides, and the merged struct is only constructed if a
//! downstream consumer needs one value.  The nested-loop and merge-tuples
//! joins buffer their right input (it is re-scanned once per left row)
//! and stream the left.
//!
//! # Spilling (bounded memory budgets)
//!
//! Under a bounded [`MemoryBudget`](super::spill::MemoryBudget) the hash
//! join charges every build row; when the budget trips it goes *Grace*:
//! the resident table and the rest of the build input are hash-routed
//! into 8 disk runs, the whole probe input is routed by the same hash
//! (probe *keys* are still evaluated in arrival order, so key-evaluation
//! errors surface exactly where the in-memory path reports them), and
//! each (build, probe) partition pair is then loaded and probed in turn —
//! re-splitting into 8 children at the next hash level if a partition
//! alone still exceeds the budget.  The output multiset, error identity
//! and `rows_materialized` (one bump per build row, at original
//! consumption only) are identical to the in-memory path; only the
//! emission *order* differs (partition-major), which the answer bag —
//! a multiset — does not observe.
//!
//! The nested-loop and merge-tuples inner buffers are bounded too
//! ([`InnerBuffer`]): rows past the budget trip go to a single disk run
//! that is rewound and re-read once per outer row, at row-granularity
//! trip detection (peak overshoot ≤ one row).  Emission order is
//! unchanged — the tail pass replays rows in their original order.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::rc::Rc;

use disco_algebra::{truthy, AlgebraError, ScalarExpr};
use disco_value::{approx_value_bytes, Value};

use super::sink::IdentityHasher;
use super::spill::{
    approx_row_bytes, new_runs, record_row, row_record, spill_partition, RewindableRun, RunFile,
    RunFileReader, RunPass, MAX_SPILL_LEVEL, SPILL_FANOUT,
};
use super::{
    eval_in_pair, eval_in_row, BoxedRowStream, Frame, PipelineCtx, Result, Row, RowStream,
};

/// Cost threshold for the adaptive build-side choice
/// ([`super::decide_build_side`]): a first-answered side larger than this
/// many rows is not adopted as the build side — buffering it would likely
/// cost more than waiting out the still-streaming side.
pub(crate) const ADAPTIVE_BUILD_MAX_ROWS: usize = 1 << 20;

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

/// The vectorized hash join's build table.
///
/// Unlike [`HashJoinCursor`]'s `HashMap<Value, …>`, the table is bucketed
/// by *precomputed* canonical hash (identity-hashed buckets, no re-hash on
/// insert or probe), so the columnar spine can hash a whole key column in
/// one [`disco_value::KeyHasher`] pass and per-row fallback inserts stay
/// consistent by hashing the same key values through the same
/// [`RandomState`].  Groups keep build rows in insertion order and carry
/// the row's *table index*, which doubles as the row's slot in the
/// build-side payload chunk used by fused pair projections.
pub(crate) struct ColumnarJoinTable<'a> {
    state: RandomState,
    buckets: HashMap<u64, Vec<ColumnarKeyGroup>, BuildHasherDefault<IdentityHasher>>,
    rows: Vec<Row<'a>>,
}

/// Build rows sharing one key value (hash collisions keep separate
/// groups; equality is the canonical `Value` equality).
struct ColumnarKeyGroup {
    key: Value,
    indices: Vec<u32>,
}

impl<'a> ColumnarJoinTable<'a> {
    pub(crate) fn new() -> Self {
        ColumnarJoinTable {
            state: RandomState::new(),
            buckets: HashMap::default(),
            rows: Vec::new(),
        }
    }

    /// A clone of the table's hash state — the key spines hash through
    /// this so batch-computed hashes agree with [`Self::hash_value`].
    pub(crate) fn state(&self) -> RandomState {
        self.state.clone()
    }

    /// The canonical hash of a key under the table's state (the per-row
    /// fallback path's hash).
    pub(crate) fn hash_value(&self, key: &Value) -> u64 {
        self.state.hash_one(key)
    }

    /// Inserts one build row under its precomputed key hash.
    ///
    /// # Panics
    ///
    /// Panics if the table exceeds `u32::MAX` rows (build sides are far
    /// smaller; the index doubles as a payload-chunk slot).
    pub(crate) fn insert(&mut self, hash: u64, key: Value, row: Row<'a>) {
        let index = u32::try_from(self.rows.len()).expect("build side fits u32 indexes");
        self.rows.push(row);
        let groups = self.buckets.entry(hash).or_default();
        match groups.iter_mut().find(|g| g.key == key) {
            Some(group) => group.indices.push(index),
            None => groups.push(ColumnarKeyGroup {
                key,
                indices: vec![index],
            }),
        }
    }

    /// The table indices of the build rows matching `key` (empty when
    /// none), in insertion order.
    pub(crate) fn lookup(&self, hash: u64, key: &Value) -> &[u32] {
        self.buckets
            .get(&hash)
            .and_then(|groups| groups.iter().find(|g| g.key == *key))
            .map_or(&[], |g| g.indices.as_slice())
    }

    /// The build row at table index `index`.
    pub(crate) fn row(&self, index: u32) -> &Row<'a> {
        &self.rows[index as usize]
    }
}

/// Hash join with lazy output rows.
pub(crate) struct HashJoinCursor<'a> {
    build_input: Option<BoxedRowStream<'a>>,
    probe_input: BoxedRowStream<'a>,
    build_key: &'a ScalarExpr,
    probe_key: &'a ScalarExpr,
    residual: Option<&'a ScalarExpr>,
    /// `true` when the build side is the plan's *left* input; output
    /// frames are always ordered left-then-right regardless.
    build_on_left: bool,
    ctx: PipelineCtx<'a>,
    table: Option<HashMap<Value, Rc<Vec<Row<'a>>>>>,
    /// Grace-partitioned disk state; `Some` once the build tripped the
    /// memory budget (the in-memory `table` then stays `None`).
    spill: Option<JoinSpill<'a>>,
    /// Probe rows pulled in batches into a reused buffer and handed out
    /// one at a time from `probe_pos`.
    probe_buf: Vec<Row<'a>>,
    probe_pos: usize,
    probe_exhausted: bool,
    /// The probe row currently being expanded, its matches, and the next
    /// match index.
    current: Option<Expansion<'a>>,
}

/// A probe row being expanded: the row, its build-side matches, and the
/// index of the next match to emit.
type Expansion<'a> = (Row<'a>, Rc<Vec<Row<'a>>>, usize);

/// The disk state of a spilled hash join: pending (build-run, probe-run)
/// partition pairs and the partition currently loaded for probing.
struct JoinSpill<'a> {
    /// The partition router.  Independent of the table's key equality:
    /// it only decides which run a key lands in, at every level.
    route: RandomState,
    queue: VecDeque<JoinPartition>,
    current: Option<PartitionProbe<'a>>,
}

/// One pending Grace partition: its build and probe runs and the hash
/// level its rows were routed at.
struct JoinPartition {
    build: RunFileReader,
    probe: RunFileReader,
    level: u32,
}

/// A loaded partition being probed: its in-memory table (charged against
/// the budget until the partition drains) and the rest of its probe run.
struct PartitionProbe<'a> {
    table: HashMap<Value, Rc<Vec<Row<'a>>>>,
    probe: RunFileReader,
    charged: usize,
}

/// Result of loading one partition's build run against the budget.
enum LoadOutcome<'a> {
    Loaded(PartitionProbe<'a>),
    Split(Vec<JoinPartition>),
}

impl<'a> HashJoinCursor<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        left: BoxedRowStream<'a>,
        right: BoxedRowStream<'a>,
        left_key: &'a ScalarExpr,
        right_key: &'a ScalarExpr,
        residual: Option<&'a ScalarExpr>,
        build_on_left: bool,
        ctx: PipelineCtx<'a>,
    ) -> Self {
        let (build_input, probe_input, build_key, probe_key) = if build_on_left {
            (left, right, left_key, right_key)
        } else {
            (right, left, right_key, left_key)
        };
        HashJoinCursor {
            build_input: Some(build_input),
            probe_input,
            build_key,
            probe_key,
            residual,
            build_on_left,
            ctx,
            table: None,
            spill: None,
            probe_buf: Vec::new(),
            probe_pos: 0,
            probe_exhausted: false,
            current: None,
        }
    }

    /// Drains the build input into the hash table (the one materialization
    /// this operator performs).  Under a bounded budget every row is
    /// charged; if the budget trips, the build goes Grace instead
    /// ([`Self::spill_build`]) — the trip is detected per batch, so the
    /// resident overshoot is at most one batch of rows.
    fn build_table(&mut self) -> Result<()> {
        let mut input = self
            .build_input
            .take()
            .expect("build side is consumed exactly once");
        let budget = self.ctx.budget;
        let mut table: HashMap<Value, Vec<Row<'a>>> = HashMap::new();
        let mut charged = 0usize;
        let mut tripped = false;
        let batch_rows = self.ctx.batch_rows;
        let mut buf = Vec::with_capacity(batch_rows);
        let more = loop {
            let more = input.next_batch(&mut buf, batch_rows)?;
            for row in buf.drain(..) {
                check_struct_frames(&row)?;
                let key = eval_in_row(self.build_key, &row, self.ctx)?;
                self.ctx.metrics.bump_materialized();
                let cost = approx_row_bytes(&row) + approx_value_bytes(&key);
                charged += cost;
                if !budget.charge(cost) {
                    tripped = true;
                }
                table.entry(key).or_default().push(row);
            }
            if !more || tripped {
                break more;
            }
        };
        if !tripped {
            self.table = Some(
                table
                    .into_iter()
                    .map(|(key, rows)| (key, Rc::new(rows)))
                    .collect(),
            );
            return Ok(());
        }
        self.spill = Some(self.spill_build(table, charged, input, more)?);
        Ok(())
    }

    /// Grace spill: flush the resident table plus the rest of the build
    /// input into 8 hash-routed disk runs, then route the *entire* probe
    /// input by the same hash.  Probe keys are evaluated here, in arrival
    /// order, so key-evaluation errors are reported exactly where the
    /// in-memory probe loop would report them.
    fn spill_build(
        &mut self,
        table: HashMap<Value, Vec<Row<'a>>>,
        charged: usize,
        mut input: BoxedRowStream<'a>,
        mut more: bool,
    ) -> Result<JoinSpill<'a>> {
        let budget = self.ctx.budget;
        let route = RandomState::new();
        let mut build_runs = new_runs()?;
        for (key, rows) in table {
            let p = spill_partition(route.hash_one(&key), 0);
            for row in rows {
                build_runs[p].push(&row_record(&key, row))?;
            }
        }
        budget.uncharge(charged);
        // The rest of the build input goes straight to disk; this is the
        // row's original consumption, so it still bumps
        // `rows_materialized` — reloads from disk never bump again.
        let batch_rows = self.ctx.batch_rows;
        let mut buf = Vec::with_capacity(batch_rows);
        while more {
            more = input.next_batch(&mut buf, batch_rows)?;
            for row in buf.drain(..) {
                check_struct_frames(&row)?;
                let key = eval_in_row(self.build_key, &row, self.ctx)?;
                self.ctx.metrics.bump_materialized();
                let p = spill_partition(route.hash_one(&key), 0);
                build_runs[p].push(&row_record(&key, row))?;
            }
        }
        let build_counts: Vec<u64> = build_runs.iter().map(RunFile::rows).collect();
        // Route the probe side.  Rows landing in a partition whose build
        // run is empty can never match and are dropped here (their key
        // was already evaluated above, so no error is lost).
        let mut probe_runs = new_runs()?;
        while let Some(probe) = self.pull_probe()? {
            check_struct_frames(&probe)?;
            let key = eval_in_row(self.probe_key, &probe, self.ctx)?;
            let p = spill_partition(route.hash_one(&key), 0);
            if build_counts[p] == 0 {
                continue;
            }
            probe_runs[p].push(&row_record(&key, probe))?;
        }
        let bytes: u64 = build_runs.iter().map(RunFile::bytes).sum::<u64>()
            + probe_runs.iter().map(RunFile::bytes).sum::<u64>();
        self.ctx.metrics.add_bytes_spilled(bytes);
        self.ctx.metrics.add_spill_partitions(SPILL_FANOUT);
        let mut queue = VecDeque::new();
        for (build, probe) in build_runs.into_iter().zip(probe_runs) {
            if build.rows() == 0 {
                continue;
            }
            queue.push_back(JoinPartition {
                build: build.into_reader()?,
                probe: probe.into_reader()?,
                level: 0,
            });
        }
        Ok(JoinSpill {
            route,
            queue,
            current: None,
        })
    }

    /// Next (probe row, matches) pair from the spilled partitions; `None`
    /// once every partition has drained.
    fn next_spilled(&mut self) -> Result<Option<Expansion<'a>>> {
        let ctx = self.ctx;
        let spill = self.spill.as_mut().expect("spilled mode");
        loop {
            if spill.current.is_none() {
                loop {
                    let Some(part) = spill.queue.pop_front() else {
                        return Ok(None);
                    };
                    match load_or_split(ctx, &spill.route, part)? {
                        LoadOutcome::Loaded(p) => {
                            spill.current = Some(p);
                            break;
                        }
                        LoadOutcome::Split(children) => {
                            // Children go to the front: depth-first keeps
                            // the open-file count proportional to the
                            // recursion depth, not the partition count.
                            for child in children.into_iter().rev() {
                                spill.queue.push_front(child);
                            }
                        }
                    }
                }
            }
            let part = spill.current.as_mut().expect("loaded above");
            match part.probe.next_record()? {
                Some(mut rec) => {
                    let key = rec.remove(0);
                    let row = record_row(rec);
                    if let Some(matches) = part.table.get(&key) {
                        return Ok(Some((row, Rc::clone(matches), 0)));
                    }
                }
                None => {
                    ctx.budget.uncharge(part.charged);
                    spill.current = None;
                }
            }
        }
    }

    /// The next probe row, refilling the (reused) probe buffer as needed.
    fn pull_probe(&mut self) -> Result<Option<Row<'a>>> {
        loop {
            if self.probe_pos < self.probe_buf.len() {
                // Move the row out, leaving a free placeholder behind; the
                // buffer is cleared wholesale on the next refill.
                let row =
                    std::mem::replace(&mut self.probe_buf[self.probe_pos], Row::owned(Value::Null));
                self.probe_pos += 1;
                return Ok(Some(row));
            }
            if self.probe_exhausted {
                return Ok(None);
            }
            self.probe_buf.clear();
            self.probe_pos = 0;
            let more = self
                .probe_input
                .next_batch(&mut self.probe_buf, self.ctx.batch_rows)?;
            if !more {
                self.probe_exhausted = true;
            }
        }
    }

    /// Produces the next joined row, or `None` when the probe side is
    /// exhausted.  Shared by the row-at-a-time and batched pulls.
    fn produce(&mut self) -> Result<Option<Row<'a>>> {
        loop {
            // Expand the current probe row's remaining matches.
            if let Some((probe, matches, index)) = &mut self.current {
                while *index < matches.len() {
                    let candidate = &matches[*index];
                    *index += 1;
                    let (lrow, rrow) = if self.build_on_left {
                        (candidate, &*probe)
                    } else {
                        (&*probe, candidate)
                    };
                    let keep = match self.residual {
                        Some(p) => truthy(&eval_in_pair(p, lrow, rrow, self.ctx)?),
                        None => true,
                    };
                    if keep {
                        // Only surviving pairs construct an output row.
                        return Ok(Some(Row::joined(lrow.clone(), rrow.clone())));
                    }
                }
                self.current = None;
            }
            // Pull the next probe row that has matches.
            if self.spill.is_some() {
                match self.next_spilled()? {
                    Some(next) => self.current = Some(next),
                    None => return Ok(None),
                }
                continue;
            }
            let Some(probe) = self.pull_probe()? else {
                return Ok(None);
            };
            check_struct_frames(&probe)?;
            let key = eval_in_row(self.probe_key, &probe, self.ctx)?;
            let table = self.table.as_ref().expect("table built before probing");
            if let Some(matches) = table.get(&key) {
                self.current = Some((probe, Rc::clone(matches), 0));
            }
        }
    }
}

impl<'a> RowStream<'a> for HashJoinCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        if self.build_input.is_some() {
            if let Err(err) = self.build_table() {
                return Some(Err(err));
            }
        }
        self.produce().transpose()
    }

    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        if self.build_input.is_some() {
            self.build_table()?;
        }
        for _ in 0..max {
            match self.produce()? {
                Some(row) => out.push(row),
                None => return Ok(false),
            }
        }
        Ok(true)
    }
}

/// Loads one partition's build run into an in-memory table, charging the
/// budget per row.  A partition that alone exceeds the budget is
/// re-split into 8 children at the next hash level — unless it is
/// already at the deepest level (necessarily duplicate-key-dominated, a
/// split could not separate it), in which case it loads whole and the
/// budget overcommits for its duration.
fn load_or_split<'a>(
    ctx: PipelineCtx<'a>,
    route: &RandomState,
    part: JoinPartition,
) -> Result<LoadOutcome<'a>> {
    let budget = ctx.budget;
    let JoinPartition {
        mut build,
        probe,
        level,
    } = part;
    let mut table: HashMap<Value, Vec<Row<'a>>> = HashMap::new();
    let mut charged = 0usize;
    while let Some(mut rec) = build.next_record()? {
        let key = rec.remove(0);
        let row = record_row(rec);
        let cost = approx_row_bytes(&row) + approx_value_bytes(&key);
        charged += cost;
        let within = budget.charge(cost);
        table.entry(key).or_default().push(row);
        if !within && level < MAX_SPILL_LEVEL {
            return split_partition(ctx, route, table, charged, build, probe, level);
        }
    }
    Ok(LoadOutcome::Loaded(PartitionProbe {
        table: table
            .into_iter()
            .map(|(key, rows)| (key, Rc::new(rows)))
            .collect(),
        probe,
        charged,
    }))
}

/// Re-splits an over-budget partition: the partially loaded table and the
/// unread rest of its build run are routed into 8 child build runs at the
/// next hash level, the probe run likewise, and the children replace the
/// parent in the queue.  Reloaded rows were counted at their original
/// consumption, so nothing here touches `rows_materialized`.
#[allow(clippy::too_many_arguments)]
fn split_partition<'a>(
    ctx: PipelineCtx<'a>,
    route: &RandomState,
    table: HashMap<Value, Vec<Row<'a>>>,
    charged: usize,
    mut build_rest: RunFileReader,
    mut probe: RunFileReader,
    level: u32,
) -> Result<LoadOutcome<'a>> {
    let next = level + 1;
    let mut build_runs = new_runs()?;
    for (key, rows) in table {
        let p = spill_partition(route.hash_one(&key), next);
        for row in rows {
            build_runs[p].push(&row_record(&key, row))?;
        }
    }
    ctx.budget.uncharge(charged);
    while let Some(rec) = build_rest.next_record()? {
        let p = spill_partition(route.hash_one(&rec[0]), next);
        build_runs[p].push(&rec)?;
    }
    let build_counts: Vec<u64> = build_runs.iter().map(RunFile::rows).collect();
    let mut probe_runs = new_runs()?;
    while let Some(rec) = probe.next_record()? {
        let p = spill_partition(route.hash_one(&rec[0]), next);
        if build_counts[p] == 0 {
            continue;
        }
        probe_runs[p].push(&rec)?;
    }
    let bytes: u64 = build_runs.iter().map(RunFile::bytes).sum::<u64>()
        + probe_runs.iter().map(RunFile::bytes).sum::<u64>();
    ctx.metrics.add_bytes_spilled(bytes);
    ctx.metrics.add_spill_partitions(SPILL_FANOUT);
    let mut children = Vec::new();
    for (build, probe) in build_runs.into_iter().zip(probe_runs) {
        if build.rows() == 0 {
            continue;
        }
        children.push(JoinPartition {
            build: build.into_reader()?,
            probe: probe.into_reader()?,
            level: next,
        });
    }
    Ok(LoadOutcome::Split(children))
}

/// The budget-bounded inner buffer of the nested-loop and merge-tuples
/// joins: a resident prefix (charged against the budget) plus an optional
/// disk tail for everything past the trip point.  The tail is re-read
/// once per outer row through [`RewindableRun::pass`].
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
}

impl<T> Default for InnerBuffer<T> {
    fn default() -> Self {
        InnerBuffer {
            resident: Vec::new(),
            tail: None,
            charged: 0,
        }
    }
}

impl<T> InnerBuffer<T> {
    /// Admit one item: resident while the budget holds, spilled to the
    /// tail run from the first failed charge on.  `cost` is the item's
    /// resident size, `record` its spill serialization.
    fn admit(
        &mut self,
        item: T,
        cost: usize,
        record: impl FnOnce(T) -> Vec<Value>,
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
        match self.tail.as_mut().expect("created above") {
            Tail::Writing(run) => run.push(&record(item)),
            Tail::Sealed(_) => unreachable!("admit after seal"),
        }
    }
}

/// A tail run is written once during buffering, then sealed into its
/// rewindable form for the per-outer-row passes.
enum Tail {
    Writing(RunFile),
    Sealed(RewindableRun),
}

/// Seal a fully written buffer: flush the tail run (if any) and count its
/// bytes as spilled.
fn seal_tail(tail: &mut Option<Tail>, ctx: PipelineCtx<'_>) -> Result<()> {
    if let Some(Tail::Writing(run)) = tail.take() {
        ctx.metrics.add_bytes_spilled(run.bytes());
        *tail = Some(Tail::Sealed(RewindableRun::from_run(run)?));
    }
    Ok(())
}

/// Start a pass over a sealed tail, or `None` when nothing spilled.
fn tail_pass(tail: &mut Option<Tail>) -> Result<Option<RunPass>> {
    match tail {
        None => Ok(None),
        Some(Tail::Sealed(run)) => Ok(Some(run.pass()?)),
        Some(Tail::Writing(_)) => unreachable!("pass before seal"),
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

/// Materializes a cursor into the budget-bounded inner buffer, validating
/// struct frames and counting the buffered rows.
fn buffer_rows<'a>(
    mut input: BoxedRowStream<'a>,
    ctx: PipelineCtx<'a>,
) -> Result<InnerBuffer<Row<'a>>> {
    let mut buffer = InnerBuffer::default();
    let mut buf = Vec::with_capacity(ctx.batch_rows);
    loop {
        let more = input.next_batch(&mut buf, ctx.batch_rows)?;
        for row in buf.drain(..) {
            check_struct_frames(&row)?;
            ctx.metrics.bump_materialized();
            let cost = approx_row_bytes(&row);
            buffer.admit(row, cost, frames_record, ctx)?;
        }
        if !more {
            break;
        }
    }
    seal_tail(&mut buffer.tail, ctx)?;
    Ok(buffer)
}

/// Nested-loop join: streams the left input, buffering the right (which is
/// re-scanned once per left row — from memory, plus a rewound disk pass
/// for any spilled tail).
pub(crate) struct NestedLoopCursor<'a> {
    left: BoxedRowStream<'a>,
    right_input: Option<BoxedRowStream<'a>>,
    right: InnerBuffer<Row<'a>>,
    predicate: Option<&'a ScalarExpr>,
    ctx: PipelineCtx<'a>,
    current_left: Option<Row<'a>>,
    right_index: usize,
    /// The current left row's pass over the spilled tail; `None` until
    /// the resident prefix is exhausted (or when nothing spilled).
    tail_pass: Option<RunPass>,
}

impl<'a> NestedLoopCursor<'a> {
    pub(crate) fn new(
        left: BoxedRowStream<'a>,
        right: BoxedRowStream<'a>,
        predicate: Option<&'a ScalarExpr>,
        ctx: PipelineCtx<'a>,
    ) -> Self {
        NestedLoopCursor {
            left,
            right_input: Some(right),
            right: InnerBuffer::default(),
            predicate,
            ctx,
            current_left: None,
            right_index: 0,
            tail_pass: None,
        }
    }

    /// The next right-side row for the current left row: the resident
    /// prefix first, then a sequential pass over the spilled tail.
    fn next_right(&mut self) -> Result<Option<Row<'a>>> {
        if self.right_index < self.right.resident.len() {
            let row = self.right.resident[self.right_index].clone();
            self.right_index += 1;
            return Ok(Some(row));
        }
        if self.tail_pass.is_none() {
            self.tail_pass = tail_pass(&mut self.right.tail)?;
        }
        let Some(pass) = self.tail_pass.as_mut() else {
            return Ok(None);
        };
        Ok(pass.next_record()?.map(record_row))
    }
}

impl Drop for NestedLoopCursor<'_> {
    fn drop(&mut self) {
        self.ctx.budget.uncharge(self.right.charged);
        self.right.charged = 0;
    }
}

impl<'a> RowStream<'a> for NestedLoopCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        if let Some(right) = self.right_input.take() {
            match buffer_rows(right, self.ctx) {
                Ok(rows) => self.right = rows,
                Err(err) => return Some(Err(err)),
            }
        }
        loop {
            if self.current_left.is_none() {
                let left = match self.left.next_row()? {
                    Ok(row) => row,
                    Err(err) => return Some(Err(err)),
                };
                if let Err(err) = check_struct_frames(&left) {
                    return Some(Err(err));
                }
                self.current_left = Some(left);
                self.right_index = 0;
                self.tail_pass = None;
            }
            loop {
                let right = match self.next_right() {
                    Ok(Some(row)) => row,
                    Ok(None) => break,
                    Err(err) => return Some(Err(err)),
                };
                let left = self.current_left.as_ref().expect("set above");
                let keep = match self.predicate {
                    Some(p) => match eval_in_pair(p, left, &right, self.ctx) {
                        Ok(v) => truthy(&v),
                        Err(err) => return Some(Err(err)),
                    },
                    None => true,
                };
                if keep {
                    // Only surviving pairs construct an output row.
                    return Some(Ok(Row::joined(left.clone(), right)));
                }
            }
            self.current_left = None;
        }
    }
}

/// Source-style equi-join executed at the mediator: merges the raw source
/// tuples with a disambiguating prefix (the `MergeTuplesJoin` semantics),
/// so its output rows are materialized structs by construction.
pub(crate) struct MergeTuplesCursor<'a> {
    left: BoxedRowStream<'a>,
    right_input: Option<BoxedRowStream<'a>>,
    right: InnerBuffer<Value>,
    on: &'a [(String, String)],
    ctx: PipelineCtx<'a>,
    current_left: Option<Value>,
    right_index: usize,
    /// The current left value's pass over the spilled tail.
    tail_pass: Option<RunPass>,
}

impl<'a> MergeTuplesCursor<'a> {
    pub(crate) fn new(
        left: BoxedRowStream<'a>,
        right: BoxedRowStream<'a>,
        on: &'a [(String, String)],
        ctx: PipelineCtx<'a>,
    ) -> Self {
        MergeTuplesCursor {
            left,
            right_input: Some(right),
            right: InnerBuffer::default(),
            on,
            ctx,
            current_left: None,
            right_index: 0,
            tail_pass: None,
        }
    }

    /// Materializes the right input into the budget-bounded inner buffer.
    fn buffer_right(&mut self, mut input: BoxedRowStream<'a>) -> Result<()> {
        while let Some(row) = input.next_row() {
            let value = row.and_then(|r| r.materialize(self.ctx.metrics))?;
            self.ctx.metrics.bump_materialized();
            let cost = disco_value::approx_value_bytes(&value);
            self.right.admit(value, cost, |v| vec![v], self.ctx)?;
        }
        seal_tail(&mut self.right.tail, self.ctx)
    }

    /// The next right-side value for the current left value: resident
    /// prefix first, then a sequential pass over the spilled tail.
    fn next_right(&mut self) -> Result<Option<Value>> {
        if self.right_index < self.right.resident.len() {
            let value = self.right.resident[self.right_index].clone();
            self.right_index += 1;
            return Ok(Some(value));
        }
        if self.tail_pass.is_none() {
            self.tail_pass = tail_pass(&mut self.right.tail)?;
        }
        let Some(pass) = self.tail_pass.as_mut() else {
            return Ok(None);
        };
        Ok(pass
            .next_record()?
            .map(|mut rec| rec.pop().unwrap_or(Value::Null)))
    }

    fn merge(&self, left: &Value, right: &Value) -> Result<Option<Row<'a>>> {
        let ls = left.as_struct().map_err(AlgebraError::from)?;
        let rs = right.as_struct().map_err(AlgebraError::from)?;
        for (lattr, rattr) in self.on {
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
}

impl Drop for MergeTuplesCursor<'_> {
    fn drop(&mut self) {
        self.ctx.budget.uncharge(self.right.charged);
        self.right.charged = 0;
    }
}

impl<'a> RowStream<'a> for MergeTuplesCursor<'a> {
    fn next_row(&mut self) -> Option<Result<Row<'a>>> {
        if let Some(right) = self.right_input.take() {
            if let Err(err) = self.buffer_right(right) {
                return Some(Err(err));
            }
        }
        loop {
            if self.current_left.is_none() {
                let left = match self.left.next_row()? {
                    Ok(row) => row,
                    Err(err) => return Some(Err(err)),
                };
                let left = match left.materialize(self.ctx.metrics) {
                    Ok(value) => value,
                    Err(err) => return Some(Err(err)),
                };
                self.current_left = Some(left);
                self.right_index = 0;
                self.tail_pass = None;
            }
            loop {
                let right = match self.next_right() {
                    Ok(Some(value)) => value,
                    Ok(None) => break,
                    Err(err) => return Some(Err(err)),
                };
                let left = self.current_left.as_ref().expect("set above");
                match self.merge(left, &right) {
                    Ok(Some(row)) => return Some(Ok(row)),
                    Ok(None) => {}
                    Err(err) => return Some(Err(err)),
                }
            }
            self.current_left = None;
        }
    }
}

//! Morsel-driven parallel execution of streaming pipelines.
//!
//! The serial engine pulls rows through one cursor tree; this module
//! executes the same plans on a fixed pool of `std` worker threads.  A
//! plan is decomposed (`compile`) along the physical algebra's
//! [`ExchangeBehavior`] classification:
//!
//! * the chain of `Morsel` operators from the root down to a leaf scan is
//!   the *partitioned pipeline* — each worker runs its own cursor tree
//!   over a claimed sub-range (morsel) of the leaf bag,
//! * a `Branches` operator (union — including the per-source resolved
//!   scans of a federated query) turns each branch into an independent
//!   task,
//! * each `Partitioned` breaker becomes a *phase*: the tasks of a
//!   hash-join build side key their rows, and the serial engine's build
//!   loop inserts them in task order into one read-only `JoinTable` at
//!   the barrier; distinct admits into hash-sharded seen-sets behind
//!   per-shard locks; and aggregates fold per-morsel partial states
//!   merged in morsel order — each through the serial operators' own
//!   admission, fold and expansion code,
//! * `Pinned` operators (nested-loop / merge-tuples joins) and any other
//!   shape the decomposition does not recognise fall back to the serial
//!   engine unchanged.
//!
//! # Determinism
//!
//! Workers claim morsels dynamically (an atomic counter), but nothing
//! observable depends on the claim order: morsel boundaries are a pure
//! function of input length and thread count, every per-task output is
//! indexed by task id and merged in task order at the barrier, and shard
//! routing hashes values, not workers.  The same plan at the same thread
//! count therefore yields the same answer multiset *and* the same
//! [`PipelineMetrics`] on every run — and the metrics equal the serial
//! engine's at every thread count, because breakers buffer exactly the
//! same rows, just split across workers ([`PipelineMetrics::merge`] sums
//! the per-worker counts exactly).
//!
//! With adaptivity engaged ([`PipelineOptions::adaptive_enabled`]) the
//! build side of a hash join is the input that answered first, so
//! `rows_materialized` may legitimately differ from the pinned choice —
//! which is why the differential suites compare adaptive runs against the
//! pinned engine's *answers*, not its metrics.
//!
//! # Poison safety
//!
//! A worker that panics mid-batch must not hang the pool or abort the
//! process: each task runs under `catch_unwind`, a panic is converted to
//! [`RuntimeError::WorkerPanic`], and an abort flag stops the remaining
//! workers at their next claim.  `std::thread::scope` guarantees every
//! worker has exited before the phase returns.
//!
//! [`ExchangeBehavior`]: disco_algebra::ExchangeBehavior

use std::hash::RandomState;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use std::sync::Arc;

use disco_algebra::{AggKind, AggState, Env, PhysicalExpr, ScalarExpr};
use disco_value::{Bag, Value};
use parking_lot::Mutex;

use crate::exec::{ExecOutcome, PendingSource, ResolvedExecs};
use crate::{Result, RuntimeError};

use super::columnar::{self, BatchSource};
use super::exchange::{morsel_ranges, shard_count, shard_of, MorselQueue, MORSEL_ROWS};
use super::join::{JoinTable, KeyedRow, KeyedSource, PairSpec, Probe, SharedProbe};
use super::sink::{admit, fold_aggregate, SeenSet};
use super::spill::MemoryBudget;
use super::{
    build, decide_build_side, BoxedRowStream, PipelineCtx, PipelineMetrics, PipelineOptions,
};

/// Hard ceiling on the worker pool size.
pub const MAX_THREADS: usize = 64;

/// The `DISCO_THREADS` default, validated at parse time (cached at first
/// use).  Unset or empty means `1` (the serial path); unparsable or zero
/// values are rejected with a warning and fall back to `1`; values above
/// [`MAX_THREADS`] are clamped with a warning — the same validation the
/// `DISCO_BATCH_ROWS` path applies.
fn env_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let Ok(raw) = std::env::var("DISCO_THREADS") else {
            return 1;
        };
        if raw.trim().is_empty() {
            return 1;
        }
        match raw.trim().parse::<usize>() {
            Ok(0) | Err(_) => {
                eprintln!(
                    "disco: invalid DISCO_THREADS {raw:?} (want an integer in 1..={MAX_THREADS}); using 1"
                );
                1
            }
            Ok(n) if n > MAX_THREADS => {
                eprintln!("disco: DISCO_THREADS {n} exceeds the maximum; clamping to {MAX_THREADS}");
                MAX_THREADS
            }
            Ok(n) => n,
        }
    })
}

/// The worker count an execution with `options` will actually use:
/// `options.threads` when set, otherwise the `DISCO_THREADS` environment
/// variable, otherwise `1`.  Explicit values above [`MAX_THREADS`] are
/// clamped (warning once per process).
#[must_use]
pub fn effective_threads(options: PipelineOptions) -> usize {
    match options.threads {
        0 => env_threads(),
        n if n > MAX_THREADS => {
            static WARNED: OnceLock<()> = OnceLock::new();
            WARNED.get_or_init(|| {
                eprintln!(
                    "disco: PipelineOptions::threads {n} exceeds the maximum; clamping to {MAX_THREADS}"
                );
            });
            MAX_THREADS
        }
        n => n,
    }
}

/// What consumes the partitioned pipeline's output.
#[derive(Clone, Copy)]
enum Terminal {
    /// The final collect sink: per-task value vectors concatenated in
    /// task order.
    Collect,
    /// Hash-partitioned distinct: scatter by value hash, dedup shard-wise.
    Distinct,
    /// Per-morsel partial folds merged in morsel order.
    Aggregate(AggKind),
}

/// Where the pipeline splits into parallel parts.
enum PartSource<'a> {
    /// A leaf scan split into morsel-sized sub-ranges.
    Slice {
        node: &'a PhysicalExpr,
        rows: &'a [Value],
    },
    /// A union whose branches are independent tasks.
    Branches {
        node: &'a PhysicalExpr,
        branches: &'a [PhysicalExpr],
    },
    /// A still-resolving `exec` leaf: a morsel source that *grows* as the
    /// wrapper pushes chunks.  Workers claim chunks of arrived rows from
    /// the spool, so the combine step overlaps source latency at every
    /// thread count.
    Stream {
        node: &'a PhysicalExpr,
        source: &'a Arc<PendingSource>,
    },
}

/// One hash join on the probe path, executed as a build phase plus a
/// shared-table probe inside the partitioned pipeline.
struct JoinStage<'a> {
    node: &'a PhysicalExpr,
    build: &'a PhysicalExpr,
    probe: &'a PhysicalExpr,
    build_key: &'a ScalarExpr,
    probe_key: &'a ScalarExpr,
    residual: Option<&'a ScalarExpr>,
    build_on_left: bool,
}

/// A compiled parallel execution: terminal, probe-path join stages
/// (outermost first) and the partition source at the bottom.
struct ParPlan<'a> {
    terminal: Terminal,
    body: &'a PhysicalExpr,
    stages: Vec<JoinStage<'a>>,
    source: PartSource<'a>,
}

/// One claimable unit of pipeline work, tagged with its merge id so
/// per-task outputs can be re-ordered deterministically at the barrier.
#[derive(Clone)]
enum Task {
    /// The whole (un-partitioned) pipeline as a single task.
    Whole,
    /// A sub-range of the partition leaf's rows.
    Range {
        id: usize,
        range: std::ops::Range<usize>,
    },
    /// One union branch.
    Branch { id: usize, index: usize },
    /// One chunk of rows claimed from a growing (pending) source; `id` is
    /// the claim sequence number, which equals the chunk's position in
    /// the spool's arrival order.
    Chunk { id: usize, rows: Arc<Vec<Value>> },
}

impl Task {
    fn id(&self) -> usize {
        match self {
            Task::Whole => 0,
            Task::Range { id, .. } | Task::Branch { id, .. } | Task::Chunk { id, .. } => *id,
        }
    }
}

/// Claim state of a [`TaskQueue::Stream`].
struct StreamClaim {
    /// Spool rows already handed out as chunks.
    offset: usize,
    /// Next chunk id.
    seq: usize,
}

/// Hands out tasks to workers: a fixed, precomputed list (leaf ranges,
/// union branches) or a stream of chunks claimed from a pending source
/// as its rows arrive.
enum TaskQueue<'q> {
    Fixed {
        queue: MorselQueue,
        tasks: Vec<Task>,
    },
    Stream {
        source: &'q Arc<PendingSource>,
        claim: Mutex<StreamClaim>,
        /// Where blocked claim time is charged (`PipelineMetrics::
        /// source_wait`).  One shared instance is enough: waits are
        /// summed at the merge barrier, not attributed per worker.
        wait_metrics: &'q PipelineMetrics,
    },
}

impl<'q> TaskQueue<'q> {
    fn fixed(tasks: Vec<Task>) -> Self {
        TaskQueue::Fixed {
            queue: MorselQueue::new(tasks.len()),
            tasks,
        }
    }

    fn for_source<'a>(
        source: &'q PartSource<'a>,
        threads: usize,
        wait_metrics: &'q PipelineMetrics,
    ) -> Self {
        match source {
            PartSource::Slice { rows, .. } => TaskQueue::fixed(
                morsel_ranges(rows.len(), threads)
                    .into_iter()
                    .enumerate()
                    .map(|(id, range)| Task::Range { id, range })
                    .collect(),
            ),
            PartSource::Branches { branches, .. } => TaskQueue::fixed(
                (0..branches.len())
                    .map(|index| Task::Branch { id: index, index })
                    .collect(),
            ),
            PartSource::Stream { source, .. } => TaskQueue::Stream {
                source,
                claim: Mutex::new(StreamClaim { offset: 0, seq: 0 }),
                wait_metrics,
            },
        }
    }

    /// Wakes workers blocked in [`TaskQueue::claim`] when the phase
    /// aborts: the pending source is classified unavailable and its
    /// wrapper call cancelled, so a blocked claimer returns promptly
    /// instead of waiting out the stream (or the deadline).  The abort's
    /// own error has a real task id and outranks the claimer's, so the
    /// surfaced failure is unchanged.  No-op for fixed queues, whose
    /// claims never block.
    fn interrupt(&self) {
        if let TaskQueue::Stream { source, .. } = self {
            source.interrupt();
        }
    }

    /// An upper bound on useful workers; `None` when unknown (stream).
    fn task_hint(&self) -> Option<usize> {
        match self {
            TaskQueue::Fixed { tasks, .. } => Some(tasks.len()),
            TaskQueue::Stream { .. } => None,
        }
    }

    /// Claims the next task; blocks on a stream source until rows arrive.
    ///
    /// # Errors
    ///
    /// Stream sources propagate unavailability (deadline / reported),
    /// hard wrapper failures and contained wrapper panics.
    fn claim(&self) -> Result<Option<Task>> {
        match self {
            TaskQueue::Fixed { queue, tasks } => Ok(queue.claim().map(|i| tasks[i].clone())),
            TaskQueue::Stream {
                source,
                claim,
                wait_metrics,
            } => {
                let mut claim = claim.lock();
                let (progress, blocked) = source.wait_rows(claim.offset, MORSEL_ROWS);
                if !blocked.is_zero() {
                    wait_metrics.add_source_wait(blocked);
                }
                Ok(progress?.map(|rows| {
                    claim.offset += rows.len();
                    let id = claim.seq;
                    claim.seq += 1;
                    Task::Chunk {
                        id,
                        rows: Arc::new(rows),
                    }
                }))
            }
        }
    }
}

/// Attempts to evaluate `plan` on the parallel engine; `None` when the
/// plan has no decomposition (the caller then uses the serial path).
pub(crate) fn try_evaluate(
    plan: &PhysicalExpr,
    resolved: &ResolvedExecs,
    outer: &Env<'_>,
    metrics: &PipelineMetrics,
    options: PipelineOptions,
    budget: &MemoryBudget,
) -> Option<Result<Bag>> {
    let threads = effective_threads(options);
    let par = compile(plan, resolved, options)?;
    // Under a bounded memory budget, plans with buffering breakers run on
    // the serial engine: its Grace cursors spill, while the staged shared
    // tables and sharded seen-sets here do not — and routing both thread
    // counts through the same spill path keeps answers, errors and
    // `rows_materialized` identical at 1 and N threads.  Breaker-free
    // pipelines (scans, unions, aggregate folds) still parallelize.
    if budget.is_bounded() && (!par.stages.is_empty() || matches!(par.terminal, Terminal::Distinct))
    {
        return None;
    }
    Some(run(
        &par, resolved, outer, metrics, options, threads, budget,
    ))
}

/// Decomposes a plan for parallel execution; `None` when no decomposition
/// applies (pinned joins on the spine, unresolved sources, nested
/// breakers the scheduler does not stage).
fn compile<'a>(
    plan: &'a PhysicalExpr,
    resolved: &'a ResolvedExecs,
    options: PipelineOptions,
) -> Option<ParPlan<'a>> {
    let (terminal, body) = match plan {
        PhysicalExpr::MkDistinct(inner) => (Terminal::Distinct, inner.as_ref()),
        PhysicalExpr::MkAggregate { func, input } => (Terminal::Aggregate(*func), input.as_ref()),
        other => (Terminal::Collect, other),
    };
    let mut stages = Vec::new();
    let source = descend(body, resolved, options, Some(&mut stages))?;
    Some(ParPlan {
        terminal,
        body,
        stages,
        source,
    })
}

/// Walks the spine of `Morsel` operators down to a partition source,
/// staging hash joins along the way when `stages` allows it.
///
/// Dispatches on the algebra's [`ExchangeBehavior`] classification, so a
/// new operator gets scheduled according to how it is classified (and a
/// `Morsel`/`Branches` claim an operator cannot actually honour shows up
/// here as an `unreachable!`, not as silent serialization).
///
/// [`ExchangeBehavior`]: disco_algebra::ExchangeBehavior
fn descend<'a>(
    node: &'a PhysicalExpr,
    resolved: &'a ResolvedExecs,
    options: PipelineOptions,
    stages: Option<&mut Vec<JoinStage<'a>>>,
) -> Option<PartSource<'a>> {
    use disco_algebra::ExchangeBehavior;
    match node.exchange_behavior() {
        // Stateless per-row operators: leaves partition into slices,
        // unary transformers ride the spine down to their input's
        // partition point.
        ExchangeBehavior::Morsel => match node {
            PhysicalExpr::MemScan(bag) => Some(PartSource::Slice {
                node,
                rows: bag.as_slice(),
            }),
            PhysicalExpr::Exec {
                repository,
                extent,
                logical,
                ..
            } => {
                match resolved.outcome_of(repository, extent, logical) {
                    Some(ExecOutcome::Rows(rows)) => Some(PartSource::Slice {
                        node,
                        rows: rows.as_slice(),
                    }),
                    // A still-streaming call is a *growing* morsel source:
                    // workers claim chunks as the wrapper pushes them.
                    Some(ExecOutcome::Pending(source)) => Some(PartSource::Stream { node, source }),
                    // Unresolved / unavailable: leave it to the serial
                    // path, which reports the precise error for this node.
                    _ => None,
                }
            }
            PhysicalExpr::FilterOp { input, .. }
            | PhysicalExpr::ProjectOp { input, .. }
            | PhysicalExpr::MapOp { input, .. }
            | PhysicalExpr::BindOp { input, .. } => descend(input, resolved, options, stages),
            PhysicalExpr::MkFlatten(inner) => descend(inner, resolved, options, stages),
            other => unreachable!("operator classified Morsel but not schedulable: {other}"),
        },
        // Independent subtrees: one task per union branch.
        ExchangeBehavior::Branches => match node {
            PhysicalExpr::MkUnion(items) => Some(PartSource::Branches {
                node,
                branches: items.as_slice(),
            }),
            other => unreachable!("operator classified Branches but not a union: {other}"),
        },
        // Hash-partitioned breakers: a hash join becomes a staged
        // build-then-probe when staging is allowed; distinct and
        // aggregates partition only at the pipeline root (the terminal),
        // so meeting one mid-spine ends the decomposition.
        ExchangeBehavior::Partitioned => match node {
            PhysicalExpr::HashJoin {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => {
                let stages = stages?;
                // The shared decision (serial cursor builder uses the
                // same function), so `rows_materialized` is identical at
                // every thread count for any fixed adaptivity setting.
                let build_on_left = decide_build_side(left, right, options, resolved);
                let (build, probe, build_key, probe_key) = if build_on_left {
                    (left.as_ref(), right.as_ref(), left_key, right_key)
                } else {
                    (right.as_ref(), left.as_ref(), right_key, left_key)
                };
                stages.push(JoinStage {
                    node,
                    build,
                    probe,
                    build_key,
                    probe_key,
                    residual: residual.as_ref(),
                    build_on_left,
                });
                descend(probe, resolved, options, Some(stages))
            }
            _ => None,
        },
        // Single-worker operators stop the decomposition outright.
        ExchangeBehavior::Pinned => None,
    }
}

/// Executes a compiled plan, merging the per-worker metrics into the
/// caller's exactly once at the end.
#[allow(clippy::too_many_arguments)]
fn run(
    par: &ParPlan<'_>,
    resolved: &ResolvedExecs,
    outer: &Env<'_>,
    metrics: &PipelineMetrics,
    options: PipelineOptions,
    threads: usize,
    budget: &MemoryBudget,
) -> Result<Bag> {
    let worker_metrics: Vec<PipelineMetrics> =
        (0..threads).map(|_| PipelineMetrics::new()).collect();
    // Workers run serial cursor trees internally: nested evaluations
    // (correlated sub-queries, union-branch subtrees) must never re-enter
    // the scheduler from inside the pool.
    let result = run_phases(
        par,
        resolved,
        outer,
        &worker_metrics,
        options.serial(),
        threads,
        budget,
    );
    for m in &worker_metrics {
        metrics.merge(m);
    }
    result
}

/// The phase driver: build every join-stage table, then run the terminal
/// phase over the partitioned pipeline.
#[allow(clippy::too_many_arguments)]
fn run_phases<'a>(
    par: &ParPlan<'a>,
    resolved: &'a ResolvedExecs,
    outer: &'a Env<'a>,
    worker_metrics: &'a [PipelineMetrics],
    options: PipelineOptions,
    threads: usize,
    budget: &'a MemoryBudget,
) -> Result<Bag> {
    let shards = shard_count(threads);
    let ctxs: Vec<PipelineCtx<'a>> = worker_metrics
        .iter()
        .map(|m| PipelineCtx {
            resolved,
            outer,
            metrics: m,
            options,
            batch_rows: options.effective_batch_rows(),
            budget,
        })
        .collect();

    // Build phases: one shared hash table per staged join, innermost
    // tables built later but never probed before the terminal phase.
    let mut tables: Vec<JoinTable<'a>> = Vec::with_capacity(par.stages.len());
    for stage in &par.stages {
        tables.push(build_stage_table(stage, resolved, options, &ctxs, threads)?);
    }

    // Terminal phase over the partitioned pipeline.
    let tasks = TaskQueue::for_source(&par.source, threads, &worker_metrics[0]);
    let pipeline = PartPipeline {
        body: par.body,
        stages: &par.stages,
        tables: &tables,
        source: Some(&par.source),
    };
    match par.terminal {
        Terminal::Collect => {
            let acc: Mutex<Vec<(usize, Vec<Value>)>> = Mutex::new(Vec::new());
            for_each_task(threads, &tasks, |worker, task| {
                let ctx = ctxs[worker];
                let mut cursor = pipeline.open(task, ctx)?;
                let mut out = Vec::new();
                let mut buf = Vec::with_capacity(ctx.batch_rows);
                loop {
                    let more = cursor.next_batch(&mut buf, ctx.batch_rows)?;
                    ctx.metrics.add_emitted(buf.len());
                    for row in buf.drain(..) {
                        let value = row.materialize(ctx.metrics)?;
                        out.push(value);
                    }
                    if !more {
                        break;
                    }
                }
                acc.lock().push((task.id(), out));
                Ok(())
            })?;
            Ok(concat_in_order(acc.into_inner()))
        }
        Terminal::Distinct => {
            // The seen-set partitions by value hash into shard-local sets
            // behind per-shard locks; every worker routes each candidate
            // by the shared hash (computed once, reused for in-shard
            // bucketing) and admits under the shard lock only.  The
            // surviving multiset is the set of distinct values — the same
            // no matter which worker wins which shard — so results and
            // `rows_materialized` (one bump per admission) are
            // deterministic and thread-count-invariant.
            let route = RandomState::new();
            let seen_shards: Vec<Mutex<SeenSet>> = (0..shards)
                .map(|_| Mutex::new(SeenSet::with_hasher(route.clone())))
                .collect();
            let acc: Mutex<Vec<(usize, Vec<Value>)>> = Mutex::new(Vec::new());
            for_each_task(threads, &tasks, |worker, task| {
                let ctx = ctxs[worker];
                let mut cursor = pipeline.open(task, ctx)?;
                let mut out = Vec::new();
                let mut buf = Vec::with_capacity(ctx.batch_rows);
                loop {
                    let more = cursor.next_batch(&mut buf, ctx.batch_rows)?;
                    for row in buf.drain(..) {
                        // The serial distinct's admission, under the lock
                        // of the shard the value's hash routes to.
                        let admitted = admit(row, &route, ctx.metrics, |hash| {
                            seen_shards[shard_of(hash, shards)].lock()
                        })?;
                        if let Some(value) = admitted {
                            ctx.metrics.bump_emitted();
                            out.push(value);
                        }
                    }
                    if !more {
                        break;
                    }
                }
                acc.lock().push((task.id(), out));
                Ok(())
            })?;
            Ok(concat_in_order(acc.into_inner()))
        }
        Terminal::Aggregate(func) => {
            let acc: Mutex<Vec<(usize, AggState)>> = Mutex::new(Vec::new());
            for_each_task(threads, &tasks, |worker, task| {
                let ctx = ctxs[worker];
                let source = BatchSource::rows(pipeline.open(task, ctx)?);
                let state = fold_aggregate(func, source, ctx)?;
                acc.lock().push((task.id(), state));
                Ok(())
            })?;
            let mut states = acc.into_inner();
            states.sort_unstable_by_key(|(task, _)| *task);
            let mut state = AggState::new(func);
            for (_, partial) in states {
                state.merge(partial)?;
            }
            // The single aggregate row reaching the sink.
            worker_metrics[0].bump_emitted();
            Ok([state.finish()].into_iter().collect())
        }
    }
}

/// Builds one staged join's shared table: the build subtree runs
/// partitioned when it is itself a simple streaming pipeline, as a single
/// task otherwise; every task keys its rows through a [`KeyedSource`],
/// and at the barrier the one build loop inserts them in task order — so
/// the per-key match lists equal a serial build over the same input.
fn build_stage_table<'a>(
    stage: &JoinStage<'a>,
    resolved: &'a ResolvedExecs,
    options: PipelineOptions,
    ctxs: &[PipelineCtx<'a>],
    threads: usize,
) -> Result<JoinTable<'a>> {
    // `stages: None` keeps nested breakers inside one task, so their
    // buffering happens exactly once, as in the serial engine.
    let source = descend(stage.build, resolved, options, None);
    let tasks = match &source {
        Some(source) => TaskQueue::for_source(source, threads, ctxs[0].metrics),
        None => TaskQueue::fixed(vec![Task::Whole]),
    };
    let pipeline = PartPipeline {
        body: stage.build,
        stages: &[],
        tables: &[],
        source: source.as_ref(),
    };
    let mut table = JoinTable::default();
    let state = table.state();
    let acc: Mutex<Vec<(usize, Vec<KeyedRow<'a>>)>> = Mutex::new(Vec::new());
    for_each_task(threads, &tasks, |worker, task| {
        let ctx = ctxs[worker];
        // Vectorized when the build side of this task is a fusible
        // stretch over a slice morsel, per row otherwise.
        let fused = match (&source, task) {
            (Some(PartSource::Slice { node, rows }), Task::Range { range, .. }) => {
                columnar::keyed_partition(
                    stage.build,
                    node,
                    &rows[range.clone()],
                    stage.build_key,
                    state.clone(),
                    ctx,
                )
            }
            _ => None,
        };
        let mut keyed = match fused {
            Some(keyed) => keyed,
            None => KeyedSource::rows(
                pipeline.open(task, ctx)?,
                stage.build_key,
                state.clone(),
                ctx,
            ),
        };
        let mut out = Vec::new();
        while let Some(rows) = keyed.next_rows(ctx.batch_rows)? {
            out.extend(rows);
        }
        acc.lock().push((task.id(), out));
        Ok(())
    })?;
    let mut outputs = acc.into_inner();
    outputs.sort_unstable_by_key(|(task, _)| *task);
    // Stage tables never spill (`try_evaluate` keeps bounded budgets off
    // this path), so every row is absorbed.
    for (_, rows) in outputs {
        table.absorb(&mut rows.into_iter(), &mut 0, ctxs[0]);
    }
    Ok(table)
}

/// Concatenates per-task output vectors in task order into the answer
/// bag.  The single-task case adopts the vector outright (no copy).
fn concat_in_order(mut outs: Vec<(usize, Vec<Value>)>) -> Bag {
    outs.sort_unstable_by_key(|(task, _)| *task);
    let total: usize = outs.iter().map(|(_, values)| values.len()).sum();
    let mut iter = outs.into_iter().map(|(_, values)| values);
    let mut all = iter.next().unwrap_or_default();
    all.reserve(total - all.len());
    for values in iter {
        all.extend(values);
    }
    Bag::from(all)
}

/// A partitioned pipeline: opens one cursor tree per task, substituting
/// the partition source and staged joins along the spine.
struct PartPipeline<'p, 'a> {
    body: &'a PhysicalExpr,
    stages: &'p [JoinStage<'a>],
    tables: &'a [JoinTable<'a>],
    source: Option<&'p PartSource<'a>>,
}

impl<'p, 'a> PartPipeline<'p, 'a> {
    fn open(&self, task: &Task, ctx: PipelineCtx<'a>) -> Result<BoxedRowStream<'a>> {
        match (self.source, task) {
            (None, _) | (_, Task::Whole) => build(self.body, ctx),
            _ => self.open_node(self.body, task, ctx),
        }
    }

    fn open_node(
        &self,
        node: &'a PhysicalExpr,
        task: &Task,
        ctx: PipelineCtx<'a>,
    ) -> Result<BoxedRowStream<'a>> {
        // Columnar morsel spine: when the stretch from here down to the
        // partition leaf is a fusible map/filter/bind chain, run the
        // columnar spine over this task's slice instead of stacking row
        // cursors.  Bails (returns None) for staged joins, off-spine
        // nodes, and bare slices, which fall through to the row path.
        if let (Some(PartSource::Slice { node: leaf, rows }), Task::Range { range, .. }) =
            (self.source, task)
        {
            if let Some(cursor) =
                columnar::try_build_partition(node, leaf, &rows[range.clone()], ctx)
            {
                return Ok(cursor);
            }
        }
        // The partition point: this task's slice of the leaf, or its
        // union branch.
        match (self.source, task) {
            (Some(PartSource::Slice { node: n, rows }), Task::Range { range, .. })
                if std::ptr::eq::<PhysicalExpr>(*n, node) =>
            {
                return Ok(Box::new(super::scan::ScanCursor::over(
                    &rows[range.clone()],
                )));
            }
            (Some(PartSource::Branches { node: n, branches }), Task::Branch { index, .. })
                if std::ptr::eq::<PhysicalExpr>(*n, node) =>
            {
                return build(&branches[*index], ctx);
            }
            (Some(PartSource::Stream { node: n, .. }), Task::Chunk { rows, .. })
                if std::ptr::eq::<PhysicalExpr>(*n, node) =>
            {
                return Ok(Box::new(super::scan::ChunkScanCursor::new(Arc::clone(
                    rows,
                ))));
            }
            _ => {}
        }
        // A staged join: probe this worker's share against the shared
        // table built at the phase barrier.
        if let Some(index) = self
            .stages
            .iter()
            .position(|stage| std::ptr::eq::<PhysicalExpr>(stage.node, node))
        {
            let stage = &self.stages[index];
            let table = &self.tables[index];
            let probe = KeyedSource::rows(
                self.open_node(stage.probe, task, ctx)?,
                stage.probe_key,
                table.state(),
                ctx,
            );
            let spec = PairSpec {
                residual: stage.residual,
                map: None,
                build_on_left: stage.build_on_left,
            };
            return Ok(Box::new(SharedProbe::new(
                Probe::new(probe, spec, ctx),
                table,
            )));
        }
        // Spine operators wrap the partitioned child; anything else is an
        // off-spine subtree and builds serially.
        match node {
            PhysicalExpr::FilterOp { input, predicate } => Ok(Box::new(
                super::filter::FilterCursor::new(self.open_node(input, task, ctx)?, predicate, ctx),
            )),
            PhysicalExpr::ProjectOp { input, columns } => Ok(Box::new(
                super::filter::ProjectCursor::new(self.open_node(input, task, ctx)?, columns, ctx),
            )),
            PhysicalExpr::MapOp { input, projection } => Ok(Box::new(
                super::filter::MapCursor::new(self.open_node(input, task, ctx)?, projection, ctx),
            )),
            PhysicalExpr::BindOp { var, input } => Ok(Box::new(super::filter::BindCursor::new(
                self.open_node(input, task, ctx)?,
                var,
                ctx,
            ))),
            PhysicalExpr::MkFlatten(inner) => Ok(Box::new(super::union::FlattenCursor::new(
                self.open_node(inner, task, ctx)?,
                ctx,
            ))),
            other => build(other, ctx),
        }
    }
}

/// Runs `work(worker, task)` for every task of `queue` on a pool of
/// `threads` scoped workers.  Panics become
/// [`RuntimeError::WorkerPanic`]; the first failure (by task id) wins and
/// flips an abort flag that stops the other workers at their next claim.
/// Stream queues block claims until chunks arrive, so workers drain a
/// growing source until its spool reports a terminal status.
fn for_each_task<F>(threads: usize, queue: &TaskQueue<'_>, work: F) -> Result<()>
where
    F: Fn(usize, &Task) -> Result<()> + Sync,
{
    if queue.task_hint() == Some(0) {
        return Ok(());
    }
    let workers = match queue.task_hint() {
        Some(total) => threads.min(total),
        None => threads,
    };
    let abort = AtomicBool::new(false);
    let failure: Mutex<Option<(usize, RuntimeError)>> = Mutex::new(None);
    // On a call worker (a nested query behind a mediator wrapper) the join
    // below waits for scoped threads that wait for queued calls: it must
    // not hold a runner slot meanwhile.
    crate::calls::blocking(|| {
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let abort = &abort;
                let failure = &failure;
                let work = &work;
                scope.spawn(move || loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let (id, error) = match queue.claim() {
                        Ok(Some(task)) => {
                            let id = task.id();
                            match catch_unwind(AssertUnwindSafe(|| work(worker, &task))) {
                                Ok(Ok(())) => continue,
                                Ok(Err(error)) => (id, error),
                                Err(payload) => {
                                    (id, RuntimeError::WorkerPanic(panic_message(&*payload)))
                                }
                            }
                        }
                        Ok(None) => break,
                        // A claim error (unavailable / failed / panicked
                        // source) outranks nothing: any work error with a
                        // task id wins the deterministic-first slot.
                        Err(error) => (usize::MAX, error),
                    };
                    let mut slot = failure.lock();
                    if slot.as_ref().is_none_or(|(first, _)| id < *first) {
                        *slot = Some((id, error));
                    }
                    abort.store(true, Ordering::Relaxed);
                    queue.interrupt();
                });
            }
        })
    });
    match failure.into_inner() {
        Some((_, error)) => Err(error),
        None => Ok(()),
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

//! # disco-runtime
//!
//! The DISCO run-time system (§3.3, §4, Fig. 2): it executes physical
//! plans by issuing every `exec` (wrapper) call **in parallel**, applies
//! local transformation maps and the run-time type check at the wrapper
//! boundary, evaluates the mediator-side operators, records finished calls
//! into the self-calibrating cost store, and — when sources do not answer
//! by the deadline — performs **partial evaluation**: the answer to the
//! query is another query, `union(<residual query over the unavailable
//! sources>, <data from the available sources>)`.
//!
//! The central types are [`Executor`] and [`Answer`].
//!
//! # One executor path
//!
//! [`Executor::execute`] queues every wrapper call at once
//! ([`resolve_execs_streamed`]; one bounded, process-wide call executor
//! runs them — a call sleeping out a link delay holds no runner, so
//! threads follow the machine and the calls that wait, not the source
//! count), evaluates the plan in one pass while row chunks arrive, and
//! finalizes the resolution.  A source that turns out (or is
//! deadline-classified) unavailable unwinds the pass only to the root
//! union branch that reads it — a member of a root fan-out (an interface's
//! extent, or a union of like branches) is such a branch; the other
//! branches stream on, and their
//! rows are the data of the partial answer, whose residual is §4's
//! reduction of the lost branches.  Under a root that is not a union the
//! loss ends the pass, and the answer is [`partial_evaluate`]'s: no data
//! and the reduced plan.  The pass never restarts.  There is no blocking
//! mode; [`resolve_execs`] (streamed resolution, then finalization) is a
//! helper handing oracles, tests and staged measurements the materialized
//! outcomes a streamed execution must agree with.  Below the executor
//! sit [`evaluate_physical`] (default options) and
//! [`evaluate_physical_with`] (metrics + options); the seed evaluator is
//! kept as [`reference`](mod@reference), the oracle of the differential
//! tests and the benchmark.
//!
//! # The streaming cursor engine
//!
//! Mediator-side operators execute through a **pull-based cursor
//! pipeline** ([`pipeline`]): a physical plan is opened into a tree of
//! [`pipeline::RowStream`] cursors and rows are pulled through it in
//! batches.  A cursor has one pull, `next_batch`: every operator —
//! the nested-loop and merge-tuples joins, flatten and aggregates too —
//! takes its input and hands on its output a batch at a time.  Operators
//! come in two kinds:
//!
//! * **Streaming** — scan, filter, project, map, bind, union, flatten.
//!   These forward each row as soon as it is produced and hold no per-row
//!   state, so a `filter → join → project` chain moves rows end to end
//!   without any intermediate bag.
//! * **Pipeline breakers** — the hash-join *build side* (the smaller
//!   input, picked from resolved `exec` cardinalities and literal bag
//!   lengths), the re-scanned inner of a nested-loop or merge-tuples
//!   join, the `distinct` seen-set, and aggregates (which fold their
//!   input with O(1) state).  Only these ever buffer rows; the final
//!   answer bag is produced by the pipeline's collect sink.
//!
//! The classification is part of the physical algebra
//! (`disco_algebra::PhysicalExpr::pipeline_behavior`), and
//! [`pipeline::PipelineMetrics`] counts what each execution actually
//! buffered, so the claim is enforced by tests rather than asserted in
//! prose.
//!
//! Fusable stretches (`map? → filter* → bind? → scan`, and hash joins
//! over them) run through **columnar operators** — typed column chunks
//! and compiled scalar kernels.  This is not a mode: cursor construction
//! always tries them first, and the row cursors are their fallback — per
//! batch on irregular input or a would-be error, and for plans that do
//! not fuse.  A still-pending source feeds the kernels out of its spool's
//! chunk chain, with or without a memory budget.
//! [`ExecutionStats`] reports `rows_kernel` / `rows_fallback`.
//!
//! Join output is **lazy**: a join match yields the (left, right) row
//! frames, not a merged struct.  Downstream scalar evaluation layers the
//! frames onto the [`disco_algebra::Env`] scope chain — a struct row
//! binds its fields, join frames stack left-to-right so right fields
//! shadow left ones, and correlated sub-queries see the enclosing scopes.
//! A merged output struct is only built if an unmerged join row reaches a
//! consumer that needs one value (distinct, a column projection, the
//! final sink).
//!
//! # Memory budgets and spilling
//!
//! Pipeline-breaker state can be bounded ([`pipeline::spill`]): set
//! `DISCO_MEM_BUDGET` (a positive byte count), [`PipelineOptions`]'
//! `mem_budget` field, or [`Executor::with_mem_budget`].  When the
//! tracked bytes of a hash-join build table or a distinct seen-set reach
//! the budget, the breaker hash-partitions its state into disk runs and
//! recurses per partition (Grace style).  Aggregates keep O(1) state and
//! never spill.  The spools of still-answering wrapper calls are not
//! budgeted: each is the chunk chain with or without a budget, because
//! finalization holds every source's whole answer anyway.  Spill files
//! are written to `DISCO_SPILL_DIR` (the system temp directory by
//! default) and deleted eagerly — on success *and* on error paths; a
//! spill that cannot be written is a `RuntimeError::Spill`.  The
//! answer multiset, errors, and `rows_materialized` are identical to the
//! unbounded path; [`ExecutionStats`] reports `bytes_spilled`,
//! `spill_partitions`, and `peak_tracked_bytes`.  The default (no
//! environment variable, `MemBudget::Auto`) is unbounded — the
//! pre-budget behavior, byte for byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calls;
mod error;
mod eval;
mod exec;
mod executor;
mod partial;
pub mod pipeline;
mod pool;
mod prepared;
pub mod reference;

pub use error::RuntimeError;
pub use eval::{evaluate_physical, evaluate_physical_with};
pub use exec::{
    resolve_execs, resolve_execs_streamed, ExecKey, ExecOutcome, ExecutionConfig, PendingSource,
    ResolvedExecs, SourceCallStats,
};
pub use executor::Executor;
pub use partial::{
    is_fully_resolved, partial_evaluate, partial_evaluate_reference, Answer, ExecutionStats,
};
pub use pipeline::{BuildSide, MemBudget, PipelineMetrics, PipelineOptions};
pub use pool::SourcePool;
pub use prepared::{collect_exec_calls, PreparedPlan};

/// Wrapper calls the process-wide call executor holds — queued, running
/// or blocked mid-call.  Zero once every query has finished and its
/// cancelled calls have wound down: the leak check of the test suites.
#[must_use]
pub fn calls_in_flight() -> usize {
    calls::CallExecutor::global().in_flight()
}

/// Worker threads the process-wide call executor has started so far (the
/// thread-bound assertion of `tests/scaling.rs`).
#[doc(hidden)]
#[must_use]
pub fn call_threads_spawned() -> usize {
    calls::CallExecutor::global().threads_spawned()
}

/// Locks a mutex, ignoring poisoning: every update made under the
/// runtime's locks leaves the guarded state valid at every step, and a
/// contained wrapper panic is surfaced separately as `WorkerPanic`.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Convenience result alias for runtime operations.
pub type Result<T> = std::result::Result<T, RuntimeError>;

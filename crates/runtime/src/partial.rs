//! Partial evaluation: answers that are themselves queries (§1.3, §4).
//!
//! When some data sources have not answered by the deadline, DISCO does not
//! fail and does not silently drop data.  Instead "the query is rewritten
//! into two parts, one which contains a query to the unavailable data, and
//! the other contains the remainder of the query to be processed.  Query
//! processing proceeds until the remainder part consists only of data."
//! The answer is then `union(<residual query>, <data>)` — a legal OQL
//! expression that can be resubmitted verbatim once the sources recover.

use std::time::Instant;

use disco_algebra::{logical_to_oql, lower, Env, LogicalExpr, PhysicalExpr, ScalarExpr};
use disco_oql::print_expr;
use disco_value::Bag;

use crate::exec::{ExecOutcome, ResolvedExecs, SourceCallStats};
use crate::pipeline::{
    evaluate_physical_streamed, root_branches, Pass, PipelineMetrics, PipelineOptions,
};
use crate::{Result, RuntimeError};

/// A partial answer: its data, its residual, and when the first of the
/// data's rows reached the sink, since the execution started.
pub(crate) type Partial = (Bag, Option<LogicalExpr>, Option<std::time::Duration>);

/// Execution statistics attached to every answer.
///
/// Counters that sum over concurrent wrapper calls —
/// [`ExecutionStats::source_wait`] in particular — can exceed
/// [`ExecutionStats::elapsed`]; they measure total blocked/processed
/// quantity, not wall-clock.
#[derive(Debug, Clone, Default)]
pub struct ExecutionStats {
    /// Number of `exec` (wrapper) calls issued — one per `submit` node
    /// of the executed plan, including calls that end unavailable.
    pub exec_calls: usize,
    /// Total rows transferred from sources to the mediator: the sum of
    /// every call's delivered row count *after* the local transformation
    /// map, before any mediator-side operator drops them.  This is the
    /// quantity a row budget caps.
    pub rows_transferred: usize,
    /// Rows buffered by pipeline breakers (hash-join build side, the inner
    /// side of nested-loop joins, the distinct seen-set) while streaming
    /// the combine step: the one pass (a lost root union branch up to its
    /// loss) and the resolved subtrees a residual was reduced over.  A
    /// hash join's build row counts once, whether its table keeps it as a
    /// position in its batch or as a row.
    pub rows_materialized: usize,
    /// Repositories classified unavailable during this execution.
    pub unavailable: Vec<String>,
    /// Wall-clock time of the whole execution.
    pub elapsed: std::time::Duration,
    /// Per-call details.
    pub source_calls: Vec<SourceCallStats>,
    /// How long after the query started the first answer row reached the
    /// final sink.  Typically far below [`ExecutionStats::elapsed`]: fast
    /// sources' rows are combined while slow sources are still answering.
    /// `None` when the answer holds no data.  A partial answer's is the
    /// first row of a root union branch (or fan-out member) it keeps.
    pub time_to_first_row: Option<std::time::Duration>,
    /// Total time the execution spent waiting on sources: the combine
    /// step parked on still-streaming spools (a chunk that was already
    /// there costs no wait), plus — when a shared
    /// [`SourcePool`](crate::SourcePool) is configured — time wrapper
    /// calls spent queued behind a per-repository concurrency cap
    /// before being submitted.  The second component sums over the
    /// calls, so the total can exceed
    /// [`ExecutionStats::elapsed`] and the two components can overlap
    /// in wall-clock time.  The complement
    /// of overlap: time inside the execution window *not* spent here was
    /// useful mediator-side work.
    pub source_wait: std::time::Duration,
    /// Rows whose scalar work ran through vectorized columnar kernels.
    /// Together with
    /// [`ExecutionStats::rows_fallback`] this makes kernel coverage
    /// observable per execution.
    pub rows_kernel: usize,
    /// Rows a columnar stretch evaluated through the per-row `Env` path
    /// instead (irregular batches, expressions the kernel set does not
    /// cover at runtime).  Rows outside any columnar stretch count in
    /// neither bucket.
    pub rows_fallback: usize,
    /// Fused spines the combine step compiled: one per class of a
    /// fan-out (however many sources it reads), one per join side, one
    /// per other fused stretch.
    pub spines_compiled: usize,
    /// Breaker bytes written to disk under a memory budget: the runs of
    /// spilling pipeline breakers (hash join, distinct, the buffered
    /// inner of a nested-loop or merge join).  Pending-source spools never
    /// spill.  Always 0 under the default unbounded budget.
    pub bytes_spilled: u64,
    /// Grace partition fan-outs performed by spilling breakers (8 per
    /// spill or re-split).  Always 0 under the default unbounded budget.
    pub spill_partitions: usize,
    /// High-water mark of the bytes the pipeline's memory budget had
    /// under charge.  0 when the budget is unbounded (nothing is
    /// tracked).
    pub peak_tracked_bytes: usize,
}

impl ExecutionStats {
    /// The statistics of one finished execution, filled at this one site:
    /// source-side totals from the finalized `resolved`, combine-side
    /// counters from the execution's `metrics`, wall-clock since `started`,
    /// and when the answer's first row reached the sink (`None` without
    /// data).
    pub(crate) fn of(
        resolved: ResolvedExecs,
        metrics: &PipelineMetrics,
        started: Instant,
        first_row: Option<std::time::Duration>,
        data: &Bag,
    ) -> Self {
        ExecutionStats {
            exec_calls: resolved.call_count(),
            rows_transferred: resolved.rows_transferred(),
            rows_materialized: metrics.rows_materialized(),
            unavailable: resolved.unavailable_repositories(),
            elapsed: started.elapsed(),
            time_to_first_row: first_row.filter(|_| !data.is_empty()),
            source_wait: metrics.source_wait() + resolved.source_queue_wait(),
            rows_kernel: metrics.rows_kernel(),
            rows_fallback: metrics.rows_fallback(),
            spines_compiled: metrics.spines_compiled(),
            bytes_spilled: metrics.bytes_spilled(),
            spill_partitions: metrics.spill_partitions(),
            peak_tracked_bytes: metrics.peak_tracked_bytes(),
            // Last: the per-call stats move out of `resolved`.
            source_calls: resolved.into_stats(),
        }
    }
}

/// The answer to a query: data plus, when sources were unavailable, the
/// residual query over them.
#[derive(Debug, Clone)]
pub struct Answer {
    data: Bag,
    residual: Option<LogicalExpr>,
    stats: ExecutionStats,
}

impl Answer {
    /// Builds a complete answer.
    #[must_use]
    pub fn complete(data: Bag, stats: ExecutionStats) -> Self {
        Answer {
            data,
            residual: None,
            stats,
        }
    }

    /// Builds a partial answer.
    #[must_use]
    pub fn partial(data: Bag, residual: LogicalExpr, stats: ExecutionStats) -> Self {
        Answer {
            data,
            residual: Some(residual),
            stats,
        }
    }

    /// Returns `true` when every source answered and the answer is pure
    /// data.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.residual.is_none()
    }

    /// The data part of the answer.
    #[must_use]
    pub fn data(&self) -> &Bag {
        &self.data
    }

    /// The residual logical plan over the unavailable sources, if any.
    #[must_use]
    pub fn residual(&self) -> Option<&LogicalExpr> {
        self.residual.as_ref()
    }

    /// The residual query as OQL text, if any.
    #[must_use]
    pub fn residual_oql(&self) -> Option<String> {
        self.residual
            .as_ref()
            .map(|r| print_expr(&logical_to_oql(r)))
    }

    /// The whole answer as an OQL expression.
    ///
    /// A complete answer prints as a bag of its data; a partial answer
    /// prints as `union(<residual query>, bag(<data>))` — the §1.3 form,
    /// which can be resubmitted as a new query.
    #[must_use]
    pub fn as_query_text(&self) -> String {
        let data_expr = LogicalExpr::Data(self.data.clone());
        let combined = match &self.residual {
            Some(residual) => LogicalExpr::Union(vec![residual.clone(), data_expr]),
            None => data_expr,
        };
        print_expr(&logical_to_oql(&combined))
    }

    /// The repositories that were unavailable.
    #[must_use]
    pub fn unavailable_sources(&self) -> &[String] {
        &self.stats.unavailable
    }

    /// How long after the query started the first answer row reached the
    /// final sink (the streamed-resolution latency win; `None` when the
    /// answer holds no data).
    #[must_use]
    pub fn time_to_first_row(&self) -> Option<std::time::Duration> {
        self.stats.time_to_first_row
    }

    /// Execution statistics.
    #[must_use]
    pub fn stats(&self) -> &ExecutionStats {
        &self.stats
    }
}

/// Returns `true` when the plan has no source access left: every
/// `submit` in it — aggregate sub-plans included — answered in
/// `resolved`.
#[must_use]
pub fn is_fully_resolved(plan: &LogicalExpr, resolved: &ResolvedExecs) -> bool {
    let structurally = match plan {
        // An answered `submit` is data; what it ships is not evaluated here.
        LogicalExpr::Submit {
            repository,
            extent,
            expr,
            ..
        } => {
            let outcome = resolved.outcome_of(repository, extent, expr);
            return matches!(outcome, Some(ExecOutcome::Rows(_)));
        }
        LogicalExpr::Extents(node) => {
            return (0..node.members.len()).all(|i| is_fully_resolved(&node.branch(i), resolved));
        }
        LogicalExpr::Get { .. } => false,
        LogicalExpr::Filter { predicate, .. } => scalar_resolved(predicate, resolved),
        LogicalExpr::MapProject { projection, .. } => scalar_resolved(projection, resolved),
        LogicalExpr::Join {
            predicate: Some(p), ..
        } => scalar_resolved(p, resolved),
        _ => true,
    };
    structurally
        && plan
            .children()
            .iter()
            .all(|c| is_fully_resolved(c, resolved))
}

/// [`is_fully_resolved`] for the aggregate sub-plans of a scalar.
fn scalar_resolved(expr: &ScalarExpr, resolved: &ResolvedExecs) -> bool {
    match expr {
        ScalarExpr::Agg(_, plan) => is_fully_resolved(plan, resolved),
        ScalarExpr::Binary { left, right, .. } => {
            scalar_resolved(left, resolved) && scalar_resolved(right, resolved)
        }
        ScalarExpr::Not(inner) | ScalarExpr::Field(inner, _) => scalar_resolved(inner, resolved),
        ScalarExpr::StructLit(fields) => fields.iter().all(|(_, e)| scalar_resolved(e, resolved)),
        ScalarExpr::Call(_, args) => args.iter().all(|a| scalar_resolved(a, resolved)),
        ScalarExpr::Const(_) | ScalarExpr::Attr(_) | ScalarExpr::Var(_) => true,
    }
}

/// The evaluator used to collapse fully resolved subtrees to data: the
/// streaming engine in production, the reference evaluator in the
/// differential tests.
type Eval<'e> = dyn Fn(&LogicalExpr, &ResolvedExecs, &Env<'_>) -> Result<Bag> + 'e;

/// The streaming engine as a [`Eval`], counting into `metrics`.
fn streamed(
    metrics: &PipelineMetrics,
    options: PipelineOptions,
) -> impl Fn(&LogicalExpr, &ResolvedExecs, &Env<'_>) -> Result<Bag> + '_ {
    move |plan, resolved, outer| {
        let physical = lower(plan).map_err(RuntimeError::Algebra)?;
        evaluate_physical_streamed(&physical, resolved, outer, metrics, options)
    }
}

/// Partially evaluates a plan over finalized outcomes: every fully
/// resolved subtree — an answered `submit` is one — is **streamed** to
/// data through the cursor pipeline under `options`, counted into
/// `metrics`; unions separate into residual branches plus one data
/// branch; anything else keeps its unresolved shape.  Plans that touch
/// unavailable sources are never opened, and the residual-plan
/// construction never evaluates anything, so residual plans are identical
/// whatever `options` says.
///
/// Returns the data obtained and the residual plan (if any work remains).
///
/// # Errors
///
/// Returns evaluation errors from the resolved subtrees.
pub fn partial_evaluate(
    plan: &LogicalExpr,
    resolved: &ResolvedExecs,
    metrics: &PipelineMetrics,
    options: PipelineOptions,
) -> Result<(Bag, Option<LogicalExpr>)> {
    partial_evaluate_with(plan, resolved, &streamed(metrics, options))
}

/// [`partial_evaluate`] driven by the bag-at-a-time reference evaluator
/// ([`crate::reference`]) instead of the streaming engine.
///
/// Exists so the differential test-suite can assert that both engines
/// produce identical partial answers (data *and* residual); production
/// code should call [`partial_evaluate`].
///
/// # Errors
///
/// See [`partial_evaluate`].
pub fn partial_evaluate_reference(
    plan: &LogicalExpr,
    resolved: &ResolvedExecs,
) -> Result<(Bag, Option<LogicalExpr>)> {
    partial_evaluate_with(plan, resolved, &crate::reference::evaluate_logical)
}

fn partial_evaluate_with(
    plan: &LogicalExpr,
    resolved: &ResolvedExecs,
    eval: &Eval<'_>,
) -> Result<(Bag, Option<LogicalExpr>)> {
    if is_fully_resolved(plan, resolved) {
        return Ok((eval(plan, resolved, &Env::root())?, None));
    }
    match reduce(plan, resolved, eval)? {
        LogicalExpr::Union(mut items) => {
            // `reduce` merges a union's data into its last item.
            let data = match items.pop_if(|item| matches!(item, LogicalExpr::Data(_))) {
                Some(LogicalExpr::Data(bag)) => bag,
                _ => Bag::new(),
            };
            Ok((data, union_of(items)))
        }
        other => Ok((Bag::new(), Some(other))),
    }
}

/// The residual of residual branches: none, the one, or their union.
fn union_of(mut items: Vec<LogicalExpr>) -> Option<LogicalExpr> {
    match items.len() {
        0 => None,
        1 => items.pop(),
        _ => Some(LogicalExpr::Union(items)),
    }
}

/// The partial answer of an execution that started at `started`, from
/// the pass that ran (`None` when a loss ended it).  Under a root union
/// or fan-out the pass's rows of each branch that reduction collapses to
/// data are the data — its first row the first of theirs — and the
/// residual is the reduction of the other branches alone.  Under any
/// other root this is [`partial_evaluate`].
pub(crate) fn partial_answer(
    plan: &PhysicalExpr,
    pass: Option<Pass>,
    resolved: &ResolvedExecs,
    metrics: &PipelineMetrics,
    options: PipelineOptions,
    started: Instant,
) -> Result<Partial> {
    let eval = streamed(metrics, options);
    let (Some(branches), Some((data, mut runs))) = (root_branches(plan), pass) else {
        let (data, residual) = partial_evaluate_with(&plan.to_logical(), resolved, &eval)?;
        return Ok((data, residual, metrics.time_to_first_row_since(started)));
    };
    let kept: Vec<bool> = branches.iter().map(|b| collapses(b, resolved)).collect();
    runs.retain(|(branch, _, _)| kept[*branch]);
    let first_row = runs.iter().map(|(_, _, first)| *first).min();
    // The kept branches' rows, branch by branch: a partial answer is the
    // same bag, printed as the same text, however its sources' chunks
    // interleaved in the sink.
    let data = if runs.iter().map(|(_, run, _)| run.len()).sum::<usize>() == data.len()
        && runs.is_sorted_by_key(|(b, _, _)| *b)
    {
        data
    } else {
        runs.sort_by_key(|(branch, _, _)| *branch);
        let rows = data.as_slice();
        let kept_rows = runs.into_iter().flat_map(|(_, run, _)| rows[run].iter());
        kept_rows.cloned().collect()
    };
    let lost = branches
        .iter()
        .zip(kept)
        .filter(|(_, kept)| !kept)
        .map(|(branch, _)| reduce(branch, resolved, &eval))
        .collect::<Result<Vec<_>>>()?;
    let first_row = first_row.map(|first| first.saturating_duration_since(started));
    Ok((data, union_of(lost), first_row))
}

/// Whether reduction collapses a plan to data: it is fully resolved and
/// yields plain values, not range-variable environments (`{var: row}`
/// frames).
fn collapses(plan: &LogicalExpr, resolved: &ResolvedExecs) -> bool {
    fn yields_environments(plan: &LogicalExpr) -> bool {
        match plan {
            LogicalExpr::Bind { .. } | LogicalExpr::Join { .. } => true,
            LogicalExpr::Filter { input, .. } => yields_environments(input),
            _ => false,
        }
    }
    is_fully_resolved(plan, resolved) && !yields_environments(plan)
}

/// Bottom-up reduction: fully resolved subtrees collapse to `Data`.
///
/// A resolved subtree that yields environments collapses *below* its
/// `bind`s, not through them: the unresolved operator above still names
/// the range variables, and the residual must print as a query in which
/// they are bound (`y in bag(...)`), or it could not be resubmitted.
fn reduce(plan: &LogicalExpr, resolved: &ResolvedExecs, eval: &Eval<'_>) -> Result<LogicalExpr> {
    if collapses(plan, resolved) {
        let bag = eval(plan, resolved, &Env::root())?;
        return Ok(LogicalExpr::Data(bag));
    }
    match plan {
        // A member's branch is a union branch like any other.
        LogicalExpr::Extents(node) => reduce(&node.to_union(), resolved, eval),
        LogicalExpr::Union(items) => {
            let mut reduced_items = Vec::with_capacity(items.len());
            let mut data = Bag::new();
            for item in items {
                match reduce(item, resolved, eval)? {
                    LogicalExpr::Data(bag) => data.extend(bag),
                    other => reduced_items.push(other),
                }
            }
            if !data.is_empty() || reduced_items.is_empty() {
                reduced_items.push(LogicalExpr::Data(data));
            }
            Ok(LogicalExpr::Union(reduced_items))
        }
        other => {
            // Reduce children where possible but keep this operator: it
            // still depends on an unavailable source (or binds a variable
            // one does).  Children are reduced first (propagating errors),
            // then spliced back in order.
            let reduced_children: Vec<LogicalExpr> = other
                .children()
                .into_iter()
                .map(|child| reduce(child, resolved, eval))
                .collect::<Result<_>>()?;
            let index = std::cell::Cell::new(0usize);
            let rebuilt = other.map_children(&|_child| {
                let i = index.get();
                index.set(i + 1);
                reduced_children[i].clone()
            });
            Ok(rebuilt)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecKey, ExecOutcome, SourceCallStats};
    use disco_algebra::{data_of, ScalarOp};
    use disco_value::{StructValue, Value};

    fn streamed_partial(
        plan: &LogicalExpr,
        resolved: &ResolvedExecs,
    ) -> (Bag, Option<LogicalExpr>) {
        let options = PipelineOptions::default();
        partial_evaluate(plan, resolved, &PipelineMetrics::new(), options).unwrap()
    }

    fn person(name: &str, salary: i64) -> Value {
        Value::Struct(
            StructValue::new(vec![
                ("name", Value::from(name)),
                ("salary", Value::Int(salary)),
            ])
            .unwrap(),
        )
    }

    /// Builds the paper's two-source plan and a resolution where r0 is
    /// unavailable and r1 answered with Sam.
    fn paper_scenario() -> (LogicalExpr, ResolvedExecs) {
        let branch = |extent: &str, repo: &str| {
            LogicalExpr::get(extent)
                .submit(repo, "w0", extent)
                .filter(ScalarExpr::binary(
                    ScalarOp::Gt,
                    ScalarExpr::attr("salary"),
                    ScalarExpr::constant(10i64),
                ))
                .bind("y")
                .map_project(ScalarExpr::var_field("y", "name"))
        };
        let plan = LogicalExpr::Union(vec![branch("person0", "r0"), branch("person1", "r1")]);
        let mut resolved = ResolvedExecs::default();
        resolved.insert(
            ExecKey::new("r0", "person0", &LogicalExpr::get("person0")),
            ExecOutcome::Unavailable,
            SourceCallStats {
                repository: "r0".into(),
                extent: "person0".into(),
                available: false,
                rows_returned: 0,
                rows_scanned: 0,
                latency: std::time::Duration::ZERO,
            },
        );
        resolved.insert(
            ExecKey::new("r1", "person1", &LogicalExpr::get("person1")),
            ExecOutcome::Rows([person("Sam", 50)].into_iter().collect()),
            SourceCallStats {
                repository: "r1".into(),
                extent: "person1".into(),
                available: true,
                rows_returned: 1,
                rows_scanned: 1,
                latency: std::time::Duration::from_millis(1),
            },
        );
        (plan, resolved)
    }

    #[test]
    fn partial_evaluation_produces_the_paper_partial_answer() {
        let (plan, resolved) = paper_scenario();
        assert!(!is_fully_resolved(&plan, &resolved));
        let metrics = PipelineMetrics::new();
        let (data, residual) =
            partial_evaluate(&plan, &resolved, &metrics, PipelineOptions::default()).unwrap();
        assert_eq!(metrics.rows_emitted(), 1, "Sam's row, streamed once");
        assert_eq!(data, [Value::from("Sam")].into_iter().collect());
        let residual = residual.expect("residual query over r0");
        let text = print_expr(&logical_to_oql(&residual));
        assert_eq!(text, "select y.name from y in person0 where y.salary > 10");
        // The combined answer is the §1.3 form.
        let stats = ExecutionStats::of(resolved, &metrics, Instant::now(), None, &data);
        let answer = Answer::partial(data, residual, stats);
        assert!(!answer.is_complete());
        assert_eq!(
            answer.as_query_text(),
            "union(select y.name from y in person0 where y.salary > 10, bag(\"Sam\"))"
        );
        assert_eq!(answer.unavailable_sources(), &["r0".to_owned()]);
    }

    #[test]
    fn fully_available_plans_collapse_to_data() {
        let (plan, mut resolved) = {
            let (plan, _) = paper_scenario();
            (plan, ResolvedExecs::default())
        };
        resolved.insert(
            ExecKey::new("r0", "person0", &LogicalExpr::get("person0")),
            ExecOutcome::Rows([person("Mary", 200)].into_iter().collect()),
            SourceCallStats {
                repository: "r0".into(),
                extent: "person0".into(),
                available: true,
                rows_returned: 1,
                rows_scanned: 1,
                latency: std::time::Duration::ZERO,
            },
        );
        resolved.insert(
            ExecKey::new("r1", "person1", &LogicalExpr::get("person1")),
            ExecOutcome::Rows([person("Sam", 50)].into_iter().collect()),
            SourceCallStats {
                repository: "r1".into(),
                extent: "person1".into(),
                available: true,
                rows_returned: 1,
                rows_scanned: 1,
                latency: std::time::Duration::ZERO,
            },
        );
        assert!(is_fully_resolved(&plan, &resolved));
        let (data, residual) = streamed_partial(&plan, &resolved);
        assert!(residual.is_none());
        assert_eq!(
            data,
            [Value::from("Mary"), Value::from("Sam")]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn complete_answers_print_as_data() {
        let answer = Answer::complete(
            [Value::from("Mary"), Value::from("Sam")]
                .into_iter()
                .collect(),
            ExecutionStats::default(),
        );
        assert!(answer.is_complete());
        assert_eq!(answer.as_query_text(), "bag(\"Mary\", \"Sam\")");
        assert!(answer.residual_oql().is_none());
    }

    #[test]
    fn join_touching_unavailable_source_stays_residual() {
        // A mediator join where one side is unavailable cannot produce data;
        // the whole join is residual.
        let left = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .bind("x");
        let right = LogicalExpr::Data([person("Sam", 50)].into_iter().collect()).bind("y");
        let plan = LogicalExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "name"),
                ScalarExpr::var_field("y", "name"),
            )),
        }
        .map_project(ScalarExpr::var_field("x", "name"));
        let resolved = ResolvedExecs::default();
        let (data, residual) = streamed_partial(&plan, &resolved);
        assert!(data.is_empty());
        // The resolved side keeps its range variable, so the residual is a
        // query the predicate's `y` is bound in.
        assert_eq!(
            print_expr(&logical_to_oql(&residual.expect("the join stays residual"))),
            "select x.name from x in person0, y in bag(struct(name: \"Sam\", salary: 50)) \
             where x.name = y.name"
        );
    }

    #[test]
    fn data_only_unions_have_no_residual() {
        let plan = LogicalExpr::Union(vec![data_of(["a"]), data_of(["b"])]);
        let (data, residual) = streamed_partial(&plan, &ResolvedExecs::default());
        assert_eq!(data.len(), 2);
        assert!(residual.is_none());
    }
}

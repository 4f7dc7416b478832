//! Differential and fault-injection suite for the executor: wrapper
//! answers feed the cursor pipeline as they arrive, and what
//! `Executor::execute` returns must be what the two stages give when run
//! one after the other over materialized outcomes (the benchmark oracle's
//! method) — answers and residual plans against the reference evaluator
//! over `resolve_execs` outcomes, `rows_materialized` and error text
//! against `resolve_execs` → `evaluate_physical_with` — also under a
//! bounded memory budget.  The paper's §4
//! property is checked as recovery, not only parity: once the links come
//! back, the data part plus the executed residual is the all-available
//! answer, and the residual's OQL text round-trips through the compiler.
//! Fault injection covers degraded (trickling) sources, mid-stream hard
//! failures, panicking wrappers, and the deadline regression: a slow
//! source under a deadline yields the fast sources' data plus a residual
//! plan, with `time_to_first_row` well under the deadline.

mod common;

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{branch, federation_with, instant_profile, Federation};
use disco_algebra::{
    logical_to_oql, lower, AggKind, LogicalExpr, PhysicalExpr, ScalarExpr, ScalarOp,
};
use disco_algebra::{rules, CapabilitySet};
use disco_catalog::{MetaExtent, Repository, WrapperDef};
use disco_optimizer::compile_text;
use disco_runtime::{
    evaluate_physical_with, is_fully_resolved, partial_evaluate_reference, reference,
    resolve_execs, resolve_execs_streamed, Answer, BuildSide, ExecutionConfig, Executor, MemBudget,
    PipelineMetrics, PipelineOptions, RuntimeError,
};
use disco_source::{Availability, NetworkProfile};
use disco_value::{Bag, Value};
use disco_wrapper::{AnswerSink, AnswerSummary, Wrapper, WrapperError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random federated plan over `n` sources, in the shape families the
/// mediator produces: the federated union of per-source scans, and over
/// it a filter, a distinct, an aggregate or a join with a source; an
/// equi-join of two sources; an aggregate over a source.
fn random_federated_plan(rng: &mut StdRng, n: usize) -> LogicalExpr {
    let union = |rng: &mut StdRng| {
        LogicalExpr::Union((0..n).map(|i| branch(i, rng.gen_range(0..600))).collect())
    };
    match rng.gen_range(0..7) {
        0 => union(rng),
        1 if n >= 2 => {
            let a = rng.gen_range(0..n);
            let b = (a + 1 + rng.gen_range(0..n - 1)) % n;
            LogicalExpr::Join {
                left: Box::new(
                    LogicalExpr::get(format!("person{a}"))
                        .submit(format!("r{a}"), format!("w{a}"), format!("person{a}"))
                        .bind("x"),
                ),
                right: Box::new(
                    LogicalExpr::get(format!("person{b}"))
                        .submit(format!("r{b}"), format!("w{b}"), format!("person{b}"))
                        .bind("y"),
                ),
                predicate: Some(ScalarExpr::binary(
                    ScalarOp::Eq,
                    ScalarExpr::var_field("x", "id"),
                    ScalarExpr::var_field("y", "id"),
                )),
            }
            .map_project(ScalarExpr::var_field("x", "name"))
        }
        2 => LogicalExpr::Aggregate {
            func: [AggKind::Sum, AggKind::Count, AggKind::Min, AggKind::Max]
                [rng.gen_range(0..4usize)],
            input: Box::new(
                LogicalExpr::get("person0")
                    .submit("r0", "w0", "person0")
                    .bind("x")
                    .map_project(ScalarExpr::var_field("x", "salary")),
            ),
        },
        3 => LogicalExpr::Distinct(Box::new(union(rng))),
        4 => union(rng)
            .bind("n")
            .filter(ScalarExpr::binary(
                ScalarOp::Lt,
                ScalarExpr::Var("n".into()),
                ScalarExpr::constant(["D", "M", "P"][rng.gen_range(0..3usize)]),
            ))
            .map_project(ScalarExpr::Var("n".into())),
        5 => LogicalExpr::Aggregate {
            func: [AggKind::Count, AggKind::Min, AggKind::Max][rng.gen_range(0..3usize)],
            input: Box::new(union(rng)),
        },
        _ => {
            let b = rng.gen_range(0..n);
            LogicalExpr::Join {
                left: Box::new(union(rng).bind("n")),
                right: Box::new(
                    LogicalExpr::get(format!("person{b}"))
                        .submit(format!("r{b}"), format!("w{b}"), format!("person{b}"))
                        .bind("y"),
                ),
                predicate: Some(ScalarExpr::binary(
                    ScalarOp::Eq,
                    ScalarExpr::Var("n".into()),
                    ScalarExpr::var_field("y", "name"),
                )),
            }
            .map_project(ScalarExpr::var_field("y", "id"))
        }
    }
}

fn execute(
    federation: &Federation,
    plan: &LogicalExpr,
    options: PipelineOptions,
    deadline: Option<Duration>,
) -> disco_runtime::Result<Answer> {
    let physical = lower(plan).unwrap();
    Executor::new(federation.registry.clone())
        .with_mem_budget(options.mem_budget)
        .with_deadline(deadline)
        .execute(&physical, &federation.catalog)
}

/// What the suite compares of an answer: data, residual plan, unavailable
/// repositories, `[rows_transferred, exec_calls]`.
type Observed = (Bag, Option<LogicalExpr>, Vec<String>, [usize; 2]);

/// What the two stages give when run one after the other, and the
/// `rows_materialized` they bound the executor's by: at least
/// `materialized`, exactly that when `exact`.
#[derive(Debug)]
struct Staged {
    observed: Observed,
    materialized: usize,
    exact: bool,
}

impl Staged {
    fn assert_matches(&self, answer: &Answer, label: &str) {
        assert_eq!(observe(answer), self.observed, "{label}");
        let text = |residual: &LogicalExpr| disco_oql::print_expr(&logical_to_oql(residual));
        assert_eq!(
            answer.residual_oql(),
            self.observed.1.as_ref().map(text),
            "{label}: residual text"
        );
        let got = answer.stats().rows_materialized;
        if self.exact {
            assert_eq!(got, self.materialized, "{label}: rows_materialized");
        } else {
            assert!(
                got >= self.materialized,
                "{label}: rows_materialized {got} below the kept branches' {}",
                self.materialized
            );
        }
    }
}

fn observe(answer: &Answer) -> Observed {
    let stats = answer.stats();
    (
        answer.data().clone(),
        answer.residual().cloned(),
        answer.unavailable_sources().to_vec(),
        [stats.rows_transferred, stats.exec_calls],
    )
}

/// Whether a plan holds a pipeline breaker that buffers rows.
fn holds_breaker(plan: &PhysicalExpr) -> bool {
    let mut found = false;
    plan.walk(&mut |node| {
        found |= matches!(
            node,
            PhysicalExpr::HashJoin { .. }
                | PhysicalExpr::NestedLoopJoin { .. }
                | PhysicalExpr::MergeTuplesJoin { .. }
                | PhysicalExpr::MkDistinct(_)
        );
    });
    found
}

/// What the two stages give when run one after the other: every call
/// resolved to a materialized outcome first, then the plan reduced by the
/// reference evaluator.  `rows_materialized` comes from the cursor
/// pipeline over the same outcomes.  A partial answer keeps the pass's
/// rows of each root union branch whose calls all answered, so it buffered
/// at least what those branches buffer; a lost branch buffered what it did
/// before its loss, which is nothing when it holds no breaker.  Under any
/// other root the whole plan is the one lost branch.
fn staged(
    federation: &Federation,
    plan: &LogicalExpr,
    options: PipelineOptions,
    deadline: Option<Duration>,
) -> disco_runtime::Result<Staged> {
    let physical = lower(plan).unwrap();
    let config = ExecutionConfig {
        deadline,
        pipeline: options,
        ..ExecutionConfig::default()
    };
    let (registry, catalog) = (&federation.registry, &federation.catalog);
    let resolved = resolve_execs(&physical, registry, catalog, &config)?;
    let buffered = |plan: &PhysicalExpr| -> disco_runtime::Result<usize> {
        let metrics = PipelineMetrics::new();
        evaluate_physical_with(plan, &resolved, &metrics, options)?;
        Ok(metrics.rows_materialized())
    };
    let (data, residual, materialized, exact) = if resolved.all_available() {
        let data = reference::evaluate_physical(&physical, &resolved)?;
        (data, None, buffered(&physical)?, true)
    } else {
        let (data, residual) = partial_evaluate_reference(&physical.to_logical(), &resolved)?;
        let branches = match &physical {
            PhysicalExpr::MkUnion(items) if items.len() > 1 => &items[..],
            whole => std::slice::from_ref(whole),
        };
        let (mut materialized, mut exact) = (0, true);
        for branch in branches {
            if is_fully_resolved(&branch.to_logical(), &resolved) {
                materialized += buffered(branch)?;
            } else {
                exact &= !holds_breaker(branch);
            }
        }
        (data, residual, materialized, exact)
    };
    let counts = [resolved.rows_transferred(), resolved.call_count()];
    Ok(Staged {
        observed: (data, residual, resolved.unavailable_repositories(), counts),
        materialized,
        exact,
    })
}

/// Asserts that the executor's answer is observationally the staged one,
/// and returns it.
fn assert_equivalent(
    plan: &LogicalExpr,
    federation: &Federation,
    options: PipelineOptions,
    label: &str,
) -> Answer {
    let deadline = Some(Duration::from_secs(5));
    let expected = staged(federation, plan, options, deadline)
        .unwrap_or_else(|e| panic!("{label}: staged evaluation failed: {e}"));
    let answer = execute(federation, plan, options, deadline)
        .unwrap_or_else(|e| panic!("{label}: execution failed: {e}"));
    expected.assert_matches(&answer, &format!("{label}: execution differs from staged"));
    answer
}

#[test]
fn random_plans_differential_all_available() {
    let mut rng = StdRng::seed_from_u64(0xd15c0);
    for trial in 0..24 {
        let n = rng.gen_range(2..5usize);
        let chunk_rows = [0usize, 3, 16][rng.gen_range(0..3usize)];
        let federation = federation_with(
            &vec![instant_profile(chunk_rows); n],
            rng.gen_range(1..40),
            trial,
        );
        let plan = random_federated_plan(&mut rng, n);
        assert_equivalent(
            &plan,
            &federation,
            PipelineOptions::default(),
            &format!("trial {trial} chunks {chunk_rows}"),
        );
    }
}

/// The multiset union `data ⊎ more`.
fn bag_union(data: &Bag, more: &Bag) -> Bag {
    data.iter().chain(more.iter()).cloned().collect()
}

#[test]
fn random_plans_differential_with_injected_unavailability() {
    let mut rng = StdRng::seed_from_u64(0xfeed);
    for trial in 0..24 {
        let n = rng.gen_range(2..5usize);
        let chunk_rows = [0usize, 5][rng.gen_range(0..2usize)];
        let federation = federation_with(
            &vec![instant_profile(chunk_rows); n],
            rng.gen_range(1..30),
            100 + trial,
        );
        // Each source independently goes down; keep at least one run with
        // everything down to cover the pure-residual shape.
        let mut any_down = false;
        for link in &federation.links {
            if rng.gen_bool(0.4) {
                link.set_availability(Availability::Unavailable);
                any_down = true;
            }
        }
        if !any_down {
            federation.links[0].set_availability(Availability::Unavailable);
        }
        let plan = random_federated_plan(&mut rng, n);
        let mut partials = Vec::new();
        for mem_budget in [MemBudget::Unbounded, MemBudget::Bytes(64 * 1024)] {
            let label = format!("trial {trial} {mem_budget:?}");
            let options = PipelineOptions {
                mem_budget,
                ..PipelineOptions::default()
            };
            let answer = assert_equivalent(&plan, &federation, options, &label);
            partials.push((label, options, answer));
        }

        // §4 recovery: the links come back, and what each partial answer
        // left undone completes it.
        for link in &federation.links {
            link.set_availability(Availability::Available);
        }
        let deadline = Some(Duration::from_secs(5));
        let full = execute(&federation, &plan, PipelineOptions::default(), deadline).unwrap();
        assert!(full.is_complete(), "trial {trial}: every link is back");
        for (label, options, partial) in partials {
            let Some(residual) = partial.residual() else {
                // The plan never touched a source that was down.
                assert_eq!(partial.data(), full.data(), "{label}");
                continue;
            };
            let rest = execute(&federation, residual, options, deadline).unwrap();
            assert!(rest.is_complete(), "{label}: residual completes");
            assert_eq!(
                &bag_union(partial.data(), rest.data()),
                full.data(),
                "{label}: data plus executed residual must be the all-available answer"
            );
            // The residual is a *query*: its OQL text re-parses, compiles
            // against the catalog, prints back to the same text, and the
            // compiled plan finishes the answer just as well.
            let text = partial.residual_oql().expect("partial answers print");
            let recompiled = compile_text(&text, &federation.catalog)
                .unwrap_or_else(|e| panic!("{label}: residual {text:?} must compile: {e}"));
            assert_eq!(
                disco_oql::print_expr(&logical_to_oql(&recompiled)),
                text,
                "{label}: residual text must be a fixed point of print∘compile"
            );
            let rest = execute(&federation, &recompiled, options, deadline).unwrap();
            assert_eq!(
                &bag_union(partial.data(), rest.data()),
                full.data(),
                "{label}: the recompiled residual must finish the answer too"
            );
        }
    }
}

/// Differential test: a wrapper that trickles chunks out (degraded
/// throughput) must still produce the staged answer within the deadline —
/// `rows_materialized` included, which the one build-side rule makes a
/// function of the data.  A union over one degraded source.
#[test]
fn degraded_source_streams_slowly_but_equivalently() {
    let degraded = NetworkProfile {
        jitter: 0.0,
        chunk_rows: 4,
        real_sleep: true,
        availability: Availability::Degraded { chunk_extra_ms: 5 },
        ..NetworkProfile::fast()
    };
    let mut profiles = vec![instant_profile(4); 3];
    profiles[1] = degraded;
    let federation = federation_with(&profiles, 24, 7);
    let plan = LogicalExpr::Union((0..3).map(|i| branch(i, 0)).collect());
    assert_equivalent(&plan, &federation, PipelineOptions::default(), "degraded");
}

/// Differential test: the engine's scheduling over a heterogeneous
/// streamed federation — the build-side rule awaiting each join input's
/// length while one source trickles behind the others — is transparent.
/// Random federated plans (joins included) whose source 0 trickles at
/// 2 ms per chunk must match the staged oracle, `rows_materialized`
/// included.
#[test]
fn adaptive_scheduling_is_transparent_over_streamed_federations() {
    let mut rng = StdRng::seed_from_u64(0xADA);
    for trial in 0..8u64 {
        let n = rng.gen_range(2..5usize);
        let mut profiles = vec![instant_profile(4); n];
        profiles[0] = NetworkProfile {
            real_sleep: true,
            availability: Availability::Degraded { chunk_extra_ms: 2 },
            ..instant_profile(4)
        };
        let federation = federation_with(&profiles, rng.gen_range(10..40), 300 + trial);
        let plan = random_federated_plan(&mut rng, n);
        let label = format!("trickling source 0, trial {trial}");
        assert_equivalent(&plan, &federation, PipelineOptions::default(), &label);
    }
}

/// Regression test: a join probed by a source that trickles its chunks
/// must hand finished rows downstream as they come, not sit on them until
/// a whole output batch has filled (which, with fewer probe rows than a
/// batch, meant until the slow source was done).  The build side is
/// forced onto the fast input — the default rule awaits both lengths
/// before it builds — so the two stages run by hand: `Executor` has no
/// build-side setter.
#[test]
fn join_probed_by_a_slow_source_emits_its_first_row_early() {
    let slow = NetworkProfile {
        real_sleep: true,
        availability: Availability::Degraded { chunk_extra_ms: 8 },
        ..instant_profile(4)
    };
    let federation = federation_with(&[slow, instant_profile(4)], 40, 0xE10);
    let side = |i: usize, var: &str| {
        LogicalExpr::get(format!("person{i}"))
            .submit(format!("r{i}"), format!("w{i}"), format!("person{i}"))
            .bind(var)
    };
    let plan = LogicalExpr::Join {
        left: Box::new(side(0, "x")),
        right: Box::new(side(1, "y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::var_field("x", "name"));
    let physical = lower(&plan).unwrap();
    let config = ExecutionConfig {
        deadline: Some(Duration::from_secs(5)),
        ..ExecutionConfig::default()
    };
    let options = PipelineOptions {
        build_side: BuildSide::Right,
        ..PipelineOptions::default()
    };
    let (registry, catalog) = (&federation.registry, &federation.catalog);
    let started = Instant::now();
    let mut resolved = resolve_execs_streamed(&physical, registry, catalog, &config).unwrap();
    let metrics = PipelineMetrics::new();
    let data = evaluate_physical_with(&physical, &resolved, &metrics, options).unwrap();
    let total = started.elapsed();
    resolved.finalize_streamed().unwrap();
    assert!(resolved.all_available());
    assert!(!data.is_empty(), "the sides share ids");
    // Ten chunks at 8 ms each bound the execution from below; the first
    // chunk's matches must be out long before the last chunk lands.
    let first = metrics
        .time_to_first_row_since(started)
        .expect("rows were emitted");
    assert!(
        first * 2 < total,
        "first row after {first:?} of a {total:?} execution: the join held its rows back"
    );
}

// ---------------------------------------------------------------------
// Classes of like-shaped branches: one spine reads many members.
// ---------------------------------------------------------------------

/// What a class member's wrapper does besides answering.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    None,
    /// Pushes one chunk, then fails hard.
    FailsAfterAChunk,
    /// Pushes one chunk, then reports the source unavailable.
    LostAfterAChunk,
    /// Down from the start.
    Down,
    /// Answers only long after the deadline.
    Slow,
}

/// A relational source that answers in row chunks or column chunks, and
/// may fail as its [`Fault`] says.
struct Member {
    inner: disco_wrapper::RelationalWrapper,
    rows: bool,
    fault: Fault,
}

/// Forwards chunks, as rows when asked, and stops after `limit` of them.
struct Faced<'a> {
    sink: &'a mut dyn AnswerSink,
    rows: bool,
    limit: usize,
    pushed: usize,
}

impl AnswerSink for Faced<'_> {
    fn push(&mut self, chunk: Bag) -> bool {
        let chunk = if self.rows {
            chunk.iter().cloned().collect()
        } else {
            chunk
        };
        self.pushed += 1;
        self.sink.push(chunk) && self.pushed < self.limit
    }
    fn is_cancelled(&self) -> bool {
        self.sink.is_cancelled()
    }
    fn pause(&mut self, delay: Duration) -> bool {
        self.sink.pause(delay)
    }
}

impl Wrapper for Member {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn kind(&self) -> &str {
        self.inner.kind()
    }
    fn capabilities(&self) -> CapabilitySet {
        self.inner.capabilities()
    }
    fn submit_into(
        &self,
        expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        let cut = matches!(self.fault, Fault::FailsAfterAChunk | Fault::LostAfterAChunk);
        let mut faced = Faced {
            sink,
            rows: self.rows,
            limit: if cut { 1 } else { usize::MAX },
            pushed: 0,
        };
        let answered = self.inner.submit_into(expr, &mut faced);
        match self.fault {
            Fault::FailsAfterAChunk => Err(WrapperError::TypeConflict {
                extent: self.inner.name().to_owned(),
                missing_attribute: "salary".into(),
            }),
            Fault::LostAfterAChunk => Err(WrapperError::Unavailable {
                endpoint: self.inner.name().to_owned(),
            }),
            _ => answered,
        }
    }
}

/// One source per fault (`person{i}` on `r{i}` behind `w{i}`), each
/// answering with a number of rows drawn from `rows` in row or column
/// chunks of 3 rows (or whole), and source `i` failing as `faults[i]`.
fn fault_federation(rng: &mut StdRng, faults: &[Fault], rows: Range<usize>) -> Federation {
    let mut federation = federation_with(&[], 0, 0);
    for (i, &fault) in faults.iter().enumerate() {
        let (extent, repo, name) = (format!("person{i}"), format!("r{i}"), format!("w{i}"));
        federation
            .catalog
            .add_wrapper(WrapperDef::new(&name, "relational"))
            .unwrap();
        federation
            .catalog
            .add_repository(Repository::new(&repo))
            .unwrap();
        federation
            .catalog
            .add_extent(MetaExtent::new(&extent, "Person", &name, &repo))
            .unwrap();
        let mut profile = instant_profile([0, 3][rng.gen_range(0..2usize)]);
        match fault {
            Fault::Down => profile.availability = Availability::Unavailable,
            Fault::Slow => {
                profile.real_sleep = true;
                profile.availability = Availability::Slow { extra_ms: 3_000 };
            }
            _ => {}
        }
        let store = Arc::new(disco_source::RelationalStore::new());
        let rows = rng.gen_range(rows.clone());
        store.put_table(disco_source::generator::person_table(
            &extent, rows, i as u64, 41,
        ));
        let link = Arc::new(disco_source::SimulatedLink::new(&repo, profile, i as u64));
        federation.registry.register(Arc::new(Member {
            inner: disco_wrapper::RelationalWrapper::new(&name, store, Arc::clone(&link)),
            rows: rng.gen_bool(0.5),
            fault,
        }));
        federation.links.push(link);
    }
    federation
}

/// A random union whose branches interleave two or three classes — each
/// class one fused stretch, equal node for node — with branches that do
/// not fuse (literal data, a nested-loop join), under a `distinct`, an
/// aggregate or nothing.  Every branch yields `out` of a person.
fn class_union(rng: &mut StdRng, n: usize) -> (LogicalExpr, usize) {
    let above = rng.gen_range(0..4);
    let out = if above == 2 { "salary" } else { "name" };
    let submit = |i: usize| {
        LogicalExpr::get(format!("person{i}")).submit(
            format!("r{i}"),
            format!("w{i}"),
            format!("person{i}"),
        )
    };
    let classes = rng.gen_range(2..4usize);
    let limits: Vec<i64> = (0..3).map(|_| rng.gen_range(0..1_000)).collect();
    let field = |name: &str| ScalarExpr::var_field("x", name);
    let mut fused = 0;
    let branches = (0..n)
        .map(|i| {
            let s = submit(i);
            // Shapes 0 and 1 are two classes of one structure, told apart
            // by a constant; shape 3 does not fuse.
            let kind = rng.gen_range(0..=classes);
            let shape = match (classes, kind) {
                (_, k) if k == classes => 3,
                (3, k) => k,
                (_, 0) => 0,
                _ => 2,
            };
            if shape < 3 {
                fused += 1;
            }
            match shape {
                0 | 1 => s
                    .filter(ScalarExpr::binary(
                        ScalarOp::Gt,
                        ScalarExpr::attr("salary"),
                        ScalarExpr::constant(limits[shape]),
                    ))
                    .bind("x")
                    .map_project(field(out)),
                2 => s
                    .project(["name", "salary"])
                    .bind("x")
                    .filter(ScalarExpr::binary(
                        ScalarOp::Gt,
                        field("salary"),
                        ScalarExpr::constant(limits[2]),
                    ))
                    .map_project(field(out)),
                _ if rng.gen_bool(0.5) => LogicalExpr::Data(
                    [common::person(900 + i as i64, "lit", 7)]
                        .into_iter()
                        .map(|p| p.field(out).unwrap().clone())
                        .collect(),
                ),
                _ => LogicalExpr::Join {
                    left: Box::new(s.bind("x")),
                    right: Box::new(
                        LogicalExpr::Data([common::person(2, "k", 0)].into_iter().collect())
                            .bind("y"),
                    ),
                    predicate: Some(ScalarExpr::binary(
                        ScalarOp::Gt,
                        field("id"),
                        ScalarExpr::var_field("y", "id"),
                    )),
                }
                .map_project(field(out)),
            }
        })
        .collect();
    let union = LogicalExpr::Union(branches);
    let plan = match above {
        0 => union,
        1 => LogicalExpr::Distinct(Box::new(union)),
        2 => LogicalExpr::Aggregate {
            func: [AggKind::Sum, AggKind::Max][rng.gen_range(0..2usize)],
            input: Box::new(union),
        },
        _ => LogicalExpr::Aggregate {
            func: AggKind::Count,
            input: Box::new(LogicalExpr::Distinct(Box::new(union))),
        },
    };
    (plan, fused)
}

/// `plan` with each union of like branches folded into one node, as
/// normalization folds it ([`rules::simplify_union`]).
fn folded(mut plan: LogicalExpr) -> LogicalExpr {
    plan.rewrite_in_place(&rules::simplify_union);
    plan
}

/// Guards a hazard only class spines have: one spine reads the members
/// of its class — whatever faces their chunks have and wherever they
/// stand among the branches — and one member's failure, unavailability
/// or deadline must surface exactly as it did through a spine of its
/// own.  Every execution matches the two stages over materialized
/// outcomes: data and residual against the reference evaluator, the
/// residual's text, `rows_materialized`, the kernel counters and the
/// spines compiled against the cursor pipeline, the first error.
#[test]
fn class_spines_match_the_staged_oracle_under_faults() {
    let mut rng = StdRng::seed_from_u64(0xC1A55);
    let mut shared = 0;
    for trial in 0..36 {
        let n = rng.gen_range(4..9usize);
        let fault = match trial % 6 {
            0 | 1 => Fault::None,
            2 => Fault::FailsAfterAChunk,
            3 => Fault::LostAfterAChunk,
            4 => Fault::Down,
            _ if trial % 12 == 5 => Fault::Slow,
            _ => Fault::None,
        };
        let faulty = rng.gen_range(0..n);
        let faults: Vec<Fault> = (0..n)
            .map(|i| if i == faulty { fault } else { Fault::None })
            .collect();
        let federation = fault_federation(&mut rng, &faults, 0..12);
        let (plan, fused) = class_union(&mut rng, n);
        let plan = folded(plan);
        let label = format!("trial {trial}, {fault:?} at source {faulty}: {plan}");
        let deadline = Some(if fault == Fault::Slow {
            Duration::from_millis(300)
        } else {
            Duration::from_secs(20)
        });
        for mem_budget in [MemBudget::Unbounded, MemBudget::Bytes(64 << 10)] {
            let label = format!("{label}, {mem_budget:?}");
            let options = PipelineOptions {
                mem_budget,
                ..PipelineOptions::default()
            };
            let expected = staged(&federation, &plan, options, deadline);
            let answer = execute(&federation, &plan, options, deadline);
            let (expected, answer) = match (expected, answer) {
                (Err(expected), Err(err)) => {
                    assert_eq!(err.to_string(), expected.to_string(), "{label}");
                    continue;
                }
                (Ok(expected), Ok(answer)) => (expected, answer),
                (expected, answer) => {
                    panic!("{label}: staged {expected:?}, executed {answer:?}")
                }
            };
            let stats = answer.stats();
            expected.assert_matches(&answer, &label);
            if !answer.is_complete() {
                continue;
            }
            // The cursor pipeline over materialized outcomes forms the
            // same classes and scans the same rows on the kernels.
            let physical = lower(&plan).unwrap();
            let config = ExecutionConfig {
                deadline,
                pipeline: options,
                ..ExecutionConfig::default()
            };
            let resolved = resolve_execs(
                &physical,
                &federation.registry,
                &federation.catalog,
                &config,
            )
            .unwrap();
            let metrics = PipelineMetrics::new();
            evaluate_physical_with(&physical, &resolved, &metrics, options).unwrap();
            assert_eq!(
                (
                    stats.rows_kernel,
                    stats.rows_fallback,
                    stats.spines_compiled
                ),
                (
                    metrics.rows_kernel(),
                    metrics.rows_fallback(),
                    metrics.spines_compiled()
                ),
                "{label}"
            );
            assert!(stats.spines_compiled <= 3, "{label}: one spine per class");
            if stats.spines_compiled < fused {
                shared += 1;
            }
        }
    }
    assert!(shared > 10, "members shared a spine in {shared} executions");
}

/// Guards a hazard only the class sweep has: after its first pull it
/// parks until as many progress events as there are spools its unready
/// members wait for, and branches of one class can read one call.  Three
/// copies of a branch over a sleeping source, behind a quick one, must
/// finish when that source answers — not at the deadline.
#[test]
fn branches_reading_one_call_wake_their_class_once_it_answers() {
    let sleepy = NetworkProfile {
        base_latency_us: 20_000,
        per_row_us: 0,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows: 0,
        availability: Availability::Available,
    };
    let federation = federation_with(&[instant_profile(0), sleepy], 8, 5);
    let plan = folded(LogicalExpr::Union(vec![
        branch(0, -1),
        branch(1, -1),
        branch(1, -1),
        branch(1, -1),
    ]));
    let started = Instant::now();
    let deadline = Some(Duration::from_secs(20));
    let answer = execute(&federation, &plan, PipelineOptions::default(), deadline).unwrap();
    assert!(answer.is_complete());
    assert_eq!(answer.stats().exec_calls, 2, "the copies share one call");
    assert_eq!(answer.stats().spines_compiled, 1, "one class");
    assert_eq!(answer.data().len(), 4 * 8);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the class waited {:?} for events its one call never sends",
        started.elapsed()
    );
}

// ---------------------------------------------------------------------
// Fault injection: mid-stream failure and panicking wrappers.
// ---------------------------------------------------------------------

/// A wrapper that pushes one chunk and then fails hard mid-stream.
struct FailsMidStream;

impl Wrapper for FailsMidStream {
    fn name(&self) -> &str {
        "w_fail"
    }
    fn kind(&self) -> &str {
        "relational"
    }
    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::full()
    }
    fn submit_into(
        &self,
        _expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        sink.push([common::person(1, "early", 10)].into_iter().collect());
        Err(WrapperError::TypeConflict {
            extent: "person0".into(),
            missing_attribute: "salary".into(),
        })
    }
}

/// A wrapper whose call panics.
struct PanicsOnSubmit;

impl Wrapper for PanicsOnSubmit {
    fn name(&self) -> &str {
        "w_panic"
    }
    fn kind(&self) -> &str {
        "relational"
    }
    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::full()
    }
    fn submit_into(
        &self,
        _expr: &LogicalExpr,
        _sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        panic!("wrapper exploded mid-call");
    }
}

/// One healthy source plus one faulty wrapper, under a short deadline.
fn faulty_federation(faulty: Arc<dyn Wrapper>) -> (Federation, LogicalExpr) {
    let mut federation = federation_with(&[instant_profile(0)], 8, 3);
    let wrapper_name = faulty.name().to_owned();
    federation
        .catalog
        .add_wrapper(WrapperDef::new(&wrapper_name, "relational"))
        .unwrap();
    federation
        .catalog
        .add_repository(Repository::new("r_faulty"))
        .unwrap();
    federation
        .catalog
        .add_extent(MetaExtent::new(
            "person_faulty",
            "Person",
            &wrapper_name,
            "r_faulty",
        ))
        .unwrap();
    federation.registry.register(faulty);
    let plan = LogicalExpr::Union(vec![
        branch(0, -1),
        LogicalExpr::get("person_faulty")
            .submit("r_faulty", &wrapper_name, "person_faulty")
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "name")),
    ]);
    (federation, plan)
}

#[test]
fn mid_stream_failure_surfaces_as_the_staged_error() {
    let (federation, plan) = faulty_federation(Arc::new(FailsMidStream));
    let deadline = Some(Duration::from_millis(500));
    let started = std::time::Instant::now();
    let err = execute(&federation, &plan, PipelineOptions::default(), deadline).unwrap_err();
    assert!(
        matches!(
            err,
            RuntimeError::Wrapper(WrapperError::TypeConflict { .. })
        ),
        "expected the mid-stream failure, got {err}"
    );
    let staged_err = staged(&federation, &plan, PipelineOptions::default(), deadline)
        .expect_err("resolution fails hard too");
    assert_eq!(err.to_string(), staged_err.to_string());
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "failure handling must not hang past the deadline"
    );
}

#[test]
fn panicking_wrapper_surfaces_worker_panic() {
    let (federation, plan) = faulty_federation(Arc::new(PanicsOnSubmit));
    let deadline = Some(Duration::from_millis(500));
    let started = std::time::Instant::now();
    let err = execute(&federation, &plan, PipelineOptions::default(), deadline).unwrap_err();
    assert!(
        matches!(err, RuntimeError::WorkerPanic(_)),
        "expected a contained panic, got {err}"
    );
    let staged_err = staged(&federation, &plan, PipelineOptions::default(), deadline)
        .expect_err("resolution contains the panic too");
    assert_eq!(err.to_string(), staged_err.to_string());
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "panic handling must not hang past the deadline"
    );
}

// ---------------------------------------------------------------------
// Deadline regression: fast sources answer, the slow one goes residual.
// ---------------------------------------------------------------------

#[test]
fn deadline_returns_fast_data_plus_residual_for_the_slow_source() {
    let fast = NetworkProfile {
        base_latency_us: 500,
        per_row_us: 5,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows: 8,
        availability: Availability::Available,
    };
    let slow = NetworkProfile {
        availability: Availability::Slow { extra_ms: 1500 },
        ..fast.clone()
    };
    let federation = federation_with(&[fast.clone(), fast, slow], 16, 11);
    let plan = LogicalExpr::Union((0..3).map(|i| branch(i, -1)).collect());
    let deadline = Duration::from_millis(250);
    let answer = execute(
        &federation,
        &plan,
        PipelineOptions::default(),
        Some(deadline),
    )
    .unwrap();
    assert!(!answer.is_complete(), "slow source must go residual");
    assert_eq!(answer.unavailable_sources(), &["r2".to_owned()]);
    assert_eq!(
        answer.data().len(),
        32,
        "both fast sources' rows are in the data part"
    );
    let residual = answer.residual_oql().expect("residual over r2");
    assert!(
        residual.contains("person2"),
        "residual names the slow extent: {residual}"
    );
    assert!(
        !residual.contains("person0") && !residual.contains("person1"),
        "fast extents are fully answered: {residual}"
    );
    let t_first = answer
        .time_to_first_row()
        .expect("fast rows reached the sink during streaming");
    assert!(
        t_first < deadline,
        "first row ({t_first:?}) must arrive well before the deadline ({deadline:?})"
    );
}

// ---------------------------------------------------------------------
// One pass: a partial answer is what the streamed pass delivered.
// ---------------------------------------------------------------------

/// Differential test: every root the generator makes — the federated
/// union, and a filter, a distinct, an aggregate or a join over it —
/// under sources that refuse or are lost after their first chunk
/// (`assert_equivalent`: the data, the residual plan and its text are the
/// staged oracle's, and `rows_materialized` is bounded by it).
#[test]
fn random_plans_differential_under_refusal_and_mid_stream_loss() {
    let mut rng = StdRng::seed_from_u64(0x1_9A55);
    let mut partial = 0;
    for trial in 0..32 {
        let n = rng.gen_range(2..5usize);
        let mut faults: Vec<Fault> = (0..n)
            .map(|_| {
                [
                    Fault::None,
                    Fault::None,
                    Fault::Down,
                    Fault::LostAfterAChunk,
                ][rng.gen_range(0..4usize)]
            })
            .collect();
        if faults.iter().all(|&fault| fault == Fault::None) {
            faults[rng.gen_range(0..n)] = Fault::LostAfterAChunk;
        }
        let federation = fault_federation(&mut rng, &faults, 0..12);
        let plan = random_federated_plan(&mut rng, n);
        for mem_budget in [MemBudget::Unbounded, MemBudget::Bytes(64 << 10)] {
            let label = format!("trial {trial}, {faults:?}, {mem_budget:?}: {plan}");
            let options = PipelineOptions {
                mem_budget,
                ..PipelineOptions::default()
            };
            let answer = assert_equivalent(&plan, &federation, options, &label);
            partial += usize::from(!answer.is_complete());
        }
    }
    assert!(partial > 32, "{partial} partial answers");
}

/// Regression test: a partial answer reports what its one pass buffered.
/// A union of a hash join over two answered sources and a branch over a
/// refusing source buffers the join's build side; the second evaluation
/// of the answered branches used to be reported instead, as 0.
#[test]
fn a_partial_answer_reports_what_its_answered_branches_buffered() {
    let mut profiles = vec![instant_profile(4); 3];
    profiles[2].availability = Availability::Unavailable;
    let federation = federation_with(&profiles, 24, 0xB0F);
    let side = |i: usize, var: &str| {
        LogicalExpr::get(format!("person{i}"))
            .submit(format!("r{i}"), format!("w{i}"), format!("person{i}"))
            .bind(var)
    };
    let join = LogicalExpr::Join {
        left: Box::new(side(0, "x")),
        right: Box::new(side(1, "y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::var_field("x", "name"));
    let plan = LogicalExpr::Union(vec![join.clone(), branch(2, -1)]);
    let deadline = Some(Duration::from_secs(5));
    let answer = execute(&federation, &plan, PipelineOptions::default(), deadline).unwrap();
    assert!(!answer.is_complete());
    assert_eq!(answer.unavailable_sources(), &["r2".to_owned()]);
    assert_eq!(answer.data().len(), 24, "the join's rows are the data");

    // The join branch on its own, over materialized outcomes.
    let physical = lower(&join).unwrap();
    let config = ExecutionConfig::default();
    let resolved = resolve_execs(
        &physical,
        &federation.registry,
        &federation.catalog,
        &config,
    )
    .unwrap();
    let metrics = PipelineMetrics::new();
    evaluate_physical_with(&physical, &resolved, &metrics, PipelineOptions::default()).unwrap();
    assert_eq!(metrics.rows_materialized(), 24, "the build side");
    assert_eq!(
        answer.stats().rows_materialized,
        metrics.rows_materialized()
    );
}

/// Pins the design: each answered row enters the combine once.  On a
/// union of four sources, one refusing, the rows the kernels and their
/// fallback scanned are exactly the rows the three answered calls
/// returned — the answered branches are not evaluated a second time.
#[test]
fn each_answered_row_enters_the_combine_once() {
    let mut profiles = vec![instant_profile(4); 4];
    profiles[1].availability = Availability::Unavailable;
    let federation = federation_with(&profiles, 20, 0x0E);
    let plan = folded(LogicalExpr::Union((0..4).map(|i| branch(i, 0)).collect()));
    let deadline = Some(Duration::from_secs(5));
    let answer = execute(&federation, &plan, PipelineOptions::default(), deadline).unwrap();
    assert!(!answer.is_complete());
    let stats = answer.stats();
    let answered: usize = stats
        .source_calls
        .iter()
        .filter(|call| call.available)
        .map(|call| call.rows_returned)
        .sum();
    assert_eq!(answered, 3 * 20);
    assert_eq!(stats.rows_kernel + stats.rows_fallback, answered);
    assert_eq!(stats.spines_compiled, 1, "one class, compiled once");
}

/// Regression test: a partial answer that holds no data reports no first
/// row.  A filter over a union is not a union: the slow source's
/// deadline ends the pass and the fast sources' rows are not the answer's,
/// yet the first of them used to be reported as its first row.
#[test]
fn a_partial_answer_without_data_reports_no_first_row() {
    let slow = NetworkProfile {
        real_sleep: true,
        availability: Availability::Slow { extra_ms: 3_000 },
        ..instant_profile(4)
    };
    let federation = federation_with(&[instant_profile(4), instant_profile(4), slow], 16, 11);
    let union = lower(&LogicalExpr::Union((0..3).map(|i| branch(i, -1)).collect())).unwrap();
    let plan = PhysicalExpr::FilterOp {
        input: Box::new(union),
        predicate: ScalarExpr::constant(true),
    };
    let answer = Executor::new(federation.registry.clone())
        .with_deadline(Some(Duration::from_millis(150)))
        .execute(&plan, &federation.catalog)
        .unwrap();
    assert!(!answer.is_complete());
    assert_eq!(answer.unavailable_sources(), &["r2".to_owned()]);
    assert!(answer.data().is_empty());
    assert_eq!(answer.time_to_first_row(), None);
}

/// Guards a hazard only this design has: a loss unwinds to the root
/// union's branch, never less far.  An operator that carried on over a
/// cut-short input would pair the outer rows with the inner rows that did
/// arrive — pairs the staged oracle never evaluates, on which this
/// predicate divides by zero.  The answer is the oracle's: data, residual
/// and its text, and no error.
#[test]
fn a_join_whose_inner_source_is_lost_mid_stream_evaluates_no_pair() {
    let mut rng = StdRng::seed_from_u64(0x10_57);
    let faults = [Fault::None, Fault::LostAfterAChunk, Fault::None];
    let federation = fault_federation(&mut rng, &faults, 6..12);
    let side = |i: usize, var: &str| {
        LogicalExpr::get(format!("person{i}"))
            .submit(format!("r{i}"), format!("w{i}"), format!("person{i}"))
            .bind(var)
    };
    let zero = ScalarExpr::binary(
        ScalarOp::Sub,
        ScalarExpr::var_field("y", "id"),
        ScalarExpr::var_field("y", "id"),
    );
    let join = LogicalExpr::Join {
        left: Box::new(side(2, "x")),
        right: Box::new(side(1, "y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::binary(ScalarOp::Div, ScalarExpr::var_field("x", "salary"), zero),
            ScalarExpr::constant(0i64),
        )),
    }
    .map_project(ScalarExpr::var_field("x", "name"));
    let plan = LogicalExpr::Union(vec![branch(0, -1), join]);
    assert!(
        matches!(lower(&plan).unwrap(), PhysicalExpr::MkUnion(ref items)
            if matches!(items[1], PhysicalExpr::MapOp { ref input, .. }
                if matches!(**input, PhysicalExpr::NestedLoopJoin { .. }))),
        "the join buffers its inner side"
    );
    for mem_budget in [MemBudget::Unbounded, MemBudget::Bytes(64 << 10)] {
        let label = format!("{mem_budget:?}");
        let options = PipelineOptions {
            mem_budget,
            ..PipelineOptions::default()
        };
        let answer = assert_equivalent(&plan, &federation, options, &label);
        assert!(!answer.is_complete(), "{label}");
        assert_eq!(answer.unavailable_sources(), &["r1".to_owned()], "{label}");
        let text = answer.residual_oql().expect("the join is residual");
        assert!(
            text.contains("person1") && !text.contains("person0"),
            "{text}"
        );
    }
}

/// Regression test: a loss inside a correlated sub-plan unwinds to the
/// root union branch like any other.  The branch's per-row aggregate
/// reads a refusing source; the loss used to surface as an evaluation
/// error, where the staged oracle leaves the branch residual.
#[test]
fn a_correlated_sub_plan_over_a_lost_source_leaves_its_branch_residual() {
    let mut profiles = vec![instant_profile(4); 3];
    profiles[2].availability = Availability::Unavailable;
    let federation = federation_with(&profiles, 12, 0xC0);
    let submit = |i: usize| {
        LogicalExpr::get(format!("person{i}")).submit(
            format!("r{i}"),
            format!("w{i}"),
            format!("person{i}"),
        )
    };
    let same_id = submit(2).bind("z").filter(ScalarExpr::binary(
        ScalarOp::Eq,
        ScalarExpr::var_field("z", "id"),
        ScalarExpr::var_field("x", "id"),
    ));
    let correlated = submit(1)
        .bind("x")
        .map_project(ScalarExpr::Agg(AggKind::Count, Box::new(same_id)));
    let plan = LogicalExpr::Union(vec![branch(0, -1), correlated]);
    for mem_budget in [MemBudget::Unbounded, MemBudget::Bytes(64 << 10)] {
        let label = format!("{mem_budget:?}");
        let options = PipelineOptions {
            mem_budget,
            ..PipelineOptions::default()
        };
        let answer = assert_equivalent(&plan, &federation, options, &label);
        assert_eq!(answer.data().len(), 12, "{label}: the first branch's rows");
        assert_eq!(answer.unavailable_sources(), &["r2".to_owned()], "{label}");
    }
}

/// Guards a hazard only the one pass has: its sink holds the answered
/// branches' rows in the order their chunks arrived, which differs from
/// run to run.  A partial answer's data must not: it is the kept
/// branches' rows branch by branch — the staged oracle's order — so the
/// same partial answer prints as the same text every time, and its
/// resubmission finds its plan in the cache.
#[test]
fn a_partial_answer_prints_the_same_text_however_chunks_interleave() {
    let trickle = |ms| NetworkProfile {
        real_sleep: true,
        availability: Availability::Degraded { chunk_extra_ms: ms },
        ..instant_profile(2)
    };
    let mut refused = instant_profile(2);
    refused.availability = Availability::Unavailable;
    let profiles = [trickle(1), instant_profile(2), trickle(2), refused];
    let federation = federation_with(&profiles, 10, 0x7E);
    let plan = LogicalExpr::Union((0..4).map(|i| branch(i, -1)).collect());
    let (options, deadline) = (PipelineOptions::default(), Some(Duration::from_secs(5)));
    let expected = staged(&federation, &plan, options, deadline).unwrap();
    assert_eq!(expected.observed.0.len(), 30);
    for run in 0..4 {
        let answer = execute(&federation, &plan, options, deadline).unwrap();
        assert_eq!(
            answer.data().as_slice(),
            expected.observed.0.as_slice(),
            "run {run}: the data in branch order"
        );
    }
}

// ---------------------------------------------------------------------
// The deadline leak fix: timed-out calls observe the disconnect and stop.
// ---------------------------------------------------------------------

#[test]
fn timed_out_wrapper_call_is_cancelled_not_leaked() {
    // 40 chunks * 30 ms: the call would keep trickling for ~1.2 s after
    // a 60 ms deadline if cancellation did not reach it.
    let trickle = NetworkProfile {
        base_latency_us: 100,
        per_row_us: 0,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows: 5,
        availability: Availability::Degraded { chunk_extra_ms: 30 },
    };
    let federation = federation_with(&[instant_profile(0), trickle], 200, 13);
    let plan = LogicalExpr::Union(vec![branch(0, -1), branch(1, -1)]);
    let started = std::time::Instant::now();
    let answer = execute(
        &federation,
        &plan,
        PipelineOptions::default(),
        Some(Duration::from_millis(60)),
    )
    .unwrap();
    assert!(
        started.elapsed() < Duration::from_millis(700),
        "deadline classification must not wait out the stream, took {:?}",
        started.elapsed()
    );
    assert!(!answer.is_complete());
    assert_eq!(answer.unavailable_sources(), &["r1".to_owned()]);
    // Give the cancelled call time to observe the disconnect, then check
    // that chunk production has stopped for good.
    std::thread::sleep(Duration::from_millis(200));
    let after_cancel = federation.links[1].chunk_count();
    assert!(
        after_cancel < 40,
        "the call must stop early, produced {after_cancel} chunks"
    );
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(
        federation.links[1].chunk_count(),
        after_cancel,
        "a timed-out call kept producing chunks in the background"
    );
}

#[test]
fn a_call_cancelled_mid_sleep_returns_at_once() {
    // A link that sleeps 200 ms before its first chunk, cancelled 10 to
    // 12 ms into the sleep: the call must come back right away (it used
    // to notice at its next 2 ms sleep slice, a millisecond away in the
    // median) and deliver nothing further.
    let slow = NetworkProfile {
        base_latency_us: 100,
        per_row_us: 0,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows: 5,
        availability: Availability::Slow { extra_ms: 200 },
    };
    let federation = federation_with(&[slow], 20, 23);
    let link = &federation.links[0];
    let plan = lower(&branch(0, -1)).unwrap();
    let config = ExecutionConfig {
        deadline: Some(Duration::from_secs(5)),
        ..ExecutionConfig::default()
    };
    let mut returned_after = Vec::new();
    for trial in 0..20 {
        let chunks_before = link.chunk_count();
        let mut resolved =
            resolve_execs_streamed(&plan, &federation.registry, &federation.catalog, &config)
                .unwrap();
        // The chunk counter moves when the call asks the link for its
        // first delay, just before it starts waiting it out.
        while link.chunk_count() == chunks_before {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_micros(10_000 + 100 * trial));
        let cancelled = std::time::Instant::now();
        resolved.cancel_pending();
        // Returns once the call has: a spool has no final status before.
        resolved.finalize_streamed().unwrap();
        returned_after.push(cancelled.elapsed());
        assert_eq!(
            link.chunk_count(),
            chunks_before + 1,
            "a cancelled call went on to its next chunk"
        );
        assert_eq!(resolved.rows_transferred(), 0, "nothing was delivered");
    }
    returned_after.sort();
    let median = returned_after[returned_after.len() / 2];
    assert!(
        median < Duration::from_millis(1),
        "a cancelled call slept on: median {median:?} of {returned_after:?}"
    );
}

// ---------------------------------------------------------------------
// Sanity: streamed complete answers report first-row latency.
// ---------------------------------------------------------------------

#[test]
fn streamed_complete_answers_report_time_to_first_row() {
    let federation = federation_with(&vec![instant_profile(4); 3], 12, 17);
    let plan = LogicalExpr::Union((0..3).map(|i| branch(i, 0)).collect());
    let answer = execute(
        &federation,
        &plan,
        PipelineOptions::default(),
        Some(Duration::from_secs(5)),
    )
    .unwrap();
    assert!(answer.is_complete());
    assert!(answer.time_to_first_row().is_some());
    assert!(answer.time_to_first_row().unwrap() <= answer.stats().elapsed);
}

/// Keep the shared generator linked in (it also documents the common
/// module is reusable from this suite, as the other differential suites
/// do).
#[test]
fn shared_generator_produces_plans() {
    let mut rng = StdRng::seed_from_u64(1);
    let plan = common::random_plan(&mut rng);
    let _ = format!("{plan}");
    let _ = Value::Int(0);
}

/// Starts after the tests above (the harness starts tests in name order)
/// and outwaits the ones still running: a call that outlives its query —
/// never cancelled, or stuck in the executor's queue — keeps this count
/// above zero for good.
#[test]
fn zz_no_call_outlives_its_query() {
    common::assert_no_calls_in_flight();
}

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

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{branch, federation_with, instant_profile, Federation};
use disco_algebra::CapabilitySet;
use disco_algebra::{logical_to_oql, lower, AggKind, LogicalExpr, ScalarExpr, ScalarOp};
use disco_catalog::{MetaExtent, Repository, WrapperDef};
use disco_optimizer::compile_text;
use disco_runtime::{
    evaluate_physical_with, partial_evaluate_reference, reference, resolve_execs,
    resolve_execs_streamed, substitute_resolved, Answer, BuildSide, ExecutionConfig, Executor,
    MemBudget, PipelineMetrics, PipelineOptions, RuntimeError,
};
use disco_source::{Availability, NetworkProfile};
use disco_value::{Bag, Value};
use disco_wrapper::{AnswerSink, AnswerSummary, Wrapper, WrapperError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random federated plan over `n` sources, in the shape families the
/// mediator produces (union of per-source scans, equi-join of two
/// sources, aggregate over a source, distinct over a union).
fn random_federated_plan(rng: &mut StdRng, n: usize) -> LogicalExpr {
    match rng.gen_range(0..4) {
        0 => {
            let branches = (0..n).map(|i| branch(i, rng.gen_range(0..600))).collect();
            LogicalExpr::Union(branches)
        }
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
        _ => {
            let branches = (0..n).map(|i| branch(i, rng.gen_range(0..600))).collect();
            LogicalExpr::Distinct(Box::new(LogicalExpr::Union(branches)))
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
/// repositories, `[rows_materialized, rows_transferred, exec_calls]`.
type Observed = (Bag, Option<LogicalExpr>, Vec<String>, [usize; 3]);

/// What the two stages give when run one after the other: every call
/// resolved to a materialized outcome first, then the plan (or, with
/// sources down, its substituted form) reduced by the reference
/// evaluator.  `rows_materialized` comes from the cursor pipeline over
/// the same outcomes; partial answers report zero.
fn staged(
    federation: &Federation,
    plan: &LogicalExpr,
    options: PipelineOptions,
    deadline: Option<Duration>,
) -> disco_runtime::Result<Observed> {
    let physical = lower(plan).unwrap();
    let config = ExecutionConfig {
        deadline,
        pipeline: options,
        ..ExecutionConfig::default()
    };
    let (registry, catalog) = (&federation.registry, &federation.catalog);
    let resolved = resolve_execs(&physical, registry, catalog, &config)?;
    let (data, residual, rows_materialized) = if resolved.all_available() {
        let metrics = PipelineMetrics::new();
        evaluate_physical_with(&physical, &resolved, &metrics, options)?;
        let data = reference::evaluate_physical(&physical, &resolved)?;
        (data, None, metrics.rows_materialized())
    } else {
        let substituted = substitute_resolved(&physical.to_logical(), &resolved);
        let (data, residual) = partial_evaluate_reference(&substituted, &resolved)?;
        (data, residual, 0)
    };
    let counts = [
        rows_materialized,
        resolved.rows_transferred(),
        resolved.call_count(),
    ];
    Ok((data, residual, resolved.unavailable_repositories(), counts))
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
    let stats = answer.stats();
    let observed: Observed = (
        answer.data().clone(),
        answer.residual().cloned(),
        answer.unavailable_sources().to_vec(),
        [
            stats.rows_materialized,
            stats.rows_transferred,
            stats.exec_calls,
        ],
    );
    assert_eq!(observed, expected, "{label}: execution differs from staged");
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

/// `n` sources (`person{i}` on `r{i}` behind `w{i}`), each answering in
/// row or column chunks of 3 rows (or whole); `faulty` fails as `fault`.
fn class_federation(rng: &mut StdRng, n: usize, faulty: usize, fault: Fault) -> Federation {
    let mut federation = federation_with(&[], 0, 0);
    for i in 0..n {
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
        let fault = if i == faulty { fault } else { Fault::None };
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
        let rows = rng.gen_range(0..12);
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
        let federation = class_federation(&mut rng, n, faulty, fault);
        let (plan, fused) = class_union(&mut rng, n);
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
            let observed: Observed = (
                answer.data().clone(),
                answer.residual().cloned(),
                answer.unavailable_sources().to_vec(),
                [
                    stats.rows_materialized,
                    stats.rows_transferred,
                    stats.exec_calls,
                ],
            );
            assert_eq!(observed, expected, "{label}");
            assert_eq!(
                answer.residual_oql(),
                expected
                    .1
                    .as_ref()
                    .map(|residual| { disco_oql::print_expr(&logical_to_oql(residual)) }),
                "{label}"
            );
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
    let plan = LogicalExpr::Union(vec![
        branch(0, -1),
        branch(1, -1),
        branch(1, -1),
        branch(1, -1),
    ]);
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

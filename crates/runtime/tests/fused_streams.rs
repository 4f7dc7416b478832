//! The fused spine over still-streaming sources: what `Executor::execute`
//! computes batch-at-a-time straight out of the spools' chunk chains must
//! be what the two stages give one after the other over materialized
//! outcomes — answers, kernel counters and breaker counters — and the
//! paper's §4 contract must hold *under a spine* exactly as it holds
//! under the row cursors.
//!
//! The groups, and why each test is here:
//!
//! * **Streamed equals materialized, counters included** — fails at the
//!   parent commit, where `rows_kernel` is 0 under `execute` (pending
//!   sources never fused).  Every plan of `columnar_equivalence`'s corpus
//!   has its literal bags moved behind `RelationalWrapper`s whose links
//!   chunk at 1, 7 and 0 rows; so do the filter/projection shapes the
//!   optimizer leaves at the mediator (`bind→select`, `bind→proj`,
//!   `bind→proj→select`, and a `mkproj` that drops a column read above
//!   it, which must *not* fuse).
//! * **Spine readiness** — fails at the parent for the same reason (the
//!   assertion that the union's branches ran on kernels), and pins that a
//!   fused union still emits whichever source answers first.
//! * **§4 under a fused spine** — guard hazards only this design has:
//!   until now a mid-stream failure, the deadline, a type conflict, a
//!   wrapper panic and the row budget were only ever met by the row
//!   cursor.
//! * **Either face of a chunk** — guards a hazard only the column face
//!   has: a spool's chunk is a bag of row values or, from a relational
//!   wrapper, columns the spine reads in place.  Every hazard above and
//!   the irregular-chunk cases run over row chunks (the [`Scripted`] row
//!   pushers), over column-faced chunks (asserted on what reaches the
//!   sink, so a case cannot silently fall back to rows) and over one
//!   spool fed both interleaved.
//! * **The answer is written once** — guards hazards only a final sink
//!   that reads batches whole and moves kernel results has: a join batch
//!   larger than [`BATCH_ROWS`], the branch runs of a root fan-out that
//!   loses a member mid-stream, a kernel batch that bails, and the roots
//!   that are not unions, each against the reference evaluator.
//!
//! Every execution here sets an explicit memory budget; the build side
//! is the one rule, so `rows_materialized` is a function of the data.
//! The differential runs its whole assertion set twice, without a budget
//! and under 64 KiB: a budget bounds breakers and nothing else, so a
//! budgeted spool is the same chunk chain under the same spine.  The
//! budgeted pass fails at the parent commit, where a budgeted spool was a
//! hot window read through a copying row cursor (`rows_kernel` 0).

mod common;

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{column_faced, instant_profile, random_plan};
use disco_algebra::{
    lower, rules, AggKind, CapabilitySet, LogicalExpr, PhysicalExpr, ScalarExpr, ScalarOp,
};
use disco_catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef,
};
use disco_runtime::pipeline::BATCH_ROWS;
use disco_runtime::{
    evaluate_physical_with, partial_evaluate_reference, reference, resolve_execs, Answer,
    ExecutionConfig, Executor, MemBudget, PipelineMetrics, PipelineOptions, RuntimeError,
};
use disco_source::{Availability, NetworkProfile, RelationalStore, SimulatedLink, Table};
use disco_value::{Bag, StructValue, Value};
use disco_wrapper::{
    AnswerSink, AnswerSummary, RelationalWrapper, Wrapper, WrapperError, WrapperRegistry,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A federation that grows one source per [`Fed::source`] call.
struct Fed {
    catalog: Catalog,
    registry: WrapperRegistry,
    links: Vec<Arc<SimulatedLink>>,
}

impl Fed {
    fn new() -> Self {
        let mut catalog = Catalog::new();
        catalog
            .define_interface(
                InterfaceDef::new("Person")
                    .with_extent_name("person")
                    .with_attribute(Attribute::new("id", TypeRef::Int))
                    .with_attribute(Attribute::new("name", TypeRef::String))
                    .with_attribute(Attribute::new("salary", TypeRef::Int)),
            )
            .unwrap();
        Fed {
            catalog,
            registry: WrapperRegistry::new(),
            links: Vec::new(),
        }
    }

    /// Declares source `i` (`person{i}` on `r{i}` behind `w{i}`) and
    /// returns the `submit` of its whole extent.
    fn declare(
        &mut self,
        wrapper: impl FnOnce(&str, &str, Arc<SimulatedLink>) -> Arc<dyn Wrapper>,
        profile: NetworkProfile,
    ) -> LogicalExpr {
        let i = self.links.len();
        let (extent, repo, name) = (format!("person{i}"), format!("r{i}"), format!("w{i}"));
        self.catalog
            .add_wrapper(WrapperDef::new(&name, "relational"))
            .unwrap();
        self.catalog.add_repository(Repository::new(&repo)).unwrap();
        self.catalog
            .add_extent(MetaExtent::new(&extent, "Person", &name, &repo))
            .unwrap();
        let link = Arc::new(SimulatedLink::new(&repo, profile, 7 + i as u64));
        self.registry
            .register(wrapper(&name, &extent, Arc::clone(&link)));
        self.links.push(link);
        LogicalExpr::get(&extent).submit(repo, name, extent)
    }

    /// A relational source holding the person rows of `rows`.
    fn source(&mut self, rows: &Bag, profile: NetworkProfile) -> LogicalExpr {
        self.declare(
            |name, extent, link| Arc::new(relational(name, extent, link, rows)),
            profile,
        )
    }

    /// [`Fed::source`] behind a [`Watched`] wrapper: the faces of the
    /// chunks that reach the sink are counted, and the link goes down
    /// once `fail_after` of them went through.
    fn watched(
        &mut self,
        rows: &Bag,
        profile: NetworkProfile,
        fail_after: Option<usize>,
    ) -> (LogicalExpr, Arc<ChunkFaces>) {
        let faces = Arc::new(ChunkFaces::default());
        let submit = self.declare(
            |name, extent, link| {
                Arc::new(Watched {
                    inner: relational(name, extent, link, rows),
                    fail_after,
                    faces: Arc::clone(&faces),
                })
            },
            profile,
        );
        (submit, faces)
    }

    /// A source answering with prepared chunks (see [`Scripted`]).
    fn scripted(&mut self, chunks: Vec<Vec<Value>>, faces: Faces, then: Then) -> LogicalExpr {
        self.declare(
            |name, _, _| {
                Arc::new(Scripted {
                    name: name.to_owned(),
                    chunks,
                    faces,
                    then,
                })
            },
            instant_profile(0),
        )
    }
}

fn relational(name: &str, extent: &str, link: Arc<SimulatedLink>, rows: &Bag) -> RelationalWrapper {
    let mut table = Table::new(extent, ["id", "name", "salary"]);
    for row in rows {
        table.insert(row.as_struct().unwrap().clone()).unwrap();
    }
    let store = Arc::new(RelationalStore::new());
    store.put_table(table);
    RelationalWrapper::new(name, store, link)
}

/// Moves every literal bag of `plan` behind a relational source of a new
/// federation whose links chunk at `chunk_rows`.
fn federate(plan: &LogicalExpr, chunk_rows: usize) -> (Fed, LogicalExpr) {
    let fed = RefCell::new(Fed::new());
    let mut plan = plan.clone();
    plan.rewrite_in_place(&|node| {
        let LogicalExpr::Data(rows) = node else {
            return false;
        };
        *node = fed.borrow_mut().source(rows, instant_profile(chunk_rows));
        true
    });
    (fed.into_inner(), plan)
}

fn options(mem_budget: MemBudget) -> PipelineOptions {
    PipelineOptions {
        mem_budget,
        ..PipelineOptions::default()
    }
}

fn executor(fed: &Fed, mem_budget: MemBudget) -> Executor {
    Executor::new(fed.registry.clone())
        .with_mem_budget(mem_budget)
        .with_deadline(Some(Duration::from_secs(20)))
}

fn execute(fed: &Fed, plan: &LogicalExpr, mem_budget: MemBudget) -> disco_runtime::Result<Answer> {
    executor(fed, mem_budget).execute(&lower(plan).unwrap(), &fed.catalog)
}

/// The two stages one after the other: every call resolved to a
/// materialized outcome, then the cursor pipeline over the outcomes.
fn staged(
    fed: &Fed,
    plan: &LogicalExpr,
    mem_budget: MemBudget,
) -> (
    disco_runtime::Result<Bag>,
    PipelineMetrics,
    disco_runtime::Result<Bag>,
) {
    let physical = lower(plan).unwrap();
    let config = ExecutionConfig {
        deadline: Some(Duration::from_secs(20)),
        pipeline: options(mem_budget),
        ..ExecutionConfig::default()
    };
    let resolved = resolve_execs(&physical, &fed.registry, &fed.catalog, &config).unwrap();
    let metrics = PipelineMetrics::new();
    let data = evaluate_physical_with(&physical, &resolved, &metrics, options(mem_budget));
    let expected = reference::evaluate_physical(&physical, &resolved);
    (data, metrics, expected)
}

/// The budgets every differential runs under: a budget must change
/// neither the answer nor how a pending source reaches the kernels.
const BUDGETS: [MemBudget; 2] = [MemBudget::Unbounded, MemBudget::Bytes(64 << 10)];

/// Runs `plan` streamed and staged under each of [`BUDGETS`] and asserts
/// they agree; returns each streamed execution's kernel counters
/// `(rows_kernel, rows_fallback)`, in [`BUDGETS`] order.
fn assert_streamed_is_staged(fed: &Fed, plan: &LogicalExpr, label: &str) -> [(usize, usize); 2] {
    BUDGETS.map(|budget| {
        let label = format!("{label}, {budget:?}");
        let (data, metrics, expected) = staged(fed, plan, budget);
        let (data, expected) = (data.expect(&label), expected.expect(&label));
        assert_eq!(data, expected, "{label}: staged pipeline vs reference");
        let answer = execute(fed, plan, budget).expect(&label);
        assert!(answer.is_complete(), "{label}");
        assert_eq!(*answer.data(), expected, "{label}: streamed vs reference");
        let stats = answer.stats();
        // A spine cuts its batches at chunk boundaries, so an irregular row
        // takes fewer neighbours to the row path than in one big slice; what
        // is scanned — and that regular input never falls back — is the same.
        assert_eq!(
            stats.rows_kernel + stats.rows_fallback,
            metrics.rows_kernel() + metrics.rows_fallback(),
            "{label}: a stretch fuses over a spool's chunks exactly when it fuses over a slice"
        );
        assert!(
            stats.rows_fallback <= metrics.rows_fallback(),
            "{label}: {} rows fell back streamed, {} staged",
            stats.rows_fallback,
            metrics.rows_fallback()
        );
        assert_eq!(
            stats.rows_materialized,
            metrics.rows_materialized(),
            "{label}"
        );
        (stats.rows_kernel, stats.rows_fallback)
    })
}

const CHUNKINGS: [usize; 3] = [1, 7, 0];

#[test]
fn the_columnar_corpus_streams_as_it_materializes() {
    let mut kernel_rows = [0; 2];
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xC01A + seed);
        let plan = random_plan(&mut rng);
        for chunk_rows in CHUNKINGS {
            let (fed, plan) = federate(&plan, chunk_rows);
            let label = format!("seed {seed}, chunks of {chunk_rows}: {plan}");
            let passes = assert_streamed_is_staged(&fed, &plan, &label);
            for (total, (kernel, _)) in kernel_rows.iter_mut().zip(passes) {
                *total += kernel;
            }
        }
    }
    for (budget, rows) in BUDGETS.iter().zip(kernel_rows) {
        assert!(rows > 0, "{budget:?}: the corpus must reach the kernels");
    }
    common::assert_no_calls_in_flight();
}

fn people(rows: i64) -> Bag {
    (0..rows)
        .map(|i| common::person(i, &format!("p-{}", i % 16), (i * 37) % 100))
        .collect()
}

fn gt(field: ScalarExpr, limit: i64) -> ScalarExpr {
    ScalarExpr::binary(ScalarOp::Gt, field, ScalarExpr::constant(limit))
}

/// The shapes a filter or projection left at the mediator takes, over a
/// submit `s`: each with the tail it meets in practice.
fn mediator_side_shapes(s: &LogicalExpr) -> Vec<(&'static str, LogicalExpr)> {
    let name = || ScalarExpr::var_field("x", "name");
    let pay = || {
        ScalarExpr::StructLit(vec![
            ("name".into(), name()),
            (
                "pay".into(),
                ScalarExpr::binary(
                    ScalarOp::Add,
                    ScalarExpr::var_field("x", "salary"),
                    ScalarExpr::constant(5i64),
                ),
            ),
        ])
    };
    let select = |input: LogicalExpr| input.filter(gt(ScalarExpr::attr("salary"), 40));
    vec![
        (
            "bind→select, gathered",
            select(s.clone()).bind("x").map_project(name()),
        ),
        (
            "bind→select, mapped",
            select(s.clone()).bind("x").map_project(pay()),
        ),
        (
            "bind→select, rows out",
            select(s.clone())
                .bind("x")
                .filter(gt(ScalarExpr::var_field("x", "id"), 3)),
        ),
        (
            "bind→proj",
            s.clone()
                .project(["name", "salary"])
                .bind("x")
                .map_project(pay()),
        ),
        (
            "bind→proj→select",
            select(s.clone())
                .project(["name", "salary"])
                .bind("x")
                .map_project(name()),
        ),
        (
            "bind→proj→select, narrowed rows out",
            select(s.clone())
                .project(["name", "id"])
                .bind("x")
                .filter(gt(ScalarExpr::var_field("x", "id"), 3)),
        ),
        (
            "select over a projection that keeps its column",
            s.clone()
                .project(["name", "salary"])
                .filter(gt(ScalarExpr::attr("salary"), 40))
                .bind("x")
                .map_project(name()),
        ),
    ]
}

#[test]
fn every_mediator_side_filter_and_projection_shape_fuses() {
    let rows = 300;
    for chunk_rows in CHUNKINGS {
        let mut fed = Fed::new();
        let submit = fed.source(&people(rows), instant_profile(chunk_rows));
        for (shape, plan) in mediator_side_shapes(&submit) {
            let label = format!("{shape}, chunks of {chunk_rows}");
            for counters in assert_streamed_is_staged(&fed, &plan, &label) {
                assert_eq!(
                    counters,
                    (rows as usize, 0),
                    "{label}: every scanned row through the kernels"
                );
            }
        }
    }
    common::assert_no_calls_in_flight();
}

#[test]
fn a_join_of_projected_sources_fuses_over_pending_sides() {
    // `mediator_combine`'s shape: `hashjoin(mkbind(x, mkproj(exec)), …)`.
    for chunk_rows in CHUNKINGS {
        let mut fed = Fed::new();
        let side = |fed: &mut Fed, var: &str, columns: &[&str]| {
            fed.source(&people(120), instant_profile(chunk_rows))
                .project(columns.iter().copied())
                .bind(var)
        };
        let plan = LogicalExpr::Join {
            left: Box::new(side(&mut fed, "x", &["name", "salary", "id"])),
            right: Box::new(side(&mut fed, "y", &["salary", "id"])),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        }
        .map_project(ScalarExpr::StructLit(vec![
            ("name".into(), ScalarExpr::var_field("x", "name")),
            (
                "total".into(),
                ScalarExpr::binary(
                    ScalarOp::Add,
                    ScalarExpr::var_field("x", "salary"),
                    ScalarExpr::var_field("y", "salary"),
                ),
            ),
        ]));
        let label = format!("projected join, chunks of {chunk_rows}");
        for counters in assert_streamed_is_staged(&fed, &plan, &label) {
            assert_eq!(counters, (240, 0), "{label}");
        }
    }
}

#[test]
fn a_projection_that_drops_a_column_read_above_it_does_not_fuse() {
    let mut fed = Fed::new();
    let submit = fed.source(&people(50), instant_profile(7));
    let plans = [
        // Read by a filter beneath the bind, by one above it, by the map.
        submit
            .clone()
            .project(["name"])
            .filter(gt(ScalarExpr::attr("salary"), 40))
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "name")),
        submit
            .clone()
            .project(["name"])
            .bind("x")
            .filter(gt(ScalarExpr::var_field("x", "salary"), 40))
            .map_project(ScalarExpr::var_field("x", "name")),
        submit
            .project(["name"])
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "salary")),
    ];
    for plan in plans {
        let (data, metrics, expected) = staged(&fed, &plan, MemBudget::Unbounded);
        let expected = expected.expect_err("the reference misses the attribute");
        assert_eq!(
            data.unwrap_err().to_string(),
            expected.to_string(),
            "{plan}"
        );
        assert_eq!(
            (metrics.rows_kernel(), metrics.rows_fallback()),
            (0, 0),
            "{plan}: the stretch must stay on the row cursors"
        );
        let err = execute(&fed, &plan, MemBudget::Unbounded).unwrap_err();
        assert_eq!(err.to_string(), expected.to_string(), "{plan}");
    }
    common::assert_no_calls_in_flight();
}

/// A wrapper answering with prepared chunks of arbitrary values, after
/// which it fails, panics, or completes.
struct Scripted {
    name: String,
    chunks: Vec<Vec<Value>>,
    faces: Faces,
    then: Then,
}

#[derive(Clone, Copy)]
enum Then {
    Complete,
    Panic,
}

/// The form a [`Scripted`] wrapper pushes its chunks in.
#[derive(Clone, Copy, Debug)]
enum Faces {
    /// Bags of row values, as a CSV or document wrapper answers.
    Rows,
    /// Column-faced wherever a chunk's rows share one layout (a chunk
    /// holding an irregular row can only be rows).
    Columns,
    /// One spool fed both: even chunks column-faced, odd ones rows.
    Interleaved,
}

impl Faces {
    const ALL: [Faces; 3] = [Faces::Rows, Faces::Columns, Faces::Interleaved];

    fn of_chunk(self, index: usize, rows: &[Value]) -> Bag {
        let rows: Bag = rows.iter().cloned().collect();
        match self {
            Faces::Rows => rows,
            Faces::Columns => column_faced(&rows),
            Faces::Interleaved if index.is_multiple_of(2) => column_faced(&rows),
            Faces::Interleaved => rows,
        }
    }
}

impl Wrapper for Scripted {
    fn name(&self) -> &str {
        &self.name
    }
    fn kind(&self) -> &str {
        "relational"
    }
    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::get_only()
    }
    fn submit_into(
        &self,
        _expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        let mut rows_scanned = 0;
        for (index, chunk) in self.chunks.iter().enumerate() {
            rows_scanned += chunk.len();
            if !sink.push(self.faces.of_chunk(index, chunk)) {
                break;
            }
        }
        match self.then {
            Then::Complete => Ok(AnswerSummary {
                rows_scanned,
                latency: Duration::from_micros(100),
            }),
            Then::Panic => panic!("wrapper exploded after chunk {}", self.chunks.len()),
        }
    }
}

/// Person rows carrying a `bonus` the interface does not declare (so the
/// wrapper-side type check does not look for it).
fn with_bonus(id: i64, salary: i64, bonus: Option<i64>) -> Value {
    let mut fields = vec![
        ("id", Value::Int(id)),
        ("name", Value::from(format!("p{id}"))),
        ("salary", Value::Int(salary)),
    ];
    if let Some(bonus) = bonus {
        fields.push(("bonus", Value::Int(bonus)));
    }
    Value::Struct(StructValue::new(fields).unwrap())
}

fn bonus_chunks(odd_one: Value) -> Vec<Vec<Value>> {
    (0..5)
        .map(|c| {
            (0..6)
                .map(|r| {
                    let id = c * 6 + r;
                    if id == 15 {
                        odd_one.clone()
                    } else {
                        with_bonus(id, 60 + id, Some(id))
                    }
                })
                .collect()
        })
        .collect()
}

/// [`bonus_chunks`] whose third chunk holds no `bonus` at all: uniform, so
/// it can be column-faced — columns the stretch's kernels miss a field of.
fn bonus_chunks_with_a_chunk_lacking_it(salary: i64) -> Vec<Vec<Value>> {
    let mut chunks = bonus_chunks(with_bonus(15, 60, Some(15)));
    chunks[2] = (12..18).map(|id| with_bonus(id, salary, None)).collect();
    chunks
}

/// `bonus + 1` of the rows earning more than 50.
fn bonus_of_the_well_paid(submit: LogicalExpr) -> LogicalExpr {
    submit
        .filter(gt(ScalarExpr::attr("salary"), 50))
        .bind("x")
        .map_project(ScalarExpr::binary(
            ScalarOp::Add,
            ScalarExpr::var_field("x", "bonus"),
            ScalarExpr::constant(1i64),
        ))
}

#[test]
fn an_irregular_chunk_falls_back_for_that_batch_only() {
    // Row 15 (chunk 3 of 5) lacks a decoded field — or, the chunk being
    // columns, all of chunk 3 does; the filter beneath the bind drops
    // what lacks it before anything reads the field, so the row path —
    // and therefore the answer — does not miss it.
    for faces in Faces::ALL {
        for (chunks, what) in [
            (
                bonus_chunks(with_bonus(15, 10, None)),
                "a row lacking a field",
            ),
            (
                bonus_chunks_with_a_chunk_lacking_it(10),
                "a chunk lacking a field",
            ),
        ] {
            let mut fed = Fed::new();
            let plan = bonus_of_the_well_paid(fed.scripted(chunks, faces, Then::Complete));
            let label = format!("{what}, {faces:?}");
            for counters in assert_streamed_is_staged(&fed, &plan, &label) {
                assert_eq!(counters, (24, 6), "{label}: one chunk of six fell back");
            }
        }
    }
}

#[test]
fn an_irregular_chunk_reproduces_the_row_engines_error() {
    for faces in Faces::ALL {
        for (chunks, what) in [
            (bonus_chunks(Value::Int(15)), "a non-struct row"),
            (
                bonus_chunks(with_bonus(15, 99, None)),
                "a surviving row lacking the field",
            ),
            (
                bonus_chunks_with_a_chunk_lacking_it(99),
                "a surviving chunk lacking the field",
            ),
        ] {
            let what = format!("{what}, {faces:?}");
            let mut fed = Fed::new();
            let plan = bonus_of_the_well_paid(fed.scripted(chunks, faces, Then::Complete));
            let (data, metrics, expected) = staged(&fed, &plan, MemBudget::Unbounded);
            let expected = expected.expect_err(&what);
            assert_eq!(
                data.unwrap_err().to_string(),
                expected.to_string(),
                "{what}"
            );
            assert!(
                metrics.rows_fallback() > 0,
                "{what}: the failing batch bailed to the row path"
            );
            let err = execute(&fed, &plan, MemBudget::Unbounded).unwrap_err();
            assert_eq!(err.to_string(), expected.to_string(), "{what}");
        }
    }
    common::assert_no_calls_in_flight();
}

#[test]
fn a_scripted_chunk_has_the_face_its_case_says() {
    // The cases above must not silently run over rows only.
    let regular: Vec<Value> = (0..6).map(|id| with_bonus(id, 60, Some(id))).collect();
    assert!(Faces::Rows.of_chunk(0, &regular).columns().is_none());
    assert!(Faces::Columns.of_chunk(1, &regular).columns().is_some());
    assert!(Faces::Interleaved.of_chunk(0, &regular).columns().is_some());
    assert!(Faces::Interleaved.of_chunk(1, &regular).columns().is_none());
    let lacking = &bonus_chunks_with_a_chunk_lacking_it(10)[2];
    assert!(Faces::Columns.of_chunk(2, lacking).columns().is_some());
    let irregular = &bonus_chunks(Value::Int(15))[2];
    assert!(Faces::Columns.of_chunk(2, irregular).columns().is_none());
}

// ---------------------------------------------------------------------
// Spine readiness.
// ---------------------------------------------------------------------

fn sleeping(chunk_rows: usize, availability: Availability) -> NetworkProfile {
    NetworkProfile {
        base_latency_us: 500,
        per_row_us: 0,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows,
        availability,
    }
}

fn names_of(submit: LogicalExpr) -> LogicalExpr {
    submit
        .bind("x")
        .map_project(ScalarExpr::var_field("x", "name"))
}

#[test]
fn a_fused_union_emits_whichever_source_answers_first() {
    let mut fed = Fed::new();
    let slow_first_chunk = Duration::from_millis(300);
    let slow = fed.source(
        &people(20),
        sleeping(5, Availability::Slow { extra_ms: 300 }),
    );
    let fast = fed.source(&people(20), sleeping(5, Availability::Available));
    // Branch 0 is the slow one: a union that trusts a spine's `ready()`
    // and gets `true` for a source that has nothing yet blocks on it.
    let plan = LogicalExpr::Union(vec![names_of(slow), names_of(fast)]);
    let answer = execute(&fed, &plan, MemBudget::Unbounded).unwrap();
    assert!(answer.is_complete());
    assert_eq!(answer.data().len(), 40);
    assert_eq!(
        answer.stats().rows_kernel,
        40,
        "both branches are fused spines over their spools"
    );
    let first = answer.time_to_first_row().expect("rows were emitted");
    assert!(
        first < slow_first_chunk / 2,
        "first row after {first:?}: the union waited for the slow branch"
    );
    assert!(answer.stats().elapsed >= slow_first_chunk);
}

// ---------------------------------------------------------------------
// §4 under a fused spine.
// ---------------------------------------------------------------------

/// How many chunks reached a [`Watched`] wrapper's sink with a column
/// face, and how many as rows.
#[derive(Default)]
struct ChunkFaces {
    columns: AtomicUsize,
    rows: AtomicUsize,
}

impl ChunkFaces {
    /// Asserts that chunks went through and every one was column-faced:
    /// the case ran over columns, not over a silent fallback to rows.
    fn assert_all_columns(&self, what: &str) {
        let (columns, rows) = (
            self.columns.load(Ordering::Relaxed),
            self.rows.load(Ordering::Relaxed),
        );
        assert!(
            columns > 0 && rows == 0,
            "{what}: {columns} column chunks, {rows} row chunks"
        );
    }
}

/// Forwards to a relational wrapper, counts the faces of the chunks it
/// delivers, and takes its link down once `fail_after` chunks went
/// through — deterministically *between* two chunks.
struct Watched {
    inner: RelationalWrapper,
    fail_after: Option<usize>,
    faces: Arc<ChunkFaces>,
}

struct CountingSink<'a> {
    inner: &'a mut dyn AnswerSink,
    pushed: usize,
    fail_at: Option<usize>,
    link: Arc<SimulatedLink>,
    faces: &'a ChunkFaces,
}

impl AnswerSink for CountingSink<'_> {
    fn push(&mut self, rows: Bag) -> bool {
        let face = match rows.columns() {
            Some(_) => &self.faces.columns,
            None => &self.faces.rows,
        };
        face.fetch_add(1, Ordering::Relaxed);
        let more = self.inner.push(rows);
        self.pushed += 1;
        if Some(self.pushed) == self.fail_at {
            self.link.set_availability(Availability::Unavailable);
        }
        more
    }
    fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }
    fn pause(&mut self, delay: Duration) -> bool {
        self.inner.pause(delay)
    }
}

impl Wrapper for Watched {
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
        let mut counting = CountingSink {
            inner: sink,
            pushed: 0,
            fail_at: self.fail_after,
            link: Arc::clone(self.inner.link()),
            faces: &self.faces,
        };
        self.inner.submit_into(expr, &mut counting)
    }
}

fn branch_over(submit: LogicalExpr, threshold: i64) -> LogicalExpr {
    submit
        .filter(gt(ScalarExpr::attr("salary"), threshold))
        .bind("x")
        .map_project(ScalarExpr::var_field("x", "name"))
}

#[test]
fn a_link_lost_between_two_chunks_leaves_that_source_wholly_residual() {
    let mut fed = Fed::new();
    let healthy = fed.source(&people(30), instant_profile(4));
    let (failing, faces) = fed.watched(&people(30), instant_profile(4), Some(2));
    let plan = LogicalExpr::Union(vec![branch_over(healthy, 20), branch_over(failing, 20)]);
    let answer = execute(&fed, &plan, MemBudget::Unbounded).unwrap();
    assert!(!answer.is_complete());
    assert_eq!(answer.unavailable_sources(), &["r1".to_owned()]);
    assert_eq!(fed.links[1].chunk_count(), 3, "lost on its third chunk");
    faces.assert_all_columns("the two chunks that did arrive");

    // What the two stages say once the link is down for the whole call:
    // the rows of the two chunks that did arrive are not in the data.
    let physical = lower(&plan).unwrap();
    let resolved = resolve_execs(
        &physical,
        &fed.registry,
        &fed.catalog,
        &ExecutionConfig::default(),
    )
    .unwrap();
    let (data, residual) = partial_evaluate_reference(&physical.to_logical(), &resolved).unwrap();
    assert_eq!(*answer.data(), data);
    assert_eq!(answer.residual(), residual.as_ref());
    let text = answer.residual_oql().unwrap();
    assert!(
        text.contains("person1") && !text.contains("person0"),
        "{text}"
    );
    assert_eq!(
        answer.data().len(),
        people(30)
            .iter()
            .filter(|p| p.field("salary").unwrap() > &Value::Int(20))
            .count(),
        "the healthy source's survivors, nothing of the lost one"
    );
}

#[test]
fn a_trickling_source_is_cut_at_the_deadline_under_a_spine() {
    // One row per chunk, a millisecond apart: the consumer is never far
    // behind, and the stream would run for a second.
    let mut fed = Fed::new();
    let quick = fed.source(&people(30), instant_profile(0));
    let (trickle, faces) = fed.watched(
        &people(1000),
        sleeping(1, Availability::Degraded { chunk_extra_ms: 1 }),
        None,
    );
    let plan = LogicalExpr::Union(vec![branch_over(quick, -1), branch_over(trickle, -1)]);
    let started = Instant::now();
    let answer = executor(&fed, MemBudget::Unbounded)
        .with_deadline(Some(Duration::from_millis(80)))
        .execute(&lower(&plan).unwrap(), &fed.catalog)
        .unwrap();
    let elapsed = started.elapsed();
    assert!(!answer.is_complete(), "the deadline applies to a trickle");
    assert_eq!(answer.unavailable_sources(), &["r1".to_owned()]);
    assert_eq!(answer.data().len(), 30, "the quick source only");
    assert!(
        elapsed < Duration::from_millis(600),
        "evaluation stops at the deadline, not at the end of the stream: {elapsed:?}"
    );
    common::assert_no_calls_in_flight();
    let chunks = fed.links[1].chunk_count();
    assert!(chunks < 1000, "the call was cancelled, {chunks} chunks");
    faces.assert_all_columns("the trickle");
}

#[test]
fn a_type_conflict_in_a_late_chunk_is_an_error_not_a_short_answer() {
    let unsalaried = |id| {
        Value::Struct(
            StructValue::new(vec![("id", Value::Int(id)), ("name", Value::from("p"))]).unwrap(),
        )
    };
    // Chunk 3 holds a row without the interface's `salary`…
    let mut one_row = bonus_chunks(with_bonus(15, 70, Some(1)));
    one_row[2][3] = unsalaried(15);
    // … or, uniform and so column-faced, holds it in no row: the check of
    // a column chunk is one look at its field list.
    let mut whole_chunk = one_row.clone();
    whole_chunk[2] = (12..18).map(unsalaried).collect();
    assert!(Faces::Columns
        .of_chunk(2, &whole_chunk[2])
        .columns()
        .is_some());
    for faces in Faces::ALL {
        for chunks in [&one_row, &whole_chunk] {
            let mut fed = Fed::new();
            let submit = fed.scripted(chunks.clone(), faces, Then::Complete);
            let err = execute(&fed, &branch_over(submit, 0), MemBudget::Unbounded).unwrap_err();
            assert!(
                matches!(
                    &err,
                    RuntimeError::Wrapper(WrapperError::TypeConflict { missing_attribute, .. })
                        if missing_attribute == "salary"
                ),
                "{faces:?}: expected the wrapper-boundary type check, got {err}"
            );
        }
    }
}

#[test]
fn a_wrapper_panicking_mid_stream_surfaces_worker_panic() {
    for faces in Faces::ALL {
        let mut fed = Fed::new();
        let healthy = fed.source(&people(30), instant_profile(4));
        let submit = fed.scripted(
            bonus_chunks(with_bonus(15, 70, Some(1)))[..2].to_vec(),
            faces,
            Then::Panic,
        );
        let plan = LogicalExpr::Union(vec![branch_over(healthy, 0), branch_over(submit, 0)]);
        let err = execute(&fed, &plan, MemBudget::Unbounded).unwrap_err();
        assert!(
            matches!(&err, RuntimeError::WorkerPanic(msg) if msg.contains("exploded")),
            "{faces:?}: expected the contained panic, got {err}"
        );
    }
    common::assert_no_calls_in_flight();
}

#[test]
fn an_exhausted_row_budget_still_yields_a_partial_answer() {
    let mut fed = Fed::new();
    let (submits, faces): (Vec<LogicalExpr>, Vec<Arc<ChunkFaces>>) = (0..3)
        .map(|_| fed.watched(&people(40), instant_profile(8), None))
        .unzip();
    let plan = LogicalExpr::Union(submits.into_iter().map(|s| branch_over(s, -1)).collect());
    let answer = executor(&fed, MemBudget::Unbounded)
        .with_row_budget(Some(70))
        .execute(&lower(&plan).unwrap(), &fed.catalog)
        .unwrap();
    assert!(!answer.is_complete(), "120 rows do not fit a budget of 70");
    for (i, faces) in faces.iter().enumerate() {
        faces.assert_all_columns(&format!("source {i}"));
    }
    assert!(!answer.unavailable_sources().is_empty());
    assert!(answer.stats().rows_transferred <= 70);
    // Data and residual partition the sources: whatever answered in full
    // is in the data, whatever was cut is in the residual, whole.
    let cut = answer.unavailable_sources().len();
    assert_eq!(answer.data().len(), 40 * (3 - cut));
    let residual = answer.residual_oql().unwrap();
    for (i, repo) in ["r0", "r1", "r2"].iter().enumerate() {
        assert_eq!(
            residual.contains(&format!("person{i}")),
            answer.unavailable_sources().iter().any(|r| r == repo),
            "{residual}"
        );
    }
    common::assert_no_calls_in_flight();
}

// ---------------------------------------------------------------------
// The answer is written once.
// ---------------------------------------------------------------------

/// `struct(l: x.name, r: y.name, total: x.id + y.id)` of the pairs of
/// `left` and `right` rows of equal salary: a pair kernel over a fused
/// hash join.
fn joined_pairs(fed: &mut Fed, left: &Bag, right: &Bag) -> LogicalExpr {
    let side = |fed: &mut Fed, rows: &Bag, var: &str| {
        fed.source(rows, instant_profile(0))
            .project(["id", "name", "salary"])
            .bind(var)
    };
    LogicalExpr::Join {
        left: Box::new(side(fed, left, "x")),
        right: Box::new(side(fed, right, "y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::var_field("y", "salary"),
        )),
    }
    .map_project(ScalarExpr::StructLit(vec![
        ("l".into(), ScalarExpr::var_field("x", "name")),
        ("r".into(), ScalarExpr::var_field("y", "name")),
        (
            "total".into(),
            ScalarExpr::binary(
                ScalarOp::Add,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            ),
        ),
    ]))
}

/// Person rows `m{member}-{i}` of ids `ids`, each earning `salary(i)`.
fn named(member: usize, ids: Range<i64>, salary: impl Fn(i64) -> i64) -> Bag {
    ids.map(|i| common::person(i, &format!("m{member}-{i}"), salary(i)))
        .collect()
}

/// The sink takes a batch whole, however many rows it holds: one probe
/// batch of a pair kernel fans out to three times [`BATCH_ROWS`] structs,
/// and every one of them reaches the answer once.
#[test]
fn a_probe_batch_fanning_out_past_a_batch_reaches_the_answer_whole() {
    let probe_rows = BATCH_ROWS as i64 + 4;
    let mut fed = Fed::new();
    // Every row earns the same: each probe row matches all three build
    // rows (the build side is the smaller).
    let plan = joined_pairs(
        &mut fed,
        &named(0, 0..probe_rows, |_| 7),
        &named(1, 0..3, |_| 7),
    );
    for (budget, counters) in BUDGETS
        .iter()
        .zip(assert_streamed_is_staged(&fed, &plan, "fan-out"))
    {
        assert_eq!(
            counters,
            (probe_rows as usize + 3, 0),
            "{budget:?}: both sides on the kernels"
        );
        let answer = execute(&fed, &plan, *budget).unwrap();
        let rows = answer.data().as_slice();
        assert_eq!(rows.len(), 3 * probe_rows as usize, "{budget:?}");
        let (_, metrics, _) = staged(&fed, &plan, *budget);
        assert_eq!(metrics.rows_emitted(), rows.len(), "{budget:?}");
        // Probe-major, build order within a key group: no row lost,
        // duplicated or moved.
        for (p, pairs) in rows.chunks(3).enumerate() {
            for (b, row) in pairs.iter().enumerate() {
                let total = Value::Int(p as i64 + b as i64);
                assert_eq!(row.field("total").unwrap(), &total, "{budget:?}");
                assert_eq!(row.field("r").unwrap(), &Value::from(format!("m1-{b}")));
            }
        }
    }
    common::assert_no_calls_in_flight();
}

/// A root fan-out of three members, the first lost after two of its
/// chunks reached the sink (its rows came first), the other two slow:
/// the data is the kept members' rows, member by member; the residual is
/// the lost member's branch; the first row is a kept member's.
#[test]
fn a_root_fan_out_losing_a_member_mid_stream_writes_the_kept_members_rows() {
    let slow = NetworkProfile {
        base_latency_us: 30_000,
        per_row_us: 0,
        jitter: 0.0,
        real_sleep: true,
        chunk_rows: 4,
        availability: Availability::Available,
    };
    let salary = |i: i64| (i * 37) % 100;
    let rows: Vec<Bag> = (0..3).map(|m| named(m, 0..30, salary)).collect();
    let mut fed = Fed::new();
    let (lost, faces) = fed.watched(&rows[0], instant_profile(4), Some(2));
    let kept: Vec<LogicalExpr> = rows[1..]
        .iter()
        .map(|rows| fed.source(rows, slow.clone()))
        .collect();
    let mut plan = LogicalExpr::Union(
        std::iter::once(lost)
            .chain(kept)
            .map(|s| branch_over(s, 20))
            .collect(),
    );
    plan.rewrite_in_place(&rules::simplify_union);
    let physical = lower(&plan).unwrap();
    assert!(matches!(physical, PhysicalExpr::FanOut(_)), "{physical}");

    let started = Instant::now();
    let answer = executor(&fed, MemBudget::Unbounded)
        .execute(&physical, &fed.catalog)
        .unwrap();
    let elapsed = started.elapsed();
    assert!(!answer.is_complete());
    assert_eq!(answer.unavailable_sources(), &["r0".to_owned()]);
    assert_eq!(fed.links[0].chunk_count(), 3, "lost on its third chunk");
    faces.assert_all_columns("the lost member's two chunks");
    let expected: Vec<Value> = rows[1..]
        .iter()
        .flat_map(|rows| rows.iter())
        .filter(|p| p.field("salary").unwrap() > &Value::Int(20))
        .map(|p| p.field("name").unwrap().clone())
        .collect();
    assert_eq!(answer.data().as_slice(), &expected[..], "member by member");
    assert_eq!(
        answer.residual_oql().unwrap(),
        "select x.name from x in person0 where x.salary > 20"
    );
    let first = answer.time_to_first_row().expect("kept rows were written");
    assert!(
        first >= Duration::from_micros(slow.base_latency_us) && first <= elapsed,
        "first row after {first:?} of {elapsed:?}: a kept member's, not the lost one's"
    );
    common::assert_no_calls_in_flight();
}

/// `struct(name: x.name, pay: x.salary + k, per: 1000 / x.id)`: `pay`
/// overflows for the row earning more than 100, `per` divides by zero for
/// id 0.
fn pay_and_share(submit: LogicalExpr) -> LogicalExpr {
    submit.bind("x").map_project(ScalarExpr::StructLit(vec![
        ("name".into(), ScalarExpr::var_field("x", "name")),
        (
            "pay".into(),
            ScalarExpr::binary(
                ScalarOp::Add,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::constant(i64::MAX - 100),
            ),
        ),
        (
            "per".into(),
            ScalarExpr::binary(
                ScalarOp::Div,
                ScalarExpr::constant(1000i64),
                ScalarExpr::var_field("x", "id"),
            ),
        ),
    ]))
}

/// A kernel batch that bails reports the row engine's error at the row
/// engine's row: of an overflow and a division by zero in one batch, the
/// earlier row's — at a root union's branch and at a plain root alike.
#[test]
fn a_bailing_kernel_batch_reports_the_row_engines_first_error() {
    for (overflow_at, zero_at, first) in [(5, 9, "integer overflow"), (9, 5, "division by zero")] {
        let odd = |rows: i64| {
            (0..rows)
                .map(|i| {
                    let id = if i == zero_at { 0 } else { i + 1 };
                    let salary = if i == overflow_at { 200 } else { 10 };
                    common::person(id, &format!("p{i}"), salary)
                })
                .collect::<Bag>()
        };
        let mut fed = Fed::new();
        let failing = pay_and_share(fed.source(&odd(40), instant_profile(0)));
        let healthy = pay_and_share(fed.source(&named(1, 1..30, |_| 10), instant_profile(0)));
        let plans = [
            ("plain root", failing.clone()),
            ("root union", LogicalExpr::Union(vec![healthy, failing])),
        ];
        for (what, plan) in plans {
            let label = format!("{what}, {first} first");
            let (data, metrics, expected) = staged(&fed, &plan, MemBudget::Unbounded);
            let expected = expected.expect_err(&label);
            assert!(expected.to_string().contains(first), "{label}: {expected}");
            assert_eq!(
                data.unwrap_err().to_string(),
                expected.to_string(),
                "{label}"
            );
            assert!(metrics.rows_fallback() > 0, "{label}: the batch bailed");
            let err = execute(&fed, &plan, MemBudget::Unbounded).unwrap_err();
            assert_eq!(err.to_string(), expected.to_string(), "{label}");
        }
    }
    common::assert_no_calls_in_flight();
}

/// A root that is not a union — a sum, a distinct, a join, and a sum over
/// a union — answers through the one sink as the reference does.
#[test]
fn a_root_that_is_not_a_union_answers_as_the_reference_does() {
    let mut fed = Fed::new();
    let salary = |i: i64| (i * 37) % 100;
    let join = joined_pairs(
        &mut fed,
        &named(0, 0..60, salary),
        &named(1, 0..40, |i| salary(i) / 2),
    );
    let s = [
        fed.source(&named(2, 0..50, salary), instant_profile(7)),
        fed.source(&named(3, 0..50, salary), instant_profile(0)),
    ];
    let salaries = |s: &LogicalExpr| {
        s.clone()
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "salary"))
    };
    let plans = [
        (
            "sum",
            LogicalExpr::Aggregate {
                func: AggKind::Sum,
                input: Box::new(salaries(&s[0])),
            },
        ),
        (
            "distinct",
            LogicalExpr::Distinct(Box::new(s[0].clone().bind("x").map_project(
                ScalarExpr::StructLit(vec![(
                    "tenth".into(),
                    ScalarExpr::binary(
                        ScalarOp::Div,
                        ScalarExpr::var_field("x", "salary"),
                        ScalarExpr::constant(10i64),
                    ),
                )]),
            ))),
        ),
        ("join", join),
        (
            "sum over a union",
            LogicalExpr::Aggregate {
                func: AggKind::Sum,
                input: Box::new(LogicalExpr::Union(s.iter().map(salaries).collect())),
            },
        ),
    ];
    for (what, plan) in plans {
        let passes = assert_streamed_is_staged(&fed, &plan, what);
        assert!(
            passes.iter().all(|(kernel, _)| *kernel > 0),
            "{what}: fused"
        );
    }
    common::assert_no_calls_in_flight();
}

/// Starts after the tests above (the harness starts tests in name order)
/// and outwaits the ones still running.
#[test]
fn zz_no_call_outlives_its_query() {
    common::assert_no_calls_in_flight();
}

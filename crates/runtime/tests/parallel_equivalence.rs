//! Differential, determinism and poison-safety tests for the
//! morsel-driven parallel engine.
//!
//! Four claims are pinned here:
//!
//! 1. **Differential equivalence**: random plans from the shared
//!    generator produce multiset-identical answers through the reference
//!    (bag-at-a-time) evaluator, the serial streaming engine, and the
//!    parallel engine at 1/2/4/8 threads — and identical partial-answer
//!    data *and residual plans* under random source availability.
//! 2. **Determinism**: the same plan executed repeatedly on a contended
//!    pool yields the same result multiset and the same
//!    `rows_materialized` count every run, and that count equals the
//!    serial engine's at every thread count.
//! 3. **Poison safety**: a cursor that panics mid-batch on a worker —
//!    join build side, probe side, or a union branch — surfaces as an
//!    `Err` from `evaluate_physical_with`, not a hang or abort.
//! 4. **Metric merging**: per-worker `PipelineMetrics` sum exactly
//!    (`merge` / `Add`), so `ExecutionStats.rows_materialized` is the
//!    same number the serial engine reports.

mod common;

use common::{person, random_partial_scenario, random_plan};
use disco_algebra::{lower, LogicalExpr, ScalarExpr, ScalarOp};
use disco_runtime::{
    evaluate_physical_with, partial_evaluate, partial_evaluate_reference, reference,
    substitute_resolved, AdaptiveMode, MemBudget, PipelineMetrics, PipelineOptions, ResolvedExecs,
    RuntimeError,
};
use disco_value::Bag;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn opts(threads: usize) -> PipelineOptions {
    PipelineOptions {
        threads,
        ..PipelineOptions::default()
    }
}

/// Evaluates without instrumentation.
fn evaluate(
    physical: &disco_algebra::PhysicalExpr,
    resolved: &ResolvedExecs,
    options: PipelineOptions,
) -> disco_runtime::Result<Bag> {
    evaluate_physical_with(physical, resolved, &PipelineMetrics::new(), options)
}

#[test]
fn parallel_engine_matches_reference_and_serial_on_random_plans() {
    let resolved = ResolvedExecs::default();
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x9A7A11E1 + seed);
        let plan = random_plan(&mut rng);
        let physical = lower(&plan).expect("plan lowers");
        let expected =
            reference::evaluate_physical(&physical, &resolved).expect("reference evaluates");
        for threads in THREAD_COUNTS {
            let actual = evaluate(&physical, &resolved, opts(threads)).expect("parallel evaluates");
            assert_eq!(
                actual, expected,
                "seed {seed}, {threads} threads: answers must be multiset-equal for {physical}"
            );
        }
    }
}

#[test]
fn parallel_partial_evaluation_preserves_data_and_residual_plans() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x9A47 + seed);
        let (plan, resolved) = random_partial_scenario(&mut rng);
        let substituted = substitute_resolved(&plan, &resolved);
        let (data_r, residual_r) =
            partial_evaluate_reference(&substituted, &resolved).expect("reference partial eval");
        for threads in THREAD_COUNTS {
            let (data_p, residual_p) = partial_evaluate(&substituted, &resolved, opts(threads))
                .expect("parallel partial eval");
            assert_eq!(
                data_p, data_r,
                "seed {seed}, {threads} threads: partial answer data must match"
            );
            assert_eq!(
                residual_p, residual_r,
                "seed {seed}, {threads} threads: residual plans must be identical"
            );
        }
    }
}

/// The deep-pipeline shape (filter → hash-join → computed projection →
/// distinct) at a size that yields many morsels per worker.
fn deep_pipeline_plan(left_rows: usize, right_rows: usize) -> LogicalExpr {
    let left: Bag = (0..left_rows)
        .map(|i| person((i % 97) as i64, &format!("p{}", i % 61), (i % 199) as i64))
        .collect();
    let right: Bag = (0..right_rows)
        .map(|i| person((i % 97) as i64, &format!("r{}", i % 13), (i % 53) as i64))
        .collect();
    LogicalExpr::Distinct(Box::new(
        LogicalExpr::Join {
            left: Box::new(LogicalExpr::Data(left).bind("x").filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::constant(40i64),
            ))),
            right: Box::new(LogicalExpr::Data(right).bind("y")),
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
        ])),
    ))
}

#[test]
fn repeated_parallel_runs_are_deterministic_in_results_and_metrics() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&deep_pipeline_plan(2_000, 400)).expect("lowers");

    // The serial engine sets the expectation for both the answer and the
    // breaker-buffering count.
    let serial_metrics = PipelineMetrics::new();
    let expected = evaluate_physical_with(&physical, &resolved, &serial_metrics, opts(1))
        .expect("serial evaluates");
    let expected_materialized = serial_metrics.rows_materialized();
    assert!(expected_materialized > 0, "the shape has pipeline breakers");

    // 50 runs on a contended pool: same multiset, same metrics, every run.
    for run in 0..50u32 {
        let metrics = PipelineMetrics::new();
        let out =
            evaluate_physical_with(&physical, &resolved, &metrics, opts(4)).expect("evaluates");
        assert_eq!(out, expected, "run {run}: result multiset must not vary");
        assert_eq!(
            metrics.rows_materialized(),
            expected_materialized,
            "run {run}: rows_materialized must not depend on scheduling"
        );
        assert_eq!(metrics.rows_emitted(), expected.len(), "run {run}");
    }

    // And the count is thread-count-invariant, not merely stable.
    for threads in THREAD_COUNTS {
        let metrics = PipelineMetrics::new();
        let out = evaluate_physical_with(&physical, &resolved, &metrics, opts(threads))
            .expect("evaluates");
        assert_eq!(out, expected);
        assert_eq!(
            metrics.rows_materialized(),
            expected_materialized,
            "{threads} threads: breakers must buffer exactly the serial row count"
        );
    }
}

#[test]
fn union_distinct_is_deterministic_across_runs() {
    let resolved = ResolvedExecs::default();
    let branches: Vec<LogicalExpr> = (0..8)
        .map(|b| {
            LogicalExpr::Data(
                (0..500)
                    .map(|i| {
                        person(
                            ((b * 31 + i) % 89) as i64,
                            &format!("n{}", i % 47),
                            i as i64,
                        )
                    })
                    .collect::<Bag>(),
            )
        })
        .collect();
    let physical = lower(&LogicalExpr::Distinct(Box::new(LogicalExpr::Union(
        branches,
    ))))
    .expect("lowers");
    let serial = evaluate(&physical, &resolved, opts(1)).expect("serial");
    for _ in 0..50 {
        let metrics = PipelineMetrics::new();
        let out =
            evaluate_physical_with(&physical, &resolved, &metrics, opts(8)).expect("evaluates");
        assert_eq!(out, serial);
        assert_eq!(metrics.rows_materialized(), serial.len());
    }
}

// ---------------------------------------------------------------------
// Poison safety: a panicking cursor must surface as Err, not hang/abort
// ---------------------------------------------------------------------

/// A filter predicate that panics when `var.id == id` (the
/// `__disco_panic_if__` fail point built into scalar evaluation).
fn panic_on_id(var: &str, id: i64) -> ScalarExpr {
    ScalarExpr::Call(
        "__disco_panic_if__".into(),
        vec![ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field(var, "id"),
            ScalarExpr::constant(id),
        )],
    )
}

fn people(rows: usize) -> Bag {
    (0..rows)
        .map(|i| person((i % 64) as i64, &format!("p{i}"), (i % 100) as i64))
        .collect()
}

fn join_with_poison(poison_build: bool) -> LogicalExpr {
    // 4000 probe-side rows vs 400 build-side rows: the smaller right
    // input is the build side under the Auto policy, and both sides span
    // multiple morsels.
    let mut left = LogicalExpr::Data(people(4_000)).bind("x");
    let mut right = LogicalExpr::Data(people(400)).bind("y");
    if poison_build {
        right = right.filter(panic_on_id("y", 23));
    } else {
        left = left.filter(panic_on_id("x", 23));
    }
    LogicalExpr::Join {
        left: Box::new(left),
        right: Box::new(right),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::var_field("x", "name"))
}

fn assert_worker_panic(plan: &LogicalExpr, threads: usize) {
    let physical = lower(plan).expect("lowers");
    let resolved = ResolvedExecs::default();
    // Pin the budget unbounded: these tests target the *parallel* engine's
    // panic containment, and a bounded budget (e.g. a `DISCO_MEM_BUDGET`
    // forced through the environment) routes breaker-terminal plans to the
    // serial path by design — where an injected panic is a real panic, not
    // a contained `WorkerPanic`.
    let options = PipelineOptions {
        mem_budget: MemBudget::Unbounded,
        ..opts(threads)
    };
    let err = evaluate(&physical, &resolved, options)
        .expect_err("the injected panic must surface as an error");
    assert!(
        matches!(err, RuntimeError::WorkerPanic(_)),
        "expected WorkerPanic, got: {err}"
    );
    assert!(err.to_string().contains("injected panic"));
}

#[test]
fn panic_on_join_build_side_surfaces_as_error() {
    for threads in [2, 4] {
        assert_worker_panic(&join_with_poison(true), threads);
    }
}

#[test]
fn panic_on_join_probe_side_surfaces_as_error() {
    for threads in [2, 4] {
        assert_worker_panic(&join_with_poison(false), threads);
    }
}

#[test]
fn panic_in_union_branch_surfaces_as_error() {
    let branches = vec![
        LogicalExpr::Data(people(1_000))
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "name")),
        LogicalExpr::Data(people(1_000))
            .bind("x")
            .filter(panic_on_id("x", 23))
            .map_project(ScalarExpr::var_field("x", "name")),
        LogicalExpr::Data(people(1_000))
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "name")),
    ];
    for threads in [2, 4] {
        assert_worker_panic(&LogicalExpr::Union(branches.clone()), threads);
    }
}

#[test]
fn pool_stays_usable_after_a_poisoned_execution() {
    // A panicked evaluation must not wedge anything process-wide: the
    // very next parallel evaluation on fresh scoped workers succeeds.
    let resolved = ResolvedExecs::default();
    assert_worker_panic(&join_with_poison(true), 4);
    let physical = lower(&deep_pipeline_plan(1_000, 100)).expect("lowers");
    let ok = evaluate(&physical, &resolved, opts(4)).expect("recovers");
    let serial = evaluate(&physical, &resolved, opts(1)).expect("serial");
    assert_eq!(ok, serial);
}

// ---------------------------------------------------------------------
// Metric merging
// ---------------------------------------------------------------------

#[test]
fn metrics_merge_sums_counts_exactly() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&deep_pipeline_plan(500, 100)).expect("lowers");
    // Two independent executions counted into two instances...
    let a = PipelineMetrics::new();
    evaluate_physical_with(&physical, &resolved, &a, opts(1)).expect("evaluates");
    let b = PipelineMetrics::new();
    evaluate_physical_with(&physical, &resolved, &b, opts(1)).expect("evaluates");
    // ...merge to exactly the sum, via both `merge` and `Add`.
    let merged = PipelineMetrics::new();
    merged.merge(&a);
    merged.merge(&b);
    assert_eq!(
        merged.rows_materialized(),
        a.rows_materialized() + b.rows_materialized()
    );
    assert_eq!(merged.rows_merged(), a.rows_merged() + b.rows_merged());
    assert_eq!(merged.rows_emitted(), a.rows_emitted() + b.rows_emitted());
    let added = &a + &b;
    assert_eq!(added.rows_materialized(), merged.rows_materialized());
    assert_eq!(added.rows_merged(), merged.rows_merged());
    assert_eq!(added.rows_emitted(), merged.rows_emitted());
}

#[test]
fn executor_stats_report_serial_counts_at_any_thread_count() {
    // `ExecutionStats.rows_materialized` flows from merged per-worker
    // metrics; pin that the number matches the serial engine through the
    // public instrumented entry point.
    let resolved = ResolvedExecs::default();
    let physical = lower(&deep_pipeline_plan(1_500, 300)).expect("lowers");
    let serial = PipelineMetrics::new();
    evaluate_physical_with(&physical, &resolved, &serial, opts(1)).expect("serial");
    for threads in THREAD_COUNTS {
        let metrics = PipelineMetrics::new();
        evaluate_physical_with(&physical, &resolved, &metrics, opts(threads)).expect("evaluates");
        assert_eq!(metrics.rows_materialized(), serial.rows_materialized());
        assert_eq!(metrics.rows_merged(), serial.rows_merged());
        assert_eq!(metrics.rows_emitted(), serial.rows_emitted());
    }
}

// ---------------------------------------------------------------------
// The heterogeneity-aware build-side choice: answers must be identical
// to the pinned choice's at every thread count.
// ---------------------------------------------------------------------

#[test]
fn adaptive_scheduling_matches_pinned_answers_on_random_plans() {
    let resolved = ResolvedExecs::default();
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(0xADA9 + seed);
        let plan = random_plan(&mut rng);
        let physical = lower(&plan).expect("plan lowers");
        let expected =
            reference::evaluate_physical(&physical, &resolved).expect("reference evaluates");
        for threads in [1usize, 2, 4] {
            for adaptive in [AdaptiveMode::Off, AdaptiveMode::On] {
                let options = PipelineOptions {
                    threads,
                    adaptive,
                    ..PipelineOptions::default()
                };
                let actual = evaluate(&physical, &resolved, options).expect("evaluates");
                assert_eq!(
                    actual, expected,
                    "seed {seed}, {threads} threads, {adaptive:?}: answers must be \
                     multiset-equal with and without adaptive scheduling"
                );
            }
        }
    }
}

#[test]
fn adaptive_deep_pipeline_is_stable_across_repeated_contended_runs() {
    // Repeated contended runs with adaptivity engaged exercise many
    // different claim interleavings — the answer must never move.
    let resolved = ResolvedExecs::default();
    let physical = lower(&deep_pipeline_plan(2_000, 400)).expect("lowers");
    let pinned = evaluate(
        &physical,
        &resolved,
        PipelineOptions {
            threads: 1,
            adaptive: AdaptiveMode::Off,
            ..PipelineOptions::default()
        },
    )
    .expect("pinned serial evaluates");
    for threads in THREAD_COUNTS {
        for run in 0..10u32 {
            let options = PipelineOptions {
                threads,
                adaptive: AdaptiveMode::On,
                ..PipelineOptions::default()
            };
            let out = evaluate(&physical, &resolved, options).expect("adaptive evaluates");
            assert_eq!(
                out, pinned,
                "run {run}, {threads} threads: adaptivity must not change the answer"
            );
        }
    }
}

#[test]
fn build_side_orientation_is_respected_in_parallel() {
    use disco_runtime::BuildSide;
    let left: Bag = people(900);
    let right: Bag = people(90);
    let plan = LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(left.clone()).bind("x")),
        right: Box::new(LogicalExpr::Data(right.clone()).bind("y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::var_field("x", "name"));
    let physical = lower(&plan).expect("lowers");
    let resolved = ResolvedExecs::default();
    for (side, buffered) in [
        (BuildSide::Auto, right.len()),
        (BuildSide::Right, right.len()),
        (BuildSide::Left, left.len()),
    ] {
        let metrics = PipelineMetrics::new();
        let options = PipelineOptions {
            build_side: side,
            threads: 4,
            ..PipelineOptions::default()
        };
        let out =
            evaluate_physical_with(&physical, &resolved, &metrics, options).expect("evaluates");
        let serial = evaluate(
            &physical,
            &resolved,
            PipelineOptions {
                build_side: side,
                threads: 1,
                ..PipelineOptions::default()
            },
        )
        .expect("serial");
        assert_eq!(out, serial);
        assert_eq!(
            metrics.rows_materialized(),
            buffered,
            "{side:?}: the chosen build side must be the buffered one"
        );
    }
}

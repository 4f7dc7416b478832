//! Differential tests for the memory-budgeted spill path.
//!
//! Three claims are pinned here:
//!
//! 1. **Budget transparency**: random plans from the shared generator
//!    produce multiset-identical answers — and identical
//!    `rows_materialized` counts — under a tiny memory budget (every
//!    pipeline breaker spills) and under the default unbounded budget.
//!    Partial answers of federated plans match too.
//! 2. **The budget actually engages**: the tiny-budget runs report
//!    nonzero `bytes_spilled` / `spill_partitions` in aggregate, while
//!    unbounded runs report exactly zero everywhere (including
//!    `peak_tracked_bytes`, which only bounded budgets track).
//! 3. **Error identity**: an evaluation error raised after spilling has
//!    begun surfaces with exactly the same error text as the unbounded
//!    path.

mod common;

use common::{person, random_partial_scenario, random_plan};
use disco_algebra::{lower, AggKind, LogicalExpr, ScalarExpr, ScalarOp};
use disco_runtime::{
    evaluate_physical_with, partial_evaluate, reference, MemBudget, PipelineMetrics,
    PipelineOptions, ResolvedExecs,
};
use disco_value::{Bag, StructValue, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Small enough that any multi-row breaker state trips, large enough
/// that a single-row partition reload does not recurse to the deepest
/// spill level (which would only waste test time, not change answers).
const TINY_BUDGET: usize = 256;

/// The budget for the peak-bound tests: the inner-buffer shapes feed it
/// roughly 10x this many bytes, and admission trips at row granularity,
/// so the tracked peak may overshoot by at most one row — well inside
/// the ~1.02x bound below.  (`TINY_BUDGET` cannot make this claim: a
/// single ~150-byte person row is already more than 2% of 256 bytes.)
const INNER_BUDGET: usize = 65536;

/// `peak_tracked_bytes` must stay within ~1.02x of [`INNER_BUDGET`].
const PEAK_BOUND: usize = INNER_BUDGET + INNER_BUDGET / 50;

fn opts(mem_budget: MemBudget) -> PipelineOptions {
    PipelineOptions {
        mem_budget,
        ..PipelineOptions::default()
    }
}

#[test]
fn tiny_budget_matches_unbounded_on_random_plans() {
    let resolved = ResolvedExecs::default();
    let mut spilled_total = 0u64;
    let mut partitions_total = 0usize;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5B111ED + seed);
        let plan = random_plan(&mut rng);
        let physical = lower(&plan).expect("plan lowers");
        let expected =
            reference::evaluate_physical(&physical, &resolved).expect("reference evaluates");
        let unbounded = PipelineMetrics::new();
        let baseline =
            evaluate_physical_with(&physical, &resolved, &unbounded, opts(MemBudget::Unbounded))
                .expect("unbounded evaluates");
        assert_eq!(baseline, expected, "seed {seed}");
        assert_eq!(
            unbounded.bytes_spilled(),
            0,
            "unbounded must never touch disk"
        );
        assert_eq!(unbounded.spill_partitions(), 0);
        assert_eq!(
            unbounded.peak_tracked_bytes(),
            0,
            "unbounded budgets do not track bytes"
        );

        let tiny = PipelineMetrics::new();
        let spilled = evaluate_physical_with(
            &physical,
            &resolved,
            &tiny,
            opts(MemBudget::Bytes(TINY_BUDGET)),
        )
        .expect("tiny-budget evaluates");
        assert_eq!(
            spilled, expected,
            "seed {seed}: spilling must not change the answer"
        );
        assert_eq!(
            tiny.rows_materialized(),
            unbounded.rows_materialized(),
            "seed {seed}: rows_materialized must not depend on spilling"
        );
        spilled_total += tiny.bytes_spilled();
        partitions_total += tiny.spill_partitions();
    }
    assert!(
        spilled_total > 0,
        "40 random plans under a {TINY_BUDGET}-byte budget must spill somewhere"
    );
    assert!(partitions_total > 0);
}

#[test]
fn tiny_budget_preserves_partial_answers_of_federated_plans() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0x5B111 + seed);
        let (plan, resolved) = random_partial_scenario(&mut rng);
        let metrics = PipelineMetrics::new();
        let (data_u, residual_u) =
            partial_evaluate(&plan, &resolved, &metrics, opts(MemBudget::Unbounded))
                .expect("unbounded partial eval");
        let (data_t, residual_t) = partial_evaluate(
            &plan,
            &resolved,
            &metrics,
            opts(MemBudget::Bytes(TINY_BUDGET)),
        )
        .expect("tiny-budget partial eval");
        assert_eq!(
            data_t, data_u,
            "seed {seed}: partial answer data must match"
        );
        assert_eq!(
            residual_t, residual_u,
            "seed {seed}: residual plans must be identical"
        );
    }
}

/// The deep-pipeline shape (filter → hash-join → computed projection →
/// distinct): both breaker kinds hold multi-kilobyte state, so a 4 KiB
/// budget forces both the join build table and the distinct seen-set to
/// disk.
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
fn deep_join_distinct_pipeline_spills_and_matches() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&deep_pipeline_plan(2_000, 400)).expect("lowers");

    let unbounded = PipelineMetrics::new();
    let expected =
        evaluate_physical_with(&physical, &resolved, &unbounded, opts(MemBudget::Unbounded))
            .expect("unbounded evaluates");
    assert_eq!(unbounded.bytes_spilled(), 0);

    let metrics = PipelineMetrics::new();
    let out = evaluate_physical_with(&physical, &resolved, &metrics, opts(MemBudget::Bytes(4096)))
        .expect("budgeted evaluates");
    assert_eq!(out, expected);
    assert_eq!(
        metrics.rows_materialized(),
        unbounded.rows_materialized(),
        "breaker buffering must be budget-invariant"
    );
    assert!(
        metrics.bytes_spilled() > 0,
        "a 4 KiB budget must spill this shape"
    );
    assert!(metrics.spill_partitions() >= 8, "at least one full fan-out");
    assert!(metrics.peak_tracked_bytes() > 0);
}

/// The build loop acts on a budget trip at the row that caused it, so the
/// tracked peak stays within one build row of the budget (pinned at
/// `batch_rows: 1`, where the bound also held while trips were detected
/// per batch).
#[test]
fn join_build_overshoots_the_budget_by_at_most_one_batch() {
    const BUDGET: usize = 16 * 1024;
    /// Generous for one bound person row plus its key.
    const ONE_ROW: usize = 1024;
    let LogicalExpr::Distinct(join) = deep_pipeline_plan(2_000, 400) else {
        unreachable!("the deep pipeline ends in a distinct");
    };
    let resolved = ResolvedExecs::default();
    let physical = lower(&join).expect("lowers");
    let expected = reference::evaluate_physical(&physical, &resolved).expect("reference");
    let metrics = PipelineMetrics::new();
    let options = PipelineOptions {
        batch_rows: 1,
        ..opts(MemBudget::Bytes(BUDGET))
    };
    let out = evaluate_physical_with(&physical, &resolved, &metrics, options).expect("evaluates");
    assert_eq!(out, expected);
    assert!(metrics.bytes_spilled() > 0, "a ~7x-budget build must spill");
    let peak = metrics.peak_tracked_bytes();
    assert!(
        peak <= BUDGET + ONE_ROW,
        "peak {peak} overshoots the {BUDGET}-byte budget by more than one row"
    );
}

/// A budget costs the disk, not the kernels: a join over two fusable
/// scans keeps its vectorized sides while its ~10x-budget build side
/// goes Grace, with the tracked peak inside the same ~1.02x bound.
#[test]
fn fused_join_spills_within_the_peak_bound_and_keeps_its_kernels() {
    let side = |rows: usize, tag: &str| -> Bag {
        (0..rows)
            .map(|i| person((i % 4_500) as i64, &format!("{tag}{i}"), (i % 199) as i64))
            .collect()
    };
    let plan = LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(side(6_000, "p")).bind("x")),
        right: Box::new(LogicalExpr::Data(side(4_500, "r")).bind("y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::StructLit(vec![
        ("name".into(), ScalarExpr::var_field("x", "name")),
        ("peer".into(), ScalarExpr::var_field("y", "name")),
    ]));
    let resolved = ResolvedExecs::default();
    let physical = lower(&plan).expect("lowers");

    let unbounded = PipelineMetrics::new();
    let expected =
        evaluate_physical_with(&physical, &resolved, &unbounded, opts(MemBudget::Unbounded))
            .expect("unbounded evaluates");
    assert_eq!(expected.len(), 6_000);
    assert_eq!(unbounded.rows_kernel(), 10_500, "both sides vectorize");

    let metrics = PipelineMetrics::new();
    let out = evaluate_physical_with(
        &physical,
        &resolved,
        &metrics,
        opts(MemBudget::Bytes(INNER_BUDGET)),
    )
    .expect("budgeted evaluates");
    assert_eq!(out, expected);
    assert_eq!(metrics.rows_materialized(), unbounded.rows_materialized());
    assert!(
        metrics.bytes_spilled() > 0,
        "a ~10x-budget build must spill"
    );
    assert_eq!(
        metrics.rows_kernel(),
        unbounded.rows_kernel(),
        "the budget must not evict the join from the kernel path"
    );
    let peak = metrics.peak_tracked_bytes();
    assert!(
        peak <= PEAK_BOUND,
        "peak {peak} exceeds ~1.02x of the {INNER_BUDGET}-byte budget"
    );
}

/// A join+distinct whose probe side contains one malformed row (missing
/// the projected field) *late* in the input — the error is raised after
/// the build side has already spilled under a tiny budget.
fn poisoned_plan() -> LogicalExpr {
    let left: Bag = (0..800)
        .map(|i| {
            if i == 777 {
                Value::Struct(StructValue::new(vec![("id", Value::Int((i % 97) as i64))]).unwrap())
            } else {
                person((i % 97) as i64, &format!("p{i}"), (i % 199) as i64)
            }
        })
        .collect();
    let right: Bag = (0..200)
        .map(|i| person((i % 97) as i64, &format!("r{i}"), (i % 53) as i64))
        .collect();
    LogicalExpr::Distinct(Box::new(
        LogicalExpr::Join {
            left: Box::new(LogicalExpr::Data(left).bind("x")),
            right: Box::new(LogicalExpr::Data(right).bind("y")),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        }
        .map_project(ScalarExpr::binary(
            ScalarOp::Add,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::var_field("y", "salary"),
        )),
    ))
}

#[test]
fn errors_after_spill_match_the_unbounded_error_exactly() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&poisoned_plan()).expect("lowers");
    let unbounded = evaluate_physical_with(
        &physical,
        &resolved,
        &PipelineMetrics::new(),
        opts(MemBudget::Unbounded),
    )
    .expect_err("missing field errors");
    let tiny_metrics = PipelineMetrics::new();
    let tiny = evaluate_physical_with(
        &physical,
        &resolved,
        &tiny_metrics,
        opts(MemBudget::Bytes(TINY_BUDGET)),
    )
    .expect_err("missing field errors under budget too");
    assert_eq!(
        tiny.to_string(),
        unbounded.to_string(),
        "identical error text"
    );
    assert!(
        tiny_metrics.bytes_spilled() > 0,
        "the error must have been raised after spilling began"
    );
}

/// Pins the PR 8 bound documented in ROADMAP ("known bounds"): once a
/// distinct's seen-set trips the budget, its **residual emission order
/// is partition-major** — the values emitted before the trip keep
/// first-occurrence order, the rest come grouped by spill partition, not
/// in input order.  Bag answers are order-insensitive so this is
/// invisible to answer equality, but order-sensitive consumers (e.g.
/// error tests that rely on which row a pipeline reaches first) must pin
/// against the multiset, never the spilled sequence.
#[test]
fn spilled_distinct_residual_emission_is_partition_major_not_input_order() {
    let resolved = ResolvedExecs::default();
    // 1024 distinct values: several pipeline batches, so the budget trip
    // (acted on at batch boundaries) leaves a real residual to spill.
    let input: Vec<Value> = (0..1024).map(Value::Int).collect();
    let physical = lower(&LogicalExpr::Distinct(Box::new(LogicalExpr::Data(
        input.iter().cloned().collect::<Bag>(),
    ))))
    .expect("lowers");
    let first_occurrence: Vec<Value> = (0..1024).map(Value::Int).collect();

    let unbounded = evaluate_physical_with(
        &physical,
        &resolved,
        &PipelineMetrics::new(),
        opts(MemBudget::Unbounded),
    )
    .expect("unbounded evaluates");
    // In memory, emission order IS first-occurrence order.
    assert_eq!(unbounded.as_slice(), first_occurrence.as_slice());

    // The spill partition router is seeded per cursor, so the residual
    // order varies run to run; every run must satisfy the bound, and at
    // least one must visibly depart from input order.
    let mut any_departed = false;
    for run in 0..5 {
        let metrics = PipelineMetrics::new();
        let spilled = evaluate_physical_with(
            &physical,
            &resolved,
            &metrics,
            opts(MemBudget::Bytes(TINY_BUDGET)),
        )
        .expect("budgeted evaluates");
        assert!(
            metrics.bytes_spilled() > 0,
            "run {run}: the distinct must actually spill"
        );
        // Multiset identity and exactly-once emission: the per-partition
        // seen runs must prevent re-emission across partitions.
        assert_eq!(spilled, unbounded, "run {run}: answers must match");
        assert_eq!(spilled.len(), first_occurrence.len(), "run {run}");
        // The pre-trip prefix preserves first-occurrence order: the
        // emitted sequence starts with some prefix of the input order.
        let emitted = spilled.as_slice();
        let prefix = emitted
            .iter()
            .zip(&first_occurrence)
            .take_while(|(a, b)| a == b)
            .count();
        assert!(
            prefix < emitted.len() || !any_departed,
            "run {run}: a fully in-order spilled emission is possible but \
             must not be relied on"
        );
        if emitted[prefix..] != first_occurrence[prefix..] {
            any_departed = true;
        }
    }
    assert!(
        any_departed,
        "five spilled runs over 1024 values never departed from input order — \
         either the router became deterministic-in-order (update the \
         partition-major docs) or the budget never tripped"
    );
}

// ---------------------------------------------------------------------
// The buffered inner sides (nested-loop and merge-tuples joins) and
// correlated sub-queries share the breakers' budget: ~10x-budget inputs
// must complete with identical answers and a bounded tracked peak.
// ---------------------------------------------------------------------

/// A non-equi join (lowers to a nested loop) whose right side is ~10x
/// [`INNER_BUDGET`] bytes, so most of the inner buffer lands in the
/// spilled tail and every left row replays it from disk.
fn nested_loop_plan(left_rows: usize, right_rows: usize) -> LogicalExpr {
    let left: Bag = (0..left_rows)
        .map(|i| person(95 + (i % 5) as i64, &format!("L{i}"), i as i64))
        .collect();
    let right: Bag = (0..right_rows)
        .map(|i| person((i % 101) as i64, &format!("R{}", i % 17), (i % 211) as i64))
        .collect();
    LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(left).bind("x")),
        right: Box::new(LogicalExpr::Data(right).bind("y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Lt,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::StructLit(vec![
        ("name".into(), ScalarExpr::var_field("y", "name")),
        (
            "total".into(),
            ScalarExpr::binary(
                ScalarOp::Add,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::var_field("y", "salary"),
            ),
        ),
    ]))
}

#[test]
fn nested_loop_inner_buffer_spills_within_the_peak_bound_and_matches() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&nested_loop_plan(16, 4_500)).expect("lowers");

    let unbounded = PipelineMetrics::new();
    let expected =
        evaluate_physical_with(&physical, &resolved, &unbounded, opts(MemBudget::Unbounded))
            .expect("unbounded evaluates");
    assert_eq!(unbounded.bytes_spilled(), 0);
    assert!(
        !expected.is_empty(),
        "the non-equi predicate must match pairs"
    );

    let metrics = PipelineMetrics::new();
    let out = evaluate_physical_with(
        &physical,
        &resolved,
        &metrics,
        opts(MemBudget::Bytes(INNER_BUDGET)),
    )
    .expect("budgeted evaluates");
    assert_eq!(
        out, expected,
        "the spilled inner must not change the answer"
    );
    assert!(
        metrics.bytes_spilled() > 0,
        "a ~10x-budget inner side must spill"
    );
    let peak = metrics.peak_tracked_bytes();
    assert!(peak > 0, "bounded budgets track bytes");
    assert!(
        peak <= PEAK_BOUND,
        "peak {peak} exceeds ~1.02x of the \
         {INNER_BUDGET}-byte budget"
    );
}

/// A source-style merge-tuples join whose right side is ~10x the budget;
/// its inner buffer holds raw `Value`s rather than frame rows but runs
/// through the same admit/seal/tail-pass machinery.
fn merge_tuples_plan(left_rows: usize, right_rows: usize) -> LogicalExpr {
    let left: Bag = (0..left_rows)
        .map(|i| person((i % 13) as i64, &format!("L{i}"), i as i64))
        .collect();
    let right: Bag = (0..right_rows)
        .map(|i| person((i % 101) as i64, &format!("R{}", i % 17), (i % 211) as i64))
        .collect();
    LogicalExpr::SourceJoin {
        left: Box::new(LogicalExpr::Data(left)),
        right: Box::new(LogicalExpr::Data(right)),
        on: vec![("id".into(), "id".into())],
    }
}

#[test]
fn merge_tuples_inner_buffer_spills_within_the_peak_bound_and_matches() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&merge_tuples_plan(16, 4_500)).expect("lowers");

    let unbounded = PipelineMetrics::new();
    let expected =
        evaluate_physical_with(&physical, &resolved, &unbounded, opts(MemBudget::Unbounded))
            .expect("unbounded evaluates");
    assert_eq!(unbounded.bytes_spilled(), 0);
    assert!(!expected.is_empty(), "the equi keys must match pairs");

    let metrics = PipelineMetrics::new();
    let out = evaluate_physical_with(
        &physical,
        &resolved,
        &metrics,
        opts(MemBudget::Bytes(INNER_BUDGET)),
    )
    .expect("budgeted evaluates");
    assert_eq!(
        out, expected,
        "the spilled inner must not change the answer"
    );
    assert!(
        metrics.bytes_spilled() > 0,
        "a ~10x-budget inner side must spill"
    );
    let peak = metrics.peak_tracked_bytes();
    assert!(
        peak <= PEAK_BOUND,
        "peak {peak} exceeds ~1.02x of the \
         {INNER_BUDGET}-byte budget"
    );
}

/// A correlated aggregate whose per-outer-row sub-query runs a distinct
/// over ~10x-budget data: the sub-query's seen-set charges the *parent*
/// execution's shared budget, so it must spill — and the parent's
/// tracked peak stays within the same ~1.02x bound.
fn correlated_distinct_plan(outer_rows: usize, inner_rows: usize) -> LogicalExpr {
    let inner: Bag = (0..inner_rows)
        .map(|i| person((i % 397) as i64, &format!("n{i}"), (i % 397) as i64))
        .collect();
    let subplan = LogicalExpr::Distinct(Box::new(
        LogicalExpr::Data(inner)
            .bind("z")
            .filter(ScalarExpr::binary(
                ScalarOp::Lt,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("z", "salary"),
            ))
            .map_project(ScalarExpr::var_field("z", "name")),
    ));
    LogicalExpr::Data(
        (0..outer_rows)
            .map(|i| person(i as i64, &format!("O{i}"), i as i64))
            .collect::<Bag>(),
    )
    .bind("x")
    .map_project(ScalarExpr::StructLit(vec![
        ("name".into(), ScalarExpr::var_field("x", "name")),
        (
            "matches".into(),
            ScalarExpr::Agg(AggKind::Count, Box::new(subplan)),
        ),
    ]))
}

#[test]
fn correlated_subqueries_spill_against_the_parent_budget() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&correlated_distinct_plan(8, 4_000)).expect("lowers");

    let unbounded = PipelineMetrics::new();
    let expected =
        evaluate_physical_with(&physical, &resolved, &unbounded, opts(MemBudget::Unbounded))
            .expect("unbounded evaluates");
    assert_eq!(unbounded.bytes_spilled(), 0);

    let metrics = PipelineMetrics::new();
    let out = evaluate_physical_with(
        &physical,
        &resolved,
        &metrics,
        opts(MemBudget::Bytes(INNER_BUDGET)),
    )
    .expect("budgeted evaluates");
    assert_eq!(
        out, expected,
        "spilled sub-queries must not change the answer"
    );
    assert!(
        metrics.bytes_spilled() > 0,
        "each sub-query's distinct holds ~10x the \
         shared budget and must spill"
    );
    let peak = metrics.peak_tracked_bytes();
    assert!(
        peak <= PEAK_BOUND,
        "peak {peak} exceeds ~1.02x of the \
         {INNER_BUDGET}-byte budget shared with sub-queries"
    );
}

/// A nested-loop join whose left (streamed) side carries one malformed
/// row — missing `id`, so the predicate itself errors — after the right
/// side has already been buffered and spilled.
fn poisoned_nested_loop_plan() -> LogicalExpr {
    let left: Bag = (0..800)
        .map(|i| {
            if i == 177 {
                Value::Struct(StructValue::new(vec![("name", Value::from("broken"))]).unwrap())
            } else {
                // ids far above every right id: the Lt predicate matches
                // nothing, keeping the run cheap.
                person(200 + (i % 5) as i64, &format!("p{i}"), i as i64)
            }
        })
        .collect();
    let right: Bag = (0..1_200)
        .map(|i| person((i % 101) as i64, &format!("r{}", i % 17), (i % 211) as i64))
        .collect();
    LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(left).bind("x")),
        right: Box::new(LogicalExpr::Data(right).bind("y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Lt,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::var_field("x", "name"))
}

#[test]
fn nested_loop_errors_after_spill_match_the_unbounded_error_exactly() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&poisoned_nested_loop_plan()).expect("lowers");
    let unbounded = evaluate_physical_with(
        &physical,
        &resolved,
        &PipelineMetrics::new(),
        opts(MemBudget::Unbounded),
    )
    .expect_err("missing field errors");
    let metrics = PipelineMetrics::new();
    let budgeted = evaluate_physical_with(
        &physical,
        &resolved,
        &metrics,
        opts(MemBudget::Bytes(INNER_BUDGET)),
    )
    .expect_err("missing field errors under budget too");
    assert_eq!(
        budgeted.to_string(),
        unbounded.to_string(),
        "identical error text"
    );
    assert!(
        metrics.bytes_spilled() > 0,
        "the inner buffer spilled before the error"
    );
}

// ---------------------------------------------------------------------
// `distinct` over a union of struct columns: the union hands each
// branch's batches on as they are, so two fused `struct(...)` maps reach
// the distinct as struct columns — hashed and compared in place, built
// only when kept — while a branch that does not fuse hands it rows.  One
// seen-set holds all three forms.
// ---------------------------------------------------------------------

/// `mkdistinct(mkunion(a, b, c))`: `a` and `b` are fused maps declaring
/// the same two fields in opposite orders; `c` is a bare scan (it does
/// not fuse) of the same structs, some with numerically equal floats.
/// `poison` gives `a` a row whose salary is a string (late, past the first
/// batch) and `b` one whose id is: each branch fails on its own row, with
/// its own error.
fn distinct_union_plan(poison: bool) -> LogicalExpr {
    let people = |tag: &str, rows: i64, bad: Option<(i64, &str)>| -> Bag {
        (0..rows)
            .map(|i| {
                let row = person(i % 211, &format!("{tag}{i}"), i % 97);
                match bad {
                    Some((at, poisoned)) if at == i => {
                        let fields = row.as_struct().unwrap().iter().map(|(name, value)| {
                            let value = if name == poisoned {
                                Value::from(format!("poisoned {tag}"))
                            } else {
                                value.clone()
                            };
                            (name.to_owned(), value)
                        });
                        Value::Struct(StructValue::new(fields).unwrap())
                    }
                    _ => row,
                }
            })
            .collect()
    };
    let field = |var: &str, name: &str, op: ScalarOp, k: i64| {
        ScalarExpr::binary(
            op,
            ScalarExpr::var_field(var, name),
            ScalarExpr::constant(k),
        )
    };
    let a = LogicalExpr::Data(people("a", 1_500, poison.then_some((900, "salary"))))
        .bind("x")
        .map_project(ScalarExpr::StructLit(vec![
            ("grp".into(), field("x", "id", ScalarOp::Div, 10)),
            ("pay".into(), field("x", "salary", ScalarOp::Add, 1)),
        ]));
    let b = LogicalExpr::Data(people("b", 1_200, poison.then_some((40, "id"))))
        .bind("y")
        .map_project(ScalarExpr::StructLit(vec![
            ("pay".into(), field("y", "salary", ScalarOp::Add, 1)),
            ("grp".into(), field("y", "id", ScalarOp::Div, 10)),
        ]));
    #[allow(clippy::cast_precision_loss)]
    let c: Bag = (0..600i64)
        .map(|i| {
            let pay = if i % 2 == 0 {
                Value::Float((i % 150) as f64)
            } else {
                Value::Int(i % 150)
            };
            Value::new_struct(vec![("pay", pay), ("grp", Value::Int(i % 25))]).unwrap()
        })
        .collect();
    LogicalExpr::Distinct(Box::new(LogicalExpr::Union(vec![
        a,
        b,
        LogicalExpr::Data(c),
    ])))
}

#[test]
fn distinct_over_a_union_of_struct_columns_matches_the_reference() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&distinct_union_plan(false)).expect("lowers");
    let expected = reference::evaluate_physical(&physical, &resolved).expect("reference");
    // Enough survivors that a few dozen of them trip the small budget
    // inside the first batch.
    assert!(
        expected.len() > 1_000,
        "{} distinct structs",
        expected.len()
    );
    for budget in [MemBudget::Unbounded, MemBudget::Bytes(4096)] {
        let metrics = PipelineMetrics::new();
        let out = evaluate_physical_with(&physical, &resolved, &metrics, opts(budget))
            .expect("evaluates");
        assert_eq!(out, expected, "{budget:?}");
        assert_eq!(
            metrics.rows_materialized(),
            expected.len(),
            "{budget:?}: one kept value per distinct struct"
        );
        assert_eq!(metrics.rows_kernel(), 2_700, "{budget:?}: both maps fuse");
        assert_eq!(
            metrics.bytes_spilled() > 0,
            budget != MemBudget::Unbounded,
            "{budget:?}"
        );
        // A trip stops admission at the struct that caused it, not at the
        // end of its batch: the peak stays within one kept struct (~150
        // bytes) of the budget.
        if let MemBudget::Bytes(bytes) = budget {
            let peak = metrics.peak_tracked_bytes();
            assert!(peak <= bytes + 256, "peak {peak} against {bytes}");
        }
    }

    let poisoned = lower(&distinct_union_plan(true)).expect("lowers");
    let expected = reference::evaluate_physical(&poisoned, &resolved)
        .expect_err("the poisoned rows fail")
        .to_string();
    assert!(expected.contains("poisoned a"), "{expected}: branch order");
    for budget in [MemBudget::Unbounded, MemBudget::Bytes(4096)] {
        let metrics = PipelineMetrics::new();
        let err = evaluate_physical_with(&poisoned, &resolved, &metrics, opts(budget))
            .expect_err("the poisoned rows fail");
        assert_eq!(err.to_string(), expected, "{budget:?}: the first error");
    }
}

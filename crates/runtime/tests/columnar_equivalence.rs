//! Differential tests: the columnar (vectorized-kernel) input form of
//! the operators against the per-row form they fall back to, and both
//! against the reference evaluator.
//!
//! There is no switch between the two: `build()` always tries the
//! columnar batch producers, and the per-row path runs wherever those
//! decline — per batch on irregular input (mixed-type columns, missing
//! fields, would-be errors) and for plans that do not fuse.  A memory
//! budget is *not* such a place: every breaker exists once, charges the
//! budget behind its one admission / build loop, and takes either input
//! form.  The tests pin that: every plan runs once as is and once under a
//! bounded budget too large ever to trip, and both answers must equal the
//! reference evaluator's, with identical breaker metrics
//! (`rows_materialized`, `rows_merged`, `rows_emitted`) *and* identical
//! kernel coverage (`rows_kernel`, `rows_fallback`).  The value-plane
//! edge cases the kernels must preserve are pinned explicitly: NaN under
//! `total_cmp`, null propagation through comparisons and arithmetic,
//! dictionary-column equality for content-equal strings from distinct
//! allocations, empty and all-filtered selections, irregular (mixed-type
//! / missing-field) batches, and error identity between the kernel
//! bail-out path and the reference evaluator.  The vectorized hash join
//! gets its own section: float and NaN keys under `total_cmp`, null keys,
//! dictionary and non-dictionary string keys from distinct allocations,
//! batch-size invariance across the join boundary, and budget parity.

mod common;

use common::random_plan;
use disco_algebra::{lower, LogicalExpr, ScalarExpr, ScalarOp};
use disco_runtime::{
    evaluate_physical_with, reference, MemBudget, PipelineMetrics, PipelineOptions, ResolvedExecs,
};
use disco_value::{Bag, StructValue, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A bounded budget no test input can trip: nothing spills, but every
/// breaker does its budget accounting.
const NEVER_TRIPS: MemBudget = MemBudget::Bytes(usize::MAX / 2);

fn options(mem_budget: MemBudget) -> PipelineOptions {
    PipelineOptions {
        mem_budget,
        ..PipelineOptions::default()
    }
}

/// Runs the plan as is and under the never-tripping budget, asserts both
/// equal the reference evaluator and that the budget cost no kernel
/// coverage, and returns the first run.
fn assert_engines_agree(plan: &LogicalExpr) -> (Bag, PipelineMetrics) {
    let physical = lower(plan).expect("plan lowers");
    let resolved = ResolvedExecs::default();
    let run = |mem_budget| {
        let metrics = PipelineMetrics::new();
        let bag = evaluate_physical_with(&physical, &resolved, &metrics, options(mem_budget))
            .expect("plan evaluates");
        (bag, metrics)
    };
    let (plain, m_plain) = run(MemBudget::default());
    let (budgeted, m_budgeted) = run(NEVER_TRIPS);
    let (_, m_unbounded) = run(MemBudget::Unbounded);
    let expected = reference::evaluate_physical(&physical, &resolved).expect("reference evaluates");
    assert_eq!(
        plain, expected,
        "answer must equal the reference evaluator's"
    );
    assert_eq!(
        budgeted, expected,
        "budget accounting must not change the answer"
    );
    assert_eq!(
        m_plain.rows_materialized(),
        m_budgeted.rows_materialized(),
        "breakers must buffer identical row counts with and without a budget"
    );
    assert_eq!(m_plain.rows_merged(), m_budgeted.rows_merged());
    assert_eq!(m_plain.rows_emitted(), m_budgeted.rows_emitted());
    assert_eq!(m_budgeted.bytes_spilled(), 0, "the budget must never trip");
    assert_eq!(
        (m_budgeted.rows_kernel(), m_budgeted.rows_fallback()),
        (m_unbounded.rows_kernel(), m_unbounded.rows_fallback()),
        "a budget must not cost the kernel path"
    );
    (plain, m_plain)
}

/// Asserts that the plan fails with the reference evaluator's exact error
/// text, reached through the per-batch row fallback.
fn assert_reference_error(plan: &LogicalExpr) {
    let physical = lower(plan).expect("plan lowers");
    let resolved = ResolvedExecs::default();
    let expected =
        reference::evaluate_physical(&physical, &resolved).expect_err("reference errors");
    let metrics = PipelineMetrics::new();
    let err = evaluate_physical_with(
        &physical,
        &resolved,
        &metrics,
        options(MemBudget::Unbounded),
    )
    .expect_err("the plan errors");
    assert_eq!(
        err.to_string(),
        expected.to_string(),
        "identical error text"
    );
    assert!(
        metrics.rows_fallback() > 0,
        "the failing batch must have bailed to the row path"
    );
}

fn row(fields: Vec<(&str, Value)>) -> Value {
    Value::Struct(StructValue::new(fields).expect("distinct field names"))
}

fn people(rows: i64) -> Bag {
    (0..rows)
        .map(|i| {
            row(vec![
                ("id", Value::Int(i % 16)),
                ("name", Value::from(format!("p-{}", i % 16))),
                ("salary", Value::Int((i * 37) % 100)),
            ])
        })
        .collect()
}

fn salary_gt(limit: i64) -> ScalarExpr {
    ScalarExpr::binary(
        ScalarOp::Gt,
        ScalarExpr::var_field("x", "salary"),
        ScalarExpr::constant(limit),
    )
}

/// **Guards a hazard only this design has**: a spine has two kinds of
/// input now — row values it decodes, and the columns a relational
/// wrapper answered with, read in place.  Over the seeded random plans a
/// column-faced `ExecOutcome::Rows` must give the bag, the breaker
/// counters and the kernel coverage of its row-built twin (and of the
/// reference evaluator).
#[test]
fn a_column_faced_answer_evaluates_as_its_row_built_twin() {
    let mut kernel_rows = 0;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xC01A + seed);
        let (plan, by_rows, by_columns) = common::resolved_twins(&random_plan(&mut rng));
        let physical = lower(&plan).expect("plan lowers");
        let run = |resolved: &ResolvedExecs| {
            let metrics = PipelineMetrics::new();
            let bag = evaluate_physical_with(
                &physical,
                resolved,
                &metrics,
                options(MemBudget::Unbounded),
            )
            .expect("plan evaluates");
            (bag, metrics)
        };
        let (rows, m_rows) = run(&by_rows);
        let (columns, m_columns) = run(&by_columns);
        let expected = reference::evaluate_physical(&physical, &by_columns).expect("reference");
        assert_eq!(columns, expected, "seed {seed}: {plan}");
        assert_eq!(columns, rows, "seed {seed}: {plan}");
        let counters = |m: &PipelineMetrics| {
            [
                m.rows_kernel(),
                m.rows_fallback(),
                m.rows_materialized(),
                m.rows_merged(),
                m.rows_emitted(),
            ]
        };
        assert_eq!(
            counters(&m_columns),
            counters(&m_rows),
            "seed {seed}: {plan}"
        );
        kernel_rows += m_columns.rows_kernel();
    }
    assert!(kernel_rows > 0, "the corpus must reach the kernels");
}

#[test]
fn columnar_and_row_cursors_match_the_reference_on_random_plans() {
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(0xC01A + seed);
        let plan = random_plan(&mut rng);
        assert_engines_agree(&plan);
    }
}

#[test]
fn e9_pipelines_run_fully_kernel_covered() {
    let rows = 500i64;
    let filter_project = LogicalExpr::Data(people(rows))
        .bind("x")
        .filter(salary_gt(50))
        .map_project(ScalarExpr::var_field("x", "name"));
    let (_, metrics) = assert_engines_agree(&filter_project);
    assert_eq!(
        metrics.rows_kernel(),
        rows as usize,
        "every scanned row vectorized"
    );
    assert_eq!(metrics.rows_fallback(), 0, "no per-row fallback");

    let distinct = LogicalExpr::Distinct(Box::new(
        LogicalExpr::Data(people(rows))
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "name")),
    ));
    let (answer, metrics) = assert_engines_agree(&distinct);
    assert_eq!(answer.len(), 16);
    assert_eq!(metrics.rows_kernel(), rows as usize);
    assert_eq!(metrics.rows_fallback(), 0);
}

#[test]
fn nan_ordering_matches_total_cmp() {
    let bag: Bag = [
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(1.0),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Int(2),
        Value::Null,
    ]
    .into_iter()
    .map(|v| row(vec![("v", v)]))
    .collect();
    // Under `total_cmp` NaN sorts above +inf, and -0.0 below 0.0.
    let gt_zero = LogicalExpr::Data(bag.clone())
        .bind("x")
        .filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::var_field("x", "v"),
            ScalarExpr::Const(Value::Float(0.0)),
        ));
    let (answer, _) = assert_engines_agree(&gt_zero);
    assert_eq!(answer.len(), 4, "NaN, +inf, 1.0 and Int(2) exceed 0.0");

    // NaN == NaN and -0.0 != 0.0 under the value plane's equality.
    let eq_nan = LogicalExpr::Data(bag).bind("x").filter(ScalarExpr::binary(
        ScalarOp::Eq,
        ScalarExpr::var_field("x", "v"),
        ScalarExpr::Const(Value::Float(f64::NAN)),
    ));
    let (answer, _) = assert_engines_agree(&eq_nan);
    assert_eq!(answer.len(), 1);
}

#[test]
fn null_masks_propagate_through_comparisons_and_arithmetic() {
    let bag: Bag = (0..50)
        .map(|i| {
            let v = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            };
            row(vec![("salary", v)])
        })
        .collect();
    // Ordered comparisons on null are false; nulls must never survive.
    let cmp = LogicalExpr::Data(bag.clone())
        .bind("x")
        .filter(salary_gt(-1));
    let (answer, _) = assert_engines_agree(&cmp);
    assert_eq!(answer.len(), 40, "the 10 null salaries compare false");

    // Arithmetic on null yields null, and `Null == Null` is true, so the
    // null rows survive this self-comparison — in both modes.
    let arith = LogicalExpr::Data(bag).bind("x").filter(ScalarExpr::binary(
        ScalarOp::Eq,
        ScalarExpr::binary(
            ScalarOp::Add,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::constant(0i64),
        ),
        ScalarExpr::var_field("x", "salary"),
    ));
    let (answer, _) = assert_engines_agree(&arith);
    assert_eq!(answer.len(), 50, "null + 0 is null and Null == Null holds");
}

#[test]
fn dictionary_columns_dedup_content_equal_strings_from_distinct_allocations() {
    // Every row allocates its own string: equal content, different Arcs.
    // The dictionary must code by content, exactly like `Value` equality.
    let bag: Bag = (0..300)
        .map(|i| row(vec![("name", Value::from(format!("dup-{}", i % 7)))]))
        .collect();
    let plan = LogicalExpr::Distinct(Box::new(
        LogicalExpr::Data(bag)
            .bind("x")
            .map_project(ScalarExpr::var_field("x", "name")),
    ));
    let (answer, metrics) = assert_engines_agree(&plan);
    assert_eq!(answer.len(), 7);
    assert_eq!(
        metrics.rows_materialized(),
        7,
        "one seen-set copy per distinct value"
    );
    assert_eq!(metrics.rows_kernel(), 300);
}

#[test]
fn empty_and_all_filtered_selections_are_sound() {
    let empty = LogicalExpr::Data(Bag::new())
        .bind("x")
        .filter(salary_gt(0))
        .map_project(ScalarExpr::var_field("x", "name"));
    let (answer, metrics) = assert_engines_agree(&empty);
    assert!(answer.is_empty());
    assert_eq!(metrics.rows_kernel() + metrics.rows_fallback(), 0);

    let all_filtered = LogicalExpr::Data(people(200))
        .bind("x")
        .filter(salary_gt(1_000_000))
        .map_project(ScalarExpr::var_field("x", "name"));
    let (answer, metrics) = assert_engines_agree(&all_filtered);
    assert!(answer.is_empty());
    assert_eq!(
        metrics.rows_kernel(),
        200,
        "all-filtered batches still vectorize"
    );
    assert_eq!(metrics.rows_emitted(), 0);
}

#[test]
fn mixed_type_columns_and_cross_type_comparisons_agree() {
    // `salary` mixes ints, floats and strings: the column decodes as
    // boxed values and every comparison runs element-wise through
    // `eval_binary` (`total_cmp` is a total order across types).
    let bag: Bag = (0..60)
        .map(|i| {
            let v = match i % 3 {
                0 => Value::Int(i),
                1 => Value::Float(i as f64 + 0.5),
                _ => Value::from(format!("s{i}")),
            };
            row(vec![("salary", v)])
        })
        .collect();
    let plan = LogicalExpr::Data(bag).bind("x").filter(salary_gt(10));
    assert_engines_agree(&plan);
}

#[test]
fn missing_fields_report_the_row_paths_exact_error() {
    // Row 3 lacks `salary`: the kernel path must refuse the batch and let
    // the row evaluator produce its precise error.
    let bag: Bag = (0..5)
        .map(|i| {
            if i == 3 {
                row(vec![("id", Value::Int(i))])
            } else {
                row(vec![("id", Value::Int(i)), ("salary", Value::Int(i))])
            }
        })
        .collect();
    assert_reference_error(&LogicalExpr::Data(bag).bind("x").filter(salary_gt(0)));
}

#[test]
fn division_by_zero_bails_to_the_row_paths_exact_error() {
    let bag: Bag = (0..10)
        .map(|i| row(vec![("d", Value::Int(i % 3))]))
        .collect();
    assert_reference_error(
        &LogicalExpr::Data(bag)
            .bind("x")
            .map_project(ScalarExpr::binary(
                ScalarOp::Div,
                ScalarExpr::constant(100i64),
                ScalarExpr::var_field("x", "d"),
            )),
    );
}

#[test]
fn integer_overflow_bails_to_the_row_paths_exact_error() {
    let bag: Bag = [1, 2, i64::MAX, 3]
        .into_iter()
        .map(|v| row(vec![("v", Value::Int(v))]))
        .collect();
    for op in [ScalarOp::Add, ScalarOp::Mul] {
        assert_reference_error(&LogicalExpr::Data(bag.clone()).bind("x").map_project(
            ScalarExpr::binary(
                op,
                ScalarExpr::var_field("x", "v"),
                ScalarExpr::constant(2i64),
            ),
        ));
    }
}

/// An equi-join of `left` and `right` on field `key` of both sides, with
/// a compound map over the pair — the shape the vectorized join fuses.
fn join_on(left: Bag, right: Bag, key: &str) -> LogicalExpr {
    LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(left).bind("x")),
        right: Box::new(LogicalExpr::Data(right).bind("y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", key),
            ScalarExpr::var_field("y", key),
        )),
    }
    .map_project(ScalarExpr::StructLit(vec![
        ("l".into(), ScalarExpr::var_field("x", key)),
        ("r".into(), ScalarExpr::var_field("y", key)),
    ]))
}

#[test]
fn join_vectorizes_build_and_probe_rows() {
    let plan = join_on(people(400), people(40), "id");
    let (answer, metrics) = assert_engines_agree(&plan);
    assert_eq!(answer.len(), 400 * 40 / 16, "~25 matches per probe row");
    assert_eq!(
        metrics.rows_kernel(),
        440,
        "every build and probe row vectorized"
    );
    assert_eq!(metrics.rows_fallback(), 0);
    assert_eq!(metrics.rows_materialized(), 40, "build side only");
}

#[test]
fn join_float_and_nan_keys_match_under_total_cmp() {
    // NaN == NaN and -0.0 != 0.0 under the value plane's total order; the
    // batched hasher and the row path must group keys identically.
    let keys = [
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(1.5),
        Value::Int(1),
    ];
    let side = |reps: usize| -> Bag {
        keys.iter()
            .cycle()
            .take(keys.len() * reps)
            .map(|v| row(vec![("id", v.clone())]))
            .collect()
    };
    let plan = join_on(side(3), side(2), "id");
    let (answer, metrics) = assert_engines_agree(&plan);
    // Every key matches only itself: 6 distinct keys × 3 × 2 pairs.
    assert_eq!(answer.len(), 36);
    // The key column mixes floats and ints, so it decodes to boxed values
    // and every batch of the fused join runs on the exact row path.
    assert!(metrics.rows_fallback() > 0);
}

#[test]
fn join_null_keys_match_null_keys() {
    // `Null == Null` holds in the value plane, so null keys join with
    // null keys — the kernel path must not mask them out.
    let side = |rows: i64| -> Bag {
        (0..rows)
            .map(|i| {
                let v = if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 3)
                };
                row(vec![("id", v)])
            })
            .collect()
    };
    let plan = join_on(side(40), side(20), "id");
    assert_engines_agree(&plan);
}

#[test]
fn join_string_keys_hash_by_content_across_allocations() {
    // Build and probe keys come from distinct allocations (and distinct
    // dictionaries); low-cardinality sides dictionary-encode while the
    // high-cardinality probe may not — grouping must stay content-based.
    let dict_side: Bag = (0..120)
        .map(|i| row(vec![("id", Value::from(format!("key-{}", i % 6)))]))
        .collect();
    let wide_side: Bag = (0..90)
        .map(|i| row(vec![("id", Value::from(format!("key-{}", i % 45)))]))
        .collect();
    let plan = join_on(wide_side, dict_side, "id");
    let (answer, metrics) = assert_engines_agree(&plan);
    // Shared keys are key-0..key-5: each appears 2× left and 20× right.
    assert_eq!(answer.len(), 6 * 2 * 20);
    assert_eq!(metrics.rows_kernel(), 210, "both sides stay vectorized");
}

#[test]
fn join_answers_survive_any_batch_size_across_the_boundary() {
    let plan = join_on(people(333), people(77), "id");
    let physical = lower(&plan).expect("plan lowers");
    let resolved = ResolvedExecs::default();
    let mut reference: Option<(Bag, usize, usize)> = None;
    for batch_rows in [1usize, 13, 256, 4096] {
        let metrics = PipelineMetrics::new();
        let opts = PipelineOptions {
            batch_rows,
            ..options(MemBudget::default())
        };
        let bag =
            evaluate_physical_with(&physical, &resolved, &metrics, opts).expect("plan evaluates");
        let snapshot = (bag, metrics.rows_materialized(), metrics.rows_emitted());
        match &reference {
            None => reference = Some(snapshot),
            Some(expected) => assert_eq!(
                expected, &snapshot,
                "batch_rows={batch_rows} must not change the join's behaviour"
            ),
        }
    }
}

#[test]
fn join_plans_agree_across_breaker_forms() {
    // The deep-pipeline shape (filtered build input, compound map,
    // distinct sink) exercises the columnar spine, the vectorized build
    // and the paired probe together.
    let joined = LogicalExpr::Join {
        left: Box::new(
            LogicalExpr::Data(people(600))
                .bind("x")
                .filter(salary_gt(30)),
        ),
        right: Box::new(LogicalExpr::Data(people(60)).bind("y")),
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
    let plan = LogicalExpr::Distinct(Box::new(joined));
    let physical = lower(&plan).expect("plan lowers");
    let resolved = ResolvedExecs::default();
    let mut reference: Option<(Bag, usize)> = None;
    for mem_budget in [MemBudget::Unbounded, NEVER_TRIPS] {
        let metrics = PipelineMetrics::new();
        let bag = evaluate_physical_with(&physical, &resolved, &metrics, options(mem_budget))
            .expect("plan evaluates");
        let snapshot = (bag, metrics.rows_materialized());
        match &reference {
            None => reference = Some(snapshot),
            Some(expected) => assert_eq!(
                expected, &snapshot,
                "{mem_budget:?} must match the unbudgeted columnar run"
            ),
        }
    }
}

#[test]
fn join_key_errors_are_identical_across_breaker_forms() {
    // Probe row 7 lacks the key field: every engine configuration must
    // surface the row evaluator's exact error.
    let probe: Bag = (0..20)
        .map(|i| {
            if i == 7 {
                row(vec![("other", Value::Int(i))])
            } else {
                row(vec![("id", Value::Int(i % 4))])
            }
        })
        .collect();
    let plan = join_on(probe, people(40), "id");
    let physical = lower(&plan).expect("plan lowers");
    let resolved = ResolvedExecs::default();
    let mut reference: Option<String> = None;
    for mem_budget in [MemBudget::Unbounded, NEVER_TRIPS] {
        let opts = options(mem_budget);
        let err = evaluate_physical_with(&physical, &resolved, &PipelineMetrics::new(), opts)
            .expect_err("missing key field errors");
        let text = err.to_string();
        match &reference {
            None => reference = Some(text),
            Some(expected) => assert_eq!(
                expected, &text,
                "{mem_budget:?} must report identical error text"
            ),
        }
    }
}

/// Runs `plan` at batch sizes from 1 to 4096: every size must give the
/// reference evaluator's answer and the same breaker metrics.
fn assert_batch_size_invariant(plan: &LogicalExpr) {
    let physical = lower(plan).expect("plan lowers");
    let resolved = ResolvedExecs::default();
    let expected = reference::evaluate_physical(&physical, &resolved).expect("reference evaluates");
    let mut reference: Option<(usize, usize, usize)> = None;
    for batch_rows in [1usize, 7, 64, 4096] {
        let metrics = PipelineMetrics::new();
        let opts = PipelineOptions {
            batch_rows,
            ..options(MemBudget::default())
        };
        let bag =
            evaluate_physical_with(&physical, &resolved, &metrics, opts).expect("plan evaluates");
        assert_eq!(
            bag, expected,
            "batch_rows={batch_rows}: the reference answer"
        );
        let snapshot = (
            metrics.rows_materialized(),
            metrics.rows_merged(),
            metrics.rows_emitted(),
        );
        match &reference {
            None => reference = Some(snapshot),
            Some(expected) => assert_eq!(
                expected, &snapshot,
                "batch_rows={batch_rows} must not change observable behaviour"
            ),
        }
    }
}

#[test]
fn batch_size_does_not_change_answers_or_metrics() {
    assert_batch_size_invariant(&LogicalExpr::Distinct(Box::new(
        LogicalExpr::Data(people(333))
            .bind("x")
            .filter(salary_gt(20))
            .map_project(ScalarExpr::var_field("x", "name")),
    )));
}

#[test]
fn batch_size_does_not_change_a_nested_loop_join() {
    // A non-equi predicate lowers to a nested loop; its unprojected pairs
    // are merged at the sink.
    assert_batch_size_invariant(&LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(people(50)).bind("x")),
        right: Box::new(LogicalExpr::Data(people(13)).bind("y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Lt,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::var_field("y", "salary"),
        )),
    });
}

#[test]
fn batch_size_does_not_change_a_merge_tuples_join() {
    // A mediator-side `SourceJoin` runs as the merge-tuples join.
    assert_batch_size_invariant(&LogicalExpr::SourceJoin {
        left: Box::new(LogicalExpr::Data(people(60))),
        right: Box::new(LogicalExpr::Data(people(9))),
        on: vec![("id".into(), "id".into())],
    });
}

#[test]
fn batch_size_does_not_change_a_flatten() {
    // Bags of 0 to 9 elements, lists, and rows that pass through: the
    // expansions straddle every batch size's boundaries.
    let rows: Bag = (0..120i64)
        .map(|i| match i % 5 {
            0 => Value::Int(i),
            1 => Value::List((0..i % 4).map(Value::Int).collect::<Vec<_>>().into()),
            _ => Value::Bag((0..i % 10).map(|j| Value::Int(i * 10 + j)).collect()),
        })
        .collect();
    assert_batch_size_invariant(&LogicalExpr::Flatten(Box::new(LogicalExpr::Data(rows))));
}

/// **Guards a hazard only a one-pass struct hash has**: a `distinct` hashes
/// a kernel's struct columns in field-name order and a per-row struct in
/// the same order, so the same struct built as `struct(a: …, b: …)` on one
/// path and as `struct(b: …, a: …)` on the other must meet in one
/// seen-set — in memory, and after a 64 KiB budget has spilled it.  Half
/// of each branch's structs are also in the other branch.
#[test]
fn distinct_meets_a_struct_built_in_either_field_order_on_either_path() {
    let rows = 1500i64;
    let people = |ids: std::ops::Range<i64>| -> Bag {
        ids.map(|i| {
            row(vec![
                ("id", Value::Int(i)),
                ("name", Value::from(format!("p-{}", i % 7))),
            ])
        })
        .collect()
    };
    // `struct(a: x.id, b: x.name)` with its fields declared in `order`.
    let pair = |order: [&str; 2], per_row: bool| {
        let field = |out: &str| {
            let read = ScalarExpr::var_field("x", if out == "a" { "id" } else { "name" });
            let value = if per_row {
                // No kernel compiles a call: this struct is built per row.
                ScalarExpr::Call("coalesce".into(), vec![read])
            } else {
                read
            };
            (out.into(), value)
        };
        ScalarExpr::StructLit(order.map(field).to_vec())
    };
    for (kernel_order, row_order) in [(["a", "b"], ["b", "a"]), (["b", "a"], ["a", "b"])] {
        let kernel = LogicalExpr::Data(common::column_faced(&people(0..rows)))
            .bind("x")
            .map_project(pair(kernel_order, false));
        let per_row = LogicalExpr::Data(people(rows / 2..rows + rows / 2))
            .bind("x")
            .map_project(pair(row_order, true));
        let plan = LogicalExpr::Distinct(Box::new(LogicalExpr::Union(vec![kernel, per_row])));
        let physical = lower(&plan).expect("plan lowers");
        let resolved = ResolvedExecs::default();
        let expected = reference::evaluate_physical(&physical, &resolved).expect("reference");
        assert_eq!(expected.len(), (rows + rows / 2) as usize);
        for mem_budget in [MemBudget::Unbounded, MemBudget::Bytes(64 * 1024)] {
            let metrics = PipelineMetrics::new();
            let answer =
                evaluate_physical_with(&physical, &resolved, &metrics, options(mem_budget))
                    .expect("plan evaluates");
            let case = format!("kernel {kernel_order:?}, per row {row_order:?}, {mem_budget:?}");
            assert_eq!(answer, expected, "{case}");
            assert_eq!(metrics.rows_kernel(), rows as usize, "{case}");
            assert_eq!(
                metrics.bytes_spilled() > 0,
                mem_budget != MemBudget::Unbounded,
                "{case}: the budget spills, nothing else does"
            );
        }
    }
}

/// **Guards a hazard only in-place narrowing has**: over a column-faced
/// bag, a spine whose tail hands rows on keeps the survivors' bag
/// elements (`at`) index for index with its selection, and an integer
/// comparison compacts both in one pass.  Typed filters under a hash
/// join's key sides (no map: the join hands on whole rows) and under a
/// `distinct` of whole rows must give the reference evaluator's answer and
/// the kernel coverage of their row-built twins.
#[test]
fn a_typed_filter_narrows_the_rows_it_hands_on() {
    let salary_over = |var: &str, limit: i64| {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::var_field(var, "salary"),
            ScalarExpr::constant(limit),
        )
    };
    let plans = |faced: &dyn Fn(Bag) -> Bag| {
        let left = LogicalExpr::Data(faced(people(1200)))
            .bind("x")
            .filter(salary_over("x", 80));
        let right = LogicalExpr::Data(faced(people(600)))
            .bind("y")
            .filter(ScalarExpr::binary(
                ScalarOp::Le,
                ScalarExpr::constant(50i64),
                ScalarExpr::var_field("y", "salary"),
            ));
        [
            LogicalExpr::Join {
                left: Box::new(left),
                right: Box::new(right),
                predicate: Some(ScalarExpr::binary(
                    ScalarOp::Eq,
                    ScalarExpr::var_field("x", "id"),
                    ScalarExpr::var_field("y", "id"),
                )),
            },
            LogicalExpr::Distinct(Box::new(
                LogicalExpr::Data(faced(people(3000)))
                    .bind("x")
                    .filter(salary_over("x", 60)),
            )),
        ]
    };
    let by_columns = plans(&|bag| common::column_faced(&bag));
    let by_rows = plans(&|bag| bag);
    for (plan, twin) in by_columns.iter().zip(&by_rows) {
        let (answer, metrics) = assert_engines_agree(plan);
        let (twin_answer, twin_metrics) = assert_engines_agree(twin);
        assert!(!answer.is_empty(), "{plan}");
        assert_eq!(answer, twin_answer, "{plan}");
        assert_eq!(
            (metrics.rows_kernel(), metrics.rows_fallback()),
            (twin_metrics.rows_kernel(), twin_metrics.rows_fallback()),
            "{plan}"
        );
        assert_eq!(metrics.rows_fallback(), 0, "{plan}: every batch vectorized");
    }
}

//! Differential tests: the streaming cursor engine against the
//! bag-at-a-time reference evaluator (`disco_runtime::reference`), over
//! seeded randomized plans.
//!
//! Four claims are pinned here:
//!
//! 1. **Full evaluation**: for random pipelines (filter, map, project,
//!    hash/nested-loop join, union, distinct, aggregates) the streaming
//!    engine under its default options — the one build-side rule, the
//!    smaller input by final cardinality — is multiset-equal to the
//!    reference evaluator.
//! 2. **Build-side selection**: forcing the hash-join build side to
//!    either input yields identical answers, and `Auto` buffers the
//!    smaller input.
//! 3. **Partial evaluation**: with random subsets of sources unavailable,
//!    the streaming path produces the *identical* `Answer` data and
//!    residual plan as the seed materializing path.
//! 4. **Metrics**: `PipelineMetrics::merge` sums counts exactly, and the
//!    hidden `PipelineOptions::threads` compatibility field changes
//!    neither the answer nor any counter.

mod common;

use common::{
    person, random_branch, random_partial_scenario, random_people, random_plan, stats_for,
};
use disco_algebra::{lower, LogicalExpr, ScalarExpr, ScalarOp};
use disco_runtime::{
    evaluate_physical, evaluate_physical_with, partial_evaluate, partial_evaluate_reference,
    reference, BuildSide, ExecKey, ExecOutcome, MemBudget, PipelineMetrics, PipelineOptions,
    ResolvedExecs,
};
use disco_value::Bag;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn streaming_engine_matches_reference_on_random_plans() {
    let resolved = ResolvedExecs::default();
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED + seed);
        let plan = random_plan(&mut rng);
        let physical = lower(&plan).expect("plan lowers");
        let streamed = evaluate_physical(&physical, &resolved).expect("streaming evaluates");
        let reference =
            reference::evaluate_physical(&physical, &resolved).expect("reference evaluates");
        assert_eq!(
            streamed, reference,
            "seed {seed}: streaming and reference answers must be multiset-equal for {physical}"
        );
    }
}

/// The equi-join plan over two bags; `lower` picks `HashJoin` for it.
fn equi_join_plan(left: Bag, right: Bag) -> LogicalExpr {
    LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(left).bind("x")),
        right: Box::new(LogicalExpr::Data(right).bind("y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::StructLit(vec![
        ("lname".into(), ScalarExpr::var_field("x", "name")),
        ("rname".into(), ScalarExpr::var_field("y", "name")),
    ]))
}

fn evaluate_with_build_side(
    plan: &disco_algebra::PhysicalExpr,
    side: BuildSide,
) -> (Bag, PipelineMetrics) {
    let metrics = PipelineMetrics::new();
    let options = PipelineOptions {
        build_side: side,
        ..PipelineOptions::default()
    };
    let bag = evaluate_physical_with(plan, &ResolvedExecs::default(), &metrics, options)
        .expect("evaluates");
    (bag, metrics)
}

#[test]
fn hash_join_output_is_identical_for_both_build_orientations() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xB51D + seed);
        let left_rows = rng.gen_range(0..40);
        let left = random_people(&mut rng, left_rows, 8);
        let right_rows = rng.gen_range(0..40);
        let right = random_people(&mut rng, right_rows, 8);
        let physical = lower(&equi_join_plan(left, right)).expect("lowers");
        assert!(format!("{physical}").contains("hashjoin"));
        let (build_left, _) = evaluate_with_build_side(&physical, BuildSide::Left);
        let (build_right, _) = evaluate_with_build_side(&physical, BuildSide::Right);
        assert_eq!(
            build_left, build_right,
            "seed {seed}: build-side orientation must not change the answer"
        );
        let (auto, _) = evaluate_with_build_side(&physical, BuildSide::Auto);
        assert_eq!(auto, build_right, "seed {seed}");
    }
}

#[test]
fn auto_build_side_buffers_the_smaller_input() {
    let mut rng = StdRng::seed_from_u64(0xA070);
    let small = random_people(&mut rng, 7, 8);
    let large = random_people(&mut rng, 40, 8);

    // Small input on the left: Auto must build on the left (7 rows), not
    // the conventional right.
    let physical = lower(&equi_join_plan(small.clone(), large.clone())).expect("lowers");
    let (_, metrics) = evaluate_with_build_side(&physical, BuildSide::Auto);
    assert_eq!(metrics.rows_materialized(), small.len());

    // Small input on the right: Auto keeps the right-side build.
    let physical = lower(&equi_join_plan(large.clone(), small.clone())).expect("lowers");
    let (_, metrics) = evaluate_with_build_side(&physical, BuildSide::Auto);
    assert_eq!(metrics.rows_materialized(), small.len());

    // Forcing the large side buffers the large side.
    let (_, metrics) = evaluate_with_build_side(&physical, BuildSide::Left);
    assert_eq!(metrics.rows_materialized(), large.len());
}

#[test]
fn pipeline_behavior_classification_matches_engine_buffering() {
    // The algebra's streaming/breaker classification must agree with what
    // the engine actually buffers: plans built purely from operators
    // classified `Streaming` record zero materialized rows, and any plan
    // containing a breaker records at least one.  This pins
    // `PhysicalExpr::pipeline_behavior` to the cursor implementations so
    // the two cannot silently drift apart.
    use disco_algebra::PipelineBehavior;
    let mut rng = StdRng::seed_from_u64(0xC1A5);
    let plans = vec![
        // streaming-only shapes
        random_branch(&mut rng, "x").map_project(ScalarExpr::var_field("x", "name")),
        LogicalExpr::Union(vec![
            LogicalExpr::Data(random_people(&mut rng, 10, 4)).project(["name"]),
            LogicalExpr::Data(random_people(&mut rng, 10, 4)).project(["name"]),
        ]),
        // breaker-containing shapes
        equi_join_plan(
            random_people(&mut rng, 12, 4),
            random_people(&mut rng, 6, 4),
        ),
        LogicalExpr::Distinct(Box::new(
            random_branch(&mut rng, "x").map_project(ScalarExpr::var_field("x", "name")),
        )),
    ];
    let resolved = ResolvedExecs::default();
    for plan in plans {
        let physical = lower(&plan).expect("lowers");
        let mut streaming_only = true;
        physical.walk(&mut |node| {
            if node.pipeline_behavior() != PipelineBehavior::Streaming {
                streaming_only = false;
            }
        });
        let metrics = PipelineMetrics::new();
        let out =
            evaluate_physical_with(&physical, &resolved, &metrics, PipelineOptions::default())
                .expect("evaluates");
        if streaming_only {
            assert_eq!(
                metrics.rows_materialized(),
                0,
                "streaming-classified plan must buffer nothing: {physical}"
            );
        } else if !out.is_empty() {
            assert!(
                metrics.rows_materialized() > 0,
                "breaker-classified plan must record its buffered rows: {physical}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Partial evaluation: streaming vs. the seed materializing path
// ---------------------------------------------------------------------

#[test]
fn partial_evaluation_matches_reference_on_random_availability() {
    for seed in 0..80u64 {
        let mut rng = StdRng::seed_from_u64(0x9A47 + seed);
        let (plan, resolved) = random_partial_scenario(&mut rng);
        let (data_s, residual_s) = partial_evaluate(
            &plan,
            &resolved,
            &PipelineMetrics::new(),
            PipelineOptions::default(),
        )
        .expect("streaming partial eval");
        let (data_r, residual_r) =
            partial_evaluate_reference(&plan, &resolved).expect("reference partial eval");
        assert_eq!(
            data_s, data_r,
            "seed {seed}: partial answer data must match"
        );
        assert_eq!(
            residual_s, residual_r,
            "seed {seed}: residual plans must be identical"
        );
    }
}

/// **Guards a hazard only this design has**: the data of a partial
/// answer is now, more often than not, column-faced — a relational
/// wrapper's answer substituted into the plan as literal data.  Every
/// random availability scenario must give the same data and the same
/// residual whether the sources that answered did so in rows or in
/// columns.
#[test]
fn partial_evaluation_is_the_same_over_column_faced_answers() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0xFA17 + seed);
        let (plan, resolved) = random_partial_scenario(&mut rng);
        let mut faced = ResolvedExecs::default();
        for stats in resolved.stats() {
            let shipped = LogicalExpr::get(&*stats.extent);
            let key = ExecKey::new(&stats.repository, &stats.extent, &shipped);
            let outcome = match resolved.outcome(&key).expect("inserted") {
                ExecOutcome::Rows(rows) => ExecOutcome::Rows(common::column_faced(rows)),
                other => other.clone(),
            };
            faced.insert(key, outcome, stats.clone());
        }
        let evaluate = |resolved: &ResolvedExecs| {
            partial_evaluate(
                &plan,
                resolved,
                &PipelineMetrics::new(),
                PipelineOptions::default(),
            )
            .expect("partial evaluation")
        };
        let (data, residual) = evaluate(&resolved);
        let (faced_data, faced_residual) = evaluate(&faced);
        assert_eq!(faced_data, data, "seed {seed}: {plan}");
        assert_eq!(faced_residual, residual, "seed {seed}: {plan}");
    }
}

#[test]
fn join_with_unavailable_side_stays_residual_in_both_engines() {
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let available_rows = random_people(&mut rng, 5, 4);
    let mut resolved = ResolvedExecs::default();
    let shipped = LogicalExpr::get("person0");
    resolved.insert(
        ExecKey::new("r0", "person0", &shipped),
        ExecOutcome::Unavailable,
        stats_for("r0", "person0", false, 0),
    );
    let plan = LogicalExpr::Join {
        left: Box::new(shipped.submit("r0", "w0", "person0").bind("x")),
        right: Box::new(LogicalExpr::Data(available_rows).bind("y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::var_field("x", "name"));
    let (data_s, residual_s) = partial_evaluate(
        &plan,
        &resolved,
        &PipelineMetrics::new(),
        PipelineOptions::default(),
    )
    .unwrap();
    let (data_r, residual_r) = partial_evaluate_reference(&plan, &resolved).unwrap();
    assert!(data_s.is_empty());
    assert_eq!(data_s, data_r);
    assert_eq!(residual_s, residual_r);
    assert!(residual_s.is_some(), "the join must stay residual");
}

// ---------------------------------------------------------------------
// Metrics: merging, and the inert `threads` compatibility field
// ---------------------------------------------------------------------

/// The deep-pipeline shape: filter → hash-join → computed projection →
/// distinct.
fn deep_pipeline_plan(left_rows: usize, right_rows: usize) -> LogicalExpr {
    let left: Bag = (0..left_rows)
        .map(|i| person((i % 97) as i64, &format!("p{}", i % 61), (i % 199) as i64))
        .collect();
    let right: Bag = (0..right_rows)
        .map(|i| person((i % 97) as i64, &format!("r{}", i % 13), (i % 53) as i64))
        .collect();
    deep_pipeline_over(left, right, 40)
}

/// The deep-pipeline shape over given bags: `x.salary > min_salary` on
/// the left, an equi-join on `id`, a `struct(name, total)` of each pair,
/// then distinct.
fn deep_pipeline_over(left: Bag, right: Bag, min_salary: i64) -> LogicalExpr {
    LogicalExpr::Distinct(Box::new(
        LogicalExpr::Join {
            left: Box::new(LogicalExpr::Data(left).bind("x").filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::constant(min_salary),
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

/// The deterministic person bag of the deep-pipeline pin: `id` and
/// `name` cycle over 1 024 people, `salary` spreads over 0–999.
fn cycling_people(rows: usize) -> Bag {
    (0..rows as i64)
        .map(|i| person(i % 1024, &format!("person-{}", i % 1024), (i * 37) % 1000))
        .collect()
}

/// What the deep pipeline buffers is pinned: the hash join's build side
/// (its 2 000 right rows) plus the distinct's seen-set (one entry per
/// distinct `struct(name, total)`), the same count whether the breakers
/// stay in memory or spill under a 64 KiB budget.  A change to either
/// breaker's bookkeeping, or to which side builds, moves this number.
#[test]
fn the_deep_pipeline_materializes_a_pinned_row_count_at_any_budget() {
    // 2 000 build rows + 19 015 distinct structs, measured before the
    // pin was written.
    const ROWS_MATERIALIZED: usize = 21_015;
    let resolved = ResolvedExecs::default();
    let rows = 20_000;
    let plan = deep_pipeline_over(cycling_people(rows), cycling_people(rows / 10), 250);
    let physical = lower(&plan).expect("lowers");
    let expected = reference::evaluate_physical(&physical, &resolved).expect("reference evaluates");
    for mem_budget in [MemBudget::Unbounded, MemBudget::Bytes(64 * 1024)] {
        let metrics = PipelineMetrics::new();
        let options = PipelineOptions {
            mem_budget,
            ..PipelineOptions::default()
        };
        let bag =
            evaluate_physical_with(&physical, &resolved, &metrics, options).expect("evaluates");
        assert_eq!(bag, expected, "{mem_budget:?}");
        assert_eq!(
            metrics.rows_materialized(),
            ROWS_MATERIALIZED,
            "{mem_budget:?}"
        );
        assert_eq!(
            metrics.bytes_spilled() > 0,
            mem_budget != MemBudget::Unbounded,
            "{mem_budget:?}"
        );
    }
}

#[test]
fn metrics_merge_sums_counts_exactly() {
    let resolved = ResolvedExecs::default();
    let physical = lower(&deep_pipeline_plan(500, 100)).expect("lowers");
    // Two independent executions counted into two instances...
    let options = PipelineOptions::default();
    let a = PipelineMetrics::new();
    evaluate_physical_with(&physical, &resolved, &a, options).expect("evaluates");
    let b = PipelineMetrics::new();
    evaluate_physical_with(&physical, &resolved, &b, options).expect("evaluates");
    // ...merge to exactly the sum.
    let merged = PipelineMetrics::new();
    merged.merge(&a);
    merged.merge(&b);
    assert_eq!(
        merged.rows_materialized(),
        a.rows_materialized() + b.rows_materialized()
    );
    assert_eq!(merged.rows_merged(), a.rows_merged() + b.rows_merged());
    assert_eq!(merged.rows_emitted(), a.rows_emitted() + b.rows_emitted());
}

#[test]
fn the_hidden_threads_field_changes_neither_answer_nor_counters() {
    // `PipelineOptions::threads` survives only because the benchmark
    // still sets it; whatever it holds, the one combine path runs.
    let resolved = ResolvedExecs::default();
    let physical = lower(&deep_pipeline_plan(1_500, 300)).expect("lowers");
    let run = |threads: usize| {
        let metrics = PipelineMetrics::new();
        let options = PipelineOptions {
            threads,
            ..PipelineOptions::default()
        };
        let bag =
            evaluate_physical_with(&physical, &resolved, &metrics, options).expect("evaluates");
        let counters = [
            metrics.rows_materialized(),
            metrics.rows_merged(),
            metrics.rows_emitted(),
            metrics.rows_kernel(),
        ];
        (bag, counters)
    };
    let expected = run(0);
    assert!(expected.1[0] > 0, "the shape has pipeline breakers");
    for threads in [1usize, 8] {
        assert_eq!(run(threads), expected, "threads: {threads}");
    }
}

//! Regression tests for the hash-based evaluator: `HashJoin`,
//! `MkDistinct` and `NestedLoopJoin` must produce multiset-equal results
//! to their reference strategies, before and after the zero-clone
//! refactor.
//!
//! `HashJoin` is checked against the same logical join forced through
//! `NestedLoopJoin` (the two physical algorithms implement one logical
//! operator), and `MkDistinct` against a naive O(n²) distinct.
//!
//! The last section guards what only a table that keeps its build rows
//! by position has: rows made mid-probe when a pair kernel bails, a
//! payload gathered across build chunks, a table holding both forms,
//! build-insertion order within a key group on either path, and the
//! joins that expand per row.  Each plan runs over literal data and over
//! `exec` answers of rows and of columns, unbounded and under a budget
//! that never trips, against the reference evaluator.  Then the table
//! under a budget that counts: a trip inside a kept batch, and a payload
//! charged in place of the chunks it replaces.

mod common;

use disco_algebra::{lower, LogicalExpr, PhysicalExpr, ScalarExpr, ScalarOp};
use disco_runtime::{
    evaluate_physical, evaluate_physical_with, reference, BuildSide, MemBudget, PipelineMetrics,
    PipelineOptions, ResolvedExecs,
};
use disco_value::{Bag, StructValue, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Rewrites every `HashJoin` in a physical plan into the equivalent
/// `NestedLoopJoin` (same logical predicate, brute-force algorithm).
fn force_nested_loop(plan: &PhysicalExpr) -> PhysicalExpr {
    match plan {
        PhysicalExpr::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let eq = ScalarExpr::binary(ScalarOp::Eq, left_key.clone(), right_key.clone());
            let predicate = match residual {
                Some(r) => ScalarExpr::binary(ScalarOp::And, eq, r.clone()),
                None => eq,
            };
            PhysicalExpr::NestedLoopJoin {
                left: Box::new(force_nested_loop(left)),
                right: Box::new(force_nested_loop(right)),
                predicate: Some(predicate),
            }
        }
        PhysicalExpr::FilterOp { input, predicate } => PhysicalExpr::FilterOp {
            input: Box::new(force_nested_loop(input)),
            predicate: predicate.clone(),
        },
        PhysicalExpr::MapOp { input, projection } => PhysicalExpr::MapOp {
            input: Box::new(force_nested_loop(input)),
            projection: projection.clone(),
        },
        PhysicalExpr::BindOp { var, input } => PhysicalExpr::BindOp {
            var: var.clone(),
            input: Box::new(force_nested_loop(input)),
        },
        PhysicalExpr::MkDistinct(inner) => {
            PhysicalExpr::MkDistinct(Box::new(force_nested_loop(inner)))
        }
        PhysicalExpr::MkUnion(items) => {
            PhysicalExpr::MkUnion(items.iter().map(force_nested_loop).collect())
        }
        other => other.clone(),
    }
}

/// Naive O(n²) distinct used as the reference for the hash-based one.
fn naive_distinct(bag: &Bag) -> Bag {
    let mut kept: Vec<Value> = Vec::new();
    for v in bag {
        if !kept.iter().any(|k| k == v) {
            kept.push(v.clone());
        }
    }
    kept.into_iter().collect()
}

#[test]
fn hash_join_matches_nested_loop_join() {
    let resolved = ResolvedExecs::default();
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let left_rows = rng.gen_range(0..40usize);
        let left = common::random_people(&mut rng, left_rows, 8);
        let right_rows = rng.gen_range(0..40usize);
        let right = common::random_people(&mut rng, right_rows, 8);
        let plan = equi_join_plan(left, right);
        let physical = lower(&plan).expect("lowers");
        let nested = force_nested_loop(&physical);
        assert!(
            format!("{physical}").contains("hashjoin"),
            "seed {seed}: plan must exercise the hash join, got {physical}"
        );
        assert!(format!("{nested}").contains("nljoin"));
        let via_hash = evaluate_physical(&physical, &resolved).expect("hash join evaluates");
        let via_nested = evaluate_physical(&nested, &resolved).expect("nl join evaluates");
        assert_eq!(
            via_hash, via_nested,
            "seed {seed}: hash join and nested-loop join must be multiset-equal"
        );
    }
}

#[test]
fn hash_join_with_residual_matches_nested_loop_join() {
    let resolved = ResolvedExecs::default();
    for seed in 0..15u64 {
        let mut rng = StdRng::seed_from_u64(0xCAFE + seed);
        let left = common::random_people(&mut rng, 30, 6);
        let right = common::random_people(&mut rng, 30, 6);
        let plan = LogicalExpr::Join {
            left: Box::new(LogicalExpr::Data(left).bind("x")),
            right: Box::new(LogicalExpr::Data(right).bind("y")),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::And,
                ScalarExpr::binary(
                    ScalarOp::Eq,
                    ScalarExpr::var_field("x", "id"),
                    ScalarExpr::var_field("y", "id"),
                ),
                ScalarExpr::binary(
                    ScalarOp::Lt,
                    ScalarExpr::var_field("x", "salary"),
                    ScalarExpr::var_field("y", "salary"),
                ),
            )),
        }
        .map_project(ScalarExpr::var_field("x", "name"));
        let physical = lower(&plan).expect("lowers");
        assert!(format!("{physical}").contains("hashjoin"));
        let via_hash = evaluate_physical(&physical, &resolved).unwrap();
        let via_nested = evaluate_physical(&force_nested_loop(&physical), &resolved).unwrap();
        assert_eq!(via_hash, via_nested, "seed {seed}");
    }
}

#[test]
fn distinct_matches_naive_distinct() {
    let resolved = ResolvedExecs::default();
    for seed in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(0xD157 + seed);
        let n_rows = rng.gen_range(0..60usize);
        let rows = common::random_people(&mut rng, n_rows, 5);
        let plan = LogicalExpr::Distinct(Box::new(LogicalExpr::Data(rows.clone())));
        let got = evaluate_physical(&lower(&plan).expect("lowers"), &resolved).unwrap();
        let want = naive_distinct(&rows);
        assert_eq!(got, want, "seed {seed}");
        // Distinct twice is distinct once.
        let twice = LogicalExpr::Distinct(Box::new(plan));
        assert_eq!(
            evaluate_physical(&lower(&twice).expect("lowers"), &resolved).unwrap(),
            want,
            "seed {seed}"
        );
    }
}

#[test]
fn join_output_rows_share_input_storage() {
    // The zero-clone claim, observable through Arc sharing: a joined output
    // row's field values are the *same* Arc allocations as the input rows'.
    let resolved = ResolvedExecs::default();
    let left: Bag = [common::person(1, "Mary", 200)].into_iter().collect();
    let right: Bag = [common::person(1, "Sam", 50)].into_iter().collect();
    let plan = LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(left.clone()).bind("x")),
        right: Box::new(LogicalExpr::Data(right).bind("y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        )),
    }
    .map_project(ScalarExpr::var_field("x", "name"));
    let out = evaluate_physical(&lower(&plan).expect("lowers"), &resolved).unwrap();
    assert_eq!(out.len(), 1);
    let got = out.iter().next().unwrap();
    let original = left.iter().next().unwrap().field("name").unwrap();
    match (got, original) {
        (Value::Str(a), Value::Str(b)) => {
            assert!(
                std::sync::Arc::ptr_eq(a, b),
                "projected value must share the input row's string storage"
            );
        }
        other => panic!("unexpected values {other:?}"),
    }
}

/// A bounded budget no test input can trip: the build loop charges every
/// row, kept by position or made as it came, and nothing spills.
const NEVER_TRIPS: MemBudget = MemBudget::Bytes(usize::MAX / 2);

fn id_eq() -> ScalarExpr {
    ScalarExpr::binary(
        ScalarOp::Eq,
        ScalarExpr::var_field("x", "id"),
        ScalarExpr::var_field("y", "id"),
    )
}

/// `x` joined with `y` on `id`, the right input (`y`) the build side.
fn join_xy(left: Bag, right: Bag, residual: Option<ScalarExpr>) -> LogicalExpr {
    let predicate = match residual {
        Some(residual) => ScalarExpr::binary(ScalarOp::And, id_eq(), residual),
        None => id_eq(),
    };
    LogicalExpr::Join {
        left: Box::new(LogicalExpr::Data(left).bind("x")),
        right: Box::new(LogicalExpr::Data(right).bind("y")),
        predicate: Some(predicate),
    }
}

fn salary_sum() -> ScalarExpr {
    ScalarExpr::StructLit(vec![
        ("name".into(), ScalarExpr::var_field("x", "name")),
        (
            "total".into(),
            ScalarExpr::binary(
                ScalarOp::Add,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::var_field("y", "salary"),
            ),
        ),
    ])
}

/// Runs `plan` over its literal data and over `exec` answers of rows and
/// of columns, `batch_rows` rows a batch, building on the right,
/// unbounded and under a budget that never trips.  Every run must give
/// the reference evaluator's answer — or its error text — and an answer
/// must have buffered `build_rows` rows.  Returns the answers, each as
/// the rows in the order they came out.
fn assert_matches_reference(
    plan: &LogicalExpr,
    batch_rows: usize,
    build_rows: usize,
) -> Vec<Vec<Value>> {
    let (shipped, by_rows, by_columns) = common::resolved_twins(plan);
    let (data, shipped) = (lower(plan).unwrap(), lower(&shipped).unwrap());
    let runs = [
        ("data", &data, ResolvedExecs::default()),
        ("rows", &shipped, by_rows),
        ("columns", &shipped, by_columns),
    ];
    let mut answers = Vec::new();
    for (input, physical, resolved) in &runs {
        assert!(format!("{physical}").contains("hashjoin"), "{physical}");
        let expected = reference::evaluate_physical(physical, resolved);
        for mem_budget in [MemBudget::Unbounded, NEVER_TRIPS] {
            let label = format!("{input}, batches of {batch_rows}, {mem_budget:?}: {plan}");
            let options = PipelineOptions {
                build_side: BuildSide::Right,
                batch_rows,
                mem_budget,
                ..PipelineOptions::default()
            };
            let metrics = PipelineMetrics::new();
            match (
                evaluate_physical_with(physical, resolved, &metrics, options),
                &expected,
            ) {
                (Ok(got), Ok(want)) => {
                    assert_eq!(&got, want, "{label}");
                    assert_eq!(metrics.rows_materialized(), build_rows, "{label}");
                    answers.push(got.iter().cloned().collect());
                }
                (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{label}"),
                (got, want) => panic!("{label}: {got:?} against the reference's {want:?}"),
            }
        }
    }
    answers
}

/// **(a)** A pair kernel bails on a later probe batch: earlier batches
/// were projected by kernel without a build row, so the rows are made in
/// the middle of the probe.  An overflowing `x.salary + y.salary` is the
/// reference's error; a probe batch with a mixed-type key runs per row
/// and the answer is the reference's.
#[test]
fn build_rows_made_mid_probe_give_the_reference_answer_or_error() {
    let build: Bag = (0..24)
        .map(|i| common::person(i, &format!("b{i}"), i))
        .collect();
    let overflowing: Bag = (0..40)
        .map(|i| {
            let salary = if i == 30 { i64::MAX } else { i };
            common::person(i % 24, &format!("p{i}"), salary)
        })
        .collect();
    let plan = join_xy(overflowing, build.clone(), None).map_project(salary_sum());
    let answers = assert_matches_reference(&plan, 8, 24);
    assert!(answers.is_empty(), "x.salary + y.salary overflows");

    let mixed: Bag = (0..40)
        .map(|i| {
            if i == 30 {
                Value::Struct(
                    StructValue::new(vec![
                        ("id", Value::from("thirty")),
                        ("name", Value::from("mixed")),
                        ("salary", Value::Int(1)),
                    ])
                    .unwrap(),
                )
            } else {
                common::person(i % 24, &format!("p{i}"), i)
            }
        })
        .collect();
    let plan = join_xy(mixed, build, None).map_project(salary_sum());
    for answer in assert_matches_reference(&plan, 8, 24) {
        assert_eq!(
            answer.len(),
            39,
            "every probe row but the mixed one matches"
        );
    }
}

/// **(b)** The build side arrives as several batches: the payload is
/// gathered across them, from one column-faced answer's chunks or from
/// the chunks decoded from row values.  A filter beneath the build
/// side's bind makes the gather skip rows.
#[test]
fn a_build_side_of_many_batches_gives_the_reference_answer() {
    let mut rng = StdRng::seed_from_u64(0xB17D);
    for batch_rows in [1, 3, 7, 64] {
        let probe = common::random_people(&mut rng, 50, 10);
        let build = common::random_people(&mut rng, 30, 10);
        let plan = join_xy(probe.clone(), build.clone(), None).map_project(salary_sum());
        assert_matches_reference(&plan, batch_rows, 30);
        let kept = build
            .iter()
            .filter(|row| row.as_struct().unwrap().field("salary").unwrap() > &Value::Int(40))
            .count();
        let filtered = LogicalExpr::Join {
            left: Box::new(LogicalExpr::Data(probe).bind("x")),
            right: Box::new(
                LogicalExpr::Data(build)
                    .filter(ScalarExpr::binary(
                        ScalarOp::Gt,
                        ScalarExpr::attr("salary"),
                        ScalarExpr::constant(40i64),
                    ))
                    .bind("y"),
            ),
            predicate: Some(id_eq()),
        }
        .map_project(salary_sum());
        assert_matches_reference(&filtered, batch_rows, kept);
    }
}

/// **(c)** One build batch runs per row (a mixed-type key column), so
/// the table holds rows made from the batches kept before it, that
/// batch's rows, and the batches kept after it.
#[test]
fn a_table_holding_both_forms_gives_the_reference_answer() {
    let build: Bag = (0..20)
        .map(|i| {
            if i == 9 {
                Value::Struct(
                    StructValue::new(vec![
                        ("id", Value::from("nine")),
                        ("name", Value::from("b-nine")),
                        ("salary", Value::Int(9)),
                    ])
                    .unwrap(),
                )
            } else {
                common::person(i % 6, &format!("b{i}"), i)
            }
        })
        .collect();
    let mut probe: Vec<Value> = (0..12)
        .map(|i| common::person(i % 8, &format!("p{i}"), i))
        .collect();
    probe.push(Value::Struct(
        StructValue::new(vec![
            ("id", Value::from("nine")),
            ("name", Value::from("p-nine")),
            ("salary", Value::Int(0)),
        ])
        .unwrap(),
    ));
    let plan = join_xy(probe.into_iter().collect(), build, None).map_project(salary_sum());
    for batch_rows in [4, 256] {
        assert_matches_reference(&plan, batch_rows, 20);
    }
}

/// **(d)** Duplicate build keys, spread over several build batches: the
/// matches of a probe row come out in build-insertion order — on the
/// kernel path (unbounded), on the per-row expansion over rows made at
/// the first match (a map no pair kernel compiles), and over rows made
/// as they came (under a budget).
#[test]
fn duplicate_build_keys_come_out_in_insertion_order_on_every_path() {
    let build: Bag = (0..12)
        .map(|i| common::person(i % 3, &format!("b{i}"), i))
        .collect();
    let probe: Bag = (0..6)
        .map(|i| common::person(i % 4, &format!("p{i}"), i))
        .collect();
    let names = |l: &Value, r: &Value| -> Value {
        Value::Struct(
            StructValue::new(vec![
                ("l", l.as_struct().unwrap().field("name").unwrap().clone()),
                ("r", r.as_struct().unwrap().field("name").unwrap().clone()),
            ])
            .unwrap(),
        )
    };
    let mut expected = Vec::new();
    for x in &probe {
        for y in &build {
            if x.as_struct().unwrap().field("id") == y.as_struct().unwrap().field("id") {
                expected.push(names(x, y));
            }
        }
    }
    let by_kernel = ScalarExpr::StructLit(vec![
        ("l".into(), ScalarExpr::var_field("x", "name")),
        ("r".into(), ScalarExpr::var_field("y", "name")),
    ]);
    // No pair kernel compiles a call.
    let by_row = ScalarExpr::StructLit(vec![
        (
            "l".into(),
            ScalarExpr::Call("coalesce".into(), vec![ScalarExpr::var_field("x", "name")]),
        ),
        ("r".into(), ScalarExpr::var_field("y", "name")),
    ]);
    for projection in [by_kernel, by_row] {
        let plan = join_xy(probe.clone(), build.clone(), None).map_project(projection);
        for batch_rows in [2, 5, 256] {
            for answer in assert_matches_reference(&plan, batch_rows, 12) {
                assert_eq!(answer, expected, "probe-major, build-insertion order");
            }
        }
    }
}

/// **(e)** The joins that expand per row: one with a residual predicate
/// (its sides are keyed per row) and one with no projection (its spine
/// sides keep the build rows by position until the first match).
#[test]
fn residual_and_unprojected_joins_give_the_reference_answer() {
    let mut rng = StdRng::seed_from_u64(0xE5);
    for batch_rows in [3, 256] {
        let probe = common::random_people(&mut rng, 40, 8);
        let build = common::random_people(&mut rng, 25, 8);
        let residual = ScalarExpr::binary(
            ScalarOp::Lt,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::var_field("y", "salary"),
        );
        let with_residual =
            join_xy(probe.clone(), build.clone(), Some(residual)).map_project(salary_sum());
        assert_matches_reference(&with_residual, batch_rows, 25);
        let unprojected = join_xy(probe, build, None);
        assert_matches_reference(&unprojected, batch_rows, 25);
    }
}

/// **(f)** A budget trips inside a kept build batch: the survivors up to
/// the tripping one stay kept by position and the rest of the batch goes
/// to Grace as rows.  A budget the build just fits charges the payload in
/// place of the chunks it replaces, and spills nothing.  Fused pair
/// projections, a join with no projection (the per-row expansion reads
/// the kept rows) and one with a residual predicate (per-row sides) run
/// over literal data and over `exec` answers of rows and of columns, at
/// the default batch size: each answer is the reference's, materializes
/// as many rows as the unbounded run and peaks within one build row of
/// its budget.
#[test]
fn a_trip_inside_a_kept_build_batch_gives_the_reference_answer_and_counts() {
    /// Generous for one build row, kept or made, and its key.
    const ONE_ROW: usize = 512;
    let mut rng = StdRng::seed_from_u64(0xF17);
    let probe = common::random_people(&mut rng, 300, 500);
    let build = common::random_people(&mut rng, 1_000, 500);
    let residual = ScalarExpr::binary(
        ScalarOp::Lt,
        ScalarExpr::var_field("x", "salary"),
        ScalarExpr::var_field("y", "salary"),
    );
    // Reads no build column but the key: its build keeps what the
    // unprojected join's keeps, and a payload besides.
    let key_only = ScalarExpr::StructLit(vec![
        ("name".into(), ScalarExpr::var_field("x", "name")),
        ("peer".into(), ScalarExpr::var_field("y", "id")),
    ]);
    let plans = [
        join_xy(probe.clone(), build.clone(), None).map_project(key_only),
        join_xy(probe.clone(), build.clone(), None),
        join_xy(probe.clone(), build.clone(), None).map_project(salary_sum()),
        join_xy(probe, build, Some(residual)).map_project(salary_sum()),
    ];
    let mut wholes = Vec::new();
    for plan in &plans {
        let (shipped, by_rows, by_columns) = common::resolved_twins(plan);
        let (data, shipped) = (lower(plan).unwrap(), lower(&shipped).unwrap());
        for (input, physical, resolved) in [
            ("data", &data, ResolvedExecs::default()),
            ("rows", &shipped, by_rows),
            ("columns", &shipped, by_columns),
        ] {
            let expected = reference::evaluate_physical(physical, &resolved).unwrap();
            let run = |mem_budget| {
                let options = PipelineOptions {
                    build_side: BuildSide::Right,
                    mem_budget,
                    ..PipelineOptions::default()
                };
                let metrics = PipelineMetrics::new();
                let got = evaluate_physical_with(physical, &resolved, &metrics, options)
                    .unwrap_or_else(|e| panic!("{input}, {mem_budget:?}: {e}: {plan}"));
                assert_eq!(got, expected, "{input}, {mem_budget:?}: {plan}");
                metrics
            };
            let unbounded = run(MemBudget::Unbounded).rows_materialized();
            assert_eq!(unbounded, 1_000, "{input}: {plan}");
            // What the build charges in all, when nothing trips.
            let whole = run(NEVER_TRIPS).peak_tracked_bytes();
            wholes.push(whole);
            // The just-fitting budget, and one that trips near build row
            // 375: inside the second 256-row batch.
            for (budget, spills) in [(whole, false), (whole * 3 / 8, true)] {
                let metrics = run(MemBudget::Bytes(budget));
                let label = format!("{input}, {budget} of {whole} bytes: {plan}");
                assert_eq!(metrics.rows_materialized(), unbounded, "{label}");
                assert_eq!(metrics.bytes_spilled() > 0, spills, "{label}");
                let peak = metrics.peak_tracked_bytes();
                assert!(peak <= budget + ONE_ROW, "{label}: peak {peak}");
            }
        }
    }
    assert_eq!(
        wholes[..3],
        wholes[3..6],
        "the key-only payload costs no more than the chunks it replaces"
    );
}

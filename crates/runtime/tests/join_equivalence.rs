//! Regression tests for the hash-based evaluator: `HashJoin`,
//! `MkDistinct` and `NestedLoopJoin` must produce multiset-equal results
//! to their reference strategies, before and after the zero-clone
//! refactor.
//!
//! `HashJoin` is checked against the same logical join forced through
//! `NestedLoopJoin` (the two physical algorithms implement one logical
//! operator), and `MkDistinct` against a naive O(n²) distinct.

use disco_algebra::{lower, LogicalExpr, PhysicalExpr, ScalarExpr, ScalarOp};
use disco_runtime::{evaluate_physical, ResolvedExecs};
use disco_value::{Bag, StructValue, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn person(id: i64, name: &str, salary: i64) -> Value {
    Value::Struct(
        StructValue::new(vec![
            ("id", Value::Int(id)),
            ("name", Value::from(name)),
            ("salary", Value::Int(salary)),
        ])
        .unwrap(),
    )
}

fn random_people(rng: &mut StdRng, rows: usize, id_space: i64) -> Bag {
    (0..rows)
        .map(|_| {
            person(
                rng.gen_range(0..id_space),
                &format!("p{}", rng.gen_range(0..id_space)),
                rng.gen_range(0..100i64),
            )
        })
        .collect()
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
        let left = random_people(&mut rng, left_rows, 8);
        let right_rows = rng.gen_range(0..40usize);
        let right = random_people(&mut rng, right_rows, 8);
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
        let left = random_people(&mut rng, 30, 6);
        let right = random_people(&mut rng, 30, 6);
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
        let rows = random_people(&mut rng, n_rows, 5);
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
    let left: Bag = [person(1, "Mary", 200)].into_iter().collect();
    let right: Bag = [person(1, "Sam", 50)].into_iter().collect();
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

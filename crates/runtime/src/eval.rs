//! The mediator-side evaluator entry points: a plan is opened into the
//! cursor tree of [`crate::pipeline`] and drained into the answer bag.
//!
//! The seed bag-at-a-time evaluator survives as [`crate::reference`], the
//! oracle the differential tests and the benchmark compare against.

use disco_algebra::{Env, PhysicalExpr};
use disco_value::Bag;

use crate::exec::ResolvedExecs;
use crate::pipeline::{self, PipelineMetrics, PipelineOptions};
use crate::Result;

/// Evaluates a physical plan against resolved `exec` outcomes by
/// streaming it through the cursor pipeline, with default options.
///
/// # Errors
///
/// Returns an error if the plan references an unresolved or unavailable
/// `exec` call (the partial-evaluation path must be used instead), or on
/// evaluation errors.
pub fn evaluate_physical(plan: &PhysicalExpr, resolved: &ResolvedExecs) -> Result<Bag> {
    evaluate_physical_with(
        plan,
        resolved,
        &PipelineMetrics::new(),
        PipelineOptions::default(),
    )
}

/// Evaluates a physical plan with explicit [`PipelineOptions`] (hash-join
/// build side, batch size, memory budget), recording pipeline counters —
/// rows buffered by pipeline breakers, join rows merged, rows emitted,
/// kernel coverage, spill — into `metrics`.
///
/// # Errors
///
/// See [`evaluate_physical`].
pub fn evaluate_physical_with(
    plan: &PhysicalExpr,
    resolved: &ResolvedExecs,
    metrics: &PipelineMetrics,
    options: PipelineOptions,
) -> Result<Bag> {
    pipeline::evaluate_physical_streamed(plan, resolved, &Env::root(), metrics, options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeError;
    use disco_algebra::{data_of, lower, AggKind, LogicalExpr, ScalarExpr, ScalarOp};
    use disco_value::{StructValue, Value};

    fn person(name: &str, salary: i64, id: i64) -> Value {
        Value::Struct(
            StructValue::new(vec![
                ("id", Value::Int(id)),
                ("name", Value::from(name)),
                ("salary", Value::Int(salary)),
            ])
            .unwrap(),
        )
    }

    fn empty_resolved() -> ResolvedExecs {
        ResolvedExecs::default()
    }

    fn try_eval(plan: &LogicalExpr) -> Result<Bag> {
        let physical = lower(plan).map_err(RuntimeError::Algebra)?;
        evaluate_physical(&physical, &empty_resolved())
    }

    fn eval(plan: &LogicalExpr) -> Bag {
        try_eval(plan).unwrap()
    }

    #[test]
    fn intro_query_pipeline_over_data() {
        // map(x.name, select(x.salary > 10, bind(x, data)))
        let data = LogicalExpr::Data(
            [
                person("Mary", 200, 1),
                person("Sam", 50, 2),
                person("Low", 5, 3),
            ]
            .into_iter()
            .collect(),
        );
        let plan = data
            .bind("x")
            .filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::constant(10i64),
            ))
            .map_project(ScalarExpr::var_field("x", "name"));
        let result = eval(&plan);
        assert_eq!(
            result,
            [Value::from("Mary"), Value::from("Sam")]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn hash_join_combines_sources_on_equal_keys() {
        let left = LogicalExpr::Data(
            [person("Mary", 200, 1), person("Sam", 50, 2)]
                .into_iter()
                .collect(),
        )
        .bind("x");
        let right = LogicalExpr::Data([person("Mary2", 30, 1)].into_iter().collect()).bind("y");
        let join = LogicalExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
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
        let result = eval(&join);
        assert_eq!(result.len(), 1);
        let row = result.iter().next().unwrap().as_struct().unwrap();
        assert_eq!(row.field("total").unwrap(), &Value::Int(230));
    }

    #[test]
    fn correlated_aggregate_uses_outer_row() {
        // The §2.2.3 `multiple` view shape over data:
        // select struct(name: x.name, salary: sum(select z.salary from z in all where x.id = z.id))
        let all: Bag = [
            person("Mary", 200, 1),
            person("Mary-b", 30, 1),
            person("Sam", 50, 2),
        ]
        .into_iter()
        .collect();
        let subplan = LogicalExpr::Data(all.clone())
            .bind("z")
            .filter(ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("z", "id"),
            ))
            .map_project(ScalarExpr::var_field("z", "salary"));
        let plan = LogicalExpr::Data([person("Mary", 200, 1)].into_iter().collect())
            .bind("x")
            .map_project(ScalarExpr::StructLit(vec![
                ("name".into(), ScalarExpr::var_field("x", "name")),
                (
                    "salary".into(),
                    ScalarExpr::Agg(AggKind::Sum, Box::new(subplan)),
                ),
            ]));
        let result = eval(&plan);
        let row = result.iter().next().unwrap().as_struct().unwrap();
        assert_eq!(row.field("salary").unwrap(), &Value::Int(230));
    }

    #[test]
    fn union_flatten_distinct_aggregate() {
        let plan = LogicalExpr::Aggregate {
            func: AggKind::Count,
            input: Box::new(LogicalExpr::Distinct(Box::new(LogicalExpr::Union(vec![
                data_of([1i64, 2i64, 2i64]),
                data_of([3i64, 3i64]),
            ])))),
        };
        let result = eval(&plan);
        assert_eq!(result, [Value::Int(3)].into_iter().collect());
        let flat = LogicalExpr::Flatten(Box::new(data_of([Value::Bag(
            [Value::Int(1), Value::Int(2)].into_iter().collect(),
        )])));
        assert_eq!(eval(&flat).len(), 2);
    }

    #[test]
    fn source_join_at_mediator_merges_tuples() {
        let employees = LogicalExpr::Data(
            [Value::Struct(
                StructValue::new(vec![("name", Value::from("Mary")), ("dept", Value::Int(1))])
                    .unwrap(),
            )]
            .into_iter()
            .collect(),
        );
        let managers = LogicalExpr::Data(
            [Value::Struct(
                StructValue::new(vec![("mgr", Value::from("Sam")), ("dept", Value::Int(1))])
                    .unwrap(),
            )]
            .into_iter()
            .collect(),
        );
        let join = LogicalExpr::SourceJoin {
            left: Box::new(employees),
            right: Box::new(managers),
            on: vec![("dept".into(), "dept".into())],
        };
        let result = eval(&join);
        assert_eq!(result.len(), 1);
        let row = result.iter().next().unwrap().as_struct().unwrap();
        assert_eq!(row.field("mgr").unwrap(), &Value::from("Sam"));
    }

    #[test]
    fn unresolved_exec_is_an_error() {
        let plan = LogicalExpr::get("person0").submit("r0", "w0", "person0");
        let err = try_eval(&plan).unwrap_err();
        assert!(matches!(err, RuntimeError::Unsupported(_)));
    }

    #[test]
    fn projection_of_scalar_rows_fails_cleanly() {
        let plan = data_of([1i64, 2i64]).project(["name"]);
        let err = try_eval(&plan).unwrap_err();
        assert!(matches!(err, RuntimeError::Algebra(_)));
    }

    #[test]
    fn metrics_show_streaming_operators_buffer_nothing() {
        // filter → map over 3 rows: no pipeline breaker, so nothing is
        // buffered and nothing is merged; 2 rows reach the sink.
        let plan = LogicalExpr::Data(
            [
                person("Mary", 200, 1),
                person("Sam", 50, 2),
                person("Low", 5, 3),
            ]
            .into_iter()
            .collect(),
        )
        .bind("x")
        .filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::constant(10i64),
        ))
        .map_project(ScalarExpr::var_field("x", "name"));
        let physical = lower(&plan).unwrap();
        let metrics = PipelineMetrics::new();
        let out = evaluate_physical_with(
            &physical,
            &empty_resolved(),
            &metrics,
            PipelineOptions::default(),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(metrics.rows_materialized(), 0);
        assert_eq!(metrics.rows_merged(), 0);
        assert_eq!(metrics.rows_emitted(), 2);
    }

    #[test]
    fn metrics_deep_pipeline_only_breakers_materialize() {
        // filter → hash-join → map-project → distinct: the only buffered
        // rows are the join build side (the smaller input) and the distinct
        // seen-set; the projection consumes join rows frame-wise, so no
        // join row is ever merged into a struct.
        let left: Bag = (0..20)
            .map(|i| person(&format!("p{}", i % 4), 100 + i, i % 8))
            .collect();
        let right: Bag = (0..4).map(|i| person(&format!("r{i}"), 50, i)).collect();
        let right_len = right.len();
        let plan = LogicalExpr::Join {
            left: Box::new(LogicalExpr::Data(left).bind("x").filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::constant(0i64),
            ))),
            right: Box::new(LogicalExpr::Data(right).bind("y")),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        }
        .map_project(ScalarExpr::var_field("x", "name"));
        let plan = LogicalExpr::Distinct(Box::new(plan));
        let physical = lower(&plan).unwrap();
        let metrics = PipelineMetrics::new();
        let out = evaluate_physical_with(
            &physical,
            &empty_resolved(),
            &metrics,
            PipelineOptions::default(),
        )
        .unwrap();
        assert!(!out.is_empty());
        // Only pipeline breakers buffered rows: the build side (4 rows,
        // the smaller input) and one seen-set entry per distinct value.
        assert_eq!(metrics.rows_materialized(), right_len + out.len());
        assert_eq!(
            metrics.rows_merged(),
            0,
            "projection must consume join rows frame-wise"
        );
    }
}

//! Evaluation of pushed logical expressions against a row provider.
//!
//! Wrappers share this evaluator: the wrapper supplies a function that
//! hands out the (shared) table behind a named collection, and the
//! evaluator executes the pushable operator subset (`get`, `select`,
//! `project`, `join`) over its rows.  Anything outside the subset is a
//! capability violation at run time — a defence in depth behind the
//! optimizer's static check.
//!
//! The shape a capable wrapper is actually sent — `project?(select*(get))`
//! — runs as **one pass** over the borrowed stored rows: every predicate,
//! then the projection, and only a row that survives is copied (a
//! reference-count bump, or the projected struct).  Everything else
//! (`join`, operators in any other order) goes through the recursive
//! evaluator, which materializes a bag per operator; the one pass answers
//! exactly what that evaluator answers for its shape, errors included.

use std::sync::Arc;

use disco_algebra::{eval_scalar, truthy, AlgebraError, LogicalExpr, ScalarExpr};
use disco_source::Table;
use disco_value::{Bag, Value};

use crate::WrapperError;

/// Hands out the table behind a named collection of the underlying
/// source.  The table is shared, not copied: a call borrows its rows.
pub type RowProvider<'a> = dyn Fn(&str) -> Result<Arc<Table>, WrapperError> + 'a;

/// The result of evaluating a pushed expression.
#[derive(Debug, Clone, PartialEq)]
pub struct PushedResult {
    /// Produced rows.
    pub rows: Bag,
    /// Rows touched at the source while answering.
    pub rows_scanned: usize,
}

/// Evaluates a pushed expression.
///
/// # Errors
///
/// Returns [`WrapperError::Capability`] for operators outside the pushable
/// subset, and propagates provider / evaluation errors.
pub fn eval_pushed(
    expr: &LogicalExpr,
    provider: &RowProvider<'_>,
) -> Result<PushedResult, WrapperError> {
    match OnePass::of(expr) {
        Some(pass) => pass.run(provider),
        None => eval_recursive(expr, provider),
    }
}

/// `project?(select*(get))`, taken apart.
struct OnePass<'e> {
    collection: &'e str,
    /// Innermost first: the order the recursive evaluator applies them.
    predicates: Vec<&'e ScalarExpr>,
    columns: Option<&'e [String]>,
}

impl<'e> OnePass<'e> {
    fn of(expr: &'e LogicalExpr) -> Option<Self> {
        let (columns, mut node) = match expr {
            LogicalExpr::Project { input, columns } => (Some(columns.as_slice()), input.as_ref()),
            other => (None, other),
        };
        let mut predicates = Vec::new();
        while let LogicalExpr::Filter { input, predicate } = node {
            predicates.push(predicate);
            node = input;
        }
        predicates.reverse();
        let LogicalExpr::Get { collection } = node else {
            return None;
        };
        Some(OnePass {
            collection,
            predicates,
            columns,
        })
    }

    fn run(&self, provider: &RowProvider<'_>) -> Result<PushedResult, WrapperError> {
        let table = provider(self.collection)?;
        // The recursive evaluator finishes an operator over the whole
        // input before the next one starts, so the error it reports is
        // that of the *innermost* failing operator, at that operator's
        // first failing row.  One pass meets failures in row order
        // instead: after one, the operator that failed and those above it
        // stop, and the rows left still run the predicates beneath it —
        // one of which may fail in turn and take the error over.
        let mut live = self.predicates.len();
        let mut failure: Option<WrapperError> = None;
        let mut rows = Vec::new();
        'rows: for stored in table.rows() {
            for (at, predicate) in self.predicates[..live].iter().enumerate() {
                match eval_scalar(predicate, stored) {
                    Ok(verdict) if truthy(&verdict) => {}
                    Ok(_) => continue 'rows,
                    Err(err) => {
                        failure = Some(err.into());
                        live = at;
                        continue 'rows;
                    }
                }
            }
            if failure.is_some() {
                if live == 0 {
                    break;
                }
                continue;
            }
            let row = match self.columns {
                None => stored.clone(),
                Some(columns) => match stored.project(columns.iter().map(String::as_str)) {
                    Ok(projected) => projected,
                    Err(err) => {
                        failure = Some(AlgebraError::from(err).into());
                        continue;
                    }
                },
            };
            rows.push(Value::Struct(row));
        }
        match failure {
            Some(err) => Err(err),
            None => Ok(PushedResult {
                rows: Bag::from(rows),
                rows_scanned: table.len(),
            }),
        }
    }
}

/// The general evaluator: one materialized bag per operator.
fn eval_recursive(
    expr: &LogicalExpr,
    provider: &RowProvider<'_>,
) -> Result<PushedResult, WrapperError> {
    match expr {
        LogicalExpr::Get { collection } => {
            let table = provider(collection)?;
            Ok(PushedResult {
                rows: table.rows().iter().cloned().map(Value::Struct).collect(),
                rows_scanned: table.len(),
            })
        }
        LogicalExpr::Filter { input, predicate } => {
            let inner = eval_recursive(input, provider)?;
            let mut rows = Bag::with_capacity(inner.rows.len());
            for row in &inner.rows {
                let s = row.as_struct().map_err(AlgebraError::from)?;
                let keep = eval_scalar(predicate, s).map_err(WrapperError::from)?;
                if truthy(&keep) {
                    rows.insert(row.clone());
                }
            }
            Ok(PushedResult {
                rows,
                rows_scanned: inner.rows_scanned,
            })
        }
        LogicalExpr::Project { input, columns } => {
            let inner = eval_recursive(input, provider)?;
            let mut rows = Bag::with_capacity(inner.rows.len());
            for row in &inner.rows {
                let s = row.as_struct().map_err(AlgebraError::from)?;
                let projected = s
                    .project(columns.iter().map(String::as_str))
                    .map_err(AlgebraError::from)?;
                rows.insert(Value::Struct(projected));
            }
            Ok(PushedResult {
                rows,
                rows_scanned: inner.rows_scanned,
            })
        }
        LogicalExpr::SourceJoin { left, right, on } => {
            let l = eval_recursive(left, provider)?;
            let r = eval_recursive(right, provider)?;
            let mut rows = Bag::new();
            for lv in &l.rows {
                let ls = lv.as_struct().map_err(AlgebraError::from)?;
                for rv in &r.rows {
                    let rs = rv.as_struct().map_err(AlgebraError::from)?;
                    let mut matches = true;
                    for (lattr, rattr) in on {
                        let lval = ls.field(lattr).map_err(AlgebraError::from)?;
                        let rval = rs.field(rattr).map_err(AlgebraError::from)?;
                        if lval != rval {
                            matches = false;
                            break;
                        }
                    }
                    if matches {
                        let merged = ls
                            .merge_with_prefix(rs, "right")
                            .map_err(AlgebraError::from)?;
                        rows.insert(Value::Struct(merged));
                    }
                }
            }
            Ok(PushedResult {
                rows,
                rows_scanned: l.rows_scanned + r.rows_scanned,
            })
        }
        other => Err(WrapperError::Capability(
            AlgebraError::CapabilityViolation {
                operator: other.op_name().to_owned(),
                wrapper: "<pushed evaluator>".to_owned(),
            },
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{ScalarExpr, ScalarOp};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(name: &str, columns: &[&str], rows: Vec<Vec<Value>>) -> Arc<Table> {
        let mut table = Table::new(name, columns.iter().copied());
        for row in rows {
            table
                .insert_values(columns.iter().copied().zip(row))
                .unwrap();
        }
        Arc::new(table)
    }

    fn provider(collection: &str) -> Result<Arc<Table>, WrapperError> {
        match collection {
            "person0" => Ok(table(
                "person0",
                &["id", "name", "salary"],
                vec![
                    vec![Value::Int(1), Value::from("Mary"), Value::Int(200)],
                    vec![Value::Int(2), Value::from("Ann"), Value::Int(5)],
                ],
            )),
            "dept0" => Ok(table(
                "dept0",
                &["id", "dept"],
                vec![vec![Value::Int(1), Value::from("db")]],
            )),
            other => Err(WrapperError::Source(
                disco_source::SourceError::UnknownTable(other.to_owned()),
            )),
        }
    }

    #[test]
    fn get_scans_all_rows() {
        let result = eval_pushed(&LogicalExpr::get("person0"), &provider).unwrap();
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows_scanned, 2);
        assert!(eval_pushed(&LogicalExpr::get("missing"), &provider).is_err());
    }

    #[test]
    fn filter_and_project_compose() {
        let expr = LogicalExpr::get("person0")
            .filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(10i64),
            ))
            .project(["name"]);
        let result = eval_pushed(&expr, &provider).unwrap();
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows_scanned, 2, "source still scanned both rows");
        let only = result.rows.iter().next().unwrap().as_struct().unwrap();
        assert_eq!(only.field("name").unwrap(), &Value::from("Mary"));
        assert_eq!(only.len(), 1, "projection narrowed the row");
    }

    #[test]
    fn source_join_merges_matching_tuples() {
        let expr = LogicalExpr::SourceJoin {
            left: Box::new(LogicalExpr::get("person0")),
            right: Box::new(LogicalExpr::get("dept0")),
            on: vec![("id".into(), "id".into())],
        };
        let result = eval_pushed(&expr, &provider).unwrap();
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows_scanned, 3);
        let merged = result.rows.iter().next().unwrap().as_struct().unwrap();
        assert_eq!(merged.field("dept").unwrap(), &Value::from("db"));
        assert_eq!(merged.field("name").unwrap(), &Value::from("Mary"));
    }

    #[test]
    fn non_pushable_operators_are_rejected_at_run_time() {
        let expr = LogicalExpr::get("person0").bind("x");
        let err = eval_pushed(&expr, &provider).unwrap_err();
        assert!(matches!(err, WrapperError::Capability(_)));
    }

    #[test]
    fn filter_on_missing_attribute_is_an_evaluation_error() {
        let expr = LogicalExpr::get("person0").filter(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::attr("nonexistent"),
            ScalarExpr::constant(1i64),
        ));
        let err = eval_pushed(&expr, &provider).unwrap_err();
        assert!(matches!(err, WrapperError::Algebra(_)));
    }

    /// Guards the one pass (new in this design): for random
    /// `project?(select*(get))` expressions — predicates that divide by a
    /// column holding zeros, predicates and projections naming a missing
    /// column — it answers what the recursive evaluator answers: the same
    /// rows in the same order, the same `rows_scanned`, the same error.
    #[test]
    fn the_one_pass_is_the_recursive_evaluator() {
        let mut errors = 0;
        let mut answers = 0;
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(0x0E9A55 + seed);
            let rows = (0..rng.gen_range(0..40))
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(rng.gen_range(0..4)),
                        Value::Int(rng.gen_range(0..100)),
                    ]
                })
                .collect();
            let stored = table("t", &["id", "div", "salary"], rows);
            let provider = move |_: &str| Ok(Arc::clone(&stored));
            let mut expr = LogicalExpr::get("t");
            for _ in 0..rng.gen_range(0..4) {
                let column = ["salary", "id", "gone"][rng.gen_range(0..7usize) / 3];
                let left = if rng.gen_bool(0.3) {
                    // Errors on the rows whose `div` is zero.
                    ScalarExpr::binary(
                        ScalarOp::Div,
                        ScalarExpr::attr(column),
                        ScalarExpr::attr("div"),
                    )
                } else {
                    ScalarExpr::attr(column)
                };
                expr = expr.filter(ScalarExpr::binary(
                    [ScalarOp::Gt, ScalarOp::Lt][rng.gen_range(0..2usize)],
                    left,
                    ScalarExpr::constant(rng.gen_range(0..100i64)),
                ));
            }
            if rng.gen_bool(0.6) {
                let columns = [
                    &["id", "salary"][..],
                    &["salary"],
                    &["id", "gone"],
                    &["id", "id"],
                ];
                expr = expr.project(columns[rng.gen_range(0..9usize) / 3].iter().copied());
            }
            assert!(OnePass::of(&expr).is_some(), "{expr}");
            let fused = eval_pushed(&expr, &provider);
            let recursive = eval_recursive(&expr, &provider);
            match (&fused, &recursive) {
                (Ok(f), Ok(r)) => {
                    assert_eq!(f.rows.as_slice(), r.rows.as_slice(), "{expr}");
                    assert_eq!(f.rows_scanned, r.rows_scanned, "{expr}");
                    answers += 1;
                }
                (Err(f), Err(r)) => {
                    assert_eq!(f.to_string(), r.to_string(), "{expr}");
                    errors += 1;
                }
                _ => panic!("{expr}: one pass {fused:?}, recursive {recursive:?}"),
            }
        }
        assert!(
            errors > 40 && answers > 40,
            "{errors} errors, {answers} answers"
        );
    }

    #[test]
    fn shapes_outside_the_one_pass_take_the_recursive_evaluator() {
        let select_over_project = LogicalExpr::get("person0")
            .project(["name", "salary"])
            .filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(10i64),
            ));
        assert!(OnePass::of(&select_over_project).is_none());
        let result = eval_pushed(&select_over_project, &provider).unwrap();
        assert_eq!(result.rows.len(), 1);
    }
}

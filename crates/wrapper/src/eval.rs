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
//! — runs as **one pass** over the table, and builds no row: the
//! predicates, compiled to the mediator's own [`Kernel`]s, run over the
//! table's cached column image a selection vector at a time, the
//! projection is a choice of columns, and the answer is those columns
//! under the indices of the rows that survived — a [`Bag`] with a column
//! face, which becomes rows only for a reader that asks for rows.  A
//! kernel never reports an error: whatever the kernel pass cannot answer
//! exactly (a predicate outside the kernel subset, a would-be evaluation
//! error, a missing or repeated column) makes it **bail**, and the call
//! runs again through the recursive evaluator, which materializes a bag
//! per operator and reports the error.  That evaluator also answers
//! everything else (`join`, operators in any other order).

use std::sync::Arc;

use disco_algebra::kernel::{Kernel, KernelBuilder};
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
    let Some(pass) = OnePass::of(expr) else {
        return eval_recursive(expr, provider);
    };
    let table = provider(pass.collection)?;
    match pass.kernel_pass(&table) {
        Some(rows) => Ok(PushedResult {
            rows,
            rows_scanned: table.len(),
        }),
        // The bail: the recursive evaluator reads the same table.
        None => eval_recursive(expr, &|_: &str| Ok(Arc::clone(&table))),
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

    /// The answer as columns of the table's image under the selection the
    /// predicates leave — or `None`, the bail: the recursive evaluator
    /// then answers (or reports the error) instead.
    fn kernel_pass(&self, table: &Table) -> Option<Bag> {
        /// Rows per selection vector: the kernels' intermediates stay in
        /// the first-level cache.
        const SELECTION_ROWS: usize = 1024;
        let image = table.image()?;
        let len = u32::try_from(image.len()).ok()?;
        let mut builder = KernelBuilder::new(None);
        let kernels: Vec<Kernel> = self
            .predicates
            .iter()
            .map(|predicate| builder.compile(predicate))
            .collect::<Option<_>>()?;
        let chunk = image.chunk(builder.fields())?;
        let answer = match self.columns {
            None => image.clone(),
            Some(columns) => {
                let slots: Vec<usize> = columns
                    .iter()
                    .map(|column| image.slot_of(column))
                    .collect::<Option<_>>()?;
                image.project(&slots).ok()?
            }
        };
        if kernels.is_empty() {
            return Some(Bag::from_columns(answer));
        }
        let mut survivors = Vec::new();
        let mut selection = Vec::with_capacity(SELECTION_ROWS.min(image.len()));
        for start in (0..len).step_by(SELECTION_ROWS) {
            selection.clear();
            selection.extend(start..len.min(start.saturating_add(SELECTION_ROWS as u32)));
            for kernel in &kernels {
                if selection.is_empty() {
                    break;
                }
                kernel.narrow(&chunk, &mut selection, None)?;
            }
            survivors.extend_from_slice(&selection);
        }
        Some(Bag::from_columns(answer.select(survivors)))
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
            let mut rows = Vec::with_capacity(inner.rows.len());
            for row in &inner.rows {
                let s = row.as_struct().map_err(AlgebraError::from)?;
                let keep = eval_scalar(predicate, s).map_err(WrapperError::from)?;
                if truthy(&keep) {
                    rows.push(row.clone());
                }
            }
            Ok(PushedResult {
                rows: Bag::from(rows),
                rows_scanned: inner.rows_scanned,
            })
        }
        LogicalExpr::Project { input, columns } => {
            let inner = eval_recursive(input, provider)?;
            let mut rows = Vec::with_capacity(inner.rows.len());
            for row in &inner.rows {
                let s = row.as_struct().map_err(AlgebraError::from)?;
                let projected = s
                    .project(columns.iter().map(String::as_str))
                    .map_err(AlgebraError::from)?;
                rows.push(Value::Struct(projected));
            }
            Ok(PushedResult {
                rows: Bag::from(rows),
                rows_scanned: inner.rows_scanned,
            })
        }
        LogicalExpr::SourceJoin { left, right, on } => {
            let l = eval_recursive(left, provider)?;
            let r = eval_recursive(right, provider)?;
            let mut rows = Vec::new();
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
                        rows.push(Value::Struct(merged));
                    }
                }
            }
            Ok(PushedResult {
                rows: Bag::from(rows),
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

    /// Guards the one pass — and the hazard only the kernel pass has: two
    /// evaluators of one shape, and within it two ways to run a predicate
    /// (an integer comparison over a null-free column compares in place,
    /// anything else is evaluated).  For random `project?(select*(get))`
    /// expressions over a table with nulls, a mixed-type column, strings
    /// and a NaN float — predicates that divide by a column holding
    /// zeros, add to a string, compare strings, name a missing column,
    /// compare the null-free `id` and `div` under all six operators with
    /// the constant on either side (`i64::MIN`, `i64::MAX`, negatives) or
    /// with each other, or against a float or a string constant;
    /// projections naming an undeclared or a repeated column — the kernel
    /// pass (where it does not bail), `eval_pushed` and the recursive
    /// evaluator answer alike: the same rows in the same order, the same
    /// `rows_scanned`, the same error text.
    #[test]
    fn the_one_pass_is_the_recursive_evaluator() {
        let printed =
            |rows: &Bag| -> Vec<String> { rows.iter().map(ToString::to_string).collect() };
        let (mut errors, mut answers, mut kernel_answers, mut bails) = (0, 0, 0, 0);
        for seed in 0..600u64 {
            let mut rng = StdRng::seed_from_u64(0x0E9A55 + seed);
            let rows = (0..rng.gen_range(0..40))
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::Int(rng.gen_range(0..4)),
                        if rng.gen_bool(0.1) {
                            Value::Null
                        } else {
                            Value::Int(rng.gen_range(0..100))
                        },
                        Value::from(format!("p{}", rng.gen_range(0..8))),
                        match rng.gen_range(0..3) {
                            0 => Value::Int(rng.gen_range(0..9)),
                            1 => Value::from("nine"),
                            _ => Value::Null,
                        },
                        if rng.gen_bool(0.2) {
                            Value::Float(f64::NAN)
                        } else {
                            Value::Float(rng.gen_range(0.0..1.0))
                        },
                    ]
                })
                .collect();
            let stored = table("t", &["id", "div", "salary", "name", "tag", "score"], rows);
            let provided = Arc::clone(&stored);
            let provider = move |_: &str| Ok(Arc::clone(&provided));
            let mut expr = LogicalExpr::get("t");
            for _ in 0..rng.gen_range(0..4) {
                let compare = [ScalarOp::Gt, ScalarOp::Lt][rng.gen_range(0..2usize)];
                let limit = ScalarExpr::constant(rng.gen_range(0..100i64));
                // Any comparison, with the constant on either side.
                let any = [
                    ScalarOp::Eq,
                    ScalarOp::NotEq,
                    ScalarOp::Lt,
                    ScalarOp::Le,
                    ScalarOp::Gt,
                    ScalarOp::Ge,
                ][rng.gen_range(0..6usize)];
                let int_column = ScalarExpr::attr(["id", "div"][rng.gen_range(0..2usize)]);
                let either_side = |rng: &mut StdRng, column: ScalarExpr, constant: Value| {
                    let constant = ScalarExpr::Const(constant);
                    if rng.gen_bool(0.5) {
                        ScalarExpr::binary(any, column, constant)
                    } else {
                        ScalarExpr::binary(any, constant, column)
                    }
                };
                let predicate = match rng.gen_range(0..14) {
                    // Errors on the rows whose `div` is zero.
                    0 | 1 => ScalarExpr::binary(
                        compare,
                        ScalarExpr::binary(
                            ScalarOp::Div,
                            ScalarExpr::attr("salary"),
                            ScalarExpr::attr("div"),
                        ),
                        limit,
                    ),
                    // Errors on the rows whose `tag` is a string.
                    2 => ScalarExpr::binary(
                        compare,
                        ScalarExpr::binary(
                            ScalarOp::Add,
                            ScalarExpr::attr("tag"),
                            ScalarExpr::constant(1i64),
                        ),
                        limit,
                    ),
                    3 => ScalarExpr::binary(compare, ScalarExpr::attr("gone"), limit),
                    4 => ScalarExpr::binary(
                        compare,
                        ScalarExpr::attr("name"),
                        ScalarExpr::constant("p3"),
                    ),
                    5 => ScalarExpr::binary(
                        ScalarOp::Eq,
                        ScalarExpr::attr("name"),
                        ScalarExpr::constant("p5"),
                    ),
                    // Strings, ints and nulls under one total order.
                    6 => ScalarExpr::binary(compare, ScalarExpr::attr("tag"), limit),
                    // NaN sorts above every number.
                    7 => ScalarExpr::binary(
                        compare,
                        ScalarExpr::attr("score"),
                        ScalarExpr::constant(0.5f64),
                    ),
                    // The null-free integer columns: compared in place.
                    10 | 11 => {
                        let constant = match rng.gen_range(0..4) {
                            0 => i64::MIN,
                            1 => i64::MAX,
                            2 => -rng.gen_range(1..5i64),
                            _ => rng.gen_range(0..40i64),
                        };
                        either_side(&mut rng, int_column, Value::Int(constant))
                    }
                    12 => ScalarExpr::binary(any, int_column, ScalarExpr::attr("div")),
                    // Not an integer constant: evaluated, not compared.
                    13 => {
                        let constant = if rng.gen_bool(0.5) {
                            Value::Float(rng.gen_range(-1.0..40.0))
                        } else {
                            Value::from("p3")
                        };
                        either_side(&mut rng, int_column, constant)
                    }
                    _ => ScalarExpr::binary(compare, ScalarExpr::attr("salary"), limit),
                };
                expr = expr.filter(predicate);
            }
            if rng.gen_bool(0.6) {
                let columns = [
                    &["id", "salary"][..],
                    &["score", "tag", "name"],
                    &["salary"],
                    &["id", "gone"],
                    &["id", "id"],
                ];
                expr = expr.project(columns[rng.gen_range(0..13usize) / 3].iter().copied());
            }
            let pass = OnePass::of(&expr).unwrap_or_else(|| panic!("{expr}"));
            let recursive = eval_recursive(&expr, &provider);
            match pass.kernel_pass(&stored) {
                Some(by_kernels) => {
                    kernel_answers += 1;
                    assert!(by_kernels.columns().is_some(), "{expr}");
                    let recursive = recursive.as_ref().unwrap_or_else(|err| {
                        panic!("{expr}: the kernels answered, the recursive evaluator says {err}")
                    });
                    assert_eq!(printed(&by_kernels), printed(&recursive.rows), "{expr}");
                    assert_eq!(by_kernels, recursive.rows, "{expr}");
                }
                None => bails += 1,
            }
            let pushed = eval_pushed(&expr, &provider);
            match (&recursive, &pushed) {
                (Ok(r), Ok(p)) => {
                    assert_eq!(printed(&p.rows), printed(&r.rows), "{expr}");
                    assert_eq!(p.rows_scanned, r.rows_scanned, "{expr}");
                    answers += 1;
                }
                (Err(r), Err(p)) => {
                    assert_eq!(p.to_string(), r.to_string(), "{expr}");
                    errors += 1;
                }
                _ => panic!("{expr}: recursive {recursive:?}, pushed {pushed:?}"),
            }
        }
        assert!(
            errors > 40 && answers > 40 && kernel_answers > 40 && bails > 40,
            "{errors} errors, {answers} answers; the kernels answered {kernel_answers} \
             and bailed {bails} times"
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

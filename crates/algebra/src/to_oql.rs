//! Conversion from the logical algebra back to OQL.
//!
//! The partial-evaluation semantics (§4) require that "each logical
//! operation has a corresponding OQL expression": when query processing
//! stops at the deadline, the remaining plan is converted back into a
//! high-level query and returned — the answer to the query *is* a query.
//! This module provides that final conversion step; together with
//! [`crate::physical::PhysicalExpr::to_logical`] and the `disco-oql`
//! printer it closes the loop physical → logical → OQL text.

use disco_oql::ast::{AggFunc, BinaryOp, Expr as OqlExpr, FromBinding, SelectExpr};

use crate::logical::LogicalExpr;
use crate::scalar::{AggKind, ScalarExpr, ScalarOp};

/// Converts a logical plan into an OQL expression.
///
/// The conversion is total: every operator has an OQL rendering.  Shapes
/// that OQL cannot express directly (a source-side join kept in a
/// residual plan) are rendered as a generic `join(...)` call so the text
/// still parses.
#[must_use]
pub fn logical_to_oql(expr: &LogicalExpr) -> OqlExpr {
    match expr {
        LogicalExpr::Get { collection } => OqlExpr::Ident(collection.clone()),
        LogicalExpr::Data(bag) => {
            OqlExpr::BagConstruct(bag.iter().map(|v| OqlExpr::Literal(v.clone())).collect())
        }
        // `submit` is location metadata; in OQL the location is implied by
        // the extent name, so the wrapper boundary disappears in the text.
        LogicalExpr::Submit { expr, .. } => logical_to_oql(expr),
        LogicalExpr::Union(items) => OqlExpr::Union(items.iter().map(logical_to_oql).collect()),
        LogicalExpr::Extents(node) => logical_to_oql(&node.to_union()),
        LogicalExpr::Flatten(inner) => OqlExpr::Flatten(Box::new(logical_to_oql(inner))),
        LogicalExpr::Aggregate { func, input } => {
            OqlExpr::Aggregate(agg_to_oql(*func), Box::new(logical_to_oql(input)))
        }
        LogicalExpr::Distinct(inner) => match logical_to_oql(inner) {
            OqlExpr::Select(mut sel) => {
                sel.distinct = true;
                OqlExpr::Select(sel)
            }
            other => OqlExpr::Select(SelectExpr {
                distinct: true,
                projection: Box::new(OqlExpr::ident("t")),
                bindings: vec![FromBinding {
                    var: "t".into(),
                    collection: other,
                }],
                where_clause: None,
            }),
        },
        LogicalExpr::MapProject { input, projection } => {
            let (bindings, predicate) = select_parts(input);
            OqlExpr::Select(SelectExpr {
                distinct: false,
                projection: Box::new(scalar_to_oql(projection, None)),
                bindings,
                where_clause: predicate.map(Box::new),
            })
        }
        LogicalExpr::Bind { .. } | LogicalExpr::Join { .. } => {
            // An environment-producing plan with no projection above it:
            // render as `select <first var> from …`.
            let (bindings, predicate) = select_parts(expr);
            let proj = bindings
                .first()
                .map_or_else(|| OqlExpr::ident("t"), |b| OqlExpr::Ident(b.var.clone()));
            OqlExpr::Select(SelectExpr {
                distinct: false,
                projection: Box::new(proj),
                bindings,
                where_clause: predicate.map(Box::new),
            })
        }
        LogicalExpr::Filter { input, predicate } => {
            // Source-form filter: `select t from t in <input> where p[t]`.
            OqlExpr::Select(SelectExpr {
                distinct: false,
                projection: Box::new(OqlExpr::ident("t")),
                bindings: vec![FromBinding {
                    var: "t".into(),
                    collection: logical_to_oql(input),
                }],
                where_clause: Some(Box::new(scalar_to_oql(predicate, Some("t")))),
            })
        }
        LogicalExpr::Project { input, columns } => {
            // Merge a directly nested source filter into the same select.
            let (collection, where_clause) = match input.as_ref() {
                LogicalExpr::Filter {
                    input: inner,
                    predicate,
                } => (
                    logical_to_oql(inner),
                    Some(Box::new(scalar_to_oql(predicate, Some("t")))),
                ),
                other => (logical_to_oql(other), None),
            };
            let projection = if columns.len() == 1 {
                OqlExpr::ident("t").path(columns[0].clone())
            } else {
                OqlExpr::StructConstruct(
                    columns
                        .iter()
                        .map(|c| (c.clone(), OqlExpr::ident("t").path(c.clone())))
                        .collect(),
                )
            };
            OqlExpr::Select(SelectExpr {
                distinct: false,
                projection: Box::new(projection),
                bindings: vec![FromBinding {
                    var: "t".into(),
                    collection,
                }],
                where_clause,
            })
        }
        LogicalExpr::SourceJoin { left, right, on } => {
            let cond = on
                .iter()
                .map(|(l, r)| format!("{l}={r}"))
                .collect::<Vec<_>>()
                .join(",");
            OqlExpr::Call(
                "join".into(),
                vec![
                    logical_to_oql(left),
                    logical_to_oql(right),
                    OqlExpr::literal(cond),
                ],
            )
        }
    }
}

/// Decomposes an environment-producing plan (binds, mediator joins,
/// env-form filters) into `from` bindings plus a combined predicate.
fn select_parts(expr: &LogicalExpr) -> (Vec<FromBinding>, Option<OqlExpr>) {
    match expr {
        LogicalExpr::Bind { var, input } => match peel_transparent(input) {
            // Absorb a source-form filter under the bind into the where
            // clause, re-qualifying attributes with the bound variable so
            // the residual reads like the original query.
            LogicalExpr::Filter {
                input: inner,
                predicate,
            } if predicate.is_pushable() => (
                vec![FromBinding {
                    var: var.clone(),
                    collection: logical_to_oql(peel_transparent(inner)),
                }],
                Some(scalar_to_oql(predicate, Some(var))),
            ),
            other => (
                vec![FromBinding {
                    var: var.clone(),
                    collection: logical_to_oql(other),
                }],
                None,
            ),
        },
        LogicalExpr::Filter { input, predicate } => {
            let (bindings, existing) = select_parts(input);
            let this = scalar_to_oql(predicate, None);
            (bindings, Some(combine_and(existing, this)))
        }
        LogicalExpr::Join {
            left,
            right,
            predicate,
        } => {
            let (mut bindings, left_pred) = select_parts(left);
            let (right_bindings, right_pred) = select_parts(right);
            bindings.extend(right_bindings);
            let mut combined = left_pred;
            if let Some(rp) = right_pred {
                combined = Some(combine_and(combined, rp));
            }
            if let Some(jp) = predicate {
                combined = Some(combine_and(combined, scalar_to_oql(jp, None)));
            }
            (bindings, combined)
        }
        other => (
            vec![FromBinding {
                var: "t".into(),
                collection: logical_to_oql(other),
            }],
            None,
        ),
    }
}

/// Skips layers that do not change which rows a range variable sees when
/// printing residual queries: the `submit` location marker and narrowing
/// projections inserted by the compiler (the enclosing query only ever
/// references the projected attributes, so dropping the projection from the
/// printed text is sound and matches the paper's residual examples).
fn peel_transparent(expr: &LogicalExpr) -> &LogicalExpr {
    match expr {
        LogicalExpr::Submit { expr, .. } => peel_transparent(expr),
        LogicalExpr::Project { input, .. } => peel_transparent(input),
        other => other,
    }
}

fn combine_and(existing: Option<OqlExpr>, new: OqlExpr) -> OqlExpr {
    match existing {
        Some(e) => OqlExpr::binary(BinaryOp::And, e, new),
        None => new,
    }
}

/// Converts a scalar expression to OQL.  When `attr_var` is given, bare
/// source attributes are qualified as `attr_var.attribute`.
#[must_use]
pub fn scalar_to_oql(expr: &ScalarExpr, attr_var: Option<&str>) -> OqlExpr {
    match expr {
        ScalarExpr::Const(v) => OqlExpr::Literal(v.clone()),
        ScalarExpr::Attr(a) => match attr_var {
            Some(v) => OqlExpr::ident(v).path(a.clone()),
            None => OqlExpr::Ident(a.clone()),
        },
        ScalarExpr::Var(v) => OqlExpr::Ident(v.clone()),
        ScalarExpr::Field(base, field) => {
            OqlExpr::Path(Box::new(scalar_to_oql(base, attr_var)), field.clone())
        }
        ScalarExpr::Binary { op, left, right } => OqlExpr::binary(
            scalar_op_to_oql(*op),
            scalar_to_oql(left, attr_var),
            scalar_to_oql(right, attr_var),
        ),
        ScalarExpr::Not(inner) => OqlExpr::Not(Box::new(scalar_to_oql(inner, attr_var))),
        ScalarExpr::StructLit(fields) => OqlExpr::StructConstruct(
            fields
                .iter()
                .map(|(n, e)| (n.as_ref().to_owned(), scalar_to_oql(e, attr_var)))
                .collect(),
        ),
        ScalarExpr::Agg(kind, plan) => {
            OqlExpr::Aggregate(agg_to_oql(*kind), Box::new(logical_to_oql(plan)))
        }
        ScalarExpr::Call(name, args) => OqlExpr::Call(
            name.clone(),
            args.iter().map(|a| scalar_to_oql(a, attr_var)).collect(),
        ),
    }
}

/// Maps an algebra aggregate to the OQL aggregate.
#[must_use]
pub fn agg_to_oql(kind: AggKind) -> AggFunc {
    match kind {
        AggKind::Sum => AggFunc::Sum,
        AggKind::Count => AggFunc::Count,
        AggKind::Avg => AggFunc::Avg,
        AggKind::Min => AggFunc::Min,
        AggKind::Max => AggFunc::Max,
    }
}

/// Maps an OQL aggregate to the algebra aggregate.
#[must_use]
pub fn agg_from_oql(func: AggFunc) -> AggKind {
    match func {
        AggFunc::Sum => AggKind::Sum,
        AggFunc::Count => AggKind::Count,
        AggFunc::Avg => AggKind::Avg,
        AggFunc::Min => AggKind::Min,
        AggFunc::Max => AggKind::Max,
    }
}

/// Maps an algebra scalar operator to the OQL binary operator.
#[must_use]
pub fn scalar_op_to_oql(op: ScalarOp) -> BinaryOp {
    match op {
        ScalarOp::Add => BinaryOp::Add,
        ScalarOp::Sub => BinaryOp::Sub,
        ScalarOp::Mul => BinaryOp::Mul,
        ScalarOp::Div => BinaryOp::Div,
        ScalarOp::Eq => BinaryOp::Eq,
        ScalarOp::NotEq => BinaryOp::NotEq,
        ScalarOp::Lt => BinaryOp::Lt,
        ScalarOp::Le => BinaryOp::Le,
        ScalarOp::Gt => BinaryOp::Gt,
        ScalarOp::Ge => BinaryOp::Ge,
        ScalarOp::And => BinaryOp::And,
        ScalarOp::Or => BinaryOp::Or,
    }
}

/// Maps an OQL binary operator to the algebra scalar operator.
#[must_use]
pub fn scalar_op_from_oql(op: BinaryOp) -> ScalarOp {
    match op {
        BinaryOp::Add => ScalarOp::Add,
        BinaryOp::Sub => ScalarOp::Sub,
        BinaryOp::Mul => ScalarOp::Mul,
        BinaryOp::Div => ScalarOp::Div,
        BinaryOp::Eq => ScalarOp::Eq,
        BinaryOp::NotEq => ScalarOp::NotEq,
        BinaryOp::Lt => ScalarOp::Lt,
        BinaryOp::Le => ScalarOp::Le,
        BinaryOp::Gt => ScalarOp::Gt,
        BinaryOp::Ge => ScalarOp::Ge,
        BinaryOp::And => ScalarOp::And,
        BinaryOp::Or => ScalarOp::Or,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::data_of;
    use disco_oql::{parse_query, print_expr};

    fn salary_gt_10_src() -> ScalarExpr {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(10i64),
        )
    }

    #[test]
    fn paper_partial_answer_prints_as_expected() {
        // The §1.3 partial answer: the residual branch for person0 plus the
        // data already obtained from person1.
        let residual_branch = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .filter(salary_gt_10_src())
            .bind("y")
            .map_project(ScalarExpr::var_field("y", "name"));
        let partial = LogicalExpr::Union(vec![residual_branch, data_of(["Sam"])]);
        let oql = logical_to_oql(&partial);
        let text = print_expr(&oql);
        assert!(
            text.contains("select y.name from y in"),
            "unexpected text: {text}"
        );
        assert!(text.contains("y.salary > 10"), "unexpected text: {text}");
        assert!(text.ends_with("bag(\"Sam\"))"), "unexpected text: {text}");
        // The printed partial answer must re-parse (it is resubmitted as a query).
        assert!(parse_query(&text).is_ok());
    }

    #[test]
    fn mediator_side_plan_renders_like_the_original_query() {
        // map(x.name, bind(x, select(salary>10, submit(r0, get(person0)))))
        let plan = LogicalExpr::Bind {
            var: "x".into(),
            input: Box::new(
                LogicalExpr::get("person0")
                    .submit("r0", "w0", "person0")
                    .filter(salary_gt_10_src()),
            ),
        }
        .map_project(ScalarExpr::var_field("x", "name"));
        let text = print_expr(&logical_to_oql(&plan));
        assert_eq!(text, "select x.name from x in person0 where x.salary > 10");
    }

    #[test]
    fn source_form_project_and_filter_render_as_one_select() {
        let plan = LogicalExpr::get("person0")
            .filter(salary_gt_10_src())
            .project(["name"]);
        let text = print_expr(&logical_to_oql(&plan));
        assert_eq!(text, "select t.name from t in person0 where t.salary > 10");
        let multi = LogicalExpr::get("person0").project(["name", "salary"]);
        let text = print_expr(&logical_to_oql(&multi));
        assert_eq!(
            text,
            "select struct(name: t.name, salary: t.salary) from t in person0"
        );
    }

    #[test]
    fn joins_render_with_all_bindings_and_predicates() {
        let plan = LogicalExpr::Join {
            left: Box::new(
                LogicalExpr::get("person0")
                    .submit("r0", "w0", "person0")
                    .bind("x"),
            ),
            right: Box::new(
                LogicalExpr::get("person1")
                    .submit("r1", "w0", "person1")
                    .bind("y"),
            ),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        }
        .map_project(ScalarExpr::StructLit(vec![
            ("name".into(), ScalarExpr::var_field("x", "name")),
            (
                "salary".into(),
                ScalarExpr::binary(
                    ScalarOp::Add,
                    ScalarExpr::var_field("x", "salary"),
                    ScalarExpr::var_field("y", "salary"),
                ),
            ),
        ]));
        let text = print_expr(&logical_to_oql(&plan));
        assert_eq!(
            text,
            "select struct(name: x.name, salary: x.salary + y.salary) from x in person0, y in person1 where x.id = y.id"
        );
    }

    #[test]
    fn data_unions_and_aggregates_render() {
        let plan = LogicalExpr::Aggregate {
            func: AggKind::Sum,
            input: Box::new(LogicalExpr::Union(vec![
                data_of([1i64, 2i64]),
                data_of([3i64]),
            ])),
        };
        let text = print_expr(&logical_to_oql(&plan));
        assert_eq!(text, "sum(union(bag(1, 2), bag(3)))");
        assert!(parse_query(&text).is_ok());
    }

    #[test]
    fn distinct_sets_the_flag_on_selects() {
        let plan = LogicalExpr::Distinct(Box::new(
            LogicalExpr::get("person0")
                .submit("r0", "w0", "person0")
                .bind("x")
                .map_project(ScalarExpr::var_field("x", "name")),
        ));
        let text = print_expr(&logical_to_oql(&plan));
        assert_eq!(text, "select distinct x.name from x in person0");
    }

    #[test]
    fn source_join_falls_back_to_a_parseable_call() {
        let plan = LogicalExpr::SourceJoin {
            left: Box::new(LogicalExpr::get("employee0")),
            right: Box::new(LogicalExpr::get("manager0")),
            on: vec![("dept".into(), "dept".into())],
        };
        let text = print_expr(&logical_to_oql(&plan));
        assert_eq!(text, "join(employee0, manager0, \"dept=dept\")");
        assert!(parse_query(&text).is_ok());
    }

    #[test]
    fn operator_mappings_round_trip() {
        for op in [
            ScalarOp::Add,
            ScalarOp::Sub,
            ScalarOp::Mul,
            ScalarOp::Div,
            ScalarOp::Eq,
            ScalarOp::NotEq,
            ScalarOp::Lt,
            ScalarOp::Le,
            ScalarOp::Gt,
            ScalarOp::Ge,
            ScalarOp::And,
            ScalarOp::Or,
        ] {
            assert_eq!(scalar_op_from_oql(scalar_op_to_oql(op)), op);
        }
        for agg in [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ] {
            assert_eq!(agg_from_oql(agg_to_oql(agg)), agg);
        }
    }
}

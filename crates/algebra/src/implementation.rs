//! Implementation rules: lowering the logical algebra to the physical
//! algebra (§3.1, §3.3).
//!
//! "Logical operations are transformed into physical expressions using
//! implementation rules."  The interesting choices are:
//!
//! * `submit` → `exec` (the wrapper call),
//! * mediator joins → hash join when an equi-join key pair can be split
//!   across the two inputs, nested-loop join otherwise,
//! * an [`Extents`](crate::Extents) node → one fan-out,
//! * everything else maps one-to-one onto its `mk*` algorithm.

use std::sync::Arc;

use crate::logical::LogicalExpr;
use crate::physical::{FanOut, PhysicalExpr};
use crate::scalar::{ScalarExpr, ScalarOp};
use crate::{AlgebraError, Result};

/// Lowers a logical plan to a physical plan.
///
/// An [`Extents`](crate::Extents) node becomes a [`FanOut`] over its
/// members and classes, and a union a `mkunion`: the classes of an
/// explicit union's branches are found before, when normalization folds
/// it into a node ([`crate::rules::simplify_union`]).
///
/// # Errors
///
/// Returns [`AlgebraError::Unsupported`] if the plan contains a bare
/// `get` outside a `submit` — every source access must go through a
/// wrapper.
pub fn lower(logical: &LogicalExpr) -> Result<PhysicalExpr> {
    match logical {
        LogicalExpr::Get { collection } => Err(AlgebraError::Unsupported(format!(
            "get({collection}) outside submit: every source access must go through a wrapper"
        ))),
        LogicalExpr::Data(bag) => Ok(PhysicalExpr::MemScan(bag.clone())),
        LogicalExpr::Submit {
            repository,
            wrapper,
            extent,
            expr,
        } => Ok(PhysicalExpr::Exec {
            repository: repository.clone(),
            wrapper: wrapper.clone(),
            extent: extent.clone(),
            logical: Arc::new((**expr).clone()),
        }),
        LogicalExpr::Filter { input, predicate } => Ok(PhysicalExpr::FilterOp {
            input: Box::new(lower(input)?),
            predicate: predicate.clone(),
        }),
        LogicalExpr::Project { input, columns } => Ok(PhysicalExpr::ProjectOp {
            input: Box::new(lower(input)?),
            columns: columns.clone(),
        }),
        LogicalExpr::MapProject { input, projection } => Ok(PhysicalExpr::MapOp {
            input: Box::new(lower(input)?),
            projection: projection.clone(),
        }),
        LogicalExpr::Bind { var, input } => Ok(PhysicalExpr::BindOp {
            var: var.clone(),
            input: Box::new(lower(input)?),
        }),
        LogicalExpr::SourceJoin { left, right, on } => Ok(PhysicalExpr::MergeTuplesJoin {
            left: Box::new(lower(left)?),
            right: Box::new(lower(right)?),
            on: on.clone(),
        }),
        LogicalExpr::Join {
            left,
            right,
            predicate,
        } => lower_join(left, right, predicate.as_ref()),
        LogicalExpr::Union(items) => Ok(PhysicalExpr::MkUnion(
            items.iter().map(lower).collect::<Result<_>>()?,
        )),
        LogicalExpr::Flatten(inner) => Ok(PhysicalExpr::MkFlatten(Box::new(lower(inner)?))),
        LogicalExpr::Distinct(inner) => Ok(PhysicalExpr::MkDistinct(Box::new(lower(inner)?))),
        LogicalExpr::Aggregate { func, input } => Ok(PhysicalExpr::MkAggregate {
            func: *func,
            input: Box::new(lower(input)?),
        }),
        LogicalExpr::Extents(node) => Ok(PhysicalExpr::FanOut(FanOut {
            members: Arc::clone(&node.members),
            templates: node.templates.iter().map(lower).collect::<Result<_>>()?,
        })),
    }
}

fn lower_join(
    left: &LogicalExpr,
    right: &LogicalExpr,
    predicate: Option<&ScalarExpr>,
) -> Result<PhysicalExpr> {
    let left_vars = bound_vars(left);
    let right_vars = bound_vars(right);
    if let Some(pred) = predicate {
        if let Some((left_key, right_key, residual)) =
            split_equi_join(pred, &left_vars, &right_vars)
        {
            return Ok(PhysicalExpr::HashJoin {
                left: Box::new(lower(left)?),
                right: Box::new(lower(right)?),
                left_key,
                right_key,
                residual,
            });
        }
    }
    Ok(PhysicalExpr::NestedLoopJoin {
        left: Box::new(lower(left)?),
        right: Box::new(lower(right)?),
        predicate: predicate.cloned(),
    })
}

/// Whether [`lower`] makes the mediator join of `left` and `right` on
/// `predicate` a hash join rather than a nested-loop join.
#[must_use]
pub fn is_hash_join(
    left: &LogicalExpr,
    right: &LogicalExpr,
    predicate: Option<&ScalarExpr>,
) -> bool {
    predicate
        .is_some_and(|pred| split_equi_join(pred, &bound_vars(left), &bound_vars(right)).is_some())
}

/// The range variables bound (by `Bind`) anywhere in a plan.
#[must_use]
pub fn bound_vars(plan: &LogicalExpr) -> Vec<String> {
    let mut out = Vec::new();
    plan.walk(&mut |e| {
        if let LogicalExpr::Bind { var, .. } = e {
            if !out.contains(var) {
                out.push(var.clone());
            }
        }
    });
    out
}

/// The range variables referenced by a scalar expression.
#[must_use]
pub fn referenced_vars(expr: &ScalarExpr) -> Vec<String> {
    fn walk(e: &ScalarExpr, out: &mut Vec<String>) {
        match e {
            ScalarExpr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            ScalarExpr::Field(base, _) => walk(base, out),
            ScalarExpr::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
            ScalarExpr::Not(inner) => walk(inner, out),
            ScalarExpr::StructLit(fields) => {
                for (_, e) in fields {
                    walk(e, out);
                }
            }
            ScalarExpr::Call(_, args) => {
                for a in args {
                    walk(a, out);
                }
            }
            ScalarExpr::Const(_) | ScalarExpr::Attr(_) | ScalarExpr::Agg(..) => {}
        }
    }
    let mut out = Vec::new();
    walk(expr, &mut out);
    out
}

/// Splits a join predicate into `(left_key, right_key, residual)` when it
/// contains an equality whose two sides reference only variables bound on
/// one input each.  Conjunctions are searched left-to-right; remaining
/// conjuncts become the residual predicate.
fn split_equi_join(
    pred: &ScalarExpr,
    left_vars: &[String],
    right_vars: &[String],
) -> Option<(ScalarExpr, ScalarExpr, Option<ScalarExpr>)> {
    let conjuncts = flatten_conjunction(pred);
    for (i, conjunct) in conjuncts.iter().enumerate() {
        if let ScalarExpr::Binary {
            op: ScalarOp::Eq,
            left,
            right,
        } = conjunct
        {
            let lvars = referenced_vars(left);
            let rvars = referenced_vars(right);
            let l_in_left = !lvars.is_empty() && lvars.iter().all(|v| left_vars.contains(v));
            let r_in_right = !rvars.is_empty() && rvars.iter().all(|v| right_vars.contains(v));
            let l_in_right = !lvars.is_empty() && lvars.iter().all(|v| right_vars.contains(v));
            let r_in_left = !rvars.is_empty() && rvars.iter().all(|v| left_vars.contains(v));
            let (lk, rk) = if l_in_left && r_in_right {
                ((**left).clone(), (**right).clone())
            } else if l_in_right && r_in_left {
                ((**right).clone(), (**left).clone())
            } else {
                continue;
            };
            let rest: Vec<ScalarExpr> = conjuncts
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, c)| (*c).clone())
                .collect();
            let residual = rest.into_iter().reduce(|a, b| ScalarExpr::Binary {
                op: ScalarOp::And,
                left: Box::new(a),
                right: Box::new(b),
            });
            return Some((lk, rk, residual));
        }
    }
    None
}

/// Flattens nested `and` into a list of conjuncts.
fn flatten_conjunction(pred: &ScalarExpr) -> Vec<&ScalarExpr> {
    match pred {
        ScalarExpr::Binary {
            op: ScalarOp::And,
            left,
            right,
        } => {
            let mut out = flatten_conjunction(left);
            out.extend(flatten_conjunction(right));
            out
        }
        other => vec![other],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_value::Bag;

    fn submit(extent: &str, repo: &str) -> LogicalExpr {
        LogicalExpr::get(extent).submit(repo, "w0", extent)
    }

    #[test]
    fn paper_plan_lowers_to_paper_physical() {
        // union(submit(r0, project(name, get(person0))),
        //       project(name, submit(r1, get(person1))))
        let logical = LogicalExpr::Union(vec![
            LogicalExpr::get("person0")
                .project(["name"])
                .submit("r0", "w0", "person0"),
            LogicalExpr::get("person1")
                .submit("r1", "w0", "person1")
                .project(["name"]),
        ]);
        let physical = lower(&logical).unwrap();
        assert_eq!(
            physical.to_string(),
            "mkunion(exec(field(r0), project(name, get(person0))), mkproj(name, exec(field(r1), get(person1))))"
        );
        // Lowering then converting back to logical is the identity on this shape.
        assert_eq!(physical.to_logical(), logical);
    }

    #[test]
    fn bare_get_is_rejected() {
        let err = lower(&LogicalExpr::get("person0")).unwrap_err();
        assert!(matches!(err, AlgebraError::Unsupported(_)));
    }

    #[test]
    fn equi_join_uses_hash_join() {
        let left = submit("person0", "r0").bind("x");
        let right = submit("person1", "r1").bind("y");
        let pred = ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        );
        let join = LogicalExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: Some(pred),
        };
        let physical = lower(&join).unwrap();
        assert!(matches!(physical, PhysicalExpr::HashJoin { .. }));
    }

    #[test]
    fn equi_join_with_reversed_sides_still_hashes() {
        let left = submit("person0", "r0").bind("x");
        let right = submit("person1", "r1").bind("y");
        // y.id = x.id (keys written right-to-left).
        let pred = ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("y", "id"),
            ScalarExpr::var_field("x", "id"),
        );
        let join = LogicalExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: Some(pred),
        };
        match lower(&join).unwrap() {
            PhysicalExpr::HashJoin {
                left_key,
                right_key,
                ..
            } => {
                assert_eq!(left_key, ScalarExpr::var_field("x", "id"));
                assert_eq!(right_key, ScalarExpr::var_field("y", "id"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn conjunction_keeps_residual_predicate() {
        let left = submit("person0", "r0").bind("x");
        let right = submit("person1", "r1").bind("y");
        let pred = ScalarExpr::binary(
            ScalarOp::And,
            ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            ),
            ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::constant(10i64),
            ),
        );
        let join = LogicalExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: Some(pred),
        };
        match lower(&join).unwrap() {
            PhysicalExpr::HashJoin { residual, .. } => assert!(residual.is_some()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_equi_join_falls_back_to_nested_loop() {
        let left = submit("person0", "r0").bind("x");
        let right = submit("person1", "r1").bind("y");
        let pred = ScalarExpr::binary(
            ScalarOp::Lt,
            ScalarExpr::var_field("x", "salary"),
            ScalarExpr::var_field("y", "salary"),
        );
        let join = LogicalExpr::Join {
            left: Box::new(left.clone()),
            right: Box::new(right.clone()),
            predicate: Some(pred),
        };
        assert!(matches!(
            lower(&join).unwrap(),
            PhysicalExpr::NestedLoopJoin { .. }
        ));
        let cross = LogicalExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: None,
        };
        assert!(matches!(
            lower(&cross).unwrap(),
            PhysicalExpr::NestedLoopJoin { .. }
        ));
    }

    #[test]
    fn data_and_other_operators_lower_one_to_one() {
        let plan = LogicalExpr::Aggregate {
            func: crate::scalar::AggKind::Sum,
            input: Box::new(LogicalExpr::Distinct(Box::new(LogicalExpr::Flatten(
                Box::new(LogicalExpr::Data(Bag::new())),
            )))),
        };
        let physical = lower(&plan).unwrap();
        assert_eq!(
            physical.to_string(),
            "mkagg(sum, mkdistinct(mkflatten(memscan(Bag()))))"
        );
        assert_eq!(physical.to_logical(), plan);
    }

    #[test]
    fn bound_vars_and_referenced_vars() {
        let plan = submit("person0", "r0").bind("x");
        assert_eq!(bound_vars(&plan), vec!["x"]);
        let e = ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        );
        assert_eq!(referenced_vars(&e), vec!["x", "y"]);
    }
}

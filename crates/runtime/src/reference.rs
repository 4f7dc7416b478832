//! The bag-at-a-time **reference evaluator**.
//!
//! This is the seed implementation the streaming cursor engine
//! ([`crate::pipeline`]) replaced: a recursive evaluator that materializes
//! a full [`Bag`] at every operator boundary.  It is kept — unchanged in
//! semantics — as the executable specification of the physical algebra:
//! the differential tests (`tests/streaming_equivalence.rs` and the join
//! regression suite) assert that the streaming engine produces multiset-
//! equal answers and identical partial-evaluation residuals on randomized
//! plans.  Production paths never call it.

use std::collections::HashMap;

use disco_algebra::{
    eval_scalar_with, lower, truthy, AlgebraError, Env, LogicalExpr, PhysicalExpr, ScalarExpr,
};
use disco_value::{Bag, StructValue, Value};

use crate::exec::{ExecOutcome, ResolvedExecs};
use crate::{Result, RuntimeError};

/// Evaluates a physical plan against resolved `exec` outcomes,
/// materializing every intermediate result.
///
/// # Errors
///
/// Returns an error if the plan references an unresolved or unavailable
/// `exec` call, or on evaluation errors.
pub fn evaluate_physical(plan: &PhysicalExpr, resolved: &ResolvedExecs) -> Result<Bag> {
    evaluate_with_outer(plan, resolved, &Env::root())
}

/// Evaluates a physical plan with an outer environment (used for
/// correlated sub-queries).
///
/// # Errors
///
/// See [`evaluate_physical`].
pub fn evaluate_with_outer(
    plan: &PhysicalExpr,
    resolved: &ResolvedExecs,
    outer: &Env<'_>,
) -> Result<Bag> {
    match plan {
        PhysicalExpr::Exec {
            repository,
            extent,
            logical,
            ..
        } => {
            match resolved.outcome_of(repository, extent, logical) {
                Some(ExecOutcome::Rows(rows)) => Ok(rows.clone()),
                // The reference evaluator predates streamed resolution and
                // only consumes finalized outcomes.
                Some(ExecOutcome::Pending(_)) => Err(RuntimeError::Unsupported(format!(
                    "pending (streaming) exec call to {repository} reached the reference evaluator"
                ))),
                Some(ExecOutcome::Unavailable) => Err(RuntimeError::Unsupported(format!(
                    "exec call to unavailable source {repository} reached the evaluator"
                ))),
                None => Err(RuntimeError::Unsupported(format!(
                    "unresolved exec call to {repository} ({extent})"
                ))),
            }
        }
        PhysicalExpr::MemScan(bag) => Ok(bag.clone()),
        PhysicalExpr::FilterOp { input, predicate } => {
            let rows = evaluate_with_outer(input, resolved, outer)?;
            let mut out = Bag::with_capacity(rows.len());
            for row in &rows {
                let env = outer.with_value(row);
                let keep = eval_row_scalar(predicate, &env, resolved)?;
                if truthy(&keep) {
                    out.insert(row.clone());
                }
            }
            Ok(out)
        }
        PhysicalExpr::ProjectOp { input, columns } => {
            let rows = evaluate_with_outer(input, resolved, outer)?;
            let mut out = Bag::with_capacity(rows.len());
            for row in &rows {
                let s = row.as_struct().map_err(AlgebraError::from)?;
                let projected = s
                    .project(columns.iter().map(String::as_str))
                    .map_err(AlgebraError::from)?;
                out.insert(Value::Struct(projected));
            }
            Ok(out)
        }
        PhysicalExpr::MapOp { input, projection } => {
            let rows = evaluate_with_outer(input, resolved, outer)?;
            let mut out = Bag::with_capacity(rows.len());
            for row in &rows {
                let env = outer.with_value(row);
                out.insert(eval_row_scalar(projection, &env, resolved)?);
            }
            Ok(out)
        }
        PhysicalExpr::BindOp { var, input } => {
            let rows = evaluate_with_outer(input, resolved, outer)?;
            let mut out = Bag::with_capacity(rows.len());
            let name: std::sync::Arc<str> = std::sync::Arc::from(var.as_str());
            for row in &rows {
                let env = StructValue::new(vec![(std::sync::Arc::clone(&name), row.clone())])
                    .map_err(AlgebraError::from)?;
                out.insert(Value::Struct(env));
            }
            Ok(out)
        }
        PhysicalExpr::NestedLoopJoin {
            left,
            right,
            predicate,
        } => {
            let left_rows = evaluate_with_outer(left, resolved, outer)?;
            let right_rows = evaluate_with_outer(right, resolved, outer)?;
            let mut out = Bag::new();
            for l in &left_rows {
                let ls = l.as_struct().map_err(AlgebraError::from)?;
                let lenv = outer.with_row(ls);
                for r in &right_rows {
                    let rs = r.as_struct().map_err(AlgebraError::from)?;
                    let keep = match predicate {
                        Some(p) => {
                            let env = lenv.with_row(rs);
                            truthy(&eval_row_scalar(p, &env, resolved)?)
                        }
                        None => true,
                    };
                    if keep {
                        out.insert(Value::Struct(ls.merged(rs)));
                    }
                }
            }
            Ok(out)
        }
        PhysicalExpr::HashJoin {
            left,
            right,
            left_key,
            right_key,
            residual,
        } => {
            let left_rows = evaluate_with_outer(left, resolved, outer)?;
            let right_rows = evaluate_with_outer(right, resolved, outer)?;
            let mut table: HashMap<Value, Vec<&StructValue>> =
                HashMap::with_capacity(right_rows.len());
            for r in &right_rows {
                let rs = r.as_struct().map_err(AlgebraError::from)?;
                let env = outer.with_row(rs);
                let key = eval_row_scalar(right_key, &env, resolved)?;
                table.entry(key).or_default().push(rs);
            }
            let mut out = Bag::new();
            for l in &left_rows {
                let ls = l.as_struct().map_err(AlgebraError::from)?;
                let lenv = outer.with_row(ls);
                let key = eval_row_scalar(left_key, &lenv, resolved)?;
                if let Some(matches) = table.get(&key) {
                    for rs in matches {
                        let keep = match residual {
                            Some(p) => {
                                let env = lenv.with_row(rs);
                                truthy(&eval_row_scalar(p, &env, resolved)?)
                            }
                            None => true,
                        };
                        if keep {
                            out.insert(Value::Struct(ls.merged(rs)));
                        }
                    }
                }
            }
            Ok(out)
        }
        PhysicalExpr::MergeTuplesJoin { left, right, on } => {
            let left_rows = evaluate_with_outer(left, resolved, outer)?;
            let right_rows = evaluate_with_outer(right, resolved, outer)?;
            let mut out = Bag::new();
            for l in &left_rows {
                let ls = l.as_struct().map_err(AlgebraError::from)?;
                for r in &right_rows {
                    let rs = r.as_struct().map_err(AlgebraError::from)?;
                    let mut matches = true;
                    for (lattr, rattr) in on {
                        let lv = ls.field(lattr).map_err(AlgebraError::from)?;
                        let rv = rs.field(rattr).map_err(AlgebraError::from)?;
                        if lv != rv {
                            matches = false;
                            break;
                        }
                    }
                    if matches {
                        let merged = ls
                            .merge_with_prefix(rs, "right")
                            .map_err(AlgebraError::from)?;
                        out.insert(Value::Struct(merged));
                    }
                }
            }
            Ok(out)
        }
        PhysicalExpr::MkUnion(items) => {
            let mut out = Bag::new();
            for item in items {
                let bag = evaluate_with_outer(item, resolved, outer)?;
                if out.is_empty() {
                    out = bag;
                } else {
                    out.extend(bag);
                }
            }
            Ok(out)
        }
        PhysicalExpr::FanOut(node) => {
            let mut out = Bag::new();
            for i in 0..node.members.len() {
                out.extend(evaluate_with_outer(&node.branch(i), resolved, outer)?);
            }
            Ok(out)
        }
        PhysicalExpr::MkFlatten(inner) => {
            Ok(evaluate_with_outer(inner, resolved, outer)?.flatten())
        }
        PhysicalExpr::MkDistinct(inner) => {
            Ok(evaluate_with_outer(inner, resolved, outer)?.distinct())
        }
        PhysicalExpr::MkAggregate { func, input } => {
            let rows = evaluate_with_outer(input, resolved, outer)?;
            Ok([func.apply(&rows).map_err(RuntimeError::Algebra)?]
                .into_iter()
                .collect())
        }
    }
}

/// Evaluates a logical plan by lowering it and running the reference
/// evaluator.
///
/// # Errors
///
/// See [`evaluate_physical`].
pub fn evaluate_logical(
    plan: &LogicalExpr,
    resolved: &ResolvedExecs,
    outer: &Env<'_>,
) -> Result<Bag> {
    let physical = lower(plan).map_err(RuntimeError::Algebra)?;
    evaluate_with_outer(&physical, resolved, outer)
}

/// Evaluates a scalar expression against a row environment, resolving
/// aggregate sub-queries through the reference evaluator.
fn eval_row_scalar(expr: &ScalarExpr, env: &Env<'_>, resolved: &ResolvedExecs) -> Result<Value> {
    let callback = |plan: &LogicalExpr, outer: &Env<'_>| {
        evaluate_logical(plan, resolved, outer)
            .map_err(|e| AlgebraError::Unsupported(e.to_string()))
    };
    eval_scalar_with(expr, env, &callback).map_err(RuntimeError::Algebra)
}

//! Implementation rules: lowering the logical algebra to the physical
//! algebra (§3.1, §3.3).
//!
//! "Logical operations are transformed into physical expressions using
//! implementation rules."  The interesting choices are:
//!
//! * `submit` → `exec` (the wrapper call),
//! * mediator joins → hash join when an equi-join key pair can be split
//!   across the two inputs, nested-loop join otherwise,
//! * an interface's extent → one fan-out, and a union two or more of
//!   whose branches are alike but for the names of the one source each
//!   reads → a fan-out too (see [`lower`]),
//! * everything else maps one-to-one onto its `mk*` algorithm.

use std::sync::Arc;

use crate::logical::{LogicalExpr, Member};
use crate::physical::{FanOut, PhysicalExpr};
use crate::scalar::{ScalarExpr, ScalarOp};
use crate::{AlgebraError, Result};

/// Lowers a logical plan to a physical plan.
///
/// An [`Extents`](crate::Extents) node becomes a [`FanOut`] over its
/// members and classes.  So does an explicit union in which two or more
/// branches are alike once the names of the one source each reads are
/// set aside (a resubmitted partial answer, a written-out union): each
/// branch is a member — of the class of the branches it is alike with,
/// or of a class of its own — and the fan-out keeps their order.  A union
/// with no two branches alike, or with a branch reading two sources,
/// stays a `mkunion`.  This is the one place an explicit union's classes
/// are found: the plan search costs each of its push sites as a class of
/// its own.
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
        LogicalExpr::Union(items) => {
            let branches = items.iter().map(lower).collect::<Result<Vec<_>>>()?;
            Ok(match fan_out_of(&branches) {
                Some(fan_out) => PhysicalExpr::FanOut(fan_out),
                None => PhysicalExpr::MkUnion(branches),
            })
        }
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

/// The fan-out of a union's lowered `branches`, when two or more are
/// alike; see [`lower`].  The branches are compared in place, and a
/// member's names are copied only once a fan-out is formed.
fn fan_out_of(branches: &[PhysicalExpr]) -> Option<FanOut> {
    let execs = branches.iter().map(exec_of).collect::<Option<Vec<_>>>()?;
    // Per class, its first branch; per branch, its class.
    let mut firsts: Vec<usize> = Vec::new();
    let mut classes = Vec::with_capacity(branches.len());
    for branch in branches {
        let class = firsts
            .iter()
            .position(|&first| alike(&branches[first], branch));
        classes.push(class.unwrap_or_else(|| {
            firsts.push(classes.len());
            firsts.len() - 1
        }));
    }
    if firsts.len() == branches.len() {
        return None;
    }
    let members = execs.iter().zip(classes).map(|(exec, class)| {
        let (repository, wrapper, extent) = match exec {
            Some(PhysicalExpr::Exec {
                repository,
                wrapper,
                extent,
                ..
            }) => (repository.as_str(), wrapper.as_str(), extent.as_str()),
            _ => ("", "", ""),
        };
        Member {
            repository: Arc::from(repository),
            wrapper: Arc::from(wrapper),
            extent: Arc::from(extent),
            class,
        }
    });
    Some(FanOut {
        members: members.collect(),
        templates: firsts
            .iter()
            .map(|&first| branches[first].clone())
            .collect(),
    })
}

/// The `exec` of the one source `branch` reads (`Some(None)` when it
/// reads none); `None` when it reads two, or ships a get of a collection
/// other than its extent.
fn exec_of(branch: &PhysicalExpr) -> Option<Option<&PhysicalExpr>> {
    let (mut exec, mut sources) = (None, 0);
    branch.walk(&mut |node| match node {
        PhysicalExpr::Exec { .. } => {
            exec = Some(node);
            sources += 1;
        }
        // Its templates' execs stand for two or more members'.
        PhysicalExpr::FanOut(_) => sources += 2,
        _ => {}
    });
    match exec {
        Some(PhysicalExpr::Exec {
            extent, logical, ..
        }) if sources == 1 => {
            let mut own = true;
            logical.walk(&mut |e| {
                if let LogicalExpr::Get { collection } = e {
                    own &= collection == extent;
                }
            });
            own.then_some(exec)
        }
        _ => (sources == 0).then_some(None),
    }
}

/// Whether the branches `a` and `b`, each reading at most one source
/// ([`exec_of`]), are equal once that source's names are set aside: its
/// `exec`'s repository, wrapper and extent, and the gets it ships.
fn alike(a: &PhysicalExpr, b: &PhysicalExpr) -> bool {
    use PhysicalExpr as P;
    match (a, b) {
        (P::Exec { logical: x, .. }, P::Exec { logical: y, .. }) => ships_alike(x, y),
        (
            P::FilterOp { input, predicate },
            P::FilterOp {
                input: other,
                predicate: theirs,
            },
        ) => predicate == theirs && alike(input, other),
        (
            P::ProjectOp { input, columns },
            P::ProjectOp {
                input: other,
                columns: theirs,
            },
        ) => columns == theirs && alike(input, other),
        (
            P::MapOp { input, projection },
            P::MapOp {
                input: other,
                projection: theirs,
            },
        ) => projection == theirs && alike(input, other),
        (
            P::BindOp { var, input },
            P::BindOp {
                var: theirs,
                input: other,
            },
        ) => var == theirs && alike(input, other),
        (
            P::MkAggregate { func, input },
            P::MkAggregate {
                func: theirs,
                input: other,
            },
        ) => func == theirs && alike(input, other),
        (P::MkFlatten(input), P::MkFlatten(other))
        | (P::MkDistinct(input), P::MkDistinct(other)) => alike(input, other),
        // Anything else — a scan, a join — is compared whole.
        _ => a == b,
    }
}

/// [`alike`] for the expressions two `exec`s ship: equal but for the
/// collections of their gets.
fn ships_alike(a: &LogicalExpr, b: &LogicalExpr) -> bool {
    use LogicalExpr as L;
    match (a, b) {
        (L::Get { .. }, L::Get { .. }) => true,
        (
            L::Filter { input, predicate },
            L::Filter {
                input: other,
                predicate: theirs,
            },
        ) => predicate == theirs && ships_alike(input, other),
        (
            L::Project { input, columns },
            L::Project {
                input: other,
                columns: theirs,
            },
        ) => columns == theirs && ships_alike(input, other),
        _ => a == b,
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
    fn a_union_of_like_branches_lowers_to_a_fan_out_in_branch_order() {
        let branch = |extent: &str, repo: &str| submit(extent, repo).project(["name"]);
        let logical = LogicalExpr::Union(vec![
            branch("person0", "r0"),
            LogicalExpr::Data(Bag::new()),
            branch("person1", "r1"),
            branch("person2", "r2"),
        ]);
        let physical = lower(&logical).unwrap();
        let PhysicalExpr::FanOut(node) = &physical else {
            panic!("three alike branches are a fan-out: {physical}");
        };
        let classes: Vec<usize> = node.members.iter().map(|m| m.class).collect();
        assert_eq!(classes, [0, 1, 0, 0]);
        assert_eq!(
            physical.to_string(),
            "mkunion(mkproj(name, exec(field(r0), get(person0))), memscan(Bag()), \
             mkproj(name, exec(field(r1), get(person1))), mkproj(name, exec(field(r2), get(person2))))"
        );
        assert_eq!(physical.to_logical().to_string(), logical.to_string());
        // No two alike: a union as before.
        let unlike = LogicalExpr::Union(vec![branch("person0", "r0"), submit("person1", "r1")]);
        assert!(matches!(lower(&unlike).unwrap(), PhysicalExpr::MkUnion(_)));
        // Shipped expressions alike but for their gets, or not.
        let filtered = |extent: &str, repo: &str, bound: i64| {
            LogicalExpr::get(extent)
                .filter(ScalarExpr::binary(
                    ScalarOp::Gt,
                    ScalarExpr::attr("salary"),
                    ScalarExpr::constant(bound),
                ))
                .submit(repo, "w0", extent)
        };
        let alike = LogicalExpr::Union(vec![filtered("person0", "r0", 1), filtered("a", "r1", 1)]);
        assert!(matches!(lower(&alike).unwrap(), PhysicalExpr::FanOut(_)));
        let unlike = LogicalExpr::Union(vec![filtered("person0", "r0", 1), filtered("a", "r1", 2)]);
        assert!(matches!(lower(&unlike).unwrap(), PhysicalExpr::MkUnion(_)));
        // A branch shipping a get of another collection than its extent's.
        let foreign = LogicalExpr::get("person9").submit("r1", "w0", "person1");
        let mixed = LogicalExpr::Union(vec![
            submit("person0", "r0"),
            submit("person2", "r2"),
            foreign,
        ]);
        assert!(matches!(lower(&mixed).unwrap(), PhysicalExpr::MkUnion(_)));
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

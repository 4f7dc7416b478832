//! The physical algebra (§3.3).
//!
//! Implementation rules transform a logical plan into a physical plan whose
//! operators name concrete algorithms: `exec` (the physical counterpart of
//! `submit`, which calls a wrapper), `mkunion`, `mkproj`, nested-loop and
//! hash joins, and so on.  As in the paper, the second argument of
//! [`PhysicalExpr::Exec`] "is still a logical expression, because the
//! wrapper interface accepts a logical expression".
//!
//! Every physical operator can be converted back to its logical
//! counterpart with [`PhysicalExpr::to_logical`]; partial evaluation (§4)
//! depends on this to turn the unevaluated part of a plan back into an OQL
//! query.

use std::sync::Arc;

use disco_value::Bag;

use crate::logical::{Extents, LogicalExpr, Member};
use crate::scalar::{AggKind, ScalarExpr};

/// How a physical operator consumes its inputs in the streaming
/// (pull-based cursor) engine.
///
/// The streaming engine evaluates plans operator-at-a-time: rows are
/// *pulled* through the pipeline and only the operators classified here as
/// pipeline breakers ever buffer rows.  Everything else forwards each row
/// as soon as it is produced, so intermediate state stays bounded no
/// matter how deep the pipeline is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineBehavior {
    /// Emits rows as it pulls them; holds no per-row state
    /// (scan, filter, project, map, bind, union, flatten).
    Streaming,
    /// Buffers exactly one input up front, then streams the other through
    /// it (the hash-join build side, the re-scanned inner of a nested-loop
    /// or merge-tuples join).
    BlockingBuild,
    /// Buffers state proportional to its output before (or while)
    /// emitting: `distinct` keeps the set of values seen, an aggregate
    /// folds its whole input into one value.
    Blocking,
}

/// A physical query plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalExpr {
    /// Calls a wrapper: ships the (logical) expression to the wrapper bound
    /// to `wrapper` for evaluation against `repository`.
    Exec {
        /// Repository name (`field(r0)` in the paper's notation).
        repository: String,
        /// Wrapper name.
        wrapper: String,
        /// The extent whose transformation map applies.
        extent: String,
        /// The logical expression shipped to the wrapper (mediator
        /// name space; the runtime applies the map before the call).
        /// Shared: the runtime's prepared call table points at it too.
        logical: Arc<LogicalExpr>,
    },
    /// Scans an in-memory bag (literal data embedded in the plan).
    MemScan(Bag),
    /// Filters rows by a predicate.
    FilterOp {
        /// Input plan.
        input: Box<PhysicalExpr>,
        /// Predicate.
        predicate: ScalarExpr,
    },
    /// Projects source rows onto named columns.
    ProjectOp {
        /// Input plan.
        input: Box<PhysicalExpr>,
        /// Columns to keep.
        columns: Vec<String>,
    },
    /// Computes a scalar expression per environment row (`mkproj` for
    /// generalized projections).
    MapOp {
        /// Input plan.
        input: Box<PhysicalExpr>,
        /// Projected expression.
        projection: ScalarExpr,
    },
    /// Wraps source rows into environment rows.
    BindOp {
        /// Range variable.
        var: String,
        /// Input plan.
        input: Box<PhysicalExpr>,
    },
    /// Nested-loop join of two environment-row inputs.
    NestedLoopJoin {
        /// Left input.
        left: Box<PhysicalExpr>,
        /// Right input.
        right: Box<PhysicalExpr>,
        /// Optional predicate over the merged environment.
        predicate: Option<ScalarExpr>,
    },
    /// Hash join of two environment-row inputs on equi-join keys.
    HashJoin {
        /// Left input.
        left: Box<PhysicalExpr>,
        /// Right input.
        right: Box<PhysicalExpr>,
        /// Key expression evaluated on left rows.
        left_key: ScalarExpr,
        /// Key expression evaluated on right rows.
        right_key: ScalarExpr,
        /// Residual predicate applied after the key match.
        residual: Option<ScalarExpr>,
    },
    /// Source-style equi-join executed at the mediator (merging the source
    /// tuples), for `SourceJoin` nodes that could not be pushed.
    MergeTuplesJoin {
        /// Left input (source rows).
        left: Box<PhysicalExpr>,
        /// Right input (source rows).
        right: Box<PhysicalExpr>,
        /// Equality conditions `(left_attr, right_attr)`.
        on: Vec<(String, String)>,
    },
    /// Bag union.
    MkUnion(Vec<PhysicalExpr>),
    /// Flattens a bag of bags.
    MkFlatten(Box<PhysicalExpr>),
    /// Removes duplicates.
    MkDistinct(Box<PhysicalExpr>),
    /// Aggregates a bag of scalars.
    MkAggregate {
        /// Aggregate function.
        func: AggKind,
        /// Input plan.
        input: Box<PhysicalExpr>,
    },
    /// The fan-out of an [`LogicalExpr::Extents`] node — an interface's
    /// extent or a folded union: the bag union of one branch per member,
    /// each its class's template with the member's names.  It prints as
    /// that `mkunion`.
    FanOut(FanOut),
}

/// The members of an [`Extents`] node and one lowered branch template per
/// class.
#[derive(Debug, Clone, PartialEq)]
pub struct FanOut {
    /// The members, in catalog (or branch) order, shared with the logical
    /// node.
    pub members: Arc<[Member]>,
    /// One branch template per class: its `exec` is the class's first
    /// member's, or names no source in a node lowered unclassed.
    pub templates: Vec<PhysicalExpr>,
}

impl FanOut {
    /// The branch of member `i`: its class's template with its names.
    #[must_use]
    pub fn branch(&self, i: usize) -> PhysicalExpr {
        let member = &self.members[i];
        self.templates[member.class].instance(member)
    }
}

impl PhysicalExpr {
    /// The algorithm name (used in traces and cost records).
    #[must_use]
    pub fn algorithm(&self) -> &'static str {
        match self {
            PhysicalExpr::Exec { .. } => "exec",
            PhysicalExpr::MemScan(_) => "memscan",
            PhysicalExpr::FilterOp { .. } => "mkselect",
            PhysicalExpr::ProjectOp { .. } => "mkproj",
            PhysicalExpr::MapOp { .. } => "mkmap",
            PhysicalExpr::BindOp { .. } => "mkbind",
            PhysicalExpr::NestedLoopJoin { .. } => "nljoin",
            PhysicalExpr::HashJoin { .. } => "hashjoin",
            PhysicalExpr::MergeTuplesJoin { .. } => "mergejoin",
            PhysicalExpr::MkUnion(_) => "mkunion",
            PhysicalExpr::MkFlatten(_) => "mkflatten",
            PhysicalExpr::MkDistinct(_) => "mkdistinct",
            PhysicalExpr::MkAggregate { .. } => "mkagg",
            PhysicalExpr::FanOut(_) => "fanout",
        }
    }

    /// A copy of a branch template with the names of `member` (see
    /// [`LogicalExpr::instance`]), its `exec` shipping its own copy.
    #[must_use]
    pub fn instance(&self, member: &Member) -> PhysicalExpr {
        match self {
            PhysicalExpr::Exec { logical, .. } => PhysicalExpr::Exec {
                repository: member.repository.to_string(),
                wrapper: member.wrapper.to_string(),
                extent: member.extent.to_string(),
                logical: Arc::new(logical.instance(member)),
            },
            other => {
                let mut out = other.clone();
                out.for_each_child_mut(&mut |child| *child = child.instance(member));
                out
            }
        }
    }

    /// Calls `f` on each immediate child, left to right, mutably.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut PhysicalExpr)) {
        match self {
            PhysicalExpr::Exec { .. } | PhysicalExpr::MemScan(_) => {}
            PhysicalExpr::FilterOp { input, .. }
            | PhysicalExpr::ProjectOp { input, .. }
            | PhysicalExpr::MapOp { input, .. }
            | PhysicalExpr::BindOp { input, .. }
            | PhysicalExpr::MkAggregate { input, .. } => f(input),
            PhysicalExpr::MkFlatten(inner) | PhysicalExpr::MkDistinct(inner) => f(inner),
            PhysicalExpr::NestedLoopJoin { left, right, .. }
            | PhysicalExpr::HashJoin { left, right, .. }
            | PhysicalExpr::MergeTuplesJoin { left, right, .. } => {
                f(left);
                f(right);
            }
            PhysicalExpr::MkUnion(items) => items.iter_mut().for_each(f),
            PhysicalExpr::FanOut(node) => node.templates.iter_mut().for_each(f),
        }
    }

    /// How this operator consumes its inputs in the streaming engine:
    /// whether it forwards rows one at a time or is a pipeline breaker
    /// that buffers them (see [`PipelineBehavior`]).
    #[must_use]
    pub fn pipeline_behavior(&self) -> PipelineBehavior {
        match self {
            PhysicalExpr::Exec { .. }
            | PhysicalExpr::MemScan(_)
            | PhysicalExpr::FilterOp { .. }
            | PhysicalExpr::ProjectOp { .. }
            | PhysicalExpr::MapOp { .. }
            | PhysicalExpr::BindOp { .. }
            | PhysicalExpr::MkUnion(_)
            | PhysicalExpr::FanOut(_)
            | PhysicalExpr::MkFlatten(_) => PipelineBehavior::Streaming,
            PhysicalExpr::NestedLoopJoin { .. }
            | PhysicalExpr::HashJoin { .. }
            | PhysicalExpr::MergeTuplesJoin { .. } => PipelineBehavior::BlockingBuild,
            PhysicalExpr::MkDistinct(_) | PhysicalExpr::MkAggregate { .. } => {
                PipelineBehavior::Blocking
            }
        }
    }

    /// Immediate children.
    #[must_use]
    pub fn children(&self) -> Vec<&PhysicalExpr> {
        let mut children = Vec::new();
        self.for_each_child(&mut |child| children.push(child));
        children
    }

    /// Calls `f` on each immediate child, left to right, without building
    /// a vector of them.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a PhysicalExpr)) {
        match self {
            PhysicalExpr::Exec { .. } | PhysicalExpr::MemScan(_) => {}
            PhysicalExpr::FilterOp { input, .. }
            | PhysicalExpr::ProjectOp { input, .. }
            | PhysicalExpr::MapOp { input, .. }
            | PhysicalExpr::BindOp { input, .. }
            | PhysicalExpr::MkAggregate { input, .. } => f(input),
            PhysicalExpr::MkFlatten(inner) | PhysicalExpr::MkDistinct(inner) => f(inner),
            PhysicalExpr::NestedLoopJoin { left, right, .. }
            | PhysicalExpr::HashJoin { left, right, .. }
            | PhysicalExpr::MergeTuplesJoin { left, right, .. } => {
                f(left);
                f(right);
            }
            PhysicalExpr::MkUnion(items) => items.iter().for_each(f),
            PhysicalExpr::FanOut(node) => node.templates.iter().for_each(f),
        }
    }

    /// Every `exec` node of the plan, a fan-out's as its branches have
    /// them, in pre-order.
    #[must_use]
    pub fn collect_execs(&self) -> Vec<PhysicalExpr> {
        let mut out = Vec::new();
        self.collect_execs_into(&mut out);
        out
    }

    fn collect_execs_into(&self, out: &mut Vec<PhysicalExpr>) {
        match self {
            PhysicalExpr::Exec { .. } => out.push(self.clone()),
            PhysicalExpr::FanOut(node) => {
                for i in 0..node.members.len() {
                    node.branch(i).collect_execs_into(out);
                }
            }
            other => other.for_each_child(&mut |child| child.collect_execs_into(out)),
        }
    }

    /// Pre-order traversal.
    pub fn walk<'a, F: FnMut(&'a PhysicalExpr)>(&'a self, f: &mut F) {
        f(self);
        self.for_each_child(&mut |child| child.walk(f));
    }

    /// Number of nodes, a fan-out counted as the union of its branches.
    #[must_use]
    pub fn size(&self) -> usize {
        if let PhysicalExpr::FanOut(node) = self {
            let sizes: Vec<usize> = node.templates.iter().map(PhysicalExpr::size).collect();
            return 1 + node.members.iter().map(|m| sizes[m.class]).sum::<usize>();
        }
        let mut size = 1;
        self.for_each_child(&mut |child| size += child.size());
        size
    }

    /// Converts the physical plan back into the corresponding logical plan.
    ///
    /// "This transformation is possible because each physical operation has
    /// a corresponding logical operation" (§4) — it is the first half of
    /// turning an unfinished plan back into an OQL partial answer.
    #[must_use]
    pub fn to_logical(&self) -> LogicalExpr {
        match self {
            PhysicalExpr::Exec {
                repository,
                wrapper,
                extent,
                logical,
            } => LogicalExpr::Submit {
                repository: repository.clone(),
                wrapper: wrapper.clone(),
                extent: extent.clone(),
                expr: Box::new(LogicalExpr::clone(logical)),
            },
            PhysicalExpr::MemScan(bag) => LogicalExpr::Data(bag.clone()),
            PhysicalExpr::FilterOp { input, predicate } => LogicalExpr::Filter {
                input: Box::new(input.to_logical()),
                predicate: predicate.clone(),
            },
            PhysicalExpr::ProjectOp { input, columns } => LogicalExpr::Project {
                input: Box::new(input.to_logical()),
                columns: columns.clone(),
            },
            PhysicalExpr::MapOp { input, projection } => LogicalExpr::MapProject {
                input: Box::new(input.to_logical()),
                projection: projection.clone(),
            },
            PhysicalExpr::BindOp { var, input } => LogicalExpr::Bind {
                var: var.clone(),
                input: Box::new(input.to_logical()),
            },
            PhysicalExpr::NestedLoopJoin {
                left,
                right,
                predicate,
            } => LogicalExpr::Join {
                left: Box::new(left.to_logical()),
                right: Box::new(right.to_logical()),
                predicate: predicate.clone(),
            },
            PhysicalExpr::HashJoin {
                left,
                right,
                left_key,
                right_key,
                residual,
            } => {
                let eq = ScalarExpr::Binary {
                    op: crate::scalar::ScalarOp::Eq,
                    left: Box::new(left_key.clone()),
                    right: Box::new(right_key.clone()),
                };
                let predicate = match residual {
                    Some(r) => ScalarExpr::Binary {
                        op: crate::scalar::ScalarOp::And,
                        left: Box::new(eq),
                        right: Box::new(r.clone()),
                    },
                    None => eq,
                };
                LogicalExpr::Join {
                    left: Box::new(left.to_logical()),
                    right: Box::new(right.to_logical()),
                    predicate: Some(predicate),
                }
            }
            PhysicalExpr::MergeTuplesJoin { left, right, on } => LogicalExpr::SourceJoin {
                left: Box::new(left.to_logical()),
                right: Box::new(right.to_logical()),
                on: on.clone(),
            },
            PhysicalExpr::MkUnion(items) => {
                LogicalExpr::Union(items.iter().map(PhysicalExpr::to_logical).collect())
            }
            PhysicalExpr::MkFlatten(inner) => LogicalExpr::Flatten(Box::new(inner.to_logical())),
            PhysicalExpr::MkDistinct(inner) => LogicalExpr::Distinct(Box::new(inner.to_logical())),
            PhysicalExpr::MkAggregate { func, input } => LogicalExpr::Aggregate {
                func: *func,
                input: Box::new(input.to_logical()),
            },
            PhysicalExpr::FanOut(node) => LogicalExpr::Extents(Extents {
                members: Arc::clone(&node.members),
                templates: node
                    .templates
                    .iter()
                    .map(PhysicalExpr::to_logical)
                    .collect(),
                name: None,
            }),
        }
    }
}

impl std::fmt::Display for PhysicalExpr {
    /// Prints in the paper's physical notation, e.g.
    /// `mkunion(exec(field(r0), project(name, get(person0))), …)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhysicalExpr::Exec {
                repository,
                logical,
                ..
            } => write!(f, "exec(field({repository}), {logical})"),
            PhysicalExpr::MemScan(bag) => {
                if bag.len() <= 4 {
                    write!(f, "memscan({bag})")
                } else {
                    write!(f, "memscan(<{} values>)", bag.len())
                }
            }
            PhysicalExpr::FilterOp { input, predicate } => {
                write!(f, "mkselect({predicate}, {input})")
            }
            PhysicalExpr::ProjectOp { input, columns } => {
                write!(f, "mkproj({}, {input})", columns.join(", "))
            }
            PhysicalExpr::MapOp { input, projection } => write!(f, "mkmap({projection}, {input})"),
            PhysicalExpr::BindOp { var, input } => write!(f, "mkbind({var}, {input})"),
            PhysicalExpr::NestedLoopJoin {
                left,
                right,
                predicate,
            } => match predicate {
                Some(p) => write!(f, "nljoin({left}, {right}, {p})"),
                None => write!(f, "nljoin({left}, {right})"),
            },
            PhysicalExpr::HashJoin {
                left,
                right,
                left_key,
                right_key,
                ..
            } => write!(f, "hashjoin({left}, {right}, {left_key}={right_key})"),
            PhysicalExpr::MergeTuplesJoin { left, right, on } => {
                let cond: Vec<String> = on.iter().map(|(l, r)| format!("{l}={r}")).collect();
                write!(f, "mergejoin({left}, {right}, {})", cond.join(","))
            }
            PhysicalExpr::MkUnion(items) => {
                write!(f, "mkunion(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            PhysicalExpr::MkFlatten(inner) => write!(f, "mkflatten({inner})"),
            PhysicalExpr::MkDistinct(inner) => write!(f, "mkdistinct({inner})"),
            PhysicalExpr::MkAggregate { func, input } => {
                write!(f, "mkagg({}, {input})", func.name())
            }
            PhysicalExpr::FanOut(node) => {
                let branches = (0..node.members.len()).map(|i| node.branch(i)).collect();
                write!(f, "{}", PhysicalExpr::MkUnion(branches))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::ScalarOp;

    fn paper_physical() -> PhysicalExpr {
        // mkunion(exec(field(r0), project(name, get(person0))),
        //         mkproj(name, exec(field(r1), get(person1))))
        PhysicalExpr::MkUnion(vec![
            PhysicalExpr::Exec {
                repository: "r0".into(),
                wrapper: "w0".into(),
                extent: "person0".into(),
                logical: Arc::new(LogicalExpr::get("person0").project(["name"])),
            },
            PhysicalExpr::ProjectOp {
                input: Box::new(PhysicalExpr::Exec {
                    repository: "r1".into(),
                    wrapper: "w0".into(),
                    extent: "person1".into(),
                    logical: Arc::new(LogicalExpr::get("person1")),
                }),
                columns: vec!["name".into()],
            },
        ])
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            paper_physical().to_string(),
            "mkunion(exec(field(r0), project(name, get(person0))), mkproj(name, exec(field(r1), get(person1))))"
        );
    }

    #[test]
    fn exec_collection_and_size() {
        let plan = paper_physical();
        assert_eq!(plan.collect_execs().len(), 2);
        assert_eq!(plan.size(), 4);
        assert_eq!(plan.algorithm(), "mkunion");
    }

    #[test]
    fn to_logical_round_trips_the_plan_shape() {
        let logical = paper_physical().to_logical();
        assert_eq!(
            logical.to_string(),
            "union(submit(r0, project(name, get(person0))), project(name, submit(r1, get(person1))))"
        );
    }

    #[test]
    fn hash_join_converts_to_join_with_equality_predicate() {
        let hj = PhysicalExpr::HashJoin {
            left: Box::new(PhysicalExpr::MemScan(Bag::new())),
            right: Box::new(PhysicalExpr::MemScan(Bag::new())),
            left_key: ScalarExpr::var_field("x", "id"),
            right_key: ScalarExpr::var_field("y", "id"),
            residual: None,
        };
        match hj.to_logical() {
            LogicalExpr::Join { predicate, .. } => {
                let p = predicate.unwrap();
                assert!(matches!(
                    p,
                    ScalarExpr::Binary {
                        op: ScalarOp::Eq,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pipeline_behavior_classifies_breakers() {
        let scan = PhysicalExpr::MemScan(Bag::new());
        assert_eq!(scan.pipeline_behavior(), PipelineBehavior::Streaming);
        assert_eq!(
            PhysicalExpr::FilterOp {
                input: Box::new(scan.clone()),
                predicate: ScalarExpr::constant(true),
            }
            .pipeline_behavior(),
            PipelineBehavior::Streaming
        );
        assert_eq!(
            PhysicalExpr::HashJoin {
                left: Box::new(scan.clone()),
                right: Box::new(scan.clone()),
                left_key: ScalarExpr::attr("id"),
                right_key: ScalarExpr::attr("id"),
                residual: None,
            }
            .pipeline_behavior(),
            PipelineBehavior::BlockingBuild
        );
        assert_eq!(
            PhysicalExpr::MkDistinct(Box::new(scan.clone())).pipeline_behavior(),
            PipelineBehavior::Blocking
        );
        assert_eq!(
            PhysicalExpr::MkAggregate {
                func: AggKind::Count,
                input: Box::new(scan),
            }
            .pipeline_behavior(),
            PipelineBehavior::Blocking
        );
    }

    #[test]
    fn every_algorithm_has_a_name_and_children() {
        let scan = PhysicalExpr::MemScan(Bag::new());
        let ops: Vec<PhysicalExpr> = vec![
            PhysicalExpr::FilterOp {
                input: Box::new(scan.clone()),
                predicate: ScalarExpr::constant(true),
            },
            PhysicalExpr::MapOp {
                input: Box::new(scan.clone()),
                projection: ScalarExpr::constant(1i64),
            },
            PhysicalExpr::BindOp {
                var: "x".into(),
                input: Box::new(scan.clone()),
            },
            PhysicalExpr::NestedLoopJoin {
                left: Box::new(scan.clone()),
                right: Box::new(scan.clone()),
                predicate: None,
            },
            PhysicalExpr::MergeTuplesJoin {
                left: Box::new(scan.clone()),
                right: Box::new(scan.clone()),
                on: vec![("a".into(), "a".into())],
            },
            PhysicalExpr::MkFlatten(Box::new(scan.clone())),
            PhysicalExpr::MkDistinct(Box::new(scan.clone())),
            PhysicalExpr::MkAggregate {
                func: AggKind::Sum,
                input: Box::new(scan.clone()),
            },
        ];
        for op in ops {
            assert!(!op.algorithm().is_empty());
            assert!(!op.children().is_empty());
            // Conversion to logical never panics and preserves child count.
            let _ = op.to_logical();
        }
    }
}

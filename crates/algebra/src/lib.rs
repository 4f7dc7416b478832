//! # disco-algebra
//!
//! The query algebra of the DISCO mediator (§3 of the paper): the logical
//! operators including the DISCO-specific `submit(source, expression)`
//! operator, the transformation rules that push work onto wrappers, the
//! wrapper capability description (operator sets and paper-style
//! grammars), the physical algebra including the `exec` algorithm, the
//! implementation rules, and the conversion from plans back to OQL that
//! the partial-evaluation semantics require.
//!
//! # Examples
//!
//! Building and pushing the paper's §3.2 plan:
//!
//! ```
//! use disco_algebra::{LogicalExpr, CapabilitySet, OperatorKind, rules};
//! use std::collections::BTreeMap;
//!
//! // union(project(name, submit(r0, get(person0))),
//! //       project(name, submit(r1, get(person1))))
//! let plan = LogicalExpr::Union(vec![
//!     LogicalExpr::get("person0").submit("r0", "w_r0", "person0").project(["name"]),
//!     LogicalExpr::get("person1").submit("r1", "w_r1", "person1").project(["name"]),
//! ]);
//!
//! // r0's wrapper understands {get, project, compose}; r1's only {get}.
//! let mut caps = BTreeMap::new();
//! caps.insert("w_r0".to_owned(),
//!     CapabilitySet::new([OperatorKind::Get, OperatorKind::Project]).with_composition(true));
//! caps.insert("w_r1".to_owned(), CapabilitySet::get_only());
//!
//! let pushed = rules::push_to_wrappers(&plan, &caps);
//! assert_eq!(
//!     pushed.to_string(),
//!     "union(submit(r0, project(name, get(person0))), project(name, submit(r1, get(person1))))"
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capability;
mod error;
mod implementation;
pub mod kernel;
mod logical;
mod physical;
pub mod rules;
mod scalar;
mod to_oql;

pub use capability::{CapabilityGrammar, CapabilitySet, ComparisonKind, OperatorKind};
pub use error::AlgebraError;
pub use implementation::{bound_vars, is_hash_join, lower, referenced_vars};
pub use kernel::{EvalVec, Kernel, KernelBuilder, PairKernel, PairKernelBuilder};
pub use logical::{data_of, Extents, LogicalExpr, Member};
pub use physical::{FanOut, PhysicalExpr, PipelineBehavior};
pub use rules::CapabilityLookup;
pub use scalar::{
    eval_binary, eval_scalar, eval_scalar_env, eval_scalar_with, truthy, AggKind, AggState, Env,
    ScalarExpr, ScalarOp, SubqueryEval,
};
pub use to_oql::{
    agg_from_oql, agg_to_oql, logical_to_oql, scalar_op_from_oql, scalar_op_to_oql, scalar_to_oql,
};

/// Convenience result alias for algebra operations.
pub type Result<T> = std::result::Result<T, AlgebraError>;

//! # disco-optimizer
//!
//! The DISCO mediator query optimizer (§3 of the paper): compilation of
//! OQL into the logical algebra, generation of alternative plans by
//! applying capability-checked pushdown rules, a cost model whose `exec`
//! estimates come from a self-calibrating store of recorded wrapper calls
//! (exact match / close match / the paper's time-0-data-1 defaults), plan
//! selection, and a plan cache that patches its plans when extents are
//! added or removed and plans a text again after any other catalog update.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod calibration;
mod compile;
mod cost;
mod error;
mod patch;
mod planner;
mod search;

pub use cache::{CacheEntry, PlanCache};
pub use calibration::{CalibrationKey, CalibrationStore, CostEstimate, MatchKind, Observation};
pub use compile::{compile_query, compile_text};
pub use cost::{CostModel, CostParams, PlanCost};
pub use error::OptimizerError;
pub use patch::{physical_bytes, Patch, PlanMemo, NODE_BYTES};
pub use planner::{Explained, Optimizer, Plan, PlanAlternative};

/// Convenience result alias for optimizer operations.
pub type Result<T> = std::result::Result<T, OptimizerError>;

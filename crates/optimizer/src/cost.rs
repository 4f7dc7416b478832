//! The cost model (§3.1, §3.3).
//!
//! "Each expression has an associated estimated cost.  The expression with
//! the lowest estimated cost is then executed by the run time system."
//! Costs of `exec` calls come from the self-calibrating
//! [`CalibrationStore`]; mediator-side algorithms are costed with simple
//! per-row constants.  With no calibration information the defaults
//! (time 0, data 1) make source-side work free, so "the optimizer will
//! choose plans where the maximum amount of computation is done at the
//! data source" — exactly the paper's intended bias.

use std::sync::Arc;

use disco_algebra::PhysicalExpr;

use crate::calibration::{CalibrationStore, CostEstimate, MatchKind};

/// Tunable constants of the mediator-side cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Cost of processing one row in a mediator-side operator, in ms.
    pub mediator_per_row_ms: f64,
    /// Estimated selectivity of a filter predicate.
    pub filter_selectivity: f64,
    /// Estimated selectivity of a join predicate.
    pub join_selectivity: f64,
    /// Estimated fraction of duplicates removed by `distinct`.
    pub distinct_ratio: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            mediator_per_row_ms: 0.01,
            filter_selectivity: 0.33,
            join_selectivity: 0.1,
            distinct_ratio: 0.8,
        }
    }
}

/// The estimated cost of a (sub)plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Estimated total time in milliseconds.
    pub time_ms: f64,
    /// Estimated output cardinality.
    pub rows: f64,
}

impl PlanCost {
    /// A zero cost (empty input).
    #[must_use]
    pub fn zero() -> Self {
        PlanCost {
            time_ms: 0.0,
            rows: 0.0,
        }
    }

    /// Adds `other` in: a union's cost is its branches' summed in order.
    pub(crate) fn add(&mut self, other: PlanCost) {
        self.time_ms += other.time_ms;
        self.rows += other.rows;
    }
}

/// The cost model: a calibration store plus mediator constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    store: Arc<CalibrationStore>,
    params: CostParams,
}

impl CostModel {
    /// Creates a cost model backed by `store`.
    #[must_use]
    pub fn new(store: Arc<CalibrationStore>) -> Self {
        CostModel {
            store,
            params: CostParams::default(),
        }
    }

    /// Overrides the mediator constants.
    #[must_use]
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// The calibration store backing `exec` estimates.
    #[must_use]
    pub fn store(&self) -> &Arc<CalibrationStore> {
        &self.store
    }

    /// The mediator constants.
    #[must_use]
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Estimates the cost of a physical plan.
    #[must_use]
    pub fn cost(&self, plan: &PhysicalExpr) -> PlanCost {
        match plan {
            PhysicalExpr::Exec {
                repository,
                logical,
                ..
            } => self.exec(
                self.store.estimate(repository, logical),
                default_exec_rows(logical, &self.params),
            ),
            PhysicalExpr::MemScan(bag) => self.scan(bag.len()),
            PhysicalExpr::FilterOp { input, .. } => self.filter(self.cost(input)),
            PhysicalExpr::ProjectOp { input, .. }
            | PhysicalExpr::MapOp { input, .. }
            | PhysicalExpr::BindOp { input, .. } => self.per_row(self.cost(input)),
            PhysicalExpr::NestedLoopJoin { left, right, .. }
            | PhysicalExpr::MergeTuplesJoin { left, right, .. } => {
                self.loop_join(self.cost(left), self.cost(right))
            }
            PhysicalExpr::HashJoin { left, right, .. } => {
                self.hash_join(self.cost(left), self.cost(right))
            }
            PhysicalExpr::MkUnion(items) => {
                let mut total = PlanCost::zero();
                for item in items {
                    total.add(self.cost(item));
                }
                total
            }
            PhysicalExpr::FanOut(node) => {
                let mut total = PlanCost::zero();
                for i in 0..node.members.len() {
                    total.add(self.cost(&node.branch(i)));
                }
                total
            }
            PhysicalExpr::MkFlatten(inner) => self.per_row(self.cost(inner)),
            PhysicalExpr::MkDistinct(inner) => self.distinct(self.cost(inner)),
            PhysicalExpr::MkAggregate { input, .. } => self.aggregate(self.cost(input)),
        }
    }

    // The per-operator formulas: the plan search costs the same operators
    // on the logical plan.

    /// An `exec` call estimated at `estimate`, `default_rows` the rows the
    /// paper's default gives its shipped expression.
    pub(crate) fn exec(&self, estimate: CostEstimate, default_rows: f64) -> PlanCost {
        // The paper's defaults: time 0, data 1 per base collection.
        // Selections pushed inside the call still reduce the estimated
        // output, so pushing is never estimated as worse than mediator-side
        // filtering — this realises the paper's "maximum computation at the
        // data source" bias.
        let rows = match estimate.source {
            MatchKind::Default => default_rows,
            _ => estimate.rows,
        };
        PlanCost {
            time_ms: estimate.time_ms,
            rows,
        }
    }

    /// A scan of `rows` rows held in the plan.
    pub(crate) fn scan(&self, rows: usize) -> PlanCost {
        PlanCost {
            time_ms: 0.0,
            #[allow(clippy::cast_precision_loss)]
            rows: rows as f64,
        }
    }

    /// A mediator-side operator reading each input row once, `rows` out.
    fn unary(&self, input: PlanCost, rows: f64) -> PlanCost {
        PlanCost {
            time_ms: input.time_ms + input.rows * self.params.mediator_per_row_ms,
            rows,
        }
    }

    pub(crate) fn filter(&self, input: PlanCost) -> PlanCost {
        self.unary(input, input.rows * self.params.filter_selectivity)
    }

    pub(crate) fn per_row(&self, input: PlanCost) -> PlanCost {
        self.unary(input, input.rows)
    }

    pub(crate) fn distinct(&self, input: PlanCost) -> PlanCost {
        self.unary(input, (input.rows * self.params.distinct_ratio).max(1.0))
    }

    pub(crate) fn aggregate(&self, input: PlanCost) -> PlanCost {
        self.unary(input, 1.0)
    }

    /// A nested-loop (or tuple-merging) join.
    pub(crate) fn loop_join(&self, l: PlanCost, r: PlanCost) -> PlanCost {
        PlanCost {
            time_ms: l.time_ms + r.time_ms + l.rows * r.rows * self.params.mediator_per_row_ms,
            rows: (l.rows * r.rows * self.params.join_selectivity).max(1.0),
        }
    }

    /// A hash join.
    pub(crate) fn hash_join(&self, l: PlanCost, r: PlanCost) -> PlanCost {
        PlanCost {
            time_ms: l.time_ms + r.time_ms + (l.rows + r.rows) * self.params.mediator_per_row_ms,
            rows: (l.rows * r.rows * self.params.join_selectivity).max(1.0),
        }
    }
}

/// Estimated output cardinality of a pushed expression under the default
/// (uncalibrated) assumption of one row per base collection.
pub(crate) fn default_exec_rows(logical: &disco_algebra::LogicalExpr, params: &CostParams) -> f64 {
    use disco_algebra::LogicalExpr as L;
    match logical {
        L::Get { .. } => 1.0,
        L::Filter { input, .. } => default_exec_rows(input, params) * params.filter_selectivity,
        L::Project { input, .. } => default_exec_rows(input, params),
        L::SourceJoin { left, right, .. } => (default_exec_rows(left, params)
            * default_exec_rows(right, params)
            * params.join_selectivity)
            .max(1.0),
        other => other
            .children()
            .iter()
            .map(|c| default_exec_rows(c, params))
            .sum::<f64>()
            .max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{lower, LogicalExpr, ScalarExpr, ScalarOp};

    fn filter_pred() -> ScalarExpr {
        ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(10i64),
        )
    }

    #[test]
    fn defaults_make_pushed_plans_cheaper() {
        // With no calibration data, the pushed plan (filter inside exec)
        // costs less than the mediator-side plan (filter over exec),
        // because source work is free and source output defaults to 1 row.
        let store = Arc::new(CalibrationStore::new());
        let model = CostModel::new(store);
        let pushed = lower(
            &LogicalExpr::get("person0")
                .filter(filter_pred())
                .submit("r0", "w0", "person0"),
        )
        .unwrap();
        let mediator = lower(
            &LogicalExpr::get("person0")
                .submit("r0", "w0", "person0")
                .filter(filter_pred()),
        )
        .unwrap();
        let pushed_cost = model.cost(&pushed);
        let mediator_cost = model.cost(&mediator);
        assert!(pushed_cost.time_ms <= mediator_cost.time_ms);
    }

    #[test]
    fn calibrated_estimates_flow_into_plan_costs() {
        let store = Arc::new(CalibrationStore::new());
        let model = CostModel::new(Arc::clone(&store));
        let shipped = LogicalExpr::get("person0");
        store.record("r0", &shipped, 25.0, 1000);
        let plan = lower(
            &LogicalExpr::get("person0")
                .submit("r0", "w0", "person0")
                .filter(filter_pred()),
        )
        .unwrap();
        let cost = model.cost(&plan);
        assert!(cost.time_ms >= 25.0, "exec time dominates: {cost:?}");
        assert!(cost.rows > 100.0, "filter selectivity applied to 1000 rows");
    }

    #[test]
    fn hash_join_is_cheaper_than_nested_loop_on_large_inputs() {
        let store = Arc::new(CalibrationStore::new());
        // Teach the store that both sources return 1000 rows.
        store.record("r0", &LogicalExpr::get("a"), 1.0, 1000);
        store.record("r1", &LogicalExpr::get("b"), 1.0, 1000);
        let model = CostModel::new(Arc::clone(&store));
        let left = LogicalExpr::get("a").submit("r0", "w0", "a").bind("x");
        let right = LogicalExpr::get("b").submit("r1", "w0", "b").bind("y");
        let equi = ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::var_field("x", "id"),
            ScalarExpr::var_field("y", "id"),
        );
        let hash = lower(&LogicalExpr::Join {
            left: Box::new(left.clone()),
            right: Box::new(right.clone()),
            predicate: Some(equi),
        })
        .unwrap();
        let nl = lower(&LogicalExpr::Join {
            left: Box::new(left),
            right: Box::new(right),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Lt,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        })
        .unwrap();
        assert!(model.cost(&hash).time_ms < model.cost(&nl).time_ms);
    }

    #[test]
    fn union_and_aggregate_costs_accumulate() {
        let store = Arc::new(CalibrationStore::new());
        store.record("r0", &LogicalExpr::get("a"), 2.0, 10);
        store.record("r1", &LogicalExpr::get("b"), 3.0, 20);
        let model = CostModel::new(Arc::clone(&store));
        let plan = lower(&LogicalExpr::Aggregate {
            func: disco_algebra::AggKind::Count,
            input: Box::new(LogicalExpr::Union(vec![
                LogicalExpr::get("a").submit("r0", "w0", "a"),
                LogicalExpr::get("b").submit("r1", "w0", "b"),
            ])),
        })
        .unwrap();
        let cost = model.cost(&plan);
        assert!(cost.time_ms >= 5.0);
        assert!((cost.rows - 1.0).abs() < f64::EPSILON);
    }
}

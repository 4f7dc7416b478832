//! The plan search: alternative generation, costing and selection (§3.1).
//!
//! "The search is accomplished by transforming the query into several
//! alternative expressions which can be executed by the run-time system.
//! Each expression has an associated estimated cost.  The expression with
//! the lowest estimated cost is then executed."
//!
//! The optimizer's alternatives are five subsets of the capability-checked
//! pushdown rules ([`STRATEGIES`]) applied to the normalized canonical
//! plan: none, selections only, projections only, both, and
//! [`rules::push_to_wrappers`]' whole chain.  The planner *decides before
//! it builds*: the search (`crate::search`) costs every strategy without
//! building any alternative's tree, then the normalized plan is rewritten
//! in place with the winner's passes ([`materialise`]) and lowered once.
//! Losing alternatives get a tree only from [`Optimizer::explain_text`].
//!
//! What the search finds rests on the order in which a pass tries the
//! rules at a node — [`apply_subset`] and [`rules::push_to_wrappers`]
//! differ in exactly that — so the order is kept as written;
//! `tests/plan_identity.rs` pins every alternative, cost and winner.

use std::sync::Arc;

use disco_algebra::rules::{
    self, push_filter_into_submit, push_project_into_submit, push_project_past_filter,
};
use disco_algebra::{lower, CapabilityLookup, LogicalExpr, PhysicalExpr};
use disco_catalog::Catalog;
use disco_oql::parse_query;

use crate::calibration::CalibrationStore;
use crate::compile::compile_recording;
use crate::cost::{CostModel, CostParams, PlanCost};
use crate::patch::{NameUse, PlanMemo};
use crate::search::search;
use crate::Result;

/// The rule subsets the search tries, in order; see [`materialise`].
pub(crate) const STRATEGIES: [&str; 5] = [
    "mediator-only",
    "push-selections",
    "push-projections",
    "push-selections-projections",
    "push-everything",
];

/// One alternative considered during the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanAlternative {
    /// Which rule subset produced it.
    pub strategy: &'static str,
    /// Its estimated cost.
    pub cost: PlanCost,
}

/// The outcome of optimization: the chosen plan plus the alternatives that
/// were considered.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The original query text, when the plan came from text.
    pub query: Option<String>,
    /// The catalog generation the plan was built against (what a plan
    /// cache keys it by).
    pub catalog_generation: u64,
    /// The chosen logical plan.
    pub logical: LogicalExpr,
    /// The chosen physical plan.
    pub physical: PhysicalExpr,
    /// Estimated cost of the chosen plan.
    pub cost: PlanCost,
    /// The strategy of the chosen alternative.
    pub strategy: &'static str,
    /// Every distinct alternative considered, the chosen one included; no
    /// trees ([`Optimizer::explain_text`] builds them).
    pub alternatives: Vec<PlanAlternative>,
    /// What patching the plan to a later catalog needs.
    pub(crate) memo: Arc<PlanMemo>,
}

impl Plan {
    /// What patching the plan to a later catalog needs
    /// ([`Optimizer::patch`]).
    #[must_use]
    pub fn memo(&self) -> &Arc<PlanMemo> {
        &self.memo
    }
}

/// A plan with the tree of every alternative the search costed: what
/// `explain` shows.
#[derive(Debug, Clone)]
pub struct Explained {
    /// The plan [`Optimizer::optimize_text`] finds for the text.
    pub plan: Plan,
    /// The logical tree of each of `plan.alternatives`, in order.
    pub trees: Vec<LogicalExpr>,
}

/// The DISCO query optimizer.
pub struct Optimizer {
    capabilities: Box<dyn CapabilityLookup + Send + Sync>,
    cost_model: CostModel,
}

impl std::fmt::Debug for Optimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Optimizer")
            .field("cost_params", self.cost_model.params())
            .finish()
    }
}

impl Optimizer {
    /// Creates an optimizer with the given wrapper-capability lookup and a
    /// fresh calibration store.
    pub fn new<C>(capabilities: C) -> Self
    where
        C: CapabilityLookup + Send + Sync + 'static,
    {
        Optimizer {
            capabilities: Box::new(capabilities),
            cost_model: CostModel::new(Arc::new(CalibrationStore::new())),
        }
    }

    /// Creates an optimizer sharing an existing calibration store.
    pub fn with_store<C>(capabilities: C, store: Arc<CalibrationStore>) -> Self
    where
        C: CapabilityLookup + Send + Sync + 'static,
    {
        Optimizer {
            capabilities: Box::new(capabilities),
            cost_model: CostModel::new(store),
        }
    }

    /// Overrides the mediator cost constants.
    #[must_use]
    pub fn with_cost_params(mut self, params: CostParams) -> Self {
        self.cost_model = CostModel::new(Arc::clone(self.cost_model.store())).with_params(params);
        self
    }

    /// The calibration store used for `exec` estimates (the runtime records
    /// finished calls into it).
    #[must_use]
    pub fn calibration(&self) -> &Arc<CalibrationStore> {
        self.cost_model.store()
    }

    /// The cost model.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Compiles and optimizes OQL text against the catalog.
    ///
    /// # Errors
    ///
    /// Returns compilation errors and lowering errors.
    pub fn optimize_text(&self, query: &str, catalog: &Catalog) -> Result<Plan> {
        let version = self.capabilities.version();
        let (compiled, names) = compile_recording(&parse_query(query)?, catalog)?;
        let normalized = self.classed(&compiled);
        let mut plan =
            self.plan_normalized(normalized, catalog.generation(), Some(names), version)?;
        plan.query = Some(query.to_owned());
        Ok(plan)
    }

    /// Optimizes an already-compiled logical plan.
    ///
    /// # Errors
    ///
    /// Returns lowering errors (e.g. a bare `get` outside `submit`).
    pub fn optimize_logical(
        &self,
        compiled: &LogicalExpr,
        catalog_generation: u64,
    ) -> Result<Plan> {
        let version = self.capabilities.version();
        self.plan_normalized(self.classed(compiled), catalog_generation, None, version)
    }

    /// The wrapper-capability lookup the optimizer plans with.
    #[must_use]
    pub fn capabilities(&self) -> &dyn CapabilityLookup {
        self.capabilities.as_ref()
    }

    /// The normalized plan with the classes of its [`Extents`] nodes
    /// formed: what the search costs and every alternative is rewritten
    /// from.
    ///
    /// [`Extents`]: disco_algebra::Extents
    fn classed(&self, compiled: &LogicalExpr) -> LogicalExpr {
        let mut plan = rules::normalize(compiled);
        let lookup = self.capabilities.as_ref();
        plan.rewrite_in_place(&|e| rules::classify_extents(e, lookup));
        plan
    }

    /// [`Optimizer::optimize_text`], plus the tree of every alternative —
    /// the one place the trees of losing alternatives are built.
    ///
    /// # Errors
    ///
    /// As [`Optimizer::optimize_text`].
    pub fn explain_text(&self, query: &str, catalog: &Catalog) -> Result<Explained> {
        let version = self.capabilities.version();
        let (compiled, names) = compile_recording(&parse_query(query)?, catalog)?;
        let normalized = self.classed(&compiled);
        let mut plan = self.plan_normalized(
            normalized.clone(),
            catalog.generation(),
            Some(names),
            version,
        )?;
        plan.query = Some(query.to_owned());
        let trees = plan.alternatives.iter().map(|alternative| {
            let mut tree = normalized.clone();
            materialise(alternative.strategy, &mut tree, self.capabilities.as_ref());
            tree
        });
        Ok(Explained {
            trees: trees.collect(),
            plan,
        })
    }

    /// Searches, then builds and lowers the winner only; keeps what
    /// patching the plan needs: the text's `names`, the normalized plan,
    /// the search's findings and the capabilities the lookup had at
    /// `version`.
    fn plan_normalized(
        &self,
        mut logical: LogicalExpr,
        catalog_generation: u64,
        names: Option<Vec<NameUse>>,
        version: u64,
    ) -> Result<Plan> {
        let lookup = self.capabilities.as_ref();
        let found = search(&logical, lookup, &self.cost_model);
        let (alternatives, winner) = (found.0.clone(), found.1);
        let PlanAlternative { strategy, cost } = alternatives[winner];
        let normalized = logical.clone();
        materialise(strategy, &mut logical, lookup);
        let physical = lower(&logical)?;
        let memo = PlanMemo::new(names, normalized, found, lookup, version);
        Ok(Plan {
            query: None,
            catalog_generation,
            logical,
            physical,
            cost,
            strategy,
            alternatives,
            memo: Arc::new(memo),
        })
    }
}

/// Rewrites the normalized `plan` in place into `strategy`'s tree — the one
/// way a tree is built: for a class's site by the search, for the winner
/// by the query path, for every alternative by explain.  An `Extents`
/// node's members are rewritten a class at a time: the rules rewrite the
/// class's template, asking its first member's wrapper (the capability
/// rules form the classes of a node that has none yet).
pub(crate) fn materialise(strategy: &str, plan: &mut LogicalExpr, lookup: &dyn CapabilityLookup) {
    match strategy {
        "push-selections" => apply_subset(plan, lookup, true, false),
        "push-projections" => apply_subset(plan, lookup, false, true),
        "push-selections-projections" => apply_subset(plan, lookup, true, true),
        "push-everything" => rules::push_to_wrappers_in_place(plan, lookup),
        "mediator-only" => {}
        other => unreachable!("no strategy {other}"),
    }
}

/// Applies the selected subset of pushdown rules to a fixpoint: the passes
/// of [`rules::push_to_wrappers`] without the join rule and with the
/// projection-past-filter rule tried *before* the plain projection push.
fn apply_subset(
    plan: &mut LogicalExpr,
    lookup: &dyn CapabilityLookup,
    filters: bool,
    projections: bool,
) {
    rules::rewrite_to_fixpoint(plan, &|e| {
        (filters && push_filter_into_submit(e, lookup))
            || (projections
                && (push_project_past_filter(e, lookup) || push_project_into_submit(e, lookup)))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{CapabilitySet, OperatorKind};
    use disco_catalog::{Attribute, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef};
    use std::collections::BTreeMap;

    fn catalog_with_two_sources() -> Catalog {
        let mut c = Catalog::new();
        c.define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("id", TypeRef::Int))
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
        c.add_wrapper(WrapperDef::new("w_full", "relational"))
            .unwrap();
        c.add_wrapper(WrapperDef::new("w_min", "csv")).unwrap();
        c.add_repository(Repository::new("r0")).unwrap();
        c.add_repository(Repository::new("r1")).unwrap();
        c.add_extent(MetaExtent::new("person0", "Person", "w_full", "r0"))
            .unwrap();
        c.add_extent(MetaExtent::new("person1", "Person", "w_min", "r1"))
            .unwrap();
        c
    }

    fn capability_map() -> BTreeMap<String, CapabilitySet> {
        let mut m = BTreeMap::new();
        m.insert(
            "w_full".to_owned(),
            CapabilitySet::new([
                OperatorKind::Get,
                OperatorKind::Select,
                OperatorKind::Project,
            ])
            .with_composition(true),
        );
        m.insert("w_min".to_owned(), CapabilitySet::get_only());
        m
    }

    #[test]
    fn optimizer_pushes_work_to_capable_wrappers_only() {
        let catalog = catalog_with_two_sources();
        let optimizer = Optimizer::new(capability_map());
        let plan = optimizer
            .optimize_text(
                "select x.name from x in person where x.salary > 10",
                &catalog,
            )
            .unwrap();
        let text = plan.logical.to_string();
        assert!(
            text.contains("submit(r0, project(name, select((salary > 10), get(person0))))")
                || text.contains(
                    "submit(r0, select((salary > 10), project(name, salary, get(person0))))"
                )
                || text.contains(
                    "submit(r0, project(name, salary, select((salary > 10), get(person0))))"
                ),
            "capable wrapper branch should be pushed: {text}"
        );
        assert!(
            text.contains("submit(r1, get(person1))"),
            "get-only wrapper branch should ship only get: {text}"
        );
        assert!(plan.alternatives.len() >= 2);
        assert_eq!(plan.physical.collect_execs().len(), 2);
    }

    #[test]
    fn alternatives_include_mediator_only_and_are_costed() {
        let catalog = catalog_with_two_sources();
        let optimizer = Optimizer::new(capability_map());
        let plan = optimizer
            .optimize_text(
                "select x.name from x in person0 where x.salary > 10",
                &catalog,
            )
            .unwrap();
        assert!(plan
            .alternatives
            .iter()
            .any(|a| a.strategy == "mediator-only"));
        for alt in &plan.alternatives {
            assert!(alt.cost.time_ms >= 0.0);
        }
        // The chosen plan is at least as cheap as every alternative.
        for alt in &plan.alternatives {
            assert!(plan.cost.time_ms <= alt.cost.time_ms + 1e-9);
        }
    }

    #[test]
    fn calibration_steers_the_choice() {
        let catalog = catalog_with_two_sources();
        let store = Arc::new(CalibrationStore::new());
        let optimizer = Optimizer::with_store(capability_map(), Arc::clone(&store));
        // Teach the optimizer that pushing the selection to r0 is *slow*
        // (e.g. the source has no index) while plain gets are fast and small.
        let pushed_shape = disco_algebra::LogicalExpr::get("person0")
            .project(["name", "salary"])
            .filter(disco_algebra::ScalarExpr::binary(
                disco_algebra::ScalarOp::Gt,
                disco_algebra::ScalarExpr::attr("salary"),
                disco_algebra::ScalarExpr::constant(10i64),
            ));
        store.record("r0", &pushed_shape, 500.0, 10);
        let plan = optimizer
            .optimize_text(
                "select x.name from x in person0 where x.salary > 10",
                &catalog,
            )
            .unwrap();
        // With the pushed shape now known to be expensive the optimizer may
        // keep work at the mediator; either way the chosen cost must be the
        // minimum over alternatives.
        let min = plan
            .alternatives
            .iter()
            .map(|a| a.cost.time_ms)
            .fold(f64::INFINITY, f64::min);
        assert!((plan.cost.time_ms - min).abs() < 1e-9);
    }

    #[test]
    fn chosen_strategy_is_reported() {
        let catalog = catalog_with_two_sources();
        let optimizer = Optimizer::new(capability_map());
        let plan = optimizer
            .optimize_text("select x.name from x in person0", &catalog)
            .unwrap();
        assert!(STRATEGIES.contains(&plan.strategy));
        assert_eq!(plan.catalog_generation, catalog.generation());
        assert_eq!(
            plan.query.as_deref(),
            Some("select x.name from x in person0")
        );
    }

    #[test]
    fn unknown_wrappers_default_to_get_only() {
        let catalog = catalog_with_two_sources();
        // Empty capability map: nothing can be pushed.
        let optimizer = Optimizer::new(BTreeMap::<String, CapabilitySet>::new());
        let plan = optimizer
            .optimize_text(
                "select x.name from x in person where x.salary > 10",
                &catalog,
            )
            .unwrap();
        let text = plan.logical.to_string();
        assert!(!text.contains("submit(r0, select"), "{text}");
        assert!(!text.contains("submit(r1, select"), "{text}");
    }
}

//! The run-time system: orchestrates parallel wrapper calls, full
//! evaluation, and partial evaluation under a deadline (§3, §4, Fig. 2).

use std::sync::Arc;
use std::time::Instant;

use disco_algebra::PhysicalExpr;
use disco_catalog::Catalog;
use disco_optimizer::CalibrationStore;
use disco_wrapper::WrapperRegistry;

use crate::calls::CallExecutor;
use crate::exec::{resolve_on, ExecutionConfig};
use crate::partial::{partial_answer, Answer, ExecutionStats};
use crate::pipeline::{evaluate_pass, MemBudget, PipelineMetrics};
use crate::prepared::{CallTable, PreparedPlan};
use crate::{Result, RuntimeError};

/// Executes physical plans against the registered wrappers.
///
/// # Examples
///
/// See the crate-level documentation and the `disco-core` mediator, which
/// wraps the executor together with the catalog and optimizer.
#[derive(Clone)]
pub struct Executor {
    registry: WrapperRegistry,
    config: ExecutionConfig,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("deadline", &self.config.deadline)
            .field("wrappers", &self.registry.names())
            .finish()
    }
}

impl Executor {
    /// Creates an executor over a wrapper registry with the default
    /// configuration (500 ms deadline, no calibration recording).
    #[must_use]
    pub fn new(registry: WrapperRegistry) -> Self {
        Executor {
            registry,
            config: ExecutionConfig::default(),
        }
    }

    /// Sets the deadline after which unanswered sources are classified
    /// unavailable.  `None` waits for every source.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// Records every finished `exec` call into `store` (feeding the
    /// self-calibrating cost model).
    #[must_use]
    pub fn with_calibration(mut self, store: Arc<CalibrationStore>) -> Self {
        self.config.calibration = Some(store);
        self
    }

    /// Sets the memory budget of the execution.  A bounded budget makes
    /// the pipeline breakers (hash join, distinct, a buffered join inner)
    /// spill to disk instead of buffering past it; it does not touch the
    /// pending-source spools.  [`MemBudget::Auto`] (the default)
    /// defers to the `DISCO_MEM_BUDGET` environment variable;
    /// [`MemBudget::Unbounded`] pins the in-memory path regardless of
    /// the environment.
    #[must_use]
    pub fn with_mem_budget(mut self, budget: MemBudget) -> Self {
        self.config.pipeline.mem_budget = budget;
        self
    }

    /// Shares a wrapper-connection pool with this executor: wrapper
    /// calls queue behind the pool's per-repository concurrency caps,
    /// and time spent queued is metered into
    /// [`ExecutionStats::source_wait`].  A serving layer passes one pool
    /// to every session's executor so the caps hold across concurrent
    /// queries.
    #[must_use]
    pub fn with_source_pool(mut self, pool: Arc<crate::pool::SourcePool>) -> Self {
        self.config.source_pool = Some(pool);
        self
    }

    /// Caps the total rows this query may transfer from its sources.
    /// Exhausting the budget cancels the still-streaming calls through
    /// the deadline path: the query completes as a partial answer whose
    /// residual re-fetches the cancelled sources.  `None` (the default)
    /// is unlimited.
    #[must_use]
    pub fn with_row_budget(mut self, budget: Option<usize>) -> Self {
        self.config.row_budget = budget;
        self
    }

    /// The wrapper registry.
    #[must_use]
    pub fn registry(&self) -> &WrapperRegistry {
        &self.registry
    }

    /// The execution configuration.
    #[must_use]
    pub fn config(&self) -> &ExecutionConfig {
        &self.config
    }

    /// Executes a physical plan: prepares its call table against
    /// `catalog` and runs it, as [`Executor::execute_prepared`] runs a
    /// cached plan's.
    ///
    /// Every `exec` call is queued at once and the plan is evaluated in
    /// one pass while row chunks arrive, so the slowest source does not
    /// gate the combine step.  If every source answers, the result is a
    /// complete [`Answer`].  If a source reports unavailability or is
    /// still streaming at the deadline, the answer holds the data obtained
    /// and the residual query (§4): under a root union the loss unwinds
    /// only to the branch reading the source (under a root fan-out, to the
    /// member), and the pass's rows of every branch whose calls all
    /// answered are the data.
    ///
    /// # Errors
    ///
    /// Hard errors only: capability violations, type conflicts, unknown
    /// wrappers/tables, evaluation errors.  Unavailability is not an error.
    pub fn execute(&self, plan: &PhysicalExpr, catalog: &Catalog) -> Result<Answer> {
        let started = Instant::now();
        let calls = Arc::new(CallTable::new(plan, catalog)?);
        self.run(plan, &calls, started)
    }

    /// Executes a prepared plan (a plan-cache hit): the same run as
    /// [`Executor::execute`]'s, over the call table prepared with the
    /// plan — only the execution's own state is built.
    ///
    /// # Errors
    ///
    /// As [`Executor::execute`].
    pub fn execute_prepared(&self, prepared: &PreparedPlan) -> Result<Answer> {
        self.run(prepared.physical(), &prepared.calls, Instant::now())
    }

    fn run(&self, plan: &PhysicalExpr, calls: &Arc<CallTable>, started: Instant) -> Result<Answer> {
        let mut resolved = resolve_on(CallExecutor::global(), calls, &self.registry, &self.config)?;
        let options = self.config.pipeline;
        let metrics = PipelineMetrics::new();
        let pass = match evaluate_pass(plan, &resolved, &metrics, options) {
            Ok(pass) => Some(pass),
            // A loss under a root that is not a union ends the pass.
            Err(RuntimeError::PendingUnavailable(_)) => None,
            Err(other) => {
                // Hard error: disconnect the remaining wrapper calls so
                // they wind down instead of running detached.
                resolved.cancel_pending();
                return Err(other);
            }
        };
        // Also waits for the (rare) spools evaluation never pulled — e.g.
        // a nested sub-plan guarded by an empty outer — so classification
        // does not depend on what the plan happened to drain.
        resolved.finalize_streamed()?;
        let (data, residual, first_row) = match pass {
            Some((data, _)) if resolved.all_available() => {
                (data, None, metrics.time_to_first_row_since(started))
            }
            pass => partial_answer(plan, pass, &resolved, &metrics, options, started)?,
        };
        let stats = ExecutionStats::of(resolved, &metrics, started, first_row, &data);
        let answer = match residual {
            Some(residual) => Answer::partial(data, residual, stats),
            None => Answer::complete(data, stats),
        };
        self.note_source_health(answer.stats());
        Ok(answer)
    }

    /// Feeds the execution's observed per-source behaviour back into the
    /// calibration store, under one lock: each answered call's latency
    /// and row count update the repository's degradation tracker, so
    /// repeated queries re-plan around chronically slow sources (and stop
    /// penalizing them once they recover).
    fn note_source_health(&self, stats: &ExecutionStats) {
        let Some(store) = &self.config.calibration else {
            return;
        };
        store.note_source_waits(stats.source_calls.iter().filter(|call| call.available).map(
            |call| {
                let latency_ms = call.latency.as_secs_f64() * 1000.0;
                (&*call.repository, latency_ms, call.rows_returned)
            },
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{lower, LogicalExpr, ScalarExpr, ScalarOp};
    use disco_catalog::{Attribute, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef};
    use disco_source::{Availability, NetworkProfile, RelationalStore, SimulatedLink, Table};
    use disco_value::Value;
    use disco_wrapper::RelationalWrapper;

    /// Builds the paper's introductory scenario: r0 holds Mary (salary 200),
    /// r1 holds Sam (salary 50); separate stores and links per repository.
    fn paper_setup() -> (
        Catalog,
        WrapperRegistry,
        Arc<SimulatedLink>,
        Arc<SimulatedLink>,
    ) {
        let mut catalog = Catalog::new();
        catalog
            .define_interface(
                InterfaceDef::new("Person")
                    .with_extent_name("person")
                    .with_attribute(Attribute::new("name", TypeRef::String))
                    .with_attribute(Attribute::new("salary", TypeRef::Int)),
            )
            .unwrap();
        catalog
            .add_wrapper(WrapperDef::new("w_r0", "relational"))
            .unwrap();
        catalog
            .add_wrapper(WrapperDef::new("w_r1", "relational"))
            .unwrap();
        catalog
            .add_repository(Repository::new("r0").with_host("rodin"))
            .unwrap();
        catalog.add_repository(Repository::new("r1")).unwrap();
        catalog
            .add_extent(MetaExtent::new("person0", "Person", "w_r0", "r0"))
            .unwrap();
        catalog
            .add_extent(MetaExtent::new("person1", "Person", "w_r1", "r1"))
            .unwrap();

        let registry = WrapperRegistry::new();
        let mut t0 = Table::new("person0", ["name", "salary"]);
        t0.insert_values([("name", Value::from("Mary")), ("salary", Value::Int(200))])
            .unwrap();
        let store0 = Arc::new(RelationalStore::new());
        store0.put_table(t0);
        let link0 = Arc::new(SimulatedLink::new("r0", NetworkProfile::fast(), 1));
        registry.register(Arc::new(RelationalWrapper::new(
            "w_r0",
            store0,
            Arc::clone(&link0),
        )));

        let mut t1 = Table::new("person1", ["name", "salary"]);
        t1.insert_values([("name", Value::from("Sam")), ("salary", Value::Int(50))])
            .unwrap();
        let store1 = Arc::new(RelationalStore::new());
        store1.put_table(t1);
        let link1 = Arc::new(SimulatedLink::new("r1", NetworkProfile::fast(), 2));
        registry.register(Arc::new(RelationalWrapper::new(
            "w_r1",
            store1,
            Arc::clone(&link1),
        )));
        (catalog, registry, link0, link1)
    }

    /// The canonical plan of the paper's introductory query.
    fn intro_plan() -> disco_algebra::PhysicalExpr {
        let branch = |extent: &str, repo: &str, wrapper: &str| {
            LogicalExpr::get(extent)
                .submit(repo, wrapper, extent)
                .filter(ScalarExpr::binary(
                    ScalarOp::Gt,
                    ScalarExpr::attr("salary"),
                    ScalarExpr::constant(10i64),
                ))
                .bind("x")
                .map_project(ScalarExpr::var_field("x", "name"))
        };
        lower(&LogicalExpr::Union(vec![
            branch("person0", "r0", "w_r0"),
            branch("person1", "r1", "w_r1"),
        ]))
        .unwrap()
    }

    #[test]
    fn complete_answer_when_all_sources_available() {
        let (catalog, registry, _l0, _l1) = paper_setup();
        let executor = Executor::new(registry);
        let answer = executor.execute(&intro_plan(), &catalog).unwrap();
        assert!(answer.is_complete());
        assert_eq!(
            *answer.data(),
            [Value::from("Mary"), Value::from("Sam")]
                .into_iter()
                .collect()
        );
        assert_eq!(answer.stats().exec_calls, 2);
        assert!(answer.unavailable_sources().is_empty());
    }

    #[test]
    fn partial_answer_when_r0_is_unavailable() {
        let (catalog, registry, link0, _l1) = paper_setup();
        link0.set_availability(Availability::Unavailable);
        let executor = Executor::new(registry);
        let answer = executor.execute(&intro_plan(), &catalog).unwrap();
        assert!(!answer.is_complete());
        assert_eq!(*answer.data(), [Value::from("Sam")].into_iter().collect());
        assert_eq!(answer.unavailable_sources(), &["r0".to_owned()]);
        let text = answer.as_query_text();
        assert_eq!(
            text,
            "union(select x.name from x in person0 where x.salary > 10, bag(\"Sam\"))"
        );
    }

    #[test]
    fn recovery_then_resubmission_yields_the_full_answer() {
        let (catalog, registry, link0, _l1) = paper_setup();
        link0.set_availability(Availability::Unavailable);
        let executor = Executor::new(registry);
        let partial = executor.execute(&intro_plan(), &catalog).unwrap();
        assert!(!partial.is_complete());
        // The source recovers; re-executing the *residual* plan plus the
        // data already obtained gives the original complete answer.
        link0.set_availability(Availability::Available);
        let residual_plan = lower(&disco_algebra::LogicalExpr::Union(vec![
            partial.residual().unwrap().clone(),
            disco_algebra::LogicalExpr::Data(partial.data().clone()),
        ]))
        .unwrap();
        let complete = executor.execute(&residual_plan, &catalog).unwrap();
        assert!(complete.is_complete());
        assert_eq!(
            *complete.data(),
            [Value::from("Mary"), Value::from("Sam")]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn deadline_classifies_slow_sources_as_unavailable() {
        let (catalog, registry, link0, _l1) = paper_setup();
        // r0 answers, but only after 200 ms of real sleep; the deadline is
        // 30 ms, so it must be classified unavailable.
        link0.set_profile(
            NetworkProfile::fast()
                .with_availability(Availability::Slow { extra_ms: 200 })
                .with_real_sleep(true),
        );
        let executor =
            Executor::new(registry).with_deadline(Some(std::time::Duration::from_millis(30)));
        let answer = executor.execute(&intro_plan(), &catalog).unwrap();
        assert!(!answer.is_complete());
        assert_eq!(answer.unavailable_sources(), &["r0".to_owned()]);
        assert_eq!(*answer.data(), [Value::from("Sam")].into_iter().collect());
    }

    #[test]
    fn calibration_is_fed_by_executions() {
        let (catalog, registry, _l0, _l1) = paper_setup();
        let store = Arc::new(CalibrationStore::new());
        let executor = Executor::new(registry).with_calibration(Arc::clone(&store));
        executor.execute(&intro_plan(), &catalog).unwrap();
        assert_eq!(store.exact_shapes(), 2);
        let est = store.estimate("r0", &LogicalExpr::get("person0"));
        assert_eq!(est.source, disco_optimizer::MatchKind::Exact);
        assert!((est.rows - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn all_sources_unavailable_returns_pure_residual() {
        let (catalog, registry, link0, link1) = paper_setup();
        link0.set_availability(Availability::Unavailable);
        link1.set_availability(Availability::Unavailable);
        let executor = Executor::new(registry);
        let answer = executor.execute(&intro_plan(), &catalog).unwrap();
        assert!(!answer.is_complete());
        assert!(answer.data().is_empty());
        assert_eq!(answer.unavailable_sources().len(), 2);
        // The residual is the whole original query (modulo location
        // transparency).
        let residual = answer.residual_oql().unwrap();
        assert!(residual.contains("person0"));
        assert!(residual.contains("person1"));
    }
}

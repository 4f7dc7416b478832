//! The DISCO mediator (Prototype 0, Fig. 2): a single component combining
//! the ODL/OQL parsers, the internal database (catalog), the query
//! optimizer, the run-time system and the wrapper bindings.

use std::sync::Arc;
use std::time::Duration;

use disco_algebra::CapabilitySet;
use disco_catalog::{Catalog, InterfaceDef, MetaExtent, Repository, TypeMap, ViewDef, WrapperDef};
use disco_optimizer::{CalibrationStore, CostParams, Explained, Optimizer, PlanCache};
use disco_oql::{parse_query, parse_statements, OdlStatement};
use disco_runtime::{Answer, Executor, PreparedPlan};
use disco_source::{NetworkProfile, RelationalStore, SimulatedLink, Table};
use disco_value::Value;
use disco_wrapper::{CsvWrapper, DocumentWrapper, RelationalWrapper, Wrapper, WrapperRegistry};

use crate::{MediatorError, Result};

/// The DISCO mediator.
///
/// A mediator owns an internal database (the [`Catalog`]), a registry of
/// wrapper implementations, a self-calibrating cost store and a plan
/// cache.  Database administrators register repositories, wrappers,
/// interfaces, extents and views (programmatically or by loading ODL
/// text); end users and applications submit OQL queries and receive
/// [`Answer`]s that may be partial when sources are unavailable.
///
/// # Examples
///
/// ```
/// use disco_core::Mediator;
///
/// # fn main() -> Result<(), disco_core::MediatorError> {
/// let mut mediator = Mediator::new("hr");
/// mediator.register_person_demo()?;
/// let answer = mediator.query("select x.name from x in person where x.salary > 10")?;
/// assert_eq!(answer.data().len(), 2);
/// # Ok(())
/// # }
/// ```
pub struct Mediator {
    name: String,
    catalog: Catalog,
    registry: WrapperRegistry,
    calibration: Arc<CalibrationStore>,
    plan_cache: PlanCache<PreparedPlan>,
    /// The optimizer over the registry, the calibration store and
    /// `cost_params`.
    optimizer: Optimizer,
    deadline: Option<Duration>,
    cost_params: CostParams,
}

impl std::fmt::Debug for Mediator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mediator")
            .field("name", &self.name)
            .field("catalog", &self.catalog.stats())
            .field("wrappers", &self.registry.names())
            .finish()
    }
}

impl Mediator {
    /// Creates an empty mediator.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let registry = WrapperRegistry::new();
        let calibration = Arc::new(CalibrationStore::new());
        let cost_params = CostParams::default();
        Mediator {
            name: name.into(),
            catalog: Catalog::new(),
            optimizer: optimizer_over(&registry, &calibration, cost_params),
            registry,
            calibration,
            plan_cache: PlanCache::default(),
            deadline: Some(Duration::from_millis(500)),
            cost_params,
        }
    }

    /// The mediator's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Read access to the internal catalog.
    #[must_use]
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog, for advanced schema manipulation.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The wrapper registry.
    #[must_use]
    pub fn registry(&self) -> &WrapperRegistry {
        &self.registry
    }

    /// The calibration store shared by the optimizer and executor.
    #[must_use]
    pub fn calibration(&self) -> &Arc<CalibrationStore> {
        &self.calibration
    }

    /// Sets the partial-evaluation deadline (`None` waits indefinitely).
    pub fn set_deadline(&mut self, deadline: Option<Duration>) {
        self.deadline = deadline;
    }

    /// The partial-evaluation deadline currently in force.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The mediator-side cost constants the optimizer plans with.
    #[must_use]
    pub fn cost_params(&self) -> CostParams {
        self.cost_params
    }

    /// Overrides the mediator-side cost constants.
    pub fn set_cost_params(&mut self, params: CostParams) {
        self.cost_params = params;
        self.optimizer = optimizer_over(&self.registry, &self.calibration, params);
    }

    // ------------------------------------------------------------------
    // Registration (the DBA interface, §2)
    // ------------------------------------------------------------------

    /// Registers a repository object.
    ///
    /// # Errors
    ///
    /// Returns catalog errors (duplicate names).
    pub fn register_repository(&mut self, repository: Repository) -> Result<()> {
        self.catalog.add_repository(repository)?;
        Ok(())
    }

    /// Registers a wrapper implementation, recording it in the catalog
    /// under its own name.
    ///
    /// # Errors
    ///
    /// Returns catalog errors (duplicate names).
    pub fn register_wrapper(&mut self, wrapper: Arc<dyn Wrapper>) -> Result<()> {
        self.catalog
            .add_wrapper(WrapperDef::new(wrapper.name(), wrapper.kind()))?;
        self.registry.register(wrapper);
        Ok(())
    }

    /// Binds a wrapper implementation to a name already declared in ODL
    /// (`w0 := WrapperPostgres()`), without touching the catalog.  A
    /// cached plan planned for other capabilities of the name is planned
    /// again at its next lookup.
    pub fn bind_wrapper(&mut self, wrapper: Arc<dyn Wrapper>) {
        self.registry.register(wrapper);
    }

    /// Defines a mediator interface.
    ///
    /// # Errors
    ///
    /// Returns catalog errors.
    pub fn define_interface(&mut self, interface: InterfaceDef) -> Result<()> {
        self.catalog.define_interface(interface)?;
        Ok(())
    }

    /// Registers an extent — the DISCO
    /// `extent e of I wrapper w repository r [map …];` declaration.
    ///
    /// # Errors
    ///
    /// Returns catalog errors (unknown interface/wrapper/repository).
    pub fn register_extent(&mut self, extent: MetaExtent) -> Result<()> {
        self.catalog.add_extent(extent)?;
        Ok(())
    }

    /// Removes an extent (a data source leaves the federation).
    ///
    /// # Errors
    ///
    /// Returns catalog errors.
    pub fn remove_extent(&mut self, name: &str) -> Result<MetaExtent> {
        Ok(self.catalog.remove_extent(name)?)
    }

    /// Defines a view (`define name as <query>`), recording the names the
    /// body references for cycle detection.
    ///
    /// # Errors
    ///
    /// Returns parse errors and catalog errors (duplicates, cycles).
    pub fn define_view(&mut self, name: &str, body: &str) -> Result<()> {
        let parsed = parse_query(body)?;
        let references = parsed.referenced_collections();
        self.catalog
            .define_view(ViewDef::new(name, body).with_references(references))?;
        Ok(())
    }

    /// Loads a sequence of ODL / DISCO statements (interfaces, extents,
    /// repository assignments, views).  Wrapper assignments are recorded in
    /// the catalog but their implementation must be bound separately with
    /// [`Mediator::bind_wrapper`].
    ///
    /// # Errors
    ///
    /// Returns parse and catalog errors; bare queries are rejected (use
    /// [`Mediator::query`]).
    pub fn load_odl(&mut self, text: &str) -> Result<usize> {
        let statements = parse_statements(text)?;
        let count = statements.len();
        for statement in statements {
            self.apply_statement(statement)?;
        }
        Ok(count)
    }

    fn apply_statement(&mut self, statement: OdlStatement) -> Result<()> {
        match statement {
            OdlStatement::Interface {
                name,
                supertype,
                extent_name,
                attributes,
            } => {
                let mut def = InterfaceDef::new(name);
                if let Some(sup) = supertype {
                    def = def.with_supertype(sup);
                }
                if let Some(extent) = extent_name {
                    def = def.with_extent_name(extent);
                }
                for attr in attributes {
                    def = def.with_attribute(disco_catalog::Attribute::new(
                        attr.name,
                        disco_catalog::TypeRef::from_odl_name(&attr.type_name),
                    ));
                }
                self.define_interface(def)
            }
            OdlStatement::Extent {
                extent,
                interface,
                wrapper,
                repository,
                map,
            } => {
                let mut meta = MetaExtent::new(&extent, interface, wrapper, repository);
                if let Some(map_text) = map {
                    let parsed = TypeMap::parse(&map_text, &extent)?;
                    meta = meta.with_map(parsed);
                }
                self.register_extent(meta)
            }
            OdlStatement::Define { name, body } => {
                let references = body.referenced_collections();
                let body_text = disco_oql::print_expr(&body);
                self.catalog
                    .define_view(ViewDef::new(name, body_text).with_references(references))?;
                Ok(())
            }
            OdlStatement::RepositoryAssign { name, fields } => {
                let mut repo = Repository::new(name);
                for (field, value) in fields {
                    let text = match value {
                        Value::Str(s) => s.as_ref().to_owned(),
                        other => other.to_string(),
                    };
                    repo = match field.as_str() {
                        "host" => repo.with_host(text),
                        "name" => repo.with_db_name(text),
                        "address" => repo.with_address(text),
                        other => repo.with_property(other, text),
                    };
                }
                self.register_repository(repo)
            }
            OdlStatement::WrapperAssign { name, kind } => {
                self.catalog.add_wrapper(WrapperDef::new(&name, &kind))?;
                if self.registry.wrapper(&name).is_none() {
                    // The catalog entry exists; the implementation must be
                    // bound before the extent is queried.  This is not an
                    // error yet — mirroring the paper, where locating the
                    // wrapper implementation is a separate DBA/DBI step.
                }
                Ok(())
            }
            OdlStatement::Query(_) => Err(MediatorError::Unsupported(
                "bare query inside an ODL load; use Mediator::query".into(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Convenience registration of simulated sources
    // ------------------------------------------------------------------

    /// Registers a simulated relational data source in one step: creates a
    /// store holding `table`, a simulated network link, a
    /// [`RelationalWrapper`] with the given capability set, the repository,
    /// and the extent.  Returns the link so tests and experiments can
    /// inject failures or change latency.
    ///
    /// # Errors
    ///
    /// Returns catalog errors (duplicate or missing names).
    pub fn add_relational_source(
        &mut self,
        extent: &str,
        interface: &str,
        repository: &str,
        table: Table,
        profile: NetworkProfile,
        capabilities: CapabilitySet,
    ) -> Result<Arc<SimulatedLink>> {
        let wrapper_name = format!("w_{extent}");
        let store = Arc::new(RelationalStore::new());
        store.put_table(table);
        let link = Arc::new(SimulatedLink::new(repository, profile, seed_from(extent)));
        let wrapper = RelationalWrapper::new(&wrapper_name, store, Arc::clone(&link))
            .with_capabilities(capabilities);
        if self.catalog.repository(repository).is_err() {
            self.register_repository(Repository::new(repository))?;
        }
        self.register_wrapper(Arc::new(wrapper))?;
        self.register_extent(MetaExtent::new(
            extent,
            interface,
            &wrapper_name,
            repository,
        ))?;
        Ok(link)
    }

    /// Registers a simulated CSV (flat-file) source; its wrapper is
    /// `get`-only.
    ///
    /// # Errors
    ///
    /// Returns catalog errors and CSV parse errors.
    pub fn add_csv_source(
        &mut self,
        extent: &str,
        interface: &str,
        repository: &str,
        csv_text: &str,
        profile: NetworkProfile,
    ) -> Result<Arc<SimulatedLink>> {
        let wrapper_name = format!("w_{extent}");
        let source = disco_source::CsvSource::from_text(extent, csv_text)
            .map_err(|e| MediatorError::Unsupported(format!("csv source: {e}")))?;
        let link = Arc::new(SimulatedLink::new(repository, profile, seed_from(extent)));
        let wrapper = CsvWrapper::new(&wrapper_name, source, Arc::clone(&link));
        if self.catalog.repository(repository).is_err() {
            self.register_repository(Repository::new(repository))?;
        }
        self.register_wrapper(Arc::new(wrapper))?;
        self.register_extent(MetaExtent::new(
            extent,
            interface,
            &wrapper_name,
            repository,
        ))?;
        Ok(link)
    }

    /// Registers a simulated keyword-document (WAIS-style) source.
    ///
    /// # Errors
    ///
    /// Returns catalog errors.
    pub fn add_document_source(
        &mut self,
        extent: &str,
        interface: &str,
        repository: &str,
        store: disco_source::DocumentStore,
        profile: NetworkProfile,
    ) -> Result<Arc<SimulatedLink>> {
        let wrapper_name = format!("w_{extent}");
        let link = Arc::new(SimulatedLink::new(repository, profile, seed_from(extent)));
        let wrapper = DocumentWrapper::new(&wrapper_name, Arc::new(store), Arc::clone(&link));
        if self.catalog.repository(repository).is_err() {
            self.register_repository(Repository::new(repository))?;
        }
        self.register_wrapper(Arc::new(wrapper))?;
        self.register_extent(MetaExtent::new(
            extent,
            interface,
            &wrapper_name,
            repository,
        ))?;
        Ok(link)
    }

    /// Builds the paper's introductory scenario: a `Person` interface with
    /// two sources — `r0` holding Mary (salary 200) and `r1` holding Sam
    /// (salary 50).
    ///
    /// # Errors
    ///
    /// Returns catalog errors if the names are already taken.
    pub fn register_person_demo(&mut self) -> Result<()> {
        self.define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(disco_catalog::Attribute::new(
                    "name",
                    disco_catalog::TypeRef::String,
                ))
                .with_attribute(disco_catalog::Attribute::new(
                    "salary",
                    disco_catalog::TypeRef::Int,
                )),
        )?;
        let mut t0 = Table::new("person0", ["name", "salary"]);
        t0.insert_values([("name", Value::from("Mary")), ("salary", Value::Int(200))])
            .map_err(|e| MediatorError::Unsupported(e.to_string()))?;
        let mut t1 = Table::new("person1", ["name", "salary"]);
        t1.insert_values([("name", Value::from("Sam")), ("salary", Value::Int(50))])
            .map_err(|e| MediatorError::Unsupported(e.to_string()))?;
        self.add_relational_source(
            "person0",
            "Person",
            "r0",
            t0,
            NetworkProfile::fast(),
            CapabilitySet::full(),
        )?;
        self.add_relational_source(
            "person1",
            "Person",
            "r1",
            t1,
            NetworkProfile::fast(),
            CapabilitySet::full(),
        )?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Query processing (the end-user interface, §1.3, §3, §4)
    // ------------------------------------------------------------------

    /// Optimizes a query without executing it: the chosen plan and the
    /// tree of every alternative the optimizer costed.
    ///
    /// # Errors
    ///
    /// Returns parse, compilation and optimization errors.
    pub fn explain(&self, query: &str) -> Result<Explained> {
        Ok(self.optimizer().explain_text(query, &self.catalog)?)
    }

    /// The optimizer over this mediator's wrappers, calibration store and
    /// cost constants.
    fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// Processes an OQL query end to end: parse, expand views and implicit
    /// extents, optimize and prepare (on a plan-cache miss), execute with
    /// parallel wrapper calls, and return a complete or partial [`Answer`].
    /// A hit runs the cached [`PreparedPlan`]; after extents were added or
    /// removed, the cached plan patched to the catalog.
    ///
    /// # Errors
    ///
    /// Returns parse/compile/optimize errors and hard execution errors;
    /// unavailable sources yield a partial answer, not an error.
    pub fn query(&self, query: &str) -> Result<Answer> {
        let optimizer = self.optimizer();
        let prepared = self
            .plan_cache
            .get_or_plan(query, &self.catalog, optimizer, || {
                let plan = optimizer.optimize_text(query, &self.catalog)?;
                Ok::<_, MediatorError>(PreparedPlan::new(plan, &self.catalog)?)
            })?;
        let executor = Executor::new(self.registry.clone())
            .with_deadline(self.deadline)
            .with_calibration(Arc::clone(&self.calibration));
        Ok(executor.execute_prepared(&prepared)?)
    }

    /// Resubmits a (typically partial) answer as a new query — the §4
    /// recovery path: once the unavailable sources are back, resubmission
    /// returns the answer that would have been obtained originally.
    ///
    /// # Errors
    ///
    /// Same as [`Mediator::query`].
    pub fn resubmit(&self, answer: &Answer) -> Result<Answer> {
        self.query(&answer.as_query_text())
    }

    /// `(hits, misses)` of the plan cache; a lookup that patched an entry
    /// counts as a hit.
    #[must_use]
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plan_cache.stats()
    }

    /// How many plan-cache lookups patched an entry to the catalog.
    #[must_use]
    pub fn plan_cache_patches(&self) -> u64 {
        self.plan_cache.patches()
    }
}

/// The optimizer over `registry`'s wrappers, `calibration` and `params`.
fn optimizer_over(
    registry: &WrapperRegistry,
    calibration: &Arc<CalibrationStore>,
    params: CostParams,
) -> Optimizer {
    Optimizer::with_store(registry.clone(), Arc::clone(calibration)).with_cost_params(params)
}

/// Deterministic per-extent seed for simulated links.
fn seed_from(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |acc, b| {
        (acc ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_source::Availability;

    fn demo_mediator() -> Mediator {
        let mut m = Mediator::new("demo");
        m.register_person_demo().unwrap();
        m
    }

    #[test]
    fn paper_intro_query_returns_both_names() {
        let m = demo_mediator();
        let answer = m
            .query("select x.name from x in person where x.salary > 10")
            .unwrap();
        assert!(answer.is_complete());
        assert_eq!(
            *answer.data(),
            [Value::from("Mary"), Value::from("Sam")]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn mediator_surfaces_first_row_latency() {
        let m = demo_mediator();
        let answer = m
            .query("select x.name from x in person where x.salary > 10")
            .unwrap();
        let t_first = answer
            .time_to_first_row()
            .expect("wrapper answers stream into the combine step");
        assert!(t_first <= answer.stats().elapsed);
    }

    #[test]
    fn explicit_extent_query_returns_only_that_source() {
        let m = demo_mediator();
        let answer = m
            .query("select x.name from x in person0 where x.salary > 10")
            .unwrap();
        assert_eq!(*answer.data(), [Value::from("Mary")].into_iter().collect());
    }

    #[test]
    fn adding_a_source_changes_answers_but_not_the_query() {
        let mut m = demo_mediator();
        let query = "select x.name from x in person where x.salary > 10";
        assert_eq!(m.query(query).unwrap().data().len(), 2);
        let mut t2 = Table::new("person2", ["name", "salary"]);
        t2.insert_values([("name", Value::from("Olga")), ("salary", Value::Int(120))])
            .unwrap();
        m.add_relational_source(
            "person2",
            "Person",
            "r2",
            t2,
            NetworkProfile::fast(),
            CapabilitySet::full(),
        )
        .unwrap();
        assert_eq!(m.query(query).unwrap().data().len(), 3);
    }

    #[test]
    fn unavailable_source_yields_partial_answer_and_resubmission_recovers() {
        let mut m = Mediator::new("demo");
        m.register_person_demo().unwrap();
        // Make r0 unavailable through its link.
        let link = {
            // Re-register person0 with a link we keep; simpler: grab the
            // wrapper and flip availability via a fresh registration is not
            // possible, so rebuild the mediator with a kept link.
            let mut m2 = Mediator::new("demo2");
            m2.define_interface(
                InterfaceDef::new("Person")
                    .with_extent_name("person")
                    .with_attribute(disco_catalog::Attribute::new(
                        "name",
                        disco_catalog::TypeRef::String,
                    ))
                    .with_attribute(disco_catalog::Attribute::new(
                        "salary",
                        disco_catalog::TypeRef::Int,
                    )),
            )
            .unwrap();
            let mut t0 = Table::new("person0", ["name", "salary"]);
            t0.insert_values([("name", Value::from("Mary")), ("salary", Value::Int(200))])
                .unwrap();
            let mut t1 = Table::new("person1", ["name", "salary"]);
            t1.insert_values([("name", Value::from("Sam")), ("salary", Value::Int(50))])
                .unwrap();
            let link0 = m2
                .add_relational_source(
                    "person0",
                    "Person",
                    "r0",
                    t0,
                    NetworkProfile::fast(),
                    CapabilitySet::full(),
                )
                .unwrap();
            m2.add_relational_source(
                "person1",
                "Person",
                "r1",
                t1,
                NetworkProfile::fast(),
                CapabilitySet::full(),
            )
            .unwrap();
            m = m2;
            link0
        };
        link.set_availability(Availability::Unavailable);
        let query = "select x.name from x in person where x.salary > 10";
        let partial = m.query(query).unwrap();
        assert!(!partial.is_complete());
        assert_eq!(*partial.data(), [Value::from("Sam")].into_iter().collect());
        assert_eq!(partial.unavailable_sources(), &["r0".to_owned()]);
        assert!(partial.as_query_text().contains("person0"));

        // The source recovers; resubmitting the partial answer returns the
        // complete answer, as §4 promises.
        link.set_availability(Availability::Available);
        let complete = m.resubmit(&partial).unwrap();
        assert!(complete.is_complete());
        assert_eq!(
            *complete.data(),
            [Value::from("Mary"), Value::from("Sam")]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn odl_load_defines_schema_and_maps() {
        let mut m = Mediator::new("odl");
        let count = m
            .load_odl(
                "r5 := Repository(host=\"rodin\", name=\"db\", address=\"123.45.6.7\");\n\
                 w5 := WrapperPostgres();\n\
                 interface PersonPrime (extent personprime) { attribute String n; attribute Short s; }\n\
                 extent personprime0 of PersonPrime wrapper w5 repository r5 \
                     map ((person0=personprime0),(n=n),(s=s));",
            )
            .unwrap();
        assert_eq!(count, 4);
        assert!(m.catalog().repository("r5").is_ok());
        assert!(m.catalog().wrapper("w5").is_ok());
        assert!(m.catalog().interface("PersonPrime").is_ok());
        let extent = m.catalog().extent("personprime0").unwrap();
        assert_eq!(extent.source_relation(), "person0");
        // Bare queries are rejected inside ODL loads.
        assert!(m.load_odl("select x from x in person").is_err());
    }

    #[test]
    fn views_expand_in_queries() {
        let mut m = demo_mediator();
        m.define_view("rich", "select x from x in person where x.salary > 100")
            .unwrap();
        let answer = m.query("select r.name from r in rich").unwrap();
        assert_eq!(*answer.data(), [Value::from("Mary")].into_iter().collect());
    }

    #[test]
    fn plan_cache_hits_and_invalidates() {
        let mut m = demo_mediator();
        let query = "select x.name from x in person";
        m.query(query).unwrap();
        m.query(query).unwrap();
        let (hits, _misses) = m.plan_cache_stats();
        assert!(hits >= 1);
        // Adding a source invalidates the cached plan on next use.
        let mut t2 = Table::new("person9", ["name", "salary"]);
        t2.insert_values([("name", Value::from("New")), ("salary", Value::Int(1))])
            .unwrap();
        m.add_relational_source(
            "person9",
            "Person",
            "r9",
            t2,
            NetworkProfile::fast(),
            CapabilitySet::full(),
        )
        .unwrap();
        let answer = m.query(query).unwrap();
        assert_eq!(answer.data().len(), 3);
    }

    /// Guards a hazard only a cache of prepared plans has: the cached call
    /// table names its wrappers and the handles are looked up per
    /// execution, so a wrapper bound again under its name — which leaves
    /// the catalog generation, and the cached plan, as they were — is the
    /// one the next hit calls.
    #[test]
    fn a_wrapper_bound_again_between_two_hits_is_the_one_the_second_hit_calls() {
        let mut m = demo_mediator();
        let query = "select x.name from x in person0";
        for _ in 0..2 {
            assert_eq!(
                *m.query(query).unwrap().data(),
                [Value::from("Mary")].into_iter().collect()
            );
        }
        let mut table = Table::new("person0", ["name", "salary"]);
        table
            .insert_values([("name", Value::from("Olga")), ("salary", Value::Int(120))])
            .unwrap();
        let store = Arc::new(RelationalStore::new());
        store.put_table(table);
        let link = Arc::new(SimulatedLink::new("r0", NetworkProfile::fast(), 3));
        m.bind_wrapper(Arc::new(
            RelationalWrapper::new("w_person0", store, link)
                .with_capabilities(CapabilitySet::full()),
        ));
        let (hits, misses) = m.plan_cache_stats();
        assert_eq!(
            *m.query(query).unwrap().data(),
            [Value::from("Olga")].into_iter().collect()
        );
        assert_eq!(m.plan_cache_stats(), (hits + 1, misses));
    }

    /// Two `employee` sources whose wrappers take every operator, and a
    /// table for `employee{i}`.
    fn employee_table(i: usize) -> Table {
        let mut table = Table::new(format!("employee{i}"), ["name", "salary"]);
        for (name, salary) in [("Ann", 900), ("Bob", 870)] {
            table
                .insert_values([
                    ("name", Value::from(format!("{name}{i}"))),
                    ("salary", Value::Int(salary)),
                ])
                .unwrap();
        }
        table
    }

    fn employee_mediator() -> Mediator {
        let mut m = Mediator::new("hr");
        m.define_interface(
            InterfaceDef::new("Employee")
                .with_extent_name("employee")
                .with_attribute(disco_catalog::Attribute::new(
                    "name",
                    disco_catalog::TypeRef::String,
                ))
                .with_attribute(disco_catalog::Attribute::new(
                    "salary",
                    disco_catalog::TypeRef::Int,
                )),
        )
        .unwrap();
        for i in 0..2 {
            m.add_relational_source(
                &format!("employee{i}"),
                "Employee",
                &format!("r{i}"),
                employee_table(i),
                NetworkProfile::fast(),
                CapabilitySet::full(),
            )
            .unwrap();
        }
        m
    }

    /// A cached plan pushes work into each call as far as the wrapper it
    /// was planned for takes it; a wrapper bound again with fewer
    /// capabilities must be planned around, not sent the pushed call.
    #[test]
    fn a_wrapper_bound_again_with_fewer_capabilities_is_planned_around() {
        let mut m = employee_mediator();
        let text = "select e.name from e in employee where e.salary > 880";
        let names = |answer: Answer| {
            let mut names: Vec<Value> = answer.data().iter().cloned().collect();
            names.sort();
            names
        };
        let expected = [Value::from("Ann0"), Value::from("Ann1")];
        assert_eq!(names(m.query(text).unwrap()), expected);
        let store = Arc::new(RelationalStore::new());
        store.put_table(employee_table(0));
        let link = Arc::new(SimulatedLink::new("r0", NetworkProfile::fast(), 3));
        m.bind_wrapper(Arc::new(
            RelationalWrapper::new("w_employee0", store, link)
                .with_capabilities(CapabilitySet::get_only()),
        ));
        let (hits, misses) = m.plan_cache_stats();
        assert_eq!(names(m.query(text).unwrap()), expected);
        assert_eq!(m.plan_cache_stats(), (hits, misses + 1), "planned again");
        // Bound again as it was planned for: the new plan is the one hit.
        assert_eq!(names(m.query(text).unwrap()), expected);
        assert_eq!(m.plan_cache_stats(), (hits + 1, misses + 1));
    }

    /// An extent added to or removed from a cached text's interface is
    /// patched into the cached plan, a hit, with the answers of a plan
    /// made from scratch.
    #[test]
    fn an_added_or_removed_extent_patches_the_cached_plan() {
        let mut m = employee_mediator();
        m.add_relational_source(
            "employee2",
            "Employee",
            "r2",
            employee_table(2),
            NetworkProfile::fast(),
            CapabilitySet::full(),
        )
        .unwrap();
        // The third source's repository and wrapper stay registered.
        let extent = m.remove_extent("employee2").unwrap();
        let text = "select e.name from e in employee where e.salary > 880";
        assert_eq!(m.query(text).unwrap().data().len(), 2);
        let (hits, misses) = m.plan_cache_stats();
        m.register_extent(extent).unwrap();
        assert_eq!(m.query(text).unwrap().data().len(), 3);
        m.remove_extent("employee2").unwrap();
        assert_eq!(m.query(text).unwrap().data().len(), 2);
        assert_eq!(m.plan_cache_stats(), (hits + 2, misses));
        assert_eq!(m.plan_cache_patches(), 2);
        // Any other change plans the text again.
        m.register_repository(Repository::new("r9")).unwrap();
        assert_eq!(m.query(text).unwrap().data().len(), 2);
        assert_eq!(m.plan_cache_stats(), (hits + 2, misses + 1));
    }

    #[test]
    fn explain_reports_alternatives() {
        let m = demo_mediator();
        let Explained { plan, trees } = m
            .explain("select x.name from x in person where x.salary > 10")
            .unwrap();
        assert!(plan.alternatives.len() >= 2);
        assert_eq!(trees.len(), plan.alternatives.len());
        assert!(trees.contains(&plan.logical));
        assert!(plan.physical.collect_execs().len() == 2);
    }

    #[test]
    fn document_and_csv_sources_are_queryable() {
        let mut m = Mediator::new("mixed");
        m.define_interface(
            InterfaceDef::new("Measurement")
                .with_extent_name("measurement")
                .with_attribute(disco_catalog::Attribute::new(
                    "site",
                    disco_catalog::TypeRef::String,
                ))
                .with_attribute(disco_catalog::Attribute::new(
                    "ph",
                    disco_catalog::TypeRef::Float,
                )),
        )
        .unwrap();
        m.add_csv_source(
            "measurement0",
            "Measurement",
            "r_csv",
            "site,ph\nseine-01,7.2\nseine-02,6.9\n",
            NetworkProfile::fast(),
        )
        .unwrap();
        let answer = m
            .query("select x.site from x in measurement where x.ph > 7.0")
            .unwrap();
        assert_eq!(
            *answer.data(),
            [Value::from("seine-01")].into_iter().collect()
        );

        m.define_interface(
            InterfaceDef::new("Report")
                .with_extent_name("report")
                .with_attribute(disco_catalog::Attribute::new(
                    "id",
                    disco_catalog::TypeRef::Int,
                ))
                .with_attribute(disco_catalog::Attribute::new(
                    "title",
                    disco_catalog::TypeRef::String,
                ))
                .with_attribute(disco_catalog::Attribute::new(
                    "body",
                    disco_catalog::TypeRef::String,
                ))
                .with_attribute(disco_catalog::Attribute::new(
                    "keyword",
                    disco_catalog::TypeRef::String,
                )),
        )
        .unwrap();
        m.add_document_source(
            "report0",
            "Report",
            "r_doc",
            disco_source::generator::document_store(20, 3),
            NetworkProfile::fast(),
        )
        .unwrap();
        let answer = m.query("select d.title from d in report").unwrap();
        assert_eq!(answer.data().len(), 20);
    }
}

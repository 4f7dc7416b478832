//! # disco-server
//!
//! A concurrent **serving layer** over the DISCO mediator: where
//! [`disco_core::Mediator`] answers one query at a time over an owned
//! catalog, a [`DiscoServer`] fronts the same engine for many sessions
//! at once — the paper's "millions of users" deployment shape, following
//! the gateway pattern of hybrid-cloud SQL serving tiers.
//!
//! What the server adds on top of the single-query engine:
//!
//! * **Copy-on-write catalog snapshots** — every query plans and executes
//!   against an immutable `Arc<Catalog>` snapshot taken at admission;
//!   DDL goes through [`DiscoServer::update_catalog`], which clones,
//!   mutates, and atomically swaps ([`disco_catalog::CatalogHandle`]).
//!   A schema update never blocks — or is observed by — an in-flight
//!   query.
//! * **A shared wrapper-connection pool** — one
//!   [`SourcePool`] gates wrapper calls
//!   across *all* sessions with per-repository concurrency caps; calls
//!   beyond a cap queue, and their queued time is metered into the
//!   query's [`ExecutionStats::source_wait`](disco_runtime::ExecutionStats).
//! * **Per-query deadlines and row budgets** — both enforced through the
//!   streamed-resolution cancellation path, so a query that exceeds its
//!   budget degrades to a partial answer with a residual query (§4 of
//!   the paper) instead of failing.
//! * **Admission control with round-robin fairness** — when N concurrent
//!   queries would oversubscribe the machine's cores, at most
//!   [`ServerConfig::max_concurrent`] execute at once and freed slots
//!   rotate across sessions, so no session starves behind a chatty
//!   neighbour.
//! * **A shared plan cache** — keyed by query text and catalog
//!   generation, so sessions reuse each other's optimized plans; after an
//!   extent is added or removed, the first lookup of a text patches its
//!   entry to the new catalog, and any other catalog update plans the
//!   texts it touches again.
//!
//! # Examples
//!
//! ```
//! use disco_core::Mediator;
//! use disco_server::{DiscoServer, ServerConfig};
//!
//! # fn main() -> disco_core::Result<()> {
//! let mut mediator = Mediator::new("demo");
//! mediator.register_person_demo()?;
//! let server = DiscoServer::from_mediator(&mediator, ServerConfig::default());
//!
//! // Sessions are cheap; each runs queries concurrently with the others.
//! let session = server.session();
//! let answer = session.query("select x.name from x in person where x.salary > 100")?;
//! assert!(answer.is_complete());
//!
//! // DDL is copy-on-write: in-flight queries keep their snapshot.
//! server.update_catalog(|catalog| {
//!     catalog.add_repository(disco_core::Repository::new("r_new"))
//! })?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use disco_catalog::{Catalog, CatalogError, CatalogHandle};
use disco_core::{Mediator, MediatorError, Result};
use disco_optimizer::{CalibrationStore, Optimizer, PlanCache};
use disco_runtime::{Answer, Executor, PreparedPlan, SourcePool};
use disco_wrapper::WrapperRegistry;

use crate::admission::Admission;

/// Serving-layer configuration, applied to every session unless the
/// session overrides it.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Maximum queries executing concurrently; the rest queue and are
    /// admitted round-robin across sessions.  `0` (the default) disables
    /// admission control.
    pub max_concurrent: usize,
    /// Shared wrapper-connection pool.  `None` (the default) leaves
    /// wrapper calls unpooled; set one to cap per-repository concurrency
    /// across all sessions.
    pub source_pool: Option<Arc<SourcePool>>,
    /// Default per-query row budget (total rows transferred from
    /// sources).  `None` is unlimited.
    pub row_budget: Option<usize>,
}

impl ServerConfig {
    /// Bounds concurrent query execution (see
    /// [`ServerConfig::max_concurrent`]).
    #[must_use]
    pub fn with_max_concurrent(mut self, max_concurrent: usize) -> Self {
        self.max_concurrent = max_concurrent;
        self
    }

    /// Shares a wrapper-connection pool across every session.
    #[must_use]
    pub fn with_source_pool(mut self, pool: Arc<SourcePool>) -> Self {
        self.source_pool = Some(pool);
        self
    }

    /// Sets the default per-query row budget.
    #[must_use]
    pub fn with_row_budget(mut self, budget: Option<usize>) -> Self {
        self.row_budget = budget;
        self
    }
}

/// Shared state of one server: everything a session needs, behind `Arc`.
#[derive(Debug)]
struct ServerShared {
    catalog: CatalogHandle,
    registry: WrapperRegistry,
    calibration: Arc<CalibrationStore>,
    plan_cache: PlanCache<PreparedPlan>,
    /// The optimizer over the registry, the calibration store and the
    /// mediator's cost constants.
    optimizer: Optimizer,
    admission: Admission,
    config: ServerConfig,
    /// Defaults mirrored from the mediator the server was built from.
    deadline: Option<Duration>,
    next_session: AtomicU64,
    queries_served: AtomicU64,
}

/// Aggregate serving-layer counters, for dashboards and benchmarks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Queries completed (successfully or not) across all sessions.
    pub queries_served: u64,
    /// Queries that had to queue at admission, and their total queued
    /// time.
    pub admission_queued: (u64, Duration),
    /// `(hits, misses)` of the shared plan cache; a lookup that patched
    /// an entry to the catalog counts as a hit.
    pub plan_cache: (u64, u64),
    /// How many of those hits patched an entry.
    pub plan_cache_patches: u64,
    /// `(calls that queued, total queued time)` of the shared source
    /// pool, when one is configured.
    pub source_pool_queued: Option<(u64, Duration)>,
}

/// A concurrent multi-session front end over one mediator engine.
///
/// Cloning the server is cheap; clones share catalog, plan cache,
/// calibration store, connection pool, and admission slots.  See the
/// crate-level documentation for the full model.
#[derive(Debug, Clone)]
pub struct DiscoServer {
    shared: Arc<ServerShared>,
}

impl DiscoServer {
    /// Builds a server from a configured [`Mediator`]: the catalog is
    /// snapshotted copy-on-write, and the registry, calibration store,
    /// deadline, and cost parameters are shared or mirrored.  The mediator itself is not consumed — but note that
    /// registrations made on it *after* this call do not reach the
    /// server (use [`DiscoServer::update_catalog`] instead).
    #[must_use]
    pub fn from_mediator(mediator: &Mediator, config: ServerConfig) -> Self {
        DiscoServer {
            shared: Arc::new(ServerShared {
                catalog: CatalogHandle::new(mediator.catalog().clone()),
                registry: mediator.registry().clone(),
                calibration: Arc::clone(mediator.calibration()),
                plan_cache: PlanCache::default(),
                optimizer: Optimizer::with_store(
                    mediator.registry().clone(),
                    Arc::clone(mediator.calibration()),
                )
                .with_cost_params(mediator.cost_params()),
                admission: Admission::new(config.max_concurrent),
                config,
                deadline: mediator.deadline(),
                next_session: AtomicU64::new(1),
                queries_served: AtomicU64::new(0),
            }),
        }
    }

    /// Opens a session.  Sessions are cheap handles; one per client.
    #[must_use]
    pub fn session(&self) -> Session {
        Session {
            shared: Arc::clone(&self.shared),
            id: self.shared.next_session.fetch_add(1, Ordering::Relaxed),
            deadline: self.shared.deadline,
            row_budget: self.shared.config.row_budget,
        }
    }

    /// Applies a schema update copy-on-write: queries already admitted
    /// keep their snapshot; queries admitted afterwards see the new
    /// catalog.  The plan cache's entries are keyed by catalog
    /// generation: after an update that only adds or removes extents, the
    /// first query of a cached text patches its entry (a hit); after any
    /// other update, it plans the text again.
    ///
    /// # Errors
    ///
    /// Propagates catalog errors from `mutate`; on error the catalog is
    /// unchanged.
    pub fn update_catalog<T>(
        &self,
        mutate: impl FnOnce(&mut Catalog) -> std::result::Result<T, CatalogError>,
    ) -> Result<T> {
        Ok(self.shared.catalog.update(mutate)?)
    }

    /// The copy-on-write catalog handle (for advanced callers that want
    /// to hold snapshots directly).
    #[must_use]
    pub fn catalog(&self) -> &CatalogHandle {
        &self.shared.catalog
    }

    /// The shared wrapper registry.  It is internally synchronized:
    /// wrappers registered here become visible to every session.
    #[must_use]
    pub fn registry(&self) -> &WrapperRegistry {
        &self.shared.registry
    }

    /// Aggregate serving-layer counters.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            queries_served: self.shared.queries_served.load(Ordering::Relaxed),
            admission_queued: self.shared.admission.queue_stats(),
            plan_cache: self.shared.plan_cache.stats(),
            plan_cache_patches: self.shared.plan_cache.patches(),
            source_pool_queued: self
                .shared
                .config
                .source_pool
                .as_ref()
                .map(|pool| pool.queue_stats()),
        }
    }
}

/// One client's handle onto a [`DiscoServer`].
///
/// A session carries per-session defaults (deadline, row budget) that
/// override the server's; every [`Session::query`] takes a fresh catalog
/// snapshot, so sessions observe schema updates between queries but
/// never within one.
#[derive(Debug, Clone)]
pub struct Session {
    shared: Arc<ServerShared>,
    id: u64,
    deadline: Option<Duration>,
    row_budget: Option<usize>,
}

impl Session {
    /// The server-assigned session id (used for round-robin fairness).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Overrides the deadline for this session's queries (`None` waits
    /// for every source).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Overrides the row budget for this session's queries (`None` is
    /// unlimited).
    #[must_use]
    pub fn with_row_budget(mut self, budget: Option<usize>) -> Self {
        self.row_budget = budget;
        self
    }

    /// Processes one OQL query: admission (bounded concurrency,
    /// round-robin across sessions), catalog snapshot, shared plan
    /// cache, then execution with the session's deadline and row budget
    /// and the server's shared connection pool.  Unavailable or
    /// budget-cancelled sources yield a partial [`Answer`] with a
    /// residual query, exactly as [`Mediator::query`] would.
    ///
    /// # Errors
    ///
    /// Returns parse/compile/optimize errors and hard execution errors;
    /// unavailability is not an error.  Failed queries count in
    /// [`ServerStats::queries_served`] as answered ones do.
    pub fn query(&self, query: &str) -> Result<Answer> {
        let _slot = self.shared.admission.admit(self.id);
        let snapshot = self.shared.catalog.snapshot();
        let answer = self.query_on(query, &snapshot);
        self.shared.queries_served.fetch_add(1, Ordering::Relaxed);
        answer
    }

    /// [`Session::query`] against `snapshot`: the prepared plan of the
    /// text at the snapshot's generation — the shared cache's, one patched
    /// from an older entry, or one planned and prepared against the
    /// snapshot — run with the session's deadline and row budget.
    fn query_on(&self, query: &str, snapshot: &Catalog) -> Result<Answer> {
        let optimizer = &self.shared.optimizer;
        let prepared = self
            .shared
            .plan_cache
            .get_or_plan(query, snapshot, optimizer, || {
                let plan = optimizer.optimize_text(query, snapshot)?;
                Ok::<_, MediatorError>(PreparedPlan::new(plan, snapshot)?)
            })?;
        let mut executor = Executor::new(self.shared.registry.clone())
            .with_deadline(self.deadline)
            .with_calibration(Arc::clone(&self.shared.calibration))
            .with_row_budget(self.row_budget);
        if let Some(pool) = &self.shared.config.source_pool {
            executor = executor.with_source_pool(Arc::clone(pool));
        }
        Ok(executor.execute_prepared(&prepared)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Guards a hazard only a cache of prepared plans has: a prepared plan
    /// carries the extents (and their maps) of the catalog it was prepared
    /// against, so a query on an older snapshot than the cached entry's
    /// must not run that entry.
    #[test]
    fn a_session_on_an_older_snapshot_runs_its_own_plan_against_its_own_extents() {
        let mut mediator = Mediator::new("snapshots");
        mediator.register_person_demo().unwrap();
        let server = DiscoServer::from_mediator(&mediator, ServerConfig::default());
        let session = server.session();
        let text = "select x.name from x in person";
        // A query admitted now keeps this snapshot: Mary and Sam.
        let old = server.catalog().snapshot();
        server
            .update_catalog(|catalog| catalog.remove_extent("person1"))
            .unwrap();
        // The shared cache now holds the text at the new generation.
        assert_eq!(session.query(text).unwrap().data().len(), 1);
        // The query on the old snapshot misses that entry and plans,
        // prepares and runs the text against its own extents ...
        assert_eq!(session.query_on(text, &old).unwrap().data().len(), 2);
        assert_eq!(server.stats().plan_cache, (0, 2));
        // ... without displacing the fresher entry.
        assert_eq!(session.query(text).unwrap().data().len(), 1);
        assert_eq!(server.stats().plan_cache, (1, 2));
    }
}

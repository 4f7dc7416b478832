//! Plan caching with extent-update invalidation (§3.3).
//!
//! "If query optimization plans are cached, the mediator must monitor
//! updates to extents, and modify or recompute plans that are affected by
//! updates to the extents understood by the mediator."  The catalog bumps
//! a generation counter on every schema/extent change; cached plans carry
//! the generation they were built against and never hit at another one.
//! Storing a plan purges the plans of older generations, so after a DDL
//! operation the cache holds garbage only until the next miss is planned.
//!
//! Plans are shared, not copied: a hit hands out the cached `Arc`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::planner::Plan;

/// A cache of optimized plans keyed by query text.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: RwLock<BTreeMap<String, Arc<Plan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Looks up a cached plan for `query`, returning it only when it was
    /// built against `current_generation`.  An entry of an *older*
    /// generation is removed; one of a newer generation is left alone —
    /// the caller is a query still running on an old catalog snapshot,
    /// and the entry is fresh for everyone after it.
    #[must_use]
    pub fn get(&self, query: &str, current_generation: u64) -> Option<Arc<Plan>> {
        let cached =
            self.plans.read().get(query).map(|plan| {
                (plan.catalog_generation == current_generation).then(|| Arc::clone(plan))
            });
        match cached {
            Some(Some(plan)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(plan);
            }
            Some(None) => {
                // Decided again under the write lock: the entry seen above
                // may have been replaced by a fresh one since.
                let mut plans = self.plans.write();
                if plans
                    .get(query)
                    .is_some_and(|plan| plan.catalog_generation < current_generation)
                {
                    plans.remove(query);
                }
            }
            None => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Stores a copy of `plan` under its query text (no-op for plans
    /// without text).
    pub fn put(&self, plan: &Plan) {
        self.insert(plan.clone());
    }

    /// Stores `plan` under its query text and returns the shared handle
    /// the cache holds (for a plan without text, a handle it does not
    /// hold).  Plans built against an older catalog generation than
    /// `plan`'s can never hit again and are dropped here.
    pub fn insert(&self, plan: Plan) -> Arc<Plan> {
        let plan = Arc::new(plan);
        if let Some(query) = &plan.query {
            let mut plans = self.plans.write();
            let generation = plan.catalog_generation;
            plans.retain(|_, p| p.catalog_generation >= generation);
            // A plan of an older snapshot does not displace a fresher one.
            if plans
                .get(query)
                .is_none_or(|p| p.catalog_generation <= generation)
            {
                plans.insert(query.clone(), Arc::clone(&plan));
            }
        }
        plan
    }

    /// Number of cached plans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.read().len()
    }

    /// Returns `true` when the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plans.read().is_empty()
    }

    /// `(hits, misses)` counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Clears the cache.
    pub fn clear(&self) {
        self.plans.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Optimizer;
    use disco_algebra::CapabilitySet;
    use disco_catalog::{
        Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef,
    };
    use std::collections::BTreeMap;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
        c.add_wrapper(WrapperDef::new("w0", "relational")).unwrap();
        c.add_repository(Repository::new("r0")).unwrap();
        c.add_extent(MetaExtent::new("person0", "Person", "w0", "r0"))
            .unwrap();
        c
    }

    #[test]
    fn cache_hits_for_same_generation_and_invalidates_on_extent_updates() {
        let mut cat = catalog();
        let optimizer = Optimizer::new(BTreeMap::<String, CapabilitySet>::new());
        let cache = PlanCache::new();
        let query = "select x.name from x in person";
        let plan = optimizer.optimize_text(query, &cat).unwrap();
        cache.put(&plan);
        assert!(cache.get(query, cat.generation()).is_some());
        assert_eq!(cache.stats().0, 1);

        // Adding a new person source must invalidate the cached plan — the
        // implicit `person` extent now covers one more source.
        cat.add_repository(Repository::new("r9")).unwrap();
        cat.add_extent(MetaExtent::new("person9", "Person", "w0", "r9"))
            .unwrap();
        assert!(cache.get(query, cat.generation()).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().1, 1);
    }

    /// A text planned for `generation` (the plan itself does not matter).
    fn plan_at(query: &str, generation: u64) -> Plan {
        let optimizer = Optimizer::new(BTreeMap::<String, CapabilitySet>::new());
        let mut plan = optimizer
            .optimize_text("select x.name from x in person", &catalog())
            .unwrap();
        plan.query = Some(query.to_owned());
        plan.catalog_generation = generation;
        plan
    }

    #[test]
    fn a_lookup_from_an_old_snapshot_does_not_evict_a_fresh_plan() {
        let cache = PlanCache::new();
        // Session B, on generation 6, has just planned and stored `q`.
        cache.put(&plan_at("q", 6));
        // Session A still runs on its generation-5 snapshot: a miss for
        // A, but the plan is fresh for everyone after it and must stay.
        assert!(cache.get("q", 5).is_none());
        assert_eq!(cache.len(), 1, "a fresh plan was evicted as stale");
        assert!(cache.get("q", 6).is_some());
        // A then stores its own generation-5 plan: it neither displaces
        // B's nor survives the next store at generation 6.
        cache.put(&plan_at("q", 5));
        assert!(cache.get("q", 6).is_some());
        cache.put(&plan_at("only-at-5", 5));
        cache.put(&plan_at("r", 6));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("only-at-5", 5).is_none());
        // An entry that *is* older than the caller's generation goes.
        assert!(cache.get("q", 7).is_none());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats(), (2, 3));
    }

    #[test]
    fn storing_a_plan_drops_the_plans_of_older_generations() {
        let cache = PlanCache::new();
        for text in ["a", "b", "c"] {
            cache.put(&plan_at(text, 1));
        }
        assert_eq!(cache.len(), 3);
        // One DDL operation later nothing asks for `b` or `c` again; the
        // first plan stored at the new generation clears them out.
        cache.put(&plan_at("a", 2));
        assert_eq!(cache.len(), 1);
        assert!(cache.get("a", 2).is_some());
    }

    #[test]
    fn a_hit_shares_the_cached_plan() {
        let cache = PlanCache::new();
        let stored = cache.insert(plan_at("q", 1));
        let hit = cache.get("q", 1).unwrap();
        assert!(Arc::ptr_eq(&stored, &hit));
    }

    #[test]
    fn unknown_queries_miss() {
        let cache = PlanCache::new();
        assert!(cache.get("select 1", 0).is_none());
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.len(), 0);
        cache.clear();
    }
}

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
//! Plans are shared, not copied: a hit hands out the cached `Arc`.  What
//! is cached per text is the cache's type parameter ([`CacheEntry`]): the
//! optimizer's whole [`Plan`] by default; the mediator and the server cache
//! the executable form the runtime prepares from it, so a hit runs
//! without redoing any work that does not depend on the execution.
//!
//! **One planner per miss.**  A DDL operation makes every hot text a miss
//! for every session at once.  [`PlanCache::get_or_plan`] gives the text a
//! slot before planning starts: concurrent callers for the same text and
//! generation wait on the slot and share the one plan, instead of each
//! planning it and all but one throwing theirs away.
//!
//! **No plan dies under the lock.**  A 256-source plan is a tree of a
//! thousand nodes or more; freeing a dozen stale ones takes milliseconds.  Evicted slots are moved
//! out of the map and dropped after the write lock is released, so a purge
//! never makes another session's lookup wait for `free`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::planner::Plan;

/// What a [`PlanCache`] can hold: something planned from one query text
/// against one catalog generation — a [`Plan`], or an executable form
/// built from one.
pub trait CacheEntry {
    /// The query text the entry was planned from, if any; an entry
    /// without text is never cached.
    fn query_text(&self) -> Option<&str>;
    /// The catalog generation the entry was planned against.
    fn catalog_generation(&self) -> u64;
}

impl CacheEntry for Plan {
    fn query_text(&self) -> Option<&str> {
        self.query.as_deref()
    }

    fn catalog_generation(&self) -> u64 {
        self.catalog_generation
    }
}

/// What the cache holds for one query text: the generation the text is
/// planned for and the entry, once a planner has finished — `Some(None)`
/// when that planner failed.
struct Slot<T> {
    generation: u64,
    plan: Arc<OnceLock<Option<Arc<T>>>>,
}

impl<T> Clone for Slot<T> {
    fn clone(&self) -> Self {
        Slot {
            generation: self.generation,
            plan: Arc::clone(&self.plan),
        }
    }
}

impl<T> Slot<T> {
    fn finished(&self) -> Option<&Arc<T>> {
        self.plan.get().and_then(Option::as_ref)
    }
}

/// A cache of planned queries keyed by query text.  What it holds for a
/// text is `T`: [`Plan`] by default, or whatever a caller builds from a
/// plan and runs on a hit.
pub struct PlanCache<T = Plan> {
    plans: RwLock<BTreeMap<String, Slot<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<T> Default for PlanCache<T> {
    fn default() -> Self {
        PlanCache {
            plans: RwLock::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<T> std::fmt::Debug for PlanCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("plans", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// Creates an empty cache of [`Plan`]s.
    #[must_use]
    pub fn new() -> Self {
        PlanCache::default()
    }
}

impl<T: CacheEntry> PlanCache<T> {
    /// Looks up a cached plan for `query`, returning it only when it was
    /// built against `current_generation`.  An entry of an *older*
    /// generation is removed; one of a newer generation is left alone —
    /// the caller is a query still running on an old catalog snapshot,
    /// and the entry is fresh for everyone after it.
    #[must_use]
    pub fn get(&self, query: &str, current_generation: u64) -> Option<Arc<T>> {
        let cached = self
            .plans
            .read()
            .get(query)
            .map(|slot| match slot.finished() {
                Some(plan) if slot.generation == current_generation => Ok(Arc::clone(plan)),
                _ => Err(slot.generation),
            });
        match cached {
            Some(Ok(plan)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(plan);
            }
            Some(Err(generation)) if generation < current_generation => {
                // Decided again under the write lock: the entry seen above
                // may have been replaced by a fresh one since.  The stale
                // plan is dropped after the lock is.
                let mut plans = self.plans.write();
                let stale = plans
                    .get(query)
                    .is_some_and(|slot| slot.generation < current_generation)
                    .then(|| plans.remove(query));
                drop(plans);
                drop(stale);
            }
            _ => {}
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// The plan of `query` at `generation`: the cached one, or the one
    /// `plan_fn` builds, which is then cached.  Concurrent misses for the
    /// same text and generation run one `plan_fn` and share its plan; a
    /// caller on an older catalog snapshot than the cached plan's plans
    /// for itself and displaces nothing.  `plan_fn` must build the plan
    /// for `generation`.
    ///
    /// # Errors
    ///
    /// Returns `plan_fn`'s error.  A failure leaves no entry behind, and a
    /// caller that had been waiting for the failed planner runs its own
    /// `plan_fn`.
    pub fn get_or_plan<E>(
        &self,
        query: &str,
        generation: u64,
        plan_fn: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        if let Some(plan) = self.get(query, generation) {
            return Ok(plan);
        }
        let Some(slot) = self.claim(query, generation) else {
            return plan_fn().map(Arc::new);
        };
        let mut plan_fn = Some(plan_fn);
        let mut error = None;
        let planned = slot.plan.get_or_init(|| {
            let plan_fn = plan_fn.take().expect("the initializer runs at most once");
            plan_fn().map(Arc::new).map_err(|e| error = Some(e)).ok()
        });
        match (planned, error, plan_fn) {
            (Some(plan), ..) => Ok(Arc::clone(plan)),
            (None, Some(error), _) => {
                let mut plans = self.plans.write();
                if plans
                    .get(query)
                    .is_some_and(|held| Arc::ptr_eq(&held.plan, &slot.plan))
                {
                    plans.remove(query);
                }
                Err(error)
            }
            // The planner this caller waited for failed.
            (None, None, Some(plan_fn)) => plan_fn().map(|plan| self.insert(plan)),
            (None, None, None) => unreachable!("a failed initializer leaves its error"),
        }
    }

    /// The slot `query` is (to be) planned in at `generation`: the pending
    /// or failed one another caller made, or a new one, made after the
    /// slots of older generations are purged.  `None` when the text is
    /// held for a newer generation.
    fn claim(&self, query: &str, generation: u64) -> Option<Slot<T>> {
        let mut plans = self.plans.write();
        let stale = purge_older(&mut plans, generation);
        let slot = match plans.get(query) {
            Some(held) if held.generation > generation => None,
            Some(held) => Some(held.clone()),
            None => {
                let slot = Slot {
                    generation,
                    plan: Arc::default(),
                };
                plans.insert(query.to_owned(), slot.clone());
                Some(slot)
            }
        };
        drop(plans);
        drop(stale);
        slot
    }

    /// Stores a copy of `plan` under its query text (no-op for plans
    /// without text).
    pub fn put(&self, plan: &T)
    where
        T: Clone,
    {
        self.insert(plan.clone());
    }

    /// Stores `plan` under its query text and returns the shared handle
    /// the cache holds (for a plan without text, a handle it does not
    /// hold).  Plans built against an older catalog generation than
    /// `plan`'s can never hit again and are dropped here.
    pub fn insert(&self, plan: T) -> Arc<T> {
        let plan = Arc::new(plan);
        if let Some(query) = plan.query_text() {
            let mut plans = self.plans.write();
            let generation = plan.catalog_generation();
            let stale = purge_older(&mut plans, generation);
            // A plan of an older snapshot does not displace a fresher one.
            let displaced = plans
                .get(query)
                .is_none_or(|held| held.generation <= generation)
                .then(|| {
                    let slot = Slot {
                        generation,
                        plan: Arc::new(OnceLock::from(Some(Arc::clone(&plan)))),
                    };
                    plans.insert(query.to_owned(), slot)
                });
            drop(plans);
            drop((stale, displaced));
        }
        plan
    }
}

impl<T> PlanCache<T> {
    /// Number of cached plans.
    #[must_use]
    pub fn len(&self) -> usize {
        let plans = self.plans.read();
        plans.values().filter_map(Slot::finished).count()
    }

    /// Returns `true` when the cache holds no plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(hits, misses)` counters: a lookup that found a finished plan of
    /// its generation, and one that did not.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Clears the cache.
    pub fn clear(&self) {
        // The guard is gone at the end of this statement; the plans after it.
        let cleared = std::mem::take(&mut *self.plans.write());
        drop(cleared);
    }
}

/// Moves the slots of generations older than `generation` out of `plans`;
/// the caller drops them once it has released the lock.
fn purge_older<T>(plans: &mut BTreeMap<String, Slot<T>>, generation: u64) -> Vec<Slot<T>> {
    plans
        .extract_if(.., |_, slot| slot.generation < generation)
        .map(|(_, slot)| slot)
        .collect()
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
    fn concurrent_misses_for_one_text_plan_it_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Barrier;

        const CALLERS: usize = 8;
        let cache = PlanCache::new();
        cache.put(&plan_at("q", 1));
        let planned = AtomicUsize::new(0);
        let all_asked = Barrier::new(CALLERS);
        let plans: Vec<Arc<Plan>> = std::thread::scope(|scope| {
            let callers: Vec<_> = (0..CALLERS)
                .map(|_| {
                    scope.spawn(|| {
                        // Generation 2 is one nobody has planned; the one
                        // planner holds the slot until every caller missed.
                        all_asked.wait();
                        cache
                            .get_or_plan("q", 2, || {
                                planned.fetch_add(1, Ordering::SeqCst);
                                while cache.stats().1 < CALLERS as u64 {
                                    std::thread::yield_now();
                                }
                                Ok::<_, String>(plan_at("q", 2))
                            })
                            .unwrap()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        assert_eq!(planned.load(Ordering::SeqCst), 1);
        assert!(plans.iter().all(|plan| Arc::ptr_eq(plan, &plans[0])));
        assert_eq!(plans[0].catalog_generation, 2);
        // Every caller missed; the plan they share is what a later lookup hits.
        assert_eq!(cache.stats(), (0, CALLERS as u64));
        assert!(Arc::ptr_eq(&cache.get("q", 2).unwrap(), &plans[0]));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_planning_error_reaches_its_caller_and_leaves_no_entry() {
        let cache = PlanCache::new();
        let failed = cache.get_or_plan("q", 1, || Err::<Plan, _>("no such extent"));
        assert_eq!(failed.unwrap_err(), "no such extent");
        assert!(cache.is_empty());
        // The next call plans again, and its plan is cached.
        let plan = cache
            .get_or_plan("q", 1, || Ok::<_, String>(plan_at("q", 1)))
            .unwrap();
        let hit = cache
            .get_or_plan("q", 1, || -> Result<Plan, String> {
                panic!("a cached text is not planned")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&plan, &hit));
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    fn a_waiter_plans_for_itself_when_the_planner_it_waited_for_fails() {
        use std::sync::mpsc;

        let cache = PlanCache::new();
        let (planning, is_planning) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let cache = &cache;
            let leader = scope.spawn(move || {
                cache.get_or_plan("q", 1, || {
                    planning.send(()).unwrap();
                    released.recv().unwrap();
                    Err::<Plan, _>("leader failed")
                })
            });
            is_planning.recv().unwrap();
            let waiter =
                scope.spawn(|| cache.get_or_plan("q", 1, || Ok::<_, &str>(plan_at("q", 1))));
            // The waiter is either blocked on the slot or has not reached
            // it yet; both orders end with it planning for itself.
            release.send(()).unwrap();
            assert_eq!(leader.join().unwrap().unwrap_err(), "leader failed");
            let plan = waiter.join().unwrap().unwrap();
            assert!(Arc::ptr_eq(&plan, &cache.get("q", 1).unwrap()));
        });
    }

    #[test]
    fn an_old_snapshot_plans_for_itself_and_displaces_nothing() {
        let cache = PlanCache::new();
        let fresh = cache.insert(plan_at("q", 6));
        let old = cache
            .get_or_plan("q", 5, || Ok::<_, String>(plan_at("q", 5)))
            .unwrap();
        assert_eq!(old.catalog_generation, 5);
        assert!(Arc::ptr_eq(&cache.get("q", 6).unwrap(), &fresh));
        assert_eq!(cache.len(), 1);
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

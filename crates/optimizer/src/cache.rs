//! Plan caching with extent-update patching (§3.3).
//!
//! "If query optimization plans are cached, the mediator must monitor
//! updates to extents, and modify or recompute plans that are affected by
//! updates to the extents understood by the mediator."  The catalog bumps
//! a generation counter on every change and logs what each generation
//! changed; a cached entry carries the generation it was planned for and
//! hits only at that one.  A lookup that finds an entry of an older
//! generation patches it when every change since added or removed an
//! extent ([`Optimizer::patch`]): the entry's plan gains or loses members
//! of the nodes the changes touch, and shares everything else with the
//! entry it came from.  Any other change — or a patch the plan cannot
//! take — plans that text again, and only that text.  A patched lookup
//! counts as a hit, and [`PlanCache::patches`] reports it.
//!
//! An entry also holds the capabilities each of its classes was planned
//! for: a lookup that finds a wrapper name bound to other capabilities
//! since plans the text again, at the same generation (checked once per
//! [`CapabilityLookup::version`](disco_algebra::CapabilityLookup::version)).
//!
//! Entries are shared, not copied: a hit hands out the cached `Arc`.
//! What is cached per text is the cache's type parameter ([`CacheEntry`]):
//! the optimizer's whole [`Plan`] by default; the mediator and the server
//! cache the executable form the runtime prepares from it, so a hit runs
//! without redoing any work that does not depend on the execution.
//!
//! **Bounded by bytes.**  No entry goes stale for good, so nothing is
//! purged at a change: the cache holds at most [`PlanCache::MAX_BYTES`]
//! of entries by their own estimate ([`CacheEntry::bytes`]), evicting
//! the least recently used, so memory stays flat however many distinct
//! texts arrive.
//!
//! **One planner per miss.**  A DDL operation makes every hot text stale
//! for every session at once.  [`PlanCache::get_or_plan`] gives the text a
//! slot before patching or planning starts: concurrent callers for the
//! same text and generation wait on the slot and share the one entry,
//! instead of each making it and all but one throwing theirs away.
//!
//! **No plan dies under the lock.**  A 256-source plan is a tree of a
//! thousand nodes or more; freeing a dozen takes milliseconds.  Evicted
//! and displaced slots are moved out of the map and dropped after the
//! write lock is released, so an eviction never makes another session's
//! lookup wait for `free`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use disco_catalog::Catalog;
use parking_lot::RwLock;

use crate::patch::{logical_nodes, physical_bytes, Patch, PlanMemo, NODE_BYTES};
use crate::planner::{Optimizer, Plan};

/// What a [`PlanCache`] can hold: something planned from one query text
/// against one catalog generation — a [`Plan`], or an executable form
/// built from one.
pub trait CacheEntry: Sized {
    /// The query text the entry was planned from, if any; an entry
    /// without text is never cached.
    fn query_text(&self) -> Option<&str>;
    /// The catalog generation the entry was planned against.
    fn catalog_generation(&self) -> u64;
    /// What patching the entry's plan needs.
    fn memo(&self) -> &Arc<PlanMemo>;
    /// The heap bytes the entry keeps, estimated: what the cache's bound
    /// counts.
    fn bytes(&self) -> usize;
    /// The entry with `patch` applied, against `catalog`, the catalog the
    /// patch is for; `None` when the entry cannot take it.
    fn patched(&self, patch: &Patch, catalog: &Catalog) -> Option<Self>;
}

impl CacheEntry for Plan {
    fn query_text(&self) -> Option<&str> {
        self.query.as_deref()
    }

    fn catalog_generation(&self) -> u64 {
        self.catalog_generation
    }

    fn memo(&self) -> &Arc<PlanMemo> {
        Plan::memo(self)
    }

    fn bytes(&self) -> usize {
        let logical = logical_nodes(&self.logical) * NODE_BYTES;
        std::mem::size_of::<Self>() + logical + physical_bytes(&self.physical) + self.memo().bytes()
    }

    fn patched(&self, patch: &Patch, _catalog: &Catalog) -> Option<Self> {
        let mut plan = self.clone();
        if !(patch.apply_logical(&mut plan.logical) && patch.apply_physical(&mut plan.physical)) {
            return None;
        }
        plan.catalog_generation = patch.generation();
        plan.cost = patch.cost();
        plan.alternatives = patch.alternatives().to_vec();
        plan.memo = Arc::clone(patch.memo());
        Some(plan)
    }
}

/// A finished slot's entry, and whether it was patched from an older one.
struct Done<T> {
    entry: Arc<T>,
    patched: bool,
}

/// What the cache holds for one query text: the generation the text is
/// (to be) planned for and the entry, once a planner has finished —
/// `Some(None)` when that planner failed — with the bytes it is counted
/// at and when it was last used.
struct Slot<T> {
    generation: u64,
    plan: Arc<OnceLock<Option<Done<T>>>>,
    bytes: usize,
    used: AtomicU64,
}

impl<T> Slot<T> {
    fn finished(&self) -> Option<&Arc<T>> {
        self.plan
            .get()
            .and_then(Option::as_ref)
            .map(|done| &done.entry)
    }
}

/// The slots and the bytes their entries are counted at.
struct Slots<T> {
    map: BTreeMap<String, Slot<T>>,
    bytes: usize,
}

impl<T> Slots<T> {
    /// Removes `query`'s slot, uncounting it.
    fn remove(&mut self, query: &str) -> Option<Slot<T>> {
        let slot = self.map.remove(query)?;
        self.bytes -= slot.bytes;
        Some(slot)
    }

    /// Puts `slot` under `query`, uncounting the slot it displaces.
    fn insert(&mut self, query: &str, slot: Slot<T>) -> Option<Slot<T>> {
        let displaced = self.remove(query);
        self.bytes += slot.bytes;
        self.map.insert(query.to_owned(), slot);
        displaced
    }

    /// Counts `bytes` for `query`'s slot if it still holds `plan`, then
    /// evicts the least recently used other entries until the cache is
    /// within its bound; the evicted slots, for the caller to drop once it
    /// has released the lock.
    fn account(
        &mut self,
        query: &str,
        plan: &Arc<OnceLock<Option<Done<T>>>>,
        bytes: usize,
        max: usize,
    ) -> Vec<Slot<T>> {
        if let Some(slot) = self
            .map
            .get_mut(query)
            .filter(|s| Arc::ptr_eq(&s.plan, plan))
        {
            self.bytes += bytes - slot.bytes;
            slot.bytes = bytes;
        }
        let mut evicted = Vec::new();
        while self.bytes > max {
            let oldest = self
                .map
                .iter()
                .filter(|(text, slot)| *text != query && slot.bytes > 0)
                .min_by_key(|(_, slot)| slot.used.load(Ordering::Relaxed))
                .map(|(text, _)| text.clone());
            let Some(oldest) = oldest else { break };
            evicted.extend(self.remove(&oldest));
        }
        evicted
    }
}

/// A cache of planned queries keyed by query text.  What it holds for a
/// text is `T`: [`Plan`] by default, or whatever a caller builds from a
/// plan and runs on a hit.
pub struct PlanCache<T = Plan> {
    plans: RwLock<Slots<T>>,
    hits: AtomicU64,
    misses: AtomicU64,
    patches: AtomicU64,
    /// Ticks once per use of an entry: what "recently" means.
    clock: AtomicU64,
}

impl<T> Default for PlanCache<T> {
    fn default() -> Self {
        PlanCache {
            plans: RwLock::new(Slots {
                map: BTreeMap::new(),
                bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            patches: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }
}

impl<T> std::fmt::Debug for PlanCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("plans", &self.len())
            .field("bytes", &self.bytes())
            .field("stats", &self.stats())
            .field("patches", &self.patches())
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
    /// The most bytes of entries the cache holds, by their estimates.
    pub const MAX_BYTES: usize = 32 << 20;

    /// Looks up a cached plan for `query`, returning it only when it was
    /// built against `current_generation`.  An entry of another
    /// generation is left as it is: a caller on an old catalog snapshot
    /// does not displace a fresh entry, and an old entry is what a later
    /// [`PlanCache::get_or_plan`] patches.
    #[must_use]
    pub fn get(&self, query: &str, current_generation: u64) -> Option<Arc<T>> {
        let hit = self.plans.read().map.get(query).and_then(|slot| {
            let plan = slot
                .finished()
                .filter(|_| slot.generation == current_generation)?;
            self.hits.fetch_add(1, Ordering::Relaxed);
            slot.used.store(self.tick(), Ordering::Relaxed);
            Some(Arc::clone(plan))
        });
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// The entry of `query` for `catalog`: the cached one; one patched
    /// from the entry of an older generation ([`Optimizer::patch`]); or
    /// the one `plan_fn` builds — which is then cached.  An entry whose
    /// wrappers are bound to other capabilities than it was planned for
    /// is planned again.  Concurrent lookups of the same text and
    /// generation patch or plan once and share the entry; a caller on an
    /// older catalog snapshot than the cached entry's plans for itself and
    /// displaces nothing.  `plan_fn` must build the entry for `catalog`
    /// with `optimizer`'s capabilities.
    ///
    /// # Errors
    ///
    /// Returns `plan_fn`'s error.  A failure leaves no entry behind, and a
    /// caller that had been waiting for the failed planner runs its own
    /// `plan_fn`.
    pub fn get_or_plan<E>(
        &self,
        query: &str,
        catalog: &Catalog,
        optimizer: &Optimizer,
        plan_fn: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        let generation = catalog.generation();
        let lookup = optimizer.capabilities();
        let found = self.plans.read().map.get(query).and_then(|slot| {
            let entry = slot.finished()?;
            if slot.generation == generation && entry.memo().capabilities_hold(lookup) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                slot.used.store(self.tick(), Ordering::Relaxed);
                return Some(Ok(Arc::clone(entry)));
            }
            Some(Err((slot.generation, Arc::clone(entry))))
        });
        let held = match found {
            Some(Ok(entry)) => return Ok(entry),
            Some(Err(held)) => Some(held),
            None => None,
        };
        let replaced = held.as_ref().map(|(_, entry)| entry);
        // A miss until the slot is found patched.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = self.claim(query, generation, replaced) else {
            return plan_fn().map(Arc::new);
        };
        let stale = held
            .filter(|(held_at, _)| *held_at < generation)
            .map(|(_, entry)| entry);
        let mut plan_fn = Some(plan_fn);
        let mut error = None;
        let mut made = false;
        let done = cell.get_or_init(|| {
            made = true;
            let patched = stale.and_then(|stale| {
                let patch = optimizer.patch(stale.memo(), stale.catalog_generation(), catalog)?;
                stale.patched(&patch, catalog)
            });
            if let Some(entry) = patched {
                self.patches.fetch_add(1, Ordering::Relaxed);
                return Some(Done {
                    entry: Arc::new(entry),
                    patched: true,
                });
            }
            let plan_fn = plan_fn.take().expect("the initializer runs at most once");
            let planned = plan_fn().map_err(|e| error = Some(e)).ok()?;
            Some(Done {
                entry: Arc::new(planned),
                patched: false,
            })
        });
        if done.as_ref().is_some_and(|done| done.patched) {
            self.misses.fetch_sub(1, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        match (done, error, plan_fn) {
            (Some(done), ..) => {
                if made {
                    let bytes = done.entry.bytes();
                    let mut plans = self.plans.write();
                    let evicted = plans.account(query, &cell, bytes, Self::MAX_BYTES);
                    drop(plans);
                    drop(evicted);
                }
                Ok(Arc::clone(&done.entry))
            }
            (None, Some(error), _) => {
                let mut plans = self.plans.write();
                let failed = plans
                    .map
                    .get(query)
                    .is_some_and(|held| Arc::ptr_eq(&held.plan, &cell))
                    .then(|| plans.remove(query));
                drop(plans);
                drop(failed);
                Err(error)
            }
            // The planner this caller waited for failed.
            (None, None, Some(plan_fn)) => plan_fn().map(|plan| self.insert(plan)),
            (None, None, None) => unreachable!("a failed initializer leaves its error"),
        }
    }

    /// The slot `query` is (to be) made in at `generation`: the pending
    /// or failed one another caller made, or a new one, which displaces
    /// a slot of an older generation or one holding `replaced`.  `None`
    /// when the text is held for a newer generation.
    fn claim(
        &self,
        query: &str,
        generation: u64,
        replaced: Option<&Arc<T>>,
    ) -> Option<Arc<OnceLock<Option<Done<T>>>>> {
        let mut plans = self.plans.write();
        match plans.map.get(query) {
            Some(held) if held.generation > generation => return None,
            Some(held)
                if held.generation == generation
                    && !held
                        .finished()
                        .is_some_and(|e| replaced.is_some_and(|r| Arc::ptr_eq(e, r))) =>
            {
                return Some(Arc::clone(&held.plan));
            }
            _ => {}
        }
        let slot = Slot {
            generation,
            plan: Arc::default(),
            bytes: 0,
            used: AtomicU64::new(self.tick()),
        };
        let cell = Arc::clone(&slot.plan);
        let displaced = plans.insert(query, slot);
        drop(plans);
        drop(displaced);
        Some(cell)
    }

    /// The next tick of the clock entries are used by.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
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
    /// hold).  A plan of an older snapshot than the text's entry does not
    /// displace it.
    pub fn insert(&self, plan: T) -> Arc<T> {
        let plan = Arc::new(plan);
        let Some(query) = plan.query_text() else {
            return plan;
        };
        let generation = plan.catalog_generation();
        let bytes = plan.bytes();
        let mut plans = self.plans.write();
        let mut dropped = Vec::new();
        if plans
            .map
            .get(query)
            .is_none_or(|held| held.generation <= generation)
        {
            let slot = Slot {
                generation,
                plan: Arc::new(OnceLock::from(Some(Done {
                    entry: Arc::clone(&plan),
                    patched: false,
                }))),
                bytes: 0,
                used: AtomicU64::new(self.tick()),
            };
            let cell = Arc::clone(&slot.plan);
            dropped.extend(plans.insert(query, slot));
            dropped.extend(plans.account(query, &cell, bytes, Self::MAX_BYTES));
        }
        drop(plans);
        drop(dropped);
        plan
    }
}

impl<T> PlanCache<T> {
    /// Number of cached plans.
    #[must_use]
    pub fn len(&self) -> usize {
        let plans = self.plans.read();
        plans.map.values().filter_map(Slot::finished).count()
    }

    /// Returns `true` when the cache holds no plan.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes the cached entries are counted at, by their estimates.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.plans.read().bytes
    }

    /// `(hits, misses)` counters: a lookup that found a finished plan of
    /// its generation or one patched from an older entry, and one that
    /// planned.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// How many entries were patched from an older one (each counted as
    /// a hit too).
    #[must_use]
    pub fn patches(&self) -> u64 {
        self.patches.load(Ordering::Relaxed)
    }

    /// Clears the cache.
    pub fn clear(&self) {
        let mut plans = self.plans.write();
        let cleared = std::mem::take(&mut plans.map);
        plans.bytes = 0;
        drop(plans);
        drop(cleared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for i in 0..10 {
            c.add_repository(Repository::new(format!("r{i}"))).unwrap();
        }
        c.add_extent(MetaExtent::new("person0", "Person", "w0", "r0"))
            .unwrap();
        c
    }

    /// Adds `person{i}` (its repository is there).
    fn add_person(c: &mut Catalog, i: usize) {
        c.add_extent(MetaExtent::new(
            format!("person{i}"),
            "Person",
            "w0",
            format!("r{i}"),
        ))
        .unwrap();
    }

    fn optimizer() -> Optimizer {
        Optimizer::new(BTreeMap::<String, CapabilitySet>::new())
    }

    /// A catalog at `generation` whose every change was a repository: a
    /// plan of another generation cannot be patched to it.
    fn catalog_at(generation: u64) -> Catalog {
        let mut c = Catalog::new();
        while c.generation() < generation {
            let name = format!("r{}", c.generation());
            c.add_repository(Repository::new(name)).unwrap();
        }
        c
    }

    #[test]
    fn cache_hits_for_same_generation_and_invalidates_on_extent_updates() {
        let mut cat = catalog();
        let optimizer = optimizer();
        let cache = PlanCache::new();
        let query = "select x.name from x in person";
        let plan = optimizer.optimize_text(query, &cat).unwrap();
        cache.put(&plan);
        assert!(cache.get(query, cat.generation()).is_some());
        assert_eq!(cache.stats().0, 1);

        // Adding a new person source makes the cached plan stale — the
        // implicit `person` extent now covers one more source.  The stale
        // plan stays, for the next lookup to patch or replace.
        add_person(&mut cat, 9);
        assert!(cache.get(query, cat.generation()).is_none());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().1, 1);
        // One source became two: a node where a submit was, planned again.
        let plan = cache
            .get_or_plan(query, &cat, &optimizer, || {
                optimizer.optimize_text(query, &cat)
            })
            .unwrap();
        assert_eq!(plan.catalog_generation, cat.generation());
        assert_eq!((cache.stats(), cache.patches()), ((1, 2), 0));
        // Two became three: the node gains a member, patched.
        add_person(&mut cat, 5);
        let patched = cache
            .get_or_plan(query, &cat, &optimizer, || -> Result<Plan, String> {
                panic!("a plan an added extent widens is patched")
            })
            .unwrap();
        let fresh = optimizer.optimize_text(query, &cat).unwrap();
        assert_eq!(patched.physical, fresh.physical);
        assert_eq!(patched.logical, fresh.logical);
        assert_eq!(patched.alternatives, fresh.alternatives);
        assert_eq!(patched.catalog_generation, cat.generation());
        assert_eq!((cache.stats(), cache.patches()), ((2, 2), 1));
        assert_eq!(cache.len(), 1);
    }

    /// A class whose first member goes has its template named after the
    /// next one: patched, as a fresh plan names it.
    #[test]
    fn a_class_that_loses_its_first_member_is_patched() {
        let mut cat = catalog();
        for i in 1..4 {
            add_person(&mut cat, i);
        }
        let optimizer = optimizer();
        let cache = PlanCache::new();
        let query = "select x.name from x in person where x.salary > 10";
        cache
            .get_or_plan(query, &cat, &optimizer, || {
                optimizer.optimize_text(query, &cat)
            })
            .unwrap();
        for (gone, back) in [("person0", 0), ("person1", 1)] {
            cat.remove_extent(gone).unwrap();
            add_person(&mut cat, back + 5);
            let patched = cache
                .get_or_plan(query, &cat, &optimizer, || -> Result<Plan, String> {
                    panic!("a class's new first member is patched in")
                })
                .unwrap();
            let fresh = optimizer.optimize_text(query, &cat).unwrap();
            assert_eq!(patched.physical, fresh.physical);
            assert_eq!(patched.logical, fresh.logical);
            assert_eq!(patched.alternatives, fresh.alternatives);
        }
        assert_eq!(cache.patches(), 2);
    }

    /// A text planned for `generation` (the plan itself does not matter).
    fn plan_at(query: &str, generation: u64) -> Plan {
        let mut plan = optimizer()
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
        // A then stores its own generation-5 plan: it does not displace
        // B's.
        cache.put(&plan_at("q", 5));
        assert!(cache.get("q", 6).is_some());
        cache.put(&plan_at("only-at-5", 5));
        cache.put(&plan_at("r", 6));
        assert_eq!(cache.len(), 3);
        // An entry older than the caller's generation stays too, for a
        // later lookup to patch.
        assert!(cache.get("q", 7).is_none());
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(), (2, 2));
    }

    #[test]
    fn older_plans_stay_until_replaced_or_evicted() {
        let cache = PlanCache::new();
        for text in ["a", "b", "c"] {
            cache.put(&plan_at(text, 1));
        }
        assert_eq!(cache.len(), 3);
        // One DDL operation later, storing `a` again replaces `a` only:
        // `b` and `c` wait for a lookup to patch them.
        cache.put(&plan_at("a", 2));
        assert_eq!(cache.len(), 3);
        assert!(cache.get("a", 2).is_some());
        assert!(cache.get("b", 1).is_some());
        // Every entry is counted at its estimate, and the cache holds
        // what it counts.
        let one = plan_at("x", 1).bytes();
        assert_eq!(cache.bytes(), 3 * one);
        cache.clear();
        assert_eq!((cache.len(), cache.bytes()), (0, 0));
    }

    #[test]
    fn the_least_recently_used_entries_go_past_the_byte_bound() {
        let cache = PlanCache::new();
        let one = plan_at("x", 1).bytes();
        let fits = PlanCache::<Plan>::MAX_BYTES / one;
        cache.put(&plan_at("first", 1));
        cache.put(&plan_at("second", 1));
        assert!(cache.get("first", 1).is_some());
        for i in 0..fits - 1 {
            cache.put(&plan_at(&format!("t{i}"), 1));
        }
        assert!(cache.bytes() <= PlanCache::<Plan>::MAX_BYTES);
        assert_eq!(cache.len(), fits);
        // The one entry that had to go is the least recently used.
        assert!(cache.get("second", 1).is_none());
        assert!(cache.get("first", 1).is_some());
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
        let (optimizer, at_2) = (optimizer(), catalog_at(2));
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
                            .get_or_plan("q", &at_2, &optimizer, || {
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
        let (optimizer, at_1) = (optimizer(), catalog_at(1));
        let failed = cache.get_or_plan("q", &at_1, &optimizer, || Err::<Plan, _>("no such extent"));
        assert_eq!(failed.unwrap_err(), "no such extent");
        assert!(cache.is_empty());
        // The next call plans again, and its plan is cached.
        let plan = cache
            .get_or_plan("q", &at_1, &optimizer, || Ok::<_, String>(plan_at("q", 1)))
            .unwrap();
        let hit = cache
            .get_or_plan("q", &at_1, &optimizer, || -> Result<Plan, String> {
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
        let (optimizer, at_1) = (optimizer(), catalog_at(1));
        let (planning, is_planning) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let (cache, optimizer, at_1) = (&cache, &optimizer, &at_1);
            let leader = scope.spawn(move || {
                cache.get_or_plan("q", at_1, optimizer, || {
                    planning.send(()).unwrap();
                    released.recv().unwrap();
                    Err::<Plan, _>("leader failed")
                })
            });
            is_planning.recv().unwrap();
            let waiter = scope.spawn(|| {
                cache.get_or_plan("q", at_1, optimizer, || Ok::<_, &str>(plan_at("q", 1)))
            });
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
            .get_or_plan("q", &catalog_at(5), &optimizer(), || {
                Ok::<_, String>(plan_at("q", 5))
            })
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

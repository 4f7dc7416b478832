//! What a plan-cache miss costs per source, as a count (§3.3: a cached
//! plan is recomputed whenever an extent is added, so planning must scale
//! in the number of sources).
//!
//! Heap allocations are counted, not times: the counts repeat exactly on
//! every machine.  A miss compiles the text, optimizes the plan and
//! prepares it for the cache.  An interface's extent is one node from
//! compile to lowering: the rules, the search and lowering touch one
//! template per capability class, so what a source adds is its member —
//! its names, its costing, its call — and not a branch of its own.  The
//! assertions pin what each added source costs in each step, what a
//! source costs the whole optimization and compilation, that an added
//! source costs the same however many there are, and the bytes a
//! prepared plan keeps in the cache: as prepared, and once it has run
//! and its calls' calibration keys are rendered.  The bounds fail at the
//! parent of the node, where an added source cost 51.1 allocations to
//! compile and optimize and a prepared plan of 256 sources kept 317 KiB
//! (346 KiB once run).
//!
//! An extent added to a cached text's interface patches the cached plan
//! instead of planning it again: the second test pins what that patch
//! allocates and keeps — copies of the member list and of the call table,
//! and a constant beyond them — that an added extent removed again
//! patches back to the plan it started from, that the estimate a cache
//! counts an entry at is within 2× of what the allocator sees, and that a
//! cache fed 10 000 distinct texts stays within its byte bound.
//!
//! A resubmitted partial answer with several lost sources is a union of
//! like selects, which normalization folds into one node: the last test
//! pins what a lost source adds to optimizing it, and that a residual of
//! one lost source, which does not fold, costs no more than before.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use disco::algebra::{CapabilitySet, LogicalExpr, ScalarExpr, ScalarOp};
use disco::catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef,
};
use disco::optimizer::{compile_text, CacheEntry, CalibrationStore, Optimizer, PlanCache};
use disco::runtime::{calls_in_flight, Executor, PreparedPlan};
use disco::source::{generator, NetworkProfile, RelationalStore, SimulatedLink};
use disco::wrapper::{RelationalWrapper, WrapperRegistry};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated and has not freed (freed on another
    /// thread, they stay counted here).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with
// no destructor, so touching it allocates nothing and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        live(size(layout.size()));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-size(layout.size()));
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        live(size(new_size) - size(layout.size()));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("an allocation's size")
}

fn live(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// perfbench's `plan_wide` text.
const TEXT: &str = "select x.name from x in person where x.salary > 5000";

/// `sources` like-typed `person` extents behind one capable wrapper type
/// (and one more repository, for a source added later).
fn federation(sources: usize) -> Catalog {
    let mut c = Catalog::new();
    c.define_interface(
        InterfaceDef::new("Person")
            .with_extent_name("person")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )
    .unwrap();
    c.add_wrapper(WrapperDef::new("w0", "relational")).unwrap();
    for i in 0..=sources {
        c.add_repository(Repository::new(format!("r{i}"))).unwrap();
    }
    for i in 0..sources {
        c.add_extent(person(i)).unwrap();
    }
    c
}

/// The `i`-th `person` extent.
fn person(i: usize) -> MetaExtent {
    MetaExtent::new(format!("person{i}"), "Person", "w0", format!("r{i}"))
}

/// A store that has seen every source answer the pushed shape of [`TEXT`]
/// with another constant (a close match) and a bare `get`.
fn seeded_store(sources: usize) -> Arc<CalibrationStore> {
    let store = Arc::new(CalibrationStore::new());
    for i in 0..=sources {
        let get = LogicalExpr::get(format!("person{i}"));
        let pushed = get
            .clone()
            .filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(4000i64),
            ))
            .project(["name", "salary"]);
        store.record(&format!("r{i}"), &pushed, 0.4, 2);
        store.record(&format!("r{i}"), &get, 0.6, 4);
    }
    store
}

/// The wrapper of [`federation`]: one relational wrapper over every
/// source's table of four rows, on a link that does not sleep.
fn registry(sources: usize) -> WrapperRegistry {
    let store = Arc::new(RelationalStore::new());
    for i in 0..=sources {
        store.put_table(generator::person_table(
            &format!("person{i}"),
            4,
            i as u64,
            11,
        ));
    }
    let link = Arc::new(SimulatedLink::new("w0", NetworkProfile::fast(), 11));
    let registry = WrapperRegistry::new();
    registry.register(Arc::new(
        RelationalWrapper::new("w0", store, link).with_capabilities(CapabilitySet::full()),
    ));
    registry
}

/// The allocations of each step of one miss over `sources` sources, and
/// the bytes the prepared plan keeps, as prepared and once run.
struct Miss {
    sources: usize,
    compile: u64,
    optimize: u64,
    prepare: u64,
    retained: i64,
    retained_run: i64,
}

/// The bytes `plan` keeps: those its drop frees.
fn retained_by(plan: PreparedPlan) -> i64 {
    let with = LIVE.with(Cell::get);
    drop(plan);
    with - LIVE.with(Cell::get)
}

fn miss(sources: usize) -> Miss {
    let catalog = federation(sources);
    let mut capabilities = BTreeMap::new();
    capabilities.insert("w0".to_owned(), CapabilitySet::full());
    let store = seeded_store(sources);
    let optimizer = Optimizer::with_store(capabilities, Arc::clone(&store));

    let (compile, compiled) = allocations_of(|| compile_text(TEXT, &catalog));
    let compiled = compiled.unwrap();
    let (optimize, plan) =
        allocations_of(|| optimizer.optimize_logical(&compiled, catalog.generation()));
    let plan = plan.unwrap();
    assert_eq!(plan.alternatives.len(), 4);
    // The plan holds one node, with a member per source.
    let mut nodes = Vec::new();
    plan.logical.walk(&mut |e| {
        if let LogicalExpr::Extents(node) = e {
            nodes.push(node.members.len());
        }
    });
    assert_eq!(nodes, [sources]);
    let (prepare, prepared) = allocations_of(|| PreparedPlan::new(plan, &catalog));
    let retained = retained_by(prepared.unwrap());

    // Plan it again and run it once, recording into the store: every
    // call's calibration keys are rendered and kept with the plan.
    let plan = optimizer.optimize_logical(&compiled, catalog.generation());
    let prepared = PreparedPlan::new(plan.unwrap(), &catalog).unwrap();
    let executor = Executor::new(registry(sources)).with_calibration(store);
    let answer = executor.execute_prepared(&prepared).unwrap();
    assert!(answer.is_complete());
    drop(answer);
    while calls_in_flight() > 0 {
        std::thread::yield_now();
    }
    Miss {
        sources,
        compile,
        optimize,
        prepare,
        retained,
        retained_run: retained_by(prepared),
    }
}

#[test]
#[allow(clippy::cast_precision_loss)]
fn planning_allocations_per_source_are_bounded_and_flat() {
    let misses: Vec<Miss> = [8usize, 64, 256].into_iter().map(miss).collect();
    let per_source = |allocations: u64, sources: usize| allocations as f64 / sources as f64;
    for m in &misses {
        println!(
            "{} sources: compile_text {}, optimize_logical {}, PreparedPlan::new {} \
             allocations; the prepared plan keeps {} bytes, {} once run",
            m.sources, m.compile, m.optimize, m.prepare, m.retained, m.retained_run
        );
        assert!(
            per_source(m.optimize, m.sources) <= 60.0,
            "optimize_logical at {} sources: {} allocations",
            m.sources,
            m.optimize
        );
        if m.sources == 256 {
            assert!(
                per_source(m.compile, m.sources) <= 14.0,
                "compile_text at {} sources: {} allocations",
                m.sources,
                m.compile
            );
        }
    }
    // What each source added costs, between consecutive sizes: a class's
    // template is paid once, whatever the federation's size.
    let added = |step: fn(&Miss) -> u64| -> Vec<f64> {
        misses
            .windows(2)
            .map(|pair| {
                (step(&pair[1]) - step(&pair[0])) as f64
                    / (pair[1].sources - pair[0].sources) as f64
            })
            .collect()
    };
    let planning = added(|m| m.compile + m.optimize);
    let preparing = added(|m| m.prepare);
    println!("per added source: compile + optimize {planning:.2?}, prepare {preparing:.2?}");
    for (what, added, bound) in [
        ("compile_text + optimize_logical", &planning, 12.0),
        ("PreparedPlan::new", &preparing, 15.0),
    ] {
        let least = added.iter().copied().fold(f64::INFINITY, f64::min);
        let most = added.iter().copied().fold(0.0, f64::max);
        assert!(
            most <= bound,
            "{what}: {added:?} allocations per added source"
        );
        assert!(
            most <= 1.05 * least,
            "{what}: allocations per added source grow with the federation: {added:?}"
        );
    }
    let widest = misses.last().expect("three sizes");
    assert!(
        widest.retained <= 160 * 1024,
        "a prepared plan of {} sources keeps {} bytes",
        widest.sources,
        widest.retained
    );
    assert!(
        widest.retained_run <= 173 * 1024,
        "a prepared plan of {} sources keeps {} bytes once run",
        widest.sources,
        widest.retained_run
    );
}

/// The allocations and the bytes one patch takes, and the estimates the
/// cache counts entries at.
struct Patched {
    sources: usize,
    allocations: u64,
    /// Bytes the patch allocated and the patched entry keeps (the entry it
    /// was patched from is still held).
    kept: i64,
}

fn capable() -> BTreeMap<String, CapabilitySet> {
    let mut capabilities = BTreeMap::new();
    capabilities.insert("w0".to_owned(), CapabilitySet::full());
    capabilities
}

/// A cached, run plan of [`TEXT`] over `sources` sources patched for
/// one source added, then for it removed again.
fn patch(sources: usize) -> Patched {
    let mut catalog = federation(sources);
    let store = seeded_store(sources);
    let optimizer = Optimizer::with_store(capable(), Arc::clone(&store));
    let cache = PlanCache::<PreparedPlan>::default();
    let plan = || {
        let plan = optimizer
            .optimize_text(TEXT, &catalog)
            .map_err(|e| e.to_string())?;
        PreparedPlan::new(plan, &catalog).map_err(|e| e.to_string())
    };
    let original = cache.get_or_plan(TEXT, &catalog, &optimizer, plan).unwrap();
    let executor = Executor::new(registry(sources)).with_calibration(store);
    assert!(executor.execute_prepared(&original).unwrap().is_complete());
    while calls_in_flight() > 0 {
        std::thread::yield_now();
    }
    // The entry's estimate against what dropping a copy of it frees.
    let copy =
        PreparedPlan::new(optimizer.optimize_text(TEXT, &catalog).unwrap(), &catalog).unwrap();
    assert!(executor.execute_prepared(&copy).unwrap().is_complete());
    while calls_in_flight() > 0 {
        std::thread::yield_now();
    }
    let estimate = copy.bytes();
    let freed = retained_by(copy);
    println!("{sources} sources: an entry estimated at {estimate} bytes frees {freed}");
    let estimate = i64::try_from(estimate).unwrap();
    assert!(
        estimate <= 2 * freed && freed <= 2 * estimate,
        "{sources} sources: estimated at {estimate} bytes, keeps {freed}"
    );

    catalog.add_extent(person(sources)).unwrap();
    let live = LIVE.with(Cell::get);
    let (allocations, patched) = allocations_of(|| {
        cache.get_or_plan(
            TEXT,
            &catalog,
            &optimizer,
            || -> Result<PreparedPlan, String> {
                panic!("an added extent patches the cached plan")
            },
        )
    });
    let patched = patched.unwrap();
    let kept = LIVE.with(Cell::get) - live;
    assert_eq!(cache.patches(), 1);
    let fresh = PreparedPlan::new(optimizer.optimize_text(TEXT, &catalog).unwrap(), &catalog);
    assert!(
        *patched == fresh.unwrap(),
        "the patched plan is the plan made afresh"
    );

    // Removed again: the plan the text started with.
    catalog.remove_extent(&format!("person{sources}")).unwrap();
    let back = cache
        .get_or_plan(
            TEXT,
            &catalog,
            &optimizer,
            || -> Result<PreparedPlan, String> {
                panic!("a removed extent patches the cached plan")
            },
        )
        .unwrap();
    assert_eq!(cache.patches(), 2);
    assert_eq!(back.physical(), original.physical());
    let fresh = PreparedPlan::new(optimizer.optimize_text(TEXT, &catalog).unwrap(), &catalog);
    assert!(
        *back == fresh.unwrap(),
        "patched back to the plan made afresh"
    );
    Patched {
        sources,
        allocations,
        kept,
    }
}

#[test]
#[allow(clippy::cast_precision_loss)]
fn a_patch_copies_the_member_list_and_the_call_table_and_a_constant_beyond() {
    let patches: Vec<Patched> = [64usize, 256].into_iter().map(patch).collect();
    for p in &patches {
        println!(
            "{} sources: one added source patched in {} allocations, {} bytes kept",
            p.sources, p.allocations, p.kept
        );
    }
    let [small, large] = &patches[..] else {
        unreachable!("two sizes")
    };
    // The copies are one allocation each, whatever their length.
    assert_eq!(
        small.allocations, large.allocations,
        "patch allocations grow"
    );
    assert!(large.allocations <= 90, "{} allocations", large.allocations);
    // What a source more costs the patch: its member; its call's place
    // in the table, in the index by extent and in the fan-out's list; and
    // the site costs of the class's four distinct rewrites the search kept
    // for it — and nothing else.
    let per_source = (large.kept - small.kept) as f64 / (large.sources - small.sources) as f64;
    let copies = std::mem::size_of::<disco::algebra::Member>() + 8 + 8 + 16 + 4 * 16;
    println!("bytes a patch keeps per source: {per_source:.1} ({copies} copied)");
    assert!(
        per_source <= copies as f64 + 1.0,
        "{per_source:.1} bytes per source"
    );
    // A constant beyond the copies.
    assert!(
        large.kept - (copies * large.sources) as i64 <= 8 * 1024,
        "{} bytes beyond the copies",
        large.kept - (copies * large.sources) as i64
    );
}

#[test]
fn a_cache_fed_distinct_texts_stays_within_its_byte_bound() {
    let sources = 8;
    let catalog = federation(sources);
    let optimizer = Optimizer::with_store(capable(), seeded_store(sources));
    let cache = PlanCache::<PreparedPlan>::default();
    let bound = PlanCache::<PreparedPlan>::MAX_BYTES;
    let live = LIVE.with(Cell::get);
    for k in 0..10_000 {
        let text = format!("select x.name from x in person where x.salary > {k}");
        cache
            .get_or_plan(&text, &catalog, &optimizer, || {
                let plan = optimizer
                    .optimize_text(&text, &catalog)
                    .map_err(|e| e.to_string())?;
                PreparedPlan::new(plan, &catalog).map_err(|e| e.to_string())
            })
            .unwrap();
        assert!(cache.bytes() <= bound, "{k} texts: {} bytes", cache.bytes());
    }
    let kept = LIVE.with(Cell::get) - live;
    println!(
        "10000 texts: {} cached, counted at {} bytes, {kept} bytes live",
        cache.len(),
        cache.bytes()
    );
    assert!(cache.len() < 10_000, "nothing was evicted");
    assert!(
        kept <= 2 * i64::try_from(bound).unwrap(),
        "the cache keeps {kept} bytes"
    );
}

/// The residual a partial answer with `lost` sources down is resubmitted
/// as (§4): a union of one select per lost source and the data.
fn residual(lost: usize) -> String {
    let selects: Vec<String> = (0..lost)
        .map(|i| format!("select x.name from x in person{i} where x.salary > 10"))
        .collect();
    format!("union({}, bag(\"Sam\"))", selects.join(", "))
}

/// The allocations of `optimize_logical` on the compiled `text`, over
/// `sources` sources behind one capable wrapper, and the plan.
fn optimize(sources: usize, text: &str) -> (u64, disco::optimizer::Plan) {
    let catalog = federation(sources);
    let optimizer = Optimizer::with_store(capable(), seeded_store(sources));
    let compiled = compile_text(text, &catalog).unwrap();
    let (allocations, plan) =
        allocations_of(|| optimizer.optimize_logical(&compiled, catalog.generation()));
    (allocations, plan.unwrap())
}

/// A resubmitted residual is one node, classed as an interface's extent
/// is: what a lost source adds to planning it is a member, not a branch
/// costed as a class of its own (24.0 allocations per added branch; 171.2
/// before normalization folded like branches).  A residual of one lost
/// source does not fold and allocates no more than it did then (181; 184
/// before).
#[test]
#[allow(clippy::cast_precision_loss)]
fn planning_a_resubmitted_residual_allocates_a_member_per_lost_source() {
    let mut counts = Vec::new();
    for lost in [8usize, 64] {
        let (allocations, plan) = optimize(lost, &residual(lost));
        let mut nodes = Vec::new();
        plan.logical.walk(&mut |e| {
            if let LogicalExpr::Extents(node) = e {
                nodes.push(node.members.len());
            }
        });
        assert_eq!(nodes, [lost + 1], "one node: a member per branch");
        counts.push(allocations);
    }
    let per_branch = (counts[1] - counts[0]) as f64 / 56.0;
    let (two, _) = optimize(
        4,
        "union(select x.name from x in person3 where x.salary > 10, bag(\"Sam\"))",
    );
    println!(
        "optimize_logical: {counts:?} allocations at 8 and 64 lost sources, {per_branch:.1} \
         per added branch; {two} for one lost source"
    );
    assert!(
        per_branch <= 50.0,
        "{per_branch:.1} allocations per added branch"
    );
    assert!(two <= 184, "{two} allocations for one lost source");
}

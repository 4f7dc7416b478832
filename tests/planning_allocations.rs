//! What a plan-cache miss costs per source, as a count (§3.3: a cached
//! plan is recomputed whenever an extent is added, so planning must scale
//! in the number of sources).
//!
//! Heap allocations are counted, not times: the counts repeat exactly on
//! every machine.  The planner builds one tree: it normalizes the plan,
//! costs every alternative on it by class of push site — like-typed
//! sources share one class, whose rewrites it builds once — then rewrites
//! the normalized plan in place into the winner and lowers it.  Its count
//! is therefore a constant per source (the normalized and the lowered
//! tree) plus a constant per class; the assertions pin both the bound and
//! that each source added costs the same.  Fails at the parent of the
//! one-tree planner, which materialised four alternatives (231 per source).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::Arc;

use disco::algebra::{CapabilitySet, LogicalExpr, ScalarExpr, ScalarOp};
use disco::catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef,
};
use disco::optimizer::{compile_text, CalibrationStore, Optimizer};

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a plain thread-local `Cell` with
// no destructor, so touching it allocates nothing and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

/// perfbench's `plan_wide` text.
const TEXT: &str = "select x.name from x in person where x.salary > 5000";

/// `sources` like-typed `person` extents behind one capable wrapper type.
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
    for i in 0..sources {
        c.add_repository(Repository::new(format!("r{i}"))).unwrap();
        c.add_extent(MetaExtent::new(
            format!("person{i}"),
            "Person",
            "w0",
            format!("r{i}"),
        ))
        .unwrap();
    }
    c
}

/// A store that has seen every source answer the pushed shape of [`TEXT`]
/// with another constant (a close match) and a bare `get`.
fn seeded_store(sources: usize) -> Arc<CalibrationStore> {
    let store = Arc::new(CalibrationStore::new());
    for i in 0..sources {
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

#[test]
fn planning_allocations_per_source_are_bounded_and_flat() {
    let mut counts = Vec::new();
    for sources in [8usize, 64, 256] {
        let catalog = federation(sources);
        let mut capabilities = BTreeMap::new();
        capabilities.insert("w0".to_owned(), CapabilitySet::full());
        let optimizer = Optimizer::with_store(capabilities, seeded_store(sources));

        let (compile_allocations, compiled) = allocations_of(|| compile_text(TEXT, &catalog));
        let compiled = compiled.unwrap();
        let (optimize_allocations, plan) =
            allocations_of(|| optimizer.optimize_logical(&compiled, catalog.generation()));
        let plan = plan.unwrap();
        assert_eq!(plan.alternatives.len(), 4);
        assert_eq!(plan.logical.size(), 6 * sources + 1);

        #[allow(clippy::cast_precision_loss)]
        let per_source = |allocations: u64| allocations as f64 / sources as f64;
        println!(
            "{sources} sources: optimize_logical {optimize_allocations} allocations \
             ({:.1} per source), compile_text {compile_allocations} ({:.1} per source)",
            per_source(optimize_allocations),
            per_source(compile_allocations),
        );
        assert!(
            per_source(optimize_allocations) <= 60.0,
            "optimize_logical at {sources} sources: {optimize_allocations} allocations"
        );
        if sources == 256 {
            assert!(
                per_source(compile_allocations) <= 14.0,
                "compile_text at {sources} sources: {compile_allocations} allocations"
            );
        }
        counts.push((sources, optimize_allocations));
    }
    // What each source added costs, between consecutive sizes: the one
    // class's rewrites are paid once, whatever the federation's size.
    #[allow(clippy::cast_precision_loss)]
    let added: Vec<f64> = counts
        .windows(2)
        .map(|pair| (pair[1].1 - pair[0].1) as f64 / (pair[1].0 - pair[0].0) as f64)
        .collect();
    let least = added.iter().copied().fold(f64::INFINITY, f64::min);
    let most = added.iter().copied().fold(0.0, f64::max);
    assert!(
        most <= 1.05 * least,
        "allocations per added source grow with the federation: {added:?}"
    );
}

//! What a plan-cache hit costs per source, as a count (§3.3: plans are
//! cached so that the mediator's per-query work does not grow with the
//! sources it federates).
//!
//! Heap allocations are counted, not times: they repeat on every machine.
//! The counter is process-wide — the wrapper calls run on the call
//! executor's workers, not on the test's thread — which is why this file
//! holds exactly one test: a second one would be counted into the first.
//!
//! The federation is perfbench's `plan_wide`: like-typed capable sources
//! of 4 rows each behind wrappers of their own, one cached text.  A hit
//! runs the cached plan's call table — its catalog lookups done, its
//! calibration keys rendered — so what it allocates is the execution's
//! own state: a spool, a queued call and the wrapper's answer per source.
//!
//! This test **fails at the parent commit** (84 allocations per source
//! per hit: every hit cloned each call's key, type map and expected
//! fields, and rendered its calibration keys twice).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use disco::algebra::CapabilitySet;
use disco::core::{Attribute, InterfaceDef, Mediator, NetworkProfile, Table, TypeRef, Value};
use disco_server::{DiscoServer, ServerConfig};

/// Allocations made by the whole process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a static atomic, so touching it
// allocates nothing and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// perfbench's `plan_wide` text.
const TEXT: &str = "select x.name from x in person where x.salary > 5000";

/// `sources` capable `person` sources of 4 rows each, two of which pass
/// [`TEXT`]'s filter in every source.
fn federation(sources: usize) -> Mediator {
    let mut m = Mediator::new("hits");
    m.define_interface(
        InterfaceDef::new("Person")
            .with_extent_name("person")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )
    .unwrap();
    for i in 0..sources {
        let extent = format!("person{i}");
        let mut table = Table::new(&extent, ["id", "name", "salary"]);
        for (id, salary) in [1_000i64, 6_000, 4_000, 9_000].into_iter().enumerate() {
            table
                .insert_values([
                    ("id", Value::Int(id as i64)),
                    ("name", Value::from(format!("p{i}-{id}"))),
                    ("salary", Value::Int(salary)),
                ])
                .unwrap();
        }
        m.add_relational_source(
            &extent,
            "Person",
            &format!("r{i}"),
            table,
            NetworkProfile::fast(),
            CapabilitySet::full(),
        )
        .unwrap();
    }
    m
}

/// The allocations of one hot `query()` — the answer dropped, every call
/// wound down — per source: the least of five (which call finishes first
/// moves a buffer's growth by an allocation or two).
fn per_source_per_hit(sources: usize, query: impl Fn() -> usize) -> f64 {
    // The plan cache, the tables' column images and the calibration
    // store's observation lists (capped at 8 per call) fill here.
    for _ in 0..12 {
        assert_eq!(query(), 2 * sources);
    }
    let mut least = u64::MAX;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(query(), 2 * sources);
        while disco::runtime::calls_in_flight() > 0 {
            std::thread::yield_now();
        }
        least = least.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }
    #[allow(clippy::cast_precision_loss)]
    let per_source = least as f64 / sources as f64;
    per_source
}

#[test]
fn a_plan_cache_hit_allocates_a_bounded_flat_amount_per_source() {
    let mut counts = Vec::new();
    for sources in [8usize, 64, 256] {
        let m = federation(sources);
        let hits_before = m.plan_cache_stats().0;
        let mediator = per_source_per_hit(sources, || {
            let answer = m.query(TEXT).unwrap();
            assert!(answer.is_complete());
            answer.data().len()
        });
        assert!(m.plan_cache_stats().0 >= hits_before + 16, "not hits");

        // A federation of its own, whose calibration store has seen no
        // call: the server plans the text as the mediator did.
        let server = DiscoServer::from_mediator(&federation(sources), ServerConfig::default());
        let session = server.session();
        let served = per_source_per_hit(sources, || {
            let answer = session.query(TEXT).unwrap();
            assert!(answer.is_complete());
            answer.data().len()
        });
        assert_eq!(server.stats().plan_cache.1, 1, "one miss, then hits");

        println!(
            "{sources} sources: Mediator::query {mediator:.1}, Session::query {served:.1} \
             allocations per source per hit"
        );
        counts.extend([mediator, served]);
    }
    let least = counts.iter().copied().fold(f64::INFINITY, f64::min);
    let most = counts.iter().copied().fold(0.0, f64::max);
    assert!(
        most <= 45.0,
        "a hit allocates up to {most:.1} per source: {counts:?}"
    );
    assert!(
        most <= 1.05 * least,
        "allocations per source per hit grow with the federation: {counts:?}"
    );
}

//! What a row costs on its way through a hash join the mediator runs for
//! itself, as a count (§3.2: get-only wrappers answer `get`, so the
//! mediator joins — perfbench's `mediator_combine`, whose `join_project`
//! and `join_distinct` shapes these two texts are).
//!
//! Heap allocations are counted, not times: they repeat on every machine.
//! The counter is process-wide — the wrapper calls run on the call
//! executor's workers, not on the test's thread — which is why this file
//! holds exactly one test: a second one would be counted into the first.
//! Whatever a query allocates per call, per chunk or per batch cancels
//! (or all but cancels) in the **slope**: the allocations 2 sources of
//! 4 000 rows cost beyond 2 sources of 1 000, divided by the extra rows
//! transferred.  The ids join 1:1, so an extra transferred row is half an
//! extra answer struct: 0.5 is the floor.
//!
//! This test **fails at the parent commit** (2.57 per extra row): the
//! join's table made every build row a `Row` (a projected copy of the
//! source struct and the `{x: …}` bind struct), gave every key its own
//! index vector, decoded the rows back into the columns the fused
//! projection reads, and freed them all — while the vectorized probe
//! never looked at one.  The table keeps build rows by position now and
//! the projection reads the build batches' own columns.
//!
//! The build loop is the same under any budget, so CI also runs this file
//! under `DISCO_MEM_BUDGET=268435456`, a budget the build fits: a budget
//! that counts but never trips costs nothing per row either.  That run
//! **fails at its parent commit** (3.06 per extra row on the first text),
//! where a bounded budget made and charged every build row and no
//! payload was gathered, so every matched pair was projected per row.
//! CI's 64 KiB leg cannot hold the 4 000-row build: there the join goes
//! Grace, which makes rows to write them, and that follows from the size
//! of the build, not from a mode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use disco::algebra::CapabilitySet;
use disco::core::{Attribute, InterfaceDef, Mediator, NetworkProfile, TypeRef};
use disco::source::generator;

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

const SOURCES: usize = 2;

/// `SOURCES` get-only relational `person` sources of `rows` rows each,
/// extents `person0` and `person1`; ids are `0..rows` in each.
fn federation(rows: usize) -> Mediator {
    let mut m = Mediator::new("join-allocations");
    m.define_interface(
        InterfaceDef::new("Person")
            .with_extent_name("person")
            .with_attribute(Attribute::new("id", TypeRef::Int))
            .with_attribute(Attribute::new("name", TypeRef::String))
            .with_attribute(Attribute::new("salary", TypeRef::Int)),
    )
    .unwrap();
    for i in 0..SOURCES {
        m.add_relational_source(
            &format!("person{i}"),
            "Person",
            &format!("r{i}"),
            generator::person_table(&format!("person{i}"), rows, i as u64, 7),
            NetworkProfile::fast(),
            CapabilitySet::get_only(),
        )
        .unwrap();
    }
    m
}

/// The allocations of one warm `query(text)` — the answer dropped, every
/// call wound down — and the rows it transferred: the least of five
/// (which chunk arrives first moves a buffer's growth by an allocation or
/// two).
fn warm_query(m: &Mediator, text: &str) -> (u64, usize) {
    // The plan cache, the calibration store and the tables' column
    // images fill here.
    for _ in 0..3 {
        assert!(m.query(text).unwrap().is_complete());
    }
    let mut least = u64::MAX;
    let mut transferred = 0;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let answer = m.query(text).unwrap();
        transferred = answer.stats().rows_transferred;
        drop(answer);
        while disco::runtime::calls_in_flight() > 0 {
            std::thread::yield_now();
        }
        least = least.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }
    (least, transferred)
}

#[test]
fn a_joined_row_allocates_little_beyond_the_answers_own_struct() {
    let texts = [
        "select struct(name: x.name, total: x.salary + y.salary + 5) \
         from x in person0, y in person1 where x.id = y.id",
        "select distinct struct(pay: x.salary + 5, peer: y.salary) \
         from x in person0, y in person1 where x.id = y.id",
    ];
    let bound = 0.75;
    let (small, large) = (federation(1_000), federation(4_000));
    for text in texts {
        let (few_allocations, few_rows) = warm_query(&small, text);
        let (many_allocations, many_rows) = warm_query(&large, text);
        assert!(
            many_rows >= few_rows + 3_000 * SOURCES,
            "{text}: {few_rows} and {many_rows} rows transferred"
        );
        #[allow(clippy::cast_precision_loss)]
        let slope = (many_allocations as f64 - few_allocations as f64)
            / (many_rows as f64 - few_rows as f64);
        println!(
            "{text}: {few_allocations} allocations for {few_rows} rows transferred, \
             {many_allocations} for {many_rows}: {slope:.3} per extra row"
        );
        assert!(
            slope <= bound,
            "{text}: {slope:.3} allocations per extra transferred row (at most {bound})"
        );
    }
}

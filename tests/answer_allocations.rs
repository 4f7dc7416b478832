//! What a row costs between the source table and the answer, as a count
//! (§3.2: capable wrappers evaluate the `submit`ted `project(select(get))`
//! and the mediator unions the answers — perfbench's `fed_pushdown` — or
//! the mediator deduplicates what they answer, as it does for
//! `mediator_combine`'s `distinct` over structs).
//!
//! Heap allocations are counted, not times: they repeat on every machine.
//! The counter is process-wide — the wrapper calls run on the call
//! executor's workers, not on the test's thread — which is why this file
//! holds exactly one test: a second one would be counted into the first.
//! Whatever a query allocates per *call*, per chunk or per batch cancels
//! (or all but cancels) in the **slope**: the allocations 4 sources of
//! 4 000 rows cost beyond 4 sources of 1 000, divided by the extra rows
//! transferred.
//!
//! This test **fails at the parent commit** (0.02 / 0.03 / 2.04 / 4.04):
//! a `struct(...)` answer was built as two heap blocks (the field vector
//! and the `Arc` around it), and a `distinct` over structs built — and,
//! for a duplicate, freed — those two blocks for every input row.  A
//! struct is one block now (1.03: the answer's own values, and what is
//! left), and `distinct` hashes and compares struct columns in place,
//! building only the structs it keeps (0.03).  CI also runs it under
//! `DISCO_MEM_BUDGET=65536`, which holds the budgeted column admission to
//! the same counts; there it failed at the parent of the one-spool-form
//! change too (101.2 / 57.0 / 126.5: a budgeted spool turned every column
//! chunk into rows and encoded them to disk).

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

const SOURCES: usize = 4;

/// `SOURCES` capable relational `person` sources of `rows` rows each.
fn federation(rows: usize) -> Mediator {
    let mut m = Mediator::new("allocations");
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
            CapabilitySet::full(),
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
fn a_transferred_row_allocates_nothing_but_the_answers_own_struct() {
    // Every source answers the `distinct` text with all of its rows, and
    // a few distinct structs survive: nearly every row is a duplicate.
    let texts = [
        ("select x.name from x in person where x.salary > 250", 0.1),
        (
            "sum(select x.salary from x in person where x.salary > 250)",
            0.1,
        ),
        (
            "select struct(name: x.name, pay: x.salary + 7) from x in person \
             where x.salary > 250",
            1.1,
        ),
        (
            "select distinct struct(hi: x.salary > 250, grp: x.id / 1000000) \
             from x in person",
            0.1,
        ),
    ];
    let (small, large) = (federation(1_000), federation(4_000));
    for (text, bound) in texts {
        let (few_allocations, few_rows) = warm_query(&small, text);
        let (many_allocations, many_rows) = warm_query(&large, text);
        assert!(
            many_rows >= few_rows + 1_000 * SOURCES,
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

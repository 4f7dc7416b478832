//! What a *scanned* row costs a selective filter, as a count (§3.2: a
//! capable wrapper evaluates the `select` the mediator pushes to it, and
//! the mediator evaluates whatever a wrapper cannot).  One text, two
//! federations: capable wrappers run the predicate in their pushed pass
//! over the table's column image; get-only wrappers ship every row, and
//! the mediator's spine runs it over the column-faced answers.  Few rows
//! survive, so the scan is nearly all of the work.
//!
//! Heap allocations are counted, not times: they repeat on every machine.
//! The counter is process-wide — the wrapper calls run on the call
//! executor's workers, not on the test's thread — which is why this file
//! holds exactly one test: a second one would be counted into the first.
//! Whatever a query allocates per call, per chunk or per surviving row
//! all but cancels in the **slope**: the allocations 4 sources of 16 000
//! rows cost beyond 4 sources of 4 000, divided by the extra rows the
//! sources scanned.
//!
//! This test **fails at the parent commit** (0.0031 pushed, 0.0153 at
//! the mediator): every predicate gathered its column into a vector,
//! wrote a vector of verdicts and copied it into a truthiness mask —
//! three vectors per selection of 1 024 rows in the wrapper, of 256 in
//! the mediator's spine — before the selection was compacted.  An
//! integer comparison over a null-free column now narrows the selection
//! in place (`Kernel::narrow`) and allocates nothing (0.0001 and 0.0036:
//! what is left at the mediator is the survivors' own result vector, one
//! per 256-row batch that has a survivor).

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

/// `SOURCES` relational `person` sources of `rows` rows each, behind
/// wrappers with `capabilities`.
fn federation(rows: usize, capabilities: CapabilitySet) -> Mediator {
    let mut m = Mediator::new("filter-allocations");
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
            capabilities,
        )
        .unwrap();
    }
    m
}

/// The allocations of one warm `query(text)` — the answer dropped, every
/// call wound down — and the rows its sources scanned: the least of five.
fn warm_query(m: &Mediator, text: &str) -> (u64, usize) {
    // The plan cache, the calibration store and the tables' column
    // images fill here.
    for _ in 0..3 {
        assert!(m.query(text).unwrap().is_complete());
    }
    let mut least = u64::MAX;
    let mut scanned = 0;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let answer = m.query(text).unwrap();
        scanned = answer
            .stats()
            .source_calls
            .iter()
            .map(|call| call.rows_scanned)
            .sum();
        drop(answer);
        while disco::runtime::calls_in_flight() > 0 {
            std::thread::yield_now();
        }
        least = least.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }
    (least, scanned)
}

#[test]
fn a_selective_filter_allocates_nothing_per_scanned_row() {
    // Salaries are uniform over 0..500: about one row in 125 survives.
    let text = "select x.name from x in person where x.salary > 495";
    let sites = [
        ("pushed", CapabilitySet::full(), 0.001),
        ("at the mediator", CapabilitySet::get_only(), 0.005),
    ];
    for (site, capabilities, bound) in sites {
        let (small, large) = (
            federation(4_000, capabilities),
            federation(16_000, capabilities),
        );
        let (few_allocations, few_rows) = warm_query(&small, text);
        let (many_allocations, many_rows) = warm_query(&large, text);
        assert_eq!(few_rows, 4_000 * SOURCES, "{site}");
        assert_eq!(many_rows, 16_000 * SOURCES, "{site}");
        #[allow(clippy::cast_precision_loss)]
        let slope = (many_allocations as f64 - few_allocations as f64)
            / (many_rows as f64 - few_rows as f64);
        println!(
            "{site}: {few_allocations} allocations for {few_rows} rows scanned, \
             {many_allocations} for {many_rows}: {slope:.4} per extra scanned row"
        );
        assert!(
            slope <= bound,
            "{site}: {slope:.4} allocations per extra scanned row (at most {bound})"
        );
    }
}

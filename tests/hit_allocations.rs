//! What a plan-cache hit costs per source, as a count (§3.3: plans are
//! cached so that the mediator's per-query work does not grow with the
//! sources it federates).
//!
//! Heap allocations are counted, not times: they repeat on every machine.
//! One counter is process-wide — the wrapper calls run on the call
//! executor's workers, not on the test's thread — which is why this file
//! holds exactly one test: a second one would be counted into the first.
//! A thread-local one counts the query's own thread: queueing the calls,
//! the combine step and finalization.
//!
//! The federation is perfbench's `plan_wide`: like-typed capable sources
//! of 4 rows each behind wrappers of their own, one cached text.  A hit
//! runs the cached plan's call table — its catalog lookups done, its
//! calibration keys rendered — so what it allocates is the execution's
//! own state: a spool, a queued call and the wrapper's answer per source,
//! and one spine for the union's one class of branches.  The spine is a
//! constant per query, so the bounds are per *added* source; the query's
//! thread allocates ≤ 6 per source per hit.
//!
//! This test **fails at the parent commit** (36 allocations per source
//! per hit, 16 of them on the query's thread: a spine compiled per
//! source, and finalization copying each call's names).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use disco::algebra::CapabilitySet;
use disco::core::{Attribute, InterfaceDef, Mediator, NetworkProfile, Table, TypeRef, Value};
use disco_server::{DiscoServer, ServerConfig};

/// Allocations made by the whole process.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations made by this thread: the query's own thread, which
    /// queues the calls and runs the combine step and finalization.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are a static atomic and a plain
// thread-local `Cell` with no destructor, so touching them allocates
// nothing and cannot re-enter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
/// wound down — in the whole process and on the query's own thread: the
/// least of five of each (which call finishes first moves a buffer's
/// growth by an allocation or two).
fn per_hit(sources: usize, query: impl Fn() -> usize) -> Hit {
    // The plan cache, the tables' column images and the calibration
    // store's observation lists (capped at 8 per call) fill here.
    for _ in 0..12 {
        assert_eq!(query(), 2 * sources);
    }
    let mut least = Hit {
        sources,
        process: u64::MAX,
        thread: u64::MAX,
    };
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let thread_before = THREAD_ALLOCATIONS.with(Cell::get);
        assert_eq!(query(), 2 * sources);
        let thread = THREAD_ALLOCATIONS.with(Cell::get) - thread_before;
        while disco::runtime::calls_in_flight() > 0 {
            std::thread::yield_now();
        }
        least.process = least
            .process
            .min(ALLOCATIONS.load(Ordering::Relaxed) - before);
        least.thread = least.thread.min(thread);
    }
    least
}

/// The allocations of one hit over `sources` sources.
#[derive(Clone, Copy, Debug)]
struct Hit {
    sources: usize,
    process: u64,
    thread: u64,
}

#[allow(clippy::cast_precision_loss)]
impl Hit {
    fn per_source(self, count: u64) -> f64 {
        count as f64 / self.sources as f64
    }

    /// What each source added between `self` and a smaller `fewer`
    /// costs: the process, and the query's thread.
    fn per_added_source(self, fewer: Hit) -> (f64, f64) {
        let added = (self.sources - fewer.sources) as f64;
        (
            (self.process - fewer.process) as f64 / added,
            (self.thread - fewer.thread) as f64 / added,
        )
    }
}

#[test]
fn a_plan_cache_hit_allocates_a_bounded_flat_amount_per_source() {
    let (mut mediator_hits, mut served_hits) = (Vec::new(), Vec::new());
    for sources in [8usize, 64, 256] {
        let m = federation(sources);
        let hits_before = m.plan_cache_stats().0;
        let mediator = per_hit(sources, || {
            let answer = m.query(TEXT).unwrap();
            assert!(answer.is_complete());
            answer.data().len()
        });
        assert!(m.plan_cache_stats().0 >= hits_before + 16, "not hits");

        // A federation of its own, whose calibration store has seen no
        // call: the server plans the text as the mediator did.
        let server = DiscoServer::from_mediator(&federation(sources), ServerConfig::default());
        let session = server.session();
        let served = per_hit(sources, || {
            let answer = session.query(TEXT).unwrap();
            assert!(answer.is_complete());
            answer.data().len()
        });
        assert_eq!(server.stats().plan_cache.1, 1, "one miss, then hits");

        for (what, hit) in [("Mediator::query", mediator), ("Session::query", served)] {
            let (process, thread) = (hit.per_source(hit.process), hit.per_source(hit.thread));
            println!(
                "{sources} sources: {what} {process:.1} allocations per source per hit, \
                 {thread:.1} of them on the query's thread"
            );
            assert!(
                process <= 28.0,
                "{what} at {sources} sources: {process:.1} per source per hit"
            );
        }
        mediator_hits.push(mediator);
        served_hits.push(served);
    }
    // What each source added costs, between consecutive sizes: a class's
    // spine and the query's own constant state are paid once, whatever
    // the federation's size.  On the query's thread a source costs its
    // queue entry and its batch, not a spine of its own.
    for hits in [mediator_hits, served_hits] {
        let added: Vec<(f64, f64)> = hits
            .windows(2)
            .map(|pair| pair[1].per_added_source(pair[0]))
            .collect();
        println!("allocations per added source (process, query's thread): {added:.2?}");
        let least = added.iter().map(|a| a.0).fold(f64::INFINITY, f64::min);
        let most = added.iter().map(|a| a.0).fold(0.0, f64::max);
        assert!(
            most <= 1.05 * least,
            "allocations per added source grow with the federation: {added:?}"
        );
        let widest = hits.last().expect("three sizes");
        let thread = widest.per_source(widest.thread);
        assert!(
            added.iter().all(|a| a.1 <= 6.0) && thread <= 6.0,
            "the query's thread allocates {thread:.1} per source per hit at {} sources, \
             {added:?} per added source",
            widest.sources
        );
    }
}

//! What a left row of a nested-loop join costs, as a count: a non-equi
//! join whose left input is a hash join of two literal bags, with a
//! predicate that keeps one pair.
//!
//! A cursor has one pull, `next_batch`, so the nested loop takes the hash
//! join's output a batch at a time.  Heap allocations are counted, not
//! times: they repeat on every machine.  The counter is process-wide,
//! which is why this file holds exactly one test.  Whatever the plan
//! allocates per batch or per evaluation cancels (or all but cancels) in
//! the **slope**: the allocations of 4 000 probe rows beyond those of
//! 1 000, divided by the extra left rows of the nested loop.
//!
//! Each probe row matches all `BUILD` build rows, so the one allocation a
//! probe row costs on its way into the hash join (its `bind` struct) is
//! shared by `BUILD` left rows.  Pulled one row at a time, the nested loop
//! paid at least one more allocation per left row: a one-row batch vector
//! around every pull of the hash join.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use disco_algebra::{lower, LogicalExpr, PhysicalExpr, ScalarExpr, ScalarOp};
use disco_runtime::{
    evaluate_physical_with, reference, PipelineMetrics, PipelineOptions, ResolvedExecs,
};
use disco_value::{Bag, StructValue, Value};

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

/// Build rows of the hash join; every probe row matches all of them.
const BUILD: i64 = 8;

/// `rows` rows `{k: 0, v: i}` bound to `var`.
fn side(rows: i64, var: &str) -> LogicalExpr {
    let bag: Bag = (0..rows)
        .map(|i| {
            Value::Struct(
                StructValue::new(vec![("k", Value::Int(0)), ("v", Value::Int(i))]).unwrap(),
            )
        })
        .collect();
    LogicalExpr::Data(bag).bind(var)
}

fn field(var: &str, name: &str) -> ScalarExpr {
    ScalarExpr::var_field(var, name)
}

/// `join(hash_join(x, y), z)` on `x.v + y.v < z.v`: `rows × BUILD` left
/// rows, two inner rows, one pair kept.  The hash join's residual keeps
/// it a row join, as any join that does not fuse.
fn plan(rows: i64) -> PhysicalExpr {
    let hash_join = LogicalExpr::Join {
        left: Box::new(side(rows, "x")),
        right: Box::new(side(BUILD, "y")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::And,
            ScalarExpr::binary(ScalarOp::Eq, field("x", "k"), field("y", "k")),
            ScalarExpr::binary(ScalarOp::Ge, field("x", "v"), ScalarExpr::constant(0i64)),
        )),
    };
    let plan = LogicalExpr::Join {
        left: Box::new(hash_join),
        right: Box::new(side(2, "z")),
        predicate: Some(ScalarExpr::binary(
            ScalarOp::Lt,
            ScalarExpr::binary(ScalarOp::Add, field("x", "v"), field("y", "v")),
            field("z", "v"),
        )),
    };
    let physical = lower(&plan).unwrap();
    let PhysicalExpr::NestedLoopJoin { left, .. } = &physical else {
        panic!("a nested loop: {physical:?}");
    };
    assert!(
        matches!(
            **left,
            PhysicalExpr::HashJoin {
                residual: Some(_),
                ..
            }
        ),
        "over a hash join with a residual: {left:?}"
    );
    physical
}

/// The allocations of one evaluation, the answer dropped: the least of
/// five.
fn allocations(plan: &PhysicalExpr) -> u64 {
    let resolved = ResolvedExecs::default();
    let expected = reference::evaluate_physical(plan, &resolved).unwrap();
    let mut least = u64::MAX;
    for _ in 0..5 {
        let metrics = PipelineMetrics::new();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let answer =
            evaluate_physical_with(plan, &resolved, &metrics, PipelineOptions::default()).unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(answer, expected);
        assert_eq!(answer.len(), 1, "one pair kept");
        least = least.min(after - before);
    }
    least
}

#[test]
fn a_nested_loop_over_a_hash_join_pulls_batches() {
    let (few, many) = (1_000, 4_000);
    let (few_allocations, many_allocations) = (allocations(&plan(few)), allocations(&plan(many)));
    let extra_left_rows = (many - few) * BUILD;
    #[allow(clippy::cast_precision_loss)]
    let slope = (many_allocations as f64 - few_allocations as f64) / extra_left_rows as f64;
    println!(
        "{few_allocations} allocations for {} left rows, {many_allocations} for {}: \
         {slope:.3} per extra left row",
        few * BUILD,
        many * BUILD
    );
    assert!(
        slope < 0.5,
        "{slope:.3} allocations per extra left row of the nested loop (fewer than 0.5)"
    );
}

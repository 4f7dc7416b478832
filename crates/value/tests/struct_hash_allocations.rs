//! What hashing a struct costs the heap: nothing, up to 32 fields.
//!
//! A struct hashes its field values in field-name order, in one pass.
//! Putting the fields in that order is the one step that could allocate,
//! and up to 32 fields it is done on the stack — so a hash table keyed by
//! structs (a hash join on struct keys, a `distinct` over structs) pays
//! no allocation per probe.  This guards a hazard only the one-pass
//! design has: the field-sum hash it replaced needed no order at all.
//!
//! Heap allocations are counted, not times: they repeat on every machine.
//! The counter is process-wide, which is why this file holds exactly one
//! test: a second one would be counted into the first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};

use disco_value::{StructValue, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// A struct of `width` fields declared in a seeded order, holding ints,
/// floats, strings, nulls and, now and then, a nested struct.
fn random_struct(rng: &mut StdRng, width: usize, depth: u32) -> Value {
    let mut fields: Vec<(String, Value)> = (0..width)
        .map(|i| {
            let value = match rng.gen_range(0..5u32) {
                0 => Value::Int(rng.gen_range(-9..9i64)),
                1 => Value::Float(f64::from(rng.gen_range(0..9u32)) / 2.0),
                2 => Value::from("x".repeat(rng.gen_range(0..20usize))),
                3 if depth > 0 => {
                    let width = rng.gen_range(0..6usize);
                    random_struct(rng, width, depth - 1)
                }
                _ => Value::Null,
            };
            (format!("field{i:02}"), value)
        })
        .collect();
    for i in (1..fields.len()).rev() {
        fields.swap(i, rng.gen_range(0..(i + 1)));
    }
    Value::Struct(StructValue::new(fields).unwrap())
}

#[test]
fn hashing_structs_of_up_to_32_fields_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let structs: Vec<Value> = (0..1000)
        .map(|i| random_struct(&mut rng, 1 + i % 32, 1))
        .collect();
    let wide = random_struct(&mut rng, 40, 0);
    let state = RandomState::new();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut acc = 0u64;
    for value in &structs {
        acc ^= state.hash_one(value);
    }
    let narrow = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // The counter is live: a struct past the bound orders its fields in
    // a vector.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    acc ^= state.hash_one(&wide);
    let past_the_bound = ALLOCATIONS.load(Ordering::Relaxed) - before;

    println!("allocations: {narrow} hashing 1000 structs of 1–32 fields, {past_the_bound} one of 40 ({acc:x})");
    assert_eq!(narrow, 0, "hashing a struct of up to 32 fields allocates");
    assert!(past_the_bound > 0, "the allocation counter counts nothing");
}

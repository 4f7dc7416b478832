//! Property-style tests for the canonical `Hash`/`Eq`/`total_cmp` triangle
//! on [`Value`].
//!
//! The invariants the hash join, hash distinct and hash-based multiset
//! equality all rely on:
//!
//! * `a == b` (i.e. `total_cmp == Equal`) implies `hash(a) == hash(b)` —
//!   including `Int`/`Float` cross-variant equality, `-0.0`/`0.0`/`NaN`
//!   edge cases, permuted struct fields and permuted bags,
//! * `total_cmp` is a total order: reflexive, antisymmetric, transitive.
//!
//! Values are generated with a seeded deterministic RNG (the offline
//! `rand` shim); every failure reproduces from its printed seed.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash, Hasher};

use disco_value::{Bag, StructValue, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Random value generator, depth-bounded.
fn random_value(rng: &mut StdRng, depth: u32) -> Value {
    let variants = if depth == 0 { 6 } else { 9 };
    match rng.gen_range(0..variants as u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => match rng.gen_range(0..4u32) {
            0 => Value::Int(rng.gen_range(-100..100i64)),
            1 => Value::Int(9_007_199_254_740_990 + rng.gen_range(0..6i64)),
            2 => Value::Int(i64::MIN + rng.gen_range(0..3i64)),
            _ => Value::Int(i64::MAX - rng.gen_range(0..3i64)),
        },
        3 => {
            // Floats including the nasty ones.
            match rng.gen_range(0..6u32) {
                0 => Value::Float(0.0),
                1 => Value::Float(-0.0),
                2 => Value::Float(f64::NAN),
                3 => Value::Float(f64::INFINITY),
                4 => Value::Float(f64::NEG_INFINITY),
                _ => Value::Float(rng.gen_range(-100.0..100.0)),
            }
        }
        4 => {
            let len = rng.gen_range(0..6usize);
            let s: String = (0..len)
                .map(|_| char::from(b'a' + u8::try_from(rng.gen_range(0..4u32)).unwrap()))
                .collect();
            Value::from(s)
        }
        // Small ints again so collections collide often.
        5 => Value::Int(rng.gen_range(0..4i64)),
        6 => {
            let n = rng.gen_range(0..4usize);
            let mut fields: Vec<(String, Value)> = Vec::new();
            while fields.len() < n {
                let name = format!("f{}", rng.gen_range(0..6u32));
                if fields.iter().all(|(existing, _)| *existing != name) {
                    fields.push((name, random_value(rng, depth - 1)));
                }
            }
            Value::Struct(StructValue::new(fields).unwrap())
        }
        7 => {
            let n = rng.gen_range(0..4usize);
            Value::list((0..n).map(|_| random_value(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..5usize);
            Value::Bag((0..n).map(|_| random_value(rng, depth - 1)).collect())
        }
    }
}

/// Deterministic Fisher–Yates shuffle driven by the test RNG.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..(i + 1));
        items.swap(i, j);
    }
}

#[test]
fn equal_values_hash_equal() {
    let mut checked_equal = 0usize;
    for seed in 0..500u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_value(&mut rng, 3);
        let b = random_value(&mut rng, 3);
        if a == b {
            checked_equal += 1;
            assert_eq!(hash_of(&a), hash_of(&b), "seed {seed}: {a:?} == {b:?}");
        }
        // Reflexivity: every value equals (and hashes like) its clone.
        assert_eq!(a, a.clone(), "seed {seed}");
        assert_eq!(hash_of(&a), hash_of(&a.clone()), "seed {seed}");
    }
    assert!(checked_equal > 0, "generator never produced an equal pair");
}

#[test]
fn permuted_struct_fields_hash_equal() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xB0 + seed);
        let n = rng.gen_range(1..5usize);
        let mut fields: Vec<(String, Value)> = Vec::new();
        while fields.len() < n {
            let name = format!("f{}", rng.gen_range(0..8u32));
            if fields.iter().all(|(existing, _)| *existing != name) {
                fields.push((name, random_value(&mut rng, 2)));
            }
        }
        let original = Value::Struct(StructValue::new(fields.clone()).unwrap());
        shuffle(&mut rng, &mut fields);
        let permuted = Value::Struct(StructValue::new(fields).unwrap());
        assert_eq!(original, permuted, "seed {seed}");
        assert_eq!(hash_of(&original), hash_of(&permuted), "seed {seed}");
    }
}

#[test]
fn permuted_bags_hash_equal() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0xBA6 + seed);
        let n = rng.gen_range(0..8usize);
        let mut items: Vec<Value> = (0..n).map(|_| random_value(&mut rng, 2)).collect();
        let original = Value::Bag(items.iter().cloned().collect());
        shuffle(&mut rng, &mut items);
        let permuted = Value::Bag(items.into_iter().collect());
        assert_eq!(original, permuted, "seed {seed}");
        assert_eq!(hash_of(&original), hash_of(&permuted), "seed {seed}");
    }
}

#[test]
fn int_float_cross_variant_consistency() {
    for i in -50..50i64 {
        #[allow(clippy::cast_precision_loss)]
        let f = Value::Float(i as f64);
        let n = Value::Int(i);
        assert_eq!(n, f);
        assert_eq!(hash_of(&n), hash_of(&f));
    }
    // Negative zero: distinct from positive zero under the IEEE total
    // order, equal to nothing but itself.
    let neg = Value::Float(-0.0);
    let pos = Value::Float(0.0);
    assert_ne!(neg, pos);
    assert_eq!(Value::Int(0), pos);
    assert_eq!(hash_of(&Value::Int(0)), hash_of(&pos));
    assert_eq!(neg, neg.clone());
    assert_eq!(hash_of(&neg), hash_of(&neg.clone()));
    // NaN equals itself under total_cmp (same bit pattern).
    let nan = Value::Float(f64::NAN);
    assert_eq!(nan, nan.clone());
    assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
}

#[test]
fn total_cmp_is_antisymmetric_and_transitive() {
    for seed in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(0x707A1_u64.wrapping_add(seed));
        let samples: Vec<Value> = (0..12).map(|_| random_value(&mut rng, 2)).collect();
        for a in &samples {
            for b in &samples {
                assert_eq!(
                    a.total_cmp(b),
                    b.total_cmp(a).reverse(),
                    "antisymmetry: {a:?} vs {b:?}"
                );
                for c in &samples {
                    use std::cmp::Ordering::{Equal, Greater, Less};
                    let (ab, bc, ac) = (a.total_cmp(b), b.total_cmp(c), a.total_cmp(c));
                    match (ab, bc) {
                        (Less | Equal, Less) | (Less, Equal) => {
                            assert_eq!(ac, Less, "transitivity: {a:?} {b:?} {c:?}");
                        }
                        (Greater | Equal, Greater) | (Greater, Equal) => {
                            assert_eq!(ac, Greater, "transitivity: {a:?} {b:?} {c:?}");
                        }
                        (Equal, Equal) => {
                            assert_eq!(ac, Equal, "transitivity: {a:?} {b:?} {c:?}");
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

#[test]
fn nested_bag_equality_handles_duplicates() {
    // Multiset semantics on nested bags: Bag(Bag(1,2), Bag(1,2)) equals a
    // permutation of itself but not Bag(Bag(1,2), Bag(2,2)).
    let b12a: Bag = [Value::Int(1), Value::Int(2)].into_iter().collect();
    let b12b: Bag = [Value::Int(2), Value::Int(1)].into_iter().collect();
    let b22: Bag = [Value::Int(2), Value::Int(2)].into_iter().collect();
    let x = Value::Bag(
        [Value::Bag(b12a.clone()), Value::Bag(b12a.clone())]
            .into_iter()
            .collect(),
    );
    let y = Value::Bag(
        [Value::Bag(b12b.clone()), Value::Bag(b12a.clone())]
            .into_iter()
            .collect(),
    );
    let z = Value::Bag([Value::Bag(b12a), Value::Bag(b22)].into_iter().collect());
    assert_eq!(x, y);
    assert_eq!(hash_of(&x), hash_of(&y));
    assert_ne!(x, z);
}

/// A struct of `width` fields with seeded values, its fields declared in
/// a seeded order.  Half the names share their first 8 bytes (or more),
/// so names are told apart both within and past their first word.
fn wide_struct(rng: &mut StdRng, width: usize) -> (Vec<(String, Value)>, Value) {
    let mut fields: Vec<(String, Value)> = (0..width)
        .map(|i| {
            let name = if i % 2 == 0 {
                format!("w{i}")
            } else {
                format!("shared_prefix_{i}")
            };
            (name, random_value(rng, 1))
        })
        .collect();
    shuffle(rng, &mut fields);
    let value = Value::Struct(StructValue::new(fields.clone()).unwrap());
    (fields, value)
}

#[test]
fn wide_structs_hash_alike_in_any_field_order() {
    // Up to 32 fields are put in name order on the stack, wider structs
    // in a vector: both sides of that bound, and across it.
    let state = RandomState::new();
    for seed in 0..120u64 {
        let mut rng = StdRng::seed_from_u64(0x3D_0000 + seed);
        let width = rng.gen_range(28..40usize);
        let (mut fields, original) = wide_struct(&mut rng, width);
        shuffle(&mut rng, &mut fields);
        let permuted = Value::Struct(StructValue::new(fields.clone()).unwrap());
        assert_eq!(original, permuted, "seed {seed}");
        assert_eq!(hash_of(&original), hash_of(&permuted), "seed {seed}");
        assert_eq!(
            state.hash_one(&original),
            state.hash_one(&permuted),
            "seed {seed}"
        );
        // One field's value changed: unequal, and (SipHash) hashed apart.
        let k = rng.gen_range(0..width);
        fields[k].1 = Value::from(format!("changed-{seed}"));
        let changed = Value::Struct(StructValue::new(fields).unwrap());
        assert_ne!(original, changed, "seed {seed}");
        assert_ne!(
            state.hash_one(&original),
            state.hash_one(&changed),
            "seed {seed}"
        );
    }
}

#[test]
fn structs_nested_in_lists_hash_alike_in_any_field_order() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x1157_0000 + seed);
        let n = rng.gen_range(0..5usize);
        let mut original = Vec::with_capacity(n);
        let mut permuted = Vec::with_capacity(n);
        for _ in 0..n {
            let width = rng.gen_range(0..6usize);
            let (mut fields, _) = wide_struct(&mut rng, width);
            // A struct inside the struct, its fields permuted too.
            let (mut inner, inner_value) = wide_struct(&mut rng, 3);
            fields.push(("nested".into(), inner_value));
            let value = Value::Struct(StructValue::new(fields.clone()).unwrap());
            shuffle(&mut rng, &mut inner);
            let last = fields.len() - 1;
            fields[last].1 = Value::Struct(StructValue::new(inner).unwrap());
            shuffle(&mut rng, &mut fields);
            original.push(value);
            permuted.push(Value::Struct(StructValue::new(fields).unwrap()));
        }
        let (original, permuted) = (Value::list(original), Value::list(permuted));
        assert_eq!(original, permuted, "seed {seed}");
        assert_eq!(hash_of(&original), hash_of(&permuted), "seed {seed}");
    }
}

#[test]
fn strings_across_word_boundaries_hash_by_content_and_length() {
    // 0–17 bytes: empty, a partial word, one word, a word and a partial
    // one, two words, and past.  A string's last word is zero-padded, so
    // a string and the same string with trailing NULs must hash apart.
    let state = RandomState::new();
    let alphabet = "abcdefghijklmnopq";
    let mut strings: Vec<String> = Vec::new();
    for len in 0..=17 {
        strings.push(alphabet[..len].to_owned());
        strings.push(format!("{}\0", &alphabet[..len]));
        strings.push("\0".repeat(len));
    }
    strings.sort();
    strings.dedup();
    let mut seen = HashSet::new();
    for s in &strings {
        let value = Value::from(s.as_str());
        let copy = Value::from(s.clone());
        assert_eq!(hash_of(&value), hash_of(&copy), "{s:?}");
        assert!(seen.insert(state.hash_one(&value)), "{s:?} collides");
    }
    // Two string fields: where one ends and the next begins is part of
    // the hash.
    for (i, a) in strings.iter().enumerate() {
        let b = &strings[(i * 7 + 3) % strings.len()];
        let split = |x: &str, y: &str| {
            Value::new_struct(vec![("x", Value::from(x)), ("y", Value::from(y))]).unwrap()
        };
        let joined = format!("{a}{b}");
        if !a.is_empty() {
            let moved = split(&a[1..], &format!("{}{b}", &a[..1]));
            assert_ne!(
                state.hash_one(split(a, b)),
                state.hash_one(&moved),
                "{a:?} {b:?}"
            );
        }
        if !b.is_empty() {
            assert_ne!(
                state.hash_one(split(a, b)),
                state.hash_one(split(&joined, "")),
                "{a:?} {b:?}"
            );
        }
    }
}

//! A struct result vector ([`EvalVec::Struct`]) is hashed and compared on
//! its columns by a `distinct`, and the struct is assembled only for a row
//! it keeps — so the column forms must agree with the assembled value
//! exactly, or the seen-set would hold duplicates (a hash that differs)
//! or drop new values (an equality that differs).  This guards a hazard
//! only the column form has: for every row of seeded random struct
//! vectors,
//!
//! * `struct_hashes` equals `RandomState::hash_one(&value_at(i))`, and
//! * `struct_eq_at(i, v)` equals `value_at(i) == v` — against structs of
//!   the same vector (same field order), the same fields in another
//!   order, numerically equal `Int`/`Float` swaps, and non-structs.
//!
//! Field vectors cover every shape a kernel produces: `Int` with and
//! without nulls, `Bool`, `Const`, `Str` dictionary-coded and not,
//! `Float`s integral and not (a float column gathers into `Values`),
//! `Values` holding nested structs, and a nested struct vector.

use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

use disco_algebra::EvalVec;
use disco_value::{StructValue, Value, NULL_CODE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WORDS: [&str; 3] = ["ann", "bo", ""];

/// An optional null mask over `n` rows (`Some` only when a null occurs).
fn nulls(rng: &mut StdRng, n: usize) -> Option<Vec<bool>> {
    if !rng.gen_bool(0.5) {
        return None;
    }
    let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
    mask.contains(&true).then_some(mask)
}

fn small_int(rng: &mut StdRng) -> i64 {
    rng.gen_range(0..3i64)
}

/// A float that is integral (and so equals, and hashes like, an `Int`)
/// half of the time.
fn float(rng: &mut StdRng) -> Value {
    #[allow(clippy::cast_precision_loss)]
    let whole = small_int(rng) as f64;
    Value::Float(if rng.gen_bool(0.5) {
        whole
    } else {
        whole + 0.5
    })
}

fn scalar(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..4u32) {
        0 => Value::Null,
        1 => Value::Int(small_int(rng)),
        2 => float(rng),
        _ => Value::from(WORDS[rng.gen_range(0..WORDS.len())]),
    }
}

fn nested_struct(rng: &mut StdRng) -> Value {
    Value::new_struct(vec![("a", Value::Int(small_int(rng))), ("b", scalar(rng))]).unwrap()
}

/// One field's result vector over `n` rows.
fn field(rng: &mut StdRng, n: usize, depth: u32) -> EvalVec {
    let kinds = if depth == 0 { 7 } else { 8 };
    match rng.gen_range(0..kinds) {
        0 => EvalVec::Int {
            data: (0..n).map(|_| small_int(rng)).collect(),
            nulls: None,
        },
        1 => {
            let nulls = nulls(rng, n);
            let data = (0..n)
                .map(|i| match &nulls {
                    Some(mask) if mask[i] => 0,
                    _ => small_int(rng),
                })
                .collect();
            EvalVec::Int { data, nulls }
        }
        2 => {
            let nulls = nulls(rng, n);
            let data = (0..n)
                .map(|i| !nulls.as_ref().is_some_and(|mask| mask[i]) && rng.gen_bool(0.5))
                .collect();
            EvalVec::Bool { data, nulls }
        }
        3 => EvalVec::Const(scalar(rng)),
        4 => {
            let nulls = nulls(rng, n);
            let coded = rng.gen_bool(0.5);
            let mut values = Vec::with_capacity(n);
            let mut codes = Vec::with_capacity(n);
            for i in 0..n {
                if nulls.as_ref().is_some_and(|mask| mask[i]) {
                    values.push(Arc::from(""));
                    codes.push(NULL_CODE);
                } else {
                    let word = rng.gen_range(0..WORDS.len());
                    values.push(Arc::from(WORDS[word]));
                    codes.push(u32::try_from(word).unwrap());
                }
            }
            EvalVec::Str {
                values,
                codes: coded.then_some(codes),
                nulls,
            }
        }
        5 => EvalVec::Values((0..n).map(|_| float(rng)).collect()),
        6 => EvalVec::Values(
            (0..n)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => nested_struct(rng),
                    1 => Value::Int(small_int(rng)),
                    _ => Value::Null,
                })
                .collect(),
        ),
        _ => struct_vec(rng, n, depth - 1),
    }
}

/// A struct vector of one to four fields with distinct names.
fn struct_vec(rng: &mut StdRng, n: usize, depth: u32) -> EvalVec {
    let width = rng.gen_range(1..5usize);
    let mut fields: Vec<(Arc<str>, EvalVec)> = Vec::new();
    while fields.len() < width {
        let name = format!("f{}", rng.gen_range(0..6u32));
        if fields.iter().all(|(existing, _)| **existing != *name) {
            fields.push((Arc::from(name), field(rng, n, depth)));
        }
    }
    EvalVec::Struct(fields)
}

fn fields_of(value: &Value) -> Vec<(Arc<str>, Value)> {
    value.as_struct().unwrap().clone().into_fields()
}

/// The same struct with its fields in reverse declaration order.
fn reordered(value: &Value) -> Value {
    let mut fields = fields_of(value);
    fields.reverse();
    Value::Struct(StructValue::new(fields).unwrap())
}

/// The same struct with every integral field value re-boxed as the other
/// numeric variant: equal under `total_cmp`, so it must compare equal.
fn numerically_swapped(value: &Value) -> Value {
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    let swapped = fields_of(value).into_iter().map(|(name, v)| {
        let v = match v {
            Value::Int(i) => Value::Float(i as f64),
            Value::Float(f) if f.fract() == 0.0 => Value::Int(f as i64),
            other => other,
        };
        (name, v)
    });
    Value::Struct(StructValue::new(swapped).unwrap())
}

#[test]
fn struct_columns_hash_and_compare_like_the_assembled_structs() {
    let state = RandomState::new();
    let (mut compared, mut equal) = (0usize, 0usize);
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x57C0_1000 + seed);
        let n = rng.gen_range(1..24usize);
        let vec = struct_vec(&mut rng, n, 1);
        let rows: Vec<Value> = (0..n).map(|i| vec.value_at(i)).collect();

        let mut hashes = vec![7u64];
        assert!(vec.struct_hashes(&state, n, &mut hashes), "seed {seed}");
        assert_eq!(hashes[0], 7, "seed {seed}: appends, keeps what was there");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                hashes[1 + i],
                state.hash_one(row),
                "seed {seed}: hash of row {i}: {row}"
            );
        }

        for (i, row) in rows.iter().enumerate() {
            let j = rng.gen_range(0..n);
            let others = [
                rows[j].clone(),
                reordered(row),
                reordered(&rows[j]),
                numerically_swapped(row),
                numerically_swapped(&rows[j]),
                Value::Int(1),
                Value::Struct(StructValue::default()),
            ];
            for other in &others {
                let expected = row == other;
                assert_eq!(
                    vec.struct_eq_at(i, other),
                    expected,
                    "seed {seed}: row {i} {row} against {other}"
                );
                compared += 1;
                equal += usize::from(expected);
            }
        }
    }
    assert!(
        equal > compared / 4 && equal < compared * 3 / 4,
        "{equal} of {compared} comparisons equal: the generator must produce both outcomes often"
    );
}

#[test]
fn only_a_struct_vector_hashes_on_its_columns() {
    let mut hashes = Vec::new();
    let ints = EvalVec::Int {
        data: vec![1, 2],
        nulls: None,
    };
    assert!(!ints.struct_hashes(&RandomState::new(), 2, &mut hashes));
    assert!(hashes.is_empty());
}

/// Every declaration order of four fields — a coded string with nulls, a
/// constant string, a null-masked `Int` and a null-masked `Bool` — hashes
/// each row like the assembled struct, and like the struct declared in
/// name order, and compares equal to that struct: the column form puts
/// its fields in name order exactly as the row form does.
#[test]
fn struct_columns_in_any_declaration_order_hash_like_the_name_ordered_struct() {
    let n = 6;
    let null_every = |k: usize| Some((0..n).map(|i| i % k == 0).collect::<Vec<bool>>());
    let column = |name: &str| -> EvalVec {
        match name {
            "a" => EvalVec::Str {
                values: (0..n)
                    .map(|i| Arc::from(if i % 3 == 0 { "" } else { WORDS[i % 2] }))
                    .collect(),
                codes: Some(
                    (0..n)
                        .map(|i| {
                            if i % 3 == 0 {
                                NULL_CODE
                            } else {
                                (i % 2) as u32
                            }
                        })
                        .collect(),
                ),
                nulls: null_every(3),
            },
            "b" => EvalVec::Const(Value::from("constant")),
            "c" => EvalVec::Int {
                data: (0..n)
                    .map(|i| if i % 2 == 0 { 0 } else { i as i64 })
                    .collect(),
                nulls: null_every(2),
            },
            _ => EvalVec::Bool {
                data: (0..n).map(|i| i % 4 == 1).collect(),
                nulls: null_every(4),
            },
        }
    };
    let state = RandomState::new();
    let names = ["a", "b", "c", "d"];
    let name_ordered = EvalVec::Struct(names.iter().map(|&k| (Arc::from(k), column(k))).collect());
    let orders = permutations(&names);
    for order in &orders {
        let vec = EvalVec::Struct(order.iter().map(|&k| (Arc::from(k), column(k))).collect());
        let mut hashes = Vec::new();
        assert!(vec.struct_hashes(&state, n, &mut hashes));
        for (i, hash) in hashes.iter().enumerate() {
            let sorted = name_ordered.value_at(i);
            assert_eq!(*hash, state.hash_one(vec.value_at(i)), "{order:?} row {i}");
            assert_eq!(*hash, state.hash_one(&sorted), "{order:?} row {i}");
            assert!(vec.struct_eq_at(i, &sorted), "{order:?} row {i}: {sorted}");
            let other = name_ordered.value_at((i + 1) % n);
            assert!(!vec.struct_eq_at(i, &other), "{order:?} row {i}: {other}");
        }
    }
    assert_eq!(orders.len(), 24, "every declaration order");
}

fn permutations(items: &[&'static str]) -> Vec<Vec<&'static str>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    (0..items.len())
        .flat_map(|i| {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            permutations(&rest).into_iter().map(move |mut order| {
                order.insert(0, first);
                order
            })
        })
        .collect()
}

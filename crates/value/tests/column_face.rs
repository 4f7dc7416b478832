//! A column-faced [`Bag`] is the row-built bag of the same elements.
//!
//! **Guards a hazard only this design has**: a bag now has two faces, and
//! every public operation that reads elements builds the rows of a
//! column-faced bag lazily.  For seeded random column bags — typed,
//! nullable, NaN-carrying and mixed-type columns; selections that repeat
//! and reorder rows; projected, renamed, windowed and whole — each
//! operation must equal the same operation on the twin built eagerly from
//! row values, and the column face must be gone after a mutation.
//! Failures reproduce from the printed seed.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use disco_value::{Bag, BagColumns, StructValue, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn hash_of(bag: &Bag) -> u64 {
    let mut h = DefaultHasher::new();
    Value::Bag(bag.clone()).hash(&mut h);
    h.finish()
}

/// One cell of column `kind`: ints with nulls, floats with NaN and
/// signed zeros, few distinct strings, bools, a mixed-type column, an
/// all-null one.
fn cell(rng: &mut StdRng, kind: u32) -> Value {
    match kind {
        0 if rng.gen_bool(0.2) => Value::Null,
        0 => Value::Int(rng.gen_range(0..6i64)),
        1 => match rng.gen_range(0..5u32) {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(-0.0),
            2 => Value::Float(0.0),
            _ => Value::Float(rng.gen_range(-2.0..2.0)),
        },
        2 if rng.gen_bool(0.1) => Value::Null,
        2 => Value::from(format!("s{}", rng.gen_range(0..4u32))),
        3 => Value::Bool(rng.gen_bool(0.5)),
        4 => match rng.gen_range(0..3u32) {
            0 => Value::Int(rng.gen_range(0..3i64)),
            1 => Value::from("one"),
            _ => Value::Float(1.0),
        },
        _ => Value::Null,
    }
}

/// A random column-faced bag and its eagerly built twin.
fn twins(rng: &mut StdRng) -> (Bag, Bag) {
    let width = rng.gen_range(0..5usize);
    let kinds: Vec<u32> = (0..width).map(|_| rng.gen_range(0..6u32)).collect();
    let names: Vec<Arc<str>> = (0..width).map(|c| Arc::from(format!("c{c}"))).collect();
    let height = rng.gen_range(0..24usize);
    let stored: Arc<Vec<StructValue>> = Arc::new(
        (0..height)
            .map(|_| {
                StructValue::from_distinct_fields(
                    names
                        .iter()
                        .zip(&kinds)
                        .map(|(name, kind)| (Arc::clone(name), cell(rng, *kind)))
                        .collect(),
                )
            })
            .collect(),
    );
    let mut face = BagColumns::image_of(&names, Arc::clone(&stored)).expect("uniform rows");
    let mut rows: Vec<StructValue> = (*stored).clone();

    if height > 0 && rng.gen_bool(0.7) {
        // Rows repeat and come in any order.
        let picked: Vec<u32> = (0..rng.gen_range(0..30usize))
            .map(|_| rng.gen_range(0..height as u32))
            .collect();
        rows = picked.iter().map(|&i| stored[i as usize].clone()).collect();
        face = face.select(picked);
    }
    if width > 0 && rng.gen_bool(0.5) {
        let mut slots: Vec<usize> = (0..width).collect();
        for i in (1..width).rev() {
            slots.swap(i, rng.gen_range(0..=i));
        }
        slots.truncate(rng.gen_range(1..=width));
        let kept: Vec<&str> = slots.iter().map(|&s| names[s].as_ref()).collect();
        rows = rows
            .iter()
            .map(|row| row.project(kept.iter().copied()).unwrap())
            .collect();
        face = face.project(&slots).unwrap();
    }
    if rng.gen_bool(0.3) {
        let renamed: Vec<Arc<str>> = face
            .names()
            .iter()
            .map(|name| Arc::from(format!("m_{name}")))
            .collect();
        rows = rows
            .iter()
            .map(|row| row.with_field_names(&renamed))
            .collect();
        face = face.renamed(renamed).unwrap();
    }
    if rng.gen_bool(0.5) {
        let start = rng.gen_range(0..=rows.len());
        let end = rng.gen_range(start..=rows.len());
        rows = rows[start..end].to_vec();
        face = face.slice(start..end);
    }
    let twin: Bag = rows.into_iter().map(Value::Struct).collect();
    (Bag::from_columns(face), twin)
}

/// Elements as text, in order: `==` on structs ignores field order, the
/// printed form does not.
fn printed(values: &[Value]) -> Vec<String> {
    values.iter().map(ToString::to_string).collect()
}

#[test]
fn every_bag_operation_agrees_with_the_row_built_twin() {
    let mut faced_with_rows = 0;
    for seed in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(0xFACE_0000 + seed);
        let (faced, twin) = twins(&mut rng);
        let other = twins(&mut rng).1;

        // Length is known without a row.
        assert!(faced.columns().is_some(), "seed {seed}");
        assert_eq!(faced.len(), twin.len(), "seed {seed}");
        assert_eq!(faced.is_empty(), twin.is_empty(), "seed {seed}");
        assert_eq!(faced.columns().unwrap().len(), twin.len(), "seed {seed}");

        // Reading: same elements, same order, same field order.
        assert_eq!(
            printed(faced.as_slice()),
            printed(twin.as_slice()),
            "seed {seed}"
        );
        assert_eq!(faced, twin, "seed {seed}");
        assert_eq!(twin, faced, "seed {seed}");
        assert_eq!(faced == other, twin == other, "seed {seed}");
        assert_eq!(hash_of(&faced), hash_of(&twin), "seed {seed}");
        assert_eq!(
            Value::Bag(faced.clone()).total_cmp(&Value::Bag(other.clone())),
            Value::Bag(twin.clone()).total_cmp(&Value::Bag(other.clone())),
            "seed {seed}"
        );
        assert_eq!(faced.to_string(), twin.to_string(), "seed {seed}");
        assert_eq!(format!("{faced:?}"), format!("{twin:?}"), "seed {seed}");
        assert_eq!(
            printed(&faced.sorted()),
            printed(&twin.sorted()),
            "seed {seed}"
        );
        assert_eq!(
            printed(faced.distinct().as_slice()),
            printed(twin.distinct().as_slice()),
            "seed {seed}"
        );
        assert_eq!(
            printed(faced.union(&other).as_slice()),
            printed(twin.union(&other).as_slice()),
            "seed {seed}"
        );
        assert_eq!(
            printed(other.union(&faced).as_slice()),
            printed(other.union(&twin).as_slice()),
            "seed {seed}"
        );
        assert_eq!(faced.counts(), twin.counts(), "seed {seed}");
        assert_eq!(faced.flatten(), twin.flatten(), "seed {seed}");
        if let Some(first) = twin.iter().next() {
            assert_eq!(faced.count(first), twin.count(first), "seed {seed}");
            assert!(faced.contains(first), "seed {seed}");
        }
        assert_eq!(
            printed(&faced.cursor().collect::<Vec<_>>()),
            printed(twin.as_slice()),
            "seed {seed}"
        );
        assert_eq!(
            printed(&Bag::concat(&[&faced, &other]).into_values()),
            printed(&Bag::concat(&[&twin, &other]).into_values()),
            "seed {seed}"
        );
        // Reading did not cost the face.
        assert!(faced.columns().is_some(), "seed {seed}");
        faced_with_rows += usize::from(!faced.is_empty());

        // A clone shares; an insert detaches the writer only, and the
        // writer is a row bag from then on.
        let shared = faced.clone();
        assert!(shared.ptr_eq(&faced), "seed {seed}");
        assert!(!faced.ptr_eq(&twin), "seed {seed}");
        let mut written = faced.clone();
        written.insert(Value::Int(7));
        assert!(written.columns().is_none(), "seed {seed}");
        assert_eq!(written.len(), twin.len() + 1, "seed {seed}");
        assert_eq!(faced, twin, "seed {seed}: the shared bag is untouched");
        assert!(faced.columns().is_some(), "seed {seed}");
        let mut extended = faced.clone();
        extended.extend(other.iter().cloned());
        assert!(extended.columns().is_none(), "seed {seed}");
        assert_eq!(extended, twin.union(&other), "seed {seed}");

        // Consuming.
        assert_eq!(
            printed(&shared.into_values()),
            printed(twin.as_slice()),
            "seed {seed}"
        );
        assert_eq!(
            printed(&faced.into_iter().collect::<Vec<_>>()),
            printed(twin.as_slice()),
            "seed {seed}"
        );
    }
    assert!(
        faced_with_rows > 200,
        "{faced_with_rows} non-empty column bags"
    );
}

#[test]
fn a_never_read_column_bag_consumes_without_a_shared_copy() {
    // `into_values` of the only holder hands out the rows it built, and
    // an unprojected image hands out the stored rows themselves.
    let names: Vec<Arc<str>> = vec!["a".into()];
    let stored = Arc::new(vec![
        StructValue::from_distinct_fields(vec![(Arc::clone(&names[0]), Value::Int(1))]),
        StructValue::from_distinct_fields(vec![(Arc::clone(&names[0]), Value::Int(2))]),
    ]);
    let bag = Bag::from_columns(BagColumns::image_of(&names, Arc::clone(&stored)).unwrap());
    let values = bag.into_values();
    assert!(values[1].as_struct().unwrap().ptr_eq(&stored[1]));
}

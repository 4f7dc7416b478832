//! Total ordering, equality and hashing for [`Value`].
//!
//! DISCO answers are bags; to make test assertions and benchmark output
//! deterministic we give values a *total* order: variants are ranked, floats
//! use [`f64::total_cmp`], structs compare as field sets, and bags compare
//! as sorted multisets.  Equality is consistent with this order, and `Hash`
//! is canonical with respect to equality:
//!
//! * numerically equal `Int`/`Float` values hash identically (an `Int`,
//!   and a `Float` that represents an integer, write the same `i64` word),
//! * struct hashes are independent of field declaration order (the field
//!   values are written in field-name order),
//! * bag hashes are independent of element order (the elements are
//!   written in `total_cmp` order, sorted by reference: no element
//!   clones).
//!
//! A value hashes as one stream of whole words into the caller's hasher —
//! a table's keyed `RandomState`, end to end, structs and bags included.  The word
//! writers ([`hash_int`], [`hash_str`], [`hash_struct_with`], …) are
//! public so that a producer holding values as typed columns (the kernels'
//! result vectors, [`crate::KeyHasher`]) writes the same stream without
//! building a `Value`: bit-identical by construction.
//!
//! Bag *comparison* sorts references once per side ([`Bag::sorted_refs`]);
//! the previous implementation deep-cloned and re-sorted both bags on
//! every comparison, which made nested-bag comparison quadratic in
//! practice.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use crate::{StructValue, Value};

fn variant_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Str(_) => 4,
        Value::Struct(_) => 5,
        Value::List(_) => 6,
        Value::Bag(_) => 7,
    }
}

/// 2^63 as `f64` (exactly representable); the first float ≥ every `i64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Exact comparison of an `i64` against an `f64` — no precision loss for
/// integers beyond 2^53.  Numerically equal pairs tie-break through the
/// IEEE total order of `(a as f64, f)`, which keeps the overall order
/// transitive: `Int(0) > Float(-0.0)` just like `Float(0.0) > Float(-0.0)`,
/// and `Int(a) == Float(f)` exactly when `f` represents `a`.
#[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
fn cmp_int_float(a: i64, f: f64) -> Ordering {
    if f.is_nan() {
        // NaNs take their IEEE total-order position (above/below all
        // finite numbers depending on sign bit).
        return (a as f64).total_cmp(&f);
    }
    if f >= TWO_POW_63 {
        return Ordering::Less;
    }
    if f < -TWO_POW_63 {
        return Ordering::Greater;
    }
    // f is finite and within [-2^63, 2^63): its truncation converts to
    // i64 exactly.
    let t = f.trunc();
    let ti = t as i64;
    match a.cmp(&ti) {
        Ordering::Equal => {
            let fraction = f - t;
            if fraction == 0.0 {
                // Real values are equal; settle -0.0 et al. by total order.
                (a as f64).total_cmp(&f)
            } else if fraction > 0.0 {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        other => other,
    }
}

fn cmp_numeric(a: &Value, b: &Value) -> Option<Ordering> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Int(x), Value::Float(y)) => Some(cmp_int_float(*x, *y)),
        (Value::Float(x), Value::Int(y)) => Some(cmp_int_float(*y, *x).reverse()),
        (Value::Float(x), Value::Float(y)) => Some(x.total_cmp(y)),
        _ => None,
    }
}

impl Value {
    /// Compares two values with the total order used for deterministic
    /// output.  Numeric values of different variants (`Int` vs `Float`)
    /// compare numerically, matching OQL comparison semantics.
    #[must_use]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        if let Some(ord) = cmp_numeric(self, other) {
            // Numeric cross-variant comparison: 2 == 2.0, as in OQL.
            return ord;
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Struct(a), Value::Struct(b)) => cmp_struct(a, b),
            (Value::List(a), Value::List(b)) => cmp_seq(a, b),
            (Value::Bag(a), Value::Bag(b)) => {
                if a.ptr_eq(b) {
                    return Ordering::Equal;
                }
                // Sort references once per side — elements are never cloned.
                cmp_ref_seq(&a.sorted_refs(), &b.sorted_refs())
            }
            _ => variant_rank(self).cmp(&variant_rank(other)),
        }
    }
}

fn cmp_seq(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = x.total_cmp(y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn cmp_ref_seq(a: &[&Value], b: &[&Value]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = x.total_cmp(y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn cmp_struct(a: &StructValue, b: &StructValue) -> Ordering {
    if a.ptr_eq(b) {
        return Ordering::Equal;
    }
    // Fast path: rows flowing through an operator pipeline almost always
    // share one schema, so field names line up positionally.  Positional
    // comparison is only *order-consistent* with the name-sorted general
    // path when the shared declaration order is itself name-sorted —
    // otherwise mixing the two paths would break transitivity.
    if a.len() == b.len() && same_sorted_field_names(a, b) {
        for ((_, av), (_, bv)) in a.iter().zip(b.iter()) {
            let ord = av.total_cmp(bv);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        return Ordering::Equal;
    }
    // General path: compare as name-sorted field lists so that field
    // declaration order does not affect equality.
    let mut af: Vec<(&str, &Value)> = a.iter().collect();
    let mut bf: Vec<(&str, &Value)> = b.iter().collect();
    af.sort_by(|x, y| x.0.cmp(y.0));
    bf.sort_by(|x, y| x.0.cmp(y.0));
    for ((an, av), (bn, bv)) in af.iter().zip(bf.iter()) {
        let ord = an.cmp(bn);
        if ord != Ordering::Equal {
            return ord;
        }
        let ord = av.total_cmp(bv);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    af.len().cmp(&bf.len())
}

/// `true` when both structs declare identical field names in identical
/// positions *and* that declaration order is ascending by name.
fn same_sorted_field_names(a: &StructValue, b: &StructValue) -> bool {
    let mut prev: Option<&str> = None;
    for (an, bn) in a.field_names().zip(b.field_names()) {
        if an != bn {
            return false;
        }
        if let Some(p) = prev {
            if p >= an {
                return false;
            }
        }
        prev = Some(an);
    }
    true
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl PartialEq for StructValue {
    fn eq(&self, other: &Self) -> bool {
        cmp_struct(self, other) == Ordering::Equal
    }
}

impl Eq for StructValue {}

// The canonical hash writes one stream of whole words into the caller's
// hasher.  A scalar is one word, or a string's head word and its bytes
// padded to a word; a struct is a head word and its field values.  The
// kind words differ in their top 32 bits, so a length or field count
// xored into their low bits keeps them apart.  They do not keep a kind
// from ever meeting an `Int` with the same word: such a collision is
// rare, and the equality check behind every hash lookup resolves it.
const NULL_WORD: u64 = 0x4e55_4c4c << 32;
const BOOL_WORD: u64 = 0x424f_4f4c << 32;
const STR_TAG: u64 = 0x5354_5220 << 32;
const STRUCT_TAG: u64 = 0x5354_5255 << 32;
const LIST_TAG: u64 = 0x4c49_5354 << 32;
const BAG_TAG: u64 = 0x4241_4720 << 32;

/// Fields up to this count are put in name order on the stack.
const INLINE_FIELDS: usize = 32;

/// Writes the hash of `Value::Null`.
pub fn hash_null<H: Hasher>(state: &mut H) {
    state.write_u64(NULL_WORD);
}

/// Writes the hash of `Value::Bool(b)`.
pub fn hash_bool<H: Hasher>(b: bool, state: &mut H) {
    state.write_u64(BOOL_WORD | u64::from(b));
}

/// Writes the hash of `Value::Int(i)`: the integer's own word.
#[allow(clippy::cast_sign_loss)]
pub fn hash_int<H: Hasher>(i: i64, state: &mut H) {
    state.write_u64(i as u64);
}

/// Writes the hash of `Value::Float(f)`.  An `Int` and a `Float` compare
/// equal exactly when the float represents the integer (see
/// `cmp_int_float`), so an integral in-range float writes that integer's
/// word; every other float writes its bits.
#[allow(clippy::cast_possible_truncation)]
pub fn hash_float<H: Hasher>(f: f64, state: &mut H) {
    if f.is_finite() && f.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(&f) {
        hash_int(f as i64, state);
    } else {
        state.write_u64(f.to_bits());
    }
}

/// Writes the hash of `Value::Str(s)`: a head word holding the length,
/// the whole words of `s`, then its last 1–7 bytes zero-padded to a word
/// (the length tells the padding apart), so the stream stays word-aligned.
pub fn hash_str<H: Hasher>(s: &str, state: &mut H) {
    let bytes = s.as_bytes();
    state.write_u64(STR_TAG ^ bytes.len() as u64);
    let whole = bytes.len() & !7;
    if whole > 0 {
        state.write(&bytes[..whole]);
    }
    let tail = &bytes[whole..];
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        state.write_u64(u64::from_le_bytes(word));
    }
}

/// Writes the head word of a struct of `len` fields.  Its field values
/// follow in field-name order: [`hash_struct_with`] writes both.
pub fn hash_struct_head<H: Hasher>(len: usize, state: &mut H) {
    state.write_u64(STRUCT_TAG ^ len as u64);
}

/// Writes the hash of a struct of `len` fields, declared in some order:
/// the head word, then `field(i, state)` for each declared position `i`
/// in the order of the names `name(i)` — so the declaration order does
/// not matter.  Up to 32 fields are ordered on the stack.
pub fn hash_struct_with<'n, H: Hasher>(
    len: usize,
    name: impl Fn(usize) -> &'n str,
    mut field: impl FnMut(usize, &mut H),
    state: &mut H,
) {
    hash_struct_head(len, state);
    // Names sort by their first 8 bytes as one integer, and by the whole
    // name only where those tie.
    let by_name =
        |a: &(u64, usize), b: &(u64, usize)| a.0.cmp(&b.0).then_with(|| name(a.1).cmp(name(b.1)));
    let keyed = |i| (name_prefix(name(i)), i);
    if len <= INLINE_FIELDS {
        let mut order = [(0, 0); INLINE_FIELDS];
        let order = &mut order[..len];
        for (i, slot) in order.iter_mut().enumerate() {
            *slot = keyed(i);
        }
        order.sort_unstable_by(by_name);
        order.iter().for_each(|&(_, i)| field(i, state));
    } else {
        let mut order: Vec<(u64, usize)> = (0..len).map(keyed).collect();
        order.sort_unstable_by(by_name);
        order.into_iter().for_each(|(_, i)| field(i, state));
    }
}

/// The first 8 bytes of `name`, zero-padded, as a big-endian integer:
/// where two prefixes differ they order as the names do.
fn name_prefix(name: &str) -> u64 {
    let bytes = name.as_bytes();
    match bytes.first_chunk::<8>() {
        Some(word) => u64::from_be_bytes(*word),
        None => bytes
            .iter()
            .zip((0..8).rev())
            .fold(0, |word, (&b, k)| word | u64::from(b) << (8 * k)),
    }
}

impl Hash for Value {
    /// Canonical hash, consistent with `total_cmp` equality:
    /// `a == b` implies `hash(a) == hash(b)`, including the cross-variant
    /// `Int`/`Float` case, permuted struct fields and permuted bags.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => hash_null(state),
            Value::Bool(b) => hash_bool(*b, state),
            Value::Int(i) => hash_int(*i, state),
            Value::Float(f) => hash_float(*f, state),
            Value::Str(s) => hash_str(s, state),
            Value::Struct(s) => s.hash(state),
            Value::List(l) => {
                state.write_u64(LIST_TAG ^ l.len() as u64);
                for v in l.iter() {
                    v.hash(state);
                }
            }
            Value::Bag(b) => {
                state.write_u64(BAG_TAG ^ b.len() as u64);
                // Equal bags are equal sorted: their elements, taken in
                // `total_cmp` order, stream alike into the caller's hasher.
                for v in b.sorted_refs() {
                    v.hash(state);
                }
            }
        }
    }
}

impl Hash for StructValue {
    /// Field-order-independent struct hash: the head word, then the
    /// field values in field-name order, in the caller's hasher.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let fields = self.fields();
        hash_struct_with(
            fields.len(),
            |i| &fields[i].0,
            |i, state| fields[i].1.hash(state),
            state,
        );
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{BuildHasher, RandomState};

    use super::*;
    use crate::Bag;

    /// Two equal bags, built in different orders (one element an `Int`
    /// in one and an equal `Float` in the other), hash alike under two
    /// differently keyed hashers — and the keys do reach the elements.
    #[test]
    fn equal_bags_hash_alike_under_any_keyed_hasher() {
        let person = |id: i64| Value::new_struct(vec![("id", Value::Int(id))]).unwrap();
        let a = Value::Bag(Bag::from(vec![
            Value::Int(3),
            person(1),
            Value::from("s"),
            Value::Int(3),
            Value::Float(2.0),
        ]));
        let b = Value::Bag(Bag::from(vec![
            Value::from("s"),
            Value::Int(2),
            Value::Int(3),
            person(1),
            Value::Int(3),
        ]));
        assert_eq!(a, b);
        let (one, two) = (RandomState::new(), RandomState::new());
        for keys in [&one, &two] {
            assert_eq!(keys.hash_one(&a), keys.hash_one(&b));
        }
        assert_ne!(one.hash_one(&a), two.hash_one(&a), "the keys are used");
    }

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_variant_equality() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert_eq!(hash_of(&Value::Int(2)), hash_of(&Value::Float(2.0)));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn struct_equality_ignores_field_order() {
        let a = Value::new_struct(vec![("x", Value::Int(1)), ("y", Value::Int(2))]).unwrap();
        let b = Value::new_struct(vec![("y", Value::Int(2)), ("x", Value::Int(1))]).unwrap();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn bag_equality_is_multiset_equality() {
        let a = Value::Bag(Bag::from_iter([
            Value::Int(1),
            Value::Int(2),
            Value::Int(2),
        ]));
        let b = Value::Bag(Bag::from_iter([
            Value::Int(2),
            Value::Int(1),
            Value::Int(2),
        ]));
        let c = Value::Bag(Bag::from_iter([Value::Int(1), Value::Int(2)]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn ordering_is_total_and_antisymmetric_on_samples() {
        let samples = vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Int(0),
            Value::Float(0.5),
            Value::from("a"),
            Value::from("b"),
            Value::list(vec![Value::Int(1)]),
            Value::Bag(Bag::from_iter([Value::Int(1)])),
            Value::new_struct(vec![("k", Value::Int(1))]).unwrap(),
        ];
        for a in &samples {
            for b in &samples {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse(), "antisymmetry violated for {a:?} vs {b:?}");
                if ab == Ordering::Equal {
                    assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }

    #[test]
    fn nan_has_a_defined_position() {
        let nan = Value::Float(f64::NAN);
        // total_cmp puts NaN after all finite numbers; what matters is that
        // the comparison is stable and equality is reflexive.
        assert_eq!(nan, nan.clone());
        assert!(Value::Float(1.0) < nan);
        assert_eq!(hash_of(&nan), hash_of(&nan.clone()));
    }

    #[test]
    fn negative_zero_is_distinct_but_consistent() {
        // total_cmp orders -0.0 before 0.0 (IEEE total order), so they are
        // *not* equal under the canonical order — and their hashes are
        // free to differ.  What must hold: equal values hash equal.
        let neg = Value::Float(-0.0);
        let pos = Value::Float(0.0);
        assert_ne!(neg, pos);
        assert_eq!(neg, neg.clone());
        // Int(0) is numerically 0.0 (positive zero).
        assert_eq!(Value::Int(0), pos);
        assert_eq!(hash_of(&Value::Int(0)), hash_of(&pos));
    }

    #[test]
    fn large_ints_compare_exactly() {
        // 2^53 and 2^53 + 1 collapse to the same f64; they must stay
        // distinct as ints (the hash join and distinct rely on it).
        let a = Value::Int(9_007_199_254_740_992);
        let b = Value::Int(9_007_199_254_740_993);
        assert_ne!(a, b);
        assert!(a < b);
        assert_ne!(hash_of(&a), hash_of(&b));
        // A float that exactly represents a huge int equals it and hashes
        // with it; the next int up is strictly greater.
        #[allow(clippy::cast_precision_loss)]
        let f = Value::Float(9_007_199_254_740_992u64 as f64);
        assert_eq!(a, f);
        assert_eq!(hash_of(&a), hash_of(&f));
        assert!(f < b);
        // i64 extremes against out-of-range floats.
        assert!(Value::Int(i64::MAX) < Value::Float(TWO_POW_63));
        assert!(Value::Int(i64::MIN) > Value::Float(-TWO_POW_63 * 2.0));
        assert_eq!(
            Value::Int(i64::MIN),
            Value::Float(-TWO_POW_63),
            "-2^63 is exactly representable"
        );
        assert_eq!(
            hash_of(&Value::Int(i64::MIN)),
            hash_of(&Value::Float(-TWO_POW_63))
        );
        // Fractional floats order strictly between neighbouring ints.
        assert!(Value::Float(2.5) > Value::Int(2));
        assert!(Value::Float(2.5) < Value::Int(3));
        assert!(Value::Float(-2.5) < Value::Int(-2));
        assert!(Value::Float(-2.5) > Value::Int(-3));
    }

    #[test]
    fn distinct_keeps_large_ints_apart() {
        let bag: crate::Bag = [
            Value::Int(9_007_199_254_740_992),
            Value::Int(9_007_199_254_740_993),
        ]
        .into_iter()
        .collect();
        assert_eq!(bag.distinct().len(), 2);
    }

    #[test]
    fn lists_compare_lexicographically() {
        let a = Value::list(vec![Value::Int(1), Value::Int(2)]);
        let b = Value::list(vec![Value::Int(1), Value::Int(3)]);
        let c = Value::list(vec![Value::Int(1)]);
        assert!(a < b);
        assert!(c < a);
    }

    #[test]
    fn struct_fast_path_and_general_path_agree() {
        let same_order_a =
            Value::new_struct(vec![("a", Value::Int(1)), ("b", Value::Int(2))]).unwrap();
        let same_order_b =
            Value::new_struct(vec![("a", Value::Int(1)), ("b", Value::Int(3))]).unwrap();
        let permuted = Value::new_struct(vec![("b", Value::Int(3)), ("a", Value::Int(1))]).unwrap();
        assert_eq!(
            same_order_a.total_cmp(&same_order_b),
            same_order_a.total_cmp(&permuted),
            "fast path (same field order) and general path (permuted) must agree"
        );
        assert_eq!(same_order_b, permuted);
        assert_eq!(hash_of(&same_order_b), hash_of(&permuted));
    }
}

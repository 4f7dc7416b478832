use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use crate::{BagColumns, Value};

/// An unordered multiset of [`Value`]s — the canonical OQL collection.
///
/// The DISCO paper evaluates every query to a bag: the introductory query
/// returns `Bag("Mary", "Sam")`, and partial answers combine residual
/// queries with bags of data using bag union ("In DISCO, the union of two
/// bags is a bag").  `Bag` preserves insertion order internally (useful for
/// debugging and stable display after [`Bag::sorted`]) but equality is
/// multiset equality.
///
/// # Shared storage
///
/// The element vector lives behind an [`Arc`]: cloning a bag — which
/// happens every time a source's cached rows are fed into a plan, or a
/// `Data` node is evaluated — is a reference-count bump.  Mutating methods
/// ([`Bag::insert`], [`Bag::extend`]) are copy-on-write: they mutate in
/// place while the storage is uniquely owned and clone it only when it is
/// shared.
///
/// Multiset equality and [`Bag::distinct`] are hash-based (O(n) expected),
/// relying on `Value`'s canonical `Hash`, which is consistent with
/// `total_cmp` equality.
///
/// # Two faces
///
/// A bag of uniform struct rows can exist as columns instead
/// ([`Bag::from_columns`]): the form a relational wrapper's answer has
/// from the source table to the mediator's kernels, which read the
/// columns in place ([`Bag::columns`]).  Such a bag knows its length
/// without rows; everything that reads elements ([`Bag::iter`],
/// [`Bag::as_slice`], equality, hashing, display, …) builds the rows
/// once, on first use, and behaves exactly as the row-built bag of the
/// same elements would.  A mutation makes it a row bag for good.
///
/// # Examples
///
/// ```
/// use disco_value::{Bag, Value};
///
/// let r0: Bag = [Value::from("Mary")].into_iter().collect();
/// let r1: Bag = [Value::from("Sam")].into_iter().collect();
/// let all = r0.union(&r1);
/// assert_eq!(all.len(), 2);
/// assert!(all.contains(&Value::from("Mary")));
/// ```
#[derive(Clone)]
pub struct Bag {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Rows(Arc<Vec<Value>>),
    Columns(Arc<Faced>),
}

/// A column-faced bag: the columns, and the rows once somebody read them.
struct Faced {
    columns: BagColumns,
    rows: OnceLock<Arc<Vec<Value>>>,
}

impl std::fmt::Debug for Bag {
    /// Prints the elements, whichever face the bag has.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bag").field("items", self.items()).finish()
    }
}

impl Default for Bag {
    fn default() -> Self {
        Bag::new()
    }
}

impl Bag {
    /// Creates an empty bag.
    #[must_use]
    pub fn new() -> Self {
        Bag::from(Vec::new())
    }

    /// Creates an empty bag with room for `capacity` elements.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Bag::from(Vec::with_capacity(capacity))
    }

    /// Wraps shared element storage (e.g. a `Value::List` payload) into a
    /// bag without copying the vector.
    #[must_use]
    pub fn from_shared(items: Arc<Vec<Value>>) -> Self {
        Bag {
            repr: Repr::Rows(items),
        }
    }

    /// A bag whose elements are the selected rows of `columns`, as
    /// structs: no row is built until somebody reads one.
    #[must_use]
    pub fn from_columns(columns: BagColumns) -> Self {
        Bag {
            repr: Repr::Columns(Arc::new(Faced {
                columns,
                rows: OnceLock::new(),
            })),
        }
    }

    /// The column face, while the bag has one: since
    /// [`Bag::from_columns`], until the first mutation.
    #[must_use]
    pub fn columns(&self) -> Option<&BagColumns> {
        match &self.repr {
            Repr::Rows(_) => None,
            Repr::Columns(faced) => Some(&faced.columns),
        }
    }

    /// The bags of `parts`, one after the other, as one bag.  A single
    /// part is shared as it is; column-faced parts over the same columns
    /// (the chunks of one answer) stay columns; anything else is
    /// concatenated row by row (each a reference-count bump).
    #[must_use]
    pub fn concat(parts: &[&Bag]) -> Bag {
        if let [only] = parts {
            return (*only).clone();
        }
        let faces: Option<Vec<&BagColumns>> = parts.iter().map(|part| part.columns()).collect();
        if let Some(joined) = faces.and_then(|faces| BagColumns::concat(&faces)) {
            return Bag::from_columns(joined);
        }
        let mut all = Vec::with_capacity(parts.iter().map(|part| part.len()).sum());
        for part in parts {
            all.extend_from_slice(part.as_slice());
        }
        Bag::from(all)
    }

    /// The elements as rows; a column-faced bag builds them on first use.
    fn items(&self) -> &Arc<Vec<Value>> {
        match &self.repr {
            Repr::Rows(items) => items,
            Repr::Columns(faced) => faced.rows.get_or_init(|| Arc::new(faced.columns.to_rows())),
        }
    }

    /// The elements for writing: sheds the column face, then
    /// copy-on-write.
    fn items_mut(&mut self) -> &mut Vec<Value> {
        if let Repr::Columns(_) = &self.repr {
            let rows = Arc::clone(self.items());
            self.repr = Repr::Rows(rows);
        }
        let Repr::Rows(items) = &mut self.repr else {
            unreachable!("the column face was just shed");
        };
        Arc::make_mut(items)
    }

    /// Number of elements (counting duplicates).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Rows(items) => items.len(),
            Repr::Columns(faced) => faced.columns.len(),
        }
    }

    /// Returns `true` if the bag holds no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns `true` when `self` and `other` share the same underlying
    /// element storage (clones of the same bag).
    #[must_use]
    pub fn ptr_eq(&self, other: &Bag) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Rows(a), Repr::Rows(b)) => Arc::ptr_eq(a, b),
            (Repr::Columns(a), Repr::Columns(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Adds one element to the bag (copy-on-write).
    ///
    /// Each call goes through the shared storage's copy-on-write check;
    /// code that builds a bag from many values collects a `Vec<Value>`
    /// and wraps it once with [`Bag::from`].
    pub fn insert(&mut self, value: Value) {
        self.items_mut().push(value);
    }

    /// Number of occurrences of `value` in the bag.
    #[must_use]
    pub fn count(&self, value: &Value) -> usize {
        self.iter().filter(|v| *v == value).count()
    }

    /// Returns `true` if at least one element equals `value`.
    #[must_use]
    pub fn contains(&self, value: &Value) -> bool {
        self.iter().any(|v| v == value)
    }

    /// Iterates over the elements in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.items().iter()
    }

    /// Bag union: the result contains every element of `self` and `other`,
    /// with multiplicities added (ODMG bag union semantics).
    ///
    /// Elements are shared with the inputs (Arc bumps, no deep copies);
    /// a union with an empty bag shares the other side's storage outright.
    #[must_use]
    pub fn union(&self, other: &Bag) -> Bag {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut items = Vec::with_capacity(self.len() + other.len());
        items.extend(self.iter().cloned());
        items.extend(other.iter().cloned());
        Bag::from(items)
    }

    /// Returns a new bag with duplicates removed (OQL `distinct`),
    /// preserving first occurrence order.
    ///
    /// Hash-based: O(n) expected, using `Value`'s canonical `Hash`.
    #[must_use]
    pub fn distinct(&self) -> Bag {
        let mut seen: HashSet<&Value> = HashSet::with_capacity(self.len());
        let mut items = Vec::new();
        for v in self.iter() {
            if seen.insert(v) {
                items.push(v.clone());
            }
        }
        Bag::from(items)
    }

    /// Flattens a bag of bags into a single bag (OQL `flatten`).
    ///
    /// Non-bag elements are kept as-is, matching the permissive behaviour
    /// the paper relies on when `flatten` is applied to the meta-extent
    /// query that collects per-source extents.
    #[must_use]
    pub fn flatten(&self) -> Bag {
        let mut items = Vec::new();
        for v in self.iter() {
            match v {
                Value::Bag(inner) => items.extend(inner.iter().cloned()),
                Value::List(inner) => items.extend(inner.iter().cloned()),
                other => items.push(other.clone()),
            }
        }
        Bag::from(items)
    }

    /// Returns the elements sorted by the total value order.
    ///
    /// Useful for deterministic assertions and display; the bag itself is
    /// unordered.  The returned values share storage with the bag.
    #[must_use]
    pub fn sorted(&self) -> Vec<Value> {
        let mut v: Vec<Value> = self.iter().cloned().collect();
        v.sort();
        v
    }

    /// The elements as references, sorted by the total value order.
    ///
    /// This is the allocation-light path used by ordered bag comparison:
    /// only a vector of references is built and sorted — the elements
    /// themselves are never cloned.
    #[must_use]
    pub fn sorted_refs(&self) -> Vec<&Value> {
        let mut v: Vec<&Value> = self.iter().collect();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// Counts occurrences per distinct element (the multiset view used by
    /// hash-based equality).
    #[must_use]
    pub fn counts(&self) -> HashMap<&Value, usize> {
        let mut counts: HashMap<&Value, usize> = HashMap::with_capacity(self.len());
        for v in self.iter() {
            *counts.entry(v).or_insert(0) += 1;
        }
        counts
    }

    /// Consumes the bag and returns its elements in insertion order.
    #[must_use]
    pub fn into_values(self) -> Vec<Value> {
        Arc::try_unwrap(self.into_items()).unwrap_or_else(|shared| (*shared).clone())
    }

    /// The element storage, released from the bag: uniquely owned if the
    /// bag was the only one holding it.
    fn into_items(self) -> Arc<Vec<Value>> {
        Arc::clone(self.items())
    }

    /// Consumes the bag into a cursor over its elements.
    ///
    /// Unlike [`Bag::into_values`], this never copies the element vector:
    /// the cursor keeps the `Arc` storage alive and yields each element as
    /// an `Arc`-bump clone on demand.  This is the scan primitive of the
    /// streaming evaluator — a scan over a shared bag (cached source rows,
    /// a `Data` literal) costs one reference-count bump up front and one
    /// per row pulled, independent of how many clones of the bag exist.
    #[must_use]
    pub fn into_cursor(self) -> BagCursor {
        BagCursor {
            items: self.into_items(),
            index: 0,
        }
    }

    /// A borrowing cursor over the bag's elements.
    ///
    /// Equivalent to `self.clone().into_cursor()`: the bag stays usable and
    /// the cursor shares its storage (no element is cloned until pulled).
    #[must_use]
    pub fn cursor(&self) -> BagCursor {
        self.clone().into_cursor()
    }

    /// Views the elements as a slice in insertion order.
    #[must_use]
    pub fn as_slice(&self) -> &[Value] {
        self.items()
    }
}

/// A cursor over a bag's elements that shares the bag's storage.
///
/// Produced by [`Bag::into_cursor`] (consuming) and [`Bag::cursor`]
/// (borrowing).  Yields `Arc`-bump clones of the elements in insertion
/// order; the underlying vector is never copied, even when the storage is
/// shared with other clones of the bag.
#[derive(Debug, Clone)]
pub struct BagCursor {
    items: Arc<Vec<Value>>,
    index: usize,
}

impl Iterator for BagCursor {
    type Item = Value;

    fn next(&mut self) -> Option<Value> {
        let item = self.items.get(self.index)?.clone();
        self.index += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.items.len() - self.index;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for BagCursor {}

impl PartialEq for Bag {
    /// Multiset equality, hash-based: O(n) expected instead of the
    /// clone-sort-compare with deep copies it replaces.
    fn eq(&self, other: &Self) -> bool {
        if self.ptr_eq(other) {
            return true;
        }
        if self.len() != other.len() {
            return false;
        }
        let mut counts = self.counts();
        for v in other.iter() {
            match counts.get_mut(v) {
                Some(c) if *c > 0 => *c -= 1,
                _ => return false,
            }
        }
        // Lengths are equal and every element of `other` consumed one
        // occurrence, so all counts are zero.
        true
    }
}

impl Eq for Bag {}

impl FromIterator<Value> for Bag {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Bag::from(iter.into_iter().collect::<Vec<Value>>())
    }
}

impl Extend<Value> for Bag {
    fn extend<T: IntoIterator<Item = Value>>(&mut self, iter: T) {
        self.items_mut().extend(iter);
    }
}

impl IntoIterator for Bag {
    type Item = Value;
    type IntoIter = std::vec::IntoIter<Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.into_values().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bag {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<Vec<Value>> for Bag {
    fn from(items: Vec<Value>) -> Self {
        Bag::from_shared(Arc::new(items))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(xs: &[i64]) -> Bag {
        xs.iter().map(|i| Value::Int(*i)).collect()
    }

    #[test]
    fn union_adds_multiplicities() {
        let a = ints(&[1, 2, 2]);
        let b = ints(&[2, 3]);
        let u = a.union(&b);
        assert_eq!(u.len(), 5);
        assert_eq!(u.count(&Value::Int(2)), 3);
    }

    #[test]
    fn union_matches_paper_intro_example() {
        // person0 yields Mary, person1 yields Sam; union over the two
        // extents gives Bag("Mary", "Sam").
        let person0: Bag = [Value::from("Mary")].into_iter().collect();
        let person1: Bag = [Value::from("Sam")].into_iter().collect();
        let answer = person0.union(&person1);
        assert_eq!(
            answer,
            [Value::from("Sam"), Value::from("Mary")]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn union_with_empty_shares_storage() {
        let a = ints(&[1, 2]);
        assert!(a.union(&Bag::new()).ptr_eq(&a));
        assert!(Bag::new().union(&a).ptr_eq(&a));
    }

    #[test]
    fn clone_is_shared_and_cow_detaches() {
        let a = ints(&[1, 2]);
        let mut b = a.clone();
        assert!(a.ptr_eq(&b));
        b.insert(Value::Int(3));
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn distinct_removes_duplicates_preserving_first_occurrence() {
        let b = ints(&[3, 1, 3, 2, 1]);
        let d = b.distinct();
        assert_eq!(d.len(), 3);
        assert_eq!(d.as_slice()[0], Value::Int(3));
    }

    #[test]
    fn distinct_is_consistent_with_numeric_equality() {
        // 2 and 2.0 are equal under total_cmp, so distinct keeps one.
        let b: Bag = [Value::Int(2), Value::Float(2.0)].into_iter().collect();
        assert_eq!(b.distinct().len(), 1);
    }

    #[test]
    fn flatten_unnests_one_level() {
        let inner1 = ints(&[1, 2]);
        let inner2 = ints(&[3]);
        let nested: Bag = [Value::Bag(inner1), Value::Bag(inner2), Value::Int(9)]
            .into_iter()
            .collect();
        let flat = nested.flatten();
        assert_eq!(flat, ints(&[1, 2, 3, 9]));
    }

    #[test]
    fn equality_is_order_insensitive() {
        assert_eq!(ints(&[1, 2, 3]), ints(&[3, 2, 1]));
        assert_ne!(ints(&[1, 2]), ints(&[1, 2, 2]));
        assert_ne!(ints(&[1, 1, 2]), ints(&[1, 2, 2]));
    }

    #[test]
    fn empty_bag_properties() {
        let b = Bag::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.union(&b), Bag::new());
        assert_eq!(b.distinct(), Bag::new());
        assert_eq!(b.flatten(), Bag::new());
    }

    #[test]
    fn extend_and_from_vec() {
        let mut b = Bag::from(vec![Value::Int(1)]);
        b.extend([Value::Int(2), Value::Int(3)]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn cursor_shares_storage_and_yields_every_element() {
        let b = ints(&[1, 2, 3]);
        let shared = b.clone();
        // The consuming cursor walks the shared storage without copying it.
        let collected: Vec<Value> = b.into_cursor().collect();
        assert_eq!(collected, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        // The borrowing cursor leaves the bag usable.
        let mut cur = shared.cursor();
        assert_eq!(cur.len(), 3);
        assert_eq!(cur.next(), Some(Value::Int(1)));
        assert_eq!(cur.len(), 2);
        assert_eq!(shared.len(), 3);
    }

    #[test]
    fn cursor_elements_share_value_storage() {
        let b: Bag = [Value::from("Mary")].into_iter().collect();
        let original = b.iter().next().unwrap().clone();
        let yielded = b.into_cursor().next().unwrap();
        match (&yielded, &original) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            other => panic!("unexpected values {other:?}"),
        }
    }

    #[test]
    fn sorted_refs_matches_sorted() {
        let b = ints(&[3, 1, 2]);
        let by_ref: Vec<Value> = b.sorted_refs().into_iter().cloned().collect();
        assert_eq!(by_ref, b.sorted());
    }
}

use std::sync::Arc;

use crate::{Bag, Result, ValueError};

/// A dynamically typed runtime value in the DISCO mediator.
///
/// `Value` is the common currency exchanged between data sources, wrappers,
/// the mediator run-time system and applications.  It covers the literal
/// types of the paper's examples (`String name`, `Short salary`), the OQL
/// `struct(...)` constructor, lists, and bags (the canonical OQL
/// collection).
///
/// # Shared storage
///
/// Every variant with a heap payload ([`Value::Str`], [`Value::Struct`],
/// [`Value::List`], [`Value::Bag`]) stores it behind an [`Arc`], so
/// `Value::clone` is a reference-count bump — O(1) and allocation-free
/// regardless of how deep the value nests.  The mediator's combine step
/// (unions, joins, distinct over bags from many sources) relies on this:
/// rows flow through operator pipelines by pointer, never by deep copy.
/// Mutating constructors ([`Bag::insert`] etc.) use copy-on-write: they
/// mutate in place while the value is uniquely owned and clone only when
/// the storage is actually shared.
///
/// Ordering and equality are total: floats are compared with
/// [`f64::total_cmp`], bags with multiset semantics, and values of distinct
/// variants are ordered by variant rank.  `Hash` is canonical with respect
/// to this equality (see `ord.rs`), so values can key a `HashMap` — the
/// hash join and hash distinct build on that.
///
/// # Examples
///
/// ```
/// use disco_value::Value;
///
/// let mary = Value::new_struct(vec![
///     ("name", Value::from("Mary")),
///     ("salary", Value::from(200i64)),
/// ]).unwrap();
/// assert_eq!(mary.field("salary").unwrap(), &Value::Int(200));
/// ```
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// The absence of a value (SQL `NULL` / OQL `nil`).
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.  The paper's `Short` attributes map here.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string, shared.
    Str(Arc<str>),
    /// An ordered record of named fields (`struct(name: ..., salary: ...)`).
    Struct(StructValue),
    /// An ordered list of values, shared.
    List(Arc<Vec<Value>>),
    /// An unordered multiset of values (`Bag(...)`).
    Bag(Bag),
}

impl Value {
    /// Builds a struct value from `(name, value)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::DuplicateField`] if the same field name appears
    /// twice.
    pub fn new_struct<N, I>(fields: I) -> Result<Self>
    where
        N: Into<Arc<str>>,
        I: IntoIterator<Item = (N, Value)>,
    {
        Ok(Value::Struct(StructValue::new(fields)?))
    }

    /// Builds a list value.
    #[must_use]
    pub fn list(items: Vec<Value>) -> Self {
        Value::List(Arc::new(items))
    }

    /// The name of this value's runtime type, used in error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Struct(_) => "struct",
            Value::List(_) => "list",
            Value::Bag(_) => "bag",
        }
    }

    /// Returns `true` if the value is [`Value::Null`].
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Views the value as a bool.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] if the value is not a bool.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ValueError::TypeMismatch {
                expected: "bool",
                found: other.type_name(),
            }),
        }
    }

    /// Views the value as an integer.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] if the value is not an int.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(ValueError::TypeMismatch {
                expected: "int",
                found: other.type_name(),
            }),
        }
    }

    /// Views the value as a float, widening integers.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] for non-numeric values.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(x) => Ok(*x),
            #[allow(clippy::cast_precision_loss)]
            Value::Int(i) => Ok(*i as f64),
            other => Err(ValueError::TypeMismatch {
                expected: "float",
                found: other.type_name(),
            }),
        }
    }

    /// Views the value as a string slice.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] if the value is not a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s.as_ref()),
            other => Err(ValueError::TypeMismatch {
                expected: "string",
                found: other.type_name(),
            }),
        }
    }

    /// Views the value as a struct.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] if the value is not a struct.
    pub fn as_struct(&self) -> Result<&StructValue> {
        match self {
            Value::Struct(s) => Ok(s),
            other => Err(ValueError::TypeMismatch {
                expected: "struct",
                found: other.type_name(),
            }),
        }
    }

    /// Views the value as a bag.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] if the value is not a bag.
    pub fn as_bag(&self) -> Result<&Bag> {
        match self {
            Value::Bag(b) => Ok(b),
            other => Err(ValueError::TypeMismatch {
                expected: "bag",
                found: other.type_name(),
            }),
        }
    }

    /// Consumes the value and returns the inner bag.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] if the value is not a bag.
    pub fn into_bag(self) -> Result<Bag> {
        match self {
            Value::Bag(b) => Ok(b),
            other => Err(ValueError::TypeMismatch {
                expected: "bag",
                found: other.type_name(),
            }),
        }
    }

    /// Accesses a field of a struct value (the OQL path expression `x.name`).
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::NotAStruct`] when applied to a non-struct value
    /// and [`ValueError::NoSuchField`] when the field does not exist.
    pub fn field(&self, name: &str) -> Result<&Value> {
        match self {
            Value::Struct(s) => s.field(name),
            other => Err(ValueError::NotAStruct {
                found: other.type_name(),
            }),
        }
    }

    /// Returns `true` when the value is numerically comparable
    /// (int or float).
    #[must_use]
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }
}

/// An ordered record of named fields.
///
/// Field order is preserved (it is the declaration order of the OQL
/// `struct(...)` constructor or of the source schema) but does not
/// participate in equality: two structs are equal when they bind the same
/// field names to equal values.
///
/// The fields live in one block — the reference counts and the
/// `(name, value)` pairs in a single `Arc<[_]>` allocation — so building a
/// struct is one allocation and cloning it, the dominant operation when
/// rows flow through mediator pipelines, is a reference-count bump.  Field
/// names are `Arc<str>` as well: projecting, renaming or merging rows
/// shares the name storage of the input rows.
///
/// # Examples
///
/// ```
/// use disco_value::{StructValue, Value};
///
/// let s = StructValue::new(vec![
///     ("name", Value::from("Sam")),
///     ("salary", Value::from(50i64)),
/// ]).unwrap();
/// assert_eq!(s.field("name").unwrap().as_str().unwrap(), "Sam");
/// assert_eq!(s.field_names().collect::<Vec<_>>(), vec!["name", "salary"]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StructValue {
    fields: Arc<[(Arc<str>, Value)]>,
}

impl StructValue {
    /// Builds a struct from `(name, value)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::DuplicateField`] if a field name repeats.
    pub fn new<N, I>(fields: I) -> Result<Self>
    where
        N: Into<Arc<str>>,
        I: IntoIterator<Item = (N, Value)>,
    {
        // Collected straight into the struct's block (one allocation for a
        // sized input such as a `vec![..]`), then checked.
        let fields: Arc<[(Arc<str>, Value)]> = fields
            .into_iter()
            .map(|(name, value)| (name.into(), value))
            .collect();
        match repeated_name(&fields) {
            Some(name) => Err(ValueError::DuplicateField {
                field: name.to_owned(),
            }),
            None => Ok(StructValue { fields }),
        }
    }

    /// Builds a struct from `(name, value)` pairs whose names the caller
    /// has already verified to be distinct — the batch engine validates a
    /// projection's field names once at kernel-compile time, then
    /// assembles one output struct per row without re-running the
    /// per-field duplicate scan.
    ///
    /// Distinctness is checked in debug builds only.
    #[must_use]
    pub fn from_distinct_fields(fields: Vec<(Arc<str>, Value)>) -> Self {
        Self::from_distinct_iter(fields)
    }

    /// [`StructValue::from_distinct_fields`] straight from an exact-size
    /// iterator: the pairs are collected into the struct's one block, with
    /// no intermediate vector — a struct built per row costs one
    /// allocation.
    ///
    /// Distinctness is checked in debug builds only.
    #[must_use]
    pub fn from_distinct_iter<I>(fields: I) -> Self
    where
        I: IntoIterator<Item = (Arc<str>, Value)>,
        I::IntoIter: ExactSizeIterator,
    {
        let fields: Arc<[(Arc<str>, Value)]> = fields.into_iter().collect();
        debug_assert!(
            repeated_name(&fields).is_none(),
            "a struct built from distinct fields repeats a field name"
        );
        StructValue { fields }
    }

    /// Number of fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` if the struct has no fields.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Looks up a field by name.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::NoSuchField`] when the field is absent.
    pub fn field(&self, name: &str) -> Result<&Value> {
        self.get(name)
            .ok_or_else(|| ValueError::NoSuchField { field: name.into() })
    }

    /// Looks up a field by name, returning `None` when absent.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields
            .iter()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, v)| v)
    }

    /// Returns `true` if the struct defines `name`.
    #[must_use]
    pub fn has_field(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The `(name, value)` pair at declaration position `index`, or
    /// `None` past the end.  Columnar decoding uses this as a positional
    /// fast path: rows from one source share their field layout, so a
    /// cached position plus one name check replaces the linear scan of
    /// [`StructValue::get`].
    #[must_use]
    pub fn field_at(&self, index: usize) -> Option<(&str, &Value)> {
        self.fields.get(index).map(|(n, v)| (n.as_ref(), v))
    }

    /// Looks up a field by name, returning its declaration position and
    /// value.
    #[must_use]
    pub fn position(&self, name: &str) -> Option<(usize, &Value)> {
        self.fields
            .iter()
            .position(|(n, _)| n.as_ref() == name)
            .map(|i| (i, &self.fields[i].1))
    }

    /// The `(name, value)` pairs in declaration order.
    pub(crate) fn fields(&self) -> &[(Arc<str>, Value)] {
        &self.fields
    }

    /// Iterates over `(name, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(n, v)| (n.as_ref(), v))
    }

    /// Iterates over field names in declaration order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(n, _)| n.as_ref())
    }

    /// Returns `true` when `self` and `other` share the same underlying
    /// field storage (a clone of the same row).
    #[must_use]
    pub fn ptr_eq(&self, other: &StructValue) -> bool {
        Arc::ptr_eq(&self.fields, &other.fields)
    }

    /// Returns `true` when `self` and `other` declare the same fields in
    /// the same order **through the same name storage** — rows of one
    /// table (and projections of them) share their `Arc<str>` names, so a
    /// check made for one row holds for every row this says `true` for.
    /// `false` only means "compare by content instead".
    #[must_use]
    pub fn shares_names_with(&self, other: &StructValue) -> bool {
        self.fields.len() == other.fields.len()
            && self
                .fields
                .iter()
                .zip(other.fields.iter())
                .all(|((a, _), (b, _))| Arc::ptr_eq(a, b))
    }

    /// Produces a new struct containing only `names`, in the order given.
    ///
    /// This is the value-level counterpart of the `project` logical
    /// operator.  Field names and values are shared with `self`, not
    /// copied.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::NoSuchField`] if any requested field is absent
    /// and [`ValueError::DuplicateField`] if a name is requested twice.
    pub fn project<'a, I>(&self, names: I) -> Result<StructValue>
    where
        I: IntoIterator<Item = &'a str>,
        I::IntoIter: Clone + ExactSizeIterator,
    {
        let names = names.into_iter();
        // The names are checked first, so that the struct is collected
        // straight into its one block.
        let find = |name: &str| self.fields.iter().find(|(n, _)| n.as_ref() == name);
        for (i, name) in names.clone().enumerate() {
            if names.clone().take(i).any(|earlier| earlier == name) {
                return Err(ValueError::DuplicateField { field: name.into() });
            }
            if find(name).is_none() {
                return Err(ValueError::NoSuchField { field: name.into() });
            }
        }
        Ok(StructValue::from_distinct_iter(names.map(|name| {
            let (n, v) = find(name).expect("every name was found above");
            (Arc::clone(n), v.clone())
        })))
    }

    /// Returns a new struct with every field renamed through `rename`.
    ///
    /// Fields for which `rename` returns `None` keep their name.  This is
    /// the value-level counterpart of applying a DISCO *local
    /// transformation map* to answers coming back from a data source.
    #[must_use]
    pub fn rename_fields<F>(&self, mut rename: F) -> StructValue
    where
        F: FnMut(&str) -> Option<String>,
    {
        let fields = self
            .fields
            .iter()
            .map(|(n, v)| {
                let name = match rename(n.as_ref()) {
                    Some(new_name) => Arc::from(new_name),
                    None => Arc::clone(n),
                };
                (name, v.clone())
            })
            .collect();
        StructValue { fields }
    }

    /// The same values under `names`, one per field in declaration order:
    /// [`StructValue::rename_fields`] for a caller that has worked the new
    /// names out already — once for a whole chunk of rows sharing their
    /// layout — so that the renamed rows share their name storage too.
    ///
    /// # Panics
    ///
    /// Panics when `names` does not hold one name per field.
    #[must_use]
    pub fn with_field_names(&self, names: &[Arc<str>]) -> StructValue {
        assert_eq!(names.len(), self.fields.len(), "one name per field");
        StructValue {
            fields: names
                .iter()
                .zip(self.fields.iter())
                .map(|(name, (_, value))| (Arc::clone(name), value.clone()))
                .collect(),
        }
    }

    /// Merges two structs into one.
    ///
    /// This is used by the mediator-side join: the joined tuple carries the
    /// fields of both inputs.  On a name clash the *right* field is
    /// prefixed with `prefix` (e.g. the range-variable name), mirroring how
    /// the paper's examples disambiguate `x.salary` and `y.salary`.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::DuplicateField`] if even the prefixed name
    /// clashes.
    pub fn merge_with_prefix(&self, other: &StructValue, prefix: &str) -> Result<StructValue> {
        let mut fields: Vec<(Arc<str>, Value)> = self.fields.to_vec();
        for (n, v) in other.fields.iter() {
            let name: Arc<str> = if fields.iter().any(|(existing, _)| existing == n) {
                Arc::from(format!("{prefix}_{n}"))
            } else {
                Arc::clone(n)
            };
            if fields.iter().any(|(existing, _)| *existing == name) {
                return Err(ValueError::DuplicateField {
                    field: name.as_ref().to_owned(),
                });
            }
            fields.push((name, v.clone()));
        }
        Ok(StructValue {
            fields: fields.into(),
        })
    }

    /// Merges two structs; fields of `other` replace (shadow) same-named
    /// fields of `self`.  This is the row-construction counterpart of the
    /// evaluator's layered environment: the joined output row carries
    /// `self`'s fields first, then `other`'s.
    #[must_use]
    pub fn merged(&self, other: &StructValue) -> StructValue {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut fields: Vec<(Arc<str>, Value)> = self
            .fields
            .iter()
            .filter(|(n, _)| !other.has_field(n.as_ref()))
            .map(|(n, v)| (Arc::clone(n), v.clone()))
            .collect();
        fields.extend(other.fields.iter().map(|(n, v)| (Arc::clone(n), v.clone())));
        StructValue {
            fields: fields.into(),
        }
    }

    /// Consumes the struct and returns its fields in declaration order.
    #[must_use]
    pub fn into_fields(self) -> Vec<(Arc<str>, Value)> {
        self.fields.to_vec()
    }
}

/// The first field name that repeats an earlier one.
fn repeated_name(fields: &[(Arc<str>, Value)]) -> Option<&str> {
    fields
        .iter()
        .enumerate()
        .find(|(i, (name, _))| fields[..*i].iter().any(|(earlier, _)| earlier == name))
        .map(|(_, (name, _))| name.as_ref())
}

impl<'a> IntoIterator for &'a StructValue {
    type Item = (&'a str, &'a Value);
    type IntoIter = std::iter::Map<
        std::slice::Iter<'a, (Arc<str>, Value)>,
        fn(&'a (Arc<str>, Value)) -> (&'a str, &'a Value),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.fields.iter().map(|(n, v)| (n.as_ref(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn struct_rejects_duplicate_fields() {
        let err = StructValue::new(vec![("a", Value::Int(1)), ("a", Value::Int(2))]).unwrap_err();
        assert_eq!(err, ValueError::DuplicateField { field: "a".into() });
    }

    #[test]
    fn field_access_matches_paper_example() {
        let mary = Value::new_struct(vec![
            ("name", Value::from("Mary")),
            ("salary", Value::from(200i64)),
        ])
        .unwrap();
        assert_eq!(mary.field("name").unwrap().as_str().unwrap(), "Mary");
        assert_eq!(mary.field("salary").unwrap().as_int().unwrap(), 200);
        assert!(matches!(
            mary.field("age").unwrap_err(),
            ValueError::NoSuchField { .. }
        ));
    }

    #[test]
    fn field_access_on_non_struct_fails() {
        let v = Value::from(3i64);
        assert!(matches!(
            v.field("x").unwrap_err(),
            ValueError::NotAStruct { found: "int" }
        ));
    }

    #[test]
    fn clone_shares_storage() {
        let s = StructValue::new(vec![("a", Value::from("payload"))]).unwrap();
        let c = s.clone();
        assert!(s.ptr_eq(&c));
        let v = Value::from("shared");
        let w = v.clone();
        match (&v, &w) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn projection_preserves_requested_order() {
        let s = StructValue::new(vec![
            ("a", Value::Int(1)),
            ("b", Value::Int(2)),
            ("c", Value::Int(3)),
        ])
        .unwrap();
        let p = s.project(["c", "a"]).unwrap();
        assert_eq!(p.field_names().collect::<Vec<_>>(), vec!["c", "a"]);
    }

    #[test]
    fn projection_of_missing_field_errors() {
        let s = StructValue::new(vec![("a", Value::Int(1))]).unwrap();
        assert!(s.project(["z"]).is_err());
    }

    #[test]
    fn projection_rejects_duplicate_names() {
        let s = StructValue::new(vec![("a", Value::Int(1)), ("b", Value::Int(2))]).unwrap();
        assert_eq!(
            s.project(["a", "a"]).unwrap_err(),
            ValueError::DuplicateField { field: "a".into() }
        );
    }

    #[test]
    fn rename_fields_applies_map() {
        // The §2.2.2 map ((name=n),(salary=s)) applied to answers renames
        // source attributes into mediator attributes.
        let s = StructValue::new(vec![
            ("name", Value::from("Mary")),
            ("salary", Value::Int(200)),
        ])
        .unwrap();
        let renamed = s.rename_fields(|f| match f {
            "name" => Some("n".into()),
            "salary" => Some("s".into()),
            _ => None,
        });
        assert!(renamed.has_field("n"));
        assert!(renamed.has_field("s"));
        assert!(!renamed.has_field("name"));
    }

    #[test]
    fn merge_with_prefix_disambiguates() {
        let left = StructValue::new(vec![
            ("name", Value::from("Mary")),
            ("salary", Value::Int(1)),
        ])
        .unwrap();
        let right =
            StructValue::new(vec![("name", Value::from("Mary")), ("dept", Value::Int(7))]).unwrap();
        let merged = left.merge_with_prefix(&right, "y").unwrap();
        assert!(merged.has_field("name"));
        assert!(merged.has_field("y_name"));
        assert!(merged.has_field("dept"));
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn merged_lets_right_shadow_left() {
        let left = StructValue::new(vec![("a", Value::Int(1)), ("b", Value::Int(2))]).unwrap();
        let right = StructValue::new(vec![("b", Value::Int(20)), ("c", Value::Int(3))]).unwrap();
        let m = left.merged(&right);
        assert_eq!(m.field("a").unwrap(), &Value::Int(1));
        assert_eq!(m.field("b").unwrap(), &Value::Int(20));
        assert_eq!(m.field("c").unwrap(), &Value::Int(3));
        assert_eq!(m.len(), 3);
        // Merging with an empty side shares storage outright.
        assert!(left.merged(&StructValue::default()).ptr_eq(&left));
        assert!(StructValue::default().merged(&right).ptr_eq(&right));
    }

    #[test]
    fn as_float_widens_int() {
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert_eq!(Value::Float(2.5).as_float().unwrap(), 2.5);
        assert!(Value::from("x").as_float().is_err());
    }

    #[test]
    fn type_names_cover_all_variants() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::Bool(true).type_name(), "bool");
        assert_eq!(Value::Int(1).type_name(), "int");
        assert_eq!(Value::Float(1.0).type_name(), "float");
        assert_eq!(Value::from("s").type_name(), "string");
        assert_eq!(Value::list(vec![]).type_name(), "list");
        assert_eq!(Value::Bag(Bag::new()).type_name(), "bag");
        assert_eq!(
            Value::new_struct(Vec::<(&str, Value)>::new())
                .unwrap()
                .type_name(),
            "struct"
        );
    }

    #[test]
    fn default_value_is_null() {
        assert!(Value::default().is_null());
    }
}

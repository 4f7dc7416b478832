//! Columnar chunks: the batch-at-a-time value representation of the
//! mediator's combine step.
//!
//! The streaming cursor engine moves rows between operators in batches,
//! but until now each row stayed a fat tagged [`Value`] evaluated one at
//! a time.  A [`ColumnarChunk`] decodes one batch of struct rows into
//! *typed column vectors* — `i64`/`f64`/`bool` data with optional null
//! masks, dictionary-encoded `Arc<str>` columns — so scalar kernels can
//! run over whole columns without per-row enum dispatch.  Filters mark
//! surviving rows in a selection vector (owned by the engine) instead of
//! copying them.
//!
//! Decoding is strict: a chunk is only produced when **every** row of the
//! batch is a struct carrying **every** requested field.  Anything else —
//! a missing field, a non-struct row — makes [`ChunkBuilder::build`]
//! return `None`, and the engine evaluates that batch through the exact
//! per-row [`Value`] path instead.  A column whose values mix types stays
//! usable as a [`Column::Values`] vector, so only genuinely irregular
//! batches fall back.

use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::{hash_bool, hash_float, hash_int, hash_null, hash_str, StructValue, Value};

/// FNV-1a, the classic tiny-string hasher: the dictionary interns short
/// attribute values (names, categories), for which FNV beats SipHash by a
/// wide margin and needs no external crate.
#[derive(Default)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0 ^ 0xcbf2_9ce4_8422_2325
    }

    fn write(&mut self, bytes: &[u8]) {
        // The state starts at 0 and the offset basis is folded in at
        // `finish`, so `Default` stays derivable.
        let mut hash = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash ^ 0xcbf2_9ce4_8422_2325;
    }
}

/// Code used in dictionary columns for null slots (never a valid code:
/// the dictionary refuses to grow that far).
pub const NULL_CODE: u32 = u32::MAX;

/// A string dictionary shared by every chunk of one scan: equal strings
/// get equal codes, so downstream consumers (hash distinct, equality
/// probes) can work on dense `u32`s and hash each *distinct* string once
/// instead of once per row.
#[derive(Default)]
pub struct StrDict {
    map: HashMap<Arc<str>, u32, BuildHasherDefault<FnvHasher>>,
}

impl StrDict {
    /// An empty dictionary.
    #[must_use]
    pub fn new() -> Self {
        StrDict::default()
    }

    /// Number of distinct strings interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Interns `s`, returning its stable code.  Equal strings (by
    /// content) always return the same code.  `None` only when the
    /// dictionary is full (`u32` codes exhausted, [`NULL_CODE`] reserved).
    pub fn code(&mut self, s: &Arc<str>) -> Option<u32> {
        if let Some(&code) = self.map.get(s.as_ref()) {
            return Some(code);
        }
        let next = u32::try_from(self.map.len()).ok()?;
        if next == NULL_CODE {
            return None;
        }
        self.map.insert(Arc::clone(s), next);
        Some(next)
    }
}

/// One decoded column of a [`ColumnarChunk`].
///
/// Typed variants carry plain data vectors plus an optional null mask
/// (`Some` only when the batch actually contained nulls; masked slots
/// hold an arbitrary placeholder in the data vector).  Batches mixing
/// value types in one field decode to [`Column::Values`], which keeps
/// the column kernel-evaluable element-wise.
pub enum Column {
    /// All-integer (or null) values.
    Int {
        /// Row values; null slots hold `0`.
        data: Vec<i64>,
        /// Null mask, present only when the chunk has nulls in this column.
        nulls: Option<Vec<bool>>,
    },
    /// All-float (or null) values.
    Float {
        /// Row values; null slots hold `0.0`.
        data: Vec<f64>,
        /// Null mask, present only when the chunk has nulls in this column.
        nulls: Option<Vec<bool>>,
    },
    /// All-boolean (or null) values.
    Bool {
        /// Row values; null slots hold `false`.
        data: Vec<bool>,
        /// Null mask, present only when the chunk has nulls in this column.
        nulls: Option<Vec<bool>>,
    },
    /// All-string (or null) values, optionally dictionary-encoded.
    Str {
        /// Row values (`Arc` bumps of the original strings); null slots
        /// hold an empty string.
        values: Vec<Arc<str>>,
        /// Dictionary codes from the scan's [`StrDict`] (equal string ⇔
        /// equal code); null slots hold [`NULL_CODE`].  `None` when the
        /// builder was not asked to encode this field (or the dictionary
        /// overflowed).
        codes: Option<Vec<u32>>,
        /// Null mask, present only when the chunk has nulls in this column.
        nulls: Option<Vec<bool>>,
    },
    /// Mixed-type values kept as boxed [`Value`]s (`Arc` bumps).
    Values(Vec<Value>),
}

/// One batch of rows decoded into columns.
///
/// Column order matches the field order the [`ChunkBuilder`] was
/// configured with; every column has exactly [`ColumnarChunk::len`]
/// slots.  Columns are shared: a chunk over the column face of a bag
/// ([`BagColumns::chunk`](crate::BagColumns::chunk)) is the bag's own
/// columns, whole, and costs a reference-count bump each.  The default
/// chunk has no rows and no columns.
#[derive(Clone, Default)]
pub struct ColumnarChunk {
    len: usize,
    columns: Vec<Arc<Column>>,
}

impl ColumnarChunk {
    /// A chunk of columns that exist already, each `len` slots long.
    pub(crate) fn of_shared(len: usize, columns: Vec<Arc<Column>>) -> Self {
        debug_assert!(columns.iter().all(|column| column.len() == len));
        ColumnarChunk { len, columns }
    }

    /// Number of rows in the chunk.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` for an empty chunk.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows `rows` of each of `parts`, one part after the other, as one
    /// chunk (no dictionary codes: the parts' may come from different
    /// dictionaries).  A column whose parts are all of one kind is copied
    /// slot by slot; one whose parts differ is re-encoded from the values
    /// it holds.  The parts must have as many columns each; no parts make
    /// the empty chunk.
    ///
    /// # Panics
    ///
    /// Panics when a row is out of range for its part, or a part has
    /// fewer columns than the first.
    #[must_use]
    pub fn gather(parts: &[(&ColumnarChunk, &[u32])]) -> ColumnarChunk {
        let width = parts.first().map_or(0, |(chunk, _)| chunk.columns.len());
        let len = parts.iter().map(|(_, rows)| rows.len()).sum();
        let columns = (0..width)
            .map(|slot| {
                let column: Vec<(&Column, &[u32])> = parts
                    .iter()
                    .map(|(chunk, rows)| (&*chunk.columns[slot], *rows))
                    .collect();
                Arc::new(gather_column(&column))
            })
            .collect();
        ColumnarChunk { len, columns }
    }

    /// Rough heap size of the chunk's columns cut to `rows` rows: each
    /// column's header and `rows` of its slots.  A string slot is its
    /// `Arc`, whose text the rows it was decoded from share.
    #[must_use]
    pub fn approx_bytes(&self, rows: usize) -> usize {
        let header = std::mem::size_of::<Arc<Column>>() + std::mem::size_of::<(usize, usize)>();
        self.columns
            .iter()
            .map(|column| header + std::mem::size_of::<Column>() + rows * column.slot_bytes())
            .sum()
    }

    /// The decoded column at builder field index `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range — column slots correspond
    /// one-to-one to the fields registered on the builder.
    #[must_use]
    pub fn column(&self, index: usize) -> &Column {
        &self.columns[index]
    }
}

impl Column {
    /// Classifies and encodes `values` as one column (no dictionary
    /// codes): what [`ChunkBuilder::build`] does per registered field.
    #[must_use]
    pub fn from_values(values: &[&Value]) -> Column {
        encode_column(values, None)
    }

    /// The null mask, if the column has one.
    fn nulls(&self) -> Option<&[bool]> {
        match self {
            Column::Int { nulls, .. }
            | Column::Float { nulls, .. }
            | Column::Bool { nulls, .. }
            | Column::Str { nulls, .. } => nulls.as_deref(),
            Column::Values(_) => None,
        }
    }

    /// The bytes one slot takes: its data, code and null flag.
    fn slot_bytes(&self) -> usize {
        let data = match self {
            Column::Int { .. } | Column::Float { .. } => 8,
            Column::Bool { .. } => 1,
            Column::Str { codes, .. } => {
                std::mem::size_of::<Arc<str>>() + codes.as_ref().map_or(0, |_| 4)
            }
            Column::Values(_) => std::mem::size_of::<Value>(),
        };
        data + usize::from(self.nulls().is_some())
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
            Column::Str { values, .. } => values.len(),
            Column::Values(values) => values.len(),
        }
    }

    /// Returns `true` for a column without slots.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-boxes the value at row `i` as a [`Value`].  Null-masked slots
    /// come back as [`Value::Null`] regardless of the placeholder stored
    /// in the data vector, so the result is exactly the value the row
    /// carried before decoding.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range for the chunk the column came from.
    #[must_use]
    pub fn value_at(&self, i: usize) -> Value {
        let masked = |nulls: &Option<Vec<bool>>| nulls.as_ref().is_some_and(|m| m[i]);
        match self {
            Column::Int { data, nulls } => {
                if masked(nulls) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            Column::Float { data, nulls } => {
                if masked(nulls) {
                    Value::Null
                } else {
                    Value::Float(data[i])
                }
            }
            Column::Bool { data, nulls } => {
                if masked(nulls) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            Column::Str { values, nulls, .. } => {
                if masked(nulls) {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(&values[i]))
                }
            }
            Column::Values(values) => values[i].clone(),
        }
    }
}

/// Batched join-key hashing: hashes a key column in one pass, producing
/// hashes **bit-identical** to `RandomState::hash_one(&Value)` over the
/// re-boxed values — the contract that lets a columnar build side and a
/// per-row fallback insert into the *same* hash table.
///
/// A typed slot goes through the same word writer `Hash for Value` calls
/// for its kind ([`crate::hash_int`], [`crate::hash_str`], …) — never a
/// re-derivation of the layout, and never a re-boxed `Value` — so it
/// cannot drift from the row path.  The one shortcut is the
/// dictionary-code cache: for [`Column::Str`] columns that carry codes,
/// each *distinct* code is hashed once and repeated keys hit the cache.
/// A `KeyHasher` therefore belongs to **one** key column (one
/// dictionary's code space); sharing it across differently-coded columns
/// would alias unrelated codes.
pub struct KeyHasher {
    state: RandomState,
    /// `code → hash` cache, densely indexed (codes are allocated densely
    /// by [`StrDict`]); `filled` tracks which slots are populated.
    code_hashes: Vec<u64>,
    code_filled: Vec<bool>,
}

impl KeyHasher {
    /// A hasher over `state` — pass a clone of the join table's
    /// `RandomState` so spine-computed hashes agree with per-row
    /// `hash_one` lookups against the same table.
    #[must_use]
    pub fn with_state(state: RandomState) -> Self {
        KeyHasher {
            state,
            code_hashes: Vec::new(),
            code_filled: Vec::new(),
        }
    }

    /// The canonical hash of one key value under this hasher's state.
    #[must_use]
    pub fn hash_value(&self, v: &Value) -> u64 {
        self.state.hash_one(v)
    }

    /// The hash of what `write` feeds a fresh hasher of this state.
    fn hash_with(&self, write: impl FnOnce(&mut DefaultHasher)) -> u64 {
        let mut h = self.state.build_hasher();
        write(&mut h);
        h.finish()
    }

    /// The hash of a dictionary-coded string key, computed once per
    /// distinct code.  `code` must come from the one dictionary this
    /// hasher serves (see the type-level invariant).
    pub fn hash_str_code(&mut self, s: &Arc<str>, code: u32) -> u64 {
        let slot = code as usize;
        if slot >= self.code_filled.len() {
            self.code_hashes.resize(slot + 1, 0);
            self.code_filled.resize(slot + 1, false);
        }
        if !self.code_filled[slot] {
            self.code_hashes[slot] = self.hash_with(|h| hash_str(s, h));
            self.code_filled[slot] = true;
        }
        self.code_hashes[slot]
    }

    /// Hashes the selected rows of a key column in one pass, appending
    /// one hash per selection entry to `out`.
    ///
    /// # Panics
    ///
    /// Panics when a selection index is out of range for the column.
    pub fn hash_column(&mut self, col: &Column, sel: &[u32], out: &mut Vec<u64>) {
        out.reserve(sel.len());
        let null = self.hash_with(hash_null);
        let is_null = |nulls: &Option<Vec<bool>>, i: usize| nulls.as_ref().is_some_and(|m| m[i]);
        match col {
            Column::Int { data, nulls } => out.extend(sel.iter().map(|&i| {
                let i = i as usize;
                if is_null(nulls, i) {
                    null
                } else {
                    self.hash_with(|h| hash_int(data[i], h))
                }
            })),
            Column::Float { data, nulls } => out.extend(sel.iter().map(|&i| {
                let i = i as usize;
                if is_null(nulls, i) {
                    null
                } else {
                    self.hash_with(|h| hash_float(data[i], h))
                }
            })),
            Column::Bool { data, nulls } => out.extend(sel.iter().map(|&i| {
                let i = i as usize;
                if is_null(nulls, i) {
                    null
                } else {
                    self.hash_with(|h| hash_bool(data[i], h))
                }
            })),
            Column::Str {
                values,
                codes: Some(codes),
                ..
            } => {
                for &i in sel {
                    let i = i as usize;
                    let hash = if codes[i] == NULL_CODE {
                        null
                    } else {
                        self.hash_str_code(&values[i], codes[i])
                    };
                    out.push(hash);
                }
            }
            Column::Str {
                values,
                codes: None,
                nulls,
            } => out.extend(sel.iter().map(|&i| {
                let i = i as usize;
                if is_null(nulls, i) {
                    null
                } else {
                    self.hash_with(|h| hash_str(&values[i], h))
                }
            })),
            Column::Values(values) => {
                out.extend(
                    sel.iter()
                        .map(|&i| self.state.hash_one(&values[i as usize])),
                );
            }
        }
    }
}

/// Per-field decode state of a [`ChunkBuilder`].
struct FieldPlan {
    name: Arc<str>,
    /// Dictionary for [`Column::Str`] codes; `None` = plain strings.
    dict: Option<StrDict>,
    /// Guessed declaration-order position of the field, updated on the
    /// fly: rows from one source share their layout, so after the first
    /// row every lookup is a single indexed access plus a name check.
    guess: usize,
}

/// Decodes batches of struct rows into [`ColumnarChunk`]s.
///
/// One builder serves one scan: it is configured once with the fields the
/// compiled kernels reference and then fed consecutive row batches.  The
/// builder owns per-field dictionaries, so codes stay consistent across
/// every chunk of the scan.
///
/// # Examples
///
/// ```
/// use disco_value::{ChunkBuilder, Column, StructValue, Value};
///
/// let rows: Vec<Value> = (0..3)
///     .map(|i| {
///         Value::Struct(StructValue::new(vec![("salary", Value::Int(i * 100))]).unwrap())
///     })
///     .collect();
/// let mut builder = ChunkBuilder::new();
/// let salary = builder.add_field("salary");
/// let chunk = builder.build(&rows).expect("uniform struct rows decode");
/// match chunk.column(salary) {
///     Column::Int { data, nulls } => {
///         assert_eq!(data, &[0, 100, 200]);
///         assert!(nulls.is_none());
///     }
///     _ => panic!("salary decodes as an int column"),
/// }
/// ```
#[derive(Default)]
pub struct ChunkBuilder {
    fields: Vec<FieldPlan>,
}

impl ChunkBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        ChunkBuilder::default()
    }

    /// Registers a field to decode; returns its column index.
    pub fn add_field(&mut self, name: impl Into<Arc<str>>) -> usize {
        self.fields.push(FieldPlan {
            name: name.into(),
            dict: None,
            guess: 0,
        });
        self.fields.len() - 1
    }

    /// Registers a field to decode with dictionary-encoded string codes;
    /// returns its column index.
    pub fn add_dict_field(&mut self, name: impl Into<Arc<str>>) -> usize {
        let index = self.add_field(name);
        self.fields[index].dict = Some(StrDict::new());
        index
    }

    /// Number of registered fields.
    #[must_use]
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Decodes one batch of rows into a chunk, or `None` when the batch
    /// cannot be decoded strictly — some row is not a struct, or lacks a
    /// registered field.  (`None` is the fallback signal, not an error:
    /// the caller evaluates the batch per-row instead, which reproduces
    /// the exact row-path behaviour including its error reporting.)
    pub fn build(&mut self, rows: &[Value]) -> Option<ColumnarChunk> {
        let mut columns = Vec::with_capacity(self.fields.len());
        let mut scratch: Vec<&Value> = Vec::with_capacity(rows.len());
        for plan in &mut self.fields {
            scratch.clear();
            for row in rows {
                let Value::Struct(s) = row else {
                    return None;
                };
                scratch.push(lookup_field(s, plan)?);
            }
            columns.push(Arc::new(encode_column(&scratch, plan.dict.as_mut())));
        }
        Some(ColumnarChunk {
            len: rows.len(),
            columns,
        })
    }
}

/// Field lookup with a positional fast path (see [`FieldPlan::guess`]).
fn lookup_field<'v>(row: &'v StructValue, plan: &mut FieldPlan) -> Option<&'v Value> {
    if let Some((name, value)) = row.field_at(plan.guess) {
        if name == plan.name.as_ref() {
            return Some(value);
        }
    }
    let (index, value) = row.position(plan.name.as_ref())?;
    plan.guess = index;
    Some(value)
}

/// Classifies and encodes one column's values.
/// Rows `rows` of each of `parts` as one column: see
/// [`ColumnarChunk::gather`].
fn gather_column(parts: &[(&Column, &[u32])]) -> Column {
    /// The picked slots of every part, or `None` when a part's `data` is
    /// of another kind than the first's.
    fn pick<T: Clone>(
        parts: &[(&Column, &[u32])],
        data: impl Fn(&Column) -> Option<&[T]>,
    ) -> Option<Vec<T>> {
        let mut out = Vec::with_capacity(parts.iter().map(|(_, rows)| rows.len()).sum());
        for (column, rows) in parts {
            let data = data(column)?;
            out.extend(rows.iter().map(|&i| data[i as usize].clone()));
        }
        Some(out)
    }
    // A mask is kept only when a picked slot is null.
    let nulls = || {
        let mut mask = Vec::new();
        for (column, rows) in parts {
            match column.nulls() {
                Some(m) => mask.extend(rows.iter().map(|&i| m[i as usize])),
                None => mask.resize(mask.len() + rows.len(), false),
            }
        }
        mask.contains(&true).then_some(mask)
    };
    let typed = match parts.first().map(|(column, _)| *column) {
        Some(Column::Int { .. }) => pick(parts, |c| match c {
            Column::Int { data, .. } => Some(data.as_slice()),
            _ => None,
        })
        .map(|data| Column::Int {
            data,
            nulls: nulls(),
        }),
        Some(Column::Float { .. }) => pick(parts, |c| match c {
            Column::Float { data, .. } => Some(data.as_slice()),
            _ => None,
        })
        .map(|data| Column::Float {
            data,
            nulls: nulls(),
        }),
        Some(Column::Bool { .. }) => pick(parts, |c| match c {
            Column::Bool { data, .. } => Some(data.as_slice()),
            _ => None,
        })
        .map(|data| Column::Bool {
            data,
            nulls: nulls(),
        }),
        Some(Column::Str { .. }) => pick(parts, |c| match c {
            Column::Str { values, .. } => Some(values.as_slice()),
            _ => None,
        })
        .map(|values| Column::Str {
            values,
            codes: None,
            nulls: nulls(),
        }),
        Some(Column::Values(_)) => pick(parts, |c| match c {
            Column::Values(values) => Some(values.as_slice()),
            _ => None,
        })
        .map(Column::Values),
        None => None,
    };
    typed.unwrap_or_else(|| {
        let values: Vec<Value> = parts
            .iter()
            .flat_map(|(column, rows)| rows.iter().map(|&i| column.value_at(i as usize)))
            .collect();
        let refs: Vec<&Value> = values.iter().collect();
        encode_column(&refs, None)
    })
}

fn encode_column(values: &[&Value], dict: Option<&mut StrDict>) -> Column {
    #[derive(PartialEq, Eq, Clone, Copy)]
    enum Kind {
        Unknown,
        Int,
        Float,
        Bool,
        Str,
        Mixed,
    }
    let mut kind = Kind::Unknown;
    let mut has_null = false;
    for v in values {
        let this = match v {
            Value::Null => {
                has_null = true;
                continue;
            }
            Value::Int(_) => Kind::Int,
            Value::Float(_) => Kind::Float,
            Value::Bool(_) => Kind::Bool,
            Value::Str(_) => Kind::Str,
            _ => Kind::Mixed,
        };
        kind = match kind {
            Kind::Unknown => this,
            k if k == this => k,
            _ => Kind::Mixed,
        };
        if kind == Kind::Mixed {
            break;
        }
    }
    let nulls = || {
        if has_null {
            Some(values.iter().map(|v| v.is_null()).collect())
        } else {
            None
        }
    };
    match kind {
        Kind::Int => Column::Int {
            data: values
                .iter()
                .map(|v| if let Value::Int(i) = v { *i } else { 0 })
                .collect(),
            nulls: nulls(),
        },
        Kind::Float => Column::Float {
            data: values
                .iter()
                .map(|v| if let Value::Float(f) = v { *f } else { 0.0 })
                .collect(),
            nulls: nulls(),
        },
        Kind::Bool => Column::Bool {
            data: values
                .iter()
                .map(|v| matches!(v, Value::Bool(true)))
                .collect(),
            nulls: nulls(),
        },
        Kind::Str => {
            let empty: Arc<str> = Arc::from("");
            let strs: Vec<Arc<str>> = values
                .iter()
                .map(|v| {
                    if let Value::Str(s) = v {
                        Arc::clone(s)
                    } else {
                        Arc::clone(&empty)
                    }
                })
                .collect();
            let codes = dict.and_then(|d| {
                let mut codes = Vec::with_capacity(values.len());
                for (s, v) in strs.iter().zip(values) {
                    if v.is_null() {
                        codes.push(NULL_CODE);
                    } else {
                        codes.push(d.code(s)?);
                    }
                }
                Some(codes)
            });
            Column::Str {
                values: strs,
                codes,
                nulls: nulls(),
            }
        }
        // All-null columns land here too: boxed values keep the exact
        // per-element semantics without a dedicated all-null encoding.
        Kind::Unknown | Kind::Mixed => {
            Column::Values(values.iter().map(|v| (*v).clone()).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person(id: i64, name: &str) -> Value {
        Value::Struct(
            StructValue::new(vec![("id", Value::Int(id)), ("name", Value::from(name))]).unwrap(),
        )
    }

    #[test]
    fn decodes_typed_columns_with_dictionary_codes() {
        let rows = vec![person(1, "ann"), person(2, "bob"), person(3, "ann")];
        let mut b = ChunkBuilder::new();
        let id = b.add_field("id");
        let name = b.add_dict_field("name");
        let chunk = b.build(&rows).unwrap();
        assert_eq!(chunk.len(), 3);
        match chunk.column(id) {
            Column::Int { data, nulls } => {
                assert_eq!(data, &[1, 2, 3]);
                assert!(nulls.is_none());
            }
            _ => panic!("id is an int column"),
        }
        match chunk.column(name) {
            Column::Str { values, codes, .. } => {
                assert_eq!(values[0].as_ref(), "ann");
                let codes = codes.as_ref().unwrap();
                assert_eq!(codes[0], codes[2]);
                assert_ne!(codes[0], codes[1]);
            }
            _ => panic!("name is a str column"),
        }
    }

    #[test]
    fn dictionary_codes_are_stable_across_chunks() {
        let mut b = ChunkBuilder::new();
        let name = b.add_dict_field("name");
        let first = b.build(&[person(1, "ann"), person(2, "bob")]).unwrap();
        let second = b.build(&[person(3, "bob"), person(4, "cay")]).unwrap();
        let (
            Column::Str {
                codes: Some(c1), ..
            },
            Column::Str {
                codes: Some(c2), ..
            },
        ) = (first.column(name), second.column(name))
        else {
            panic!("dictionary columns");
        };
        assert_eq!(c1[1], c2[0], "equal strings share a code across chunks");
        assert_ne!(c2[0], c2[1]);
    }

    #[test]
    fn null_masks_mark_null_slots() {
        let rows = vec![
            Value::Struct(StructValue::new(vec![("x", Value::Int(1))]).unwrap()),
            Value::Struct(StructValue::new(vec![("x", Value::Null)]).unwrap()),
        ];
        let mut b = ChunkBuilder::new();
        let x = b.add_field("x");
        let chunk = b.build(&rows).unwrap();
        match chunk.column(x) {
            Column::Int { data, nulls } => {
                assert_eq!(data, &[1, 0]);
                assert_eq!(nulls.as_deref(), Some(&[false, true][..]));
            }
            _ => panic!("int column with nulls"),
        }
    }

    #[test]
    fn missing_field_or_non_struct_rows_refuse_to_decode() {
        let mut b = ChunkBuilder::new();
        b.add_field("salary");
        assert!(b.build(&[person(1, "ann")]).is_none(), "missing field");
        assert!(b.build(&[Value::Int(7)]).is_none(), "non-struct row");
    }

    #[test]
    fn key_hasher_matches_canonical_hash_one() {
        // Every column shape must hash bit-identically to
        // RandomState::hash_one over the re-boxed values — including
        // integral floats (which the canonical hash unifies with ints),
        // NaN, nulls, dictionary strings, and mixed columns.
        let rows: Vec<Value> = vec![
            Value::Struct(
                StructValue::new(vec![
                    ("i", Value::Int(42)),
                    ("f", Value::Float(42.0)),
                    ("g", Value::Float(f64::NAN)),
                    ("s", Value::from("ann")),
                    ("m", Value::Int(1)),
                ])
                .unwrap(),
            ),
            Value::Struct(
                StructValue::new(vec![
                    ("i", Value::Null),
                    ("f", Value::Float(2.5)),
                    ("g", Value::Float(-0.0)),
                    ("s", Value::from("ann")),
                    ("m", Value::from("one")),
                ])
                .unwrap(),
            ),
            Value::Struct(
                StructValue::new(vec![
                    ("i", Value::Int(-7)),
                    ("f", Value::Null),
                    ("g", Value::Float(1e300)),
                    ("s", Value::Null),
                    ("m", Value::Bool(true)),
                ])
                .unwrap(),
            ),
        ];
        let mut b = ChunkBuilder::new();
        let cols = vec![
            b.add_field("i"),
            b.add_field("f"),
            b.add_field("g"),
            b.add_dict_field("s"),
            b.add_field("m"),
        ];
        let chunk = b.build(&rows).unwrap();
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        let state = RandomState::new();
        for idx in cols {
            let col = chunk.column(idx);
            let mut kh = KeyHasher::with_state(state.clone());
            let mut hashes = Vec::new();
            kh.hash_column(col, &sel, &mut hashes);
            for (j, &i) in sel.iter().enumerate() {
                let expect = state.hash_one(col.value_at(i as usize));
                assert_eq!(hashes[j], expect, "column {idx} row {i}");
            }
        }
    }

    #[test]
    fn key_hasher_int_hash_matches_equal_float() {
        // Int(5) == Float(5.0) under total_cmp equality, so their hashes
        // agree; the batched primitive must preserve that across typed
        // columns for mixed int/float join keys to meet in one bucket.
        let state = RandomState::new();
        let kh = KeyHasher::with_state(state.clone());
        assert_eq!(
            kh.hash_value(&Value::Int(5)),
            kh.hash_value(&Value::Float(5.0))
        );
        assert_eq!(kh.hash_value(&Value::Int(5)), state.hash_one(Value::Int(5)));
    }

    #[test]
    fn column_value_at_reboxes_nulls() {
        let rows = vec![
            Value::Struct(StructValue::new(vec![("x", Value::Int(1))]).unwrap()),
            Value::Struct(StructValue::new(vec![("x", Value::Null)]).unwrap()),
        ];
        let mut b = ChunkBuilder::new();
        let x = b.add_field("x");
        let chunk = b.build(&rows).unwrap();
        assert_eq!(chunk.column(x).value_at(0), Value::Int(1));
        assert_eq!(chunk.column(x).value_at(1), Value::Null);
    }

    #[test]
    fn gather_copies_like_columns_and_re_encodes_unlike_ones() {
        let field = |v: Value| Value::Struct(StructValue::new(vec![("x", v)]).unwrap());
        let mut b = ChunkBuilder::new();
        let x = b.add_dict_field("x");
        let strs = b
            .build(&[
                field(Value::from("a")),
                field(Value::Null),
                field(Value::from("c")),
            ])
            .unwrap();
        let more = b.build(&[field(Value::from("d"))]).unwrap();
        let ints = b
            .build(&[field(Value::Int(7)), field(Value::Int(8))])
            .unwrap();
        let values = |chunk: &ColumnarChunk| {
            (0..chunk.len())
                .map(|i| chunk.column(x).value_at(i))
                .collect::<Vec<_>>()
        };

        // Like parts: copied, codes dropped, a mask only if a picked slot
        // is null.
        let like = ColumnarChunk::gather(&[(&strs, &[2, 1]), (&more, &[0])]);
        assert!(matches!(
            like.column(x),
            Column::Str {
                codes: None,
                nulls: Some(_),
                ..
            }
        ));
        assert_eq!(
            values(&like),
            vec![Value::from("c"), Value::Null, Value::from("d")]
        );
        let unmasked = ColumnarChunk::gather(&[(&strs, &[0, 2])]);
        assert!(matches!(
            unmasked.column(x),
            Column::Str { nulls: None, .. }
        ));

        // Unlike parts: re-encoded from their values.
        let unlike = ColumnarChunk::gather(&[(&ints, &[1]), (&more, &[0])]);
        assert!(matches!(unlike.column(x), Column::Values(_)));
        assert_eq!(values(&unlike), vec![Value::Int(8), Value::from("d")]);
        assert!(ColumnarChunk::gather(&[]).is_empty());
    }

    #[test]
    fn mixed_types_fall_back_to_boxed_values() {
        let rows = vec![
            Value::Struct(StructValue::new(vec![("x", Value::Int(1))]).unwrap()),
            Value::Struct(StructValue::new(vec![("x", Value::from("one"))]).unwrap()),
        ];
        let mut b = ChunkBuilder::new();
        let x = b.add_field("x");
        let chunk = b.build(&rows).unwrap();
        assert!(matches!(chunk.column(x), Column::Values(vs) if vs.len() == 2));
    }
}

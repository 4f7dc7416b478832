//! Vectorized scalar kernels over columnar chunks.
//!
//! A [`Kernel`] is a scalar expression compiled against the field layout
//! of a scan: attribute references become column slots, and evaluation
//! runs over whole columns of a [`ColumnarChunk`] instead of building a
//! row [`Env`](crate::Env) per value.  The kernel set is deliberately a
//! *subset* of the evaluator — constants, column references, the binary
//! operators, `not` and struct literals over those.  Everything else
//! (sub-query aggregates, function calls, whole-row variables) refuses to
//! compile, and the engine evaluates those expressions through the
//! per-row path.  A struct literal stays a set of per-field result
//! vectors ([`EvalVec::Struct`]) until a consumer needs a row: a
//! `distinct` hashes and compares it on the columns, and a row's struct
//! is built — in one allocation — only when somebody takes it.
//!
//! Two invariants keep the kernels exactly equivalent to
//! [`eval_binary`] / `eval_scalar_with`:
//!
//! * Typed fast paths exist only where the scalar semantics are a plain
//!   machine operation (`i64` comparisons and arithmetic on null-free
//!   columns).  Every other element pair funnels through the *actual*
//!   [`eval_binary`], so `total_cmp` ordering, NaN handling, null
//!   propagation and string concatenation cannot drift.
//! * A kernel never reports an evaluation error.  Any error — division
//!   by zero, a type mismatch — makes evaluation *bail* (`None`), and
//!   the engine re-runs that batch per-row, which reproduces the exact
//!   row-path error at the exact row it would have occurred.

use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use disco_value::{
    hash_bool, hash_int, hash_null, hash_str, hash_struct_head, hash_struct_with, Column,
    ColumnarChunk, StructValue, Value,
};

use crate::scalar::{eval_binary, truthy, ScalarExpr, ScalarOp};

/// A compiled kernel expression tree.
#[derive(Debug, Clone)]
pub struct Kernel {
    node: KernelNode,
}

#[derive(Debug, Clone)]
enum KernelNode {
    Const(Value),
    Col(usize),
    Binary {
        op: ScalarOp,
        left: Box<KernelNode>,
        right: Box<KernelNode>,
    },
    Not(Box<KernelNode>),
    /// A struct-literal projection: per-field kernels, evaluated into an
    /// [`EvalVec::Struct`].  Field names are verified distinct at compile
    /// time, so assembling a row's struct skips the duplicate scan.
    Struct(Vec<(Arc<str>, KernelNode)>),
}

/// Refuses struct literals whose field names repeat — the row evaluator
/// reports `DuplicateField` for those, so they must stay on the row path.
fn distinct_names(fields: &[(Arc<str>, ScalarExpr)]) -> bool {
    fields
        .iter()
        .enumerate()
        .all(|(i, (n, _))| fields[..i].iter().all(|(m, _)| m != n))
}

/// Compiles scalar expressions into [`Kernel`]s against one scan's field
/// layout.
///
/// The builder accumulates the set of referenced fields across every
/// kernel of a fused pipeline stretch (one filter chain plus projection),
/// so the chunk decoder materializes each referenced column exactly once.
/// Column slots index into [`KernelBuilder::fields`] order.
#[derive(Debug, Default)]
pub struct KernelBuilder {
    binding: Option<String>,
    fields: Vec<Arc<str>>,
}

impl KernelBuilder {
    /// A builder for rows bound under `binding` (`bind x` pipelines read
    /// fields as `x.field`), or for raw struct rows (`None`: fields are
    /// plain attributes).
    #[must_use]
    pub fn new(binding: Option<&str>) -> Self {
        KernelBuilder {
            binding: binding.map(str::to_owned),
            fields: Vec::new(),
        }
    }

    /// Switches the binding the *next* expressions compile under, keeping
    /// the column slots claimed so far: the operators beneath a `bind x`
    /// read `salary`, those above it `x.salary`, and both mean the same
    /// column of the same decoded chunk.
    pub fn rebind(&mut self, binding: Option<&str>) {
        self.binding = binding.map(str::to_owned);
    }

    /// The referenced field names, in column-slot order.
    #[must_use]
    pub fn fields(&self) -> &[Arc<str>] {
        &self.fields
    }

    /// Compiles `expr`; `None` when any part of it is outside the kernel
    /// subset (the caller then keeps the per-row evaluator for it).
    pub fn compile(&mut self, expr: &ScalarExpr) -> Option<Kernel> {
        self.node(expr).map(|node| Kernel { node })
    }

    fn node(&mut self, expr: &ScalarExpr) -> Option<KernelNode> {
        match expr {
            ScalarExpr::Const(v) => Some(KernelNode::Const(v.clone())),
            // Unbound rows: a name resolves in the row scope itself.
            // The chunk decoder guarantees the field is present in every
            // row, so the innermost scope always wins the lookup — outer
            // environments can never shadow it.
            ScalarExpr::Attr(name) | ScalarExpr::Var(name) if self.binding.is_none() => {
                Some(KernelNode::Col(self.slot(name)))
            }
            // Bound rows `{b: row}`: only `b.field` paths touch the row.
            ScalarExpr::Field(base, field) => match (base.as_ref(), &self.binding) {
                (ScalarExpr::Var(v) | ScalarExpr::Attr(v), Some(b)) if v == b => {
                    Some(KernelNode::Col(self.slot(field)))
                }
                _ => None,
            },
            ScalarExpr::Binary { op, left, right } => Some(KernelNode::Binary {
                op: *op,
                left: Box::new(self.node(left)?),
                right: Box::new(self.node(right)?),
            }),
            ScalarExpr::Not(inner) => Some(KernelNode::Not(Box::new(self.node(inner)?))),
            ScalarExpr::StructLit(fields) if distinct_names(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (name, e) in fields {
                    out.push((Arc::clone(name), self.node(e)?));
                }
                Some(KernelNode::Struct(out))
            }
            ScalarExpr::Attr(_)
            | ScalarExpr::Var(_)
            | ScalarExpr::StructLit(_)
            | ScalarExpr::Agg(..)
            | ScalarExpr::Call(..) => None,
        }
    }

    fn slot(&mut self, name: &str) -> usize {
        if let Some(i) = self.fields.iter().position(|f| f.as_ref() == name) {
            return i;
        }
        self.fields.push(Arc::from(name));
        self.fields.len() - 1
    }
}

/// A dense result vector, aligned with the *selected* rows of a chunk
/// (element `i` is the result for the `i`-th selected row).
pub enum EvalVec {
    /// Integer results; null slots hold `0` under the mask.
    Int {
        /// Result values.
        data: Vec<i64>,
        /// Null mask (`Some` only when nulls are present).
        nulls: Option<Vec<bool>>,
    },
    /// Boolean results; null slots hold `false` under the mask.
    Bool {
        /// Result values.
        data: Vec<bool>,
        /// Null mask (`Some` only when nulls are present).
        nulls: Option<Vec<bool>>,
    },
    /// String results with optional dictionary codes from the scan's
    /// dictionary; null slots hold an empty string / `NULL_CODE`.
    Str {
        /// Result values.
        values: Vec<Arc<str>>,
        /// Dictionary codes (equal string ⇔ equal code) when the source
        /// column was dictionary-encoded.
        codes: Option<Vec<u32>>,
        /// Null mask (`Some` only when nulls are present).
        nulls: Option<Vec<bool>>,
    },
    /// One value broadcast over every selected row.
    Const(Value),
    /// Boxed per-element results (mixed types, generic operator path).
    Values(Vec<Value>),
    /// Struct-literal results, one struct per selected row, kept as the
    /// result vectors of its fields in declaration order (names distinct).
    /// [`EvalVec::value_at`] assembles a row's struct on demand.
    Struct(Vec<(Arc<str>, EvalVec)>),
}

impl EvalVec {
    /// The result for the `i`-th selected row as an owned [`Value`]
    /// (`Arc` bump for strings, copy for scalars).
    ///
    /// # Panics
    ///
    /// Panics when `i` is outside the selection the vector was computed
    /// for.
    #[must_use]
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            EvalVec::Int { data, nulls } => {
                if is_null(nulls, i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            }
            EvalVec::Bool { data, nulls } => {
                if is_null(nulls, i) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            }
            EvalVec::Str { values, nulls, .. } => {
                if is_null(nulls, i) {
                    Value::Null
                } else {
                    Value::Str(Arc::clone(&values[i]))
                }
            }
            EvalVec::Const(v) => v.clone(),
            EvalVec::Values(vs) => vs[i].clone(),
            EvalVec::Struct(fields) => Value::Struct(StructValue::from_distinct_iter(
                fields
                    .iter()
                    .map(|(name, vec)| (Arc::clone(name), vec.value_at(i))),
            )),
        }
    }

    /// Appends the results for the selected rows `range` to `out`,
    /// consuming the vector: what [`EvalVec::value_at`] would give for
    /// each `i` in `range`, in order, with strings and boxed values moved
    /// out instead of cloned.  A struct is built from its fields' moved
    /// values, in one allocation.
    ///
    /// # Panics
    ///
    /// Panics when `range` reaches outside the selection the vector was
    /// computed for.
    pub fn drain_into(self, range: Range<usize>, out: &mut Vec<Value>) {
        match self {
            EvalVec::Int { data, nulls } => out.extend(range.map(|i| {
                if is_null(&nulls, i) {
                    Value::Null
                } else {
                    Value::Int(data[i])
                }
            })),
            EvalVec::Bool { data, nulls } => out.extend(range.map(|i| {
                if is_null(&nulls, i) {
                    Value::Null
                } else {
                    Value::Bool(data[i])
                }
            })),
            EvalVec::Str {
                mut values, nulls, ..
            } => out.extend(range.clone().zip(values.drain(range)).map(|(i, s)| {
                if is_null(&nulls, i) {
                    Value::Null
                } else {
                    Value::Str(s)
                }
            })),
            EvalVec::Const(v) => out.extend(range.map(|_| v.clone())),
            EvalVec::Values(mut vs) => out.extend(vs.drain(range)),
            EvalVec::Struct(fields) => {
                let n = range.len();
                let mut columns: Vec<(Arc<str>, Vec<Value>)> = fields
                    .into_iter()
                    .map(|(name, vec)| {
                        let mut column = Vec::with_capacity(n);
                        vec.drain_into(range.clone(), &mut column);
                        (name, column)
                    })
                    .collect();
                out.extend((0..n).map(|j| {
                    Value::Struct(StructValue::from_distinct_iter(columns.iter_mut().map(
                        |(name, column)| (Arc::clone(name), std::mem::take(&mut column[j])),
                    )))
                }));
            }
        }
    }

    /// Feeds `state` exactly what `self.value_at(i).hash(state)` would,
    /// through the same word writers, building no value.
    fn hash_at<H: Hasher>(&self, i: usize, state: &mut H) {
        match self {
            EvalVec::Int { data, nulls } if !is_null(nulls, i) => hash_int(data[i], state),
            EvalVec::Bool { data, nulls } if !is_null(nulls, i) => hash_bool(data[i], state),
            EvalVec::Str { values, nulls, .. } if !is_null(nulls, i) => hash_str(&values[i], state),
            EvalVec::Int { .. } | EvalVec::Bool { .. } | EvalVec::Str { .. } => hash_null(state),
            EvalVec::Const(v) => v.hash(state),
            EvalVec::Values(vs) => vs[i].hash(state),
            EvalVec::Struct(fields) => hash_struct_with(
                fields.len(),
                |k| &fields[k].0,
                |k, state| fields[k].1.hash_at(i, state),
                state,
            ),
        }
    }

    /// Whether `self.value_at(i) == *other`, borrowing both sides: a slot
    /// against a value of its own kind compares the payloads, and only an
    /// `Int` slot against a `Float` goes through `Value` equality.
    fn eq_at(&self, i: usize, other: &Value) -> bool {
        match self {
            EvalVec::Int { data, nulls } if !is_null(nulls, i) => match other {
                Value::Int(o) => data[i] == *o,
                Value::Float(_) => Value::Int(data[i]) == *other,
                _ => false,
            },
            EvalVec::Bool { data, nulls } if !is_null(nulls, i) => {
                matches!(other, Value::Bool(o) if *o == data[i])
            }
            EvalVec::Str { values, nulls, .. } if !is_null(nulls, i) => {
                matches!(other, Value::Str(s) if **s == *values[i])
            }
            EvalVec::Int { .. } | EvalVec::Bool { .. } | EvalVec::Str { .. } => other.is_null(),
            EvalVec::Const(v) => v == other,
            EvalVec::Values(vs) => vs[i] == *other,
            EvalVec::Struct(_) => self.struct_eq_at(i, other),
        }
    }

    /// Appends the hashes of the first `n` structs of an
    /// [`EvalVec::Struct`] under `state` to `out`, each bit-identical to
    /// `state.hash_one(&self.value_at(i))`, building no struct: the
    /// fields are put in name order once per call, and each row is one
    /// pass of [`hash_struct_head`] and its field slots.  `false`, with
    /// nothing appended, for any other variant.
    pub fn struct_hashes(&self, state: &impl BuildHasher, n: usize, out: &mut Vec<u64>) -> bool {
        let EvalVec::Struct(fields) = self else {
            return false;
        };
        let mut by_name: Vec<&(Arc<str>, EvalVec)> = fields.iter().collect();
        by_name.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out.extend((0..n).map(|i| {
            let mut h = state.build_hasher();
            hash_struct_head(fields.len(), &mut h);
            for (_, vec) in &by_name {
                vec.hash_at(i, &mut h);
            }
            h.finish()
        }));
        true
    }

    /// Whether the `i`-th struct of an [`EvalVec::Struct`] equals `other`
    /// — `self.value_at(i) == *other` — compared field by field when
    /// `other` is a struct declaring the same names in the same order (a
    /// value of the same kernel always does), and by assembling the
    /// candidate only when the order differs.
    #[must_use]
    pub fn struct_eq_at(&self, i: usize, other: &Value) -> bool {
        let (EvalVec::Struct(fields), Value::Struct(stored)) = (self, other) else {
            return self.value_at(i) == *other;
        };
        if fields.len() != stored.len() {
            return false;
        }
        let same_order = fields
            .iter()
            .zip(stored.field_names())
            .all(|((name, _), stored_name)| name.as_ref() == stored_name);
        if !same_order {
            return self.value_at(i) == *other;
        }
        fields
            .iter()
            .zip(stored.iter())
            .all(|((_, vec), (_, value))| vec.eq_at(i, value))
    }

    /// OQL truthiness of each of the `n` selected results (only a
    /// non-null `true` is true) — the filter's selection update.
    #[must_use]
    pub fn truthy_mask(&self, n: usize) -> Vec<bool> {
        match self {
            EvalVec::Bool { data, nulls } => {
                (0..n).map(|i| data[i] && !is_null(nulls, i)).collect()
            }
            EvalVec::Const(v) => vec![truthy(v); n],
            EvalVec::Values(vs) => vs.iter().map(truthy).collect(),
            _ => vec![false; n],
        }
    }
}

fn is_null(nulls: &Option<Vec<bool>>, i: usize) -> bool {
    nulls.as_ref().is_some_and(|m| m[i])
}

impl Kernel {
    /// Evaluates the kernel over the selected rows of `chunk`
    /// (`selection` holds in-chunk row indexes).  `None` means *bail*:
    /// an unsupported type combination or a would-be evaluation error —
    /// the caller must re-evaluate the batch per-row.
    #[must_use]
    pub fn eval(&self, chunk: &ColumnarChunk, selection: &[u32]) -> Option<EvalVec> {
        eval_node(&self.node, chunk, selection)
    }

    /// Narrows `sel` — in-chunk row indexes of `chunk` — to the rows
    /// where the predicate is truthy, in order, and `along`, a vector kept
    /// index for index with `sel`, with it: the filter's selection update.
    /// An integer comparison over null-free `Int` columns (`col op const`
    /// in either order, `col op col`) compares in place, the operator
    /// matched once per call; every other predicate takes [`Kernel::eval`]
    /// and its truthiness.  Either way the survivors are compacted in one
    /// branch-free pass.  `None` is `eval`'s bail, with both vectors left
    /// as they were.
    ///
    /// # Panics
    ///
    /// Panics when `along` is not as long as `sel`.
    pub fn narrow(
        &self,
        chunk: &ColumnarChunk,
        sel: &mut Vec<u32>,
        along: Option<&mut Vec<u32>>,
    ) -> Option<()> {
        if let Some((op, left, right)) = self.int_comparison(chunk) {
            match right {
                IntOperand::Const(c) => compare_into(op, |i| left[i], |_| c, sel, along),
                IntOperand::Col(right) => compare_into(op, |i| left[i], |i| right[i], sel, along),
            }
            return Some(());
        }
        let verdicts = self.eval(chunk, sel)?.truthy_mask(sel.len());
        compact(sel, along, |r, _| verdicts[r]);
        Some(())
    }

    /// `col op const`, `const op col` (as `col op' const`, the operator
    /// mirrored) or `col op col` over null-free `Int` columns of `chunk`.
    fn int_comparison<'c>(
        &self,
        chunk: &'c ColumnarChunk,
    ) -> Option<(ScalarOp, &'c [i64], IntOperand<'c>)> {
        let KernelNode::Binary { op, left, right } = &self.node else {
            return None;
        };
        if !op.is_comparison() {
            return None;
        }
        let column = |node: &KernelNode| match node {
            KernelNode::Col(slot) => match chunk.column(*slot) {
                Column::Int { data, nulls: None } => Some(data.as_slice()),
                _ => None,
            },
            _ => None,
        };
        let constant = |node: &KernelNode| match node {
            KernelNode::Const(Value::Int(c)) => Some(*c),
            _ => None,
        };
        match (column(left), column(right)) {
            (Some(l), Some(r)) => Some((*op, l, IntOperand::Col(r))),
            (Some(l), None) => Some((*op, l, IntOperand::Const(constant(right)?))),
            (None, Some(r)) => Some((mirrored(*op), r, IntOperand::Const(constant(left)?))),
            (None, None) => None,
        }
    }

    /// The column slots the kernel reads (a slot read twice is listed
    /// twice) — what a consumer checks when not every field of a row may
    /// be read.
    #[must_use]
    pub fn columns(&self) -> Vec<usize> {
        fn walk(node: &KernelNode, out: &mut Vec<usize>) {
            match node {
                KernelNode::Const(_) => {}
                KernelNode::Col(slot) => out.push(*slot),
                KernelNode::Binary { left, right, .. } => {
                    walk(left, out);
                    walk(right, out);
                }
                KernelNode::Not(inner) => walk(inner, out),
                KernelNode::Struct(fields) => fields.iter().for_each(|(_, n)| walk(n, out)),
            }
        }
        let mut out = Vec::new();
        walk(&self.node, &mut out);
        out
    }

    /// When the kernel is a bare column read, returns its column slot.
    ///
    /// Bare reads are worth special-casing by the engine: the projected
    /// value can be borrowed straight from the source row, skipping both
    /// the column decode and the [`EvalVec`] gather.
    #[must_use]
    pub fn as_col(&self) -> Option<usize> {
        match self.node {
            KernelNode::Col(slot) => Some(slot),
            _ => None,
        }
    }
}

fn eval_node(node: &KernelNode, chunk: &ColumnarChunk, sel: &[u32]) -> Option<EvalVec> {
    match node {
        KernelNode::Const(v) => Some(EvalVec::Const(v.clone())),
        KernelNode::Col(slot) => Some(gather(chunk.column(*slot), sel)),
        KernelNode::Not(inner) => {
            let v = eval_node(inner, chunk, sel)?;
            let mut data = v.truthy_mask(sel.len());
            for b in &mut data {
                *b = !*b;
            }
            Some(EvalVec::Bool { data, nulls: None })
        }
        KernelNode::Binary { op, left, right } => {
            // Both operands are always evaluated first — `and`/`or` do
            // not short-circuit in the row evaluator either.
            let l = eval_node(left, chunk, sel)?;
            let r = eval_node(right, chunk, sel)?;
            eval_binary_vec(*op, &l, &r, sel.len())
        }
        KernelNode::Struct(fields) => {
            let mut evaluated = Vec::with_capacity(fields.len());
            for (name, node) in fields {
                evaluated.push((Arc::clone(name), eval_node(node, chunk, sel)?));
            }
            Some(EvalVec::Struct(evaluated))
        }
    }
}

/// Gathers one column over the selection into a dense vector.
fn gather(column: &Column, sel: &[u32]) -> EvalVec {
    let pick = |m: &Option<Vec<bool>>| -> Option<Vec<bool>> {
        m.as_ref()
            .map(|m| sel.iter().map(|&i| m[i as usize]).collect())
    };
    match column {
        Column::Int { data, nulls } => EvalVec::Int {
            data: sel.iter().map(|&i| data[i as usize]).collect(),
            nulls: pick(nulls),
        },
        Column::Float { data, nulls } => EvalVec::Values(
            sel.iter()
                .map(|&i| {
                    if nulls.as_ref().is_some_and(|m| m[i as usize]) {
                        Value::Null
                    } else {
                        Value::Float(data[i as usize])
                    }
                })
                .collect(),
        ),
        Column::Bool { data, nulls } => EvalVec::Bool {
            data: sel.iter().map(|&i| data[i as usize]).collect(),
            nulls: pick(nulls),
        },
        Column::Str {
            values,
            codes,
            nulls,
        } => EvalVec::Str {
            values: sel
                .iter()
                .map(|&i| Arc::clone(&values[i as usize]))
                .collect(),
            codes: codes
                .as_ref()
                .map(|c| sel.iter().map(|&i| c[i as usize]).collect()),
            nulls: pick(nulls),
        },
        Column::Values(vs) => {
            EvalVec::Values(sel.iter().map(|&i| vs[i as usize].clone()).collect())
        }
    }
}

/// Vectorized [`eval_binary`]: typed fast paths where semantics are plain
/// `i64` machine ops, the real `eval_binary` element-wise everywhere
/// else, and `None` (bail to the row path) on any would-be error.
fn eval_binary_vec(op: ScalarOp, l: &EvalVec, r: &EvalVec, n: usize) -> Option<EvalVec> {
    use ScalarOp::{Add, And, Div, Mul, Or, Sub};
    match op {
        And => {
            let (lt, rt) = (l.truthy_mask(n), r.truthy_mask(n));
            Some(EvalVec::Bool {
                data: lt.iter().zip(&rt).map(|(a, b)| *a && *b).collect(),
                nulls: None,
            })
        }
        Or => {
            let (lt, rt) = (l.truthy_mask(n), r.truthy_mask(n));
            Some(EvalVec::Bool {
                data: lt.iter().zip(&rt).map(|(a, b)| *a || *b).collect(),
                nulls: None,
            })
        }
        _ if op.is_comparison() => match (l, r) {
            (EvalVec::Int { data, nulls: None }, EvalVec::Const(Value::Int(c))) => {
                Some(EvalVec::Bool {
                    data: data.iter().map(|&a| int_cmp(op, a, *c)).collect(),
                    nulls: None,
                })
            }
            (EvalVec::Const(Value::Int(c)), EvalVec::Int { data, nulls: None }) => {
                Some(EvalVec::Bool {
                    data: data.iter().map(|&b| int_cmp(op, *c, b)).collect(),
                    nulls: None,
                })
            }
            (
                EvalVec::Int {
                    data: a,
                    nulls: None,
                },
                EvalVec::Int {
                    data: b,
                    nulls: None,
                },
            ) => Some(EvalVec::Bool {
                data: a.iter().zip(b).map(|(&a, &b)| int_cmp(op, a, b)).collect(),
                nulls: None,
            }),
            _ => generic_binary(op, l, r, n),
        },
        Add | Sub | Mul | Div => match (l, r) {
            (EvalVec::Int { data, nulls: None }, EvalVec::Const(Value::Int(c))) => {
                int_arith(op, data.iter().copied(), std::iter::repeat(*c), n)
            }
            (EvalVec::Const(Value::Int(c)), EvalVec::Int { data, nulls: None }) => {
                int_arith(op, std::iter::repeat(*c), data.iter().copied(), n)
            }
            (
                EvalVec::Int {
                    data: a,
                    nulls: None,
                },
                EvalVec::Int {
                    data: b,
                    nulls: None,
                },
            ) => int_arith(op, a.iter().copied(), b.iter().copied(), n),
            _ => generic_binary(op, l, r, n),
        },
        _ => generic_binary(op, l, r, n),
    }
}

/// `i64` comparison with `eval_binary`'s semantics (null-free operands:
/// `total_cmp` on two ints is the machine comparison, `Eq` included).
fn int_cmp(op: ScalarOp, a: i64, b: i64) -> bool {
    match op {
        ScalarOp::Eq => a == b,
        ScalarOp::NotEq => a != b,
        ScalarOp::Lt => a < b,
        ScalarOp::Le => a <= b,
        ScalarOp::Gt => a > b,
        ScalarOp::Ge => a >= b,
        _ => unreachable!("comparison operator"),
    }
}

/// The right-hand side of a comparison [`Kernel::narrow`] runs in place.
enum IntOperand<'c> {
    Const(i64),
    Col(&'c [i64]),
}

/// The comparison `b op' a` that holds exactly when `a op b` does.
fn mirrored(op: ScalarOp) -> ScalarOp {
    match op {
        ScalarOp::Lt => ScalarOp::Gt,
        ScalarOp::Le => ScalarOp::Ge,
        ScalarOp::Gt => ScalarOp::Lt,
        ScalarOp::Ge => ScalarOp::Le,
        other => other,
    }
}

/// Narrows `sel` (and `along`) to the chunk rows `i` where
/// `left(i) op right(i)`: [`int_cmp`]'s semantics, the operator matched
/// once for the whole selection.
fn compare_into(
    op: ScalarOp,
    left: impl Fn(usize) -> i64,
    right: impl Fn(usize) -> i64,
    sel: &mut Vec<u32>,
    along: Option<&mut Vec<u32>>,
) {
    match op {
        ScalarOp::Eq => compact(sel, along, |_, i| left(i) == right(i)),
        ScalarOp::NotEq => compact(sel, along, |_, i| left(i) != right(i)),
        ScalarOp::Lt => compact(sel, along, |_, i| left(i) < right(i)),
        ScalarOp::Le => compact(sel, along, |_, i| left(i) <= right(i)),
        ScalarOp::Gt => compact(sel, along, |_, i| left(i) > right(i)),
        ScalarOp::Ge => compact(sel, along, |_, i| left(i) >= right(i)),
        _ => unreachable!("comparison operator"),
    }
}

/// Keeps the entries of `sel` — and of `along`, index for index — whose
/// verdict `keep(position, chunk row)` holds, in order, in one pass with
/// no branch on the verdict: each entry is written at the write cursor,
/// which then advances by the verdict.
fn compact(
    sel: &mut Vec<u32>,
    along: Option<&mut Vec<u32>>,
    mut keep: impl FnMut(usize, usize) -> bool,
) {
    let mut kept = 0;
    match along {
        None => {
            for r in 0..sel.len() {
                let row = sel[r];
                sel[kept] = row;
                kept += usize::from(keep(r, row as usize));
            }
        }
        Some(along) => {
            assert_eq!(along.len(), sel.len(), "a vector kept parallel to `sel`");
            for r in 0..sel.len() {
                let (row, with) = (sel[r], along[r]);
                sel[kept] = row;
                along[kept] = with;
                kept += usize::from(keep(r, row as usize));
            }
            along.truncate(kept);
        }
    }
    sel.truncate(kept);
}

/// Null-free `i64` arithmetic through the row evaluator's own checked
/// [`int_arith`](crate::scalar::int_arith): a zero divisor or an overflow
/// bails the batch, so the row path reports the typed error at the exact
/// offending row.
fn int_arith(
    op: ScalarOp,
    a: impl Iterator<Item = i64>,
    b: impl Iterator<Item = i64>,
    n: usize,
) -> Option<EvalVec> {
    let mut data = Vec::with_capacity(n);
    for (a, b) in a.zip(b).take(n) {
        data.push(crate::scalar::int_arith(op, a, b).ok()?);
    }
    Some(EvalVec::Int { data, nulls: None })
}

/// A kernel expression over *pairs* of rows from two chunks — the shape a
/// hash join's fused output projection needs: `struct(name: x.name,
/// total: x.salary + y.salary)` reads the probe-side chunk through one
/// binding and the build-side payload chunk through the other.
///
/// Evaluation takes two parallel selection vectors (`i`-th pair =
/// `left_sel[i]`-th row of the left chunk joined with `right_sel[i]`-th
/// row of the right chunk), so one matched probe row fanning out to many
/// build rows is just a repeated index — no row materialization at all.
#[derive(Debug, Clone)]
pub struct PairKernel {
    node: PairNode,
}

#[derive(Debug, Clone)]
enum PairNode {
    Const(Value),
    Left(usize),
    Right(usize),
    Binary {
        op: ScalarOp,
        left: Box<PairNode>,
        right: Box<PairNode>,
    },
    Not(Box<PairNode>),
    Struct(Vec<(Arc<str>, PairNode)>),
}

/// Compiles scalar expressions against the field layouts of *two* bound
/// sides (the join's left and right binding variables).
///
/// Like [`KernelBuilder`], the builder accumulates each side's referenced
/// fields so the engine decodes exactly those columns; the left/right
/// field lists may be seeded with fields another kernel already claimed
/// (e.g. the side's filter/key columns) so every kernel of one side
/// shares a single chunk layout.
#[derive(Debug)]
pub struct PairKernelBuilder {
    left: String,
    right: String,
    left_fields: Vec<Arc<str>>,
    right_fields: Vec<Arc<str>>,
}

impl PairKernelBuilder {
    /// A builder for pair rows `{left: …, right: …}`.  `None` when the
    /// two bindings collide — shadowing rules make such pairs ambiguous,
    /// so they stay on the per-row evaluator.
    #[must_use]
    pub fn new(left: &str, right: &str) -> Option<Self> {
        if left == right {
            return None;
        }
        Some(PairKernelBuilder {
            left: left.to_owned(),
            right: right.to_owned(),
            left_fields: Vec::new(),
            right_fields: Vec::new(),
        })
    }

    /// Pre-claims column slots on the left side (slots `0..fields.len()`
    /// map to `fields` in order).
    pub fn seed_left(&mut self, fields: &[Arc<str>]) {
        self.left_fields = fields.to_vec();
    }

    /// Pre-claims column slots on the right side.
    pub fn seed_right(&mut self, fields: &[Arc<str>]) {
        self.right_fields = fields.to_vec();
    }

    /// The left side's referenced fields, in column-slot order.
    #[must_use]
    pub fn left_fields(&self) -> &[Arc<str>] {
        &self.left_fields
    }

    /// The right side's referenced fields, in column-slot order.
    #[must_use]
    pub fn right_fields(&self) -> &[Arc<str>] {
        &self.right_fields
    }

    /// Compiles `expr`; `None` when any part of it falls outside the
    /// kernel subset or reads anything but the two bound sides.
    pub fn compile(&mut self, expr: &ScalarExpr) -> Option<PairKernel> {
        self.node(expr).map(|node| PairKernel { node })
    }

    fn node(&mut self, expr: &ScalarExpr) -> Option<PairNode> {
        match expr {
            ScalarExpr::Const(v) => Some(PairNode::Const(v.clone())),
            ScalarExpr::Field(base, field) => match base.as_ref() {
                ScalarExpr::Var(v) | ScalarExpr::Attr(v) if *v == self.left => {
                    Some(PairNode::Left(slot_in(&mut self.left_fields, field)))
                }
                ScalarExpr::Var(v) | ScalarExpr::Attr(v) if *v == self.right => {
                    Some(PairNode::Right(slot_in(&mut self.right_fields, field)))
                }
                _ => None,
            },
            ScalarExpr::Binary { op, left, right } => Some(PairNode::Binary {
                op: *op,
                left: Box::new(self.node(left)?),
                right: Box::new(self.node(right)?),
            }),
            ScalarExpr::Not(inner) => Some(PairNode::Not(Box::new(self.node(inner)?))),
            ScalarExpr::StructLit(fields) if distinct_names(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (name, e) in fields {
                    out.push((Arc::clone(name), self.node(e)?));
                }
                Some(PairNode::Struct(out))
            }
            ScalarExpr::Attr(_)
            | ScalarExpr::Var(_)
            | ScalarExpr::StructLit(_)
            | ScalarExpr::Agg(..)
            | ScalarExpr::Call(..) => None,
        }
    }
}

fn slot_in(fields: &mut Vec<Arc<str>>, name: &str) -> usize {
    if let Some(i) = fields.iter().position(|f| f.as_ref() == name) {
        return i;
    }
    fields.push(Arc::from(name));
    fields.len() - 1
}

impl PairKernel {
    /// Evaluates the kernel over `left_sel.len()` pairs.  `None` bails
    /// the batch to the per-row path, exactly like [`Kernel::eval`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) when the two selection vectors disagree in
    /// length — they must index pairs in lock-step.
    #[must_use]
    pub fn eval(
        &self,
        left: &ColumnarChunk,
        left_sel: &[u32],
        right: &ColumnarChunk,
        right_sel: &[u32],
    ) -> Option<EvalVec> {
        debug_assert_eq!(left_sel.len(), right_sel.len());
        eval_pair_node(&self.node, left, left_sel, right, right_sel)
    }
}

fn eval_pair_node(
    node: &PairNode,
    lc: &ColumnarChunk,
    ls: &[u32],
    rc: &ColumnarChunk,
    rs: &[u32],
) -> Option<EvalVec> {
    match node {
        PairNode::Const(v) => Some(EvalVec::Const(v.clone())),
        PairNode::Left(slot) => Some(gather(lc.column(*slot), ls)),
        PairNode::Right(slot) => Some(gather(rc.column(*slot), rs)),
        PairNode::Not(inner) => {
            let v = eval_pair_node(inner, lc, ls, rc, rs)?;
            let mut data = v.truthy_mask(ls.len());
            for b in &mut data {
                *b = !*b;
            }
            Some(EvalVec::Bool { data, nulls: None })
        }
        PairNode::Binary { op, left, right } => {
            let l = eval_pair_node(left, lc, ls, rc, rs)?;
            let r = eval_pair_node(right, lc, ls, rc, rs)?;
            eval_binary_vec(*op, &l, &r, ls.len())
        }
        PairNode::Struct(fields) => {
            let mut evaluated = Vec::with_capacity(fields.len());
            for (name, node) in fields {
                evaluated.push((Arc::clone(name), eval_pair_node(node, lc, ls, rc, rs)?));
            }
            Some(EvalVec::Struct(evaluated))
        }
    }
}

/// The exactness anchor: element pairs outside the typed fast paths run
/// through the row evaluator's own [`eval_binary`], so floats (NaN,
/// `total_cmp`, int/float promotion), nulls, strings and type errors
/// behave identically by construction.  Errors bail the whole batch.
fn generic_binary(op: ScalarOp, l: &EvalVec, r: &EvalVec, n: usize) -> Option<EvalVec> {
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let a = l.value_at(i);
        let b = r.value_at(i);
        out.push(eval_binary(op, &a, &b).ok()?);
    }
    Some(EvalVec::Values(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_value::{ChunkBuilder, StructValue};

    fn rows(values: Vec<Value>) -> Vec<Value> {
        values
            .into_iter()
            .map(|v| Value::Struct(StructValue::new(vec![("v", v)]).unwrap()))
            .collect()
    }

    fn eval_over(
        expr: &ScalarExpr,
        binding: Option<&str>,
        data: Vec<Value>,
    ) -> Option<(EvalVec, usize)> {
        let mut kb = KernelBuilder::new(binding);
        let kernel = kb.compile(expr)?;
        let mut cb = ChunkBuilder::new();
        for f in kb.fields() {
            cb.add_field(Arc::clone(f));
        }
        let rows = rows(data);
        let chunk = cb.build(&rows)?;
        let sel: Vec<u32> = (0..rows.len() as u32).collect();
        let n = sel.len();
        kernel.eval(&chunk, &sel).map(|v| (v, n))
    }

    #[test]
    fn int_comparison_fast_path_matches_eval_binary() {
        let expr = ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("v"),
            ScalarExpr::constant(5i64),
        );
        let data = vec![Value::Int(3), Value::Int(5), Value::Int(9)];
        let (vec, n) = eval_over(&expr, None, data).unwrap();
        assert_eq!(vec.truthy_mask(n), vec![false, false, true]);
    }

    #[test]
    fn nulls_route_through_the_generic_path_and_compare_false() {
        let expr = ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("v"),
            ScalarExpr::constant(5i64),
        );
        let data = vec![Value::Null, Value::Int(9)];
        let (vec, n) = eval_over(&expr, None, data).unwrap();
        assert_eq!(vec.truthy_mask(n), vec![false, true]);
    }

    /// `narrow` over a selection equals filtering it by `eval`'s
    /// truthiness, on the typed path and off it, and narrows `along` the
    /// same way.
    #[test]
    fn narrow_keeps_what_the_evaluated_verdicts_keep() {
        let ops = [
            ScalarOp::Eq,
            ScalarOp::NotEq,
            ScalarOp::Lt,
            ScalarOp::Le,
            ScalarOp::Gt,
            ScalarOp::Ge,
        ];
        let ints = [i64::MIN, -3, 0, 2, 7, i64::MAX];
        let rows: Vec<Value> = (0..12i64)
            .map(|i| {
                let fields = vec![
                    ("a", Value::Int(ints[(i % 6) as usize])),
                    ("b", Value::Int(ints[((i * 5) % 6) as usize])),
                    (
                        "n",
                        if i % 4 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i)
                        },
                    ),
                ];
                Value::Struct(StructValue::new(fields).unwrap())
            })
            .collect();
        let constants = [
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(-3),
            Value::Int(2),
            Value::Float(2.5),
            Value::from("2"),
        ];
        let (a, b, n) = (
            || ScalarExpr::attr("a"),
            || ScalarExpr::attr("b"),
            || ScalarExpr::attr("n"),
        );
        let mut cases = Vec::new();
        for op in ops {
            cases.push((ScalarExpr::binary(op, a(), b()), true));
            cases.push((ScalarExpr::binary(op, n(), a()), false));
            for c in &constants {
                let typed = matches!(c, Value::Int(_));
                let c = || ScalarExpr::Const(c.clone());
                cases.push((ScalarExpr::binary(op, a(), c()), typed));
                cases.push((ScalarExpr::binary(op, c(), b()), typed));
                cases.push((ScalarExpr::binary(op, c(), n()), false));
            }
        }
        for (expr, typed) in cases {
            let mut kb = KernelBuilder::new(None);
            let kernel = kb.compile(&expr).unwrap();
            let mut cb = ChunkBuilder::new();
            for f in kb.fields() {
                cb.add_field(Arc::clone(f));
            }
            let chunk = cb.build(&rows).unwrap();
            assert_eq!(kernel.int_comparison(&chunk).is_some(), typed, "{expr:?}");
            let sel: Vec<u32> = (0..12).filter(|i| i % 5 != 3).collect();
            let verdicts = kernel.eval(&chunk, &sel).unwrap().truthy_mask(sel.len());
            let expected: Vec<u32> = sel
                .iter()
                .zip(&verdicts)
                .filter_map(|(&i, &keep)| keep.then_some(i))
                .collect();
            let (mut narrowed, mut along) = (sel.clone(), sel.iter().map(|i| i * 10).collect());
            kernel
                .narrow(&chunk, &mut narrowed, Some(&mut along))
                .unwrap();
            assert_eq!(narrowed, expected, "{expr:?}");
            let expected_along: Vec<u32> = expected.iter().map(|i| i * 10).collect();
            assert_eq!(along, expected_along, "{expr:?}");
        }
    }

    #[test]
    fn division_by_zero_bails_instead_of_erroring() {
        let expr = ScalarExpr::binary(
            ScalarOp::Div,
            ScalarExpr::constant(10i64),
            ScalarExpr::attr("v"),
        );
        assert!(eval_over(&expr, None, vec![Value::Int(2), Value::Int(0)]).is_none());
    }

    #[test]
    fn integer_overflow_bails_instead_of_wrapping() {
        for (op, v) in [(ScalarOp::Add, 2), (ScalarOp::Sub, -2), (ScalarOp::Mul, 2)] {
            let expr =
                ScalarExpr::binary(op, ScalarExpr::attr("v"), ScalarExpr::constant(i64::MAX));
            // Row 0 stays in range; row 1 overflows and bails the batch.
            let data = vec![Value::Int(0), Value::Int(v)];
            assert!(eval_over(&expr, None, data).is_none(), "{}", op.symbol());
        }
        let min_over_minus_one = ScalarExpr::binary(
            ScalarOp::Div,
            ScalarExpr::attr("v"),
            ScalarExpr::constant(-1i64),
        );
        assert!(eval_over(&min_over_minus_one, None, vec![Value::Int(i64::MIN)]).is_none());
    }

    #[test]
    fn bound_field_paths_compile_and_unbound_names_do_not_under_binding() {
        let mut kb = KernelBuilder::new(Some("x"));
        assert!(kb.compile(&ScalarExpr::var_field("x", "salary")).is_some());
        assert!(kb.compile(&ScalarExpr::var_field("y", "salary")).is_none());
        assert!(kb.compile(&ScalarExpr::attr("salary")).is_none());
        assert_eq!(kb.fields().len(), 1);
    }

    #[test]
    fn one_builder_compiles_beneath_and_above_a_bind_into_the_same_slots() {
        let mut kb = KernelBuilder::new(None);
        let beneath = kb
            .compile(&ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(10i64),
            ))
            .unwrap();
        kb.rebind(Some("x"));
        let above = kb
            .compile(&ScalarExpr::binary(
                ScalarOp::Add,
                ScalarExpr::var_field("x", "salary"),
                ScalarExpr::var_field("x", "id"),
            ))
            .unwrap();
        let names: Vec<&str> = kb.fields().iter().map(AsRef::as_ref).collect();
        assert_eq!(names, ["salary", "id"], "`salary` was claimed once");
        assert_eq!(beneath.columns(), [0]);
        assert_eq!(above.columns(), [0, 1]);
        // Bound, the unqualified name no longer reads the row.
        assert!(kb.compile(&ScalarExpr::attr("salary")).is_none());
    }

    #[test]
    fn struct_literal_maps_compile_to_per_field_kernels() {
        let expr = ScalarExpr::StructLit(vec![
            ("v".into(), ScalarExpr::var_field("x", "v")),
            (
                "twice".into(),
                ScalarExpr::binary(
                    ScalarOp::Mul,
                    ScalarExpr::var_field("x", "v"),
                    ScalarExpr::constant(2i64),
                ),
            ),
        ]);
        let mut kb = KernelBuilder::new(Some("x"));
        let kernel = kb.compile(&expr).expect("struct literal compiles");
        let mut cb = ChunkBuilder::new();
        for f in kb.fields() {
            cb.add_field(Arc::clone(f));
        }
        let rows = rows(vec![Value::Int(3), Value::Int(5)]);
        let chunk = cb.build(&rows).unwrap();
        let out = kernel.eval(&chunk, &[0, 1]).unwrap();
        let Value::Struct(s) = out.value_at(1) else {
            panic!("struct output");
        };
        assert_eq!(s.field("v").unwrap(), &Value::Int(5));
        assert_eq!(s.field("twice").unwrap(), &Value::Int(10));
    }

    #[test]
    fn duplicate_struct_field_names_refuse_to_compile() {
        let expr = ScalarExpr::StructLit(vec![
            ("a".into(), ScalarExpr::constant(1i64)),
            ("a".into(), ScalarExpr::constant(2i64)),
        ]);
        assert!(KernelBuilder::new(Some("x")).compile(&expr).is_none());
    }

    #[test]
    fn pair_kernel_projects_across_two_chunks() {
        // struct(name: x.v, total: x.v + y.v) over pairs of (x, y) rows.
        let expr = ScalarExpr::StructLit(vec![
            ("l".into(), ScalarExpr::var_field("x", "v")),
            (
                "total".into(),
                ScalarExpr::binary(
                    ScalarOp::Add,
                    ScalarExpr::var_field("x", "v"),
                    ScalarExpr::var_field("y", "v"),
                ),
            ),
        ]);
        let mut pb = PairKernelBuilder::new("x", "y").unwrap();
        let kernel = pb.compile(&expr).expect("pair projection compiles");
        let build_chunk = |data: Vec<Value>, fields: &[Arc<str>]| {
            let mut cb = ChunkBuilder::new();
            for f in fields {
                cb.add_field(Arc::clone(f));
            }
            cb.build(&rows(data)).unwrap()
        };
        let lc = build_chunk(vec![Value::Int(10), Value::Int(20)], pb.left_fields());
        let rc = build_chunk(vec![Value::Int(1), Value::Int(2)], pb.right_fields());
        // Pairs: (left 0, right 1), (left 1, right 0), (left 1, right 1).
        let out = kernel.eval(&lc, &[0, 1, 1], &rc, &[1, 0, 1]).unwrap();
        let totals: Vec<Value> = (0..3)
            .map(|i| {
                let Value::Struct(s) = out.value_at(i) else {
                    panic!("struct output");
                };
                s.field("total").unwrap().clone()
            })
            .collect();
        assert_eq!(totals, vec![Value::Int(12), Value::Int(21), Value::Int(22)]);
    }

    #[test]
    fn pair_kernel_refuses_colliding_bindings_and_foreign_vars() {
        assert!(PairKernelBuilder::new("x", "x").is_none());
        let mut pb = PairKernelBuilder::new("x", "y").unwrap();
        assert!(pb.compile(&ScalarExpr::var_field("z", "v")).is_none());
        assert!(pb.compile(&ScalarExpr::attr("v")).is_none());
    }

    #[test]
    fn pair_kernel_seeded_slots_align_with_preclaimed_fields() {
        let mut pb = PairKernelBuilder::new("x", "y").unwrap();
        pb.seed_left(&[Arc::from("id"), Arc::from("v")]);
        pb.compile(&ScalarExpr::var_field("x", "v")).unwrap();
        // "v" reuses the pre-claimed slot instead of appending.
        assert_eq!(pb.left_fields().len(), 2);
    }

    #[test]
    fn float_semantics_funnel_through_eval_binary() {
        // NaN under total_cmp sorts above every float: NaN > 1e300 holds.
        let expr = ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("v"),
            ScalarExpr::constant(1e300f64),
        );
        let data = vec![Value::Float(f64::NAN), Value::Float(1.0)];
        let (vec, n) = eval_over(&expr, None, data).unwrap();
        assert_eq!(vec.truthy_mask(n), vec![true, false]);
    }

    #[test]
    fn drain_into_moves_out_what_value_at_reads() {
        let nulls = || Some(vec![false, true, false, false]);
        let strs = || EvalVec::Str {
            values: ["a", "", "c", "d"].into_iter().map(Arc::from).collect(),
            codes: None,
            nulls: nulls(),
        };
        let vecs = || {
            vec![
                EvalVec::Int {
                    data: vec![1, 0, 3, 4],
                    nulls: nulls(),
                },
                EvalVec::Bool {
                    data: vec![true, false, false, true],
                    nulls: nulls(),
                },
                strs(),
                EvalVec::Const(Value::from("k")),
                EvalVec::Values(vec![
                    Value::Float(0.5),
                    Value::Null,
                    Value::from("x"),
                    Value::Int(7),
                ]),
                EvalVec::Struct(vec![
                    (Arc::from("s"), strs()),
                    (
                        Arc::from("inner"),
                        EvalVec::Struct(vec![(
                            Arc::from("n"),
                            EvalVec::Int {
                                data: vec![5, 6, 7, 8],
                                nulls: None,
                            },
                        )]),
                    ),
                ]),
            ]
        };
        for range in [0..4, 1..3, 2..2] {
            for (read, moved) in vecs().into_iter().zip(vecs()) {
                let expected: Vec<Value> = range.clone().map(|i| read.value_at(i)).collect();
                let mut out = vec![Value::Null];
                moved.drain_into(range.clone(), &mut out);
                assert_eq!(out[0], Value::Null, "appends after what is there");
                assert_eq!(out[1..], expected[..], "{range:?}");
            }
        }
    }
}

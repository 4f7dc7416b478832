//! Scalar (tuple-level) expressions: predicates, computed projections and
//! aggregates over sub-queries.
//!
//! Scalar expressions appear inside the logical operators of the DISCO
//! algebra: the predicate of a `select` (filter), the projection of a
//! generalized `project`, and the join condition.  A *pushable* scalar
//! expression — one built only from plain attribute references, constants,
//! comparisons and arithmetic — may travel through the `submit` operator to
//! a wrapper; anything else (struct construction, correlated sub-query
//! aggregates, reconciliation function calls) is evaluated by the mediator
//! run-time system.

use disco_value::{Bag, StructValue, Value};

use crate::logical::LogicalExpr;
use crate::{AlgebraError, Result};

/// Binary operators usable in scalar expressions (a subset of OQL's,
/// mirroring `disco_oql::BinaryOp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Equality.
    Eq,
    /// Inequality.
    NotEq,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Logical conjunction.
    And,
    /// Logical disjunction.
    Or,
}

impl ScalarOp {
    /// Returns `true` for comparison operators.
    #[must_use]
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            ScalarOp::Eq
                | ScalarOp::NotEq
                | ScalarOp::Lt
                | ScalarOp::Le
                | ScalarOp::Gt
                | ScalarOp::Ge
        )
    }

    /// The OQL spelling.
    #[must_use]
    pub fn symbol(&self) -> &'static str {
        match self {
            ScalarOp::Add => "+",
            ScalarOp::Sub => "-",
            ScalarOp::Mul => "*",
            ScalarOp::Div => "/",
            ScalarOp::Eq => "=",
            ScalarOp::NotEq => "!=",
            ScalarOp::Lt => "<",
            ScalarOp::Le => "<=",
            ScalarOp::Gt => ">",
            ScalarOp::Ge => ">=",
            ScalarOp::And => "and",
            ScalarOp::Or => "or",
        }
    }
}

/// Aggregate functions (matching `disco_oql::AggFunc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Sum of numeric values.
    Sum,
    /// Count of values.
    Count,
    /// Arithmetic mean.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl AggKind {
    /// The OQL spelling.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            AggKind::Sum => "sum",
            AggKind::Count => "count",
            AggKind::Avg => "avg",
            AggKind::Min => "min",
            AggKind::Max => "max",
        }
    }

    /// Applies the aggregate to a bag of values: a fold through
    /// [`AggState`], the one accumulator every evaluator shares.
    ///
    /// # Errors
    ///
    /// Returns a type error if non-numeric values are aggregated by
    /// `sum`/`avg`, and [`AlgebraError::IntegerOverflow`] when an
    /// all-integer `sum` leaves the `i64` range.
    pub fn apply(&self, bag: &Bag) -> Result<Value> {
        let mut state = AggState::new(*self);
        for value in bag {
            state.update(value)?;
        }
        Ok(state.finish())
    }
}

/// A `sum`/`avg` accumulator: exact while every input is an integer,
/// `f64` from the first float on.
#[derive(Debug, Clone, Copy)]
enum Sum {
    Int(i64),
    Float(f64),
}

impl Sum {
    #[allow(clippy::cast_precision_loss)]
    fn as_f64(self) -> f64 {
        match self {
            Sum::Int(v) => v as f64,
            Sum::Float(v) => v,
        }
    }
}

/// Aggregate accumulator with O(1) state — the single definition of the
/// aggregates' semantics: numeric promotion (an all-integer `sum` is an
/// exact, overflow-checked `i64`; the first float switches it to `f64`),
/// empty-input results, and first-minimum / last-maximum tie-breaking.
#[derive(Debug, Clone)]
pub struct AggState {
    func: AggKind,
    count: usize,
    sum: Sum,
    best: Option<Value>,
}

impl AggState {
    /// An empty accumulator for `func`.
    #[must_use]
    pub fn new(func: AggKind) -> Self {
        AggState {
            func,
            count: 0,
            // `avg` divides at the end, so it accumulates in `f64`
            // throughout.
            sum: if func == AggKind::Avg {
                Sum::Float(0.0)
            } else {
                Sum::Int(0)
            },
            best: None,
        }
    }

    /// Folds one value into the state.
    ///
    /// # Errors
    ///
    /// Returns a type error for a non-numeric `sum`/`avg` input and
    /// [`AlgebraError::IntegerOverflow`] when an integer `sum` overflows.
    pub fn update(&mut self, value: &Value) -> Result<()> {
        self.count += 1;
        match self.func {
            AggKind::Count => {}
            AggKind::Sum | AggKind::Avg => {
                self.sum = match (self.sum, value) {
                    (Sum::Int(acc), Value::Int(v)) => {
                        Sum::Int(acc.checked_add(*v).ok_or(AlgebraError::IntegerOverflow)?)
                    }
                    (acc, _) => Sum::Float(
                        acc.as_f64()
                            + value.as_float().map_err(|_| {
                                AlgebraError::Type(format!(
                                    "{} over non-numeric value {value}",
                                    self.func.name()
                                ))
                            })?,
                    ),
                };
            }
            AggKind::Min => match &self.best {
                Some(b) if value.total_cmp(b) != std::cmp::Ordering::Less => {}
                _ => self.best = Some(value.clone()),
            },
            AggKind::Max => match &self.best {
                Some(b) if value.total_cmp(b) == std::cmp::Ordering::Less => {}
                _ => self.best = Some(value.clone()),
            },
        }
        Ok(())
    }

    /// Folds a run of integers into the state: what [`AggState::update`]
    /// does for each as a `Value::Int`, in order.  `count` adds the run's
    /// length and an integer `sum` adds the run with the same
    /// `checked_add`; every other function folds value by value.
    ///
    /// # Errors
    ///
    /// [`AlgebraError::IntegerOverflow`] when an integer `sum` overflows.
    pub fn update_ints(&mut self, values: &[i64]) -> Result<()> {
        match (self.func, self.sum) {
            (AggKind::Count, _) => self.count += values.len(),
            (AggKind::Sum, Sum::Int(mut acc)) => {
                for &v in values {
                    acc = acc.checked_add(v).ok_or(AlgebraError::IntegerOverflow)?;
                }
                self.sum = Sum::Int(acc);
                self.count += values.len();
            }
            _ => {
                for &v in values {
                    self.update(&Value::Int(v))?;
                }
            }
        }
        Ok(())
    }

    /// The aggregate's final value.
    #[must_use]
    pub fn finish(self) -> Value {
        match self.func {
            AggKind::Count => Value::Int(i64::try_from(self.count).unwrap_or(i64::MAX)),
            AggKind::Sum => match self.sum {
                Sum::Int(v) => Value::Int(v),
                Sum::Float(v) => Value::Float(v),
            },
            AggKind::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    #[allow(clippy::cast_precision_loss)]
                    Value::Float(self.sum.as_f64() / self.count as f64)
                }
            }
            AggKind::Min | AggKind::Max => self.best.unwrap_or(Value::Null),
        }
    }
}

/// A scalar expression evaluated against one row.
///
/// Rows are [`StructValue`]s.  Inside expressions pushed to a data source
/// the row is a source tuple and attributes are referenced with
/// [`ScalarExpr::Attr`]; on the mediator side the row is an *environment*
/// struct binding each range variable to its tuple, and attributes are
/// referenced with [`ScalarExpr::Var`] + [`ScalarExpr::Field`] paths.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A constant value.
    Const(Value),
    /// A plain attribute of the current row (source-side form).
    Attr(String),
    /// A bound range variable (mediator-side form); evaluates to the tuple
    /// the variable is bound to.
    Var(String),
    /// Field access on a nested value, e.g. `Var("x")` then `Field("salary")`.
    Field(Box<ScalarExpr>, String),
    /// Binary operation.
    Binary {
        /// Operator.
        op: ScalarOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Logical negation.
    Not(Box<ScalarExpr>),
    /// Struct construction (`struct(name: …, salary: …)`).  Field names
    /// are `Arc<str>` so per-row evaluation shares them instead of
    /// allocating fresh name strings for every output row.
    StructLit(Vec<(std::sync::Arc<str>, ScalarExpr)>),
    /// An aggregate over a (possibly correlated) sub-query.  Evaluated by
    /// the mediator run-time through the sub-query callback.
    Agg(AggKind, Box<LogicalExpr>),
    /// A call to an uninterpreted reconciliation function.  The run-time
    /// evaluates the built-in ones (`concat`, `coalesce`); everything else
    /// is an error, mirroring the paper's note that function calls cannot
    /// yet be passed to data sources.
    Call(String, Vec<ScalarExpr>),
}

impl ScalarExpr {
    /// Builds a constant.
    #[must_use]
    pub fn constant(value: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Const(value.into())
    }

    /// Builds an attribute reference.
    #[must_use]
    pub fn attr(name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Attr(name.into())
    }

    /// Builds a `var.field` reference.
    #[must_use]
    pub fn var_field(var: impl Into<String>, field: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Field(Box::new(ScalarExpr::Var(var.into())), field.into())
    }

    /// Builds `left op right`.
    #[must_use]
    pub fn binary(op: ScalarOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Returns `true` when the expression can be pushed through `submit` to
    /// a wrapper: only plain attributes, constants, arithmetic, comparisons
    /// and boolean connectives — no variables, structs, aggregates or
    /// calls.
    #[must_use]
    pub fn is_pushable(&self) -> bool {
        match self {
            ScalarExpr::Const(_) | ScalarExpr::Attr(_) => true,
            ScalarExpr::Binary { left, right, .. } => left.is_pushable() && right.is_pushable(),
            ScalarExpr::Not(inner) => inner.is_pushable(),
            ScalarExpr::Var(_)
            | ScalarExpr::Field(..)
            | ScalarExpr::StructLit(_)
            | ScalarExpr::Agg(..)
            | ScalarExpr::Call(..) => false,
        }
    }

    /// The comparison operators appearing in the expression — wrappers may
    /// restrict which comparisons they support (§3.2).
    #[must_use]
    pub fn comparison_ops(&self) -> Vec<ScalarOp> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let ScalarExpr::Binary { op, .. } = e {
                if op.is_comparison() && !out.contains(op) {
                    out.push(*op);
                }
            }
        });
        out
    }

    /// The plain attribute names referenced (source-side form only).
    #[must_use]
    pub fn referenced_attrs(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let ScalarExpr::Attr(name) = e {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
        });
        out
    }

    /// Returns `true` when every attribute of
    /// [`ScalarExpr::referenced_attrs`] is one of `columns` — the test the
    /// filter/projection commutation rules make, without building the list.
    #[must_use]
    pub fn references_only(&self, columns: &[String]) -> bool {
        let mut within = true;
        self.walk(&mut |e| {
            if let ScalarExpr::Attr(name) = e {
                within &= columns.contains(name);
            }
        });
        within
    }

    fn walk<F: FnMut(&ScalarExpr)>(&self, f: &mut F) {
        f(self);
        match self {
            ScalarExpr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            ScalarExpr::Not(inner) | ScalarExpr::Field(inner, _) => inner.walk(f),
            ScalarExpr::StructLit(fields) => {
                for (_, e) in fields {
                    e.walk(f);
                }
            }
            ScalarExpr::Call(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            ScalarExpr::Const(_)
            | ScalarExpr::Attr(_)
            | ScalarExpr::Var(_)
            | ScalarExpr::Agg(..) => {}
        }
    }

    /// Renames plain attribute references through `rename` (used when a
    /// local transformation map is applied before pushing an expression to
    /// a wrapper).
    #[must_use]
    pub fn rename_attrs<F>(&self, rename: &F) -> ScalarExpr
    where
        F: Fn(&str) -> String,
    {
        match self {
            ScalarExpr::Attr(name) => ScalarExpr::Attr(rename(name)),
            ScalarExpr::Const(_) | ScalarExpr::Var(_) => self.clone(),
            ScalarExpr::Field(inner, field) => {
                ScalarExpr::Field(Box::new(inner.rename_attrs(rename)), field.clone())
            }
            ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
                op: *op,
                left: Box::new(left.rename_attrs(rename)),
                right: Box::new(right.rename_attrs(rename)),
            },
            ScalarExpr::Not(inner) => ScalarExpr::Not(Box::new(inner.rename_attrs(rename))),
            ScalarExpr::StructLit(fields) => ScalarExpr::StructLit(
                fields
                    .iter()
                    .map(|(n, e)| (n.clone(), e.rename_attrs(rename)))
                    .collect(),
            ),
            ScalarExpr::Agg(kind, inner) => ScalarExpr::Agg(*kind, inner.clone()),
            ScalarExpr::Call(name, args) => ScalarExpr::Call(
                name.clone(),
                args.iter().map(|a| a.rename_attrs(rename)).collect(),
            ),
        }
    }
}

/// One scope layer of the evaluator's row environment.
#[derive(Debug, Clone, Copy, Default)]
enum Scope<'a> {
    /// No bindings (the root scope).
    #[default]
    Empty,
    /// A struct row: every field is a binding.
    Row(&'a StructValue),
    /// A non-struct row, exposed under the name `it`.
    It(&'a Value),
}

/// A layered, allocation-free row environment.
///
/// The evaluator used to materialise one merged `StructValue` per row (and
/// per join pair) just to give scalar expressions a place to look up
/// variables — a `Vec` rebuild plus `String` clones on every row.  `Env`
/// replaces that with a chain of borrowed scopes: the innermost scope is
/// the current row, outer scopes are enclosing rows (join partner, outer
/// query of a correlated sub-query).  Name lookup walks inward-out, so
/// inner scopes shadow outer ones — exactly the shadowing the old
/// merge-based code implemented by overwriting fields.
///
/// `Env` is `Copy` (two words: a scope and a parent pointer); stacking a
/// scope for a row costs nothing and allocates nothing.
///
/// # Examples
///
/// ```
/// use disco_algebra::{Env, ScalarExpr, eval_scalar_env};
/// use disco_value::{StructValue, Value};
///
/// let row = StructValue::new(vec![("salary", Value::Int(200))]).unwrap();
/// let root = Env::root();
/// let env = root.with_row(&row);
/// let v = eval_scalar_env(&ScalarExpr::attr("salary"), &env).unwrap();
/// assert_eq!(v, Value::Int(200));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Env<'a> {
    scope: Scope<'a>,
    outer: Option<&'a Env<'a>>,
}

impl<'a> Env<'a> {
    /// The empty root environment.
    #[must_use]
    pub fn root() -> Env<'static> {
        Env {
            scope: Scope::Empty,
            outer: None,
        }
    }

    /// An environment whose only scope is `row`.
    #[must_use]
    pub fn of_row(row: &'a StructValue) -> Env<'a> {
        Env {
            scope: Scope::Row(row),
            outer: None,
        }
    }

    /// Stacks a struct-row scope on top of `self`; the row's fields shadow
    /// same-named outer bindings.
    #[must_use]
    pub fn with_row(&'a self, row: &'a StructValue) -> Env<'a> {
        Env {
            scope: Scope::Row(row),
            outer: Some(self),
        }
    }

    /// Stacks a value scope: struct rows bind their fields, any other value
    /// is exposed under the name `it`.
    #[must_use]
    pub fn with_value(&'a self, value: &'a Value) -> Env<'a> {
        match value {
            Value::Struct(s) => self.with_row(s),
            other => Env {
                scope: Scope::It(other),
                outer: Some(self),
            },
        }
    }

    /// Looks a name up through the scope chain, innermost scope first.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<&'a Value> {
        let mut env = Some(self);
        while let Some(e) = env {
            match e.scope {
                Scope::Row(row) => {
                    if let Some(v) = row.get(name) {
                        return Some(v);
                    }
                }
                Scope::It(v) => {
                    if name == "it" {
                        return Some(v);
                    }
                }
                Scope::Empty => {}
            }
            env = e.outer;
        }
        None
    }
}

/// Callback used to evaluate sub-query aggregates: given a logical plan and
/// the current environment, produce the bag of values of the sub-query.
pub type SubqueryEval<'a> = dyn Fn(&LogicalExpr, &Env<'_>) -> Result<Bag> + 'a;

/// Evaluates a scalar expression against a row with no sub-query support
/// (used by wrappers and data sources).
///
/// # Errors
///
/// Returns [`AlgebraError::SubqueryNotSupported`] if the expression
/// contains an aggregate sub-query, plus the usual attribute/type errors.
pub fn eval_scalar(expr: &ScalarExpr, row: &StructValue) -> Result<Value> {
    let env = Env::of_row(row);
    eval_scalar_with(expr, &env, &|_, _| Err(AlgebraError::SubqueryNotSupported))
}

/// Evaluates a scalar expression against an environment with no sub-query
/// support.
///
/// # Errors
///
/// See [`eval_scalar`].
pub fn eval_scalar_env(expr: &ScalarExpr, env: &Env<'_>) -> Result<Value> {
    eval_scalar_with(expr, env, &|_, _| Err(AlgebraError::SubqueryNotSupported))
}

/// Evaluates a scalar expression against an environment, delegating
/// aggregate sub-queries to `subquery`.
///
/// # Errors
///
/// Returns attribute, variable, or type errors; division by zero; and any
/// error produced by the sub-query callback.
pub fn eval_scalar_with(
    expr: &ScalarExpr,
    env: &Env<'_>,
    subquery: &SubqueryEval<'_>,
) -> Result<Value> {
    match expr {
        ScalarExpr::Const(v) => Ok(v.clone()),
        ScalarExpr::Attr(name) => env
            .lookup(name)
            .cloned()
            .ok_or_else(|| AlgebraError::UnknownAttribute(name.clone())),
        ScalarExpr::Var(name) => env
            .lookup(name)
            .cloned()
            .ok_or_else(|| AlgebraError::UnknownVariable(name.clone())),
        ScalarExpr::Field(inner, field) => {
            // Fast path `x.field`: borrow through the environment without
            // cloning the intermediate struct.
            if let ScalarExpr::Var(var) = inner.as_ref() {
                return match env.lookup(var) {
                    None => Err(AlgebraError::UnknownVariable(var.clone())),
                    Some(Value::Struct(s)) => s
                        .get(field)
                        .cloned()
                        .ok_or_else(|| AlgebraError::UnknownAttribute(field.clone())),
                    Some(Value::Null) => Ok(Value::Null),
                    Some(other) => Err(AlgebraError::Type(format!(
                        "field access .{field} on non-struct value {other}"
                    ))),
                };
            }
            let base = eval_scalar_with(inner, env, subquery)?;
            match base {
                Value::Struct(s) => s
                    .field(field)
                    .cloned()
                    .map_err(|_| AlgebraError::UnknownAttribute(field.clone())),
                Value::Null => Ok(Value::Null),
                other => Err(AlgebraError::Type(format!(
                    "field access .{field} on non-struct value {other}"
                ))),
            }
        }
        ScalarExpr::Binary { op, left, right } => {
            let l = eval_scalar_with(left, env, subquery)?;
            let r = eval_scalar_with(right, env, subquery)?;
            eval_binary(*op, &l, &r)
        }
        ScalarExpr::Not(inner) => {
            let v = eval_scalar_with(inner, env, subquery)?;
            Ok(Value::Bool(!truthy(&v)))
        }
        ScalarExpr::StructLit(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, e) in fields {
                // Arc bump: the output row shares the literal's name storage.
                out.push((
                    std::sync::Arc::clone(name),
                    eval_scalar_with(e, env, subquery)?,
                ));
            }
            Ok(Value::Struct(StructValue::new(out)?))
        }
        ScalarExpr::Agg(kind, plan) => {
            let bag = subquery(plan, env)?;
            kind.apply(&bag)
        }
        ScalarExpr::Call(name, args) => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval_scalar_with(a, env, subquery)?);
            }
            eval_builtin_call(name, &values)
        }
    }
}

/// Built-in reconciliation functions available to view definitions.
fn eval_builtin_call(name: &str, args: &[Value]) -> Result<Value> {
    match name {
        "concat" => {
            let mut out = String::new();
            for a in args {
                match a {
                    Value::Str(s) => out.push_str(s),
                    other => out.push_str(&other.to_string()),
                }
            }
            Ok(Value::Str(out.into()))
        }
        "coalesce" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        other => Err(AlgebraError::Unsupported(format!(
            "unknown function: {other}"
        ))),
    }
}

/// Evaluates one binary operation.
///
/// # Errors
///
/// Returns type errors for invalid operand combinations,
/// [`AlgebraError::DivisionByZero`] and, for integer results outside the
/// `i64` range, [`AlgebraError::IntegerOverflow`].
pub fn eval_binary(op: ScalarOp, left: &Value, right: &Value) -> Result<Value> {
    use ScalarOp::{Add, And, Div, Eq, Ge, Gt, Le, Lt, Mul, NotEq, Or, Sub};
    match op {
        And => Ok(Value::Bool(truthy(left) && truthy(right))),
        Or => Ok(Value::Bool(truthy(left) || truthy(right))),
        Eq => Ok(Value::Bool(left == right)),
        NotEq => Ok(Value::Bool(left != right)),
        Lt | Le | Gt | Ge => {
            if left.is_null() || right.is_null() {
                return Ok(Value::Bool(false));
            }
            let ord = left.total_cmp(right);
            Ok(Value::Bool(match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }))
        }
        Add | Sub | Mul | Div => {
            // String concatenation with `+`.
            if op == Add {
                if let (Value::Str(a), Value::Str(b)) = (left, right) {
                    return Ok(Value::Str(format!("{a}{b}").into()));
                }
            }
            if left.is_null() || right.is_null() {
                return Ok(Value::Null);
            }
            match (left, right) {
                (Value::Int(a), Value::Int(b)) => int_arith(op, *a, *b).map(Value::Int),
                _ => {
                    let a = left.as_float().map_err(|_| {
                        AlgebraError::Type(format!("arithmetic on non-numeric value {left}"))
                    })?;
                    let b = right.as_float().map_err(|_| {
                        AlgebraError::Type(format!("arithmetic on non-numeric value {right}"))
                    })?;
                    Ok(match op {
                        Add => Value::Float(a + b),
                        Sub => Value::Float(a - b),
                        Mul => Value::Float(a * b),
                        Div => {
                            if b == 0.0 {
                                return Err(AlgebraError::DivisionByZero);
                            }
                            Value::Float(a / b)
                        }
                        _ => unreachable!(),
                    })
                }
            }
        }
    }
}

/// Checked `i64` arithmetic — the one definition shared by [`eval_binary`]
/// and the vectorized kernels, so a result outside the `i64` range is the
/// same typed error on every path and in every build profile.
///
/// # Errors
///
/// Returns [`AlgebraError::DivisionByZero`] for a zero divisor and
/// [`AlgebraError::IntegerOverflow`] when the result does not fit (which
/// includes `i64::MIN / -1`).
pub(crate) fn int_arith(op: ScalarOp, a: i64, b: i64) -> Result<i64> {
    match op {
        ScalarOp::Add => a.checked_add(b),
        ScalarOp::Sub => a.checked_sub(b),
        ScalarOp::Mul => a.checked_mul(b),
        ScalarOp::Div if b == 0 => return Err(AlgebraError::DivisionByZero),
        ScalarOp::Div => a.checked_div(b),
        _ => unreachable!("arithmetic operator"),
    }
    .ok_or(AlgebraError::IntegerOverflow)
}

/// OQL truthiness: only `true` is true; `null` and everything else is false.
#[must_use]
pub fn truthy(value: &Value) -> bool {
    matches!(value, Value::Bool(true))
}

impl std::fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalarExpr::Const(v) => write!(f, "{v}"),
            ScalarExpr::Attr(a) => write!(f, "{a}"),
            ScalarExpr::Var(v) => write!(f, "{v}"),
            ScalarExpr::Field(base, field) => write!(f, "{base}.{field}"),
            ScalarExpr::Binary { op, left, right } => {
                write!(f, "({left} {} {right})", op.symbol())
            }
            ScalarExpr::Not(inner) => write!(f, "not ({inner})"),
            ScalarExpr::StructLit(fields) => {
                write!(f, "struct(")?;
                for (i, (n, e)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {e}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Agg(kind, plan) => write!(f, "{}({plan})", kind.name()),
            ScalarExpr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `update_ints` over a slice cut into runs folds as `AggKind::apply`
    /// over the slice's values: the same value, or the same error — one
    /// slice's `sum` overflows.
    #[test]
    fn a_run_of_integers_folds_as_apply() {
        let kinds = [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ];
        let mut overflowed = 0;
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0xA66 + seed);
            let span = if seed % 8 == 0 { i64::MAX / 2 } else { 1_000 };
            let values: Vec<i64> = (0..rng.gen_range(0..300))
                .map(|_| rng.gen_range(-span..span))
                .collect();
            let bag: Bag = values.iter().map(|&v| Value::Int(v)).collect();
            for func in kinds {
                let expected = func.apply(&bag);
                let mut state = AggState::new(func);
                let mut rest = &values[..];
                let folded = loop {
                    if rest.is_empty() {
                        break Ok(state.finish());
                    }
                    let (run, tail) = rest.split_at(rng.gen_range(1..=rest.len()));
                    rest = tail;
                    if let Err(err) = state.update_ints(run) {
                        break Err(err);
                    }
                };
                overflowed += usize::from(func == AggKind::Sum && expected.is_err());
                assert_eq!(folded, expected, "seed {seed}, {}", func.name());
            }
        }
        assert!(overflowed > 0, "some `sum` overflows");
    }

    fn mary() -> StructValue {
        StructValue::new(vec![
            ("name", Value::from("Mary")),
            ("salary", Value::Int(200)),
        ])
        .unwrap()
    }

    #[test]
    fn attribute_and_constant_evaluation() {
        let row = mary();
        assert_eq!(
            eval_scalar(&ScalarExpr::attr("salary"), &row).unwrap(),
            Value::Int(200)
        );
        assert_eq!(
            eval_scalar(&ScalarExpr::constant(5i64), &row).unwrap(),
            Value::Int(5)
        );
        assert!(matches!(
            eval_scalar(&ScalarExpr::attr("missing"), &row),
            Err(AlgebraError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn paper_predicate_salary_gt_10() {
        let pred = ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(10i64),
        );
        assert_eq!(eval_scalar(&pred, &mary()).unwrap(), Value::Bool(true));
        let sam = StructValue::new(vec![
            ("name", Value::from("Sam")),
            ("salary", Value::Int(5)),
        ])
        .unwrap();
        assert_eq!(eval_scalar(&pred, &sam).unwrap(), Value::Bool(false));
        assert!(pred.is_pushable());
        assert_eq!(pred.comparison_ops(), vec![ScalarOp::Gt]);
        assert_eq!(pred.referenced_attrs(), vec!["salary"]);
    }

    #[test]
    fn env_rows_use_var_field_paths() {
        let env = StructValue::new(vec![("x", Value::Struct(mary()))]).unwrap();
        let e = ScalarExpr::var_field("x", "salary");
        assert_eq!(eval_scalar(&e, &env).unwrap(), Value::Int(200));
        assert!(!e.is_pushable());
        assert!(matches!(
            eval_scalar(&ScalarExpr::Var("y".into()), &env),
            Err(AlgebraError::UnknownVariable(_))
        ));
    }

    #[test]
    fn struct_literal_builds_structs() {
        let env = StructValue::new(vec![("x", Value::Struct(mary()))]).unwrap();
        let e = ScalarExpr::StructLit(vec![
            ("who".into(), ScalarExpr::var_field("x", "name")),
            (
                "double_pay".into(),
                ScalarExpr::binary(
                    ScalarOp::Mul,
                    ScalarExpr::var_field("x", "salary"),
                    ScalarExpr::constant(2i64),
                ),
            ),
        ]);
        let v = eval_scalar(&e, &env).unwrap();
        let s = v.as_struct().unwrap();
        assert_eq!(s.field("who").unwrap(), &Value::from("Mary"));
        assert_eq!(s.field("double_pay").unwrap(), &Value::Int(400));
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let row = StructValue::default();
        let div = ScalarExpr::binary(
            ScalarOp::Div,
            ScalarExpr::constant(4i64),
            ScalarExpr::constant(0i64),
        );
        assert!(matches!(
            eval_scalar(&div, &row),
            Err(AlgebraError::DivisionByZero)
        ));
        let mixed = ScalarExpr::binary(
            ScalarOp::Add,
            ScalarExpr::constant(1i64),
            ScalarExpr::constant(0.5f64),
        );
        assert_eq!(eval_scalar(&mixed, &row).unwrap(), Value::Float(1.5));
        let concat = ScalarExpr::binary(
            ScalarOp::Add,
            ScalarExpr::constant("a"),
            ScalarExpr::constant("b"),
        );
        assert_eq!(eval_scalar(&concat, &row).unwrap(), Value::from("ab"));
    }

    #[test]
    fn null_semantics() {
        let row = StructValue::default();
        let cmp = ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::Const(Value::Null),
            ScalarExpr::constant(1i64),
        );
        assert_eq!(eval_scalar(&cmp, &row).unwrap(), Value::Bool(false));
        let arith = ScalarExpr::binary(
            ScalarOp::Add,
            ScalarExpr::Const(Value::Null),
            ScalarExpr::constant(1i64),
        );
        assert_eq!(eval_scalar(&arith, &row).unwrap(), Value::Null);
        assert!(!truthy(&Value::Null));
    }

    #[test]
    fn logical_connectives_and_not() {
        let row = mary();
        let e = ScalarExpr::binary(
            ScalarOp::And,
            ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(10i64),
            ),
            ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::attr("name"),
                ScalarExpr::constant("Mary"),
            ),
        );
        assert_eq!(eval_scalar(&e, &row).unwrap(), Value::Bool(true));
        let not = ScalarExpr::Not(Box::new(e));
        assert_eq!(eval_scalar(&not, &row).unwrap(), Value::Bool(false));
    }

    #[test]
    fn aggregates_apply() {
        let bag: Bag = [Value::Int(1), Value::Int(2), Value::Int(3)]
            .into_iter()
            .collect();
        assert_eq!(AggKind::Sum.apply(&bag).unwrap(), Value::Int(6));
        assert_eq!(AggKind::Count.apply(&bag).unwrap(), Value::Int(3));
        assert_eq!(AggKind::Avg.apply(&bag).unwrap(), Value::Float(2.0));
        assert_eq!(AggKind::Min.apply(&bag).unwrap(), Value::Int(1));
        assert_eq!(AggKind::Max.apply(&bag).unwrap(), Value::Int(3));
        assert_eq!(AggKind::Avg.apply(&Bag::new()).unwrap(), Value::Null);
        assert_eq!(AggKind::Min.apply(&Bag::new()).unwrap(), Value::Null);
        let mixed: Bag = [Value::Int(1), Value::Float(0.5)].into_iter().collect();
        assert_eq!(AggKind::Sum.apply(&mixed).unwrap(), Value::Float(1.5));
        let bad: Bag = [Value::from("x")].into_iter().collect();
        assert!(AggKind::Sum.apply(&bad).is_err());
    }

    #[test]
    fn integer_sums_are_exact_until_the_first_float_and_overflow_checked() {
        // 2^53 + 1: the first integer an `f64` accumulator cannot hold.
        let beyond_f64 = 9_007_199_254_740_993_i64;
        let bag: Bag = [Value::Int(beyond_f64 - 1), Value::Int(1)]
            .into_iter()
            .collect();
        assert_eq!(AggKind::Sum.apply(&bag).unwrap(), Value::Int(beyond_f64));
        let over: Bag = [Value::Int(i64::MAX), Value::Int(1)].into_iter().collect();
        assert_eq!(
            AggKind::Sum.apply(&over),
            Err(AlgebraError::IntegerOverflow)
        );
        // `avg` still accumulates in `f64`, so the same inputs average.
        assert!(AggKind::Avg.apply(&over).is_ok());
    }

    #[test]
    fn integer_arithmetic_is_checked() {
        use ScalarOp::{Add, Div, Mul, Sub};
        let int = Value::Int;
        for (op, a, b) in [
            (Add, i64::MAX, 1),
            (Sub, i64::MIN, 1),
            (Mul, i64::MAX, 2),
            (Div, i64::MIN, -1),
        ] {
            assert_eq!(
                eval_binary(op, &int(a), &int(b)),
                Err(AlgebraError::IntegerOverflow),
                "{a} {} {b}",
                op.symbol()
            );
        }
        assert_eq!(eval_binary(Div, &int(7), &int(2)), Ok(int(3)));
        assert_eq!(
            eval_binary(Div, &int(7), &int(0)),
            Err(AlgebraError::DivisionByZero)
        );
    }

    #[test]
    fn subqueries_error_without_callback() {
        let e = ScalarExpr::Agg(
            AggKind::Sum,
            Box::new(LogicalExpr::Get {
                collection: "person0".into(),
            }),
        );
        assert!(matches!(
            eval_scalar(&e, &StructValue::default()),
            Err(AlgebraError::SubqueryNotSupported)
        ));
        assert!(!e.is_pushable());
    }

    #[test]
    fn builtin_calls() {
        let row = StructValue::default();
        let e = ScalarExpr::Call(
            "concat".into(),
            vec![ScalarExpr::constant("a"), ScalarExpr::constant("b")],
        );
        assert_eq!(eval_scalar(&e, &row).unwrap(), Value::from("ab"));
        let e = ScalarExpr::Call(
            "coalesce".into(),
            vec![ScalarExpr::Const(Value::Null), ScalarExpr::constant(7i64)],
        );
        assert_eq!(eval_scalar(&e, &row).unwrap(), Value::Int(7));
        let e = ScalarExpr::Call("mystery".into(), vec![]);
        assert!(eval_scalar(&e, &row).is_err());
    }

    #[test]
    fn rename_attrs_applies_map_direction() {
        let pred = ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("s"),
            ScalarExpr::constant(10i64),
        );
        let renamed = pred.rename_attrs(&|a| if a == "s" { "salary".into() } else { a.into() });
        assert_eq!(renamed.referenced_attrs(), vec!["salary"]);
    }

    #[test]
    fn display_is_readable() {
        let pred = ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(10i64),
        );
        assert_eq!(pred.to_string(), "(salary > 10)");
    }
}

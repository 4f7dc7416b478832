//! Prepared plans: the executable form a plan-cache hit runs (§3.3).
//!
//! A cached plan runs many times, and most of what resolving its `exec`
//! calls takes does not depend on the execution: which calls are
//! distinct, each extent's transformation map, the fields a call's rows
//! must carry, the keys the calibration store records a call under.  A
//! [`PreparedPlan`] does that work once, on the miss that plans the text,
//! and keeps the physical plan — nothing else of the optimizer's
//! [`Plan`]: not its logical tree.
//!
//! The **call table** lists the plan's distinct calls in plan order, and
//! shares rather than copies: a call's shipped expression is the `Arc`
//! the plan's `exec` node holds, and like-typed extents share one
//! [`CallShape`].  What can change while the catalog does not — the
//! wrapper handle the registry binds to a name — is looked up per
//! execution, so a wrapper re-registered under its name is the one called.
//! A call's calibration keys are rendered the first time the call is
//! recorded, on the call worker, so a miss does not render every call on
//! the query thread.
//!
//! There is one resolution path: [`Executor::execute`] and
//! [`resolve_execs_streamed`] prepare a table for the plan they are given
//! and run it, exactly as a hit runs the cached one.
//!
//! [`Executor::execute`]: crate::Executor::execute
//! [`resolve_execs_streamed`]: crate::resolve_execs_streamed

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use disco_algebra::{LogicalExpr, PhysicalExpr, ScalarExpr};
use disco_catalog::{Catalog, TypeMap};
use disco_optimizer::{CacheEntry, CalibrationKey, Plan};
use disco_wrapper::expected_after_expr;

use crate::exec::ExecKey;
use crate::Result;

/// A plan ready to execute: the physical plan and its call table, built
/// against the catalog generation the plan was optimized for.  This is
/// what the mediator's and the server's plan caches hold; see the module
/// documentation.
#[derive(Debug)]
pub struct PreparedPlan {
    query: Option<String>,
    catalog_generation: u64,
    physical: PhysicalExpr,
    pub(crate) calls: Arc<CallTable>,
}

impl PreparedPlan {
    /// Prepares `plan` against `catalog`, the catalog it was optimized
    /// against.  The plan's logical tree is dropped.
    ///
    /// # Errors
    ///
    /// An extent or interface a call names that `catalog` does not hold.
    pub fn new(plan: Plan, catalog: &Catalog) -> Result<Self> {
        let calls = Arc::new(CallTable::new(&plan.physical, catalog)?);
        Ok(PreparedPlan {
            query: plan.query,
            catalog_generation: plan.catalog_generation,
            physical: plan.physical,
            calls,
        })
    }

    /// The physical plan.
    #[must_use]
    pub fn physical(&self) -> &PhysicalExpr {
        &self.physical
    }
}

impl CacheEntry for PreparedPlan {
    fn query_text(&self) -> Option<&str> {
        self.query.as_deref()
    }

    fn catalog_generation(&self) -> u64 {
        self.catalog_generation
    }
}

/// The distinct `exec` calls of one physical plan, in plan order, with
/// every lookup that does not depend on the execution done.
#[derive(Debug, Clone, Default)]
pub(crate) struct CallTable {
    calls: Vec<Arc<Call>>,
    /// Indices into `calls` sorted by extent, plan order among the calls
    /// to one extent: a lookup from a plan node is a binary search and a
    /// pointer comparison (`ExecKey::is`), with no key built for it.
    by_extent: Vec<usize>,
}

impl CallTable {
    /// The call table of `plan` against `catalog`.
    pub(crate) fn new(plan: &PhysicalExpr, catalog: &Catalog) -> Result<Self> {
        let mut shapes: Vec<Arc<CallShape>> = Vec::new();
        let mut fields: BTreeMap<&str, Vec<String>> = BTreeMap::new();
        let mut calls = Vec::new();
        for (repository, wrapper, extent, shipped) in distinct_calls(plan) {
            let meta = catalog.extent(extent)?;
            let interface = meta.interface();
            if !fields.contains_key(interface) {
                let names = catalog
                    .attributes_of(interface)?
                    .iter()
                    .map(|a| a.name().to_owned())
                    .collect();
                fields.insert(interface, names);
            }
            let shape = CallShape {
                map: meta.map().clone(),
                expected: expected_after_expr(shipped.expr(), &fields[interface]),
            };
            let shape = match shapes.iter().find(|known| ***known == shape) {
                Some(known) => Arc::clone(known),
                None => {
                    let shape = Arc::new(shape);
                    shapes.push(Arc::clone(&shape));
                    shape
                }
            };
            calls.push(Arc::new(Call {
                key: ExecKey {
                    repository: Arc::from(repository),
                    extent: Arc::from(extent),
                    expr: shipped.share(),
                },
                wrapper: wrapper.to_owned(),
                shape,
                calibration: OnceLock::new(),
            }));
        }
        let mut table = CallTable {
            calls,
            by_extent: Vec::new(),
        };
        table.index();
        Ok(table)
    }

    /// Rebuilds `by_extent` (a stable sort keeps plan order per extent).
    fn index(&mut self) {
        let calls = &self.calls;
        self.by_extent = (0..calls.len()).collect();
        self.by_extent
            .sort_by(|&a, &b| calls[a].key.extent.cmp(&calls[b].key.extent));
    }

    /// The calls, in plan order.
    pub(crate) fn calls(&self) -> &[Arc<Call>] {
        &self.calls
    }

    /// The index of the call shipping `expr` to `extent` of `repository`.
    pub(crate) fn position(
        &self,
        repository: &str,
        extent: &str,
        expr: &LogicalExpr,
    ) -> Option<usize> {
        let calls = &self.calls;
        let first = self
            .by_extent
            .partition_point(|&i| *calls[i].key.extent < *extent);
        self.by_extent[first..]
            .iter()
            .copied()
            .take_while(|&i| *calls[i].key.extent == *extent)
            .find(|&i| calls[i].key.is(repository, extent, expr))
    }

    /// Appends a call nobody prepared: a resolution filled in by hand.
    pub(crate) fn push_unprepared(&mut self, key: ExecKey) {
        self.calls.push(Arc::new(Call {
            key,
            wrapper: String::new(),
            shape: Arc::default(),
            calibration: OnceLock::new(),
        }));
        self.index();
    }
}

/// One distinct call of a prepared plan.
#[derive(Debug)]
pub(crate) struct Call {
    pub(crate) key: ExecKey,
    /// The wrapper's name; its handle is looked up per execution.
    pub(crate) wrapper: String,
    pub(crate) shape: Arc<CallShape>,
    calibration: OnceLock<CalibrationKey>,
}

impl Call {
    /// The keys the calibration store records this call under, rendered
    /// by the first execution that records it.
    pub(crate) fn calibration_key(&self) -> &CalibrationKey {
        self.calibration
            .get_or_init(|| CalibrationKey::of(&self.key.expr))
    }
}

/// How a call's rows are brought into the mediator's name space and
/// checked: the extent's transformation map, and the fields every row
/// must carry after the shipped expression.  Like-typed extents share one.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct CallShape {
    pub(crate) map: TypeMap,
    pub(crate) expected: Vec<String>,
}

/// The expression a call ships, where the plan holds it.
#[derive(Clone, Copy)]
enum Shipped<'a> {
    /// An `exec` node's, which the call table shares.
    Exec(&'a Arc<LogicalExpr>),
    /// A `submit`'s inside an aggregate sub-plan.
    Nested(&'a LogicalExpr),
}

impl<'a> Shipped<'a> {
    fn expr(self) -> &'a LogicalExpr {
        match self {
            Shipped::Exec(expr) => expr,
            Shipped::Nested(expr) => expr,
        }
    }

    fn share(self) -> Arc<LogicalExpr> {
        match self {
            Shipped::Exec(expr) => Arc::clone(expr),
            Shipped::Nested(expr) => Arc::new(expr.clone()),
        }
    }
}

/// Collects the distinct `exec` calls of a physical plan, including those
/// nested inside correlated-aggregate sub-plans, as `(key, wrapper name,
/// shipped expression)` in plan order.
#[must_use]
pub fn collect_exec_calls(plan: &PhysicalExpr) -> Vec<(ExecKey, String, LogicalExpr)> {
    distinct_calls(plan)
        .into_iter()
        .map(|(repository, wrapper, extent, shipped)| {
            let key = ExecKey {
                repository: Arc::from(repository),
                extent: Arc::from(extent),
                expr: shipped.share(),
            };
            (key, wrapper.to_owned(), shipped.expr().clone())
        })
        .collect()
}

/// The distinct calls of `plan` as `(repository, wrapper, extent,
/// shipped)`, in plan order.  Two calls are the same call when they ship
/// the same expression to the same extent of the same repository; the
/// expression is compared structurally, never rendered.
fn distinct_calls<'a>(plan: &'a PhysicalExpr) -> Vec<(&'a str, &'a str, &'a str, Shipped<'a>)> {
    let mut out: Vec<(&'a str, &'a str, &'a str, Shipped<'a>)> = Vec::new();
    // Positions in `out`, per extent: a call is compared against the calls
    // to its own extent only.
    let mut seen: BTreeMap<&'a str, Vec<usize>> = BTreeMap::new();
    let mut push =
        |repository: &'a str, wrapper: &'a str, extent: &'a str, shipped: Shipped<'a>| {
            let same_extent = seen.entry(extent).or_default();
            if !same_extent.iter().any(|&at| {
                let (r, _, e, s) = out[at];
                r == repository && e == extent && s.expr() == shipped.expr()
            }) {
                same_extent.push(out.len());
                out.push((repository, wrapper, extent, shipped));
            }
        };
    plan.walk(&mut |node| match node {
        PhysicalExpr::Exec {
            repository,
            wrapper,
            extent,
            logical,
        } => push(repository, wrapper, extent, Shipped::Exec(logical)),
        // Sub-plans inside a shipped expression never contain submits
        // (they are pushable operators only), but the mediator-side
        // operators carry scalars, and an aggregate sub-plan inside one
        // hides further submits.
        PhysicalExpr::FilterOp { predicate, .. } => submits_in_scalar(predicate, &mut push),
        PhysicalExpr::MapOp { projection, .. } => submits_in_scalar(projection, &mut push),
        PhysicalExpr::NestedLoopJoin {
            predicate: Some(predicate),
            ..
        } => submits_in_scalar(predicate, &mut push),
        PhysicalExpr::HashJoin {
            left_key,
            right_key,
            residual,
            ..
        } => {
            for scalar in [left_key, right_key].into_iter().chain(residual) {
                submits_in_scalar(scalar, &mut push);
            }
        }
        _ => {}
    });
    out
}

/// Reports every `submit` (repository, wrapper, extent, shipped
/// expression) inside the aggregate sub-plans of `expr`.
fn submits_in_scalar<'a, F>(expr: &'a ScalarExpr, report: &mut F)
where
    F: FnMut(&'a str, &'a str, &'a str, Shipped<'a>),
{
    match expr {
        ScalarExpr::Agg(_, plan) => submits_in_plan(plan, report),
        ScalarExpr::Binary { left, right, .. } => {
            submits_in_scalar(left, report);
            submits_in_scalar(right, report);
        }
        ScalarExpr::Not(inner) | ScalarExpr::Field(inner, _) => submits_in_scalar(inner, report),
        ScalarExpr::StructLit(fields) => {
            for (_, e) in fields {
                submits_in_scalar(e, report);
            }
        }
        ScalarExpr::Call(_, args) => {
            for a in args {
                submits_in_scalar(a, report);
            }
        }
        ScalarExpr::Const(_) | ScalarExpr::Attr(_) | ScalarExpr::Var(_) => {}
    }
}

/// [`submits_in_scalar`] for a logical sub-plan: its own `submit`s and
/// those its scalars hide.
fn submits_in_plan<'a, F>(plan: &'a LogicalExpr, report: &mut F)
where
    F: FnMut(&'a str, &'a str, &'a str, Shipped<'a>),
{
    match plan {
        LogicalExpr::Submit {
            repository,
            wrapper,
            extent,
            expr,
        } => report(repository, wrapper, extent, Shipped::Nested(expr)),
        LogicalExpr::Filter { predicate, .. } => submits_in_scalar(predicate, report),
        LogicalExpr::MapProject { projection, .. } => submits_in_scalar(projection, report),
        LogicalExpr::Join {
            predicate: Some(p), ..
        } => submits_in_scalar(p, report),
        _ => {}
    }
    for child in plan.children() {
        submits_in_plan(child, report);
    }
}

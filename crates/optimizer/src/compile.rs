//! Compilation of (resolved) OQL expressions into the logical algebra.
//!
//! "The optimizer first accepts queries written in the declarative OQL and
//! transforms the query into an expression on an algebraic machine" (§3.1).
//! The compiler produces a *canonical* plan: one `submit(get)` per data
//! source — an interface's extent over two or more sources is one
//! [`LogicalExpr::Extents`] node, whatever their number — wrapped in
//! `bind` nodes for the range variables, mediator-side
//! joins for multi-variable `from` clauses, a filter for the `where`
//! clause, and a generalized projection for the `select` clause.  The
//! optimizer's transformation rules then normalize and push work towards
//! the wrappers.

use disco_catalog::{Catalog, MetaExtent, NameRef};
use disco_oql::ast::{Expr as OqlExpr, FromBinding, SelectExpr};
use disco_oql::parse_query;
use disco_oql::resolve::expand_views;

use std::sync::Arc;

use disco_algebra::{agg_from_oql, data_of, scalar_op_from_oql, Extents, LogicalExpr, ScalarExpr};

use crate::patch::NameUse;
use crate::{OptimizerError, Result};

/// Compiles OQL text into a canonical logical plan: parses, expands views
/// against the catalog, then compiles.
///
/// # Errors
///
/// Returns parse errors, unresolved-collection errors and unsupported
/// construct errors.
pub fn compile_text(query: &str, catalog: &Catalog) -> Result<LogicalExpr> {
    let ast = parse_query(query)?;
    compile_query(&ast, catalog)
}

/// Compiles a parsed OQL expression (expanding views first).  An implicit
/// interface extent is not expanded into a union of its extents: it
/// compiles to one [`Extents`] node.
///
/// # Errors
///
/// See [`compile_text`].
pub fn compile_query(ast: &OqlExpr, catalog: &Catalog) -> Result<LogicalExpr> {
    compile_recording(ast, catalog).map(|(plan, _)| plan)
}

/// [`compile_query`], and every collection name the plan was compiled
/// from, one per use, with what it resolved to.
pub(crate) fn compile_recording(
    ast: &OqlExpr,
    catalog: &Catalog,
) -> Result<(LogicalExpr, Vec<NameUse>)> {
    let resolved = expand_views(ast, catalog)?;
    let mut compiler = Compiler {
        catalog,
        bound_vars: Vec::new(),
        names: Vec::new(),
    };
    let plan = compiler.compile_collection(&resolved)?;
    Ok((plan, compiler.names))
}

struct Compiler<'a> {
    catalog: &'a Catalog,
    /// Variables bound by enclosing selects (for correlated sub-queries).
    bound_vars: Vec<String>,
    /// The collection names compiled so far.
    names: Vec<NameUse>,
}

impl Compiler<'_> {
    /// Compiles an expression appearing in *collection position* (the whole
    /// query, a `from` collection, an argument of `union`/`flatten`).
    fn compile_collection(&mut self, expr: &OqlExpr) -> Result<LogicalExpr> {
        match expr {
            OqlExpr::Select(sel) => self.compile_select(sel),
            OqlExpr::Union(items) => {
                let compiled = items
                    .iter()
                    .map(|i| self.compile_collection(i))
                    .collect::<Result<Vec<_>>>()?;
                Ok(LogicalExpr::Union(compiled))
            }
            OqlExpr::BagConstruct(items) => {
                // A bag of literals is data; a bag of sub-queries is a union
                // of their results (the §2.3 `personnew` view).
                if items.iter().all(OqlExpr::is_data) {
                    let values = items
                        .iter()
                        .map(literal_value)
                        .collect::<Result<Vec<_>>>()?;
                    Ok(LogicalExpr::Data(values.into_iter().collect()))
                } else {
                    let compiled = items
                        .iter()
                        .map(|i| self.compile_collection(i))
                        .collect::<Result<Vec<_>>>()?;
                    Ok(LogicalExpr::Union(compiled))
                }
            }
            OqlExpr::ListConstruct(items) => {
                let values = items
                    .iter()
                    .map(literal_value)
                    .collect::<Result<Vec<_>>>()?;
                Ok(LogicalExpr::Data(values.into_iter().collect()))
            }
            OqlExpr::Flatten(inner) => Ok(LogicalExpr::Flatten(Box::new(
                self.compile_collection(inner)?,
            ))),
            OqlExpr::Ident(name) => self.compile_named_collection(name),
            OqlExpr::Literal(value) => Ok(data_of([value.clone()])),
            OqlExpr::Aggregate(func, inner) => Ok(LogicalExpr::Aggregate {
                func: agg_from_oql(*func),
                input: Box::new(self.compile_collection(inner)?),
            }),
            other => Err(OptimizerError::Unsupported(format!(
                "expression in collection position: {other:?}"
            ))),
        }
    }

    /// Compiles a named collection: a registered extent becomes
    /// `submit(repository, get(extent))`, the extent of an interface (or a
    /// recursive extent) over two or more extents one [`Extents`] node.
    fn compile_named_collection(&mut self, name: &str) -> Result<LogicalExpr> {
        // Range variables of enclosing selects may be used as collections in
        // correlated sub-queries only through path expressions, which are
        // not collections; a bare variable is unsupported.
        let (plan, extents) = match self.catalog.lookup(name) {
            Ok(NameRef::Extent(extent)) => (submit_of(extent), None),
            Ok(NameRef::InterfaceExtent { extents, .. })
            | Ok(NameRef::RecursiveExtent { extents, .. }) => {
                let plan = match extents.as_slice() {
                    [] => LogicalExpr::Data(disco_value::Bag::new()),
                    [extent] => submit_of(extent),
                    extents => LogicalExpr::Extents(members_of(extents).named(name)),
                };
                (plan, Some(extents.len()))
            }
            Ok(NameRef::View(_)) | Err(_) => {
                return Err(OptimizerError::UnresolvedCollection(name.to_owned()))
            }
        };
        self.names.push(NameUse {
            name: name.into(),
            extents,
        });
        Ok(plan)
    }

    fn compile_select(&mut self, sel: &SelectExpr) -> Result<LogicalExpr> {
        if sel.bindings.is_empty() {
            return Err(OptimizerError::Unsupported(
                "select without a from clause".into(),
            ));
        }
        // Compile each binding into an environment-row producing plan.
        let mut plans: Vec<(String, LogicalExpr)> = Vec::new();
        for FromBinding { var, collection } in &sel.bindings {
            let source_plan = self.compile_collection(collection)?;
            plans.push((var.clone(), source_plan));
        }
        let newly_bound: Vec<String> = plans.iter().map(|(v, _)| v.clone()).collect();
        self.bound_vars.extend(newly_bound.iter().cloned());

        // Narrow each source to the attributes the query actually uses,
        // when they can be determined (projection pushdown opportunity).
        let needed = needed_attributes(sel);
        let mut bound_plans: Vec<LogicalExpr> = Vec::new();
        for (var, plan) in plans {
            let narrowed = match needed.iter().find(|(v, _)| *v == var) {
                Some((_, Some(attrs))) if !attrs.is_empty() && supports_narrowing(&plan) => {
                    insert_projection(plan, attrs)
                }
                _ => plan,
            };
            bound_plans.push(LogicalExpr::Bind {
                var,
                input: Box::new(narrowed),
            });
        }

        // Combine bindings with mediator joins (left-deep).
        let where_scalar = sel
            .where_clause
            .as_ref()
            .map(|w| self.compile_scalar(w))
            .transpose()?;
        let mut iter = bound_plans.into_iter();
        let first = iter.next().expect("at least one binding");
        let combined = if sel.bindings.len() == 1 {
            match where_scalar {
                Some(pred) => first.filter(pred),
                None => first,
            }
        } else {
            let mut joined = first;
            let mut remaining = iter.peekable();
            while let Some(next) = remaining.next() {
                let is_last = remaining.peek().is_none();
                joined = LogicalExpr::Join {
                    left: Box::new(joined),
                    right: Box::new(next),
                    // Attach the where clause to the outermost join so the
                    // implementation rules can extract equi-join keys.
                    predicate: if is_last { where_scalar.clone() } else { None },
                };
            }
            joined
        };

        let projection = self.compile_scalar(&sel.projection)?;
        let mut result = combined.map_project(projection);
        if sel.distinct {
            result = LogicalExpr::Distinct(Box::new(result));
        }
        for _ in &newly_bound {
            self.bound_vars.pop();
        }
        Ok(result)
    }

    /// Compiles a scalar (projection / predicate) expression.
    fn compile_scalar(&mut self, expr: &OqlExpr) -> Result<ScalarExpr> {
        match expr {
            OqlExpr::Literal(v) => Ok(ScalarExpr::Const(v.clone())),
            OqlExpr::Ident(name) => {
                if self.bound_vars.contains(name) {
                    Ok(ScalarExpr::Var(name.clone()))
                } else {
                    // An unbound identifier in scalar position is treated as
                    // a symbolic constant (e.g. `x.interface = Person` in the
                    // meta-extent query); it compares by name.
                    Ok(ScalarExpr::Const(disco_value::Value::from(name.clone())))
                }
            }
            OqlExpr::Path(base, field) => {
                let base = self.compile_scalar(base)?;
                Ok(ScalarExpr::Field(Box::new(base), field.clone()))
            }
            OqlExpr::Binary { op, left, right } => Ok(ScalarExpr::Binary {
                op: scalar_op_from_oql(*op),
                left: Box::new(self.compile_scalar(left)?),
                right: Box::new(self.compile_scalar(right)?),
            }),
            OqlExpr::Not(inner) => Ok(ScalarExpr::Not(Box::new(self.compile_scalar(inner)?))),
            OqlExpr::StructConstruct(fields) => {
                let mut out = Vec::with_capacity(fields.len());
                for (name, e) in fields {
                    out.push((name.clone().into(), self.compile_scalar(e)?));
                }
                Ok(ScalarExpr::StructLit(out))
            }
            OqlExpr::Aggregate(func, inner) => {
                // A correlated aggregate sub-query: compile the inner
                // collection with the outer variables still visible.
                let plan = self.compile_correlated(inner)?;
                Ok(ScalarExpr::Agg(agg_from_oql(*func), Box::new(plan)))
            }
            OqlExpr::Call(name, args) => {
                let mut out = Vec::with_capacity(args.len());
                for a in args {
                    out.push(self.compile_scalar(a)?);
                }
                Ok(ScalarExpr::Call(name.clone(), out))
            }
            OqlExpr::Select(_)
            | OqlExpr::Union(_)
            | OqlExpr::BagConstruct(_)
            | OqlExpr::ListConstruct(_)
            | OqlExpr::Flatten(_) => Err(OptimizerError::Unsupported(
                "collection-valued expression used as a scalar (wrap it in an aggregate)".into(),
            )),
            OqlExpr::Element(inner) => {
                // element(select …) — evaluate the sub-query and take its
                // single element; modelled as a min aggregate over one value.
                let plan = self.compile_correlated(inner)?;
                Ok(ScalarExpr::Agg(disco_algebra::AggKind::Min, Box::new(plan)))
            }
        }
    }

    /// Compiles a sub-query that may reference enclosing range variables.
    fn compile_correlated(&mut self, expr: &OqlExpr) -> Result<LogicalExpr> {
        self.compile_collection(expr)
    }
}

/// Builds `submit(repository, wrapper, get(extent))` for one registered
/// extent.
fn submit_of(extent: &MetaExtent) -> LogicalExpr {
    LogicalExpr::get(extent.extent_name()).submit(
        extent.repository(),
        extent.wrapper(),
        extent.extent_name(),
    )
}

/// The [`Extents`] node of `extents`, in catalog order; a wrapper name is
/// shared by the members it serves in a row.
fn members_of(extents: &[&MetaExtent]) -> Extents {
    let mut wrapper: Option<Arc<str>> = None;
    Extents::new(extents.iter().map(|extent| {
        let shared = match wrapper.take() {
            Some(known) if *known == *extent.wrapper() => known,
            _ => Arc::from(extent.wrapper()),
        };
        wrapper = Some(Arc::clone(&shared));
        (
            Arc::from(extent.repository()),
            shared,
            Arc::from(extent.extent_name()),
        )
    }))
}

/// For each range variable of a select, the set of attributes the query
/// uses (`None` when the variable is used whole, so no narrowing is safe).
fn needed_attributes(sel: &SelectExpr) -> Vec<(String, Option<Vec<String>>)> {
    let vars: Vec<String> = sel.bindings.iter().map(|b| b.var.clone()).collect();
    let mut out: Vec<(String, Option<Vec<String>>)> =
        vars.iter().map(|v| (v.clone(), Some(Vec::new()))).collect();
    let mut exprs: Vec<&OqlExpr> = vec![&sel.projection];
    if let Some(w) = &sel.where_clause {
        exprs.push(w);
    }
    for e in exprs {
        collect_var_usage(e, &vars, &mut out);
    }
    out
}

fn collect_var_usage(
    expr: &OqlExpr,
    vars: &[String],
    out: &mut Vec<(String, Option<Vec<String>>)>,
) {
    match expr {
        OqlExpr::Path(base, field) => {
            if let OqlExpr::Ident(name) = base.as_ref() {
                if vars.contains(name) {
                    if let Some((_, Some(attrs))) = out.iter_mut().find(|(v, _)| v == name) {
                        if !attrs.contains(field) {
                            attrs.push(field.clone());
                        }
                    }
                    return;
                }
            }
            collect_var_usage(base, vars, out);
        }
        OqlExpr::Ident(name) => {
            // The variable is used whole (e.g. `select x from …`): narrowing
            // would change the result.
            if let Some(entry) = out.iter_mut().find(|(v, _)| v == name) {
                entry.1 = None;
            }
        }
        OqlExpr::Binary { left, right, .. } => {
            collect_var_usage(left, vars, out);
            collect_var_usage(right, vars, out);
        }
        OqlExpr::Not(inner)
        | OqlExpr::Flatten(inner)
        | OqlExpr::Element(inner)
        | OqlExpr::Aggregate(_, inner) => collect_var_usage(inner, vars, out),
        OqlExpr::StructConstruct(fields) => {
            for (_, e) in fields {
                collect_var_usage(e, vars, out);
            }
        }
        OqlExpr::Call(_, args)
        | OqlExpr::Union(args)
        | OqlExpr::BagConstruct(args)
        | OqlExpr::ListConstruct(args) => {
            for a in args {
                collect_var_usage(a, vars, out);
            }
        }
        OqlExpr::Select(inner) => {
            // A correlated sub-query may use outer variables anywhere inside.
            collect_var_usage(&inner.projection, vars, out);
            if let Some(w) = &inner.where_clause {
                collect_var_usage(w, vars, out);
            }
            for b in &inner.bindings {
                collect_var_usage(&b.collection, vars, out);
            }
        }
        OqlExpr::Literal(_) => {}
    }
}

/// Narrowing projections are only safe over plans that produce source rows.
fn supports_narrowing(plan: &LogicalExpr) -> bool {
    match plan {
        LogicalExpr::Submit { .. } | LogicalExpr::Get { .. } | LogicalExpr::Extents(_) => true,
        LogicalExpr::Union(items) => items.iter().all(supports_narrowing),
        _ => false,
    }
}

/// Inserts `project(attrs, …)` directly above each submit/get in the plan
/// (in an [`Extents`] node, above its template's).
fn insert_projection(plan: LogicalExpr, attrs: &[String]) -> LogicalExpr {
    match plan {
        LogicalExpr::Union(items) => LogicalExpr::Union(
            items
                .into_iter()
                .map(|i| insert_projection(i, attrs))
                .collect(),
        ),
        LogicalExpr::Extents(mut node) => {
            node.templates = std::mem::take(&mut node.templates)
                .into_iter()
                .map(|t| insert_projection(t, attrs))
                .collect();
            LogicalExpr::Extents(node)
        }
        other => LogicalExpr::Project {
            input: Box::new(other),
            columns: attrs.to_vec(),
        },
    }
}

fn literal_value(expr: &OqlExpr) -> Result<disco_value::Value> {
    match expr {
        OqlExpr::Literal(v) => Ok(v.clone()),
        OqlExpr::StructConstruct(fields) => {
            let mut out = Vec::with_capacity(fields.len());
            for (name, e) in fields {
                out.push((name.clone(), literal_value(e)?));
            }
            Ok(disco_value::Value::Struct(
                disco_value::StructValue::new(out).map_err(disco_algebra::AlgebraError::from)?,
            ))
        }
        OqlExpr::BagConstruct(items) => Ok(disco_value::Value::Bag(
            items
                .iter()
                .map(literal_value)
                .collect::<Result<disco_value::Bag>>()?,
        )),
        other => Err(OptimizerError::Unsupported(format!(
            "non-literal value in data position: {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_catalog::{Attribute, InterfaceDef, Repository, TypeRef, ViewDef, WrapperDef};

    fn paper_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("id", TypeRef::Int))
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
        c.add_wrapper(WrapperDef::new("w0", "relational")).unwrap();
        for r in ["r0", "r1"] {
            c.add_repository(Repository::new(r)).unwrap();
        }
        c.add_extent(MetaExtent::new("person0", "Person", "w0", "r0"))
            .unwrap();
        c.add_extent(MetaExtent::new("person1", "Person", "w0", "r1"))
            .unwrap();
        c
    }

    #[test]
    fn intro_query_compiles_to_canonical_plan() {
        let catalog = paper_catalog();
        let plan = compile_text(
            "select x.name from x in person where x.salary > 10",
            &catalog,
        )
        .unwrap();
        let text = plan.to_string();
        // One node over both sources, narrowing projections inserted above
        // its submit (the optimizer decides later whether they can be
        // pushed), bind, filter and map on top.
        assert!(
            text.contains("project(name, salary, submit(r0, get(person0)))"),
            "{text}"
        );
        assert!(
            text.contains("project(name, salary, submit(r1, get(person1)))"),
            "{text}"
        );
        assert!(text.starts_with("map("), "{text}");
        assert!(text.contains("select((x.salary > 10)"), "{text}");
    }

    #[test]
    fn single_extent_query_compiles_without_union() {
        let catalog = paper_catalog();
        let plan = compile_text("select x.name from x in person0", &catalog).unwrap();
        assert_eq!(plan.collect_submits().len(), 1);
        assert_eq!(plan.collections(), vec!["person0"]);
    }

    #[test]
    fn select_star_variable_disables_narrowing() {
        let catalog = paper_catalog();
        let plan =
            compile_text("select x from x in person0 where x.salary > 10", &catalog).unwrap();
        let text = plan.to_string();
        assert!(
            !text.contains("project("),
            "whole-row use must not narrow: {text}"
        );
    }

    #[test]
    fn two_binding_query_compiles_to_join_with_predicate() {
        let catalog = paper_catalog();
        let plan = compile_text(
            "select struct(name: x.name, salary: x.salary + y.salary) \
             from x in person0, y in person1 where x.id = y.id",
            &catalog,
        )
        .unwrap();
        let text = plan.to_string();
        assert!(text.contains("mjoin("), "{text}");
        assert_eq!(plan.collect_submits().len(), 2);
    }

    #[test]
    fn view_reference_is_expanded_before_compilation() {
        let mut catalog = paper_catalog();
        catalog
            .define_view(
                ViewDef::new("rich", "select x from x in person where x.salary > 100")
                    .with_references(["person"]),
            )
            .unwrap();
        let plan = compile_text("select r.name from r in rich", &catalog).unwrap();
        // The view body ranges over both person sources.
        assert_eq!(plan.collect_submits().len(), 2);
    }

    #[test]
    fn aggregate_query_compiles_to_aggregate_node() {
        let catalog = paper_catalog();
        let plan = compile_text("sum(select x.salary from x in person0)", &catalog).unwrap();
        assert!(matches!(plan, LogicalExpr::Aggregate { .. }));
    }

    #[test]
    fn correlated_aggregate_in_projection_compiles() {
        let catalog = paper_catalog();
        let plan = compile_text(
            "select struct(name: x.name, total: sum(select z.salary from z in person where x.id = z.id)) \
             from x in person0",
            &catalog,
        )
        .unwrap();
        // The correlated sub-plan appears inside the projection.
        let text = plan.to_string();
        assert!(text.contains("sum("), "{text}");
    }

    #[test]
    fn distinct_and_literal_bags() {
        let catalog = paper_catalog();
        let plan = compile_text("select distinct x.name from x in person0", &catalog).unwrap();
        assert!(matches!(plan, LogicalExpr::Distinct(_)));
        let plan = compile_text("bag(\"Sam\", \"Mary\")", &catalog).unwrap();
        assert!(matches!(plan, LogicalExpr::Data(_)));
    }

    #[test]
    fn partial_answer_resubmission_compiles() {
        // The §1.3 / §4 partial answer is itself a query; it must compile.
        let catalog = paper_catalog();
        let plan = compile_text(
            "union(select y.name from y in person0 where y.salary > 10, bag(\"Sam\"))",
            &catalog,
        )
        .unwrap();
        match &plan {
            LogicalExpr::Union(items) => {
                assert_eq!(items.len(), 2);
                assert!(matches!(items[1], LogicalExpr::Data(_)));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unknown_collection_is_reported() {
        let catalog = paper_catalog();
        let err = compile_text("select x from x in mystery", &catalog).unwrap_err();
        assert!(matches!(err, OptimizerError::UnresolvedCollection(_)));
    }

    #[test]
    fn empty_interface_compiles_to_empty_data() {
        let mut catalog = paper_catalog();
        catalog
            .define_interface(InterfaceDef::new("Empty").with_extent_name("empty"))
            .unwrap();
        let plan = compile_text("select x from x in empty", &catalog).unwrap();
        assert_eq!(plan.collect_submits().len(), 0);
    }
}

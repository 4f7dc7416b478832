//! Name resolution against the mediator catalog: view expansion and
//! implicit-extent expansion.
//!
//! Two source-level rewrites happen before a query reaches the optimizer:
//!
//! 1. **View expansion** (§2.2.3) — `define name as <query>` views are
//!    substituted by their bodies wherever the view name appears in a
//!    collection position.  Views may reference other views; cycles were
//!    already rejected by the catalog, and a depth limit guards against
//!    pathological nesting.
//! 2. **Implicit-extent expansion** (§2.1, §2.2.1) — a reference to the
//!    implicit extent of an interface (e.g. `person`) is replaced by the
//!    union of the currently registered per-source extents
//!    (`union(person0, person1)`); `person*` also collects subtype
//!    extents.  This is exactly the paper's
//!    `flatten(select x.e from x in metaextent where x.interface=Person)`
//!    definition, evaluated against the meta-data.
//!
//! Both rewrites ask the catalog through [`Catalog::lookup`], which answers
//! with references: learning that `person` is not a view, or the names of
//! its 256 extents, copies no `MetaExtent`.

use disco_catalog::{Catalog, NameRef};

use crate::ast::{Expr, FromBinding, SelectExpr};
use crate::parser::parse_query;
use crate::OqlError;

/// Maximum view-inside-view nesting depth.
const MAX_VIEW_DEPTH: usize = 32;

/// Expands view references in collection positions into their bodies.
///
/// # Errors
///
/// Returns [`OqlError::ViewExpansionTooDeep`] if nesting exceeds the limit
/// and propagates parse errors from view bodies.
pub fn expand_views(expr: &Expr, catalog: &Catalog) -> Result<Expr, OqlError> {
    expand_views_depth(expr, catalog, 0)
}

fn expand_views_depth(expr: &Expr, catalog: &Catalog, depth: usize) -> Result<Expr, OqlError> {
    if depth > MAX_VIEW_DEPTH {
        return Err(OqlError::ViewExpansionTooDeep(format!("{expr:?}")));
    }
    transform_collections(expr, &mut |name| {
        match catalog.lookup(name) {
            Ok(NameRef::View(view)) => {
                let body = parse_query(view.body())?;
                // Recursively expand views referenced by this view's body.
                let expanded = expand_views_depth(&body, catalog, depth + 1)?;
                Ok(Some(expanded))
            }
            _ => Ok(None),
        }
    })
}

/// Expands implicit interface extents (and `name*` recursive extents) into
/// unions of the registered per-source extents.
///
/// Unknown names are left untouched so that the optimizer can report a
/// precise error later.
///
/// # Errors
///
/// Propagates catalog errors other than unresolved names.
pub fn expand_extents(expr: &Expr, catalog: &Catalog) -> Result<Expr, OqlError> {
    transform_collections(expr, &mut |name| match catalog.lookup(name) {
        Ok(NameRef::InterfaceExtent { extents, .. })
        | Ok(NameRef::RecursiveExtent { extents, .. }) => {
            let items: Vec<Expr> = extents
                .iter()
                .map(|e| Expr::Ident(e.extent_name().to_owned()))
                .collect();
            Ok(Some(match items.len() {
                0 => Expr::BagConstruct(Vec::new()),
                1 => items.into_iter().next().expect("one item"),
                _ => Expr::Union(items),
            }))
        }
        _ => Ok(None),
    })
}

/// Applies `expand_views` then `expand_extents` — the full source-level
/// rewrite used by the mediator before algebraic compilation.
///
/// # Errors
///
/// See [`expand_views`] and [`expand_extents`].
pub fn resolve_query(expr: &Expr, catalog: &Catalog) -> Result<Expr, OqlError> {
    let expanded = expand_views(expr, catalog)?;
    expand_extents(&expanded, catalog)
}

/// Rewrites every *collection position* identifier through `replace`.
/// `replace` returns `Ok(Some(new_expr))` to substitute, `Ok(None)` to keep
/// the identifier.
fn transform_collections<F>(expr: &Expr, replace: &mut F) -> Result<Expr, OqlError>
where
    F: FnMut(&str) -> Result<Option<Expr>, OqlError>,
{
    Ok(match expr {
        Expr::Select(sel) => {
            let mut bindings = Vec::with_capacity(sel.bindings.len());
            for binding in &sel.bindings {
                let collection = match &binding.collection {
                    Expr::Ident(name) => match replace(name)? {
                        Some(new_expr) => new_expr,
                        None => binding.collection.clone(),
                    },
                    other => transform_collections(other, replace)?,
                };
                bindings.push(FromBinding {
                    var: binding.var.clone(),
                    collection,
                });
            }
            let projection = transform_collections(&sel.projection, replace)?;
            let where_clause = match &sel.where_clause {
                Some(w) => Some(Box::new(transform_collections(w, replace)?)),
                None => None,
            };
            Expr::Select(SelectExpr {
                distinct: sel.distinct,
                projection: Box::new(projection),
                bindings,
                where_clause,
            })
        }
        Expr::Union(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(match item {
                    Expr::Ident(name) => match replace(name)? {
                        Some(new_expr) => new_expr,
                        None => item.clone(),
                    },
                    other => transform_collections(other, replace)?,
                });
            }
            Expr::Union(out)
        }
        Expr::Flatten(inner) => {
            let rewritten = match inner.as_ref() {
                Expr::Ident(name) => match replace(name)? {
                    Some(new_expr) => new_expr,
                    None => (**inner).clone(),
                },
                other => transform_collections(other, replace)?,
            };
            Expr::Flatten(Box::new(rewritten))
        }
        Expr::Element(inner) => Expr::Element(Box::new(transform_collections(inner, replace)?)),
        Expr::Aggregate(func, inner) => {
            Expr::Aggregate(*func, Box::new(transform_collections(inner, replace)?))
        }
        Expr::Not(inner) => Expr::Not(Box::new(transform_collections(inner, replace)?)),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(transform_collections(left, replace)?),
            right: Box::new(transform_collections(right, replace)?),
        },
        Expr::Path(base, field) => Expr::Path(
            Box::new(transform_collections(base, replace)?),
            field.clone(),
        ),
        Expr::BagConstruct(items) => Expr::BagConstruct(
            items
                .iter()
                .map(|i| transform_collections(i, replace))
                .collect::<Result<_, _>>()?,
        ),
        Expr::ListConstruct(items) => Expr::ListConstruct(
            items
                .iter()
                .map(|i| transform_collections(i, replace))
                .collect::<Result<_, _>>()?,
        ),
        Expr::StructConstruct(fields) => Expr::StructConstruct(
            fields
                .iter()
                .map(|(n, e)| Ok((n.clone(), transform_collections(e, replace)?)))
                .collect::<Result<Vec<_>, OqlError>>()?,
        ),
        Expr::Call(name, args) => Expr::Call(
            name.clone(),
            args.iter()
                .map(|i| transform_collections(i, replace))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Literal(_) | Expr::Ident(_) => expr.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_expr;
    use disco_catalog::{
        Attribute, InterfaceDef, MetaExtent, Repository, TypeRef, ViewDef, WrapperDef,
    };

    fn paper_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.define_interface(
            InterfaceDef::new("Person")
                .with_extent_name("person")
                .with_attribute(Attribute::new("name", TypeRef::String))
                .with_attribute(Attribute::new("salary", TypeRef::Int)),
        )
        .unwrap();
        c.define_interface(InterfaceDef::new("Student").with_supertype("Person"))
            .unwrap();
        c.add_wrapper(WrapperDef::new("w0", "relational")).unwrap();
        for r in ["r0", "r1", "r2"] {
            c.add_repository(Repository::new(r)).unwrap();
        }
        c.add_extent(MetaExtent::new("person0", "Person", "w0", "r0"))
            .unwrap();
        c.add_extent(MetaExtent::new("person1", "Person", "w0", "r1"))
            .unwrap();
        c.add_extent(MetaExtent::new("student0", "Student", "w0", "r2"))
            .unwrap();
        c
    }

    #[test]
    fn implicit_extent_expands_to_union_of_sources() {
        let c = paper_catalog();
        let q = parse_query("select x.name from x in person where x.salary > 10").unwrap();
        let resolved = resolve_query(&q, &c).unwrap();
        let printed = print_expr(&resolved);
        assert_eq!(
            printed,
            "select x.name from x in union(person0, person1) where x.salary > 10"
        );
    }

    #[test]
    fn recursive_extent_collects_subtype_sources() {
        let c = paper_catalog();
        let q = parse_query("select x.name from x in person*").unwrap();
        let resolved = resolve_query(&q, &c).unwrap();
        let printed = print_expr(&resolved);
        assert!(printed.contains("person0"));
        assert!(printed.contains("person1"));
        assert!(printed.contains("student0"));
    }

    #[test]
    fn query_text_is_invariant_when_sources_are_added() {
        // The paper's key scalability claim for the DBA: the query does not
        // change, only the expansion grows.
        let mut c = paper_catalog();
        let q = parse_query("select x.name from x in person where x.salary > 10").unwrap();
        let before = resolve_query(&q, &c).unwrap();
        c.add_repository(Repository::new("r9")).unwrap();
        c.add_extent(MetaExtent::new("person9", "Person", "w0", "r9"))
            .unwrap();
        let after = resolve_query(&q, &c).unwrap();
        assert_ne!(before, after);
        assert!(print_expr(&after).contains("person9"));
    }

    #[test]
    fn view_bodies_are_substituted() {
        let mut c = paper_catalog();
        c.define_view(
            ViewDef::new("rich", "select x from x in person where x.salary > 100")
                .with_references(["person"]),
        )
        .unwrap();
        let q = parse_query("select y.name from y in rich").unwrap();
        let resolved = resolve_query(&q, &c).unwrap();
        let printed = print_expr(&resolved);
        assert!(printed.contains("x.salary > 100"));
        assert!(printed.contains("union(person0, person1)"));
    }

    #[test]
    fn nested_views_expand_recursively() {
        let mut c = paper_catalog();
        c.define_view(
            ViewDef::new("rich", "select x from x in person where x.salary > 100")
                .with_references(["person"]),
        )
        .unwrap();
        c.define_view(
            ViewDef::new("rich_names", "select r.name from r in rich").with_references(["rich"]),
        )
        .unwrap();
        let q = parse_query("select n from n in rich_names").unwrap();
        let resolved = resolve_query(&q, &c).unwrap();
        let printed = print_expr(&resolved);
        assert!(printed.contains("x.salary > 100"));
    }

    #[test]
    fn interface_with_no_sources_expands_to_empty_bag() {
        let mut c = paper_catalog();
        c.define_interface(InterfaceDef::new("Empty").with_extent_name("empty"))
            .unwrap();
        let q = parse_query("select x from x in empty").unwrap();
        let resolved = resolve_query(&q, &c).unwrap();
        assert!(print_expr(&resolved).contains("bag()"));
    }

    #[test]
    fn single_source_interface_expands_without_union() {
        let c = paper_catalog();
        let q = parse_query("select s.name from s in student0").unwrap();
        // person0 etc. are already extents; no change expected.
        let resolved = resolve_query(&q, &c).unwrap();
        assert_eq!(print_expr(&resolved), "select s.name from s in student0");
    }

    #[test]
    fn unknown_names_pass_through_untouched() {
        let c = paper_catalog();
        let q = parse_query("select x from x in mystery").unwrap();
        let resolved = resolve_query(&q, &c).unwrap();
        assert_eq!(print_expr(&resolved), "select x from x in mystery");
    }
}

//! Application of local transformation maps (§2.2.2) at the wrapper
//! boundary, plus the run-time type-conformance check.
//!
//! The `exec` physical algorithm "transforms the second argument logical
//! expression into a logical expression in the name space of the data
//! source using the map"; answers travel the opposite direction.  The two
//! directions are [`map_expr_to_source`] and [`map_rows_to_mediator`].

use disco_algebra::LogicalExpr;
use disco_catalog::TypeMap;
use disco_value::{Bag, StructValue, Value};

use crate::WrapperError;

/// Rewrites a pushed logical expression from the mediator name space into
/// the data-source name space: extent names become source relation names
/// and attribute names are renamed through the map.
#[must_use]
pub fn map_expr_to_source(expr: &LogicalExpr, map: &TypeMap) -> LogicalExpr {
    if map.is_identity() {
        return expr.clone();
    }
    let rename_attr = |a: &str| map.mediator_to_source(a);
    match expr {
        LogicalExpr::Get { collection } => LogicalExpr::Get {
            collection: map.extent_to_relation(collection),
        },
        LogicalExpr::Filter { input, predicate } => LogicalExpr::Filter {
            input: Box::new(map_expr_to_source(input, map)),
            predicate: predicate.rename_attrs(&rename_attr),
        },
        LogicalExpr::Project { input, columns } => LogicalExpr::Project {
            input: Box::new(map_expr_to_source(input, map)),
            columns: columns.iter().map(|c| map.mediator_to_source(c)).collect(),
        },
        LogicalExpr::SourceJoin { left, right, on } => LogicalExpr::SourceJoin {
            left: Box::new(map_expr_to_source(left, map)),
            right: Box::new(map_expr_to_source(right, map)),
            on: on
                .iter()
                .map(|(l, r)| (map.mediator_to_source(l), map.mediator_to_source(r)))
                .collect(),
        },
        // Other operators never cross the wrapper boundary; keep them
        // unchanged so the caller can still display the plan.
        other => other.map_children(&|child| map_expr_to_source(child, map)),
    }
}

/// Renames the fields of answer rows from the data-source name space back
/// into the mediator name space.  Under an identity map the rows come
/// back as they are: the same storage, nothing copied.
#[must_use]
pub fn map_rows_to_mediator(rows: Bag, map: &TypeMap) -> Bag {
    if map.is_identity() {
        return rows;
    }
    rows.iter()
        .map(|v| match v {
            Value::Struct(s) => Value::Struct(s.rename_fields(|f| Some(map.source_to_mediator(f)))),
            other => other.clone(),
        })
        .collect()
}

/// Checks that every struct row carries the attributes the mediator type
/// expects — the run-time type check the paper requires of wrappers
/// ("the wrapper checks that these types are indeed the same", §2.1,
/// §2.2.2).
///
/// # Errors
///
/// Returns [`WrapperError::TypeConflict`] naming the first missing
/// attribute.
pub fn check_type_conformance(
    rows: &Bag,
    expected_attributes: &[String],
    extent: &str,
) -> Result<(), WrapperError> {
    // Every row is looked at, but the rows of one table share their
    // field-name storage: a row declaring the very names of the last row
    // verified needs no attribute looked up again.
    let mut verified: Option<&StructValue> = None;
    for row in rows {
        if let Value::Struct(s) = row {
            if verified.is_some_and(|last| last.shares_names_with(s)) {
                continue;
            }
            for attr in expected_attributes {
                if !s.has_field(attr) {
                    return Err(WrapperError::TypeConflict {
                        extent: extent.to_owned(),
                        missing_attribute: attr.clone(),
                    });
                }
            }
            verified = Some(s);
        }
    }
    Ok(())
}

/// Projects `expected_attributes` out of the check when the pushed
/// expression already narrowed the rows (a projected answer legitimately
/// lacks the other attributes).
#[must_use]
pub fn expected_after_expr(expr: &LogicalExpr, expected_attributes: &[String]) -> Vec<String> {
    fn output_columns(expr: &LogicalExpr) -> Option<Vec<String>> {
        match expr {
            LogicalExpr::Project { columns, .. } => Some(columns.clone()),
            LogicalExpr::Filter { input, .. } => output_columns(input),
            LogicalExpr::Submit { expr, .. } => output_columns(expr),
            _ => None,
        }
    }
    match output_columns(expr) {
        Some(cols) => expected_attributes
            .iter()
            .filter(|a| cols.contains(a))
            .cloned()
            .collect(),
        None => expected_attributes.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{ScalarExpr, ScalarOp};

    fn paper_map() -> TypeMap {
        TypeMap::builder()
            .relation("person0", "personprime0")
            .attribute("name", "n")
            .attribute("salary", "s")
            .build()
            .unwrap()
    }

    #[test]
    fn expr_is_rewritten_into_source_namespace() {
        // Mediator-side: project(n, select(s > 10, get(personprime0)))
        let expr = LogicalExpr::get("personprime0")
            .filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::attr("s"),
                ScalarExpr::constant(10i64),
            ))
            .project(["n"]);
        let mapped = map_expr_to_source(&expr, &paper_map());
        assert_eq!(
            mapped.to_string(),
            "project(name, select((salary > 10), get(person0)))"
        );
        // Identity maps leave the expression untouched.
        let id = TypeMap::new();
        assert_eq!(map_expr_to_source(&expr, &id), expr);
    }

    #[test]
    fn answer_rows_are_renamed_back_to_mediator_attributes() {
        let rows: Bag = [Value::Struct(
            StructValue::new(vec![
                ("name", Value::from("Mary")),
                ("salary", Value::Int(200)),
            ])
            .unwrap(),
        )]
        .into_iter()
        .collect();
        let mapped = map_rows_to_mediator(rows, &paper_map());
        let row = mapped.iter().next().unwrap().as_struct().unwrap();
        assert!(row.has_field("n"));
        assert!(row.has_field("s"));
        assert!(!row.has_field("name"));
    }

    #[test]
    fn type_conformance_detects_missing_attributes() {
        let rows: Bag = [Value::Struct(
            StructValue::new(vec![("name", Value::from("Mary"))]).unwrap(),
        )]
        .into_iter()
        .collect();
        let ok = check_type_conformance(&rows, &["name".to_owned()], "person0");
        assert!(ok.is_ok());
        let err =
            check_type_conformance(&rows, &["name".to_owned(), "salary".to_owned()], "person0")
                .unwrap_err();
        assert!(matches!(err, WrapperError::TypeConflict { .. }));
        // Non-struct rows (projected scalars) are not checked.
        let scalars: Bag = [Value::from("Mary")].into_iter().collect();
        assert!(check_type_conformance(&scalars, &["name".to_owned()], "person0").is_ok());
    }

    #[test]
    fn type_conformance_still_looks_at_every_row() {
        // Two rows sharing their names, then an intruder of another
        // layout: the shortcut must not skip it.
        let name: std::sync::Arc<str> = "name".into();
        let good = |v: &str| {
            Value::Struct(StructValue::from_distinct_fields(vec![(
                std::sync::Arc::clone(&name),
                Value::from(v),
            )]))
        };
        let intruder = Value::Struct(StructValue::new(vec![("n", Value::from("x"))]).unwrap());
        let rows: Bag = [good("Mary"), good("Sam"), intruder, good("Ann")]
            .into_iter()
            .collect();
        let err = check_type_conformance(&rows, &["name".to_owned()], "person0").unwrap_err();
        assert!(matches!(err, WrapperError::TypeConflict { .. }));
    }

    #[test]
    fn expected_attributes_shrink_after_projection() {
        let expected = vec!["name".to_owned(), "salary".to_owned()];
        let projected = LogicalExpr::get("person0").project(["name"]);
        assert_eq!(expected_after_expr(&projected, &expected), vec!["name"]);
        let unprojected = LogicalExpr::get("person0");
        assert_eq!(expected_after_expr(&unprojected, &expected), expected);
    }
}

//! Application of local transformation maps (§2.2.2) at the wrapper
//! boundary, plus the run-time type-conformance check.
//!
//! The `exec` physical algorithm "transforms the second argument logical
//! expression into a logical expression in the name space of the data
//! source using the map"; answers travel the opposite direction.  The two
//! directions are [`map_expr_to_source`] and [`map_rows_to_mediator`].

use std::borrow::Cow;
use std::sync::Arc;

use disco_algebra::LogicalExpr;
use disco_catalog::TypeMap;
use disco_value::{Bag, StructValue, Value};

use crate::WrapperError;

/// Rewrites a pushed logical expression from the mediator name space into
/// the data-source name space: extent names become source relation names
/// and attribute names are renamed through the map.  Under an identity
/// map the expression is shipped as it is — borrowed, nothing cloned.
#[must_use]
pub fn map_expr_to_source<'e>(expr: &'e LogicalExpr, map: &TypeMap) -> Cow<'e, LogicalExpr> {
    if map.is_identity() {
        return Cow::Borrowed(expr);
    }
    Cow::Owned(rewritten_for_source(expr, map))
}

fn rewritten_for_source(expr: &LogicalExpr, map: &TypeMap) -> LogicalExpr {
    let rename_attr = |a: &str| map.mediator_to_source(a);
    match expr {
        LogicalExpr::Get { collection } => LogicalExpr::Get {
            collection: map.extent_to_relation(collection),
        },
        LogicalExpr::Filter { input, predicate } => LogicalExpr::Filter {
            input: Box::new(rewritten_for_source(input, map)),
            predicate: predicate.rename_attrs(&rename_attr),
        },
        LogicalExpr::Project { input, columns } => LogicalExpr::Project {
            input: Box::new(rewritten_for_source(input, map)),
            columns: columns.iter().map(|c| map.mediator_to_source(c)).collect(),
        },
        LogicalExpr::SourceJoin { left, right, on } => LogicalExpr::SourceJoin {
            left: Box::new(rewritten_for_source(left, map)),
            right: Box::new(rewritten_for_source(right, map)),
            on: on
                .iter()
                .map(|(l, r)| (map.mediator_to_source(l), map.mediator_to_source(r)))
                .collect(),
        },
        // Other operators never cross the wrapper boundary; keep them
        // unchanged so the caller can still display the plan.
        other => other.map_children(&|child| rewritten_for_source(child, map)),
    }
}

/// The mediator-side names of `source` names, one fresh `Arc<str>` each.
fn mediator_names<'n>(source: impl Iterator<Item = &'n str>, map: &TypeMap) -> Vec<Arc<str>> {
    source
        .map(|name| Arc::from(map.source_to_mediator(name)))
        .collect()
}

/// Renames the fields of answer rows from the data-source name space back
/// into the mediator name space.  Under an identity map the rows come
/// back as they are: the same storage, nothing copied.
///
/// A chunk is renamed once: a column-faced chunk on its field list, a row
/// chunk through one set of mediator names per run of rows sharing their
/// source names — stamped into every row of the run, so the renamed rows
/// of one table still share their name storage.
#[must_use]
pub fn map_rows_to_mediator(rows: Bag, map: &TypeMap) -> Bag {
    if map.is_identity() {
        return rows;
    }
    if let Some(columns) = rows.columns() {
        let names = mediator_names(columns.names().iter().map(AsRef::as_ref), map);
        // Two source names mapped onto one: only rows can hold that.
        if let Ok(renamed) = columns.renamed(names) {
            return Bag::from_columns(renamed);
        }
    }
    let mut run: Option<(&StructValue, Vec<Arc<str>>)> = None;
    rows.iter()
        .map(|v| match v {
            Value::Struct(s) => {
                if !run
                    .as_ref()
                    .is_some_and(|(first, _)| first.shares_names_with(s))
                {
                    run = Some((s, mediator_names(s.field_names(), map)));
                }
                let (_, names) = run.as_ref().expect("set above");
                Value::Struct(s.with_field_names(names))
            }
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
    let conflict = |attr: &String| WrapperError::TypeConflict {
        extent: extent.to_owned(),
        missing_attribute: attr.clone(),
    };
    // The rows of a column-faced chunk all declare its field list: one
    // check per chunk is the check of every row.
    if let Some(columns) = rows.columns() {
        let missing = expected_attributes
            .iter()
            .find(|attr| columns.slot_of(attr).is_none());
        return match missing {
            Some(attr) if !rows.is_empty() => Err(conflict(attr)),
            _ => Ok(()),
        };
    }
    // Every row is looked at, but the rows of one table share their
    // field-name storage: a row declaring the very names of the last row
    // verified needs no attribute looked up again.
    let mut verified: Option<&StructValue> = None;
    for row in rows {
        if let Value::Struct(s) = row {
            if verified.is_some_and(|last| last.shares_names_with(s)) {
                continue;
            }
            if let Some(attr) = expected_attributes.iter().find(|attr| !s.has_field(attr)) {
                return Err(conflict(attr));
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
    }

    #[test]
    fn an_identity_map_ships_the_expression_itself() {
        // Borrowed, so nothing was allocated for it: 256 calls of one
        // `plan_wide` query used to deep-clone their expression each.
        let expr = LogicalExpr::get("person0")
            .filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(10i64),
            ))
            .project(["name"]);
        let shipped = map_expr_to_source(&expr, &TypeMap::new());
        assert!(matches!(shipped, Cow::Borrowed(same) if std::ptr::eq(same, &expr)));
        assert!(matches!(
            map_expr_to_source(&expr, &paper_map()),
            Cow::Owned(_)
        ));
    }

    /// The rows `personprime0`'s source stores, as one table's rows are:
    /// sharing their field names.
    fn stored_people() -> Vec<StructValue> {
        let names: [Arc<str>; 2] = ["name".into(), "salary".into()];
        [("Mary", 200), ("Sam", 50), ("Ann", 5)]
            .into_iter()
            .map(|(name, salary)| {
                StructValue::from_distinct_fields(vec![
                    (Arc::clone(&names[0]), Value::from(name)),
                    (Arc::clone(&names[1]), Value::Int(salary)),
                ])
            })
            .collect()
    }

    #[test]
    fn a_mapped_chunk_is_renamed_once_and_its_rows_share_their_names() {
        let stored = stored_people();
        let expected: Bag = stored
            .iter()
            .map(|s| Value::Struct(s.rename_fields(|f| Some(paper_map().source_to_mediator(f)))))
            .collect();
        let as_rows: Bag = stored.iter().cloned().map(Value::Struct).collect();
        let names: Vec<Arc<str>> = vec!["name".into(), "salary".into()];
        let as_columns =
            Bag::from_columns(disco_value::BagColumns::image_of(&names, Arc::new(stored)).unwrap());
        for chunk in [as_rows, as_columns] {
            let faced = chunk.columns().is_some();
            let mapped = map_rows_to_mediator(chunk, &paper_map());
            assert_eq!(mapped.columns().is_some(), faced, "a chunk keeps its face");
            if let Some(columns) = mapped.columns() {
                let names: Vec<&str> = columns.names().iter().map(AsRef::as_ref).collect();
                assert_eq!(names, ["n", "s"], "renamed on the field list");
            }
            assert_eq!(mapped, expected, "the answer is unchanged");
            let rows: Vec<&StructValue> =
                mapped.iter().map(|row| row.as_struct().unwrap()).collect();
            assert_eq!(rows[0].field_names().collect::<Vec<_>>(), ["n", "s"]);
            assert!(
                rows.iter().all(|row| row.shares_names_with(rows[0])),
                "one set of mediator names per chunk, not one per row"
            );
            // … which is what keeps the type check on its fast path.
            let expected_attributes = ["n".to_owned(), "s".to_owned()];
            assert!(check_type_conformance(&mapped, &expected_attributes, "personprime0").is_ok());
        }
    }

    #[test]
    fn a_column_chunk_is_type_checked_on_its_field_list() {
        let names: Vec<Arc<str>> = vec!["name".into(), "salary".into()];
        let chunk = |rows: Vec<StructValue>| {
            Bag::from_columns(disco_value::BagColumns::image_of(&names, Arc::new(rows)).unwrap())
        };
        let expected = ["name".to_owned(), "dept".to_owned(), "boss".to_owned()];
        let err =
            check_type_conformance(&chunk(stored_people()), &expected, "person0").unwrap_err();
        assert!(
            matches!(&err, WrapperError::TypeConflict { missing_attribute, .. } if missing_attribute == "dept"),
            "the first missing attribute, as for rows: {err}"
        );
        let as_rows: Bag = stored_people().into_iter().map(Value::Struct).collect();
        assert_eq!(
            check_type_conformance(&as_rows, &expected, "person0")
                .unwrap_err()
                .to_string(),
            err.to_string()
        );
        // No row, no conflict — whatever the field list says.
        assert!(check_type_conformance(&chunk(Vec::new()), &expected, "person0").is_ok());
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

//! A small in-memory relational store — the stand-in for the remote
//! relational DBMSs (the paper's `WrapperPostgres` targets).
//!
//! The store is deliberately simple: named tables with declared columns and
//! rows of [`StructValue`]s.  The DISCO wrapper evaluates pushed algebra
//! expressions against it; the store itself only offers scans and simple
//! native filters, which is all a wrapper needs.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use disco_value::{BagColumns, StructValue, Value};
use parking_lot::RwLock;

use crate::{Result, SourceError};

/// One relation: declared columns plus rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    name: String,
    columns: Vec<String>,
    /// `columns` as the shared field names stamped into every row: the
    /// rows of one table share their name storage.
    names: Vec<Arc<str>>,
    /// Shared with the image, and through it with every answer taken
    /// from it: an insert that finds such a reader copies the rows first.
    rows: Arc<Vec<StructValue>>,
    /// The rows as columns, built by the first call that asks and dropped
    /// by [`Table::insert`].
    image: OnceLock<Option<BagColumns>>,
}

impl PartialEq for Table {
    /// Tables are equal when they hold the same rows under the same
    /// declaration; whether the image has been built is not content.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.columns == other.columns && self.rows == other.rows
    }
}

impl Table {
    /// Creates an empty table with declared columns.
    pub fn new<I, S>(name: impl Into<String>, columns: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        Table {
            name: name.into(),
            names: columns.iter().map(|c| Arc::from(c.as_str())).collect(),
            columns,
            rows: Arc::default(),
            image: OnceLock::new(),
        }
    }

    /// The table name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared columns, in order.
    #[must_use]
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row.  Missing declared columns are filled with `null`;
    /// undeclared columns are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`SourceError::UnknownColumn`] if the row has a field the
    /// table does not declare.
    pub fn insert(&mut self, row: StructValue) -> Result<()> {
        for (field, _) in row.iter() {
            if !self.columns.iter().any(|c| c == field) {
                return Err(SourceError::UnknownColumn {
                    table: self.name.clone(),
                    column: field.to_owned(),
                });
            }
        }
        let mut complete = Vec::with_capacity(self.columns.len());
        for name in &self.names {
            let value = row.get(name).cloned().unwrap_or(Value::Null);
            complete.push((Arc::clone(name), value));
        }
        // An image (or an answer) still holding the rows keeps the ones
        // it was taken from: the push copies them first.
        self.image = OnceLock::new();
        Arc::make_mut(&mut self.rows).push(StructValue::new(complete).expect("columns are unique"));
        Ok(())
    }

    /// Inserts a row built from `(column, value)` pairs.
    ///
    /// # Errors
    ///
    /// Same as [`Table::insert`], plus duplicate-field errors.
    pub fn insert_values<N, I>(&mut self, values: I) -> Result<()>
    where
        N: Into<std::sync::Arc<str>>,
        I: IntoIterator<Item = (N, Value)>,
    {
        let row = StructValue::new(values)?;
        self.insert(row)
    }

    /// The rows, in insertion order.
    #[must_use]
    pub fn rows(&self) -> &[StructValue] {
        &self.rows
    }

    /// The rows as columns — one per declared column, every row selected,
    /// the rows themselves kept beside them — immutable and shared by
    /// every call until the next [`Table::insert`]; a call in flight
    /// keeps the image it started with.  Built on first use.  `None` when
    /// the declaration repeats a column (no struct row holds a name
    /// twice).
    #[must_use]
    pub fn image(&self) -> Option<&BagColumns> {
        self.image
            .get_or_init(|| BagColumns::image_of(&self.names, Arc::clone(&self.rows)))
            .as_ref()
    }

    /// Total number of scalar cells (rows × columns) — a proxy for data
    /// volume used by the cost experiments.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.rows.len() * self.columns.len()
    }
}

/// A collection of tables behind one repository address.
///
/// Thread-safe: the runtime issues `exec` calls in parallel (§4), so
/// wrappers may scan concurrently.
#[derive(Debug, Default)]
pub struct RelationalStore {
    /// Tables are shared with the calls reading them: a call takes a
    /// reference-count bump, and a write that finds readers copies the
    /// table first, so a call in flight keeps the rows it started with.
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
}

impl RelationalStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        RelationalStore::default()
    }

    /// Creates or replaces a table.
    pub fn put_table(&self, table: Table) {
        self.tables
            .write()
            .insert(table.name().to_owned(), Arc::new(table));
    }

    /// The named table as it is now, shared: what a wrapper call reads.
    /// No row is copied.
    ///
    /// # Errors
    ///
    /// Returns [`SourceError::UnknownTable`] when absent.
    pub fn shared_table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| SourceError::UnknownTable(name.to_owned()))
    }

    /// Returns a clone of the named table.
    ///
    /// # Errors
    ///
    /// Returns [`SourceError::UnknownTable`] when absent.
    pub fn table(&self, name: &str) -> Result<Table> {
        Ok((*self.shared_table(name)?).clone())
    }

    /// Scans all rows of a table.
    ///
    /// # Errors
    ///
    /// Returns [`SourceError::UnknownTable`] when absent.
    pub fn scan(&self, name: &str) -> Result<Vec<StructValue>> {
        Ok(self.shared_table(name)?.rows().to_vec())
    }

    /// Inserts a row into an existing table.
    ///
    /// # Errors
    ///
    /// Returns [`SourceError::UnknownTable`] or [`SourceError::UnknownColumn`].
    pub fn insert(&self, table: &str, row: StructValue) -> Result<()> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(table)
            .ok_or_else(|| SourceError::UnknownTable(table.to_owned()))?;
        Arc::make_mut(t).insert(row)
    }

    /// The table names, sorted.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Number of rows in a table (0 when the table is unknown).
    #[must_use]
    pub fn row_count(&self, table: &str) -> usize {
        self.tables.read().get(table).map_or(0, |t| t.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn person_table() -> Table {
        let mut t = Table::new("person0", ["name", "salary"]);
        t.insert_values([("name", Value::from("Mary")), ("salary", Value::Int(200))])
            .unwrap();
        t
    }

    #[test]
    fn insert_and_scan() {
        let store = RelationalStore::new();
        store.put_table(person_table());
        let rows = store.scan("person0").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].field("name").unwrap(), &Value::from("Mary"));
        assert!(store.scan("missing").is_err());
    }

    #[test]
    fn missing_columns_become_null_and_unknown_columns_are_rejected() {
        let mut t = Table::new("t", ["a", "b"]);
        t.insert_values([("a", Value::Int(1))]).unwrap();
        assert_eq!(t.rows()[0].field("b").unwrap(), &Value::Null);
        let err = t.insert_values([("z", Value::Int(1))]).unwrap_err();
        assert!(matches!(err, SourceError::UnknownColumn { .. }));
    }

    #[test]
    fn rows_are_normalised_to_declared_column_order() {
        let mut t = Table::new("t", ["a", "b"]);
        t.insert_values([("b", Value::Int(2)), ("a", Value::Int(1))])
            .unwrap();
        let names: Vec<&str> = t.rows()[0].field_names().collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn rows_of_one_table_share_their_column_names() {
        let mut t = Table::new("t", ["a", "b"]);
        t.insert_values([("a", Value::Int(1)), ("b", Value::Int(2))])
            .unwrap();
        t.insert_values([("b", Value::Int(4))]).unwrap();
        assert!(
            t.rows()[0].shares_names_with(&t.rows()[1]),
            "one allocation per declared column, not one per cell"
        );
        let csv = crate::parse_csv("m", "a,b\n1,2\n3,4\n").unwrap();
        assert!(csv.rows()[0].shares_names_with(&csv.rows()[1]));
    }

    #[test]
    fn a_shared_table_keeps_its_rows_while_the_store_moves_on() {
        let store = RelationalStore::new();
        store.put_table(person_table());
        let before = store.shared_table("person0").unwrap();
        store
            .insert(
                "person0",
                StructValue::new(vec![("name", Value::from("Sam"))]).unwrap(),
            )
            .unwrap();
        assert_eq!(before.len(), 1, "a reader keeps the table it took");
        assert_eq!(store.shared_table("person0").unwrap().len(), 2);
        assert_eq!(store.scan("person0").unwrap().len(), 2);
    }

    #[test]
    fn store_level_insert_and_counts() {
        let store = RelationalStore::new();
        store.put_table(Table::new("t", ["a"]));
        store
            .insert("t", StructValue::new(vec![("a", Value::Int(1))]).unwrap())
            .unwrap();
        assert_eq!(store.row_count("t"), 1);
        assert_eq!(store.row_count("missing"), 0);
        assert_eq!(store.table_names(), vec!["t"]);
        assert!(store.insert("missing", StructValue::default()).is_err());
        assert_eq!(store.table("t").unwrap().cell_count(), 1);
    }
}

//! The column face of a [`Bag`](crate::Bag): struct rows that exist as
//! named, shared [`Column`]s under a selection, and become row values
//! only for a consumer that asks for rows.
//!
//! A relational table keeps one immutable column image of its rows; the
//! answer to `project(select(get))` over it is that image's columns, the
//! projected ones, under the indices of the rows that survived — no row
//! is built, nothing is gathered.  The answer travels as an ordinary
//! [`Bag`](crate::Bag) (one plumbing path: sinks, spools, outcomes,
//! literal data), is cut into link chunks by narrowing a window, is
//! renamed and type-checked on its field list, and meets the mediator's
//! kernels where it lies ([`BagColumns::chunk`]).  Whoever reads it as
//! rows — `iter`, `as_slice`, equality, a join that keeps rows — gets
//! them built once, lazily; for an answer nothing projected or renamed
//! those are the stored rows themselves, a pointer bump each.

use std::ops::Range;
use std::sync::Arc;

use crate::{Column, ColumnarChunk, Result, StructValue, Value, ValueError};

/// Named columns of equal height and the rows of them — in order, with
/// repetition if the selection says so — that are the elements of a bag.
#[derive(Clone)]
pub struct BagColumns {
    names: Arc<[Arc<str>]>,
    columns: Arc<[Arc<Column>]>,
    /// Slots per column.
    height: usize,
    /// Column rows in bag order; `None` stands for `0..height`.
    picked: Option<Arc<[u32]>>,
    /// The stretch of `picked` (of `0..height`) this bag holds: a link
    /// chunk is a narrower window over the same selection.
    window: Range<usize>,
    /// The struct rows the columns were decoded from, while `names` and
    /// `columns` are still exactly their fields: element `i` is then
    /// `stored[row]`, shared, not a struct built from the columns.
    stored: Option<Arc<Vec<StructValue>>>,
}

impl std::fmt::Debug for BagColumns {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BagColumns")
            .field("names", &self.names)
            .field("height", &self.height)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// The first name of `names` that occurs twice.
fn repeated(names: &[Arc<str>]) -> Option<&Arc<str>> {
    names
        .iter()
        .enumerate()
        .find_map(|(i, name)| names[..i].contains(name).then_some(name))
}

impl BagColumns {
    /// Every row of `columns`, named `names`.
    ///
    /// # Errors
    ///
    /// [`ValueError::DuplicateField`] when a name repeats (a struct row
    /// cannot hold it twice).
    ///
    /// # Panics
    ///
    /// Panics when `names` and `columns` differ in number or the columns
    /// in height: that is a bug of the caller, not a property of data.
    pub fn new(names: Vec<Arc<str>>, columns: Vec<Arc<Column>>) -> Result<Self> {
        assert_eq!(names.len(), columns.len(), "one name per column");
        let height = columns.first().map_or(0, |column| column.len());
        assert!(
            columns.iter().all(|column| column.len() == height),
            "columns of one height"
        );
        if let Some(name) = repeated(&names) {
            return Err(ValueError::DuplicateField {
                field: name.as_ref().to_owned(),
            });
        }
        Ok(BagColumns {
            names: names.into(),
            columns: columns.into(),
            height,
            picked: None,
            window: 0..height,
            stored: None,
        })
    }

    /// The column image of `rows`: one column per name, every row an
    /// element, and the rows kept beside the columns so that reading an
    /// element back hands out the row itself.  `None` unless every row
    /// declares exactly `names`, in that order.
    #[must_use]
    pub fn image_of(names: &[Arc<str>], rows: Arc<Vec<StructValue>>) -> Option<Self> {
        if rows.iter().any(|row| row.len() != names.len()) {
            return None;
        }
        let mut scratch: Vec<&Value> = Vec::with_capacity(rows.len());
        let mut columns = Vec::with_capacity(names.len());
        for (slot, name) in names.iter().enumerate() {
            scratch.clear();
            for row in rows.iter() {
                match row.field_at(slot) {
                    Some((field, value)) if field == name.as_ref() => scratch.push(value),
                    _ => return None,
                }
            }
            columns.push(Arc::new(Column::from_values(&scratch)));
        }
        let mut image = BagColumns::new(names.to_vec(), columns).ok()?;
        // Without columns there is no height to read off them.
        image.height = rows.len();
        image.window = 0..rows.len();
        image.stored = Some(rows);
        Some(image)
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Returns `true` when no row is selected.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The field names, in column order.
    #[must_use]
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// The position of the column called `name`.
    #[must_use]
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n.as_ref() == name)
    }

    /// The column at `slot`, whole (not narrowed to the selection).
    ///
    /// # Panics
    ///
    /// Panics when `slot` is out of range.
    #[must_use]
    pub fn column(&self, slot: usize) -> &Arc<Column> {
        &self.columns[slot]
    }

    /// The same rows, keeping only the columns at `slots`, in that order.
    ///
    /// # Errors
    ///
    /// [`ValueError::DuplicateField`] when a slot repeats.
    ///
    /// # Panics
    ///
    /// Panics when a slot is out of range.
    pub fn project(&self, slots: &[usize]) -> Result<Self> {
        let names: Arc<[Arc<str>]> = slots.iter().map(|&s| Arc::clone(&self.names[s])).collect();
        if let Some(name) = repeated(&names) {
            return Err(ValueError::DuplicateField {
                field: name.as_ref().to_owned(),
            });
        }
        Ok(BagColumns {
            names,
            columns: slots
                .iter()
                .map(|&s| Arc::clone(&self.columns[s]))
                .collect(),
            stored: None,
            ..self.clone()
        })
    }

    /// The same rows and columns under other field names, one per column
    /// in order.
    ///
    /// # Errors
    ///
    /// [`ValueError::DuplicateField`] when two columns would share a name.
    ///
    /// # Panics
    ///
    /// Panics when `names` does not hold one name per column.
    pub fn renamed(&self, names: Vec<Arc<str>>) -> Result<Self> {
        assert_eq!(names.len(), self.columns.len(), "one name per column");
        if let Some(name) = repeated(&names) {
            return Err(ValueError::DuplicateField {
                field: name.as_ref().to_owned(),
            });
        }
        Ok(BagColumns {
            names: names.into(),
            stored: None,
            ..self.clone()
        })
    }

    /// The same columns with `rows` of them as the elements, in the order
    /// given (whatever was selected before).
    ///
    /// # Panics
    ///
    /// Panics when an index is not a row of the columns.
    #[must_use]
    pub fn select(&self, rows: Vec<u32>) -> Self {
        assert!(
            rows.iter().all(|&row| (row as usize) < self.height),
            "a selected row is a row of the columns"
        );
        BagColumns {
            window: 0..rows.len(),
            picked: Some(rows.into()),
            ..self.clone()
        }
    }

    /// The elements at `range` (positions in this bag) as a bag of their
    /// own: the same columns and selection under a narrower window.
    ///
    /// # Panics
    ///
    /// Panics when `range` reaches past the last element.
    #[must_use]
    pub fn slice(&self, range: Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= self.len());
        BagColumns {
            window: self.window.start + range.start..self.window.start + range.end,
            ..self.clone()
        }
    }

    /// Appends the column rows behind the elements at `range` to `out` —
    /// the selection vector a kernel runs the elements under.
    ///
    /// # Panics
    ///
    /// Panics when `range` reaches past the last element.
    pub fn rows_at(&self, range: Range<usize>, out: &mut Vec<u32>) {
        assert!(range.start <= range.end && range.end <= self.len());
        let window = self.window.start + range.start..self.window.start + range.end;
        match &self.picked {
            Some(picked) => out.extend_from_slice(&picked[window]),
            None => out.extend(
                u32::try_from(window.start).expect("chunk rows are u32")
                    ..u32::try_from(window.end).expect("chunk rows are u32"),
            ),
        }
    }

    /// The columns called `fields`, in that order, as the chunk compiled
    /// kernels evaluate over — whole columns, shared: rows are addressed
    /// through [`BagColumns::rows_at`].  `None` when a field is not a
    /// column of this bag.
    #[must_use]
    pub fn chunk(&self, fields: &[Arc<str>]) -> Option<ColumnarChunk> {
        let columns = fields
            .iter()
            .map(|field| Some(Arc::clone(&self.columns[self.slot_of(field)?])))
            .collect::<Option<Vec<_>>>()?;
        Some(ColumnarChunk::of_shared(self.height, columns))
    }

    /// Whether `other` selects from the very same columns (and stored
    /// rows), so that the two differ in selection only.
    fn same_columns(&self, other: &BagColumns) -> bool {
        Arc::ptr_eq(&self.names, &other.names)
            && Arc::ptr_eq(&self.columns, &other.columns)
            && match (&self.stored, &other.stored) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }

    /// The elements of `parts`, one after the other, as one selection —
    /// when every part selects from the same columns; `None` otherwise.
    /// Consecutive windows of one selection (the chunks of one answer)
    /// are rejoined by widening the window.
    pub(crate) fn concat(parts: &[&BagColumns]) -> Option<Self> {
        let (first, rest) = parts.split_first()?;
        if !rest.iter().all(|part| first.same_columns(part)) {
            return None;
        }
        let one_selection = rest.iter().all(|part| match (&first.picked, &part.picked) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        });
        let consecutive = parts
            .windows(2)
            .all(|pair| pair[0].window.end == pair[1].window.start);
        if one_selection && consecutive {
            let last = rest.last().unwrap_or(first);
            return Some(BagColumns {
                window: first.window.start..last.window.end,
                ..(*first).clone()
            });
        }
        let mut rows = Vec::with_capacity(parts.iter().map(|part| part.len()).sum());
        for part in parts {
            part.rows_at(0..part.len(), &mut rows);
        }
        Some(first.select(rows))
    }

    /// The elements as row values: the stored rows where there are any
    /// (a reference-count bump each), else one struct per element built
    /// from the columns.
    pub(crate) fn to_rows(&self) -> Vec<Value> {
        let mut rows = Vec::with_capacity(self.len());
        self.rows_at(0..self.len(), &mut rows);
        match &self.stored {
            Some(stored) => rows
                .iter()
                .map(|&row| Value::Struct(stored[row as usize].clone()))
                .collect(),
            None => rows
                .iter()
                .map(|&row| {
                    Value::Struct(StructValue::from_distinct_iter(
                        self.names
                            .iter()
                            .zip(self.columns.iter())
                            .map(|(name, column)| {
                                (Arc::clone(name), column.value_at(row as usize))
                            }),
                    ))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> (Vec<Arc<str>>, Arc<Vec<StructValue>>) {
        let names: Vec<Arc<str>> = vec!["id".into(), "name".into()];
        let rows = (0..5)
            .map(|i| {
                StructValue::from_distinct_fields(vec![
                    (Arc::clone(&names[0]), Value::Int(i)),
                    (Arc::clone(&names[1]), Value::from(format!("p{i}"))),
                ])
            })
            .collect();
        (names, Arc::new(rows))
    }

    #[test]
    fn an_image_hands_out_the_stored_rows_and_a_projection_builds_its_own() {
        let (names, rows) = people();
        let image = BagColumns::image_of(&names, Arc::clone(&rows)).unwrap();
        assert_eq!(image.len(), 5);
        let picked = image.select(vec![3, 1]);
        let values = picked.to_rows();
        assert!(values[0].as_struct().unwrap().ptr_eq(&rows[3]));
        assert!(values[1].as_struct().unwrap().ptr_eq(&rows[1]));
        let narrowed = picked.project(&[1]).unwrap().to_rows();
        assert_eq!(
            narrowed[0],
            Value::Struct(rows[3].project(["name"]).unwrap())
        );
        assert!(
            image.project(&[0, 0]).is_err(),
            "a struct holds a name once"
        );
        assert!(image.renamed(vec!["n".into(), "n".into()]).is_err());
    }

    #[test]
    fn an_image_refuses_rows_of_another_layout() {
        let (names, rows) = people();
        let mut odd = (*rows).clone();
        odd.push(
            StructValue::new(vec![("name", Value::from("x")), ("id", Value::Int(9))]).unwrap(),
        );
        assert!(BagColumns::image_of(&names, Arc::new(odd)).is_none());
        let mut short = (*rows).clone();
        short.push(StructValue::new(vec![("id", Value::Int(9))]).unwrap());
        assert!(BagColumns::image_of(&names, Arc::new(short)).is_none());
        let empty = BagColumns::image_of(&[], Arc::new(vec![StructValue::default(); 3])).unwrap();
        assert_eq!(
            empty.to_rows().len(),
            3,
            "rows without columns are still rows"
        );
    }

    #[test]
    fn windows_of_one_selection_rejoin_without_a_copy() {
        let (names, rows) = people();
        let answer = BagColumns::image_of(&names, rows)
            .unwrap()
            .select(vec![4, 0, 2, 3]);
        let (a, b) = (answer.slice(0..1), answer.slice(1..4));
        let whole = BagColumns::concat(&[&a, &b]).unwrap();
        assert!(Arc::ptr_eq(
            whole.picked.as_ref().unwrap(),
            answer.picked.as_ref().unwrap()
        ));
        assert_eq!(whole.to_rows(), answer.to_rows());
        // Out of order they are a selection of their own.
        let swapped = BagColumns::concat(&[&b, &a]).unwrap();
        let mut rows_of = Vec::new();
        swapped.rows_at(0..4, &mut rows_of);
        assert_eq!(rows_of, [0, 2, 3, 4]);
        let other = answer.project(&[0]).unwrap();
        assert!(BagColumns::concat(&[&a, &other]).is_none());
    }

    #[test]
    fn a_chunk_is_the_named_columns_whole() {
        let (names, rows) = people();
        let answer = BagColumns::image_of(&names, rows).unwrap().select(vec![2]);
        let chunk = answer.chunk(&["name".into(), "id".into()]).unwrap();
        assert_eq!(chunk.len(), 5, "whole columns: rows come through `rows_at`");
        assert_eq!(chunk.column(1).value_at(2), Value::Int(2));
        assert!(answer.chunk(&["salary".into()]).is_none());
    }
}

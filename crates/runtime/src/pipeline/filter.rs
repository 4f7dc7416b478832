//! Streaming row transformers: filter, column projection, generalized
//! projection (map) and bind.  None of these buffer anything — each row is
//! transformed or dropped as it is pulled.  Each pulls one input batch
//! per [`RowStream::next_batch`] into a scratch buffer that is fully
//! drained within the call, so no batch state leaks between pulls.

use std::sync::Arc;

use disco_algebra::{truthy, AlgebraError, ScalarExpr};
use disco_value::{StructValue, Value};

use super::{eval_in_row, BoxedRowStream, PipelineCtx, PipelineMetrics, Result, Row, RowStream};

/// Forwards rows whose predicate evaluates truthy.
pub(crate) struct FilterCursor<'a> {
    input: BoxedRowStream<'a>,
    predicate: &'a ScalarExpr,
    ctx: PipelineCtx<'a>,
    scratch: Vec<Row<'a>>,
}

impl<'a> FilterCursor<'a> {
    pub(crate) fn new(
        input: BoxedRowStream<'a>,
        predicate: &'a ScalarExpr,
        ctx: PipelineCtx<'a>,
    ) -> Self {
        FilterCursor {
            input,
            predicate,
            ctx,
            scratch: Vec::new(),
        }
    }

    fn keep(&self, row: &Row<'_>) -> Result<bool> {
        Ok(truthy(&eval_in_row(self.predicate, row, self.ctx)?))
    }
}

impl<'a> RowStream<'a> for FilterCursor<'a> {
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let more = self.input.next_batch(&mut scratch, max)?;
        for row in scratch.drain(..) {
            if self.keep(&row)? {
                out.push(row);
            }
        }
        self.scratch = scratch;
        Ok(more)
    }

    fn ready(&self) -> bool {
        self.input.ready()
    }
}

/// Projects struct rows onto named columns (`mkproj`).
pub(crate) struct ProjectCursor<'a> {
    input: BoxedRowStream<'a>,
    columns: &'a [String],
    ctx: PipelineCtx<'a>,
    scratch: Vec<Row<'a>>,
}

impl<'a> ProjectCursor<'a> {
    pub(crate) fn new(
        input: BoxedRowStream<'a>,
        columns: &'a [String],
        ctx: PipelineCtx<'a>,
    ) -> Self {
        ProjectCursor {
            input,
            columns,
            ctx,
            scratch: Vec::new(),
        }
    }

    fn project<'r>(&self, row: Row<'r>) -> Result<Row<'r>> {
        project_row(row, self.columns, self.ctx.metrics)
    }
}

/// `mkproj` of one row — shared with the fused spine's per-batch
/// fallback, which must answer (and fail) exactly as this cursor does.
pub(crate) fn project_row<'r>(
    row: Row<'r>,
    columns: &[String],
    metrics: &PipelineMetrics,
) -> Result<Row<'r>> {
    // Single rows are projected straight off the (possibly borrowed)
    // struct; join rows are merged first, since a column projection
    // keeps declared names and needs one struct to project from.
    let merged;
    let value = match row.single_value() {
        Some(value) => value,
        None => {
            merged = row.materialize(metrics)?;
            &merged
        }
    };
    let projected = value
        .as_struct()
        .map_err(AlgebraError::from)?
        .project(columns.iter().map(String::as_str))
        .map_err(AlgebraError::from)?;
    Ok(Row::owned(Value::Struct(projected)))
}

impl<'a> RowStream<'a> for ProjectCursor<'a> {
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let more = self.input.next_batch(&mut scratch, max)?;
        for row in scratch.drain(..) {
            let projected = self.project(row)?;
            out.push(projected);
        }
        self.scratch = scratch;
        Ok(more)
    }

    fn ready(&self) -> bool {
        self.input.ready()
    }
}

/// Evaluates a scalar projection per row (`mkmap`).  Join rows are
/// consumed frame-wise: the projection reads `x.name` straight out of the
/// layered environment, so no merged struct is ever built here.
pub(crate) struct MapCursor<'a> {
    input: BoxedRowStream<'a>,
    projection: &'a ScalarExpr,
    ctx: PipelineCtx<'a>,
    scratch: Vec<Row<'a>>,
}

impl<'a> MapCursor<'a> {
    pub(crate) fn new(
        input: BoxedRowStream<'a>,
        projection: &'a ScalarExpr,
        ctx: PipelineCtx<'a>,
    ) -> Self {
        MapCursor {
            input,
            projection,
            ctx,
            scratch: Vec::new(),
        }
    }
}

impl<'a> RowStream<'a> for MapCursor<'a> {
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let more = self.input.next_batch(&mut scratch, max)?;
        for row in scratch.drain(..) {
            let value = eval_in_row(self.projection, &row, self.ctx)?;
            out.push(Row::owned(value));
        }
        self.scratch = scratch;
        Ok(more)
    }

    fn ready(&self) -> bool {
        self.input.ready()
    }
}

/// The environment row `{name: value}` of `mkbind` — shared with the
/// fused spine, which builds it for the survivors of its filters only.
pub(crate) fn bind_value<'r>(name: &Arc<str>, value: Value) -> Row<'r> {
    Row::owned(Value::Struct(StructValue::from_distinct_iter(
        std::iter::once((Arc::clone(name), value)),
    )))
}

/// Wraps each source row into an environment row `{var: row}` (`mkbind`).
pub(crate) struct BindCursor<'a> {
    input: BoxedRowStream<'a>,
    name: Arc<str>,
    ctx: PipelineCtx<'a>,
    scratch: Vec<Row<'a>>,
}

impl<'a> BindCursor<'a> {
    pub(crate) fn new(input: BoxedRowStream<'a>, var: &str, ctx: PipelineCtx<'a>) -> Self {
        BindCursor {
            input,
            name: Arc::from(var),
            ctx,
            scratch: Vec::new(),
        }
    }

    fn bind<'r>(&self, row: Row<'r>) -> Result<Row<'r>> {
        Ok(bind_value(&self.name, row.materialize(self.ctx.metrics)?))
    }
}

impl<'a> RowStream<'a> for BindCursor<'a> {
    fn next_batch(&mut self, out: &mut Vec<Row<'a>>, max: usize) -> Result<bool> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let more = self.input.next_batch(&mut scratch, max)?;
        for row in scratch.drain(..) {
            let bound = self.bind(row)?;
            out.push(bound);
        }
        self.scratch = scratch;
        Ok(more)
    }

    fn ready(&self) -> bool {
        self.input.ready()
    }
}

//! The shared chunked-delivery loop of `submit_into` calls.
//!
//! Every wrapper over a [`SimulatedLink`] streams the same way: split the
//! answer into the link's chunk sizes, pay (and report) each chunk's
//! simulated latency, and push the chunk into the consumer's sink —
//! stopping promptly when the consumer disconnects.  Factoring the loop
//! here keeps the latency/cancellation semantics identical across the
//! relational, CSV and document wrappers.

use std::time::Duration;

use disco_source::SimulatedLink;
use disco_value::{Bag, BagColumns, Value};

use crate::interface::{AnswerSink, AnswerSummary};
use crate::WrapperError;

/// What is left of an answer being cut into link chunks.  Column-faced
/// answers stay columns: a chunk is a window of the selection.  Rows are
/// moved into their chunk, never copied.
enum Undelivered {
    Columns { answer: Bag, delivered: usize },
    Rows(std::vec::IntoIter<Value>),
}

impl Undelivered {
    fn of(answer: Bag) -> Self {
        match answer.columns() {
            Some(_) => Undelivered::Columns {
                answer,
                delivered: 0,
            },
            None => Undelivered::Rows(answer.into_values().into_iter()),
        }
    }

    fn next_chunk(&mut self, size: usize) -> Bag {
        match self {
            // The whole answer in one chunk is the answer.
            Undelivered::Columns { answer, .. } if size == answer.len() => answer.clone(),
            Undelivered::Columns { answer, delivered } => {
                let columns: &BagColumns = answer.columns().expect("column-faced, see `of`");
                let chunk = columns.slice(*delivered..*delivered + size);
                *delivered += size;
                Bag::from_columns(chunk)
            }
            Undelivered::Rows(rows) => rows.by_ref().take(size).collect(),
        }
    }
}

/// Delivers `rows` through `sink` in the link's chunk sizes, metering
/// each chunk's simulated delay and waiting it out through
/// [`AnswerSink::pause`] when the link asks for real sleeps.
/// Cancellation is honoured both between chunks and inside a chunk's
/// delay; a mid-stream disconnect returns the summary of what was
/// delivered so far.
///
/// # Errors
///
/// [`WrapperError::Unavailable`] when the link fails mid-stream.
pub(crate) fn stream_chunks(
    link: &SimulatedLink,
    rows: Bag,
    rows_scanned: usize,
    sink: &mut dyn AnswerSink,
) -> Result<AnswerSummary, WrapperError> {
    let mut latency = Duration::ZERO;
    let mut first = true;
    let sizes = link.chunk_sizes(rows.len());
    let mut rows = Undelivered::of(rows);
    for size in sizes {
        if sink.is_cancelled() {
            break;
        }
        let delay = link
            .chunk_delay(size, first)
            .ok_or_else(|| unavailable(link))?;
        latency += delay.latency;
        first = false;
        if delay.real_sleep && !sink.pause(delay.latency) {
            break;
        }
        if !sink.push(rows.next_chunk(size)) {
            break;
        }
    }
    Ok(AnswerSummary {
        rows_scanned,
        latency,
    })
}

fn unavailable(link: &SimulatedLink) -> WrapperError {
    WrapperError::Unavailable {
        endpoint: link.endpoint().to_owned(),
    }
}

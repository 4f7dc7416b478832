//! Wrapper for flat-file (CSV) sources: the file-system style of
//! information server.  Its only capability is `get` — every operation
//! beyond a full fetch happens at the mediator.

use std::sync::Arc;

use disco_algebra::{CapabilitySet, LogicalExpr};
use disco_source::{CsvSource, SimulatedLink};
use disco_value::Value;

use crate::interface::{AnswerSink, AnswerSummary, Wrapper};
use crate::WrapperError;

/// A `get`-only wrapper over a [`CsvSource`].
pub struct CsvWrapper {
    name: String,
    source: CsvSource,
    link: Arc<SimulatedLink>,
}

impl CsvWrapper {
    /// Creates the wrapper.
    pub fn new(name: impl Into<String>, source: CsvSource, link: Arc<SimulatedLink>) -> Self {
        CsvWrapper {
            name: name.into(),
            source,
            link,
        }
    }

    /// The simulated link (for fail/recover injection in tests).
    #[must_use]
    pub fn link(&self) -> &Arc<SimulatedLink> {
        &self.link
    }
}

impl std::fmt::Debug for CsvWrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsvWrapper")
            .field("name", &self.name)
            .field("table", &self.source.table().name())
            .finish()
    }
}

impl Wrapper for CsvWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "csv"
    }

    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::get_only()
    }

    fn submit_into(
        &self,
        expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        self.capabilities()
            .accepts_named(expr, &self.name)
            .map_err(WrapperError::Capability)?;
        let LogicalExpr::Get { collection } = expr else {
            return Err(WrapperError::Capability(
                disco_algebra::AlgebraError::CapabilityViolation {
                    operator: expr.op_name().to_owned(),
                    wrapper: self.name.clone(),
                },
            ));
        };
        if collection != self.source.table().name() {
            return Err(WrapperError::Source(
                disco_source::SourceError::UnknownTable(collection.clone()),
            ));
        }
        if !self.link.is_available() {
            return Err(WrapperError::Unavailable {
                endpoint: self.link.endpoint().to_owned(),
            });
        }
        let rows = self.source.table().rows();
        let answer: Vec<Value> = rows.iter().cloned().map(Value::Struct).collect();
        crate::streaming::stream_chunks(&self.link, answer.into(), rows.len(), sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_source::{Availability, NetworkProfile};

    const CSV: &str = "site,ph\nseine-01,7.2\nseine-02,6.9\n";

    fn wrapper() -> CsvWrapper {
        let source = CsvSource::from_text("measurements0", CSV).unwrap();
        let link = Arc::new(SimulatedLink::new("r_csv", NetworkProfile::fast(), 5));
        CsvWrapper::new("w_csv", source, link)
    }

    #[test]
    fn get_scans_the_whole_file() {
        let w = wrapper();
        let (rows, summary) =
            <dyn Wrapper>::submit(&w, &LogicalExpr::get("measurements0")).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(summary.rows_scanned, 2);
        assert_eq!(w.kind(), "csv");
    }

    #[test]
    fn any_pushdown_is_rejected() {
        let w = wrapper();
        let err = <dyn Wrapper>::submit(&w, &LogicalExpr::get("measurements0").project(["site"]))
            .unwrap_err();
        assert!(matches!(err, WrapperError::Capability(_)));
    }

    #[test]
    fn streaming_delivers_the_file_in_link_sized_chunks() {
        struct Collect(Vec<usize>);
        impl crate::AnswerSink for Collect {
            fn push(&mut self, rows: disco_value::Bag) -> bool {
                self.0.push(rows.len());
                true
            }
        }
        let source = CsvSource::from_text("measurements0", CSV).unwrap();
        let link = Arc::new(SimulatedLink::new(
            "r_csv",
            NetworkProfile::fast().with_chunk_rows(1),
            5,
        ));
        let w = CsvWrapper::new("w_csv", source, link);
        let mut sink = Collect(Vec::new());
        let summary = w
            .submit_into(&LogicalExpr::get("measurements0"), &mut sink)
            .unwrap();
        assert_eq!(sink.0, vec![1, 1], "two rows, one per chunk");
        assert_eq!(summary.rows_scanned, 2);
        assert!(summary.latency > std::time::Duration::ZERO);
    }

    #[test]
    fn wrong_collection_and_unavailability() {
        let w = wrapper();
        assert!(matches!(
            <dyn Wrapper>::submit(&w, &LogicalExpr::get("other")).unwrap_err(),
            WrapperError::Source(_)
        ));
        w.link().set_availability(Availability::Unavailable);
        assert!(matches!(
            <dyn Wrapper>::submit(&w, &LogicalExpr::get("measurements0")).unwrap_err(),
            WrapperError::Unavailable { .. }
        ));
    }
}

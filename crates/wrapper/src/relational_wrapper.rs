//! Wrapper for the in-memory relational source — the stand-in for the
//! paper's `WrapperPostgres()`.

use std::sync::Arc;

use disco_algebra::{CapabilitySet, LogicalExpr};
use disco_source::{RelationalStore, SimulatedLink};

use crate::eval::eval_pushed;
use crate::interface::{AnswerSink, AnswerSummary, Wrapper};
use crate::WrapperError;

/// A wrapper exposing a [`RelationalStore`] behind a simulated network
/// link, with a configurable capability set.
///
/// The capability set is configurable because the experiments of §3.2 and
/// E3 compare sources of different querying power ("the mismatch in
/// querying power of each server"): the same store can be exposed as a
/// full SQL-like source or as a fetch-everything source.
pub struct RelationalWrapper {
    name: String,
    store: Arc<RelationalStore>,
    link: Arc<SimulatedLink>,
    capabilities: CapabilitySet,
}

impl RelationalWrapper {
    /// Creates a wrapper with full (get/select/project/join + composition)
    /// capabilities.
    pub fn new(
        name: impl Into<String>,
        store: Arc<RelationalStore>,
        link: Arc<SimulatedLink>,
    ) -> Self {
        RelationalWrapper {
            name: name.into(),
            store,
            link,
            capabilities: CapabilitySet::full(),
        }
    }

    /// Restricts the advertised capability set.
    #[must_use]
    pub fn with_capabilities(mut self, capabilities: CapabilitySet) -> Self {
        self.capabilities = capabilities;
        self
    }

    /// The underlying store (useful for tests and examples).
    #[must_use]
    pub fn store(&self) -> &Arc<RelationalStore> {
        &self.store
    }

    /// The simulated link (useful for fail/recover injection).
    #[must_use]
    pub fn link(&self) -> &Arc<SimulatedLink> {
        &self.link
    }
}

impl std::fmt::Debug for RelationalWrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationalWrapper")
            .field("name", &self.name)
            .field("endpoint", &self.link.endpoint())
            .field("capabilities", &self.capabilities)
            .finish()
    }
}

impl Wrapper for RelationalWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "relational"
    }

    fn capabilities(&self) -> CapabilitySet {
        self.capabilities
    }

    fn submit_into(
        &self,
        expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        self.capabilities
            .accepts_named(expr, &self.name)
            .map_err(WrapperError::Capability)?;
        if !self.link.is_available() {
            return Err(WrapperError::Unavailable {
                endpoint: self.link.endpoint().to_owned(),
            });
        }
        let result = eval_pushed(expr, &|collection: &str| {
            self.store
                .shared_table(collection)
                .map_err(WrapperError::from)
        })?;
        crate::streaming::stream_chunks(&self.link, result.rows, result.rows_scanned, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{OperatorKind, ScalarExpr, ScalarOp};
    use disco_source::{generator, Availability, NetworkProfile, RelationalStore};
    use disco_value::Value;
    use std::time::Duration;

    fn setup(caps: CapabilitySet) -> RelationalWrapper {
        let store = Arc::new(RelationalStore::new());
        store.put_table(generator::person_table("person0", 20, 0, 42));
        let link = Arc::new(SimulatedLink::new("r0", NetworkProfile::fast(), 1));
        RelationalWrapper::new("w0", store, link).with_capabilities(caps)
    }

    #[test]
    fn full_wrapper_answers_pushed_select_project() {
        let wrapper = setup(CapabilitySet::full());
        let expr = LogicalExpr::get("person0")
            .filter(ScalarExpr::binary(
                ScalarOp::Ge,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(0i64),
            ))
            .project(["name"]);
        let (rows, summary) = <dyn Wrapper>::submit(&wrapper, &expr).unwrap();
        assert_eq!(summary.rows_scanned, 20);
        assert_eq!(rows.len(), 20);
        assert!(summary.latency > Duration::ZERO);
        assert_eq!(wrapper.kind(), "relational");
    }

    #[test]
    fn restricted_wrapper_rejects_unsupported_pushes() {
        let wrapper = setup(CapabilitySet::new([OperatorKind::Get]));
        let expr = LogicalExpr::get("person0").project(["name"]);
        assert!(matches!(
            <dyn Wrapper>::submit(&wrapper, &expr).unwrap_err(),
            WrapperError::Capability(_)
        ));
        // Plain get still works.
        assert!(<dyn Wrapper>::submit(&wrapper, &LogicalExpr::get("person0")).is_ok());
    }

    #[test]
    fn unavailable_link_yields_unavailable_error() {
        let wrapper = setup(CapabilitySet::full());
        wrapper.link().set_availability(Availability::Unavailable);
        let err = <dyn Wrapper>::submit(&wrapper, &LogicalExpr::get("person0")).unwrap_err();
        assert!(matches!(err, WrapperError::Unavailable { .. }));
        // Recovery restores answers.
        wrapper.link().set_availability(Availability::Available);
        assert!(<dyn Wrapper>::submit(&wrapper, &LogicalExpr::get("person0")).is_ok());
    }

    #[test]
    fn unknown_table_is_a_source_error() {
        let wrapper = setup(CapabilitySet::full());
        let err = <dyn Wrapper>::submit(&wrapper, &LogicalExpr::get("missing")).unwrap_err();
        assert!(matches!(err, WrapperError::Source(_)));
    }

    #[test]
    fn an_insert_between_two_calls_is_seen_by_the_second() {
        // Calls share the stored table instead of copying it; the store
        // must not hand the next call the rows the last one started with.
        let wrapper = setup(CapabilitySet::full());
        let everyone = LogicalExpr::get("person0").project(["name"]);
        let whole_rows = LogicalExpr::get("person0");
        // Taken before the insert and not read as rows until after it.
        let before =
            [&everyone, &whole_rows].map(|expr| <dyn Wrapper>::submit(&wrapper, expr).unwrap().0);
        assert_eq!(before[0].len(), 20);
        wrapper
            .store()
            .insert(
                "person0",
                disco_value::StructValue::new(vec![("name", Value::from("intruder"))]).unwrap(),
            )
            .unwrap();
        let (answer, summary) = <dyn Wrapper>::submit(&wrapper, &everyone).unwrap();
        assert_eq!(answer.len(), 21);
        assert_eq!(summary.rows_scanned, 21);
        // Guards a hazard only this design has: an answer is columns of
        // the table's image (and, unprojected, its stored rows) until
        // somebody reads rows — by then the table has moved on, and the
        // answer must still be the snapshot its call started with.
        let intruder = Value::from("intruder");
        for answer in before {
            assert!(answer.columns().is_some(), "nothing read it as rows");
            assert_eq!(answer.iter().count(), 20);
            assert!(answer
                .iter()
                .all(|row| row.field("name").unwrap() != &intruder));
        }
        assert!(answer
            .iter()
            .any(|row| row.field("name").unwrap() == &intruder));
    }

    #[test]
    fn the_link_sees_the_same_calls_chunks_and_latency_however_rows_are_evaluated() {
        // The simulated link feeds the calibration store and with it plan
        // choice: evaluating and delivering without copies must not move
        // a call, a chunk or a microsecond of it.
        struct Chunks(Vec<usize>);
        impl AnswerSink for Chunks {
            fn push(&mut self, rows: disco_value::Bag) -> bool {
                self.0.push(rows.len());
                true
            }
        }
        let store = Arc::new(RelationalStore::new());
        store.put_table(generator::person_table("person0", 20, 0, 42));
        let profile = NetworkProfile {
            base_latency_us: 1_000,
            per_row_us: 10,
            jitter: 0.0,
            chunk_rows: 6,
            ..NetworkProfile::fast()
        };
        let link = Arc::new(SimulatedLink::new("r0", profile, 1));
        let wrapper = RelationalWrapper::new("w0", store, Arc::clone(&link));
        let pushed = LogicalExpr::get("person0")
            .filter(ScalarExpr::binary(
                ScalarOp::Ge,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(0i64),
            ))
            .project(["name"]);
        let mut sink = Chunks(Vec::new());
        let summary = wrapper.submit_into(&pushed, &mut sink).unwrap();
        assert_eq!(sink.0, vec![6, 6, 6, 2]);
        assert_eq!((link.call_count(), link.chunk_count()), (1, 4));
        assert_eq!(summary.rows_scanned, 20);
        assert_eq!(summary.latency, Duration::from_micros(1_000 + 20 * 10));
    }

    #[test]
    fn pushdown_reduces_rows_returned_but_not_rows_scanned() {
        let wrapper = setup(CapabilitySet::full());
        let selective = LogicalExpr::get("person0").filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(450i64),
        ));
        let (answer, summary) = <dyn Wrapper>::submit(&wrapper, &selective).unwrap();
        assert_eq!(summary.rows_scanned, 20);
        assert!(answer.len() < 20);
        let person0 = wrapper.store().scan("person0").unwrap();
        let expected = person0
            .iter()
            .filter(|r| r.field("salary").unwrap() > &Value::Int(450))
            .count();
        assert_eq!(answer.len(), expected);
    }
}

//! Wrapper for the in-memory relational source — the stand-in for the
//! paper's `WrapperPostgres()`.

use std::sync::Arc;

use disco_algebra::{CapabilitySet, LogicalExpr};
use disco_source::{RelationalStore, SimulatedLink};

use crate::eval::eval_pushed;
use crate::interface::{AnswerSink, AnswerSummary, Wrapper, WrapperAnswer};
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
        self.capabilities.clone()
    }

    fn submit(&self, expr: &LogicalExpr) -> Result<WrapperAnswer, WrapperError> {
        self.capabilities
            .accepts_named(expr, &self.name)
            .map_err(WrapperError::Capability)?;
        if !self.link.is_available() {
            return Err(WrapperError::Unavailable {
                endpoint: self.link.endpoint().to_owned(),
            });
        }
        let store = Arc::clone(&self.store);
        let result = eval_pushed(expr, &move |collection: &str| {
            store.scan(collection).map_err(WrapperError::from)
        })?;
        let latency = crate::streaming::call_latency(&self.link, result.rows.len())?;
        Ok(WrapperAnswer {
            rows: result.rows,
            rows_scanned: result.rows_scanned,
            latency,
        })
    }

    fn submit_streaming(
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
        let store = Arc::clone(&self.store);
        let result = eval_pushed(expr, &move |collection: &str| {
            store.scan(collection).map_err(WrapperError::from)
        })?;
        crate::streaming::stream_chunks(
            &self.link,
            result.rows.into_values(),
            result.rows_scanned,
            sink,
        )
    }

    fn is_available(&self) -> bool {
        self.link.is_available()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{OperatorKind, ScalarExpr, ScalarOp};
    use disco_source::{generator, Availability, NetworkProfile};
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
        let answer = wrapper.submit(&expr).unwrap();
        assert_eq!(answer.rows_scanned, 20);
        assert_eq!(answer.rows_returned(), 20);
        assert!(answer.latency > Duration::ZERO);
        assert_eq!(wrapper.kind(), "relational");
    }

    #[test]
    fn restricted_wrapper_rejects_unsupported_pushes() {
        let wrapper = setup(CapabilitySet::new([OperatorKind::Get]));
        let expr = LogicalExpr::get("person0").project(["name"]);
        assert!(matches!(
            wrapper.submit(&expr).unwrap_err(),
            WrapperError::Capability(_)
        ));
        // Plain get still works.
        assert!(wrapper.submit(&LogicalExpr::get("person0")).is_ok());
    }

    #[test]
    fn unavailable_link_yields_unavailable_error() {
        let wrapper = setup(CapabilitySet::full());
        wrapper.link().set_availability(Availability::Unavailable);
        assert!(!wrapper.is_available());
        let err = wrapper.submit(&LogicalExpr::get("person0")).unwrap_err();
        assert!(matches!(err, WrapperError::Unavailable { .. }));
        // Recovery restores answers.
        wrapper.link().set_availability(Availability::Available);
        assert!(wrapper.submit(&LogicalExpr::get("person0")).is_ok());
    }

    #[test]
    fn unknown_table_is_a_source_error() {
        let wrapper = setup(CapabilitySet::full());
        let err = wrapper.submit(&LogicalExpr::get("missing")).unwrap_err();
        assert!(matches!(err, WrapperError::Source(_)));
    }

    #[test]
    fn pushdown_reduces_rows_returned_but_not_rows_scanned() {
        let wrapper = setup(CapabilitySet::full());
        let selective = LogicalExpr::get("person0").filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(450i64),
        ));
        let answer = wrapper.submit(&selective).unwrap();
        assert_eq!(answer.rows_scanned, 20);
        assert!(answer.rows_returned() < 20);
        let person0 = wrapper.store().scan("person0").unwrap();
        let expected = person0
            .iter()
            .filter(|r| r.field("salary").unwrap() > &Value::Int(450))
            .count();
        assert_eq!(answer.rows_returned(), expected);
    }
}

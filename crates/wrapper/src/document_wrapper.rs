//! Wrapper for the keyword-document (WAIS-style) source.
//!
//! The source's native operation is a keyword lookup, so the wrapper
//! advertises `get` plus `select` restricted to equality comparisons and
//! no composition — the "less powerful query capability" servers that the
//! paper's related-work section says other systems do not handle.

use std::sync::Arc;

use disco_algebra::{
    AlgebraError, CapabilitySet, ComparisonKind, LogicalExpr, OperatorKind, ScalarExpr, ScalarOp,
};
use disco_source::{DocumentStore, SimulatedLink};
use disco_value::Value;

use crate::interface::{AnswerSink, AnswerSummary, Wrapper};
use crate::WrapperError;

/// A wrapper over a [`DocumentStore`], supporting `get` and
/// equality-only `select` (no composition).
pub struct DocumentWrapper {
    name: String,
    store: Arc<DocumentStore>,
    link: Arc<SimulatedLink>,
}

impl DocumentWrapper {
    /// Creates the wrapper.
    pub fn new(
        name: impl Into<String>,
        store: Arc<DocumentStore>,
        link: Arc<SimulatedLink>,
    ) -> Self {
        DocumentWrapper {
            name: name.into(),
            store,
            link,
        }
    }

    /// The simulated link.
    #[must_use]
    pub fn link(&self) -> &Arc<SimulatedLink> {
        &self.link
    }

    fn capability_violation(&self, operator: &str) -> WrapperError {
        WrapperError::Capability(AlgebraError::CapabilityViolation {
            operator: operator.to_owned(),
            wrapper: self.name.clone(),
        })
    }

    /// Extracts `attr = "literal"` from a pushed predicate.
    fn equality_lookup(predicate: &ScalarExpr) -> Option<(String, Value)> {
        if let ScalarExpr::Binary {
            op: ScalarOp::Eq,
            left,
            right,
        } = predicate
        {
            match (left.as_ref(), right.as_ref()) {
                (ScalarExpr::Attr(a), ScalarExpr::Const(v))
                | (ScalarExpr::Const(v), ScalarExpr::Attr(a)) => Some((a.clone(), v.clone())),
                _ => None,
            }
        } else {
            None
        }
    }
}

impl std::fmt::Debug for DocumentWrapper {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocumentWrapper")
            .field("name", &self.name)
            .field("documents", &self.store.len())
            .finish()
    }
}

impl Wrapper for DocumentWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        "document"
    }

    fn capabilities(&self) -> CapabilitySet {
        CapabilitySet::new([OperatorKind::Get, OperatorKind::Select])
            .with_comparisons([ComparisonKind::Eq])
    }

    fn submit_into(
        &self,
        expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        self.capabilities()
            .accepts_named(expr, &self.name)
            .map_err(WrapperError::Capability)?;
        if !self.link.is_available() {
            return Err(WrapperError::Unavailable {
                endpoint: self.link.endpoint().to_owned(),
            });
        }
        let (rows, scanned) = match expr {
            LogicalExpr::Get { .. } => {
                let rows = self.store.scan();
                let n = rows.len();
                (rows, n)
            }
            LogicalExpr::Filter { input, predicate } => {
                if !matches!(input.as_ref(), LogicalExpr::Get { .. }) {
                    return Err(self.capability_violation("select over non-get"));
                }
                let Some((attr, value)) = Self::equality_lookup(predicate) else {
                    return Err(self.capability_violation("non-equality predicate"));
                };
                if attr == "keyword" {
                    // Native keyword index: only matching documents are touched.
                    let keyword = value.as_str().map_err(AlgebraError::from)?.to_owned();
                    let rows = self.store.search(&keyword);
                    let n = rows.len();
                    (rows, n)
                } else {
                    // Equality on another attribute: scan then filter.
                    let all = self.store.scan();
                    let scanned = all.len();
                    let rows: Vec<_> = all
                        .into_iter()
                        .filter(|row| row.field(&attr).map(|v| v == &value).unwrap_or(false))
                        .collect();
                    (rows, scanned)
                }
            }
            other => return Err(self.capability_violation(other.op_name())),
        };
        let rows: Vec<Value> = rows.into_iter().map(Value::Struct).collect();
        crate::streaming::stream_chunks(&self.link, rows.into(), scanned, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_source::{generator, NetworkProfile};

    fn wrapper() -> DocumentWrapper {
        let store = Arc::new(generator::document_store(40, 3));
        let link = Arc::new(SimulatedLink::new("r_doc", NetworkProfile::fast(), 9));
        DocumentWrapper::new("w_doc", store, link)
    }

    #[test]
    fn get_scans_every_document() {
        let w = wrapper();
        let (rows, _) = <dyn Wrapper>::submit(&w, &LogicalExpr::get("documents")).unwrap();
        assert_eq!(rows.len(), 40);
        assert_eq!(w.kind(), "document");
    }

    #[test]
    fn keyword_equality_uses_the_native_index() {
        let w = wrapper();
        let expr = LogicalExpr::get("documents").filter(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::attr("keyword"),
            ScalarExpr::constant("water"),
        ));
        let (rows, summary) = <dyn Wrapper>::submit(&w, &expr).unwrap();
        assert!(!rows.is_empty());
        assert!(rows.len() < 40);
        // Native index: rows_scanned equals the number of hits, not the
        // collection size.
        assert_eq!(summary.rows_scanned, rows.len());
    }

    #[test]
    fn equality_on_other_attributes_scans_then_filters() {
        let w = wrapper();
        let expr = LogicalExpr::get("documents").filter(ScalarExpr::binary(
            ScalarOp::Eq,
            ScalarExpr::attr("id"),
            ScalarExpr::constant(3i64),
        ));
        let (rows, summary) = <dyn Wrapper>::submit(&w, &expr).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(summary.rows_scanned, 40);
    }

    #[test]
    fn streaming_chunks_keyword_hits_and_honours_cancellation() {
        struct Collect {
            chunks: Vec<usize>,
            cancel_after: usize,
        }
        impl crate::AnswerSink for Collect {
            fn push(&mut self, rows: disco_value::Bag) -> bool {
                self.chunks.push(rows.len());
                self.chunks.len() < self.cancel_after
            }
        }
        let store = Arc::new(generator::document_store(40, 3));
        let link = Arc::new(SimulatedLink::new(
            "r_doc",
            NetworkProfile::fast().with_chunk_rows(8),
            9,
        ));
        let w = DocumentWrapper::new("w_doc", store, link);
        let mut sink = Collect {
            chunks: Vec::new(),
            cancel_after: usize::MAX,
        };
        let summary = w
            .submit_into(&LogicalExpr::get("documents"), &mut sink)
            .unwrap();
        assert_eq!(sink.chunks, vec![8, 8, 8, 8, 8]);
        assert_eq!(summary.rows_scanned, 40);
        // A sink that disconnects after the first chunk stops the stream.
        let mut early = Collect {
            chunks: Vec::new(),
            cancel_after: 1,
        };
        let summary = w
            .submit_into(&LogicalExpr::get("documents"), &mut early)
            .unwrap();
        assert_eq!(early.chunks, vec![8], "stream stops at disconnect");
        assert_eq!(summary.rows_scanned, 40);
    }

    #[test]
    fn range_predicates_and_projections_are_rejected() {
        let w = wrapper();
        let range = LogicalExpr::get("documents").filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("id"),
            ScalarExpr::constant(3i64),
        ));
        assert!(matches!(
            <dyn Wrapper>::submit(&w, &range).unwrap_err(),
            WrapperError::Capability(_)
        ));
        let project = LogicalExpr::get("documents").project(["title"]);
        assert!(matches!(
            <dyn Wrapper>::submit(&w, &project).unwrap_err(),
            WrapperError::Capability(_)
        ));
    }
}

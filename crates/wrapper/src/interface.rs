//! The DISCO wrapper interface (§1.4, §3.2) and the wrapper registry.
//!
//! "DISCO interfaces to wrappers at the level of an abstract algebraic
//! machine of logical operators.  When the DBI implements a new wrapper,
//! she chooses a (sub)set of logical operators to support" and exposes it
//! through the `submit-functionality` method; during query processing the
//! mediator ships logical expressions through `submit`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use disco_algebra::{CapabilityLookup, CapabilitySet, LogicalExpr};
use disco_value::Bag;
use parking_lot::RwLock;

use crate::WrapperError;

/// The answer a wrapper returns from a `submit` call.
#[derive(Debug, Clone, PartialEq)]
pub struct WrapperAnswer {
    /// The rows produced by the pushed expression (still in the data
    /// source's name space; the runtime applies the extent's map).
    pub rows: Bag,
    /// How many rows the source had to touch to answer — the measure of
    /// source-side work used by the pushdown experiments.
    pub rows_scanned: usize,
    /// The simulated network + processing latency of the call.
    pub latency: Duration,
}

impl WrapperAnswer {
    /// Number of rows returned to the mediator — the measure of data
    /// transferred over the (simulated) network.
    #[must_use]
    pub fn rows_returned(&self) -> usize {
        self.rows.len()
    }
}

/// What a streamed `submit` call reports once every chunk has been
/// delivered: [`WrapperAnswer`] minus the rows, which already went through
/// the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerSummary {
    /// How many rows the source had to touch to answer.
    pub rows_scanned: usize,
    /// Total simulated network + processing latency across all chunks.
    pub latency: Duration,
}

/// The consumer side of a streamed `submit` call.
///
/// The runtime hands one of these to [`Wrapper::submit_streaming`]; the
/// wrapper pushes row chunks as the (simulated) source produces them.  A
/// `false` return from [`AnswerSink::push`] — or a `true` from
/// [`AnswerSink::is_cancelled`], which wrappers should poll between units
/// of source-side work — means the consumer has disconnected (typically
/// the query's deadline expired): the wrapper should stop producing and
/// return, so a timed-out call never keeps running in the background.
pub trait AnswerSink {
    /// Delivers one chunk of rows (source name space).  Returns `false`
    /// when the consumer has disconnected and the wrapper should stop.
    fn push(&mut self, rows: Bag) -> bool;

    /// Whether the consumer has disconnected.  Wrappers poll this between
    /// chunks.
    fn is_cancelled(&self) -> bool {
        false
    }

    /// Waits out `delay` of real link time on the calling thread;
    /// `false` when the consumer disconnected meanwhile.  A wrapper that
    /// has to wait mid-call waits here, not in a sleep of its own: the
    /// runtime's sink knows how to wait without holding up the calls
    /// queued behind this one, and ends the wait the moment the call is
    /// cancelled.  The default sleeps in short slices, polling
    /// [`AnswerSink::is_cancelled`] between them.
    fn pause(&mut self, delay: Duration) -> bool {
        const SLICE: Duration = Duration::from_millis(2);
        let end = std::time::Instant::now() + delay;
        loop {
            if self.is_cancelled() {
                return false;
            }
            let now = std::time::Instant::now();
            if now >= end {
                return true;
            }
            std::thread::sleep((end - now).min(SLICE));
        }
    }
}

/// The wrapper interface.
///
/// A wrapper translates between the mediator's algebraic machine and one
/// kind of data source.  Implementations in this crate:
/// [`crate::RelationalWrapper`], [`crate::CsvWrapper`],
/// [`crate::DocumentWrapper`].
pub trait Wrapper: Send + Sync {
    /// The wrapper object's name in the catalog (e.g. `w0`).
    fn name(&self) -> &str;

    /// The wrapper kind (e.g. `relational`, `csv`, `document`).
    fn kind(&self) -> &str;

    /// The `submit-functionality` call: the set of logical operators (and
    /// composition / comparison restrictions) this wrapper supports.
    fn capabilities(&self) -> CapabilitySet;

    /// Evaluates a logical expression already rewritten into the data
    /// source's name space.
    ///
    /// # Errors
    ///
    /// Returns [`WrapperError::Unavailable`] when the source does not
    /// answer, [`WrapperError::Capability`] when the expression exceeds the
    /// advertised capabilities, and evaluation errors otherwise.
    fn submit(&self, expr: &LogicalExpr) -> Result<WrapperAnswer, WrapperError>;

    /// The streaming form of [`Wrapper::submit`]: row chunks are pushed
    /// into `sink` as the source produces them, and the call summary
    /// (rows scanned, total latency) is returned at the end.
    ///
    /// The default implementation is a shim over [`Wrapper::submit`] that
    /// delivers the whole answer as one chunk — correct for any wrapper,
    /// just without intra-call overlap.  Wrappers over chunk-capable
    /// links (e.g. [`crate::RelationalWrapper`]) override it to emit
    /// chunks under the link's latency profile and to honour
    /// cancellation between chunks.
    ///
    /// # Errors
    ///
    /// Same error contract as [`Wrapper::submit`].
    fn submit_streaming(
        &self,
        expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError> {
        let answer = self.submit(expr)?;
        let summary = AnswerSummary {
            rows_scanned: answer.rows_scanned,
            latency: answer.latency,
        };
        sink.push(answer.rows);
        Ok(summary)
    }

    /// Whether the source currently answers (used by experiments to probe
    /// without paying for a full call).
    fn is_available(&self) -> bool {
        true
    }
}

/// A shared, thread-safe registry binding catalog wrapper names to wrapper
/// implementations.
///
/// The registry also serves as the optimizer's [`CapabilityLookup`]: the
/// transformation rules consult it before pushing operators.
#[derive(Clone, Default)]
pub struct WrapperRegistry {
    wrappers: Arc<RwLock<BTreeMap<String, Arc<dyn Wrapper>>>>,
}

impl WrapperRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        WrapperRegistry::default()
    }

    /// Registers (or replaces) a wrapper under its own name.
    pub fn register(&self, wrapper: Arc<dyn Wrapper>) {
        self.wrappers
            .write()
            .insert(wrapper.name().to_owned(), wrapper);
    }

    /// Looks up a wrapper by name.
    #[must_use]
    pub fn wrapper(&self, name: &str) -> Option<Arc<dyn Wrapper>> {
        self.wrappers.read().get(name).cloned()
    }

    /// The registered wrapper names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.wrappers.read().keys().cloned().collect()
    }

    /// Number of registered wrappers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wrappers.read().len()
    }

    /// Returns `true` when no wrapper is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.wrappers.read().is_empty()
    }
}

impl std::fmt::Debug for WrapperRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WrapperRegistry")
            .field("wrappers", &self.names())
            .finish()
    }
}

impl CapabilityLookup for WrapperRegistry {
    fn capabilities(&self, wrapper: &str) -> Option<CapabilitySet> {
        self.wrapper(wrapper).map(|w| w.capabilities())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DummyWrapper;

    impl Wrapper for DummyWrapper {
        fn name(&self) -> &str {
            "w_dummy"
        }
        fn kind(&self) -> &str {
            "dummy"
        }
        fn capabilities(&self) -> CapabilitySet {
            CapabilitySet::get_only()
        }
        fn submit(&self, _expr: &LogicalExpr) -> Result<WrapperAnswer, WrapperError> {
            Ok(WrapperAnswer {
                rows: Bag::new(),
                rows_scanned: 0,
                latency: Duration::ZERO,
            })
        }
    }

    #[test]
    fn registry_registers_and_looks_up() {
        let registry = WrapperRegistry::new();
        assert!(registry.is_empty());
        registry.register(Arc::new(DummyWrapper));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.names(), vec!["w_dummy"]);
        assert!(registry.wrapper("w_dummy").is_some());
        assert!(registry.wrapper("missing").is_none());
    }

    #[test]
    fn registry_is_a_capability_lookup() {
        let registry = WrapperRegistry::new();
        registry.register(Arc::new(DummyWrapper));
        let caps = CapabilityLookup::capabilities(&registry, "w_dummy").unwrap();
        assert_eq!(caps, CapabilitySet::get_only());
        assert!(CapabilityLookup::capabilities(&registry, "missing").is_none());
    }

    #[test]
    fn wrapper_answer_counts_rows() {
        let answer = WrapperAnswer {
            rows: [disco_value::Value::Int(1), disco_value::Value::Int(2)]
                .into_iter()
                .collect(),
            rows_scanned: 10,
            latency: Duration::from_millis(1),
        };
        assert_eq!(answer.rows_returned(), 2);
        assert_eq!(answer.rows_scanned, 10);
    }
}

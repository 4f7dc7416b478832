//! The DISCO wrapper interface (§1.4, §3.2) and the wrapper registry.
//!
//! "DISCO interfaces to wrappers at the level of an abstract algebraic
//! machine of logical operators.  When the DBI implements a new wrapper,
//! she chooses a (sub)set of logical operators to support" and exposes it
//! through the `submit-functionality` method; during query processing the
//! mediator ships logical expressions through `submit`.
//!
//! [`Wrapper::submit_into`] is that call, and the one call a wrapper
//! writes.  It streams: row chunks go into the caller's [`AnswerSink`] as
//! the source produces them, and a wrapper that has to wait mid-call waits
//! in [`AnswerSink::pause`], which the runtime's sink ends the moment the
//! call is cancelled.  A caller that wants the whole answer instead calls
//! `submit` on the `dyn Wrapper`, which runs the same call into a sink
//! that keeps every chunk; no wrapper can answer it differently.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use disco_algebra::{CapabilityLookup, CapabilitySet, LogicalExpr};
use disco_value::Bag;
use parking_lot::RwLock;

use crate::WrapperError;

/// What a `submit_into` call reports once every chunk has been delivered:
/// the rows themselves already went through the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerSummary {
    /// How many rows the source had to touch to answer — the measure of
    /// source-side work used by the pushdown experiments.
    pub rows_scanned: usize,
    /// Total simulated network + processing latency across all chunks.
    pub latency: Duration,
}

/// The consumer side of a `submit_into` call.
///
/// The runtime hands one of these to [`Wrapper::submit_into`]; the
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

    /// The paper's `submit`: evaluates a logical expression already
    /// rewritten into the data source's name space, pushing row chunks
    /// into `sink` as the source produces them and returning the call
    /// summary (rows scanned, total latency) at the end.  A wrapper that
    /// has to wait mid-call waits in [`AnswerSink::pause`], and stops
    /// producing once the sink reports the consumer gone.
    ///
    /// # Errors
    ///
    /// Returns [`WrapperError::Unavailable`] when the source does not
    /// answer, [`WrapperError::Capability`] when the expression exceeds the
    /// advertised capabilities, and evaluation errors otherwise.
    fn submit_into(
        &self,
        expr: &LogicalExpr,
        sink: &mut dyn AnswerSink,
    ) -> Result<AnswerSummary, WrapperError>;
}

impl dyn Wrapper + '_ {
    /// Runs [`Wrapper::submit_into`] to its end and returns the whole
    /// answer with the call summary: the chunks are kept and joined with
    /// [`Bag::concat`], and link time is waited out by the default
    /// [`AnswerSink::pause`].  For callers that time or read one wrapper
    /// call outside a query; a query's calls go through `submit_into`.
    ///
    /// # Errors
    ///
    /// The errors of [`Wrapper::submit_into`].
    pub fn submit(&self, expr: &LogicalExpr) -> Result<(Bag, AnswerSummary), WrapperError> {
        struct Chunks(Vec<Bag>);
        impl AnswerSink for Chunks {
            fn push(&mut self, rows: Bag) -> bool {
                self.0.push(rows);
                true
            }
        }
        let mut chunks = Chunks(Vec::new());
        let summary = self.submit_into(expr, &mut chunks)?;
        let parts: Vec<&Bag> = chunks.0.iter().collect();
        Ok((Bag::concat(&parts), summary))
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
    /// Bumped by every registration: the [`CapabilityLookup::version`].
    version: Arc<AtomicU64>,
}

impl WrapperRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        WrapperRegistry::default()
    }

    /// Registers (or replaces) a wrapper under its own name, moving the
    /// registry's [`CapabilityLookup::version`].
    pub fn register(&self, wrapper: Arc<dyn Wrapper>) {
        let replaced = self
            .wrappers
            .write()
            .insert(wrapper.name().to_owned(), wrapper);
        self.version.fetch_add(1, Ordering::Release);
        drop(replaced);
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
        self.wrappers.read().get(wrapper).map(|w| w.capabilities())
    }

    fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
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
        fn submit_into(
            &self,
            _expr: &LogicalExpr,
            _sink: &mut dyn AnswerSink,
        ) -> Result<AnswerSummary, WrapperError> {
            Ok(AnswerSummary {
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
        // Every registration moves the version, a lookup does not.
        let version = registry.version();
        registry.register(Arc::new(DummyWrapper));
        assert!(registry.version() > version);
        assert_eq!(registry.clone().version(), registry.version());
    }
}

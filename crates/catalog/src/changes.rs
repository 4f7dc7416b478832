//! What each catalog generation changed (§3.3).
//!
//! "If query optimization plans are cached, the mediator must monitor
//! updates to extents, and modify or recompute plans that are affected by
//! updates to the extents understood by the mediator."  Every mutation of
//! a [`Catalog`](crate::Catalog) bumps its generation and records what it
//! changed in a short, bounded log that travels with the catalog — and so
//! with every copy-on-write snapshot of it.  A plan cache reads the log to
//! tell a plan an extent update merely widened or narrowed from one that
//! must be planned again.

use std::collections::VecDeque;
use std::sync::Arc;

/// How many generations the log reaches back: a plan older than that is
/// planned again.
const GENERATIONS: usize = 32;

/// What one catalog generation changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogChange {
    /// An extent was registered.
    ExtentAdded {
        /// The extent's name.
        extent: Arc<str>,
        /// The interface it is an extent of.
        interface: Arc<str>,
    },
    /// An extent was removed.
    ExtentRemoved {
        /// The extent's name.
        extent: Arc<str>,
        /// The interface it was an extent of.
        interface: Arc<str>,
    },
    /// Anything else: an interface, repository, wrapper or view.
    Other,
}

impl CatalogChange {
    /// The extent added or removed, and its interface; `None` for any
    /// other change.
    #[must_use]
    pub fn extent(&self) -> Option<(&str, &str)> {
        match self {
            CatalogChange::ExtentAdded { extent, interface }
            | CatalogChange::ExtentRemoved { extent, interface } => Some((extent, interface)),
            CatalogChange::Other => None,
        }
    }
}

/// The changes of the last [`GENERATIONS`] generations, oldest first.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChangeLog {
    changes: VecDeque<CatalogChange>,
}

impl ChangeLog {
    /// Records the change that made the newest generation.
    pub(crate) fn push(&mut self, change: CatalogChange) {
        if self.changes.len() == GENERATIONS {
            self.changes.pop_front();
        }
        self.changes.push_back(change);
    }

    /// The last `generations` changes, oldest first; `None` when the log
    /// does not reach back that far.
    pub(crate) fn last(&self, generations: u64) -> Option<impl Iterator<Item = &CatalogChange>> {
        let behind = usize::try_from(generations).ok()?;
        let from = self.changes.len().checked_sub(behind)?;
        Some(self.changes.range(from..))
    }
}

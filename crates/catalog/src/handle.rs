//! Copy-on-write catalog sharing for concurrent sessions.
//!
//! A mediator serving many clients cannot let DDL (`&mut Catalog`) block
//! in-flight queries.  [`CatalogHandle`] solves this with immutable
//! snapshots: readers take an `Arc<Catalog>` and keep planning/executing
//! against it for the whole query, while writers clone the current
//! snapshot, mutate the clone, and atomically swap it in.  A schema
//! update therefore never invalidates — or even pauses — a query that
//! was admitted against the previous snapshot.

use std::sync::{Arc, PoisonError, RwLock};

use crate::schema::Catalog;

/// An `Arc`-shared, copy-on-write handle to a [`Catalog`].
///
/// Cloning the handle is cheap and every clone observes the same
/// underlying catalog.  [`CatalogHandle::snapshot`] is wait-free apart
/// from one short read-lock acquisition; [`CatalogHandle::update`]
/// clones the current catalog, applies the mutation to the clone, and
/// swaps — the previous snapshot stays alive for as long as any query
/// still holds it.
///
/// # Examples
///
/// ```
/// use disco_catalog::{CatalogHandle, InterfaceDef};
///
/// let handle = CatalogHandle::default();
/// let before = handle.snapshot();
/// handle
///     .update(|catalog| catalog.define_interface(InterfaceDef::new("Person")))
///     .unwrap();
/// // The old snapshot is untouched; the new one sees the interface.
/// assert!(before.interface("Person").is_err());
/// assert!(handle.snapshot().interface("Person").is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CatalogHandle {
    current: Arc<RwLock<Arc<Catalog>>>,
}

impl CatalogHandle {
    /// Wraps an existing catalog (e.g. one built by a `Mediator`'s
    /// registration calls) into a shareable handle.
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        CatalogHandle {
            current: Arc::new(RwLock::new(Arc::new(catalog))),
        }
    }

    /// The current immutable snapshot.  Hold it for the duration of one
    /// query: concurrent [`CatalogHandle::update`]s produce *new*
    /// snapshots and never mutate this one.
    #[must_use]
    pub fn snapshot(&self) -> Arc<Catalog> {
        Arc::clone(&self.current.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The generation counter of the current snapshot (bumped by every
    /// catalog mutation) — the key plan-cache entries are made for.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// Applies a schema update copy-on-write: clones the current
    /// catalog, runs `mutate` on the clone, and — only if it succeeds —
    /// swaps the clone in as the new snapshot.  On error the handle is
    /// unchanged (updates are transactional per closure).
    ///
    /// Writers hold the write lock for the whole clone–mutate–swap, so
    /// concurrent updates serialize and lost-update races cannot occur.
    /// Queries already holding a snapshot are unaffected; a concurrent
    /// [`CatalogHandle::snapshot`] call waits only for the in-progress
    /// update to finish.
    ///
    /// # Errors
    ///
    /// Propagates whatever `mutate` returns.
    pub fn update<T, E>(&self, mutate: impl FnOnce(&mut Catalog) -> Result<T, E>) -> Result<T, E> {
        let mut slot = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let mut next = (**slot).clone();
        let out = mutate(&mut next)?;
        *slot = Arc::new(next);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::InterfaceDef;

    #[test]
    fn snapshots_are_immutable_under_updates() {
        let handle = CatalogHandle::default();
        let empty = handle.snapshot();
        handle
            .update(|c| c.define_interface(InterfaceDef::new("Person")))
            .unwrap();
        assert!(empty.interface("Person").is_err());
        assert!(handle.snapshot().interface("Person").is_ok());
        assert!(handle.generation() > empty.generation());
    }

    #[test]
    fn failed_updates_leave_the_handle_unchanged() {
        let handle = CatalogHandle::default();
        handle
            .update(|c| c.define_interface(InterfaceDef::new("Person")))
            .unwrap();
        let generation = handle.generation();
        // Duplicate definition fails; the snapshot must not advance.
        assert!(handle
            .update(|c| c.define_interface(InterfaceDef::new("Person")))
            .is_err());
        assert_eq!(handle.generation(), generation);
    }

    #[test]
    fn clones_share_one_catalog() {
        let handle = CatalogHandle::default();
        let alias = handle.clone();
        handle
            .update(|c| c.define_interface(InterfaceDef::new("Person")))
            .unwrap();
        assert!(alias.snapshot().interface("Person").is_ok());
    }
}

//! A shared wrapper-connection pool with per-source concurrency caps.
//!
//! Autonomous sources tolerate only so many simultaneous requests: a
//! mediator serving many concurrent queries must not let N sessions ×
//! M `exec` calls all hit the same repository at once.  A [`SourcePool`]
//! is shared by every executor of a serving layer and caps, per
//! repository, how many wrapper calls run concurrently.  A call beyond
//! the cap *queues*, and the time it spent queued is metered into the
//! query's [`ExecutionStats::source_wait`](crate::ExecutionStats) —
//! making contention for shared sources observable per query.
//!
//! The pool is the book of slots; the waiting happens in the call
//! executor's queue (`calls.rs`), where a call whose repository is at its
//! cap is passed over until a call to that repository finishes.  No
//! thread waits for a slot, and a queued call that is cancelled (its
//! query hit the deadline, or aborted on a hard error) is dropped from
//! the queue without ever invoking the wrapper.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::lock;

/// A shared pool of wrapper-call slots with per-repository concurrency
/// caps.
///
/// `default_cap` applies to every repository without an explicit
/// [`SourcePool::with_cap`] override; a cap of `0` means unlimited (every
/// call starts as soon as the call executor has a runner for it).
///
/// # Examples
///
/// ```
/// use disco_runtime::SourcePool;
///
/// // At most 2 in-flight calls per source, except `r_legacy` which
/// // tolerates only one.
/// let pool = SourcePool::new(2).with_cap("r_legacy", 1);
/// assert_eq!(pool.cap("r_legacy"), 1);
/// assert_eq!(pool.cap("r0"), 2);
/// ```
#[derive(Debug)]
pub struct SourcePool {
    default_cap: usize,
    caps: BTreeMap<String, usize>,
    /// Calls holding a slot, per repository.
    active: Mutex<BTreeMap<String, usize>>,
    /// Calls that had to queue (saw the cap exhausted at least once).
    queued_calls: AtomicU64,
    /// Total time calls spent queued, in microseconds.
    queued_wait_us: AtomicU64,
}

impl SourcePool {
    /// Creates a pool capping every repository at `default_cap`
    /// concurrent wrapper calls (`0` = unlimited).
    #[must_use]
    pub fn new(default_cap: usize) -> Self {
        SourcePool {
            default_cap,
            caps: BTreeMap::new(),
            active: Mutex::new(BTreeMap::new()),
            queued_calls: AtomicU64::new(0),
            queued_wait_us: AtomicU64::new(0),
        }
    }

    /// Overrides the cap for one repository (`0` = unlimited).
    #[must_use]
    pub fn with_cap(mut self, repository: impl Into<String>, cap: usize) -> Self {
        self.caps.insert(repository.into(), cap);
        self
    }

    /// The effective cap for `repository`.
    #[must_use]
    pub fn cap(&self, repository: &str) -> usize {
        self.caps
            .get(repository)
            .copied()
            .unwrap_or(self.default_cap)
    }

    /// `(calls that queued, total queued time)` since the pool was
    /// created — the serving layer's contention gauge.
    #[must_use]
    pub fn queue_stats(&self) -> (u64, Duration) {
        (
            self.queued_calls.load(Ordering::Relaxed),
            Duration::from_micros(self.queued_wait_us.load(Ordering::Relaxed)),
        )
    }

    /// Takes a call slot of `repository` if one is free; the slot is
    /// held until the permit drops.
    pub(crate) fn try_acquire(self: &Arc<Self>, repository: &str) -> Option<PoolPermit> {
        let cap = self.cap(repository);
        let mut active = lock(&self.active);
        if !active.contains_key(repository) {
            active.insert(repository.to_owned(), 0);
        }
        let held = active.get_mut(repository).expect("inserted above");
        if cap != 0 && *held >= cap {
            return None;
        }
        *held += 1;
        Some(PoolPermit {
            pool: Arc::clone(self),
            repository: repository.to_owned(),
        })
    }

    /// Counts a call that found its repository at the cap.
    pub(crate) fn note_queued(&self) {
        self.queued_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds the time a call was held back by the cap.
    pub(crate) fn note_wait(&self, waited: Duration) {
        self.queued_wait_us
            .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
    }

    fn release(&self, repository: &str) {
        if let Some(held) = lock(&self.active).get_mut(repository) {
            *held = held.saturating_sub(1);
        }
    }
}

/// RAII guard of one acquired wrapper-call slot; dropping it frees the
/// slot.
pub(crate) struct PoolPermit {
    pool: Arc<SourcePool>,
    repository: String,
}

impl Drop for PoolPermit {
    fn drop(&mut self) {
        self.pool.release(&self.repository);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_pool_never_refuses() {
        let pool = Arc::new(SourcePool::new(0));
        let held: Vec<_> = (0..64).map(|_| pool.try_acquire("r0")).collect();
        assert!(held.iter().all(Option::is_some));
        assert_eq!(pool.queue_stats().0, 0);
    }

    #[test]
    fn cap_bounds_slots_per_repository_and_drop_frees_them() {
        let pool = Arc::new(SourcePool::new(1));
        let held = pool.try_acquire("r0");
        assert!(held.is_some());
        assert!(pool.try_acquire("r0").is_none(), "cap of 1 must serialize");
        assert!(
            pool.try_acquire("r1").is_some(),
            "other repositories are not held back"
        );
        drop(held);
        assert!(
            pool.try_acquire("r0").is_some(),
            "the slot must be free again"
        );
    }

    #[test]
    fn per_repository_overrides_apply() {
        let pool = SourcePool::new(4).with_cap("slow", 1).with_cap("bulk", 0);
        assert_eq!(pool.cap("slow"), 1);
        assert_eq!(pool.cap("bulk"), 0);
        assert_eq!(pool.cap("anything-else"), 4);
    }
}

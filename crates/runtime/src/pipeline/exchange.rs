//! Work distribution for the parallel engine: morsel ranges, the claim
//! queue, and hash routing for the sharded distinct.
//!
//! The parallel scheduler ([`super::parallel`]) splits pipeline work into
//! *morsels* (sub-ranges of a leaf scan, or whole union branches) that
//! workers claim from a [`MorselQueue`].  Per-task outputs are tagged
//! with the task index and reassembled **in task order** at the phase
//! barrier — so the assembled state is identical no matter which worker
//! ran which task, which is what makes the engine's results and metrics
//! reproducible run over run.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Preferred rows per morsel.  Small enough that a 100k-row scan yields
/// ~25 units of claimable work for a 4-thread pool, large enough that the
/// per-morsel cursor construction and queue claim are noise.
pub(crate) const MORSEL_ROWS: usize = 4096;

/// Smallest useful morsel: below this, claim overhead dominates the work.
pub(crate) const MIN_MORSEL_ROWS: usize = 16;

/// The per-claim morsel size for `len` rows on `threads` workers.
fn morsel_size(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1) * 4)
        .clamp(MIN_MORSEL_ROWS, MORSEL_ROWS)
}

/// Splits `len` rows into morsel ranges for a pool of `threads` workers.
///
/// Purely a function of `(len, threads)` — never of scheduling — so the
/// morsel boundaries, and with them every per-morsel partial result, are
/// the same on every run at a fixed thread count.  Small inputs shrink
/// the morsel so each worker still gets a few claims (keeping the
/// differential tests genuinely concurrent); large inputs cap at
/// [`MORSEL_ROWS`].
pub(crate) fn morsel_ranges(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let size = morsel_size(len, threads);
    (0..len.div_ceil(size))
        .map(|i| i * size..((i + 1) * size).min(len))
        .collect()
}

/// A claim-by-counter work list: task indexes `0..total` are handed out
/// exactly once, in order, to whichever worker asks next.
pub(crate) struct MorselQueue {
    next: AtomicUsize,
    total: usize,
}

impl MorselQueue {
    pub(crate) fn new(total: usize) -> Self {
        MorselQueue {
            next: AtomicUsize::new(0),
            total,
        }
    }

    /// Claims the next task index; `None` when the list is drained.
    pub(crate) fn claim(&self) -> Option<usize> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        (index < self.total).then_some(index)
    }
}

/// Shards of the parallel distinct's seen-set.  More shards than workers
/// so lock contention stays low even when the value distribution is
/// skewed across shards.
pub(crate) fn shard_count(threads: usize) -> usize {
    (threads * 4).next_power_of_two()
}

/// Routes a canonical value hash to a shard.  Uses the *high* bits: the
/// in-shard hash maps consume the low bits, and using disjoint bits keeps
/// shard routing and bucket placement uncorrelated.
pub(crate) fn shard_of(hash: u64, shards: usize) -> usize {
    ((hash >> 48) as usize) & (shards - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_ranges_cover_exactly_and_deterministically() {
        for &(len, threads) in &[(0usize, 4usize), (1, 4), (100, 1), (4096, 2), (100_000, 4)] {
            let ranges = morsel_ranges(len, threads);
            assert_eq!(ranges, morsel_ranges(len, threads), "deterministic");
            let mut covered = 0usize;
            for (i, r) in ranges.iter().enumerate() {
                assert_eq!(r.start, covered, "range {i} contiguous");
                assert!(r.end > r.start);
                covered = r.end;
            }
            assert_eq!(covered, len, "ranges cover len={len}");
        }
    }

    #[test]
    fn morsel_queue_hands_out_each_task_once() {
        let queue = MorselQueue::new(5);
        let mut seen = Vec::new();
        while let Some(t) = queue.claim() {
            seen.push(t);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(queue.claim(), None);
    }

    #[test]
    fn shard_routing_is_in_range() {
        let shards = shard_count(4);
        assert!(shards.is_power_of_two());
        for h in [0u64, 1, u64::MAX, 0xdead_beef_cafe_f00d] {
            assert!(shard_of(h, shards) < shards);
        }
    }
}

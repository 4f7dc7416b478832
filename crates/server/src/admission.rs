//! Admission control with round-robin fairness across sessions.
//!
//! The machine's cores are a fixed, shared resource: when N concurrent
//! queries each want one for their combine step, throughput is best
//! served by bounding how many *execute* at once and queueing the rest.
//! Plain FIFO admission lets one chatty session monopolize the server —
//! its next query is always the oldest waiter.  [`Admission`] therefore grants
//! freed slots **round-robin over sessions**: among the sessions with
//! queued queries, the next session after the most recently admitted one
//! (in session-id order, wrapping) goes first, and within a session its
//! queries stay FIFO.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

fn lock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One queued admission request.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    session: u64,
    ticket: u64,
}

#[derive(Debug, Default)]
struct AdmissionState {
    /// Queries currently admitted (executing).
    active: usize,
    /// Queued requests in arrival order (FIFO within a session).
    waiting: Vec<Waiter>,
    /// Tickets granted but not yet claimed by their waiter.
    granted: BTreeSet<u64>,
    /// Monotonic ticket source.
    next_ticket: u64,
    /// The session admitted most recently from the queue; the next grant
    /// goes to the closest session id after it, wrapping around.
    rr_cursor: u64,
}

/// Bounds how many queries execute concurrently, granting freed slots
/// round-robin across sessions.
///
/// `max_concurrent == 0` disables admission control (every query is
/// admitted immediately) — the right setting when the worker pool is not
/// oversubscribed.
#[derive(Debug)]
pub(crate) struct Admission {
    max_concurrent: usize,
    state: Mutex<AdmissionState>,
    freed: Condvar,
    /// Requests that had to queue, and their total queued time.
    queued_requests: AtomicU64,
    queued_wait_us: AtomicU64,
}

impl Admission {
    pub(crate) fn new(max_concurrent: usize) -> Self {
        Admission {
            max_concurrent,
            state: Mutex::new(AdmissionState::default()),
            freed: Condvar::new(),
            queued_requests: AtomicU64::new(0),
            queued_wait_us: AtomicU64::new(0),
        }
    }

    /// `(requests that queued, total queued time)` since construction.
    pub(crate) fn queue_stats(&self) -> (u64, Duration) {
        (
            self.queued_requests.load(Ordering::Relaxed),
            Duration::from_micros(self.queued_wait_us.load(Ordering::Relaxed)),
        )
    }

    /// Blocks until `session`'s query may execute; the returned guard
    /// frees the slot on drop.  Returns `None` when admission control is
    /// disabled.
    pub(crate) fn admit(&self, session: u64) -> Option<AdmissionGuard<'_>> {
        if self.max_concurrent == 0 {
            return None;
        }
        let started = Instant::now();
        let mut state = lock(&self.state);
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.waiting.push(Waiter { session, ticket });
        self.grant_slots(&mut state);
        let mut queued = false;
        while !state.granted.remove(&ticket) {
            if !queued {
                queued = true;
                self.queued_requests.fetch_add(1, Ordering::Relaxed);
            }
            state = self
                .freed
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        if queued {
            self.queued_wait_us
                .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        }
        Some(AdmissionGuard { admission: self })
    }

    /// Admits queued requests while slots are free: the next session
    /// after `rr_cursor` (wrapping) goes first, FIFO within a session.
    fn grant_slots(&self, state: &mut AdmissionState) {
        let mut granted_any = false;
        while state.active < self.max_concurrent && !state.waiting.is_empty() {
            let cursor = state.rr_cursor;
            // The closest waiting session strictly after the cursor, or
            // the smallest waiting session when none is (wrap-around).
            let after = state
                .waiting
                .iter()
                .filter(|w| w.session > cursor)
                .map(|w| w.session)
                .min();
            let session = after.unwrap_or_else(|| {
                state
                    .waiting
                    .iter()
                    .map(|w| w.session)
                    .min()
                    .expect("waiting is non-empty")
            });
            let index = state
                .waiting
                .iter()
                .enumerate()
                .filter(|(_, w)| w.session == session)
                .min_by_key(|(_, w)| w.ticket)
                .map(|(i, _)| i)
                .expect("session has a waiter");
            let waiter = state.waiting.remove(index);
            state.active += 1;
            state.rr_cursor = waiter.session;
            state.granted.insert(waiter.ticket);
            granted_any = true;
        }
        if granted_any {
            self.freed.notify_all();
        }
    }

    fn release(&self) {
        let mut state = lock(&self.state);
        state.active = state.active.saturating_sub(1);
        self.grant_slots(&mut state);
    }

    /// Number of requests currently queued (test hook).
    #[cfg(test)]
    fn waiting_len(&self) -> usize {
        lock(&self.state).waiting.len()
    }
}

/// RAII guard of one admitted query; dropping it frees the slot and
/// admits the next queued request.
#[derive(Debug)]
pub(crate) struct AdmissionGuard<'a> {
    admission: &'a Admission,
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.admission.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_admission_never_blocks() {
        let admission = Admission::new(0);
        assert!(admission.admit(1).is_none());
        assert_eq!(admission.queue_stats().0, 0);
    }

    #[test]
    fn slots_bound_concurrency() {
        let admission = Arc::new(Admission::new(2));
        let a = admission.admit(1);
        let b = admission.admit(2);
        assert!(a.is_some() && b.is_some());
        // A third admit would block; verify via the waiting queue from
        // another thread instead of deadlocking this one.
        let worker = {
            let admission = Arc::clone(&admission);
            std::thread::spawn(move || {
                let guard = admission.admit(3);
                assert!(guard.is_some());
            })
        };
        while admission.waiting_len() == 0 {
            std::thread::yield_now();
        }
        drop(a);
        worker.join().unwrap();
        let (queued, _) = admission.queue_stats();
        assert_eq!(queued, 1);
    }

    #[test]
    fn freed_slots_rotate_round_robin_across_sessions() {
        let admission = Arc::new(Admission::new(1));
        let holder = admission.admit(10).expect("first slot");
        let order = Arc::new(Mutex::new(Vec::new()));
        // Enqueue sessions out of id order; 3 first, then 1, then 2.
        let mut workers = Vec::new();
        for session in [3u64, 1, 2] {
            let worker_admission = Arc::clone(&admission);
            let order = Arc::clone(&order);
            workers.push(std::thread::spawn(move || {
                let guard = worker_admission.admit(session).expect("admitted");
                lock(&order).push(session);
                // Hold briefly so releases arrive one at a time.
                std::thread::sleep(Duration::from_millis(2));
                drop(guard);
            }));
            // Deterministic queue order: wait until this waiter is queued.
            while admission.waiting_len() < order_len_target(&workers) {
                std::thread::yield_now();
            }
        }
        drop(holder);
        for worker in workers {
            worker.join().unwrap();
        }
        // Cursor sits at 10 → wraps to the smallest session, then ascends.
        assert_eq!(*lock(&order), vec![1, 2, 3]);
    }

    fn order_len_target(workers: &[std::thread::JoinHandle<()>]) -> usize {
        workers.len()
    }
}

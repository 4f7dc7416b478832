//! Resolution of `exec` calls: the runtime's interface to wrappers (§3.3,
//! §4).
//!
//! Every `exec` node of a physical plan names a repository, a wrapper and
//! an extent, and carries the logical expression to ship.  The runtime
//! issues all calls **in parallel**; calls to available sources succeed,
//! calls to unavailable sources block; "after a designated time period,
//! query evaluation stops" and the sources that have not answered are
//! classified unavailable.
//!
//! "In parallel" does not mean a thread each: the calls of every query
//! are queued on one process-wide call executor (`calls.rs`) whose
//! runners are bounded by the machine, not by the number of sources.  A
//! call that waits mid-flight — a sleeping link, a nested query — gives
//! up its runner for the duration, so every call is still *issued*
//! at once and a wide plan costs a queue entry per source, not a thread.
//!
//! # Streamed resolution
//!
//! [`resolve_execs_streamed`] returns immediately: every call becomes a
//! [`PendingSource`] — a spool its wrapper call fills with mapped,
//! type-checked row chunks while the cursor pipeline is already pulling.
//! The slowest repository no longer gates the start of the combine step.
//!
//! A chunk is stored once.  The spool is an append-only chain of
//! immutable chunks (`SpoolChunk`): `push_chunk` links the chunk as it
//! arrived, consumers borrow out of the chain for the whole evaluation —
//! the fused spine a batch at a time, everything else as batches of
//! borrowed rows — and finalization shares the chain's bags with
//! [`ExecOutcome::Rows`].  A chunk is a bag of row values or, from a
//! relational wrapper, a **column chunk**: columns of the table's image
//! under a selection, renamed and type-checked on their field list,
//! holding no row.  The spine reads its columns in place; it builds its
//! rows, once, for the first consumer that reads rows; the column chunks
//! of one answer are rejoined as columns at finalization.  The only thing
//! a consumer ever waits for is the next link, through
//! `PendingSource::wait_until`, the one loop that owns the missed-wake-up
//! protocol and the deadline.  A memory budget does not change the spool:
//! it bounds pipeline breakers, and finalization holds every answer
//! whole anyway.  At the execution
//! deadline, spools that are still streaming flip to unavailable, the
//! wrapper call is cancelled (so a timed-out call does not keep running
//! in the background, and a call still queued never starts), and the
//! pass unwinds to the root union branch that reads the source.
//!
//! [`resolve_execs`] is the materializing helper over the same machinery:
//! queue every call, wait for all spools (bounded by the deadline) and
//! finalize them, so there is one classification and cancellation logic.
//! The executor never calls it; oracles and staged measurements do.
//!
//! For every finished call the arguments, the time taken and the amount of
//! data generated are recorded into the calibration store, feeding the
//! self-calibrating cost model.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use disco_algebra::{FanOut, LogicalExpr, PhysicalExpr};
use disco_catalog::{Catalog, TypeMap};
use disco_optimizer::CalibrationStore;
use disco_value::Bag;
use disco_wrapper::{
    check_type_conformance, map_expr_to_source, map_rows_to_mediator, AnswerSink, Wrapper,
    WrapperError, WrapperRegistry,
};

use crate::calls::{blocking, CallExecutor, QueuedCall};
use crate::pipeline::PipelineOptions;
use crate::pool::SourcePool;
use crate::prepared::{Call, CallTable};
use crate::{lock, Result, RuntimeError};

/// Identity of one `exec` call (used to de-duplicate identical calls and to
/// join results back into the plan).  Two calls are the same call when
/// they ship the same expression to the same extent of the same
/// repository; the expression is compared structurally, never rendered.
/// The names are shared with the call's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecKey {
    /// Repository name.
    pub repository: Arc<str>,
    /// Extent name.
    pub extent: Arc<str>,
    /// The shipped (mediator name space) expression — for a call of a
    /// prepared plan, the one its `exec` node holds.
    pub expr: Arc<LogicalExpr>,
}

impl ExecKey {
    /// Builds the key for an `exec` / `submit` node.
    #[must_use]
    pub fn new(repository: &str, extent: &str, expr: &LogicalExpr) -> Self {
        ExecKey {
            repository: Arc::from(repository),
            extent: Arc::from(extent),
            expr: Arc::new(expr.clone()),
        }
    }
}

/// The outcome of one `exec` call.
#[derive(Debug, Clone)]
pub enum ExecOutcome {
    /// The source answered with rows (already renamed into the mediator
    /// name space).
    Rows(Bag),
    /// The source did not answer (unavailable, or still blocked at the
    /// deadline).
    Unavailable,
    /// The call is still streaming: it pushes mapped, type-checked row
    /// chunks into the [`PendingSource`] spool while the pipeline pulls.
    /// Finalization ([`ResolvedExecs::finalize_streamed`]) turns this
    /// into [`ExecOutcome::Rows`] or [`ExecOutcome::Unavailable`].
    Pending(Arc<PendingSource>),
}

impl PartialEq for ExecOutcome {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ExecOutcome::Rows(a), ExecOutcome::Rows(b)) => a == b,
            (ExecOutcome::Unavailable, ExecOutcome::Unavailable) => true,
            (ExecOutcome::Pending(a), ExecOutcome::Pending(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Shared wakeup channel of one streamed resolution: every spool bumps the
/// generation on any progress (chunk arrival or terminal status), so
/// consumers waiting on *any* source (a union sweeping its inputs) park on
/// one condition variable.
///
/// A bump is one atomic add while no parked thread waits for the
/// generation it reaches: a parked thread publishes the least generation
/// it waits for (`wake_at`), and only the bump that reaches it takes the
/// lock (to clear the target) and wakes every parked thread (each parks
/// again with its own target if that is not reached yet).  Both sides
/// write their own word before reading the other's, so either the bump
/// sees the target or the parking thread sees the bump.
pub(crate) struct ResolutionEvents {
    generation: AtomicU64,
    /// The least generation a parked thread waits for; `u64::MAX` when
    /// none does.
    wake_at: AtomicU64,
    /// Guards nothing but the condition variable's protocol.
    parking: StdMutex<()>,
    arrived: Condvar,
    deadline: Option<Instant>,
}

impl std::fmt::Debug for ResolutionEvents {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolutionEvents")
            .field("generation", &self.generation())
            .field("deadline", &self.deadline)
            .finish()
    }
}

impl ResolutionEvents {
    pub(crate) fn new(deadline: Option<Instant>) -> Self {
        ResolutionEvents {
            generation: AtomicU64::new(0),
            wake_at: AtomicU64::new(u64::MAX),
            parking: StdMutex::new(()),
            arrived: Condvar::new(),
            deadline,
        }
    }

    /// The current generation; read **before** inspecting spool state so
    /// that [`ResolutionEvents::wait_after`] cannot miss a wakeup.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Whether the execution deadline has already passed.
    pub(crate) fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|at| Instant::now() >= at)
    }

    fn notify(&self) {
        let reached = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        if reached >= self.wake_at.load(Ordering::SeqCst) {
            // The reset waits out a thread between publishing its target
            // and parking, which would miss this wake-up; the wake-up
            // itself is made after the lock is released, so the woken do
            // not wait for it.
            {
                let _parking = lock(&self.parking);
                self.wake_at.store(u64::MAX, Ordering::SeqCst);
            }
            self.arrived.notify_all();
        }
    }

    /// Parks on `arrived` until a bump reaches generation `target` or
    /// `until` passes — unless the generation reached it already.
    fn park<'a>(
        &self,
        parking: MutexGuard<'a, ()>,
        target: u64,
        until: Option<Instant>,
    ) -> MutexGuard<'a, ()> {
        self.wake_at.fetch_min(target, Ordering::SeqCst);
        if self.generation() >= target {
            return parking;
        }
        match until {
            None => self
                .arrived
                .wait(parking)
                .unwrap_or_else(PoisonError::into_inner),
            Some(until) => {
                let left = until.saturating_duration_since(Instant::now());
                self.arrived
                    .wait_timeout(parking, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0
            }
        }
    }

    /// Blocks until `events` (≥ 1) progress events happened since
    /// generation `seen` — some sources made progress — or the deadline
    /// passes; returns `false` on deadline.  A consumer waiting for any
    /// of `n` sources, each of which has at least one event to come, may
    /// ask for up to `n` and be woken once instead of `n` times.
    ///
    /// Every wait of a resolution ends up here or in
    /// [`ResolutionEvents::park_until`] — consumers behind a source,
    /// producers sleeping out a link delay, a nested query (a mediator
    /// behind a wrapper) waiting for its own calls — so this is where a call
    /// worker declares that it blocks and gives up its runner slot.
    pub(crate) fn wait_after(&self, seen: u64, events: u64) -> bool {
        let target = seen + events.max(1);
        if self.generation() >= target {
            return true;
        }
        blocking(|| {
            let mut parking = lock(&self.parking);
            loop {
                if self.generation() >= target {
                    return true;
                }
                if self.deadline_passed() {
                    return false;
                }
                parking = self.park(parking, target, self.deadline);
            }
        })
    }

    /// Parks until `until`, returning `false` as soon as `stop()` holds.
    /// `stop` is re-read after every [`ResolutionEvents::notify`]: a stop
    /// raised before its notify is seen.
    fn park_until(&self, until: Instant, stop: impl Fn() -> bool) -> bool {
        blocking(|| {
            let mut parking = lock(&self.parking);
            loop {
                let seen = self.generation();
                if stop() {
                    return false;
                }
                if Instant::now() >= until {
                    return true;
                }
                parking = self.park(parking, seen + 1, Some(until));
            }
        })
    }
}

/// Terminal or in-flight state of one streamed call.
#[derive(Debug)]
enum SpoolStatus {
    /// The wrapper is still producing chunks.
    Streaming,
    /// Every chunk arrived; the summary fields below are valid.
    Done,
    /// The wrapper reported unavailability (or the deadline expired while
    /// the call was still streaming).
    Unavailable,
    /// A hard wrapper error (capability violation, type conflict, …).
    Failed(WrapperError),
    /// The wrapper call panicked; contained via `catch_unwind`.
    Panicked(String),
}

/// What a spool's lock-free hint says of its status.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Streaming = 0,
    Done = 1,
    /// Unavailable, failed or panicked: read the status under the lock.
    Failed = 2,
}

/// One link of a spool's chunk chain: the mapped, type-checked rows of
/// one wrapper chunk, immutable from the moment the link is published.
/// A consumer holding `&'a PendingSource` reads
/// `&'a [Value]` out of it with no lock and no copy; the next-pointer is
/// written once, by the producer, under the spool's state lock.
#[derive(Debug)]
pub(crate) struct SpoolChunk {
    rows: Bag,
    next: OnceLock<Arc<SpoolChunk>>,
}

impl SpoolChunk {
    /// The chunk as it arrived: column-faced when its wrapper answered in
    /// columns, and then rows only once a consumer reads it as rows.
    pub(crate) fn rows(&self) -> &Bag {
        &self.rows
    }
}

/// The producer's end of the chunk chain (the head lives outside the
/// state lock, on the [`PendingSource`], where readers start).
#[derive(Default)]
struct Chain {
    last: Option<Arc<SpoolChunk>>,
    /// Rows linked so far.
    rows: usize,
}

struct SpoolState {
    chain: Chain,
    status: SpoolStatus,
    rows_scanned: usize,
    latency: Duration,
}

/// A *pending answer*: the spool one wrapper call fills with mapped,
/// type-checked rows while any number of pipeline consumers read it (each
/// at its own position — duplicate scans of the same `exec` key share one
/// call).
///
/// The spool is an append-only **chain of immutable chunks**: a row that
/// left the wrapper is stored once, and a consumer holding
/// `&'a PendingSource` borrows `&'a [Value]` slices out of the chain for
/// the whole evaluation — no lock, no copy (`PendingSource::chunk_after`).
pub struct PendingSource {
    call: Arc<Call>,
    events: Arc<ResolutionEvents>,
    /// Set at the deadline (or on hard failure): tells the wrapper call to
    /// stop producing — the fix for timed-out calls running detached
    /// forever in the background.
    cancel: AtomicBool,
    /// Time this call spent queued behind a [`SourcePool`] cap before
    /// its wrapper was invoked, in microseconds; folded into the
    /// query's `source_wait` at finalization.
    queue_wait_us: AtomicU64,
    /// `total rows << 2 | phase` (see [`Phase`]), republished under the
    /// state lock by everything that appends rows or ends the stream, so
    /// that [`PendingSource::ready`] — swept over every member of a union
    /// — and a read of a chunk already linked take no lock.
    announced: AtomicUsize,
    /// The first chunk of the chain.
    head: OnceLock<Arc<SpoolChunk>>,
    state: StdMutex<SpoolState>,
}

impl Drop for PendingSource {
    /// Unlinks the chain front to back: dropping the head alone would
    /// recurse once per chunk.
    fn drop(&mut self) {
        self.state
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .chain = Chain::default();
        let mut next = self.head.take();
        while let Some(chunk) = next {
            next = Arc::into_inner(chunk).and_then(|mut chunk| chunk.next.take());
        }
    }
}

impl std::fmt::Debug for PendingSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock(&self.state);
        f.debug_struct("PendingSource")
            .field("repository", &self.call().repository)
            .field("extent", &self.call().extent)
            .field("rows", &state.chain.rows)
            .field("status", &state.status)
            .finish()
    }
}

impl PendingSource {
    fn new(call: Arc<Call>, events: Arc<ResolutionEvents>) -> Self {
        PendingSource {
            call,
            events,
            cancel: AtomicBool::new(false),
            queue_wait_us: AtomicU64::new(0),
            announced: AtomicUsize::new(0),
            head: OnceLock::new(),
            state: StdMutex::new(SpoolState {
                chain: Chain::default(),
                status: SpoolStatus::Streaming,
                rows_scanned: 0,
                latency: Duration::ZERO,
            }),
        }
    }

    /// The repository this call targets.
    #[must_use]
    pub fn repository(&self) -> &str {
        &self.call.repository
    }

    fn call(&self) -> &Call {
        &self.call
    }

    /// Republishes the lock-free progress hint; called with the state
    /// lock held, after rows were appended or the status changed.
    fn announce(&self, state: &SpoolState) {
        let phase = match state.status {
            SpoolStatus::Streaming => Phase::Streaming,
            SpoolStatus::Done => Phase::Done,
            _ => Phase::Failed,
        };
        self.announced
            .store(state.chain.rows << 2 | phase as usize, Ordering::Release);
    }

    /// The phase last announced.
    fn phase(&self) -> Phase {
        match self.announced.load(Ordering::Acquire) & 3 {
            0 => Phase::Streaming,
            1 => Phase::Done,
            _ => Phase::Failed,
        }
    }

    /// Whether the consumer side disconnected (deadline or hard error).
    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Disconnects the wrapper call: it observes cancellation at its next
    /// chunk boundary — at once if it is sleeping out a link delay
    /// ([`PendingSource::pause`]) — and returns; still queued, it is
    /// dropped from the queue instead of started.
    pub(crate) fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
        self.events.notify();
    }

    /// Producer side: waits out `delay` of real link time; `false` as
    /// soon as the call is cancelled.
    fn pause(&self, delay: Duration) -> bool {
        self.events
            .park_until(Instant::now() + delay, || self.is_cancelled())
    }

    /// The call was cancelled while queued: it never reaches its wrapper.
    pub(crate) fn abandon(&self) {
        self.finish(SpoolStatus::Unavailable);
    }

    /// Producer side: links one chunk onto the chain as it is — published
    /// under the state lock, *before* the progress hint and the wake-up,
    /// so whoever sees the announcement finds the link; `false` when
    /// cancelled.  Nothing here waits: a memory budget bounds breakers,
    /// not spools.
    fn push_chunk(&self, rows: Bag) -> bool {
        if self.is_cancelled() {
            return false;
        }
        if !rows.is_empty() {
            let chunk = Arc::new(SpoolChunk {
                rows,
                next: OnceLock::new(),
            });
            let mut state = lock(&self.state);
            let chain = &mut state.chain;
            let link = chain.last.as_ref().map_or(&self.head, |last| &last.next);
            link.set(Arc::clone(&chunk))
                .expect("only the producer links, under the state lock");
            chain.rows += chunk.rows.len();
            chain.last = Some(chunk);
            self.announce(&state);
        }
        self.events.notify();
        !self.is_cancelled()
    }

    /// Records how long the call was held in the queue by its
    /// repository's [`SourcePool`] cap.
    pub(crate) fn note_queue_wait(&self, waited: Duration) {
        self.queue_wait_us
            .store(waited.as_micros() as u64, Ordering::Relaxed);
    }

    /// Time the call spent queued behind a connection-pool cap.
    pub(crate) fn queue_wait(&self) -> Duration {
        Duration::from_micros(self.queue_wait_us.load(Ordering::Relaxed))
    }

    /// Producer side: sets a terminal status.
    fn finish(&self, status: SpoolStatus) {
        {
            let mut state = lock(&self.state);
            // A deadline flip to `Unavailable` is sticky: a call finishing
            // after it was classified unavailable stays unavailable, like
            // any answer arriving after the deadline.
            if matches!(state.status, SpoolStatus::Streaming) {
                state.status = status;
                self.announce(&state);
            }
        }
        self.events.notify();
    }

    fn finish_done(&self, rows_scanned: usize, latency: Duration) {
        {
            let mut state = lock(&self.state);
            if matches!(state.status, SpoolStatus::Streaming) {
                state.rows_scanned = rows_scanned;
                state.latency = latency;
                state.status = SpoolStatus::Done;
                self.announce(&state);
            }
        }
        self.events.notify();
    }

    /// Classifies a deadline overrun: a still-streaming spool flips to
    /// unavailable and the wrapper call is cancelled.
    fn timeout(&self) {
        {
            let mut state = lock(&self.state);
            if matches!(state.status, SpoolStatus::Streaming) {
                state.status = SpoolStatus::Unavailable;
                self.announce(&state);
            }
        }
        self.cancel();
    }

    /// Whether a consumer at read index `from` can make progress without
    /// blocking (rows available, or a terminal status to report).
    pub(crate) fn ready(&self, from: usize) -> bool {
        let announced = self.announced.load(Ordering::Acquire);
        announced & 3 != Phase::Streaming as usize || announced >> 2 > from
    }

    /// The one wait loop every consumer goes through: blocks until
    /// `inspect` yields a value, with the missed-wakeup protocol (read
    /// the event generation *before* inspecting state) and one deadline
    /// policy point — once the deadline passes, a still-streaming spool
    /// is classified unavailable and its wrapper call cancelled *before*
    /// the next inspection, whether the consumer was blocked or keeping
    /// pace with arriving chunks.  §4's "query evaluation stops" applies
    /// even to a source that trickles just fast enough to never block
    /// its consumer.  Returns the value and the time spent parked (zero
    /// when the first inspection answered).
    fn wait_until<T>(&self, mut inspect: impl FnMut(&SpoolState) -> Option<T>) -> (T, Duration) {
        let mut waited = Duration::ZERO;
        loop {
            let seen = self.events.generation();
            if self.events.deadline_passed() {
                self.timeout();
            }
            if let Some(out) = inspect(&lock(&self.state)) {
                return (out, waited);
            }
            let parked = Instant::now();
            let progressed = self.events.wait_after(seen, 1);
            waited += parked.elapsed();
            if !progressed {
                self.timeout();
            }
        }
    }

    /// How a terminal failure reads to a consumer of the stream.
    fn failure(&self, status: &SpoolStatus) -> Option<RuntimeError> {
        match status {
            SpoolStatus::Streaming | SpoolStatus::Done => None,
            SpoolStatus::Unavailable => Some(RuntimeError::PendingUnavailable(
                self.call().repository.to_string(),
            )),
            SpoolStatus::Failed(err) => Some(RuntimeError::Wrapper(err.clone())),
            SpoolStatus::Panicked(msg) => Some(RuntimeError::WorkerPanic(msg.clone())),
        }
    }

    /// The chunk of the spool that follows `prev` (the first
    /// one after `None`), borrowed for as long as the spool is; `None`
    /// once the stream completed with `prev` its last chunk.  Blocks —
    /// through [`PendingSource::wait_until`], so under its deadline
    /// policy, and with a terminal failure winning over a chunk already
    /// linked — until the producer links the chunk; the time spent parked
    /// is returned for `source_wait`.
    ///
    /// A chunk already linked, or the end of a completed stream, is
    /// answered without either lock and without waiting — unless the
    /// stream ended in a failure (which wins over the chunk), or is still
    /// streaming past the deadline (the wait loop classifies the source;
    /// a completed stream is past classifying).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::PendingUnavailable`] once the source is classified
    /// unavailable (reported, or at the deadline), the wrapper's hard
    /// error, or its contained panic.
    pub(crate) fn chunk_after<'a>(
        &'a self,
        prev: Option<&'a SpoolChunk>,
    ) -> (Result<Option<&'a SpoolChunk>>, Duration) {
        let link = prev.map_or(&self.head, |chunk| &chunk.next);
        // The end of the stream needs the phase read before the link
        // (every link came before `Done`); a chunk needs it read after the
        // link (a phase that is not a failure held while the link was
        // there).
        let before = self.phase();
        match link.get() {
            None if before == Phase::Done => return (Ok(None), Duration::ZERO),
            Some(chunk) => match self.phase() {
                Phase::Done => return (Ok(Some(chunk)), Duration::ZERO),
                Phase::Streaming if !self.events.deadline_passed() => {
                    return (Ok(Some(chunk)), Duration::ZERO)
                }
                _ => {}
            },
            None => {}
        }
        self.wait_until(|state| {
            if let Some(failure) = self.failure(&state.status) {
                return Some(Err(failure));
            }
            match link.get() {
                Some(chunk) => Some(Ok(Some(&**chunk))),
                None if matches!(state.status, SpoolStatus::Done) => Some(Ok(None)),
                None => None,
            }
        })
    }

    /// Blocks until the call completes (bounded by the deadline) and
    /// returns its final row count — `None` when it did not complete.
    /// Used for hash-join build-side estimation, so the build/probe
    /// orientation (and with it `rows_materialized`) is identical to an
    /// evaluation over materialized [`resolve_execs`] outcomes.
    pub(crate) fn await_len(&self) -> Option<usize> {
        self.wait_until(|state| match &state.status {
            SpoolStatus::Streaming => None,
            SpoolStatus::Done => Some(Some(state.chain.rows)),
            _ => Some(None),
        })
        .0
    }

    /// The whole chain as one bag ([`Bag::concat`]: column chunks of one
    /// answer stay columns); a single chunk is shared as it is, with no
    /// list of parts built for it.
    fn chained_rows(&self) -> Bag {
        let Some(head) = self.head.get() else {
            return Bag::concat(&[]);
        };
        if head.next.get().is_none() {
            return head.rows().clone();
        }
        let mut chunks = Vec::new();
        let mut next = Some(head);
        while let Some(chunk) = next {
            chunks.push(chunk.rows());
            next = chunk.next.get();
        }
        Bag::concat(&chunks)
    }

    /// Waits for a terminal status and renders the final outcome + stats.
    /// A stream that has ended is read under one lock, with no wait.
    fn final_outcome(&self) -> (ExecOutcome, SourceCallStats, Option<RuntimeError>) {
        let settle = |state: &SpoolState| {
            let (outcome, error) = match &state.status {
                SpoolStatus::Streaming => return None,
                SpoolStatus::Done => (ExecOutcome::Rows(self.chained_rows()), None),
                SpoolStatus::Unavailable => (ExecOutcome::Unavailable, None),
                SpoolStatus::Failed(err) => (
                    ExecOutcome::Unavailable,
                    Some(RuntimeError::Wrapper(err.clone())),
                ),
                SpoolStatus::Panicked(msg) => (
                    ExecOutcome::Unavailable,
                    Some(RuntimeError::WorkerPanic(msg.clone())),
                ),
            };
            let (available, rows_returned, rows_scanned, latency) = match &outcome {
                ExecOutcome::Rows(rows) => (true, rows.len(), state.rows_scanned, state.latency),
                _ => (false, 0, 0, Duration::ZERO),
            };
            let stats = SourceCallStats {
                repository: Arc::clone(&self.call().repository),
                extent: Arc::clone(&self.call().extent),
                available,
                rows_returned,
                rows_scanned,
                latency,
            };
            Some((outcome, stats, error))
        };
        if self.phase() != Phase::Streaming {
            if let Some(settled) = settle(&lock(&self.state)) {
                return settled;
            }
        }
        self.wait_until(settle).0
    }
}

/// Statistics of one `exec` call, for traces and experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceCallStats {
    /// Repository name (shared with the call's [`ExecKey`]).
    pub repository: Arc<str>,
    /// Extent accessed (shared with the call's [`ExecKey`]).
    pub extent: Arc<str>,
    /// Whether the source answered.
    pub available: bool,
    /// Rows returned to the mediator (data transferred).
    pub rows_returned: usize,
    /// Rows the source scanned to answer.
    pub rows_scanned: usize,
    /// Latency of the call (simulated network + source time).
    pub latency: Duration,
}

/// Configuration of a plan execution.
#[derive(Debug, Clone)]
pub struct ExecutionConfig {
    /// The "designated time period" after which unanswered sources are
    /// classified unavailable and partial evaluation kicks in.
    pub deadline: Option<Duration>,
    /// Record finished calls into the calibration store.
    pub calibration: Option<Arc<CalibrationStore>>,
    /// Shared wrapper-connection pool gating the wrapper calls.  `None`
    /// (the default) caps no repository; a serving layer shares one
    /// [`SourcePool`] across all its executors so per-source concurrency
    /// caps apply across concurrent queries.  Time a call spends held
    /// back by a cap is metered into the query's `source_wait`.
    pub source_pool: Option<Arc<SourcePool>>,
    /// Cap on the total rows transferred from sources to this query.
    /// Once the budget is exhausted, the still-streaming wrapper calls
    /// are cancelled through the same path a deadline takes: their
    /// spools flip to unavailable and the query completes as a partial
    /// answer whose residual re-fetches the cancelled sources.  `None`
    /// (the default) is unlimited.
    pub row_budget: Option<usize>,
    /// The options of the mediator-side combine step (build side, batch
    /// size, memory budget), declared once in [`PipelineOptions`].
    /// Wrapper calls are always issued in parallel, on the process-wide
    /// call executor; a bounded `pipeline.mem_budget` bounds breaker
    /// state only — every [`PendingSource`] spool is a chunk chain either
    /// way.
    pub pipeline: PipelineOptions,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            deadline: Some(Duration::from_millis(500)),
            calibration: None,
            source_pool: None,
            row_budget: None,
            pipeline: PipelineOptions::default(),
        }
    }
}

/// Shared row budget of one query: every spool's sink charges the rows
/// it pushes against the same counter, so the cap applies to the query's
/// total transfer, not per source.
#[derive(Debug)]
pub(crate) struct RowBudget {
    limit: usize,
    used: AtomicUsize,
}

impl RowBudget {
    fn new(limit: usize) -> Self {
        RowBudget {
            limit,
            used: AtomicUsize::new(0),
        }
    }

    /// Charges `rows` against the budget; `false` when the budget is
    /// exhausted (the chunk must not be delivered).
    fn charge(&self, rows: usize) -> bool {
        let before = self.used.fetch_add(rows, Ordering::Relaxed);
        before.saturating_add(rows) <= self.limit
    }
}

/// The resolved `exec` calls of one plan execution.
///
/// Entries are either materialized ([`ExecOutcome::Rows`] /
/// [`ExecOutcome::Unavailable`], with stats recorded) or *pending*
/// ([`ExecOutcome::Pending`]): spools still being filled by wrapper
/// calls.  [`ResolvedExecs::finalize_streamed`] waits (bounded by the
/// execution deadline) and materializes every pending entry.
#[derive(Debug, Clone, Default)]
pub struct ResolvedExecs {
    /// Which calls there are: the call table of the plan, shared with it.
    calls: Arc<CallTable>,
    /// The outcome of each call of `calls`, by index.
    outcomes: Vec<ExecOutcome>,
    stats: Vec<SourceCallStats>,
    /// The shared wakeup channel of a streamed resolution.
    events: Option<Arc<ResolutionEvents>>,
    /// Time the calls spent queued behind a [`SourcePool`] cap,
    /// accumulated at finalization and folded into `source_wait`.
    queue_wait: Duration,
}

impl ResolvedExecs {
    /// The shared event channel, when this resolution is streamed.
    pub(crate) fn events(&self) -> Option<&Arc<ResolutionEvents>> {
        self.events.as_ref()
    }

    fn all_outcomes(&self) -> impl Iterator<Item = (&Call, &ExecOutcome)> {
        self.calls
            .calls()
            .iter()
            .map(|call| &**call)
            .zip(&self.outcomes)
    }

    /// Inserts or replaces the outcome of `key`.
    fn set_outcome(&mut self, key: ExecKey, outcome: ExecOutcome) {
        match self.calls.position(&key.repository, &key.extent, &key.expr) {
            Some(at) => self.outcomes[at] = outcome,
            None => {
                Arc::make_mut(&mut self.calls).push_unprepared(key);
                self.outcomes.push(outcome);
            }
        }
    }

    /// Whether any entry is still a pending (streaming) spool.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o, ExecOutcome::Pending(_)))
    }

    /// Disconnects every pending wrapper call (used when an execution
    /// aborts on a hard error): a running call observes cancellation at
    /// its next chunk boundary (a sleeping one at once) and winds down, a
    /// queued one is dropped from the queue.
    pub fn cancel_pending(&self) {
        for outcome in &self.outcomes {
            if let ExecOutcome::Pending(source) = outcome {
                source.cancel();
            }
        }
    }

    /// Waits (bounded by the execution deadline) for every pending spool,
    /// in call order, and materializes it: completed calls become
    /// [`ExecOutcome::Rows`] with stats, everything else — including calls
    /// still streaming at the deadline, which are cancelled — becomes
    /// [`ExecOutcome::Unavailable`].
    ///
    /// # Errors
    ///
    /// Returns the first hard wrapper error or contained wrapper panic,
    /// after cancelling the remaining calls.
    pub fn finalize_streamed(&mut self) -> Result<()> {
        let mut failure: Option<RuntimeError> = None;
        for outcome in &mut self.outcomes {
            let ExecOutcome::Pending(source) = outcome else {
                continue;
            };
            let finalized = if failure.is_some() {
                // Already failing: disconnect instead of waiting.
                source.cancel();
                ExecOutcome::Unavailable
            } else {
                let (finalized, stats, error) = source.final_outcome();
                self.stats.push(stats);
                failure = error;
                finalized
            };
            self.queue_wait += source.queue_wait();
            *outcome = finalized;
        }
        match failure {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// Looks up the outcome for one call.
    #[must_use]
    pub fn outcome(&self, key: &ExecKey) -> Option<&ExecOutcome> {
        self.outcome_of(&key.repository, &key.extent, &key.expr)
    }

    /// [`ResolvedExecs::outcome`] for the fields of an `exec` node.
    pub(crate) fn outcome_of(
        &self,
        repository: &str,
        extent: &str,
        expr: &LogicalExpr,
    ) -> Option<&ExecOutcome> {
        let at = self.calls.position(repository, extent, expr)?;
        Some(&self.outcomes[at])
    }

    /// The outcome of the call of member `i` of the fan-out `node`.
    pub(crate) fn member_outcome(&self, node: &FanOut, i: usize) -> Option<&ExecOutcome> {
        let at = self.calls.member(node, i)?;
        Some(&self.outcomes[at])
    }

    /// Returns `true` when every call succeeded.
    #[must_use]
    pub fn all_available(&self) -> bool {
        self.all_outcomes()
            .all(|(_, o)| matches!(o, ExecOutcome::Rows(_)))
    }

    /// The repositories that did not answer, sorted and de-duplicated.
    #[must_use]
    pub fn unavailable_repositories(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .all_outcomes()
            .filter(|(_, o)| matches!(o, ExecOutcome::Unavailable))
            .map(|(call, _)| call.repository.to_string())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Per-call statistics.
    #[must_use]
    pub fn stats(&self) -> &[SourceCallStats] {
        &self.stats
    }

    /// The per-call statistics, taken by an execution's stats.
    pub(crate) fn into_stats(self) -> Vec<SourceCallStats> {
        self.stats
    }

    /// Time the wrapper calls spent queued behind a [`SourcePool`]
    /// concurrency cap (zero without a pool, or before finalization).
    /// The executor folds this into `ExecutionStats::source_wait`; like
    /// the per-call waits it sums over calls, so it can exceed the
    /// query's wall-clock time.
    #[must_use]
    pub fn source_queue_wait(&self) -> Duration {
        self.queue_wait
    }

    /// Total rows transferred from sources to the mediator.
    #[must_use]
    pub fn rows_transferred(&self) -> usize {
        self.stats.iter().map(|s| s.rows_returned).sum()
    }

    /// Number of `exec` calls issued.
    #[must_use]
    pub fn call_count(&self) -> usize {
        self.stats.len()
    }

    /// Inserts an outcome: a resolution filled in by hand, as oracles
    /// and tests build them.
    pub fn insert(&mut self, key: ExecKey, outcome: ExecOutcome, stats: SourceCallStats) {
        self.set_outcome(key, outcome);
        self.stats.push(stats);
    }
}

/// Issues every `exec` call of the plan in parallel and waits for all of
/// them (bounded by the deadline) before returning materialized outcomes
/// — [`resolve_execs_streamed`] followed by
/// [`ResolvedExecs::finalize_streamed`].  The executor streams instead;
/// this is how oracles, tests and staged measurements (resolve, then
/// combine) get the outcomes every streamed execution must agree with.
///
/// # Errors
///
/// Hard wrapper errors (capability violations, type conflicts, unknown
/// tables) abort the execution; unavailability does not.
pub fn resolve_execs(
    plan: &PhysicalExpr,
    registry: &WrapperRegistry,
    catalog: &Catalog,
    config: &ExecutionConfig,
) -> Result<ResolvedExecs> {
    let mut resolved = resolve_execs_streamed(plan, registry, catalog, config)?;
    resolved.finalize_streamed()?;
    Ok(resolved)
}

/// Issues every `exec` call of the plan in parallel and returns
/// immediately: each entry of the result is a [`PendingSource`] spool that
/// its call — queued on the process-wide call executor — fills with
/// mapped, type-checked row chunks while the pipeline pulls (§4's
/// "designated time period" moves into the stream: at the deadline,
/// still-streaming spools flip to unavailable and the call is cancelled).
/// The plan's call table is prepared here and run as a cached plan's is.
///
/// # Errors
///
/// Catalog and registry lookups fail before any call is queued;
/// wrapper-side errors surface later, through the spools.
pub fn resolve_execs_streamed(
    plan: &PhysicalExpr,
    registry: &WrapperRegistry,
    catalog: &Catalog,
    config: &ExecutionConfig,
) -> Result<ResolvedExecs> {
    let calls = Arc::new(CallTable::new(plan, catalog)?);
    resolve_on(CallExecutor::global(), &calls, registry, config)
}

/// Runs a call table on `executor`: a spool and a queued call per call,
/// every wrapper handle looked up first — per execution, so a wrapper
/// re-registered under its name since the table was prepared is the one
/// called, and an unknown one fails the execution before any call runs.
pub(crate) fn resolve_on(
    executor: &CallExecutor,
    calls: &Arc<CallTable>,
    registry: &WrapperRegistry,
    config: &ExecutionConfig,
) -> Result<ResolvedExecs> {
    let mut resolved = ResolvedExecs {
        calls: Arc::clone(calls),
        ..ResolvedExecs::default()
    };
    let calls = calls.calls();
    if calls.is_empty() {
        return Ok(resolved);
    }
    let deadline_at = config.deadline.map(|d| Instant::now() + d);
    let events = Arc::new(ResolutionEvents::new(deadline_at));
    resolved.events = Some(Arc::clone(&events));
    // One budget shared by every call of this query: the cap bounds the
    // total transfer, not each source individually.
    let row_budget = config
        .row_budget
        .map(|limit| Arc::new(RowBudget::new(limit)));
    resolved.outcomes.reserve_exact(calls.len());
    resolved.stats.reserve_exact(calls.len());
    // Nothing is queued before every wrapper is found, so an unknown one
    // never leaves half the calls running.
    let mut queued = Vec::with_capacity(calls.len());
    for call in calls {
        let wrapper = registry
            .wrapper(&call.wrapper)
            .ok_or_else(|| RuntimeError::UnknownWrapper(call.wrapper.to_string()))?;
        let source = Arc::new(PendingSource::new(Arc::clone(call), Arc::clone(&events)));
        resolved
            .outcomes
            .push(ExecOutcome::Pending(Arc::clone(&source)));
        let calibration = config.calibration.clone();
        let budget = row_budget.clone();
        let spool = Arc::clone(&source);
        queued.push(QueuedCall::new(
            source,
            config.source_pool.clone(),
            move || run_wrapper_call(&spool, &*wrapper, calibration.as_deref(), budget.as_deref()),
        ));
    }
    executor.submit(queued);
    Ok(resolved)
}

/// The [`AnswerSink`] a wrapper call streams into: chunks are renamed into
/// the mediator name space, type-checked, and appended to the spool.
struct SpoolSink<'a> {
    spool: &'a PendingSource,
    map: &'a TypeMap,
    expected: &'a [String],
    /// The query-wide row budget; a chunk that exhausts it trips the
    /// spool to unavailable instead of being delivered.
    budget: Option<&'a RowBudget>,
    /// A per-chunk type-conformance failure, reported after the call.
    conformance: Option<WrapperError>,
    rows_pushed: usize,
}

impl AnswerSink for SpoolSink<'_> {
    fn push(&mut self, rows: Bag) -> bool {
        if self.conformance.is_some() {
            return false;
        }
        let mapped = map_rows_to_mediator(rows, self.map);
        if let Err(err) = check_type_conformance(&mapped, self.expected, &self.spool.call().extent)
        {
            self.conformance = Some(err);
            return false;
        }
        if let Some(budget) = self.budget {
            if !budget.charge(mapped.len()) {
                // Budget exhausted: cancel this call through the same
                // sticky-unavailable path a deadline takes, so the query
                // completes as a partial answer with a residual.
                self.spool.timeout();
                return false;
            }
        }
        self.rows_pushed += mapped.len();
        self.spool.push_chunk(mapped)
    }

    fn is_cancelled(&self) -> bool {
        self.spool.is_cancelled()
    }

    fn pause(&mut self, delay: Duration) -> bool {
        self.spool.pause(delay)
    }
}

/// Body of one wrapper call: stream the answer into the spool,
/// contain panics, and record the finished call into the calibration
/// store under its prepared keys.
fn run_wrapper_call(
    spool: &PendingSource,
    wrapper: &dyn Wrapper,
    calibration: Option<&CalibrationStore>,
    budget: Option<&RowBudget>,
) {
    let started = Instant::now();
    let call = &spool.call;
    let source_expr = map_expr_to_source(&call.expr, &call.shape.map);
    let mut sink = SpoolSink {
        spool,
        map: &call.shape.map,
        expected: &call.shape.expected,
        budget,
        conformance: None,
        rows_pushed: 0,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        wrapper.submit_into(&source_expr, &mut sink)
    }));
    let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
    let rows_pushed = sink.rows_pushed;
    let conformance = sink.conformance.take();
    match outcome {
        Err(payload) => spool.finish(SpoolStatus::Panicked(panic_message(&*payload))),
        Ok(_) if conformance.is_some() => {
            spool.finish(SpoolStatus::Failed(conformance.expect("checked")));
        }
        Ok(Ok(summary)) => {
            if !spool.is_cancelled() {
                if let Some(store) = calibration {
                    // Record both the wall-clock elapsed time and the
                    // simulated latency — the simulated latency dominates.
                    let time_ms = summary.latency.as_secs_f64() * 1000.0 + elapsed_ms.min(1.0);
                    let key = call.calibration_key();
                    store.record_under(&call.repository, key, time_ms, rows_pushed);
                }
            }
            spool.finish_done(summary.rows_scanned, summary.latency);
        }
        Ok(Err(WrapperError::Unavailable { .. })) => spool.finish(SpoolStatus::Unavailable),
        Ok(Err(other)) => spool.finish(SpoolStatus::Failed(other)),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect_exec_calls;
    use disco_algebra::lower;
    use disco_catalog::{Attribute, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef};
    use disco_source::{generator, NetworkProfile, RelationalStore, SimulatedLink};
    use disco_wrapper::RelationalWrapper;

    fn setup() -> (Catalog, WrapperRegistry) {
        let mut catalog = Catalog::new();
        catalog
            .define_interface(
                InterfaceDef::new("Person")
                    .with_extent_name("person")
                    .with_attribute(Attribute::new("id", TypeRef::Int))
                    .with_attribute(Attribute::new("name", TypeRef::String))
                    .with_attribute(Attribute::new("salary", TypeRef::Int)),
            )
            .unwrap();
        catalog
            .add_wrapper(WrapperDef::new("w0", "relational"))
            .unwrap();
        catalog.add_repository(Repository::new("r0")).unwrap();
        catalog.add_repository(Repository::new("r1")).unwrap();
        catalog
            .add_extent(MetaExtent::new("person0", "Person", "w0", "r0"))
            .unwrap();
        catalog
            .add_extent(MetaExtent::new("person1", "Person", "w0", "r1"))
            .unwrap();

        let registry = WrapperRegistry::new();
        let store = std::sync::Arc::new(RelationalStore::new());
        store.put_table(generator::person_table("person0", 10, 0, 1));
        store.put_table(generator::person_table("person1", 10, 1, 1));
        let link = std::sync::Arc::new(SimulatedLink::new("r0", NetworkProfile::fast(), 1));
        registry.register(std::sync::Arc::new(RelationalWrapper::new(
            "w0", store, link,
        )));
        (catalog, registry)
    }

    fn union_plan() -> PhysicalExpr {
        lower(&LogicalExpr::Union(vec![
            LogicalExpr::get("person0").submit("r0", "w0", "person0"),
            LogicalExpr::get("person1").submit("r1", "w0", "person1"),
        ]))
        .unwrap()
    }

    #[test]
    fn all_calls_resolve_in_parallel() {
        let (catalog, registry) = setup();
        let resolved = resolve_execs(
            &union_plan(),
            &registry,
            &catalog,
            &ExecutionConfig::default(),
        )
        .unwrap();
        assert!(resolved.all_available());
        assert_eq!(resolved.call_count(), 2);
        assert_eq!(resolved.rows_transferred(), 20);
        assert!(resolved.unavailable_repositories().is_empty());
    }

    #[test]
    fn calibration_records_each_call() {
        let (catalog, registry) = setup();
        let store = Arc::new(CalibrationStore::new());
        let config = ExecutionConfig {
            deadline: None,
            calibration: Some(Arc::clone(&store)),
            ..ExecutionConfig::default()
        };
        resolve_execs(&union_plan(), &registry, &catalog, &config).unwrap();
        assert_eq!(store.exact_shapes(), 2);
    }

    #[test]
    fn unknown_wrapper_is_a_hard_error() {
        let (catalog, registry) = setup();
        let plan =
            lower(&LogicalExpr::get("person0").submit("r0", "w_missing", "person0")).unwrap();
        let err =
            resolve_execs(&plan, &registry, &catalog, &ExecutionConfig::default()).unwrap_err();
        assert!(matches!(err, RuntimeError::UnknownWrapper(_)));
    }

    #[test]
    fn duplicate_exec_calls_are_issued_once() {
        let (catalog, registry) = setup();
        let plan = lower(&LogicalExpr::Union(vec![
            LogicalExpr::get("person0").submit("r0", "w0", "person0"),
            LogicalExpr::get("person0").submit("r0", "w0", "person0"),
        ]))
        .unwrap();
        let resolved =
            resolve_execs(&plan, &registry, &catalog, &ExecutionConfig::default()).unwrap();
        assert_eq!(resolved.call_count(), 1);
    }

    #[test]
    fn streamed_resolution_returns_pending_spools_then_finalizes() {
        let (catalog, registry) = setup();
        let mut resolved = resolve_execs_streamed(
            &union_plan(),
            &registry,
            &catalog,
            &ExecutionConfig::default(),
        )
        .unwrap();
        assert!(
            resolved.has_pending(),
            "entries start as pending spools, not materialized outcomes"
        );
        assert_eq!(resolved.call_count(), 0, "no stats before finalization");
        resolved.finalize_streamed().unwrap();
        assert!(!resolved.has_pending());
        assert!(resolved.all_available());
        assert_eq!(resolved.call_count(), 2);
        assert_eq!(resolved.rows_transferred(), 20);
    }

    /// The spools of a streamed resolution of `plan`, each read to its
    /// end once its call finished: `(chunks, time the reads waited)`, or
    /// the error the first read met.
    fn read_finished_spools(
        plan: &PhysicalExpr,
        registry: &WrapperRegistry,
        catalog: &Catalog,
    ) -> Vec<Result<(usize, Duration)>> {
        let config = ExecutionConfig {
            deadline: None,
            ..ExecutionConfig::default()
        };
        let resolved = resolve_execs_streamed(plan, registry, catalog, &config).unwrap();
        resolved
            .outcomes
            .iter()
            .map(|outcome| {
                let ExecOutcome::Pending(source) = outcome else {
                    panic!("a streamed resolution's outcomes are spools");
                };
                source.await_len();
                let (mut chunk, mut chunks, mut waited) = (None, 0, Duration::ZERO);
                loop {
                    let (next, wait) = source.chunk_after(chunk);
                    waited += wait;
                    match next? {
                        Some(next) => (chunk, chunks) = (Some(next), chunks + 1),
                        None => return Ok((chunks, waited)),
                    }
                }
            })
            .collect()
    }

    /// Fails at the parent commit, where every read charged the time the
    /// call took: a chunk already linked, and the end of a completed
    /// stream, are read without waiting at all.
    #[test]
    fn reading_a_completed_spool_adds_no_wait() {
        let (catalog, registry) = setup();
        for read in read_finished_spools(&union_plan(), &registry, &catalog) {
            let (chunks, waited) = read.unwrap();
            assert!(chunks > 0);
            assert_eq!(waited, Duration::ZERO);
        }
    }

    /// Answers one chunk, then reports the source unavailable.
    struct FailsAfterAChunk;

    impl Wrapper for FailsAfterAChunk {
        fn name(&self) -> &str {
            "w0"
        }
        fn kind(&self) -> &str {
            "relational"
        }
        fn capabilities(&self) -> disco_algebra::CapabilitySet {
            disco_algebra::CapabilitySet::full()
        }
        fn submit_into(
            &self,
            _expr: &LogicalExpr,
            sink: &mut dyn AnswerSink,
        ) -> std::result::Result<disco_wrapper::AnswerSummary, WrapperError> {
            let row = disco_value::StructValue::new(vec![
                ("id", disco_value::Value::Int(1)),
                ("name", disco_value::Value::from("early")),
                ("salary", disco_value::Value::Int(10)),
            ])
            .unwrap();
            sink.push([disco_value::Value::Struct(row)].into_iter().collect());
            Err(WrapperError::Unavailable {
                endpoint: "r0".into(),
            })
        }
    }

    /// The read that finds a chunk linked takes no lock, but a stream
    /// that ended in a failure still reports the failure, not the chunk.
    #[test]
    fn a_failure_wins_over_a_linked_chunk() {
        let (catalog, registry) = setup();
        registry.register(Arc::new(FailsAfterAChunk));
        let plan = lower(&LogicalExpr::get("person0").submit("r0", "w0", "person0")).unwrap();
        let reads = read_finished_spools(&plan, &registry, &catalog);
        assert_eq!(reads, [Err(RuntimeError::PendingUnavailable("r0".into()))]);
    }

    #[test]
    fn collect_exec_calls_sees_aggregate_subplans() {
        use disco_algebra::{AggKind, ScalarExpr};
        let logical = LogicalExpr::get("person0")
            .submit("r0", "w0", "person0")
            .bind("x")
            .map_project(ScalarExpr::Agg(
                AggKind::Sum,
                Box::new(LogicalExpr::get("person1").submit("r1", "w0", "person1")),
            ));
        let plan = lower(&logical).unwrap();
        let calls = collect_exec_calls(&plan);
        assert_eq!(
            calls.len(),
            2,
            "both the outer and the nested submit are seen"
        );
    }
}

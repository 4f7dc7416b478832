//! The call executor: one bounded set of threads runs every wrapper call
//! of every query in the process.
//!
//! §3.3 asks that "the runtime issues all calls in parallel"; it does not
//! ask for a thread each.  [`resolve_execs_streamed`](crate::
//! resolve_execs_streamed) enqueues its calls here, FIFO, and returns.
//!
//! * **Runners.**  At most `available_parallelism()` (floor 2) workers
//!   run calls at any time; a call over a link that answers without
//!   waiting starts, runs and finishes on one of them.
//! * **Blocking is declared.**  A call that is about to wait mid-flight —
//!   a sleeping link, a nested query waiting for its own calls — waits
//!   inside [`blocking`], which gives up the runner slot for the
//!   duration.  A queued call then starts on a parked worker,
//!   or on a spare one spawned for it; spares retire once idle.  The
//!   thread count is therefore `runners + calls blocked mid-call`, and
//!   **whenever every started call is blocked, a queued call can start**:
//!   a join whose build side is queued behind probe-side calls that all
//!   wait mid-flight does not wait for them to finish.
//! * **Per-repository slots.**  A call whose [`SourcePool`] cap is
//!   exhausted stays *in the queue* — FIFO per repository, passed over by
//!   calls to other repositories — until a call to its repository
//!   finishes.  No thread waits for a slot.
//! * **Cancellation.**  A call cancelled while queued is dropped when a
//!   worker reaches it and never sees its wrapper.
//!
//! Workers are detached on purpose: they outlive every query, the calls
//! they run contain their own panics (`run_wrapper_call`), and the
//! worker loop contains whatever is left, so a join handle would carry
//! nothing.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::exec::PendingSource;
use crate::lock;
use crate::pool::{PoolPermit, SourcePool};

/// How long a spare worker stays parked before it retires.
const SPARE_KEEP_ALIVE: Duration = Duration::from_millis(100);

/// What a worker found when it looked at a queued call.
enum Admission {
    Start,
    /// The repository is at its cap; try again when a slot frees.
    Gated,
    Cancelled,
}

/// One wrapper call waiting for a runner (and, when pooled, for a slot of
/// its repository).
pub(crate) struct QueuedCall {
    source: Arc<PendingSource>,
    pool: Option<Arc<SourcePool>>,
    run: Box<dyn FnOnce() + Send>,
    /// When a worker first found the repository at its cap.
    gated_since: Option<Instant>,
    permit: Option<PoolPermit>,
}

impl QueuedCall {
    /// A call filling `source`; `run` is the call itself.  With a `pool`
    /// the call holds one slot of its repository while it runs.
    pub(crate) fn new(
        source: Arc<PendingSource>,
        pool: Option<Arc<SourcePool>>,
        run: impl FnOnce() + Send + 'static,
    ) -> Self {
        QueuedCall {
            source,
            pool,
            run: Box::new(run),
            gated_since: None,
            permit: None,
        }
    }

    /// Meters the time the call was held back by its repository's cap.
    fn note_gated_wait(&self) {
        if let (Some(pool), Some(since)) = (&self.pool, self.gated_since) {
            let waited = since.elapsed();
            pool.note_wait(waited);
            self.source.note_queue_wait(waited);
        }
    }

    fn admit(&mut self) -> Admission {
        if self.source.is_cancelled() {
            self.note_gated_wait();
            return Admission::Cancelled;
        }
        let Some(pool) = &self.pool else {
            return Admission::Start;
        };
        match pool.try_acquire(self.source.repository()) {
            Some(permit) => {
                self.permit = Some(permit);
                self.note_gated_wait();
                Admission::Start
            }
            None => {
                if self.gated_since.is_none() {
                    self.gated_since = Some(Instant::now());
                    pool.note_queued();
                }
                Admission::Gated
            }
        }
    }
}

#[derive(Default)]
struct State {
    queue: VecDeque<QueuedCall>,
    /// Workers running a call outside a [`blocking`] scope.
    running: usize,
    /// Workers inside a [`blocking`] scope.
    blocked: usize,
    /// Workers waiting for work.
    parked: usize,
    /// Live workers.
    threads: usize,
    /// Calls enqueued and not yet finished or dropped.
    in_flight: usize,
}

impl State {
    /// Removes and returns the first call that may start, moving calls
    /// cancelled while queued into `dropped` on the way.
    fn take_startable(&mut self, dropped: &mut Vec<QueuedCall>) -> Option<QueuedCall> {
        let mut index = 0;
        while let Some(call) = self.queue.get_mut(index) {
            match call.admit() {
                Admission::Start => return self.queue.remove(index),
                Admission::Gated => index += 1,
                Admission::Cancelled => dropped.extend(self.queue.remove(index)),
            }
        }
        None
    }
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    max_runners: usize,
    spawned: AtomicUsize,
}

/// A handle on one executor.  The process has one ([`CallExecutor::
/// global`]); tests build private ones to pin the runner count.
#[derive(Clone)]
pub(crate) struct CallExecutor {
    shared: Arc<Shared>,
}

thread_local! {
    /// The executor this thread works for, if it is a call worker.
    static WORKER: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
    /// Whether this worker is already inside a [`blocking`] scope.
    static IN_BLOCKING: Cell<bool> = const { Cell::new(false) };
}

impl CallExecutor {
    /// An executor with at most `max_runners` calls running (not blocked)
    /// at a time.  No thread is started until the first call arrives.
    pub(crate) fn new(max_runners: usize) -> Self {
        CallExecutor {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                work: Condvar::new(),
                max_runners: max_runners.max(1),
                spawned: AtomicUsize::new(0),
            }),
        }
    }

    /// The process-wide executor, started on first use.
    pub(crate) fn global() -> &'static CallExecutor {
        static GLOBAL: OnceLock<CallExecutor> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(2, usize::from);
            CallExecutor::new(cores.max(2))
        })
    }

    /// Enqueues `calls` in order and returns at once.
    pub(crate) fn submit(&self, calls: Vec<QueuedCall>) {
        let mut state = lock(&self.shared.state);
        state.in_flight += calls.len();
        state.queue.extend(calls);
        // One worker is enough: each worker that takes a call wakes the
        // next while there is work and a free runner slot.
        let spawn = self.shared.wake_one(&mut state);
        drop(state);
        if spawn {
            self.shared.spawn_worker();
        }
    }

    /// Calls enqueued and not yet finished.
    pub(crate) fn in_flight(&self) -> usize {
        lock(&self.shared.state).in_flight
    }

    /// Worker threads this executor has started since it was created.
    pub(crate) fn threads_spawned(&self) -> usize {
        self.shared.spawned.load(Ordering::Relaxed)
    }
}

impl Shared {
    /// Gets one more worker looking at the queue, if there is work and a
    /// free runner slot: wakes a parked one, else reserves a new one and
    /// returns `true` — the caller spawns it after releasing the lock.
    fn wake_one(&self, state: &mut State) -> bool {
        if state.queue.is_empty() || state.running >= self.max_runners {
            return false;
        }
        if state.parked > 0 {
            self.work.notify_one();
            return false;
        }
        // Blocked workers hold no runner slot, so the threads it takes
        // to keep every slot busy are the runners plus the blocked.
        if state.threads < self.max_runners + state.blocked {
            state.threads += 1;
            return true;
        }
        false
    }

    fn spawn_worker(self: &Arc<Self>) {
        let id = self.spawned.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("disco-call-{id}"))
            .spawn(move || shared.work_loop());
        if let Err(err) = spawned {
            // The workers that exist drain the queue; with none, calls
            // wait for the deadline and are classified unavailable.
            lock(&self.state).threads -= 1;
            eprintln!("disco: cannot start a call worker: {err}");
        }
    }

    fn work_loop(self: Arc<Self>) {
        WORKER.with(|worker| *worker.borrow_mut() = Some(Arc::clone(&self)));
        let mut state = lock(&self.state);
        let mut retiring = false;
        loop {
            let mut dropped = Vec::new();
            let next = if state.running < self.max_runners {
                state.take_startable(&mut dropped)
            } else {
                None
            };
            if next.is_none() && dropped.is_empty() {
                let spare = state.threads > self.max_runners;
                if spare && retiring {
                    state.threads -= 1;
                    return;
                }
                state.parked += 1;
                if spare {
                    let (guard, timeout) = self
                        .work
                        .wait_timeout(state, SPARE_KEEP_ALIVE)
                        .unwrap_or_else(PoisonError::into_inner);
                    state = guard;
                    // One more look at the queue before leaving: the
                    // wake-up meant for this worker may have raced the
                    // timeout.
                    retiring = timeout.timed_out();
                } else {
                    state = self
                        .work
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                state.parked -= 1;
                continue;
            }
            retiring = false;
            state.in_flight -= dropped.len();
            let mut spawn = false;
            if next.is_some() {
                state.running += 1;
                spawn = self.wake_one(&mut state);
            }
            drop(state);
            if spawn {
                self.spawn_worker();
            }
            for call in dropped {
                call.source.abandon();
            }
            let Some(call) = next else {
                state = lock(&self.state);
                continue;
            };
            let QueuedCall { run, permit, .. } = call;
            if catch_unwind(AssertUnwindSafe(run)).is_err() {
                eprintln!("disco: a wrapper call panicked outside its wrapper");
            }
            // The slot is free before this worker looks at the queue
            // again, so a call gated on it can start right here.
            drop(permit);
            state = lock(&self.state);
            state.running -= 1;
            state.in_flight -= 1;
        }
    }
}

/// Runs `wait` — something that blocks until another thread acts or time
/// passes — without holding a runner slot.  On a thread that is not a
/// call worker this is just `wait()`.
pub(crate) fn blocking<T>(wait: impl FnOnce() -> T) -> T {
    /// Takes the runner slot back, also when `wait` unwinds.
    struct Scope<'a>(&'a Shared);
    impl Drop for Scope<'_> {
        fn drop(&mut self) {
            let mut state = lock(&self.0.state);
            state.blocked -= 1;
            // A returning call may push `running` past the cap for the
            // rest of its run; no new call starts until it is back under.
            state.running += 1;
            IN_BLOCKING.with(|flag| flag.set(false));
        }
    }
    WORKER.with(|worker| {
        let worker = worker.borrow();
        let Some(shared) = worker.as_ref().filter(|_| !IN_BLOCKING.with(Cell::get)) else {
            return wait();
        };
        IN_BLOCKING.with(|flag| flag.set(true));
        let mut state = lock(&shared.state);
        state.running -= 1;
        state.blocked += 1;
        let spawn = shared.wake_one(&mut state);
        drop(state);
        let _scope = Scope(shared);
        if spawn {
            shared.spawn_worker();
        }
        wait()
    })
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;

    use disco_algebra::{lower, CapabilitySet, LogicalExpr, PhysicalExpr, ScalarExpr, ScalarOp};
    use disco_catalog::{
        Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef,
    };
    use disco_source::{generator, NetworkProfile, RelationalStore, SimulatedLink};
    use disco_wrapper::{
        AnswerSink, AnswerSummary, RelationalWrapper, Wrapper, WrapperError, WrapperRegistry,
    };

    use super::*;
    use crate::exec::{resolve_on, ExecutionConfig};
    use crate::pipeline::{BuildSide, PipelineMetrics, PipelineOptions};
    use crate::prepared::CallTable;
    use crate::{evaluate_physical_with, RuntimeError};

    /// `person0..` on `r0..` behind `w0..`, `rows[i]` rows each, over
    /// links that answer without waiting, in chunks of 100 rows.
    struct Federation {
        catalog: Catalog,
        registry: WrapperRegistry,
        links: Vec<Arc<SimulatedLink>>,
    }

    fn federation(rows: &[usize]) -> Federation {
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
        let registry = WrapperRegistry::new();
        let mut links = Vec::new();
        for (i, &rows) in rows.iter().enumerate() {
            let (extent, repo, wrapper) = (format!("person{i}"), format!("r{i}"), format!("w{i}"));
            declare(&mut catalog, &extent, &repo, &wrapper);
            let store = Arc::new(RelationalStore::new());
            store.put_table(generator::person_table(&extent, rows, i as u64, 7));
            let profile = NetworkProfile {
                jitter: 0.0,
                chunk_rows: 100,
                ..NetworkProfile::fast()
            };
            let link = Arc::new(SimulatedLink::new(&repo, profile, i as u64));
            registry.register(Arc::new(RelationalWrapper::new(
                &wrapper,
                store,
                Arc::clone(&link),
            )));
            links.push(link);
        }
        Federation {
            catalog,
            registry,
            links,
        }
    }

    fn declare(catalog: &mut Catalog, extent: &str, repo: &str, wrapper: &str) {
        catalog
            .add_wrapper(WrapperDef::new(wrapper, "relational"))
            .unwrap();
        catalog.add_repository(Repository::new(repo)).unwrap();
        catalog
            .add_extent(MetaExtent::new(extent, "Person", wrapper, repo))
            .unwrap();
    }

    fn scan(i: usize) -> LogicalExpr {
        LogicalExpr::get(format!("person{i}")).submit(
            format!("r{i}"),
            format!("w{i}"),
            format!("person{i}"),
        )
    }

    fn union_of(branches: Vec<LogicalExpr>) -> PhysicalExpr {
        lower(&LogicalExpr::Union(branches)).unwrap()
    }

    /// A wrapper whose call reports that it started, then holds its
    /// worker — without declaring it — until the test lets it go.
    struct Gate {
        entered: mpsc::Sender<()>,
        release: Mutex<mpsc::Receiver<()>>,
    }

    fn gate(federation: &mut Federation) -> (LogicalExpr, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (entered, has_entered) = mpsc::channel();
        let (let_go, release) = mpsc::channel();
        declare(&mut federation.catalog, "gated", "r_gate", "w_gate");
        federation.registry.register(Arc::new(Gate {
            entered,
            release: Mutex::new(release),
        }));
        let call = LogicalExpr::get("gated").submit("r_gate", "w_gate", "gated");
        (call, has_entered, let_go)
    }

    impl Wrapper for Gate {
        fn name(&self) -> &str {
            "w_gate"
        }
        fn kind(&self) -> &str {
            "relational"
        }
        fn capabilities(&self) -> CapabilitySet {
            CapabilitySet::full()
        }
        fn submit_into(
            &self,
            _expr: &LogicalExpr,
            _sink: &mut dyn AnswerSink,
        ) -> Result<AnswerSummary, WrapperError> {
            self.entered.send(()).unwrap();
            lock(&self.release).recv().unwrap();
            Ok(AnswerSummary {
                rows_scanned: 0,
                latency: Duration::ZERO,
            })
        }
    }

    fn wait_until_drained(executor: &CallExecutor) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while executor.in_flight() > 0 {
            assert!(Instant::now() < give_up, "calls left in flight");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The hazard a bounded executor introduces: with one runner, a
    /// probe-side call that waits mid-flight while holding the runner
    /// keeps the build side — queued behind it — from starting until it
    /// is done.  Rewritten when spools stopped backpressuring their
    /// producers (a memory budget no longer bounds a spool): the probe
    /// calls now wait by sleeping out a real link delay
    /// (`AnswerSink::pause`, a `blocking` scope), where they used to
    /// block on a budgeted spool's disk cap.
    #[test]
    fn a_queued_build_side_starts_while_every_started_call_sleeps_mid_flight() {
        let federation = federation(&[3_000, 3_000, 3_000, 3_000, 50]);
        for link in &federation.links[..4] {
            // 1 ms of real link time per 100-row chunk, 30 chunks a call.
            link.set_profile(NetworkProfile {
                base_latency_us: 1_000,
                per_row_us: 10,
                jitter: 0.0,
                real_sleep: true,
                chunk_rows: 100,
                ..NetworkProfile::fast()
            });
        }
        let probe = LogicalExpr::Union((0..4).map(|i| scan(i).bind("x")).collect());
        let plan = lower(
            &LogicalExpr::Join {
                left: Box::new(probe),
                right: Box::new(scan(4).bind("y")),
                predicate: Some(ScalarExpr::binary(
                    ScalarOp::Eq,
                    ScalarExpr::var_field("x", "id"),
                    ScalarExpr::var_field("y", "id"),
                )),
            }
            .map_project(ScalarExpr::var_field("x", "name")),
        )
        .unwrap();
        let options = PipelineOptions {
            // Build on the right without asking either side for its
            // length first: the join waits on the queued build side.
            build_side: BuildSide::Right,
            ..PipelineOptions::default()
        };
        let deadline = Duration::from_secs(10);
        let config = ExecutionConfig {
            deadline: Some(deadline),
            pipeline: options,
            ..ExecutionConfig::default()
        };
        let executor = CallExecutor::new(1);
        let started = Instant::now();
        let mut resolved = resolve_on(
            &executor,
            &Arc::new(CallTable::new(&plan, &federation.catalog).unwrap()),
            &federation.registry,
            &config,
        )
        .unwrap();
        let rows = evaluate_physical_with(&plan, &resolved, &PipelineMetrics::new(), options)
            .expect("the join finished before the deadline");
        resolved.finalize_streamed().unwrap();
        let elapsed = started.elapsed();
        assert!(resolved.all_available());
        assert_eq!(rows.len(), 4 * 50, "ids 0..50 of each probe source match");
        assert!(
            elapsed < deadline / 2,
            "the join took {elapsed:?} of its {deadline:?} deadline"
        );
        assert!(
            executor.threads_spawned() > 1,
            "no probe-side call gave up the runner: the test set nothing up"
        );
        wait_until_drained(&executor);
    }

    struct PanicsOnSubmit;

    impl Wrapper for PanicsOnSubmit {
        fn name(&self) -> &str {
            "w_panic"
        }
        fn kind(&self) -> &str {
            "relational"
        }
        fn capabilities(&self) -> CapabilitySet {
            CapabilitySet::full()
        }
        fn submit_into(
            &self,
            _expr: &LogicalExpr,
            _sink: &mut dyn AnswerSink,
        ) -> Result<AnswerSummary, WrapperError> {
            panic!("wrapper exploded mid-call");
        }
    }

    /// A panic must cost the query, not a worker of the shared executor.
    #[test]
    fn a_panicking_wrapper_fails_its_query_and_the_next_query_still_runs() {
        let mut federation = federation(&[10]);
        declare(&mut federation.catalog, "doomed", "r_panic", "w_panic");
        federation.registry.register(Arc::new(PanicsOnSubmit));
        let doomed = union_of(vec![
            scan(0),
            LogicalExpr::get("doomed").submit("r_panic", "w_panic", "doomed"),
        ]);
        let executor = CallExecutor::new(1);
        let config = ExecutionConfig::default();
        let resolve = |plan: &PhysicalExpr| {
            resolve_on(
                &executor,
                &Arc::new(CallTable::new(plan, &federation.catalog).unwrap()),
                &federation.registry,
                &config,
            )
            .and_then(|mut resolved| resolved.finalize_streamed().map(|()| resolved))
        };
        let err = resolve(&doomed).unwrap_err();
        assert!(matches!(err, RuntimeError::WorkerPanic(_)), "{err:?}");
        let resolved = resolve(&union_of(vec![scan(0)])).unwrap();
        assert!(resolved.all_available());
        assert_eq!(resolved.rows_transferred(), 10);
        assert_eq!(executor.threads_spawned(), 1, "the one worker survived");
        wait_until_drained(&executor);
    }

    #[test]
    fn a_call_cancelled_while_queued_never_reaches_its_wrapper() {
        let mut federation = federation(&[10]);
        let (gated, has_entered, let_go) = gate(&mut federation);
        let plan = union_of(vec![gated, scan(0)]);
        let executor = CallExecutor::new(1);
        let mut resolved = resolve_on(
            &executor,
            &Arc::new(CallTable::new(&plan, &federation.catalog).unwrap()),
            &federation.registry,
            &ExecutionConfig::default(),
        )
        .unwrap();
        // The gated call holds the only runner; the scan is queued.
        has_entered.recv().unwrap();
        resolved.cancel_pending();
        let_go.send(()).unwrap();
        wait_until_drained(&executor);
        assert_eq!(federation.links[0].call_count(), 0);
        resolved.finalize_streamed().unwrap();
        assert_eq!(resolved.unavailable_repositories(), ["r0"]);
    }

    /// What `SourcePool::acquire`'s wait loop used to do on a thread per
    /// call now happens in the queue.
    #[test]
    fn a_call_at_its_repository_cap_waits_in_the_queue_and_others_pass_it() {
        let mut federation = federation(&[10, 10]);
        let (gated, has_entered, let_go) = gate(&mut federation);
        // Two calls to `r_gate` (cap 1): the gate, then — a different
        // expression, so not the same call — a filter that the gate
        // wrapper would also hold.  `r0` and `r1` are not capped.
        let second = LogicalExpr::get("gated")
            .filter(ScalarExpr::binary(
                ScalarOp::Gt,
                ScalarExpr::attr("salary"),
                ScalarExpr::constant(1i64),
            ))
            .submit("r_gate", "w_gate", "gated");
        let plan = union_of(vec![gated, second, scan(0), scan(1)]);
        let pool = Arc::new(SourcePool::new(0).with_cap("r_gate", 1));
        let config = ExecutionConfig {
            deadline: None,
            source_pool: Some(Arc::clone(&pool)),
            ..ExecutionConfig::default()
        };
        let executor = CallExecutor::new(2);
        let mut resolved = resolve_on(
            &executor,
            &Arc::new(CallTable::new(&plan, &federation.catalog).unwrap()),
            &federation.registry,
            &config,
        )
        .unwrap();
        has_entered.recv().unwrap();
        // The first `r_gate` call holds the slot and one runner; the
        // other runner passes over the second `r_gate` call and answers
        // `r0` and `r1`.
        let give_up = Instant::now() + Duration::from_secs(10);
        while federation.links[1].call_count() == 0 {
            assert!(Instant::now() < give_up, "the capped call held up r1");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            has_entered.try_recv().is_err(),
            "two calls inside a cap of 1"
        );
        assert_eq!(pool.queue_stats().0, 1, "one call found the cap exhausted");
        let_go.send(()).unwrap();
        has_entered.recv().unwrap();
        let_go.send(()).unwrap();
        resolved.finalize_streamed().unwrap();
        assert!(resolved.all_available());
        assert!(resolved.source_queue_wait() > Duration::ZERO);
        assert_eq!(pool.queue_stats().1, resolved.source_queue_wait());
        wait_until_drained(&executor);
    }
}

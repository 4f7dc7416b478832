//! The benchmark driver: builds a workload's federation (and server),
//! runs its closed-loop clients through the public entry points
//! (`Mediator::query`, `Session::query`), and — in a traced pass — replays
//! the same operation stream stage by stage through each crate's public
//! functions.
//!
//! One *pass* is: set-up (build the federation, warm the plan cache and
//! the calibration store) and then a time-boxed walk of the workload's
//! operation stream.  Latency is timed around the public call only; the
//! answer is checked after the clock has stopped.
//!
//! Every layer runs at its defaults.  The `threads = nproc` and budgeted
//! combine variants exist only as per-layer metrics of the traced pass.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use disco_catalog::{
    Attribute, Catalog, InterfaceDef, MetaExtent, Repository, TypeRef, WrapperDef,
};
use disco_core::Mediator;
use disco_runtime::{Answer, SourcePool};
use disco_server::{DiscoServer, ServerConfig, Session};
use disco_source::{Availability, RelationalStore, SimulatedLink};
use disco_value::Bag;
use disco_wrapper::{RelationalWrapper, Wrapper, WrapperRegistry};

use crate::gen::{Action, Op, Shape, Workload, WorkloadKind, FAULTY_SOURCE};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::{reference_answer, Oracle};
use crate::staged::{value_layer, Stager};
use crate::stats::{
    machine_probe_ms, median, ms, peak_rss_mib, percentile, process_cpu_ms, thread_cpu_ms,
    trimmed_mean,
};
use crate::trace::Recorder;

/// When a phase stops: after `seconds` of wall clock or `ops` operations
/// per client, whichever comes first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limit {
    /// Wall-clock box.
    pub seconds: f64,
    /// Operation-count box (per client).
    pub ops: u64,
}

impl Limit {
    /// A wall-clock box.
    #[must_use]
    pub fn seconds(seconds: f64) -> Self {
        Limit {
            seconds,
            ops: u64::MAX,
        }
    }

    /// An operation-count box (tests: exact counters need exact counts).
    #[must_use]
    pub fn ops(ops: u64) -> Self {
        Limit {
            seconds: f64::INFINITY,
            ops,
        }
    }

    fn scaled(self, share: f64) -> Self {
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let ops = if self.ops == u64::MAX {
            u64::MAX
        } else {
            ((self.ops as f64 * share).ceil() as u64).max(1)
        };
        Limit {
            seconds: self.seconds * share,
            ops,
        }
    }
}

/// Named samples and sums collected while a phase runs.
#[derive(Debug, Default, Clone)]
pub struct Log {
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
    /// The first few failure messages, for the human reading the output.
    pub failures: Vec<String>,
}

impl Log {
    pub(crate) fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub(crate) fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    /// The samples recorded under `name`.
    #[must_use]
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The sum recorded under `name`.
    #[must_use]
    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    fn median(&self, name: &str) -> f64 {
        median(self.samples(name))
    }

    fn absorb(&mut self, other: Log) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
        for (name, value) in other.sums {
            self.add(name, value);
        }
        let room = 8usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }

    fn fail(&mut self, what: String) {
        self.add("failed", 1.0);
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// The source `plan_wide`'s DDL operations add and remove.
struct ExtraSource {
    wrapper: Arc<dyn Wrapper>,
    extent: MetaExtent,
}

/// A built federation: the mediator, its sources, and (for the served
/// workloads) the server in front of it.
pub struct Bed {
    /// The mediator every source is registered with.
    pub mediator: Mediator,
    /// One store per source, in registration order (the smoke test
    /// corrupts one to prove wrong answers are counted).
    pub stores: Vec<Arc<RelationalStore>>,
    /// One simulated link per source.
    pub links: Vec<Arc<SimulatedLink>>,
    /// The serving layer, for the workloads that use one.
    pub server: Option<DiscoServer>,
    pub(crate) pool: Option<Arc<SourcePool>>,
    extra: Option<ExtraSource>,
    /// Fault operations hold this exclusively: the faulty link is shared
    /// by every session, so a fault window open beside another session's
    /// query would make that query partial too, and no operation's
    /// expected outcome would be known in advance.
    fault_gate: RwLock<()>,
}

fn source_names(i: usize) -> (String, String, String) {
    (
        format!("person{i}"),
        format!("w_person{i}"),
        format!("r{i}"),
    )
}

impl Bed {
    /// Builds the federation for `workload` from pre-generated tables.
    ///
    /// # Errors
    ///
    /// Catalog errors, as text (none occur for generated workloads).
    pub fn build(workload: &Workload, tables: Vec<disco_source::Table>) -> Result<Bed, String> {
        let err = |e: disco_core::MediatorError| e.to_string();
        let mut mediator = Mediator::new("perfbench");
        mediator
            .define_interface(
                InterfaceDef::new("Person")
                    .with_extent_name("person")
                    .with_attribute(Attribute::new("id", TypeRef::Int))
                    .with_attribute(Attribute::new("name", TypeRef::String))
                    .with_attribute(Attribute::new("salary", TypeRef::Int)),
            )
            .map_err(err)?;
        if let Some(deadline) = workload.deadline() {
            mediator.set_deadline(Some(deadline));
        }
        let mut stores = Vec::new();
        let mut links = Vec::new();
        let mut extra = None;
        for (i, table) in tables.into_iter().enumerate() {
            let (extent, wrapper_name, repository) = source_names(i);
            let store = Arc::new(RelationalStore::new());
            store.put_table(table);
            let link = Arc::new(SimulatedLink::new(
                &repository,
                workload.profile(i),
                workload.seed ^ i as u64,
            ));
            let wrapper: Arc<dyn Wrapper> = Arc::new(
                RelationalWrapper::new(&wrapper_name, Arc::clone(&store), Arc::clone(&link))
                    .with_capabilities(workload.capabilities()),
            );
            mediator
                .register_repository(Repository::new(&repository))
                .map_err(err)?;
            let meta = MetaExtent::new(&extent, "Person", &wrapper_name, &repository);
            if i < workload.sources {
                mediator.register_wrapper(wrapper).map_err(err)?;
                mediator.register_extent(meta).map_err(err)?;
            } else {
                // The extra source: declared, but neither bound nor
                // given an extent until a DDL operation adds it.
                mediator
                    .catalog_mut()
                    .add_wrapper(WrapperDef::new(&wrapper_name, "relational"))
                    .map_err(|e| e.to_string())?;
                extra = Some(ExtraSource {
                    wrapper,
                    extent: meta,
                });
            }
            stores.push(store);
            links.push(link);
        }
        let (server, pool) = match workload.kind {
            WorkloadKind::PlanWide => (
                Some(DiscoServer::from_mediator(
                    &mediator,
                    ServerConfig::default(),
                )),
                None,
            ),
            WorkloadKind::ServeDegraded => {
                let pool = Arc::new(SourcePool::new(2));
                let config = ServerConfig::default()
                    .with_max_concurrent(4)
                    .with_source_pool(Arc::clone(&pool));
                (
                    Some(DiscoServer::from_mediator(&mediator, config)),
                    Some(pool),
                )
            }
            _ => (None, None),
        };
        Ok(Bed {
            mediator,
            stores,
            links,
            server,
            pool,
            extra,
            fault_gate: RwLock::new(()),
        })
    }

    /// The catalog queries currently plan against.
    #[must_use]
    pub fn catalog(&self) -> Arc<Catalog> {
        match &self.server {
            Some(server) => server.catalog().snapshot(),
            None => Arc::new(self.mediator.catalog().clone()),
        }
    }

    /// A closed-loop client of the workload's public entry point.
    fn client(&self) -> Client<'_> {
        match &self.server {
            Some(server) => Client::Served(server.session()),
            None => Client::Direct(&self.mediator),
        }
    }

    pub(crate) fn registry(&self) -> &WrapperRegistry {
        match &self.server {
            Some(server) => server.registry(),
            None => self.mediator.registry(),
        }
    }

    fn plan_cache_stats(&self) -> (u64, u64) {
        match &self.server {
            Some(server) => server.stats().plan_cache,
            None => self.mediator.plan_cache_stats(),
        }
    }

    /// The oracle's expected answer.  Computed with the fault gate held
    /// shared, so no other session's fault window is open meanwhile.
    fn reference(&self, text: &str) -> Result<Bag, String> {
        let _gate = self.fault_gate.read().expect("fault gate poisoned");
        reference_answer(text, &self.catalog(), self.registry())
    }
}

/// One closed-loop client: the application side of the public API.
enum Client<'a> {
    Direct(&'a Mediator),
    Served(Session),
}

impl Client<'_> {
    fn query(&self, text: &str) -> Result<Answer, String> {
        match self {
            Client::Direct(mediator) => mediator.query(text),
            Client::Served(session) => session.query(text),
        }
        .map_err(|e| e.to_string())
    }

    fn span_name(&self) -> &'static str {
        match self {
            Client::Direct(_) => "core.query",
            Client::Served(_) => "server.query",
        }
    }
}

fn timed<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    op_id: u64,
    call: impl FnOnce() -> T,
) -> (T, f64) {
    match rec {
        Some(rec) => rec.time(name, None, op_id, call),
        None => {
            let started = Instant::now();
            let out = call();
            (out, ms(started.elapsed()))
        }
    }
}

/// Runs a piece of the harness's own work on a client thread — an answer
/// check, a machine probe — and books it as think time: its wall time
/// under `check_ms` (excluded from `queries_per_s`), its CPU time under
/// `check_cpu_ms` (subtracted from the process's for `cpu_ms_per_query`).
///
/// The CPU time is the calling thread's, to the nanosecond.  A check that
/// computes a reference answer also burns CPU on the wrapper threads that
/// resolution spawns; `work` says so through its flag, and with a single
/// client — nothing else runs meanwhile — the check is then charged the
/// whole process's CPU time (10 ms ticks, a few dozen times a pass).
/// Wall time stands in where the kernel keeps no scheduler statistics; it
/// overstates CPU time whenever the host takes the core away.
fn think<T>(log: &mut Log, single_client: bool, work: impl FnOnce(&mut bool) -> T) -> T {
    let (thread, process) = (thread_cpu_ms(), process_cpu_ms());
    let started = Instant::now();
    let mut spawned_helpers = false;
    let out = work(&mut spawned_helpers);
    let wall = ms(started.elapsed());
    let delta = |before: Option<f64>, now: Option<f64>| Some(now? - before?);
    let cpu = if spawned_helpers && single_client {
        delta(process, process_cpu_ms())
    } else {
        delta(thread, thread_cpu_ms())
    };
    log.add("check_ms", wall);
    log.add("check_cpu_ms", cpu.unwrap_or(wall));
    out
}

fn shape_metric(shape: Shape) -> Option<&'static str> {
    Some(match shape {
        Shape::FilterProject => "core.shape_ms.filter_project",
        Shape::StructProject => "core.shape_ms.struct_project",
        Shape::Sum => "core.shape_ms.sum",
        Shape::JoinProject => "core.shape_ms.join_project",
        Shape::DistinctExpr => "core.shape_ms.distinct_expr",
        Shape::JoinDistinct => "core.shape_ms.join_distinct",
        Shape::Hot => "core.shape_ms.hot",
        Shape::Fresh => "core.shape_ms.fresh",
        Shape::Complete => "core.shape_ms.complete",
        Shape::Partial | Shape::Refused | Shape::Ddl => return None,
    })
}

/// Boundary counts of one answered query (`ExecutionStats`).
#[allow(clippy::cast_precision_loss)]
fn note_stats(log: &mut Log, rec: &mut Option<&mut Recorder>, op_id: u64, answer: &Answer) {
    let stats = answer.stats();
    let scanned: usize = stats.source_calls.iter().map(|c| c.rows_scanned).sum();
    let returned: usize = stats.source_calls.iter().map(|c| c.rows_returned).sum();
    let slowest = stats
        .source_calls
        .iter()
        .map(|c| ms(c.latency))
        .fold(0.0, f64::max);
    let counts = [
        ("wrapper.calls", stats.exec_calls as f64),
        ("wrapper.rows_scanned", scanned as f64),
        ("wrapper.rows_returned", returned as f64),
        ("runtime.rows_transferred", stats.rows_transferred as f64),
        ("runtime.rows_materialized", stats.rows_materialized as f64),
        ("runtime.source_wait_ms", ms(stats.source_wait)),
        ("source.slowest_call_ms", slowest),
    ];
    for (name, value) in counts {
        log.push(name, value);
        if let Some(rec) = rec {
            rec.count(name, op_id, value);
        }
    }
    log.add("rows_kernel", stats.rows_kernel as f64);
    log.add("rows_fallback", stats.rows_fallback as f64);
    if let Some(first) = answer.time_to_first_row() {
        log.push("first_row_ms", ms(first));
    }
}

/// A pass in progress: the built federation plus where each client is in
/// its operation stream.
pub struct Pass {
    /// The generated workload.
    pub workload: Workload,
    /// The federation under test.
    pub bed: Bed,
    /// Set-up time: federation and server build plus warm-up.
    pub setup_s: f64,
    oracles: Vec<Oracle>,
    cursors: Vec<u64>,
}

impl Pass {
    /// Generates the tables (not timed: they are the benchmark's input),
    /// then builds the federation and runs the warm-up (timed: this is
    /// what `setup_s` reports).
    ///
    /// # Errors
    ///
    /// Build or warm-up errors, as text.
    pub fn set_up(workload: Workload) -> Result<Pass, String> {
        let extra = usize::from(workload.kind == WorkloadKind::PlanWide);
        let tables: Vec<_> = (0..workload.sources + extra)
            .map(|i| workload.table(i))
            .collect();
        let started = Instant::now();
        let bed = Bed::build(&workload, tables)?;
        {
            let client = bed.client();
            // A partial answer here (a stalled machine can make a sleeping
            // source miss the deadline) still plans and caches the text;
            // answers are checked once the clock runs.
            for text in workload.warmup() {
                client.query(text)?;
            }
        }
        let setup_s = started.elapsed().as_secs_f64();
        let clients = workload.clients;
        Ok(Pass {
            workload,
            bed,
            setup_s,
            oracles: (0..clients).map(|_| Oracle::new()).collect(),
            cursors: vec![0; clients],
        })
    }

    /// Runs every client's closed loop over the next stretch of its
    /// operation stream, through the public entry points.  With a
    /// recorder, every call is also recorded as a span.
    pub fn run(&mut self, limit: Limit, mut rec: Option<&mut Recorder>) -> Log {
        let bed = &self.bed;
        let workload = &self.workload;
        let cache_before = bed.plan_cache_stats();
        let server_before = bed.server.as_ref().map(DiscoServer::stats);
        let cpu_before = process_cpu_ms();
        let started = Instant::now();
        // Every client gets a recorder of its own on the shared clock; the
        // logs are merged once all are done.  The first client runs on
        // the calling thread — with one client no thread is spawned, and
        // the program allocates from the process's main arena, as it
        // would under a single-threaded application — the rest on
        // threads of their own.
        let origin = rec.as_ref().map(|r| r.origin());
        let run_client = |number: usize, oracle: &mut Oracle, cursor: &mut u64| {
            let client = bed.client();
            let mut own = origin.map(Recorder::with_origin);
            let log = ClientLoop {
                bed,
                workload,
                number,
                client: &client,
                oracle,
                stager: own.is_some().then(|| Stager::new(bed, workload)),
                rec: own.as_mut(),
                log: Log::default(),
            }
            .run(cursor, limit, started);
            (log, own)
        };
        let results: Vec<(Log, Option<Recorder>)> = std::thread::scope(|scope| {
            let mut clients = self
                .oracles
                .iter_mut()
                .zip(self.cursors.iter_mut())
                .enumerate();
            let first = clients.next();
            let handles: Vec<_> = clients
                .map(|(number, (oracle, cursor))| {
                    scope.spawn(move || run_client(number, oracle, cursor))
                })
                .collect();
            first
                .map(|(number, (oracle, cursor))| run_client(number, oracle, cursor))
                .into_iter()
                .chain(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("client thread panicked")),
                )
                .collect()
        });
        let mut log = Log::default();
        for (client_log, own) in results {
            log.absorb(client_log);
            if let (Some(rec), Some(own)) = (rec.as_deref_mut(), own) {
                rec.absorb(own);
            }
        }
        if let (Some(before), Some(after)) = (cpu_before, process_cpu_ms()) {
            log.add("cpu_ms", after - before);
        }
        let cache_after = bed.plan_cache_stats();
        #[allow(clippy::cast_precision_loss)]
        {
            log.add("cache_hits", (cache_after.0 - cache_before.0) as f64);
            log.add("cache_misses", (cache_after.1 - cache_before.1) as f64);
        }
        if let (Some(before), Some(server)) = (server_before, &bed.server) {
            let after = server.stats();
            #[allow(clippy::cast_precision_loss)]
            {
                log.add(
                    "server.admission_queued",
                    (after.admission_queued.0 - before.admission_queued.0) as f64,
                );
                log.add(
                    "server.admission_wait_ms",
                    ms(after.admission_queued.1 - before.admission_queued.1),
                );
                if let (Some(b), Some(a)) = (before.source_pool_queued, after.source_pool_queued) {
                    log.add("server.pool_queued", (a.0 - b.0) as f64);
                    log.add("server.pool_wait_ms", ms(a.1 - b.1));
                }
            }
        }
        log
    }

    /// Replays client 0's next query operations stage by stage through
    /// each crate's public functions, one span per call.
    ///
    /// # Errors
    ///
    /// Any stage's error, as text: a replay that cannot run is a broken
    /// benchmark, not a measurement.
    pub fn run_staged(&mut self, limit: Limit, rec: &mut Recorder) -> Result<Log, String> {
        let mut stager = Stager::new(&self.bed, &self.workload);
        let mut log = Log::default();
        value_layer(&self.workload, rec, &mut log)?;
        let started = Instant::now();
        let mut done = 0u64;
        while done < limit.ops && started.elapsed().as_secs_f64() < limit.seconds {
            let op = self.workload.op(0, self.cursors[0]);
            self.cursors[0] += 1;
            // A fault operation's text is an ordinary query: it is
            // replayed with every source up.  DDL has no stages.
            if !matches!(op.action, Action::AddSource | Action::RemoveSource) {
                stager.replay(&op, rec, &mut log)?;
                done += 1;
            }
        }
        Ok(log)
    }
}

/// One client's closed loop: the application side of the public API.
struct ClientLoop<'a> {
    bed: &'a Bed,
    workload: &'a Workload,
    number: usize,
    client: &'a Client<'a>,
    oracle: &'a mut Oracle,
    rec: Option<&'a mut Recorder>,
    /// Traced passes only: replays each whole call's children.
    stager: Option<Stager<'a>>,
    log: Log,
}

impl ClientLoop<'_> {
    /// Submits the text and expects a complete answer.
    fn query_op(&mut self, op: &Op<'_>, op_id: u64, key: &str) -> Result<(), String> {
        let gate = self.bed.fault_gate.read().expect("fault gate poisoned");
        let (result, latency) = timed(&mut self.rec, self.client.span_name(), op_id, || {
            self.client.query(op.text)
        });
        drop(gate);
        self.log.add("busy_ms", latency);
        let answer = result?;
        if !answer.is_complete() {
            // Every source was up, yet one missed the deadline (a stalled
            // machine does that).  The program's contract still holds if
            // resubmitting completes the answer; the event is counted.
            self.log.add("unexpected_partials", 1.0);
            return self.recover(op, op_id, key, &answer, None);
        }
        self.log.push("query_ms", latency);
        if let Some(name) = shape_metric(op.shape) {
            self.log.push(name, latency);
        }
        note_stats(&mut self.log, &mut self.rec, op_id, &answer);
        let (bed, oracle) = (self.bed, &mut *self.oracle);
        let checked = think(&mut self.log, self.workload.clients == 1, |helpers| {
            oracle.check_complete(key, &answer, || {
                *helpers = true;
                bed.reference(op.text)
            })
        });
        if let (Some(stager), Some(rec)) = (&mut self.stager, self.rec.as_deref_mut()) {
            let _gate = self.bed.fault_gate.read().expect("fault gate poisoned");
            let children_ms = stager.children(op, op_id, rec, &mut self.log)?;
            self.log.push("self_ms", latency - children_ms);
        }
        checked
    }

    /// Adds or removes the extra source while queries run.
    fn ddl_op(&mut self, op: &Op<'_>, op_id: u64) -> Result<(), String> {
        let server = self.bed.server.as_ref().expect("DDL needs a server");
        let extra = self.bed.extra.as_ref().expect("DDL needs the extra source");
        let (result, latency) = timed(&mut self.rec, "server.ddl", op_id, || {
            if op.action == Action::AddSource {
                server.registry().register(Arc::clone(&extra.wrapper));
                server.update_catalog(|c| c.add_extent(extra.extent.clone()))
            } else {
                server
                    .update_catalog(|c| c.remove_extent(extra.extent.extent_name()))
                    .map(|_| ())
            }
        });
        self.log.add("busy_ms", latency);
        self.log.push("ddl_ms", latency);
        result.map_err(|e| e.to_string())
    }

    /// Fails the faulty link, queries, lets the link recover, resubmits.
    fn fault_op(&mut self, op: &Op<'_>, op_id: u64, key: &str) -> Result<(), String> {
        let link = &self.bed.links[FAULTY_SOURCE];
        let gate = self.bed.fault_gate.write().expect("fault gate poisoned");
        link.set_availability(if op.action == Action::Timeout {
            self.workload.timeout_fault()
        } else {
            Availability::Unavailable
        });
        let (partial, latency) = timed(&mut self.rec, self.client.span_name(), op_id, || {
            self.client.query(op.text)
        });
        link.set_availability(Availability::Available);
        drop(gate);
        self.log.add("busy_ms", latency);
        let partial = partial?;
        if op.action == Action::Timeout {
            let deadline_ms = self.workload.deadline().map_or(0.0, ms);
            self.log.push("partial_ms", latency);
            self.log.push("overshoot_ms", latency - deadline_ms);
        } else {
            self.log.push("refused_ms", latency);
        }
        let (_, _, repository) = source_names(FAULTY_SOURCE);
        self.recover(op, op_id, key, &partial, Some(&repository))
    }

    /// The §4 recovery path: the session resubmits the partial answer —
    /// residual query and data — as a new query, and the result must be
    /// the full answer.
    fn recover(
        &mut self,
        op: &Op<'_>,
        op_id: u64,
        key: &str,
        partial: &Answer,
        failed_repository: Option<&str>,
    ) -> Result<(), String> {
        // A stall that made one deadline slip can make the next slip too,
        // so a still-partial resubmission is resubmitted in turn, a few
        // times, with a growing pause (think time, not load).
        const ATTEMPTS: u32 = 6;
        let mut current = partial.clone();
        let mut resubmitted = Err("no resubmission was made".to_owned());
        for attempt in 0..ATTEMPTS {
            std::thread::sleep(std::time::Duration::from_millis(u64::from(attempt) * 25));
            let gate = self.bed.fault_gate.read().expect("fault gate poisoned");
            let (text, print_ms) = timed(&mut self.rec, "oql.print", op_id, || {
                current.as_query_text()
            });
            let (answer, requery_ms) = timed(&mut self.rec, "server.resubmit", op_id, || {
                self.client.query(&text)
            });
            drop(gate);
            self.log.add("busy_ms", print_ms + requery_ms);
            match answer {
                Ok(answer) if !answer.is_complete() && attempt + 1 < ATTEMPTS => {
                    current = answer;
                }
                answer => {
                    if attempt == 0 {
                        self.log.push("resubmit_ms", print_ms + requery_ms);
                        self.log.push("print_us", print_ms * 1000.0);
                    }
                    resubmitted = answer;
                    break;
                }
            }
        }
        let (bed, oracle) = (self.bed, &mut *self.oracle);
        think(&mut self.log, self.workload.clients == 1, |helpers| {
            let resubmitted = resubmitted?;
            oracle.check_partial(key, partial, &resubmitted, failed_repository, || {
                *helpers = true;
                bed.reference(op.text)
            })
        })
    }

    /// Walks the client's operation stream until the limit.
    fn run(mut self, cursor: &mut u64, limit: Limit, phase_started: Instant) -> Log {
        let mut done = 0u64;
        while done < limit.ops && phase_started.elapsed().as_secs_f64() < limit.seconds {
            let op = self.workload.op(self.number, *cursor);
            let op_id = ((self.number as u64) << 40) | *cursor;
            *cursor += 1;
            done += 1;
            self.log.add("attempted", 1.0);
            if done % PROBE_EVERY == 1 {
                let probe = think(&mut self.log, false, |_| machine_probe_ms());
                self.log.push("machine_ms", probe);
            }
            // `plan_wide` answers change when the extra source is present.
            let key = format!("{}|{}", op.text, self.workload.extra_present(op.index));
            let outcome = match op.action {
                Action::Query => self.query_op(&op, op_id, &key),
                Action::AddSource | Action::RemoveSource => self.ddl_op(&op, op_id),
                Action::Timeout | Action::Refusal => self.fault_op(&op, op_id, &key),
            };
            if let Err(why) = outcome {
                self.log.fail(format!(
                    "client {} op {} ({}): {why}",
                    self.number,
                    op.index,
                    op.shape.name()
                ));
            }
        }
        self.log
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct PassResult {
    /// Metric name → value.  An untraced pass holds the end-to-end
    /// metrics (plus the one-workload latencies, which cost nothing to
    /// collect); a traced pass holds every per-layer metric.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, answered wrongly, or whose partial
    /// answer did not recombine to the full one.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// The span log of a traced pass.
    pub trace: Option<Recorder>,
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn whole(count: f64) -> u64 {
    count.round().max(0.0) as u64
}

fn ratio(part: f64, total: f64) -> f64 {
    if total > 0.0 {
        part / total
    } else {
        0.0
    }
}

/// Operations per second at the workload's client count, over the time
/// the clients spent inside the program (their own answer checking is
/// think time, not load): each of the symmetric closed-loop clients
/// completes `attempted / busy` operations per second of its own.
#[allow(clippy::cast_precision_loss)]
fn throughput(log: &Log, clients: usize) -> f64 {
    clients as f64 * ratio(log.sum("attempted"), log.sum("busy_ms") / 1000.0)
}

/// The client thread probes the machine's speed before every this-many-th
/// operation: often enough that a pass's mean probe follows a machine
/// whose speed moves within the pass, at 1 ms of think time per 2
/// operations of 8–20 ms.
const PROBE_EVERY: u64 = 2;

/// What the machine probe takes on the build box when nothing disturbs it.
/// CPU-bound times are reported *at this machine speed*: multiplied by
/// `MACHINE_REFERENCE_MS / (the pass's mean probe time)`.
pub const MACHINE_REFERENCE_MS: f64 = 1.0;

/// The end-to-end metrics of one untraced phase, and the per-layer ones
/// that share their scaling (`first_row_ms_p50`, `bench.*`).
///
/// The build box is shared, and its speed moves by tens of percent for
/// minutes at a time (the same binary and seed: `mediator_combine` p50
/// 8.2 ms in one quarter of an hour, 11.9 ms in the next, CPU time per
/// query moving with it).  No bound a regression gate could use survives
/// that, so every pass measures the machine beside the program — a fixed
/// probe, run by the client thread every 2nd operation as think time —
/// and CPU-bound times are reported at the reference machine speed:
/// divided by the trimmed mean of the pass's probes (`stats::trimmed_mean`
/// says why a mean).  (Probes of its own around the set-up steadied
/// `setup_s` less than the timed phase's do: in a process that young a
/// probe times first-touch page faults.)
/// `cpu_ms_per_query` is CPU time on every workload; latency, throughput
/// and set-up are CPU-bound where the links do not sleep, and are left
/// as measured on `serve_degraded`, where they are waiting.  The raw
/// median and the probe are printed as `bench.raw_query_ms_p50` and
/// `bench.machine_ms`.
fn end_to_end(log: &Log, setup_s: f64, workload: &Workload, out: &mut BTreeMap<String, f64>) {
    let probe = trimmed_mean(log.samples("machine_ms"));
    let cpu_scale = if probe > 0.0 {
        MACHINE_REFERENCE_MS / probe
    } else {
        1.0
    };
    let wall_scale = if workload.sleeps() { 1.0 } else { cpu_scale };
    let attempted = log.sum("attempted");
    out.insert("setup_s".into(), setup_s * wall_scale);
    out.insert("query_ms_p50".into(), log.median("query_ms") * wall_scale);
    out.insert(
        "query_ms_p95".into(),
        percentile(log.samples("query_ms"), 0.95) * wall_scale,
    );
    out.insert(
        "queries_per_s".into(),
        throughput(log, workload.clients) / wall_scale,
    );
    out.insert(
        "first_row_ms_p50".into(),
        log.median("first_row_ms") * wall_scale,
    );
    // The harness's own answer checks and probes are charged their own
    // CPU time (`think`); the rest of the process's CPU is the program's.
    out.insert(
        "cpu_ms_per_query".into(),
        ratio(
            (log.sum("cpu_ms") - log.sum("check_cpu_ms")).max(0.0),
            attempted,
        ) * cpu_scale,
    );
    out.insert("peak_rss_mib".into(), peak_rss_mib().unwrap_or(0.0));
    out.insert("bench.raw_query_ms_p50".into(), log.median("query_ms"));
    out.insert("bench.machine_ms".into(), probe);
}

/// The metrics of the whole-call phase that only exist on one workload,
/// and the boundary counts.
fn whole_call_layer(log: &Log, served: bool, out: &mut BTreeMap<String, f64>) {
    let attempted = log.sum("attempted");
    out.insert("partial_ms_p50".into(), log.median("partial_ms"));
    out.insert("refused_ms_p50".into(), log.median("refused_ms"));
    out.insert("resubmit_ms_p50".into(), log.median("resubmit_ms"));
    out.insert("ddl_ms_p50".into(), log.median("ddl_ms"));
    out.insert("failed_share".into(), ratio(log.sum("failed"), attempted));
    out.insert("oql.print_us".into(), log.median("print_us"));
    out.insert(
        "optimizer.plan_cache_hit_ratio".into(),
        ratio(
            log.sum("cache_hits"),
            log.sum("cache_hits") + log.sum("cache_misses"),
        ),
    );
    for name in [
        "wrapper.calls",
        "wrapper.rows_scanned",
        "wrapper.rows_returned",
        "source.slowest_call_ms",
        "runtime.rows_transferred",
        "runtime.rows_materialized",
        "runtime.source_wait_ms",
    ] {
        out.insert(name.into(), log.median(name));
    }
    out.insert(
        "wrapper.selectivity".into(),
        ratio(
            log.samples("wrapper.rows_returned").iter().sum(),
            log.samples("wrapper.rows_scanned").iter().sum(),
        ),
    );
    out.insert(
        "runtime.kernel_coverage".into(),
        ratio(
            log.sum("rows_kernel"),
            log.sum("rows_kernel") + log.sum("rows_fallback"),
        ),
    );
    out.insert(
        "runtime.deadline_overshoot_ms".into(),
        log.median("overshoot_ms"),
    );
    let whole_call = log.median("query_ms");
    out.insert(
        "core.query_ms".into(),
        if served { 0.0 } else { whole_call },
    );
    out.insert(
        "server.query_ms".into(),
        if served { whole_call } else { 0.0 },
    );
    for def in PER_LAYER {
        if def.name.starts_with("core.shape_ms.") {
            out.insert(def.name.into(), log.median(def.name));
        }
    }
    for name in [
        "server.admission_queued",
        "server.admission_wait_ms",
        "server.pool_queued",
        "server.pool_wait_ms",
    ] {
        out.insert(name.into(), log.sum(name));
    }
    out.insert(
        "bench.check_ms".into(),
        ratio(log.sum("check_ms"), attempted),
    );
    out.insert("bench.timed_ops".into(), attempted);
    out.insert(
        "bench.unexpected_partials".into(),
        log.sum("unexpected_partials"),
    );
}

/// The per-layer metrics of the staged replay, and the two that pair a
/// whole call with its children (`traced`).
fn staged_layer(staged: &Log, traced: &Log, served: bool, out: &mut BTreeMap<String, f64>) {
    for name in [
        "oql.parse_us",
        "oql.resolve_us",
        "optimizer.compile_us",
        "optimizer.optimize_us",
        "optimizer.alternatives",
        "optimizer.plan_nodes",
        "algebra.lower_us",
        "catalog.snapshot_us",
        "catalog.update_ms",
        "wrapper.submit_ms",
        "runtime.resolve_ms",
        "runtime.combine_ms",
        "runtime.combine_ms_tn",
        "runtime.combine_ms_budgeted",
        "runtime.bytes_spilled",
        "runtime.peak_over_budget",
        "value.chunk_decode_ns_per_row",
        "value.spill_encode_mb_s",
        "value.spill_decode_mb_s",
    ] {
        out.insert(name.into(), staged.median(name));
    }
    let total = staged.sum("staged_total_ms");
    out.insert(
        "optimizer.staged_share".into(),
        ratio(staged.sum("staged_optimizer_ms"), total),
    );
    out.insert(
        "runtime.resolve_staged_share".into(),
        ratio(staged.sum("staged_resolve_ms"), total),
    );
    out.insert(
        "runtime.combine_staged_share".into(),
        ratio(staged.sum("staged_combine_ms"), total),
    );
    // Streamed execution against the two blocking stages it overlaps:
    // below 1, streaming pays.
    let execute_ms = traced.median("runtime.execute_ms");
    out.insert("runtime.execute_ms".into(), execute_ms);
    out.insert(
        "runtime.overlap_ratio".into(),
        ratio(
            execute_ms,
            staged.median("runtime.resolve_ms") + staged.median("runtime.combine_ms"),
        ),
    );
    // Self time of the entry point: the whole call minus the children a
    // plan-cache hit runs (cache lookup, streamed execution), paired per
    // operation.
    let own = traced.median("self_ms");
    out.insert("core.self_ms".into(), if served { 0.0 } else { own });
    out.insert("server.self_ms".into(), if served { own } else { 0.0 });
}

/// A traced pass alternates untraced and traced stretches of whole calls
/// this many times, so that drift and the operation mix (a DDL operation
/// here, a cache miss there) fall on both sides of the overhead ratio.
const TRACE_ROUNDS: u32 = 4;

/// Runs one pass of `workload`: set-up, then the time-boxed operation
/// stream.  A traced pass spends a quarter of its box on untraced whole
/// calls, a quarter on traced whole calls (each followed by a replay of
/// its children; the throughput ratio of the two quarters is the tracing
/// overhead) and half on the staged replay.
///
/// # Errors
///
/// Set-up and staged-replay errors; wrong answers are *counted*, not
/// returned.
pub fn run_pass(workload: Workload, limit: Limit, trace: bool) -> Result<PassResult, String> {
    let served = workload.kind.served();
    let clients = workload.clients;
    let mut pass = Pass::set_up(workload)?;
    let mut result = PassResult::default();
    let log = if trace {
        let stretch = limit.scaled(0.25 / f64::from(TRACE_ROUNDS));
        let mut rec = Recorder::new();
        let (mut untraced, mut traced) = (Log::default(), Log::default());
        for _ in 0..TRACE_ROUNDS {
            untraced.absorb(pass.run(stretch, None));
            traced.absorb(pass.run(stretch, Some(&mut rec)));
        }
        let staged = pass.run_staged(limit.scaled(0.5), &mut rec)?;
        whole_call_layer(&traced, served, &mut result.metrics);
        staged_layer(&staged, &traced, served, &mut result.metrics);
        result.metrics.insert(
            "bench.trace_overhead_ratio".into(),
            ratio(throughput(&traced, clients), throughput(&untraced, clients)),
        );
        result.trace = Some(rec);
        traced.absorb(untraced);
        traced
    } else {
        let log = pass.run(limit, None);
        whole_call_layer(&log, served, &mut result.metrics);
        log
    };
    end_to_end(&log, pass.setup_s, &pass.workload, &mut result.metrics);
    result.metrics.insert(
        "failed_share".into(),
        ratio(log.sum("failed"), log.sum("attempted")),
    );
    if trace {
        // A traced pass reports the per-layer table and nothing else.
        result
            .metrics
            .retain(|name, _| PER_LAYER.iter().any(|def| def.name == name));
        debug_assert_eq!(result.metrics.len(), PER_LAYER.len());
    } else {
        debug_assert!(END_TO_END
            .iter()
            .all(|def| result.metrics.contains_key(def.name)));
    }
    result.attempted = whole(log.sum("attempted"));
    result.failed = whole(log.sum("failed"));
    result.failures = log.failures;
    Ok(result)
}

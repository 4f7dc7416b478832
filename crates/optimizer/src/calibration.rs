//! The self-calibrating cost store (§3.3).
//!
//! "DISCO solves this problem by recording previous `exec` calls to a data
//! source and the actual cost of the call.  When the exec call finishes,
//! the arguments of the call, the time taken and the amount of data
//! generated is recorded.  A new call is compared to the previous calls."
//!
//! Three lookup outcomes, exactly as in the paper:
//!
//! * **exact match** — a previous call with identical arguments; a
//!   smoothing function combines the recorded observations,
//! * **close match** — a previous call with the same structure but
//!   different constants (found through the plan fingerprint, a
//!   predicate-based matching in the spirit of the paper's reference to
//!   predicate-based caching); the smoothed observations are used,
//! * **default** — no information: "a default time cost of 0 and a data
//!   cost of 1 is used", which biases the optimizer towards pushing the
//!   maximum amount of computation to the data source.

use std::collections::BTreeMap;
use std::sync::RwLockReadGuard;

use disco_algebra::LogicalExpr;
use parking_lot::RwLock;

/// How many exactly-matching observations are kept per call shape
/// ("only a fixed number of exactly matching calls are recorded").
const MAX_OBSERVATIONS: usize = 8;

/// One recorded `exec` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Wall-clock (or simulated) time of the call, in milliseconds.
    pub time_ms: f64,
    /// Number of rows the call returned.
    pub rows: f64,
}

/// The source of a cost estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// An exactly matching previous call was found.
    Exact,
    /// A structurally matching call (constants differ) was found.
    Close,
    /// No matching call; the paper's defaults were used.
    Default,
}

/// A cost estimate for an `exec` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated time in milliseconds.
    pub time_ms: f64,
    /// Estimated rows returned.
    pub rows: f64,
    /// How the estimate was obtained.
    pub source: MatchKind,
}

impl CostEstimate {
    /// The paper's default estimate: time 0, data 1.
    #[must_use]
    pub fn default_estimate() -> Self {
        CostEstimate {
            time_ms: 0.0,
            rows: 1.0,
            source: MatchKind::Default,
        }
    }
}

/// The two keys an `exec` call is recorded under — its rendered text
/// (exact match) and its fingerprint (close match) — rendered once: a
/// prepared plan keeps one per call, so a call that runs again does not
/// render its shipped expression again.  Both live in one buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CalibrationKey {
    /// The text, then the fingerprint.
    keys: String,
    /// Where the fingerprint starts.
    split: usize,
}

impl CalibrationKey {
    /// Renders the keys of a call shipping `expr`.
    #[must_use]
    pub fn of(expr: &LogicalExpr) -> Self {
        let fingerprint = expr.fingerprint();
        let mut keys = expr.to_string();
        let split = keys.len();
        keys.reserve_exact(fingerprint.len());
        keys.push_str(&fingerprint);
        CalibrationKey { keys, split }
    }

    /// The exact-match key: the rendered text.
    fn text(&self) -> &str {
        &self.keys[..self.split]
    }

    /// The close-match key: the fingerprint.
    fn fingerprint(&self) -> &str {
        &self.keys[self.split..]
    }

    /// Renders the keys of a call shipping `expr` with each collection it
    /// gets named by a mark — a character none of its own rendering holds
    /// — and returns the mark with them: the keys of a branch template's
    /// call, from which each member's are spliced ([`CalibrationKey::named`]).
    #[must_use]
    pub fn marked(expr: &LogicalExpr) -> (char, Self) {
        let rendered = format!("{expr}{}", expr.fingerprint());
        let mark = ('\u{e000}'..)
            .find(|c| !rendered.contains(*c))
            .expect("a free character");
        let mut marked = expr.clone();
        marked.rewrite_in_place(&|e| match e {
            LogicalExpr::Get { collection } => {
                *collection = mark.to_string();
                true
            }
            _ => false,
        });
        (mark, CalibrationKey::of(&marked))
    }

    /// These keys, rendered with each collection named `mark`, with each
    /// collection named `name`: the keys [`CalibrationKey::of`] renders
    /// for the call with that name, in a buffer of their length.
    #[must_use]
    pub fn named(&self, mark: char, name: &str) -> Self {
        let marks = self.keys.matches(mark).count();
        let length = self.keys.len() + marks * name.len() - marks * mark.len_utf8();
        let mut out = CalibrationKey {
            keys: String::with_capacity(length),
            split: 0,
        };
        self.name_into(mark, name, &mut out);
        out
    }

    /// The heap bytes the keys keep.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.keys.capacity()
    }

    /// [`CalibrationKey::named`] into `out`'s buffer.
    pub(crate) fn name_into(&self, mark: char, name: &str, out: &mut CalibrationKey) {
        out.keys.clear();
        splice(self.text(), mark, name, &mut out.keys);
        out.split = out.keys.len();
        splice(self.fingerprint(), mark, name, &mut out.keys);
    }
}

/// Appends `key` to `out` with `name` for each `mark`.
fn splice(key: &str, mark: char, name: &str, out: &mut String) {
    for (i, piece) in key.split(mark).enumerate() {
        if i > 0 {
            out.push_str(name);
        }
        out.push_str(piece);
    }
}

/// Per-repository health tracking: the best (lowest) per-row latency
/// ever observed is the repository's baseline; each call's latency in
/// excess of that baseline feeds an exponential moving average.  A
/// chronically degraded source accumulates a large smoothed excess; a
/// recovered source decays it by half per healthy observation.
#[derive(Debug, Clone, Copy)]
struct Degradation {
    /// Fastest observed per-row latency (ms/row) — the healthy baseline.
    best_per_row_ms: f64,
    /// Smoothed per-call latency excess over the baseline, in ms.
    excess_ms: f64,
}

/// What the store knows about one repository.
#[derive(Debug, Default)]
struct RepositoryRecord {
    /// Exact observations keyed by plan text.
    exact: BTreeMap<String, Vec<Observation>>,
    /// Close-match observations keyed by plan fingerprint.
    close: BTreeMap<String, Vec<Observation>>,
    degraded: Option<Degradation>,
}

impl RepositoryRecord {
    fn penalty_ms(&self) -> f64 {
        self.degraded.map_or(0.0, |d| d.excess_ms)
    }
}

/// Thread-safe store of recorded `exec` calls with smoothing.
///
/// Records are grouped by repository, so a lookup borrows the repository
/// name and the rendered expression instead of building an owned key.
#[derive(Debug, Default)]
pub struct CalibrationStore {
    repositories: RwLock<BTreeMap<String, RepositoryRecord>>,
}

/// The record of `repository`, created on first use.
fn record_of<'a>(
    repositories: &'a mut BTreeMap<String, RepositoryRecord>,
    repository: &str,
) -> &'a mut RepositoryRecord {
    if !repositories.contains_key(repository) {
        repositories.insert(repository.to_owned(), RepositoryRecord::default());
    }
    repositories
        .get_mut(repository)
        .expect("present or just inserted")
}

impl CalibrationStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        CalibrationStore::default()
    }

    /// Records a finished `exec` call: the repository, the shipped
    /// expression, the time taken and the rows returned.
    pub fn record(&self, repository: &str, expr: &LogicalExpr, time_ms: f64, rows: usize) {
        self.record_under(repository, &CalibrationKey::of(expr), time_ms, rows);
    }

    /// [`CalibrationStore::record`] for a call whose keys are already
    /// rendered: a call that runs again records without rendering its
    /// expression again, and a key the store holds is not copied.
    pub fn record_under(&self, repository: &str, key: &CalibrationKey, time_ms: f64, rows: usize) {
        #[allow(clippy::cast_precision_loss)]
        let obs = Observation {
            time_ms,
            rows: rows as f64,
        };
        let mut repositories = self.repositories.write();
        let record = record_of(&mut repositories, repository);
        push_capped(&mut record.exact, key.text(), obs);
        push_capped(&mut record.close, key.fingerprint(), obs);
    }

    /// Feeds one observed source call into the repository's degradation
    /// tracker: `latency_ms` of wall/simulated latency (including any
    /// time the mediator spent blocked waiting on the source's chunks)
    /// for `rows` rows returned.
    ///
    /// The lowest per-row latency ever seen is the repository's healthy
    /// baseline; the excess of each call over that baseline is smoothed
    /// (EWMA) into a penalty that [`CalibrationStore::estimate`] adds to
    /// every estimate against the repository — so repeated queries
    /// re-plan around a chronically degraded source, and the penalty
    /// halves with each healthy call once the source recovers.
    pub fn note_source_wait(&self, repository: &str, latency_ms: f64, rows: usize) {
        self.note_source_waits([(repository, latency_ms, rows)]);
    }

    /// [`CalibrationStore::note_source_wait`] for every answered call of
    /// one execution — `(repository, latency_ms, rows)` each, in order —
    /// under one write lock.
    pub fn note_source_waits<'a>(&self, calls: impl IntoIterator<Item = (&'a str, f64, usize)>) {
        let mut repositories = self.repositories.write();
        for (repository, latency_ms, rows) in calls {
            if !latency_ms.is_finite() || latency_ms < 0.0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let per_row = latency_ms / rows.max(1) as f64;
            let entry = record_of(&mut repositories, repository)
                .degraded
                .get_or_insert(Degradation {
                    best_per_row_ms: per_row,
                    excess_ms: 0.0,
                });
            if per_row < entry.best_per_row_ms {
                entry.best_per_row_ms = per_row;
            }
            #[allow(clippy::cast_precision_loss)]
            let excess = (per_row - entry.best_per_row_ms) * rows.max(1) as f64;
            let alpha = 0.5;
            entry.excess_ms = alpha * excess + (1.0 - alpha) * entry.excess_ms;
        }
    }

    /// The smoothed latency excess (ms) of `repository` over its healthy
    /// baseline — `0.0` for an untracked or healthy repository.
    #[must_use]
    pub fn degradation_ms(&self, repository: &str) -> f64 {
        self.repositories
            .read()
            .get(repository)
            .map_or(0.0, RepositoryRecord::penalty_ms)
    }

    /// Estimates the cost of an `exec` call against `repository` shipping
    /// `expr`, using exact → close → default lookup.  The repository's
    /// smoothed degradation penalty ([`CalibrationStore::
    /// note_source_wait`]) is added to the time estimate of every match
    /// kind, so a chronically slow source costs more than its recorded
    /// call shapes alone suggest.
    #[must_use]
    pub fn estimate(&self, repository: &str, expr: &LogicalExpr) -> CostEstimate {
        self.read().estimate(repository, &CalibrationKey::of(expr))
    }

    /// Read-locks the store for a batch of estimates.
    pub(crate) fn read(&self) -> Estimator<'_> {
        Estimator(self.repositories.read())
    }

    /// Number of distinct exact call shapes recorded.
    #[must_use]
    pub fn exact_shapes(&self) -> usize {
        self.repositories
            .read()
            .values()
            .map(|r| r.exact.len())
            .sum()
    }

    /// Number of distinct close-match (fingerprint) shapes recorded.
    #[must_use]
    pub fn close_shapes(&self) -> usize {
        self.repositories
            .read()
            .values()
            .map(|r| r.close.len())
            .sum()
    }

    /// Total number of stored observations (exact side).
    #[must_use]
    pub fn observation_count(&self) -> usize {
        self.repositories
            .read()
            .values()
            .flat_map(|r| r.exact.values())
            .map(Vec::len)
            .sum()
    }

    /// Clears every recorded observation and degradation state.
    pub fn clear(&self) {
        self.repositories.write().clear();
    }
}

/// The store read-locked for a batch of estimates: a plan search takes
/// the lock once.
pub(crate) struct Estimator<'a>(RwLockReadGuard<'a, BTreeMap<String, RepositoryRecord>>);

impl Estimator<'_> {
    /// [`CalibrationStore::estimate`] of a call by its two keys.
    pub(crate) fn estimate(&self, repository: &str, key: &CalibrationKey) -> CostEstimate {
        let Some(record) = self.0.get(repository) else {
            return CostEstimate::default_estimate();
        };
        let penalty = record.penalty_ms();
        let matched = |observations: Option<&Vec<Observation>>, source| {
            let observations = observations.filter(|o| !o.is_empty())?;
            let (time_ms, rows) = smooth(observations);
            Some(CostEstimate {
                time_ms: time_ms + penalty,
                rows,
                source,
            })
        };
        matched(record.exact.get(key.text()), MatchKind::Exact)
            .or_else(|| matched(record.close.get(key.fingerprint()), MatchKind::Close))
            .unwrap_or_else(|| {
                let mut estimate = CostEstimate::default_estimate();
                estimate.time_ms += penalty;
                estimate
            })
    }
}

/// Appends an observation, keeping only the most recent
/// [`MAX_OBSERVATIONS`] entries per key; the key is copied only when it is
/// new.
fn push_capped(map: &mut BTreeMap<String, Vec<Observation>>, key: &str, obs: Observation) {
    let Some(entry) = map.get_mut(key) else {
        map.insert(key.to_owned(), vec![obs]);
        return;
    };
    entry.push(obs);
    if entry.len() > MAX_OBSERVATIONS {
        let excess = entry.len() - MAX_OBSERVATIONS;
        entry.drain(0..excess);
    }
}

/// The smoothing function: an exponentially weighted average favouring the
/// most recent observations.
fn smooth(observations: &[Observation]) -> (f64, f64) {
    let alpha = 0.5;
    let mut time = observations[0].time_ms;
    let mut rows = observations[0].rows;
    for obs in &observations[1..] {
        time = alpha * obs.time_ms + (1.0 - alpha) * time;
        rows = alpha * obs.rows + (1.0 - alpha) * rows;
    }
    (time, rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_algebra::{ScalarExpr, ScalarOp};

    fn filter_plan(threshold: i64) -> LogicalExpr {
        LogicalExpr::get("person0").filter(ScalarExpr::binary(
            ScalarOp::Gt,
            ScalarExpr::attr("salary"),
            ScalarExpr::constant(threshold),
        ))
    }

    #[test]
    fn defaults_match_the_paper() {
        let store = CalibrationStore::new();
        let est = store.estimate("r0", &filter_plan(10));
        assert_eq!(est.source, MatchKind::Default);
        assert_eq!(est.time_ms, 0.0);
        assert_eq!(est.rows, 1.0);
    }

    #[test]
    fn exact_match_after_recording_same_call() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 12.0, 40);
        let est = store.estimate("r0", &filter_plan(10));
        assert_eq!(est.source, MatchKind::Exact);
        assert!((est.time_ms - 12.0).abs() < 1e-9);
        assert!((est.rows - 40.0).abs() < 1e-9);
    }

    #[test]
    fn close_match_when_only_constants_differ() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 12.0, 40);
        let est = store.estimate("r0", &filter_plan(99));
        assert_eq!(est.source, MatchKind::Close);
        assert!(est.time_ms > 0.0);
    }

    #[test]
    fn different_repository_or_structure_falls_back_to_default() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 12.0, 40);
        assert_eq!(
            store.estimate("r1", &filter_plan(10)).source,
            MatchKind::Default
        );
        let other = LogicalExpr::get("person0").project(["name"]);
        assert_eq!(store.estimate("r0", &other).source, MatchKind::Default);
    }

    #[test]
    fn smoothing_tracks_recent_observations_and_caps_history() {
        let store = CalibrationStore::new();
        for i in 0..20 {
            store.record("r0", &filter_plan(10), f64::from(i), 10);
        }
        assert_eq!(store.observation_count(), MAX_OBSERVATIONS);
        let est = store.estimate("r0", &filter_plan(10));
        // The estimate is pulled towards the most recent (larger) values.
        assert!(est.time_ms > 15.0, "estimate {est:?}");
        assert_eq!(store.exact_shapes(), 1);
        assert_eq!(store.close_shapes(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 5.0, 3);
        store.note_source_wait("r0", 100.0, 1);
        store.note_source_wait("r0", 900.0, 1);
        store.clear();
        assert_eq!(store.exact_shapes(), 0);
        assert_eq!(store.degradation_ms("r0"), 0.0);
        assert_eq!(
            store.estimate("r0", &filter_plan(10)).source,
            MatchKind::Default
        );
    }

    #[test]
    fn degradation_penalty_raises_estimates_for_slow_sources() {
        let store = CalibrationStore::new();
        store.record("r0", &filter_plan(10), 12.0, 40);
        // Healthy baseline: 1 ms/row.  The source then degrades ~10x.
        store.note_source_wait("r0", 40.0, 40);
        assert_eq!(store.degradation_ms("r0"), 0.0, "baseline is healthy");
        store.note_source_wait("r0", 400.0, 40);
        let penalty = store.degradation_ms("r0");
        assert!((penalty - 180.0).abs() < 1e-9, "penalty {penalty}");
        let est = store.estimate("r0", &filter_plan(10));
        assert_eq!(est.source, MatchKind::Exact);
        assert!((est.time_ms - (12.0 + penalty)).abs() < 1e-9);
        // Other repositories are unaffected, including their defaults.
        assert_eq!(store.estimate("r1", &filter_plan(10)).time_ms, 0.0);
        // The default estimate for the degraded repository also carries
        // the penalty, steering the optimizer away even without history.
        let other = LogicalExpr::get("person9").project(["name"]);
        let default = store.estimate("r0", &other);
        assert_eq!(default.source, MatchKind::Default);
        assert!((default.time_ms - penalty).abs() < 1e-9);
    }

    /// Pins what must not change: a key rendered once records exactly
    /// what rendering the expression at every call did.
    #[test]
    fn recording_under_a_rendered_key_estimates_as_recording_the_expression() {
        let (rendered, expressions) = (CalibrationStore::new(), CalibrationStore::new());
        let key = CalibrationKey::of(&filter_plan(10));
        for (i, rows) in [40, 7, 19, 3, 11, 2, 30, 5, 8, 13].into_iter().enumerate() {
            let time_ms = 0.5 + f64::from(u32::try_from(i).unwrap());
            rendered.record_under("r0", &key, time_ms, rows);
            expressions.record("r0", &filter_plan(10), time_ms, rows);
        }
        let other = LogicalExpr::get("person0").project(["name"]);
        for (repository, expr, source) in [
            ("r0", filter_plan(10), MatchKind::Exact),
            ("r0", filter_plan(99), MatchKind::Close),
            ("r0", other, MatchKind::Default),
            ("r1", filter_plan(10), MatchKind::Default),
        ] {
            let estimate = rendered.estimate(repository, &expr);
            assert_eq!(estimate.source, source);
            assert_eq!(estimate, expressions.estimate(repository, &expr));
        }
        assert_eq!(
            rendered.observation_count(),
            expressions.observation_count()
        );
    }

    #[test]
    fn a_batch_of_source_waits_degrades_as_the_same_waits_one_by_one() {
        let waits = [
            ("r0", 10.0, 10),
            ("r1", 4.0, 2),
            ("r0", 100.0, 10),
            ("r1", f64::NAN, 2),
            ("r0", 12.0, 0),
            ("r1", 40.0, 2),
            ("r2", -1.0, 5),
            ("r0", 9.0, 10),
        ];
        let (batched, one_by_one) = (CalibrationStore::new(), CalibrationStore::new());
        batched.note_source_waits(waits);
        for (repository, latency_ms, rows) in waits {
            one_by_one.note_source_wait(repository, latency_ms, rows);
        }
        for repository in ["r0", "r1", "r2"] {
            assert_eq!(
                batched.degradation_ms(repository),
                one_by_one.degradation_ms(repository)
            );
        }
        assert!(batched.degradation_ms("r0") > 0.0);
        assert!(batched.degradation_ms("r1") > 0.0);
    }

    #[test]
    fn degradation_penalty_decays_once_the_source_recovers() {
        let store = CalibrationStore::new();
        store.note_source_wait("r0", 10.0, 10);
        store.note_source_wait("r0", 100.0, 10);
        let degraded = store.degradation_ms("r0");
        assert!(degraded > 0.0);
        for _ in 0..8 {
            store.note_source_wait("r0", 10.0, 10);
        }
        let recovered = store.degradation_ms("r0");
        assert!(
            recovered < degraded / 100.0,
            "penalty should decay: {degraded} -> {recovered}"
        );
    }
}

//! The workload generator: everything the program under test receives —
//! tables, link profiles, OQL text, the DDL and fault schedule — is a
//! function of the workload name and `--seed`, and of nothing else.
//!
//! An operation stream is *indexed*, not stateful: `Workload::op(client,
//! i)` is a pure function, so a pass that is cut off by the clock has
//! executed a prefix of the same sequence every other pass executes, and
//! per-operation counters repeat exactly for a seed.
//!
//! Seeds move the *content* of a workload (row values, constants, which
//! operation lands where), never its *weight*: constants come in pairs
//! placed symmetrically around a fixed centre, so the mean selectivity —
//! and with it the work per operation — is the same for every seed.

use std::time::Duration;

use disco_algebra::CapabilitySet;
use disco_source::{Availability, NetworkProfile, Table};
use disco_value::Value;

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless hash of `(seed, client, index, salt)`: what makes
/// `Workload::op` a pure function.
fn pick(seed: u64, client: usize, index: u64, salt: u64) -> u64 {
    mix(seed
        ^ mix(index.wrapping_add(0x51_7C_C1_B7_27_22_0A_95))
        ^ mix((client as u64).wrapping_mul(0xA076_1D64_78BD_642F) ^ salt))
}

/// A permutation of `0..4` dealt from the hash `h`.
fn deal4(mut h: u64) -> [usize; 4] {
    let mut order = [0, 1, 2, 3];
    for i in (1..4).rev() {
        order.swap(i, (h % (i as u64 + 1)) as usize);
        h /= i as u64 + 1;
    }
    order
}

/// The four workloads.  Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// Capable wrappers, work pushed to the sources.
    FedPushdown,
    /// Weak wrappers, the mediator joins and deduplicates.
    MediatorCombine,
    /// Many small sources, planning dominates, DDL beside queries.
    PlanWide,
    /// Sleeping links, a degraded source, timeouts and refusals.
    ServeDegraded,
}

impl WorkloadKind {
    /// Every workload, in the order a suite interleaves them.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::FedPushdown,
        WorkloadKind::MediatorCombine,
        WorkloadKind::PlanWide,
        WorkloadKind::ServeDegraded,
    ];

    /// The workload's fixed name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::FedPushdown => "fed_pushdown",
            WorkloadKind::MediatorCombine => "mediator_combine",
            WorkloadKind::PlanWide => "plan_wide",
            WorkloadKind::ServeDegraded => "serve_degraded",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether queries go through a `DiscoServer` session (`true`) or
    /// straight to `Mediator::query`.
    #[must_use]
    pub fn served(self) -> bool {
        matches!(self, WorkloadKind::PlanWide | WorkloadKind::ServeDegraded)
    }
}

/// What an operation's text looks like; per-shape medians keep a mixed
/// workload's median from hiding a one-shape change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Shape {
    /// `select x.name … where x.salary > K` (pushed to the sources).
    FilterProject,
    /// The same filter with a computed struct projection.
    StructProject,
    /// `sum(select x.salary …)`.
    Sum,
    /// Two-source equi-join with a computed struct, at the mediator.
    JoinProject,
    /// `select distinct` over an arithmetic struct across all sources.
    DistinctExpr,
    /// The join under a `distinct`.
    JoinDistinct,
    /// `plan_wide`: one of the fixed, cached texts.
    Hot,
    /// `plan_wide`: a text that misses the plan cache.
    Fresh,
    /// `serve_degraded`: every source answers.
    Complete,
    /// `serve_degraded`: a source times out at the deadline.
    Partial,
    /// `serve_degraded`: a source refuses the call.
    Refused,
    /// `plan_wide`: add or remove a source while queries run.
    Ddl,
}

impl Shape {
    /// The shape's name as it appears in `core.shape_ms.<name>`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Shape::FilterProject => "filter_project",
            Shape::StructProject => "struct_project",
            Shape::Sum => "sum",
            Shape::JoinProject => "join_project",
            Shape::DistinctExpr => "distinct_expr",
            Shape::JoinDistinct => "join_distinct",
            Shape::Hot => "hot",
            Shape::Fresh => "fresh",
            Shape::Complete => "complete",
            Shape::Partial => "partial",
            Shape::Refused => "refused",
            Shape::Ddl => "ddl",
        }
    }
}

/// What the client does for one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Submit the text, expect a complete answer.
    Query,
    /// Add the extra source (catalog update + wrapper registration).
    AddSource,
    /// Remove the extra source again.
    RemoveSource,
    /// Make the faulty source slow past the deadline, query, recover,
    /// resubmit the partial answer.
    Timeout,
    /// Make the faulty source refuse, query, recover, resubmit.
    Refusal,
}

/// One operation of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op<'a> {
    /// Position in the client's stream.
    pub index: u64,
    /// The text's shape (or `Ddl`).
    pub shape: Shape,
    /// What to do.
    pub action: Action,
    /// The OQL text (empty for DDL).
    pub text: &'a str,
}

/// Row counts and client counts of one workload.  `Full` is what the
/// benchmark measures; `Smoke` is a few rows for the in-process tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny sizes for tests.
    Smoke,
}

/// Salaries are uniform in `0..SALARY_SPACE`.
const SALARY_SPACE: i64 = 500;
/// Filter constants sit symmetrically around this centre, so every seed
/// selects half the rows on average.
const FILTER_CENTRE: i64 = SALARY_SPACE / 2;
/// `plan_wide`: one operation in this many is a plan-cache miss.
const FRESH_EVERY: u64 = 8;
/// `plan_wide`: one operation in this many adds or removes a source.
pub const DDL_EVERY: u64 = 50;
/// `plan_wide`: fresh texts cycle through a pool this large.  The pool is
/// what keeps `peak_rss_mib` a property of the program and not of how
/// many operations fit in the time box: the plan cache never evicts, so
/// an unbounded supply of new texts would make memory grow with speed.
/// Every pooled text is still a genuine miss when it comes round again,
/// because at least one DDL operation has bumped the catalog generation
/// since (pool 16 × every 8th op = 128 ops between reuses > 50).
const FRESH_POOL: usize = 16;
/// `serve_degraded`: percent of operations that hit a timeout, and that
/// hit a refusal.
const FAULT_PERCENT: u64 = 2;
/// `serve_degraded`: the source with the degraded link, and the source
/// the fault schedule fails.
pub const DEGRADED_SOURCE: usize = 2;
/// See [`DEGRADED_SOURCE`].
pub const FAULTY_SOURCE: usize = 3;

/// A generated workload: sizes, texts and the operation stream.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which workload.
    pub kind: WorkloadKind,
    /// The seed everything below was derived from.
    pub seed: u64,
    /// Number of `person` sources registered at set-up.
    pub sources: usize,
    /// Rows per source.
    pub rows: usize,
    /// Closed-loop clients (sessions).
    pub clients: usize,
    /// Every distinct text, with its shape.  `plan_wide` lists its hot
    /// texts first, then the fresh pool.
    texts: Vec<(Shape, String)>,
}

impl Workload {
    /// Generates the workload for `seed`.  `nproc` bounds the client
    /// count of the serving workload (never more generator threads than
    /// hardware threads, and never more than 2 so the regime — below the
    /// connection-pool cap — is the same on every machine).
    #[must_use]
    pub fn new(kind: WorkloadKind, seed: u64, scale: Scale, nproc: usize) -> Self {
        let full = scale == Scale::Full;
        let (sources, rows, clients) = match kind {
            WorkloadKind::FedPushdown => (8, if full { 8_000 } else { 40 }, 1),
            WorkloadKind::MediatorCombine => (4, if full { 4_000 } else { 40 }, 1),
            WorkloadKind::PlanWide => (if full { 256 } else { 12 }, 4, 1),
            WorkloadKind::ServeDegraded => (4, if full { 1_000 } else { 40 }, nproc.clamp(1, 2)),
        };
        let mut rng = SplitMix64::new(seed ^ 0xD15C_0000 ^ (kind as u64));
        let mut workload = Workload {
            kind,
            seed,
            sources,
            rows,
            clients,
            texts: Vec::new(),
        };
        workload.texts = workload.generate_texts(&mut rng);
        workload
    }

    /// Four filter constants, pairwise symmetric around the centre.
    fn filter_constants(rng: &mut SplitMix64) -> [i64; 4] {
        let near = 1 + rng.below(40) as i64;
        let far = 41 + rng.below(80) as i64;
        [
            FILTER_CENTRE - near,
            FILTER_CENTRE + near,
            FILTER_CENTRE - far,
            FILTER_CENTRE + far,
        ]
    }

    fn generate_texts(&self, rng: &mut SplitMix64) -> Vec<(Shape, String)> {
        let mut texts = Vec::new();
        match self.kind {
            WorkloadKind::FedPushdown => {
                for k in Self::filter_constants(rng) {
                    texts.push((
                        Shape::FilterProject,
                        format!("select x.name from x in person where x.salary > {k}"),
                    ));
                }
                for k in Self::filter_constants(rng) {
                    let bonus = 1 + rng.below(99);
                    texts.push((
                        Shape::StructProject,
                        format!(
                            "select struct(name: x.name, pay: x.salary + {bonus}) \
                             from x in person where x.salary > {k}"
                        ),
                    ));
                }
                for k in Self::filter_constants(rng) {
                    texts.push((
                        Shape::Sum,
                        format!("sum(select x.salary from x in person where x.salary > {k})"),
                    ));
                }
            }
            WorkloadKind::MediatorCombine => {
                // Groups of `rows / 16` ids: 16 groups × 500 salaries
                // bound the distinct struct's cardinality.
                let group = (self.rows / 16).max(1);
                let pairs = [(0, 1), (2, 3), (1, 2), (3, 0)];
                for (a, b) in pairs {
                    let bonus = 1 + rng.below(99);
                    texts.push((
                        Shape::JoinProject,
                        format!(
                            "select struct(name: x.name, total: x.salary + y.salary + {bonus}) \
                             from x in person{a}, y in person{b} where x.id = y.id"
                        ),
                    ));
                }
                for _ in 0..4 {
                    let bonus = 1 + rng.below(99);
                    texts.push((
                        Shape::DistinctExpr,
                        format!(
                            "select distinct struct(pay: x.salary + {bonus}, grp: x.id / {group}) \
                             from x in person"
                        ),
                    ));
                }
                for (a, b) in pairs {
                    let bonus = 1 + rng.below(99);
                    texts.push((
                        Shape::JoinDistinct,
                        format!(
                            "select distinct struct(pay: x.salary + {bonus}, peer: y.salary) \
                             from x in person{a}, y in person{b} where x.id = y.id"
                        ),
                    ));
                }
            }
            WorkloadKind::PlanWide => {
                // 8 hot and FRESH_POOL fresh texts, all of one shape and
                // all with different constants.
                let mut seen = std::collections::BTreeSet::new();
                while seen.len() < 8 + FRESH_POOL {
                    seen.insert(rng.below(SALARY_SPACE as u64) as i64);
                }
                // BTreeSet order would make the hot texts the smallest
                // constants; deal them out by the seed instead.
                let mut constants: Vec<i64> = seen.into_iter().collect();
                for i in (1..constants.len()).rev() {
                    constants.swap(i, rng.below(i as u64 + 1) as usize);
                }
                for (i, k) in constants.into_iter().enumerate() {
                    let shape = if i < 8 { Shape::Hot } else { Shape::Fresh };
                    texts.push((
                        shape,
                        format!("select x.name from x in person where x.salary > {k}"),
                    ));
                }
            }
            WorkloadKind::ServeDegraded => {
                for k in Self::filter_constants(rng) {
                    texts.push((
                        Shape::Complete,
                        format!("select x.name from x in person where x.salary > {k}"),
                    ));
                }
            }
        }
        texts
    }

    /// Every distinct text of the workload, with its shape.
    #[must_use]
    pub fn texts(&self) -> &[(Shape, String)] {
        &self.texts
    }

    /// The `source`-th table: `rows` persons with seeded names and
    /// salaries.  Ids are the row index, so any two sources join 1:1.
    #[must_use]
    pub fn table(&self, source: usize) -> Table {
        let name = format!("person{source}");
        let mut rng = SplitMix64::new(self.seed ^ mix(source as u64 + 1));
        let mut table = Table::new(&name, ["id", "name", "salary"]);
        for i in 0..self.rows {
            let tag = rng.below(1_000);
            table
                .insert_values([
                    ("id", Value::Int(i as i64)),
                    ("name", Value::from(format!("p{source}-{i}-{tag}"))),
                    ("salary", Value::Int(rng.below(SALARY_SPACE as u64) as i64)),
                ])
                .expect("columns match the table's");
        }
        table
    }

    /// Index of the source `plan_wide`'s DDL operations add and remove.
    #[must_use]
    pub fn extra_source(&self) -> usize {
        self.sources
    }

    /// The wrappers' capability set.
    ///
    /// `serve_degraded` uses get-only wrappers for steadiness, not for
    /// the mediator-side work: with capable wrappers the calibrated cost
    /// model pushes the filter for some texts and not for others (see the
    /// README's findings), a sleeping link's delay follows the rows it
    /// returns, and the latency distribution becomes two equal modes
    /// whose median flips between them from run to run.
    #[must_use]
    pub fn capabilities(&self) -> CapabilitySet {
        match self.kind {
            WorkloadKind::MediatorCombine | WorkloadKind::ServeDegraded => {
                CapabilitySet::get_only()
            }
            _ => CapabilitySet::full(),
        }
    }

    /// The link profile of `source`.  Only `serve_degraded` really
    /// sleeps; the other three simulate the network without waiting, so
    /// their time is CPU.
    #[must_use]
    pub fn profile(&self, source: usize) -> NetworkProfile {
        match self.kind {
            WorkloadKind::ServeDegraded => {
                let link = NetworkProfile {
                    base_latency_us: 2_000,
                    per_row_us: 2,
                    jitter: 0.0,
                    availability: Availability::Available,
                    real_sleep: true,
                    chunk_rows: (self.rows / 4).max(1),
                };
                if source == DEGRADED_SOURCE {
                    link.with_availability(Availability::Degraded { chunk_extra_ms: 3 })
                } else {
                    link
                }
            }
            _ => NetworkProfile::fast(),
        }
    }

    /// Whether the links really sleep, so that latency is waiting and
    /// not CPU time.
    #[must_use]
    pub fn sleeps(&self) -> bool {
        self.kind == WorkloadKind::ServeDegraded
    }

    /// The partial-evaluation deadline; `None` keeps the mediator's
    /// default.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        match self.kind {
            WorkloadKind::ServeDegraded => Some(Duration::from_millis(40)),
            _ => None,
        }
    }

    /// The availability a `Timeout` operation puts the faulty link in.
    #[must_use]
    pub fn timeout_fault(&self) -> Availability {
        Availability::Slow { extra_ms: 400 }
    }

    /// The texts the warm-up submits (each distinct text once, so the
    /// plan cache and the calibration store are filled), repeated up to
    /// at least 20 operations.
    #[must_use]
    pub fn warmup(&self) -> Vec<&str> {
        let distinct = self.texts.len();
        (0..distinct.max(20))
            .map(|i| self.texts[i % distinct].1.as_str())
            .collect()
    }

    /// The `index`-th operation of `client`'s stream.
    #[must_use]
    pub fn op(&self, client: usize, index: u64) -> Op<'_> {
        let roll = |salt: u64| pick(self.seed, client, index, salt);
        let query = |slot: usize| {
            let (shape, text) = &self.texts[slot];
            Op {
                index,
                shape: *shape,
                action: Action::Query,
                text,
            }
        };
        match self.kind {
            WorkloadKind::FedPushdown | WorkloadKind::MediatorCombine => {
                // Shapes rotate, and so do the four variants of a shape,
                // in an order the seed deals per round of 12: every text
                // is submitted equally often whatever the seed.  (Texts
                // cost 15–32 ms each; a seeded draw per operation gave
                // one text 15 and another 36 of a pass's operations, and
                // the medians moved with that mix.)
                let shape = index % 3;
                let order = deal4(pick(self.seed, client, index / 12 * 3 + shape, 1));
                query(shape as usize * 4 + order[(index / 3 % 4) as usize])
            }
            WorkloadKind::PlanWide => {
                if index % DDL_EVERY == DDL_EVERY - 1 {
                    let adds = (index / DDL_EVERY).is_multiple_of(2);
                    return Op {
                        index,
                        shape: Shape::Ddl,
                        action: if adds {
                            Action::AddSource
                        } else {
                            Action::RemoveSource
                        },
                        text: "",
                    };
                }
                if index % FRESH_EVERY == FRESH_EVERY - 1 {
                    query(8 + ((index / FRESH_EVERY) as usize % FRESH_POOL))
                } else {
                    query((roll(2) % 8) as usize)
                }
            }
            WorkloadKind::ServeDegraded => {
                let mut op = query((roll(3) % 4) as usize);
                let fault = roll(4) % 100;
                if fault < FAULT_PERCENT {
                    op.shape = Shape::Partial;
                    op.action = Action::Timeout;
                } else if fault < 2 * FAULT_PERCENT {
                    op.shape = Shape::Refused;
                    op.action = Action::Refusal;
                }
                op
            }
        }
    }

    /// Whether the extra source is registered when operation `index` of
    /// `plan_wide` runs (it is added by the 1st, 3rd, … DDL operation and
    /// removed by the 2nd, 4th, …).
    #[must_use]
    pub fn extra_present(&self, index: u64) -> bool {
        self.kind == WorkloadKind::PlanWide && (index / DDL_EVERY) % 2 == 1
    }

    /// One line for result files: the final sizes.
    #[must_use]
    pub fn sizes(&self) -> String {
        format!(
            "{} sources x {} rows, {} client(s), {} distinct texts",
            self.sources,
            self.rows,
            self.clients,
            self.texts.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_a_pure_function_of_the_seed() {
        for kind in WorkloadKind::ALL {
            let a = Workload::new(kind, 11, Scale::Smoke, 2);
            let b = Workload::new(kind, 11, Scale::Smoke, 2);
            let c = Workload::new(kind, 12, Scale::Smoke, 2);
            let stream = |w: &Workload| -> Vec<(Shape, Action, String)> {
                (0..400)
                    .map(|i| {
                        let op = w.op(0, i);
                        (op.shape, op.action, op.text.to_owned())
                    })
                    .collect()
            };
            assert_eq!(stream(&a), stream(&b), "{}", kind.name());
            assert_ne!(stream(&a), stream(&c), "{}", kind.name());
            assert_eq!(a.table(0).rows(), b.table(0).rows());
            assert_ne!(a.table(0).rows(), c.table(0).rows());
        }
    }

    #[test]
    fn every_text_of_the_rotating_workloads_is_submitted_equally_often() {
        for kind in [WorkloadKind::FedPushdown, WorkloadKind::MediatorCombine] {
            for seed in [1, 11, 99] {
                let w = Workload::new(kind, seed, Scale::Smoke, 2);
                let mut counts = std::collections::BTreeMap::new();
                for i in 0..240 {
                    *counts.entry(w.op(0, i).text).or_insert(0) += 1;
                }
                assert_eq!(counts.len(), 12);
                assert!(counts.values().all(|&n| n == 20), "{counts:?}");
            }
        }
    }

    #[test]
    fn plan_wide_mixes_hot_fresh_and_ddl() {
        let w = Workload::new(WorkloadKind::PlanWide, 11, Scale::Smoke, 2);
        let ops: Vec<Op<'_>> = (0..400).map(|i| w.op(0, i)).collect();
        let count = |shape| ops.iter().filter(|op| op.shape == shape).count();
        assert_eq!(count(Shape::Ddl), 8);
        // Every 8th operation is fresh, except where a DDL operation lands.
        assert!((45..=50).contains(&count(Shape::Fresh)));
        assert!(count(Shape::Hot) > 300);
        // Adds and removes alternate, starting with an add.
        let ddl: Vec<Action> = ops
            .iter()
            .filter(|op| op.shape == Shape::Ddl)
            .map(|op| op.action)
            .collect();
        assert_eq!(ddl[0], Action::AddSource);
        assert_eq!(ddl[1], Action::RemoveSource);
        assert!(!w.extra_present(49) && w.extra_present(50) && !w.extra_present(100));
    }

    #[test]
    fn serve_degraded_faults_stay_in_band() {
        for seed in [1, 11, 99] {
            let w = Workload::new(WorkloadKind::ServeDegraded, seed, Scale::Smoke, 2);
            let faults = (0..2000)
                .filter(|i| w.op(0, *i).action != Action::Query)
                .count();
            assert!((40..=120).contains(&faults), "seed {seed}: {faults}");
        }
    }
}

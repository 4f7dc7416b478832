//! The experiment implementations behind every table the harness prints
//! and every Criterion bench.  Each function's doc names the paper claim
//! it measures; recorded results are the `BENCH_eN.json` files and the
//! tables of ROADMAP's Performance section.

use std::time::Instant;

use disco_algebra::{lower, LogicalExpr, ScalarExpr, ScalarOp};
use disco_core::{Availability, CapabilitySet, NetworkProfile};
use disco_oql::parse_query;
use disco_runtime::Executor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{fmt_f64, fmt_pct, Report};
use crate::workloads::{
    capability_levels, person_federation, person_federation_with_profile, water_federation,
    Federation,
};

/// Parameters shared by the sweep experiments; `quick()` keeps Criterion
/// iterations cheap, `full()` is what the harness runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Number of trials per configuration.
    pub trials: usize,
    /// Rows per source.
    pub rows: usize,
    /// Largest federation size.
    pub max_sources: usize,
}

impl Scale {
    /// Small scale for Criterion benches.
    #[must_use]
    pub fn quick() -> Self {
        Scale {
            trials: 5,
            rows: 50,
            max_sources: 16,
        }
    }

    /// Full scale for the harness tables.
    #[must_use]
    pub fn full() -> Self {
        Scale {
            trials: 40,
            rows: 200,
            max_sources: 256,
        }
    }
}

const PERSON_QUERY: &str = "select x.name from x in person where x.salary > 250";

// ---------------------------------------------------------------------
// E1 — availability of answers vs. federation size
// ---------------------------------------------------------------------

/// E1: "the availability of answers in the system declines as the number
/// of databases rises" — and DISCO's partial answers keep the available
/// fraction instead of failing.
#[must_use]
pub fn e1_availability(scale: Scale) -> Report {
    let mut report = Report::new(
        "E1",
        "answer availability vs. number of data sources",
        &format!(
            "person sources of {} rows each, per-source availability p, {} trials; \
             baselines: all-or-nothing vs DISCO partial answers",
            scale.rows, scale.trials
        ),
        &[
            "sources",
            "p",
            "P(all up) measured",
            "P(all up) p^n",
            "all-or-nothing data",
            "disco partial data",
            "resubmittable",
        ],
    );
    let sizes: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|n| *n <= scale.max_sources)
        .collect();
    for &p in &[0.99f64, 0.9] {
        for &n in &sizes {
            let federation = person_federation(n, scale.rows, CapabilitySet::full());
            let full = federation.mediator.query(PERSON_QUERY).expect("query runs");
            let full_rows = full.data().len().max(1) as f64;
            let mut rng = StdRng::seed_from_u64((n as u64) << 8 | (p * 100.0) as u64);
            let mut all_up_trials = 0usize;
            let mut disco_fraction_sum = 0.0;
            let mut strict_fraction_sum = 0.0;
            for _ in 0..scale.trials {
                let mut any_down = false;
                for link in &federation.links {
                    let up: bool = rng.gen_bool(p);
                    link.set_availability(if up {
                        Availability::Available
                    } else {
                        any_down = true;
                        Availability::Unavailable
                    });
                }
                let answer = federation.mediator.query(PERSON_QUERY).expect("query runs");
                let fraction = answer.data().len() as f64 / full_rows;
                disco_fraction_sum += fraction;
                if any_down {
                    // All-or-nothing semantics: no answer at all.
                    strict_fraction_sum += 0.0;
                } else {
                    all_up_trials += 1;
                    strict_fraction_sum += 1.0;
                }
            }
            for link in &federation.links {
                link.set_availability(Availability::Available);
            }
            let trials = scale.trials as f64;
            report.push_row([
                n.to_string(),
                format!("{p:.2}"),
                fmt_pct(all_up_trials as f64 / trials),
                fmt_pct(p.powi(i32::try_from(n).unwrap_or(i32::MAX))),
                fmt_pct(strict_fraction_sum / trials),
                fmt_pct(disco_fraction_sum / trials),
                "yes".to_owned(),
            ]);
        }
    }
    report.push_note(
        "all-or-nothing availability decays geometrically with the number of sources; \
         DISCO's partial answers keep roughly the per-source availability fraction of the data \
         and remain resubmittable",
    );
    report
}

// ---------------------------------------------------------------------
// E2 — partial evaluation detail
// ---------------------------------------------------------------------

/// E2: the answer is a query — residual size, data fraction and
/// convergence of resubmission as k of N sources are unavailable.
#[must_use]
pub fn e2_partial_eval(scale: Scale) -> Report {
    let n = 8usize.min(scale.max_sources.max(2));
    let federation = person_federation(n, scale.rows, CapabilitySet::full());
    let full = federation.mediator.query(PERSON_QUERY).expect("query runs");
    let full_rows = full.data().len().max(1) as f64;
    let mut report = Report::new(
        "E2",
        "partial answers as k of N sources are unavailable",
        &format!(
            "{n} person sources of {} rows; k sources taken down, then recovered",
            scale.rows
        ),
        &[
            "unavailable k",
            "data fraction",
            "residual extents",
            "residual chars",
            "resubmissions to converge",
            "recovered == full",
        ],
    );
    for k in 0..=n {
        for (i, link) in federation.links.iter().enumerate() {
            link.set_availability(if i < k {
                Availability::Unavailable
            } else {
                Availability::Available
            });
        }
        let answer = federation.mediator.query(PERSON_QUERY).expect("query runs");
        let fraction = answer.data().len() as f64 / full_rows;
        let (residual_extents, residual_chars) = match answer.residual() {
            Some(residual) => (
                residual.collections().len(),
                answer.residual_oql().unwrap().len(),
            ),
            None => (0, 0),
        };
        // Recover everything and resubmit until complete.
        for link in &federation.links {
            link.set_availability(Availability::Available);
        }
        let mut steps = 0usize;
        let mut current = answer.clone();
        while !current.is_complete() && steps < 5 {
            current = federation
                .mediator
                .resubmit(&current)
                .expect("resubmission runs");
            steps += 1;
        }
        let converged = current.data() == full.data();
        report.push_row([
            k.to_string(),
            fmt_pct(fraction),
            residual_extents.to_string(),
            residual_chars.to_string(),
            steps.to_string(),
            converged.to_string(),
        ]);
    }
    report.push_note(
        "the data fraction falls linearly in k, the residual query grows linearly in k, and a \
         single resubmission after recovery always converges to the full answer",
    );
    report
}

// ---------------------------------------------------------------------
// E3 — capability-based pushdown
// ---------------------------------------------------------------------

/// E3: pushing selections/projections to capable wrappers cuts the data
/// transferred from sources; incapable wrappers ship whole collections.
#[must_use]
pub fn e3_pushdown(scale: Scale) -> Report {
    let thresholds = [0i64, 250, 450, 490];
    let mut report = Report::new(
        "E3",
        "work pushed to wrappers vs. wrapper capability",
        &format!(
            "2 person sources × {} rows; query selects names above a salary threshold; \
             wrapper capability swept from get-only to full",
            scale.rows
        ),
        &[
            "capability",
            "threshold",
            "selectivity",
            "rows transferred",
            "values transferred",
            "vs get-only",
            "answer rows",
        ],
    );
    let interface_width = 3usize; // id, name, salary
    for (label, caps) in capability_levels() {
        for &threshold in &thresholds {
            let federation = person_federation(2, scale.rows, caps);
            let query = format!("select x.name from x in person where x.salary > {threshold}");
            // Inspect the plan before executing so the (cold) cost model the
            // execution will use is also the one whose pushdown decisions we
            // report.
            let plan = federation.mediator.explain(&query).expect("plan").plan;
            let answer = federation.mediator.query(&query).expect("query runs");
            let transferred = answer.stats().rows_transferred;
            // Values (cells) transferred: rows × width of the tuples the
            // wrapper shipped.  The width depends on whether the projection
            // was pushed, which the chosen plan records.
            let mut values = 0usize;
            for exec in plan.physical.collect_execs() {
                if let disco_algebra::PhysicalExpr::Exec { logical, .. } = exec {
                    let width = pushed_width(&logical).unwrap_or(interface_width);
                    values += (transferred / 2) * width;
                }
            }
            let baseline_rows = 2 * scale.rows;
            let baseline_values = baseline_rows * interface_width;
            let selectivity = answer.data().len() as f64 / (2 * scale.rows) as f64;
            report.push_row([
                label.to_owned(),
                threshold.to_string(),
                fmt_pct(selectivity),
                transferred.to_string(),
                values.to_string(),
                fmt_pct(values as f64 / baseline_values as f64),
                answer.data().len().to_string(),
            ]);
        }
    }
    report.push_note(
        "get-only wrappers always transfer every row and every attribute; project-capable \
         wrappers cut the attributes shipped; select-capable wrappers cut the rows shipped, so \
         the benefit grows as the predicate becomes more selective",
    );
    report
}

/// The tuple width produced by a pushed expression (None = whole tuples).
fn pushed_width(expr: &LogicalExpr) -> Option<usize> {
    match expr {
        LogicalExpr::Project { columns, .. } => Some(columns.len()),
        LogicalExpr::Filter { input, .. } => pushed_width(input),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// E4 — self-calibrating cost model
// ---------------------------------------------------------------------

/// E4: recorded `exec` calls (exact and close matches, smoothed) give
/// useful cost estimates; unseen calls fall back to the paper's defaults.
#[must_use]
pub fn e4_calibration(scale: Scale) -> Report {
    let profile = NetworkProfile {
        base_latency_us: 5_000,
        per_row_us: 20,
        jitter: 0.1,
        availability: Availability::Available,
        real_sleep: false,
        chunk_rows: 0,
    };
    let federation = person_federation_with_profile(1, scale.rows, CapabilitySet::full(), profile);
    let mediator = &federation.mediator;
    let query = "select x.name from x in person0 where x.salary > 250";
    let mut report = Report::new(
        "E4",
        "cost-model calibration from recorded exec calls",
        &format!(
            "1 source × {} rows behind a 5 ms link; the same query repeated, then variants",
            scale.rows
        ),
        &[
            "observations",
            "estimate kind",
            "estimated ms",
            "measured ms",
            "abs error %",
        ],
    );
    // Identify the exec call the optimizer will cost.
    let plan = mediator.explain(query).expect("plan").plan;
    let execs = plan.physical.collect_execs();
    let (repository, shipped) = match execs.first() {
        Some(disco_algebra::PhysicalExpr::Exec {
            repository,
            logical,
            ..
        }) => (
            repository.clone(),
            disco_algebra::LogicalExpr::clone(logical),
        ),
        _ => unreachable!("plan has one exec"),
    };
    let mut measured_ms = 0.0;
    for round in 0..scale.trials.max(6) {
        let estimate = mediator.calibration().estimate(&repository, &shipped);
        let answer = mediator.query(query).expect("query runs");
        measured_ms = answer
            .stats()
            .source_calls
            .first()
            .map(|c| c.latency.as_secs_f64() * 1000.0)
            .unwrap_or(0.0);
        let error = if measured_ms > 0.0 {
            (estimate.time_ms - measured_ms).abs() / measured_ms
        } else {
            0.0
        };
        if round <= 4 || round == scale.trials.max(6) - 1 {
            report.push_row([
                round.to_string(),
                format!("{:?}", estimate.source),
                fmt_f64(estimate.time_ms),
                fmt_f64(measured_ms),
                fmt_pct(error),
            ]);
        }
    }
    // A close match: the same call shape with a different constant.  The
    // variant plan's pushed alternative ships an expression whose
    // fingerprint equals the recorded one, so the store answers from the
    // close-match table.
    let variant = "select x.name from x in person0 where x.salary > 499";
    let variant_plan = mediator.explain(variant).expect("plan");
    let variant_exec = variant_plan
        .trees
        .iter()
        .flat_map(disco_algebra::LogicalExpr::collect_submits)
        .find_map(|submit| match submit {
            disco_algebra::LogicalExpr::Submit { expr, .. }
                if expr.fingerprint() == shipped.fingerprint() && *expr != shipped =>
            {
                Some(*expr)
            }
            _ => None,
        });
    if let Some(expr) = variant_exec {
        let estimate = mediator.calibration().estimate(&repository, &expr);
        let error = relative_error(estimate.time_ms, measured_ms);
        report.push_row([
            "close-match".to_owned(),
            format!("{:?}", estimate.source),
            fmt_f64(estimate.time_ms),
            fmt_f64(measured_ms),
            fmt_pct(error),
        ]);
    }
    // A structurally new call: the paper's defaults (time 0, data 1).
    let unseen = disco_algebra::LogicalExpr::get("person0").project(["id"]);
    let estimate = mediator.calibration().estimate("r0", &unseen);
    report.push_row([
        "unseen".to_owned(),
        format!("{:?}", estimate.source),
        fmt_f64(estimate.time_ms),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    report.push_note(
        "the first execution uses the default (time 0, data 1); after one observation the exact \
         match tracks the measured latency within the jitter; structurally similar calls with \
         different constants reuse the close match; unseen shapes fall back to the defaults",
    );
    report
}

/// Relative error of an estimate against a measurement (0 when nothing was
/// measured).
fn relative_error(estimate_ms: f64, measured_ms: f64) -> f64 {
    if measured_ms > 0.0 {
        (estimate_ms - measured_ms).abs() / measured_ms
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------
// E5 — DBA effort as the federation grows
// ---------------------------------------------------------------------

/// E5: adding a source of an existing type is one extent declaration; the
/// query text is invariant and the per-source registration cost stays flat.
#[must_use]
pub fn e5_scaling_dba(scale: Scale) -> Report {
    let sizes: Vec<usize> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .filter(|n| *n <= scale.max_sources)
        .collect();
    let query = "count(select m.day from m in measurement where m.ph > 7.5)";
    let mut report = Report::new(
        "E5",
        "DBA effort and catalog growth vs. number of sources",
        "water-quality stations (identical type) registered one by one; fixed monitoring query",
        &[
            "sources",
            "registration ms (total)",
            "catalog extents",
            "interfaces",
            "exec calls in plan",
            "query text changed",
        ],
    );
    for &n in &sizes {
        let start = Instant::now();
        let federation = water_federation(n, 20);
        let registration_ms = start.elapsed().as_secs_f64() * 1000.0;
        let stats = federation.mediator.catalog().stats();
        let plan = federation.mediator.explain(query).expect("plan").plan;
        report.push_row([
            n.to_string(),
            fmt_f64(registration_ms),
            stats.extents.to_string(),
            stats.interfaces.to_string(),
            plan.physical.collect_execs().len().to_string(),
            "no".to_owned(),
        ]);
    }
    report.push_note(
        "registration cost grows linearly (constant per source), the interface count stays at 1, \
         and the same query text fans out to exactly one exec call per registered station",
    );
    report
}

// ---------------------------------------------------------------------
// E7 — the Prototype 0 pipeline (Fig. 2)
// ---------------------------------------------------------------------

/// E7: per-stage latency (parse, optimize, execute) and end-to-end
/// throughput of the Fig. 2 pipeline over a mixed workload.
#[must_use]
pub fn e7_pipeline(scale: Scale) -> Report {
    let federation = person_federation(4, scale.rows, CapabilitySet::full());
    let queries = [
        (
            "point",
            "select x.name from x in person0 where x.salary > 400",
        ),
        (
            "union",
            "select x.name from x in person where x.salary > 400",
        ),
        (
            "join",
            "select struct(a: x.name, b: y.name) from x in person0, y in person1 where x.id = y.id",
        ),
        ("aggregate", "sum(select x.salary from x in person)"),
        ("distinct", "select distinct x.name from x in person"),
    ];
    let mut report = Report::new(
        "E7",
        "Prototype 0 pipeline: per-stage latency and throughput",
        &format!(
            "4 person sources × {} rows; {} repetitions per query",
            scale.rows, scale.trials
        ),
        &[
            "query",
            "parse µs",
            "optimize µs",
            "execute µs",
            "total µs",
            "queries/s",
        ],
    );
    for (label, query) in queries {
        let mut parse_us = 0.0;
        let mut optimize_us = 0.0;
        let mut execute_us = 0.0;
        for _ in 0..scale.trials.max(3) {
            let t0 = Instant::now();
            let _ast = parse_query(query).expect("parse");
            parse_us += t0.elapsed().as_secs_f64() * 1e6;
            let t1 = Instant::now();
            let plan = federation.mediator.explain(query).expect("plan").plan;
            optimize_us += t1.elapsed().as_secs_f64() * 1e6;
            let t2 = Instant::now();
            let executor = Executor::new(federation.mediator.registry().clone());
            let _answer = executor
                .execute(&plan.physical, federation.mediator.catalog())
                .expect("execute");
            execute_us += t2.elapsed().as_secs_f64() * 1e6;
        }
        let n = scale.trials.max(3) as f64;
        let total = (parse_us + optimize_us + execute_us) / n;
        report.push_row([
            label.to_owned(),
            fmt_f64(parse_us / n),
            fmt_f64(optimize_us / n),
            fmt_f64(execute_us / n),
            fmt_f64(total),
            fmt_f64(1e6 / total.max(1.0)),
        ]);
    }
    report.push_note(
        "execution dominates the pipeline; parsing and optimization stay in the tens-to-hundreds \
         of microseconds, so the mediator layers add little overhead over the wrapper calls",
    );
    report
}

// ---------------------------------------------------------------------
// E9 — mediator evaluator throughput (the combine step)
// ---------------------------------------------------------------------

/// E9: throughput of the mediator-side evaluator over in-memory bags — no
/// wrappers, no simulated network.  This isolates the combine step the
/// zero-clone value plane and the streaming cursor engine optimise; the
/// numbers are the before/after yardstick recorded in `BENCH_e9.json` and
/// `ROADMAP.md`.  The workloads come from [`crate::workloads`] and are
/// shared with the criterion bench.
///
/// Besides wall-clock, every pipeline reports **rows materialized** — the
/// rows buffered by pipeline breakers (hash-join build side, distinct
/// seen-set) during one evaluation.  Under the seed bag-at-a-time
/// evaluator this number was the sum of every intermediate bag; under the
/// streaming engine it is bounded by the breakers alone.
#[must_use]
pub fn e9_evaluator_throughput(scale: Scale) -> Report {
    use crate::workloads::{
        e9_deep_pipeline_plan, e9_distinct_plan, e9_filter_project_plan, e9_hash_join_plan,
        e9_person_bag,
    };
    use disco_runtime::{evaluate_physical_with, PipelineMetrics, PipelineOptions, ResolvedExecs};

    let rows = if scale.trials >= 40 { 100_000 } else { 10_000 };
    let trials = scale.trials.clamp(3, 10);
    let mut report = Report::new(
        "E9",
        "mediator evaluator throughput (combine step)",
        &format!("{rows}-row in-memory person bags, best of {trials} trials per pipeline"),
        &[
            "pipeline",
            "rows in",
            "rows out",
            "rows mat",
            "rows kernel",
            "best ms",
            "Mrows/s",
        ],
    );

    let resolved = ResolvedExecs::default();
    let mut run_m = |name: &str, rows_in: usize, plan: &LogicalExpr| {
        let physical = lower(plan).expect("plan lowers");
        let options = PipelineOptions::default();
        let mut best = f64::INFINITY;
        let mut rows_out = 0usize;
        let mut rows_materialized = 0usize;
        let mut rows_kernel = 0usize;
        for _ in 0..trials {
            let metrics = PipelineMetrics::new();
            let started = Instant::now();
            let out =
                evaluate_physical_with(&physical, &resolved, &metrics, options).expect("evaluates");
            let elapsed_ms = started.elapsed().as_secs_f64() * 1000.0;
            rows_out = out.len();
            rows_materialized = metrics.rows_materialized();
            rows_kernel = metrics.rows_kernel();
            if elapsed_ms < best {
                best = elapsed_ms;
            }
        }
        let mrows_per_s = rows_in as f64 / (best / 1000.0) / 1.0e6;
        report.push_row([
            name.to_owned(),
            rows_in.to_string(),
            rows_out.to_string(),
            rows_materialized.to_string(),
            rows_kernel.to_string(),
            fmt_f64(best),
            fmt_f64(mrows_per_s),
        ]);
    };

    run_m("filter_project", rows, &e9_filter_project_plan(rows));
    run_m("hash_join", rows + rows / 10, &e9_hash_join_plan(rows));
    run_m("distinct", rows, &e9_distinct_plan(rows));
    run_m(
        "deep_pipeline",
        rows + rows / 10,
        &e9_deep_pipeline_plan(rows),
    );

    let union_bags: Vec<LogicalExpr> = (0..8)
        .map(|_| LogicalExpr::Data(e9_person_bag(rows / 8, 1024)))
        .collect();
    let union_distinct = LogicalExpr::Distinct(Box::new(LogicalExpr::Union(union_bags)));
    run_m("union8_distinct", rows, &union_distinct);

    report.push_note(
        "evaluator only: bags are in memory, so this is the mediator combine cost that \
         dominates once wrappers answer in parallel",
    );
    report.push_note(
        "rows mat = rows buffered by pipeline breakers (hash-join build side, distinct \
         seen-set) per evaluation; streaming operators buffer nothing",
    );
    report.push_note(
        "rows kernel = rows whose scalar work ran through vectorized columnar kernels; the \
         rest of a fused stretch fell back per batch to the row cursors",
    );
    report
}

/// The skewed federation of E10 and E10h: four person sources answering
/// over chunked, *really sleeping* links (base 0.5 ms + 25 µs/row, ~8
/// chunks), the last one degraded ~10×.  Returns the federation, its
/// workload description and the trial count.
fn skewed_federation(scale: Scale) -> (Federation, String, usize) {
    let sources = 4usize;
    let rows = scale.rows.max(40);
    let chunk = (rows / 8).max(1);
    let fast_ms = 0.5 + rows as f64 * 0.025;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let slow_extra_ms = (fast_ms * 9.0 / 8.0).ceil().max(1.0) as u64;
    let fast = NetworkProfile {
        base_latency_us: 500,
        per_row_us: 25,
        jitter: 0.0,
        availability: Availability::Available,
        real_sleep: true,
        chunk_rows: chunk,
    };
    let federation =
        person_federation_with_profile(sources, rows, CapabilitySet::full(), fast.clone());
    federation.links[sources - 1].set_profile(fast.with_availability(Availability::Degraded {
        chunk_extra_ms: slow_extra_ms,
    }));
    let workload = format!(
        "{sources} person sources x {rows} rows, chunked ({chunk} rows/chunk), real sleeps; \
         source {} degraded ~10x ({slow_extra_ms} ms extra per chunk)",
        sources - 1
    );
    (federation, workload, scale.trials.clamp(3, 7))
}

/// The median of the samples; NaN when there are none.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples.get(samples.len() / 2).copied().unwrap_or(f64::NAN)
}

// ---------------------------------------------------------------------
// E10 — federation overlap under streamed resolution
// ---------------------------------------------------------------------

/// E10: streamed source resolution under skewed per-source latencies.
///
/// A federation of person sources answers over chunked, *really sleeping*
/// links; one source is ~10× slower than the rest.  The `blocking` rows
/// run the two stages one after the other — `resolve_execs` waits for the
/// slowest wrapper, then `evaluate_physical_with` combines — so their
/// wall-clock is ≈ slowest + combine; the `streamed` rows are
/// `Executor::execute`, which feeds chunks into the pipeline as they
/// arrive, so wall-clock collapses to ≈ max(slowest source, combine) and
/// `time_to_first_row` — when the fast sources' first rows reach the
/// sink — is far below the total latency.
#[must_use]
pub fn e10_federation_overlap(scale: Scale) -> Report {
    use disco_runtime::{evaluate_physical_with, resolve_execs, PipelineMetrics};

    let (federation, workload, trials) = skewed_federation(scale);
    let sources = federation.links.len();
    let mut report = Report::new(
        "E10",
        "federation overlap: streamed vs blocking resolution",
        &format!("{workload}; median of {trials} trials"),
        &[
            "mode",
            "wall ms",
            "t_first ms",
            "slowest src ms",
            "wall/slowest",
        ],
    );

    // Ship bare `get`s so the union/distinct combine work stays at the
    // mediator — the step streamed resolution overlaps with source latency.
    let branches: Vec<LogicalExpr> = (0..sources)
        .map(|i| {
            LogicalExpr::get(format!("person{i}"))
                .submit(
                    format!("r{i}"),
                    format!("w_person{i}"),
                    format!("person{i}"),
                )
                .bind("x")
                .map_project(ScalarExpr::var_field("x", "name"))
        })
        .collect();
    let plan = lower(&LogicalExpr::Distinct(Box::new(LogicalExpr::Union(
        branches,
    ))))
    .expect("plan lowers");

    let slowest_of = |calls: &[disco_runtime::SourceCallStats]| {
        calls
            .iter()
            .map(|c| c.latency.as_secs_f64() * 1000.0)
            .fold(0.0f64, f64::max)
    };
    for streamed in [false, true] {
        let executor = Executor::new(federation.mediator.registry().clone())
            .with_deadline(Some(std::time::Duration::from_secs(30)));
        let catalog = federation.mediator.catalog();
        let mut walls = Vec::with_capacity(trials);
        let mut firsts = Vec::with_capacity(trials);
        let mut slowest_ms = 0.0f64;
        for _ in 0..trials {
            let started = Instant::now();
            let (t_first, slowest) = if streamed {
                let answer = executor.execute(&plan, catalog).expect("executes");
                assert!(answer.is_complete(), "no source is unavailable here");
                (
                    answer.time_to_first_row(),
                    slowest_of(&answer.stats().source_calls),
                )
            } else {
                let config = executor.config();
                let resolved =
                    resolve_execs(&plan, executor.registry(), catalog, config).expect("resolves");
                assert!(resolved.all_available(), "no source is unavailable here");
                let metrics = PipelineMetrics::new();
                evaluate_physical_with(&plan, &resolved, &metrics, config.pipeline)
                    .expect("combines");
                (
                    metrics.time_to_first_row_since(started),
                    slowest_of(resolved.stats()),
                )
            };
            walls.push(started.elapsed().as_secs_f64() * 1000.0);
            firsts.extend(t_first.map(|t| t.as_secs_f64() * 1000.0));
            slowest_ms = slowest_ms.max(slowest);
        }
        let wall = median(&mut walls);
        report.push_row([
            if streamed { "streamed" } else { "blocking" }.to_owned(),
            fmt_f64(wall),
            fmt_f64(median(&mut firsts)),
            fmt_f64(slowest_ms),
            fmt_f64(wall / slowest_ms),
        ]);
    }
    report.push_note(
        "blocking = resolve_execs then evaluate_physical_with, one after the other \
         (wall ~= slowest + combine); streamed = Executor::execute, chunks feed the \
         pipeline as they arrive (wall ~= max(slowest, combine), t_first << wall)",
    );
    report.push_note(
        "t_first = time_to_first_row from ExecutionStats: when the first answer row \
         reached the final sink",
    );
    report
}

// ---------------------------------------------------------------------
// E11 — multi-query serving layer
// ---------------------------------------------------------------------

/// E11: N concurrent query streams through one `DiscoServer`.
///
/// A shared federation fronts N ∈ {1, 4, 16} sessions, each issuing a
/// stream of OQL queries concurrently through one serving layer —
/// shared plan cache, admission control (at most 4 queries execute at
/// once), and a shared wrapper-connection pool (2 in-flight calls per
/// repository).  Every concurrent answer is asserted multiset-identical
/// to the serial baseline; the table tracks per-query p50/p99 latency
/// and aggregate answered rows/s as the stream count rises.
///
/// # Panics
///
/// Panics if a concurrent answer diverges from the serial baseline.
#[must_use]
pub fn e11_serving(scale: Scale) -> Report {
    use disco_runtime::SourcePool;
    use disco_server::{DiscoServer, ServerConfig};
    use std::sync::Arc;

    let sources = 4usize;
    let rows = scale.rows.max(40);
    let chunk = (rows / 4).max(1);
    // Small but real per-call sleeps, so concurrency and queuing are
    // visible in wall-clock rather than simulated.
    let profile = NetworkProfile {
        base_latency_us: 300,
        per_row_us: 5,
        jitter: 0.0,
        availability: Availability::Available,
        real_sleep: true,
        chunk_rows: chunk,
    };
    let queries_per_stream = scale.trials.clamp(6, 16);
    let mut report = Report::new(
        "E11",
        "multi-query serving: concurrent streams through one server",
        &format!(
            "{sources} person sources x {rows} rows (real sleeps), one disco-server \
             (admission cap 4, source pool cap 2/repo, shared plan cache); N streams x \
             {queries_per_stream} queries each, answers checked against serial"
        ),
        &[
            "streams",
            "queries",
            "p50 ms",
            "p99 ms",
            "wall ms",
            "rows/s",
            "admission queued",
            "pool queued",
            "cache hits",
        ],
    );

    let mut federation =
        person_federation_with_profile(sources, rows, CapabilitySet::full(), profile);
    federation.mediator.set_deadline(None);
    let expected = federation
        .mediator
        .query(PERSON_QUERY)
        .expect("serial baseline executes");
    assert!(expected.is_complete(), "baseline must be complete");

    let percentile = |samples: &mut Vec<f64>, p: f64| -> f64 {
        samples.sort_by(f64::total_cmp);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let index = ((samples.len() - 1) as f64 * p).round() as usize;
        samples[index]
    };

    for streams in [1usize, 4, 16] {
        let server = DiscoServer::from_mediator(
            &federation.mediator,
            ServerConfig::default()
                .with_max_concurrent(4)
                .with_source_pool(Arc::new(SourcePool::new(2))),
        );
        let started = Instant::now();
        let mut latencies: Vec<f64> = Vec::with_capacity(streams * queries_per_stream);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(streams);
            for _ in 0..streams {
                let server = &server;
                let expected = &expected;
                handles.push(scope.spawn(move || {
                    let session = server.session();
                    let mut stream_latencies = Vec::with_capacity(queries_per_stream);
                    for _ in 0..queries_per_stream {
                        let at = Instant::now();
                        let answer = session.query(PERSON_QUERY).expect("query executes");
                        stream_latencies.push(at.elapsed().as_secs_f64() * 1000.0);
                        assert!(answer.is_complete());
                        assert_eq!(
                            answer.data(),
                            expected.data(),
                            "concurrent answer diverged from serial"
                        );
                    }
                    stream_latencies
                }));
            }
            for handle in handles {
                latencies.extend(handle.join().expect("stream thread completes"));
            }
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
        let answered_rows = streams * queries_per_stream * expected.data().len();
        let stats = server.stats();
        report.push_row([
            streams.to_string(),
            (streams * queries_per_stream).to_string(),
            fmt_f64(percentile(&mut latencies, 0.50)),
            fmt_f64(percentile(&mut latencies, 0.99)),
            fmt_f64(wall_ms),
            fmt_f64(answered_rows as f64 / (wall_ms / 1000.0)),
            stats.admission_queued.0.to_string(),
            stats
                .source_pool_queued
                .map_or_else(|| "0".to_string(), |(queued, _)| queued.to_string()),
            stats.plan_cache.0.to_string(),
        ]);
    }
    report.push_note(
        "every concurrent answer is asserted multiset-identical to the serial \
         baseline; p50/p99 over all per-query latencies of the round",
    );
    report.push_note(
        "aggregate rows/s keeps rising with streams while per-query p99 degrades \
         gracefully: admission (cap 4) and the source pool (cap 2/repo) queue the \
         excess instead of oversubscribing the engine",
    );
    report
}

// ---------------------------------------------------------------------
// E12 — memory-budgeted spilling
// ---------------------------------------------------------------------

/// E12: pipeline-breaker state at ~10x the memory budget.
///
/// Runs a hash join and a distinct whose breaker state (build table /
/// seen-set) is ~10x `PipelineOptions::mem_budget` and compares against
/// the default unbounded path: answers are identical, tracked bytes stay
/// bounded by the budget (+ at most one entry of overshoot, the
/// trip-detection granularity), and the spill counters are nonzero.  The
/// state size is measured first with a never-tripping bounded probe
/// (`peak KiB` of the `unbounded` rows), and the budget for the
/// `budgeted` rows is set to a tenth of it.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn e12_spill(scale: Scale) -> Report {
    use disco_runtime::{
        evaluate_physical_with, reference, MemBudget, PipelineMetrics, PipelineOptions,
        ResolvedExecs,
    };
    use disco_value::{Bag, StructValue, Value};

    let keys = (scale.rows * 100).max(2_000);
    let probe_rows = keys * 5;
    let person = |i: usize| -> Value {
        Value::Struct(
            StructValue::new(vec![
                ("id", Value::Int(i as i64)),
                ("name", Value::from(format!("person-{i}").as_str())),
                ("salary", Value::Int((i % 199) as i64)),
            ])
            .unwrap(),
        )
    };
    let join = {
        let left: Bag = (0..probe_rows).map(|i| person(i % keys)).collect();
        let right: Bag = (0..keys).map(person).collect();
        LogicalExpr::Join {
            left: Box::new(LogicalExpr::Data(left).bind("x")),
            right: Box::new(LogicalExpr::Data(right).bind("y")),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Eq,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        }
        .map_project(ScalarExpr::var_field("x", "name"))
    };
    let distinct = {
        let input: Bag = (0..probe_rows).map(|i| person(i % keys)).collect();
        LogicalExpr::Distinct(Box::new(LogicalExpr::Data(input)))
    };

    let trials = scale.trials.clamp(3, 7);
    let mut report = Report::new(
        "E12",
        "memory-budgeted spilling: breaker state at ~10x the budget",
        &format!(
            "hash join ({probe_rows} probe x {keys} build rows) and distinct \
             ({probe_rows} rows, {keys} distinct) with mem_budget = state/10; \
             median of {trials} trials"
        ),
        &[
            "workload",
            "mode",
            "budget KiB",
            "wall ms",
            "peak KiB",
            "peak/budget",
            "spilled KiB",
            "partitions",
        ],
    );

    let resolved = ResolvedExecs::default();
    let median = |samples: &mut Vec<f64>| -> f64 {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 2]
    };
    let kib = |bytes: f64| -> f64 { bytes / 1024.0 };
    for (name, plan) in [("join", &join), ("distinct", &distinct)] {
        let physical = lower(plan).expect("plan lowers");
        let expected =
            reference::evaluate_physical(&physical, &resolved).expect("reference evaluates");

        // A never-tripping bounded probe measures the breaker state size
        // (the unbounded budget is a no-op and tracks nothing).
        let probe = PipelineMetrics::new();
        let probed = evaluate_physical_with(
            &physical,
            &resolved,
            &probe,
            PipelineOptions {
                mem_budget: MemBudget::Bytes(usize::MAX / 2),
                ..PipelineOptions::default()
            },
        )
        .expect("probe evaluates");
        assert_eq!(probed, expected, "E12 {name}: probe answer must match");
        assert_eq!(probe.bytes_spilled(), 0, "the probe budget never trips");
        let state = probe.peak_tracked_bytes();
        let budget = (state / 10).max(4096);

        for bounded in [false, true] {
            let mem_budget = if bounded {
                MemBudget::Bytes(budget)
            } else {
                MemBudget::Unbounded
            };
            let mut walls = Vec::with_capacity(trials);
            let metrics = PipelineMetrics::new();
            for _ in 0..trials {
                let trial = PipelineMetrics::new();
                let started = Instant::now();
                let out = evaluate_physical_with(
                    &physical,
                    &resolved,
                    &trial,
                    PipelineOptions {
                        mem_budget,
                        ..PipelineOptions::default()
                    },
                )
                .expect("evaluates");
                walls.push(started.elapsed().as_secs_f64() * 1000.0);
                assert_eq!(
                    out, expected,
                    "E12 {name}: spilling must not change answers"
                );
                metrics.merge(&trial);
            }
            let spilled = metrics.bytes_spilled() as f64 / trials as f64;
            let peak = if bounded {
                metrics.peak_tracked_bytes()
            } else {
                state
            };
            if bounded {
                assert!(
                    metrics.bytes_spilled() > 0,
                    "E12 {name}: a budget of state/10 must spill"
                );
                assert!(metrics.spill_partitions() > 0);
            } else {
                assert_eq!(metrics.bytes_spilled(), 0, "unbounded never spills");
            }
            report.push_row([
                name.to_string(),
                if bounded { "budgeted" } else { "unbounded" }.to_string(),
                if bounded {
                    fmt_f64(kib(budget as f64))
                } else {
                    "-".to_string()
                },
                fmt_f64(median(&mut walls)),
                fmt_f64(kib(peak as f64)),
                if bounded {
                    fmt_f64(peak as f64 / budget as f64)
                } else {
                    "-".to_string()
                },
                if bounded {
                    fmt_f64(kib(spilled))
                } else {
                    "0".to_string()
                },
                (metrics.spill_partitions() / trials).to_string(),
            ]);
        }
    }
    report.push_note(
        "peak KiB of the unbounded rows is the breaker state measured by a \
         never-tripping bounded probe; budgeted runs get a tenth of it",
    );
    report.push_note(
        "peak/budget stays near 1: trips are acted on per admitted entry, so tracked \
         bytes overshoot by at most one entry before state moves to disk",
    );
    report
}

/// One experiment: its id, its runner, and whether the harness also
/// records its report to a `BENCH_<id>.json` file.
pub type Experiment = (&'static str, fn(Scale) -> Report, bool);

/// Every experiment, in harness order.
pub const ALL: &[Experiment] = &[
    ("e1", e1_availability, false),
    ("e2", e2_partial_eval, false),
    ("e3", e3_pushdown, false),
    ("e4", e4_calibration, false),
    ("e5", e5_scaling_dba, false),
    ("e7", e7_pipeline, false),
    ("e9", e9_evaluator_throughput, true),
    ("e10", e10_federation_overlap, true),
    ("e11", e11_serving, true),
    ("e12", e12_spill, true),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_rows_at_quick_scale() {
        for (_, run, _) in ALL {
            let report = run(Scale::quick());
            assert!(!report.rows.is_empty(), "{} produced no rows", report.id);
            assert!(!report.columns.is_empty());
            let text = report.to_text();
            assert!(text.contains(&report.id));
        }
    }

    #[test]
    fn e1_partial_fraction_dominates_all_or_nothing() {
        let report = e1_availability(Scale {
            trials: 10,
            rows: 30,
            max_sources: 8,
        });
        // For every row, the DISCO partial-data fraction (col 5) is at least
        // the all-or-nothing fraction (col 4).
        for row in &report.rows {
            let strict: f64 = row[4].trim_end_matches('%').parse().unwrap();
            let disco: f64 = row[5].trim_end_matches('%').parse().unwrap();
            assert!(disco + 1e-9 >= strict, "row {row:?}");
        }
    }

    #[test]
    fn e3_get_only_ships_everything_and_project_narrows() {
        let report = e3_pushdown(Scale::quick());
        for row in &report.rows {
            if row[0] == "get" {
                assert_eq!(
                    row[5], "100.0%",
                    "get-only wrappers ship all values: {row:?}"
                );
            }
            if row[0] == "get+project" {
                let pct: f64 = row[5].trim_end_matches('%').parse().unwrap();
                assert!(
                    pct < 100.0,
                    "project-capable wrappers narrow tuples: {row:?}"
                );
            }
        }
    }
}

//! Runs, suites, the machine record and `compare`.
//!
//! A *run* is what the one command does for one workload: a few passes,
//! each in a fresh child process of this executable (clean allocator,
//! clean `VmHWM`), and the median over the passes of every metric.  A
//! *suite* interleaves runs across the four workloads and writes a
//! result file with the machine it ran on; `compare` reads two of those.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::driver::{run_pass, Limit, PassResult};
use crate::gen::{Scale, Workload, WorkloadKind};
use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, nproc, quartiles, spread};

/// Passes per untraced run.  The reported value of a metric is the
/// median over the passes of the per-pass value.
pub const PASSES: usize = 3;

/// Where trace files and spill files go: `perfbench/out/`, git-ignored.
#[must_use]
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Removes every `DISCO_*` variable from this process's environment, so
/// every layer runs at its defaults whatever the caller exported.  Call
/// before any thread is started.
pub fn scrub_environment() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(name, _)| name)
        .filter(|name| name.to_string_lossy().starts_with("DISCO_"))
        .collect();
    for name in names {
        std::env::remove_var(name);
    }
}

/// Why each workload exists (also the `why` of `BENCHMARK.json`).
#[must_use]
pub fn why(kind: WorkloadKind) -> &'static str {
    match kind {
        WorkloadKind::FedPushdown => {
            "capable wrappers: filters and projections are pushed to 8 sources, so time is wrapper \
             evaluation, transfer and union; planning is cached"
        }
        WorkloadKind::MediatorCombine => {
            "get-only wrappers: nothing pushes down, so the mediator itself joins and deduplicates; \
             combine dominates"
        }
        WorkloadKind::PlanWide => {
            "256 tiny sources behind a server with plan-cache misses and sources added while \
             queries run: planning and catalog dominate"
        }
        WorkloadKind::ServeDegraded => {
            "sleeping links, one degraded source, timeouts and refusals under a deadline: latency \
             is waiting, partial answers are resubmitted"
        }
    }
}

/// The pass a child process runs; prints its result as one JSON line.
///
/// # Errors
///
/// Set-up and staged-replay errors.
pub fn pass_child(
    kind: WorkloadKind,
    seed: u64,
    limit: Limit,
    trace: bool,
) -> Result<PassResult, String> {
    if trace {
        // Where the budgeted combine variant spills: inside the checkout,
        // not the system temp directory.  A path, not a behaviour switch.
        let spill = out_dir().join("spill");
        std::fs::create_dir_all(&spill).map_err(|e| format!("{}: {e}", spill.display()))?;
        std::env::set_var("DISCO_SPILL_DIR", &spill);
    }
    let workload = Workload::new(kind, seed, Scale::Full, nproc());
    let result = run_pass(workload, limit, trace)?;
    if let Some(trace) = &result.trace {
        let path = out_dir().join(format!("trace_{}.json", kind.name()));
        if let Err(e) = std::fs::write(&path, trace.to_json().to_string()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    Ok(result)
}

/// Renders a pass result as the line the parent parses.
#[must_use]
pub fn pass_json(result: &PassResult) -> Json {
    #[allow(clippy::cast_precision_loss)]
    Json::obj([
        (
            "metrics",
            Json::Obj(
                result
                    .metrics
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::Num(*value)))
                    .collect(),
            ),
        ),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        (
            "failures",
            Json::Arr(result.failures.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// One workload's run: per metric, the per-pass values.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Metric name → one value per pass.
    pub values: BTreeMap<String, Vec<f64>>,
    /// Operations attempted, over all passes.
    pub attempted: u64,
    /// Operations failed, over all passes.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl RunResult {
    /// The reported value of `name`: the median over the passes.
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        median(self.values.get(name).map_or(&[], Vec::as_slice))
    }

    fn absorb_pass(&mut self, pass: &Json) -> Result<(), String> {
        let metrics = pass
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("pass result has no metrics")?;
        for (name, value) in metrics {
            let value = value.as_f64().ok_or("pass metric is not a number")?;
            self.values.entry(name.clone()).or_default().push(value);
        }
        let count = |key: &str| -> Result<u64, String> {
            let n = pass
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("pass result has no {key}"))?;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Ok(n.max(0.0) as u64)
        };
        self.attempted += count("attempted")?;
        self.failed += count("failed")?;
        for failure in pass.get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
            if let (Some(text), true) = (failure.as_str(), self.failures.len() < 8) {
                self.failures.push(text.to_owned());
            }
        }
        Ok(())
    }
}

/// Runs one workload: `PASSES` untraced passes of `seconds / PASSES`
/// each, or one traced pass of `seconds`, every pass a fresh child of
/// this executable.
///
/// # Errors
///
/// A child that cannot be started, exits non-zero, or prints no result.
pub fn run_workload(
    kind: WorkloadKind,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    #[allow(clippy::cast_precision_loss)]
    let (passes, pass_seconds) = if trace {
        (1, seconds)
    } else {
        (PASSES, seconds / PASSES as f64)
    };
    let mut run = RunResult::default();
    for _ in 0..passes {
        let output = Command::new(&exe)
            .args(["pass", "--workload", kind.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &pass_seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("could not start a pass: {e}"))?;
        if !output.status.success() {
            return Err(format!(
                "a {} pass exited with {}",
                kind.name(),
                output.status
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("a pass printed no result")?;
        run.absorb_pass(&Json::parse(line)?)?;
    }
    Ok(run)
}

fn metric_json(def: &MetricDef, value: f64) -> (String, Json) {
    (
        def.name.to_owned(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(def.unit.to_owned())),
        ]),
    )
}

/// The line the contract asks for: `correct`, `attempted`, `failed` and
/// the end-to-end metrics (untraced) or the per-layer metrics (traced).
#[must_use]
pub fn result_line(run: &RunResult, trace: bool) -> Json {
    let table = if trace { PER_LAYER } else { END_TO_END };
    #[allow(clippy::cast_precision_loss)]
    Json::obj([
        ("correct", Json::Bool(run.failed == 0)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        (
            "metrics",
            Json::Obj(
                table
                    .iter()
                    .map(|def| metric_json(def, run.value(def.name)))
                    .collect(),
            ),
        ),
    ])
}

/// Every metric of a run by name, with its unit, for a person to read.
/// `samples` says what the spread is over (`passes` of one run, `runs` of
/// a suite).
#[must_use]
pub fn run_table(kind: WorkloadKind, run: &RunResult, samples: &str) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "workload {} — {} ops attempted, {} failed\n",
        kind.name(),
        run.attempted,
        run.failed
    );
    for def in END_TO_END.iter().chain(PER_LAYER) {
        if let Some(values) = run.values.get(def.name) {
            let _ = writeln!(
                out,
                "  {:<34} {:>14.4} {:<6} (spread over {} {samples}: {:.3})",
                def.name,
                median(values),
                def.unit,
                values.len(),
                spread(values)
            );
        }
    }
    for failure in &run.failures {
        let _ = writeln!(out, "  FAILED {failure}");
    }
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// The machine and build the numbers came from.
#[must_use]
pub fn machine_record() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |k| k.trim().to_owned());
    let unknown = || "unknown".to_owned();
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    #[allow(clippy::cast_precision_loss)]
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu_model)),
        ("kernel", Json::Str(kernel)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "cargo_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("git_commit", Json::Str(commit)),
        ("git_dirty", dirty.map_or(Json::Null, Json::Bool)),
    ])
}

/// Runs the whole suite: `sets` rounds, each round one run of every
/// workload in turn (A B C D, A B C D, …), then — with `trace` — one
/// traced run per workload.  Prints progress and the tables; returns the
/// result document and whether any operation failed.
///
/// # Errors
///
/// A run that could not be made.
pub fn suite(
    workloads: &[WorkloadKind],
    seed: u64,
    seconds: f64,
    sets: usize,
    trace: bool,
) -> Result<(Json, bool), String> {
    let mut untraced: BTreeMap<WorkloadKind, RunResult> = BTreeMap::new();
    for set in 0..sets {
        for kind in workloads {
            eprintln!("set {}/{sets}: {}", set + 1, kind.name());
            let run = run_workload(*kind, seed, seconds, false)?;
            let total = untraced.entry(*kind).or_default();
            // One value per run: the median over that run's passes.
            for name in run.values.keys() {
                total
                    .values
                    .entry(name.clone())
                    .or_default()
                    .push(run.value(name));
            }
            total.attempted += run.attempted;
            total.failed += run.failed;
            total.failures.extend(run.failures);
        }
    }
    let mut documents = BTreeMap::new();
    let mut any_failed = false;
    for kind in workloads {
        let mut run = untraced.remove(kind).unwrap_or_default();
        let traced = if trace {
            eprintln!("traced: {}", kind.name());
            Some(run_workload(*kind, seed, seconds, true)?)
        } else {
            None
        };
        let end_to_end = END_TO_END
            .iter()
            .map(|def| {
                let values = run.values.get(def.name).cloned().unwrap_or_default();
                let [q1, q2, q3] = quartiles(&values);
                (
                    def.name.to_owned(),
                    Json::obj([
                        ("unit", Json::Str(def.unit.into())),
                        ("better", Json::Str(def.better.as_str().into())),
                        ("bound", Json::Num(def.bound)),
                        ("median", Json::Num(q2)),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                        (
                            "values",
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        if let Some(traced) = &traced {
            run.attempted += traced.attempted;
            run.failed += traced.failed;
            run.failures.extend(traced.failures.iter().cloned());
            for (name, values) in &traced.values {
                run.values.insert(name.clone(), values.clone());
            }
        }
        println!("{}", run_table(*kind, &run, "runs"));
        any_failed |= run.failed > 0;
        let per_layer = traced.as_ref().map_or(Json::Null, |traced| {
            Json::Obj(
                PER_LAYER
                    .iter()
                    .map(|def| metric_json(def, traced.value(def.name)))
                    .collect(),
            )
        });
        let sizes = Workload::new(*kind, seed, Scale::Full, nproc()).sizes();
        #[allow(clippy::cast_precision_loss)]
        documents.insert(
            kind.name().to_owned(),
            Json::obj([
                ("why", Json::Str(why(*kind).into())),
                ("sizes", Json::Str(sizes)),
                ("attempted", Json::Num(run.attempted as f64)),
                ("failed", Json::Num(run.failed as f64)),
                ("end_to_end", Json::Obj(end_to_end)),
                ("per_layer", per_layer),
            ]),
        );
    }
    #[allow(clippy::cast_precision_loss)]
    let document = Json::obj([
        ("machine", machine_record()),
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds)),
        ("sets", Json::Num(sets as f64)),
        ("passes_per_run", Json::Num(PASSES as f64)),
        ("workloads", Json::Obj(documents)),
    ]);
    Ok((document, any_failed))
}

/// What `compare` concluded for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the old side's own spread.
    Better,
    /// Within the bound, and the spreads are narrow enough to say so.
    Same,
    /// Worse by more than the metric's bound.
    Worse,
    /// A spread is wider than the bound: nothing can be concluded —
    /// never reported as `same`.
    Unresolved,
}

impl Verdict {
    /// Lower-case name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric from both sides' per-run values.
#[must_use]
pub fn verdict(def: &MetricDef, old: &[f64], new: &[f64]) -> Verdict {
    let (old_median, new_median) = (median(old), median(new));
    if old.is_empty() || new.is_empty() || old_median == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = worse, as a share of the old median.
    let change = match def.better {
        Better::Lower => (new_median - old_median) / old_median,
        Better::Higher => (old_median - new_median) / old_median,
    };
    if spread(old).max(spread(new)) > def.bound {
        Verdict::Unresolved
    } else if change > def.bound {
        Verdict::Worse
    } else if -change > spread(old) && change < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compares two suite result documents.  Returns the table and whether
/// the new side is acceptable (no `worse`, no higher failed share).
///
/// # Errors
///
/// A document that is not a suite result.
pub fn compare(old: &Json, new: &Json) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let workloads = |doc: &'_ Json| -> Result<BTreeMap<String, Json>, String> {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or_else(|| "not a suite result: no \"workloads\"".to_owned())
    };
    let (old_workloads, new_workloads) = (workloads(old)?, workloads(new)?);
    let values = |workload: &Json, metric: &str| -> Vec<f64> {
        workload
            .get("end_to_end")
            .and_then(|e| e.get(metric))
            .and_then(|m| m.get("values"))
            .and_then(Json::as_arr)
            .map(|items| items.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let failed_share = |workload: &Json| -> f64 {
        let number = |key| workload.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        if number("attempted") > 0.0 {
            number("failed") / number("attempted")
        } else {
            0.0
        }
    };
    let mut table = format!(
        "{:<17} {:<18} {:>30} {:>30} {:>8}  verdict\n",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "new/old"
    );
    let mut acceptable = true;
    for (name, old_workload) in &old_workloads {
        let Some(new_workload) = new_workloads.get(name) else {
            let _ = writeln!(table, "{name:<17} missing from the new result");
            acceptable = false;
            continue;
        };
        for def in END_TO_END {
            let (old_values, new_values) = (
                values(old_workload, def.name),
                values(new_workload, def.name),
            );
            let judged = verdict(def, &old_values, &new_values);
            acceptable &= judged != Verdict::Worse;
            let cell = |v: &[f64]| {
                let [q1, q2, q3] = quartiles(v);
                format!("{q2:.4} [{q1:.4}, {q3:.4}]")
            };
            let ratio = if median(&old_values) == 0.0 {
                f64::NAN
            } else {
                median(&new_values) / median(&old_values)
            };
            let _ = writeln!(
                table,
                "{name:<17} {:<18} {:>30} {:>30} {ratio:>8.3}  {}",
                def.name,
                cell(&old_values),
                cell(&new_values),
                judged.as_str()
            );
        }
        let (old_failed, new_failed) = (failed_share(old_workload), failed_share(new_workload));
        let failed_worse = new_failed > old_failed;
        acceptable &= !failed_worse;
        let _ = writeln!(
            table,
            "{name:<17} {:<18} {old_failed:>30.6} {new_failed:>30.6} {:>8}  {}",
            "failed_share",
            "",
            if failed_worse { "worse" } else { "same" }
        );
    }
    Ok((table, acceptable))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def() -> &'static MetricDef {
        &MetricDef {
            name: "latency",
            unit: "ms",
            better: Better::Lower,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        assert_eq!(verdict(def(), &steady, &steady), Verdict::Same);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(def(), &steady, &slower), Verdict::Worse);
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(def(), &steady, &faster), Verdict::Better);
        // A spread wider than the bound is unresolved, never same.
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(verdict(def(), &noisy, &noisy), Verdict::Unresolved);
        // Higher-is-better metrics flip the direction.
        let rate = MetricDef {
            better: Better::Higher,
            ..*def()
        };
        assert_eq!(verdict(&rate, &steady, &slower), Verdict::Better);
        assert_eq!(verdict(&rate, &steady, &faster), Verdict::Worse);
    }

    #[test]
    fn compare_flags_regressions_and_failures() {
        let side = |scale: f64, failed: f64| {
            let metrics = END_TO_END
                .iter()
                .map(|d| {
                    (
                        d.name.to_owned(),
                        Json::obj([(
                            "values",
                            Json::Arr(
                                [1.0, 1.01, 0.99]
                                    .iter()
                                    .map(|v| Json::Num(v * scale))
                                    .collect(),
                            ),
                        )]),
                    )
                })
                .collect();
            Json::obj([(
                "workloads",
                Json::obj([(
                    "fed_pushdown",
                    Json::obj([
                        ("attempted", Json::Num(100.0)),
                        ("failed", Json::Num(failed)),
                        ("end_to_end", Json::Obj(metrics)),
                    ]),
                )]),
            )])
        };
        let (_, ok) = compare(&side(1.0, 0.0), &side(1.0, 0.0)).unwrap();
        assert!(ok);
        // Everything 30 % larger: lower-is-better metrics are worse.
        let (table, ok) = compare(&side(1.0, 0.0), &side(1.3, 0.0)).unwrap();
        assert!(!ok && table.contains("worse"));
        let (_, ok) = compare(&side(1.0, 0.0), &side(1.0, 1.0)).unwrap();
        assert!(!ok, "a higher failed share is not acceptable");
        assert!(compare(&Json::Null, &side(1.0, 0.0)).is_err());
    }
}

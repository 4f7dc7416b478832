//! The experiment harness: regenerates the tables behind `BENCH_eN.json`
//! and ROADMAP's Performance section.
//!
//! Usage:
//!
//! ```text
//! cargo run -p disco-bench --release --bin harness            # all experiments
//! cargo run -p disco-bench --release --bin harness -- e3      # one experiment
//! cargo run -p disco-bench --release --bin harness -- all --quick
//! cargo run -p disco-bench --release --bin harness -- e1 --json
//! ```
//!
//! Whenever E9 (evaluator throughput) runs, its report is also written to
//! `BENCH_e9.json` in the current directory so the perf trajectory of the
//! mediator combine step is tracked from PR to PR; E10 (federation
//! overlap: the executor vs resolve-then-combine) is likewise recorded to
//! `BENCH_e10.json`, E11 (multi-query serving layer) to `BENCH_e11.json`,
//! and E12 (memory-budgeted spilling) to `BENCH_e12.json`.  Every
//! recorded file notes the core count and the commit it was taken on.

use disco_bench::experiments::{self, Scale};
use disco_bench::report::Report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let selection: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let scale = if quick { Scale::quick() } else { Scale::full() };

    let wanted = |id: &str| -> bool {
        selection.is_empty()
            || selection
                .iter()
                .any(|s| s == "all" || s.eq_ignore_ascii_case(id))
    };

    let reports: Vec<Report> = experiments::ALL
        .iter()
        .filter(|(id, ..)| wanted(id))
        .map(|&(_, run, record)| {
            let report = run(scale);
            if record {
                recorded(report)
            } else {
                report
            }
        })
        .collect();

    if reports.is_empty() {
        eprintln!("unknown experiment selection {selection:?}; use e1..e5, e7..e12 or all");
        std::process::exit(2);
    }
    for report in &reports {
        if json {
            println!("{}", report.to_json());
        } else {
            println!("{}", report.to_text());
        }
    }
}

/// Notes the machine and commit the numbers were taken on, and writes the
/// report to `BENCH_<id>.json` in the current directory.
fn recorded(mut report: Report) -> Report {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        );
    report.push_note(format!("machine: nproc {nproc}; commit {commit}"));
    let path = format!("BENCH_{}.json", report.id.to_lowercase());
    if let Err(err) = std::fs::write(&path, report.to_json()) {
        eprintln!("warning: could not write {path}: {err}");
    }
    report
}

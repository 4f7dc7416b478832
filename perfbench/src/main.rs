//! The one command.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! benchmark [suite] [--seed N] [--seconds S] [--sets K] [--trace] [--json FILE]
//!                                                           all four workloads, interleaved
//! benchmark compare OLD.json NEW.json                       verdict per workload x metric
//! ```

use std::process::ExitCode;

use disco_perfbench::driver::Limit;
use disco_perfbench::gen::WorkloadKind;
use disco_perfbench::json::Json;
use disco_perfbench::report;

const USAGE: &str = "usage:
  benchmark --workload <fed_pushdown|mediator_combine|plan_wide|serve_degraded>
            [--seed N] [--seconds S] [--trace 0|1]
  benchmark [suite] [--seed N] [--seconds S] [--sets K] [--trace] [--json FILE]
  benchmark compare OLD.json NEW.json";

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 11;
/// Seconds one run measures when none are given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 24.0;

#[derive(Debug, Default)]
struct Args {
    mode: Option<String>,
    files: Vec<String>,
    workload: Option<WorkloadKind>,
    seed: Option<u64>,
    seconds: Option<f64>,
    sets: Option<usize>,
    trace: bool,
    json: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        raw.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < raw.len() {
        let arg = raw[i].as_str();
        match arg {
            "--workload" => {
                let name = value(&mut i, arg)?;
                args.workload = Some(
                    WorkloadKind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                args.seed = Some(
                    value(&mut i, arg)?
                        .parse()
                        .map_err(|_| "--seed wants a whole number")?,
                );
            }
            "--seconds" => {
                let seconds: f64 = value(&mut i, arg)?
                    .parse()
                    .map_err(|_| "--seconds wants a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(seconds);
            }
            "--sets" => {
                let sets: usize = value(&mut i, arg)?
                    .parse()
                    .map_err(|_| "--sets wants a whole number")?;
                if !(1..=100).contains(&sets) {
                    return Err("--sets must be in 1..=100".into());
                }
                args.sets = Some(sets);
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                match raw.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        args.trace = false;
                        i += 1;
                    }
                    Some("1") => {
                        args.trace = true;
                        i += 1;
                    }
                    _ => args.trace = true,
                }
            }
            "--json" => args.json = Some(value(&mut i, arg)?),
            "-h" | "--help" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            word if args.mode.is_none() && args.workload.is_none() => {
                args.mode = Some(word.to_owned());
            }
            word => args.files.push(word.to_owned()),
        }
        i += 1;
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let failed = |any: bool| {
        if any {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    };
    match (args.mode.as_deref(), args.workload) {
        (Some("compare"), _) => {
            let [old, new] = args.files.as_slice() else {
                return Err(format!("compare wants two result files\n{USAGE}"));
            };
            let (table, acceptable) = report::compare(&read_json(old)?, &read_json(new)?)?;
            print!("{table}");
            Ok(failed(!acceptable))
        }
        // One pass, in this process: what a run's children execute.
        (Some("pass"), Some(kind)) => {
            let result = report::pass_child(kind, seed, Limit::seconds(seconds), args.trace)?;
            println!("{}", report::pass_json(&result));
            Ok(ExitCode::SUCCESS)
        }
        // One run of one workload: the form the regression driver calls.
        (None, Some(kind)) => {
            let run = report::run_workload(kind, seed, seconds, args.trace)?;
            print!("{}", report::run_table(kind, &run, "passes"));
            println!("{}", report::result_line(&run, args.trace));
            Ok(failed(run.failed > 0))
        }
        (None | Some("suite"), None) => {
            let (document, any_failed) = report::suite(
                &WorkloadKind::ALL,
                seed,
                seconds,
                args.sets.unwrap_or(3),
                args.trace,
            )?;
            if let Some(path) = &args.json {
                std::fs::write(path, format!("{document}\n"))
                    .map_err(|e| format!("{path}: {e}"))?;
                eprintln!("wrote {path}");
            } else {
                println!("{document}");
            }
            Ok(failed(any_failed))
        }
        (Some(other), _) => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    // Before any thread exists: every layer runs at its defaults.
    report::scrub_environment();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    run(&args).unwrap_or_else(|message| {
        eprintln!("error: {message}");
        ExitCode::FAILURE
    })
}

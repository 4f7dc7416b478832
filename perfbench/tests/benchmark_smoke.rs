//! Smoke and determinism tests of the benchmark itself: every workload
//! at smoke scale, in-process, a few operations each.

use std::collections::BTreeSet;

use disco_perfbench::driver::{run_pass, Limit, Pass};
use disco_perfbench::gen::{Action, Scale, Shape, Workload, WorkloadKind};
use disco_perfbench::json::Json;
use disco_perfbench::metrics::{END_TO_END, PER_LAYER};
use disco_perfbench::report::why;
use disco_value::{StructValue, Value};

fn smoke(kind: WorkloadKind, seed: u64) -> Workload {
    Workload::new(kind, seed, Scale::Smoke, 2)
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Json, table: &str) -> Vec<(String, String, String)> {
    doc.get(table)
        .and_then(Json::as_arr)
        .expect("table present")
        .iter()
        .map(|entry| {
            let field = |key| entry.get(key).and_then(Json::as_str).expect(key).to_owned();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_the_code_emits() {
    let doc = benchmark_json();
    for (table, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let in_code: Vec<_> = defs
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(declared(&doc, table), in_code, "{table}");
    }
    for entry in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let name = entry.get("name").and_then(Json::as_str).unwrap();
        let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
        let def = END_TO_END.iter().find(|d| d.name == name).unwrap();
        assert_eq!(bound, def.bound, "{name}");
    }
    let field = |w: &Json, key| w.get(key).and_then(Json::as_str).unwrap().to_owned();
    let workloads: Vec<_> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let in_code: Vec<_> = WorkloadKind::ALL
        .iter()
        .map(|k| (k.name().to_owned(), why(*k).to_owned()))
        .collect();
    assert_eq!(workloads, in_code);
}

#[test]
fn every_workload_emits_exactly_the_declared_metric_names() {
    let well_formed = |name: &str| {
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for kind in WorkloadKind::ALL {
        let untraced = run_pass(smoke(kind, 11), Limit::ops(20), false).expect("untraced pass");
        assert_eq!(
            untraced.failed,
            0,
            "{}: {:?}",
            kind.name(),
            untraced.failures
        );
        assert!(untraced.attempted >= 20);
        for def in END_TO_END {
            let value = untraced.metrics.get(def.name).copied();
            // 20 smoke operations of waiting cost a few 10 ms clock ticks
            // of CPU, less than the checks' wall time when the other
            // tests of this binary compete for the cores.
            let coarse = def.name == "cpu_ms_per_query" && kind == WorkloadKind::ServeDegraded;
            assert!(
                value.is_some_and(|v| v > 0.0 || (coarse && v == 0.0)),
                "{}: end-to-end metric {} must be measured and non-zero, got {value:?}",
                kind.name(),
                def.name
            );
        }
        let traced = run_pass(smoke(kind, 11), Limit::ops(40), true).expect("traced pass");
        assert_eq!(traced.failed, 0, "{}: {:?}", kind.name(), traced.failures);
        let emitted: BTreeSet<&str> = traced.metrics.keys().map(String::as_str).collect();
        let declared: BTreeSet<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(emitted, declared, "{}", kind.name());
        assert!(emitted.iter().all(|name| well_formed(name)));
        assert!(traced.metrics.values().all(|v| v.is_finite()));
        let trace = traced.trace.expect("a traced pass keeps its spans");
        let names: BTreeSet<&str> = trace.spans().iter().map(|s| s.name).collect();
        for stage in [
            "oql.parse",
            "oql.resolve",
            "optimizer.compile",
            "optimizer.optimize",
            "algebra.lower",
            "runtime.resolve",
            "runtime.combine",
            "runtime.execute",
            "wrapper.submit",
        ] {
            assert!(names.contains(stage), "{}: no {stage} span", kind.name());
        }
        assert!(!trace.counts().is_empty());
    }
}

#[test]
fn same_seed_repeats_the_sequence_and_the_exact_counters() {
    // The one-client workloads: with one client nothing interleaves, so
    // the boundary counts that do not depend on the chosen plan repeat
    // exactly.
    for kind in [
        WorkloadKind::FedPushdown,
        WorkloadKind::MediatorCombine,
        WorkloadKind::PlanWide,
    ] {
        let run = || run_pass(smoke(kind, 11), Limit::ops(60), false).expect("pass");
        let (a, b) = (run(), run());
        assert_eq!(a.attempted, b.attempted);
        let mut counters = vec![
            "wrapper.calls",
            "wrapper.rows_scanned",
            "optimizer.plan_cache_hit_ratio",
        ];
        if kind == WorkloadKind::MediatorCombine {
            // Get-only wrappers leave the optimizer one alternative, so
            // the plan — and with it what is shipped and buffered — is a
            // function of the text.  Where wrappers are capable, which
            // alternative wins depends on the calibration store, and the
            // store records wall-clock time: rows transferred are then
            // not a function of the seed (see the README's findings).
            counters.extend(["runtime.rows_transferred", "runtime.rows_materialized"]);
        }
        for counter in counters {
            assert_eq!(
                a.metrics[counter],
                b.metrics[counter],
                "{}: {counter} must repeat for a seed",
                kind.name()
            );
        }
    }
}

#[test]
fn another_seed_moves_fresh_texts_and_the_fault_schedule() {
    let fresh = |seed| -> BTreeSet<String> {
        smoke(WorkloadKind::PlanWide, seed)
            .texts()
            .iter()
            .filter(|(shape, _)| *shape == Shape::Fresh)
            .map(|(_, text)| text.clone())
            .collect()
    };
    assert_eq!(fresh(11), fresh(11));
    assert_ne!(fresh(11), fresh(12));
    let faults = |seed| -> Vec<u64> {
        let w = smoke(WorkloadKind::ServeDegraded, seed);
        (0..2000)
            .filter(|i| w.op(0, *i).action != Action::Query)
            .collect()
    };
    assert_eq!(faults(11), faults(11));
    assert_ne!(faults(11), faults(12));
    // Two sessions of one seed do not fail in lock-step either.
    let w = smoke(WorkloadKind::ServeDegraded, 11);
    let of_client = |c| -> Vec<u64> {
        (0..2000)
            .filter(|i| w.op(c, *i).action != Action::Query)
            .collect()
    };
    assert_ne!(of_client(0), of_client(1));
}

#[test]
fn serve_degraded_recombines_every_partial_answer() {
    let result = run_pass(
        smoke(WorkloadKind::ServeDegraded, 11),
        Limit::ops(150),
        false,
    )
    .expect("pass");
    assert_eq!(result.failed, 0, "{:?}", result.failures);
    // Both kinds of fault occurred and were timed.
    assert!(
        result.metrics["partial_ms_p50"] >= 40.0,
        "the deadline is 40 ms"
    );
    assert!(result.metrics["refused_ms_p50"] > 0.0);
    assert!(result.metrics["resubmit_ms_p50"] > 0.0);
}

#[test]
fn an_injected_wrong_answer_is_counted_as_failed() {
    let mut pass = Pass::set_up(smoke(WorkloadKind::FedPushdown, 11)).expect("set-up");
    let clean = pass.run(Limit::ops(24), None);
    assert_eq!(clean.sum("failed"), 0.0, "{:?}", clean.failures);
    // The oracle has now seen every text's full answer.  A source grows a
    // row that passes every filter: from here on the program's answers no
    // longer match what the oracle recorded.
    let intruder = StructValue::new(vec![
        ("id", Value::Int(1_000_000)),
        ("name", Value::from("intruder")),
        ("salary", Value::Int(499)),
    ])
    .expect("distinct fields");
    pass.bed.stores[0]
        .insert("person0", intruder)
        .expect("the table exists");
    let tampered = pass.run(Limit::ops(24), None);
    assert_eq!(tampered.sum("attempted"), 24.0);
    assert_eq!(
        tampered.sum("failed"),
        24.0,
        "every answer now differs from the recorded one: {:?}",
        tampered.failures
    );
}

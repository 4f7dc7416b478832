//! E9 — mediator evaluator throughput (the "combine step").
//!
//! Drives the physical evaluator directly over in-memory bags — no
//! wrappers, no network simulation — so the numbers isolate the cost of
//! the mediator-side combine step that §3.3's `mkunion`/join/distinct
//! algorithms implement.  Pipelines: filter, project (map), hash join,
//! and distinct over 10k–100k-row person bags, built by the same
//! [`disco_bench::workloads`] helpers the harness E9 experiment uses.
//!
//! This bench is the before/after yardstick for the combine-step
//! optimisations: the zero-clone value plane (Arc-backed rows, a real
//! `HashMap` join table, the layered row environment) and the streaming
//! cursor engine (pull-based pipelines that only materialize at pipeline
//! breakers, lazy hash-join output rows).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use disco_algebra::{lower, LogicalExpr, ScalarExpr, ScalarOp};
use disco_bench::workloads::{
    e9_deep_pipeline_plan, e9_distinct_plan, e9_filter_project_plan, e9_hash_join_plan,
    e9_person_bag,
};
use disco_runtime::{evaluate_physical, ResolvedExecs};

fn bench_evaluator(c: &mut Criterion) {
    let resolved = ResolvedExecs::default();
    let mut group = c.benchmark_group("e9_evaluator_throughput");
    group.sample_size(10);

    for &rows in &[10_000usize, 100_000] {
        let plan = lower(&e9_filter_project_plan(rows)).expect("lowers");
        group.bench_with_input(BenchmarkId::new("filter_project", rows), &rows, |b, _| {
            b.iter(|| evaluate_physical(&plan, &resolved).unwrap());
        });
    }

    // Hash join: |left| = rows, |right| = rows / 10, shared id space so
    // every right row matches ~10 left rows.
    for &rows in &[10_000usize, 100_000] {
        let plan = lower(&e9_hash_join_plan(rows)).expect("lowers");
        group.bench_with_input(BenchmarkId::new("hash_join", rows), &rows, |b, _| {
            b.iter(|| evaluate_physical(&plan, &resolved).unwrap());
        });
    }

    for &rows in &[10_000usize, 100_000] {
        let plan = lower(&e9_distinct_plan(rows)).expect("lowers");
        group.bench_with_input(BenchmarkId::new("distinct", rows), &rows, |b, _| {
            b.iter(|| evaluate_physical(&plan, &resolved).unwrap());
        });
    }

    // Deep pipeline (filter → hash-join → project → distinct): four
    // chained operators, of which only the join build side and the
    // distinct seen-set buffer rows under the streaming engine.
    for &rows in &[10_000usize, 100_000] {
        let plan = lower(&e9_deep_pipeline_plan(rows)).expect("lowers");
        group.bench_with_input(BenchmarkId::new("deep_pipeline", rows), &rows, |b, _| {
            b.iter(|| evaluate_physical(&plan, &resolved).unwrap());
        });
    }

    // Nested-loop join at a smaller scale (quadratic): the baseline the
    // hash join is compared against.
    let nl_plan = lower(
        &LogicalExpr::Join {
            left: Box::new(LogicalExpr::Data(e9_person_bag(1_000, 1024)).bind("x")),
            right: Box::new(LogicalExpr::Data(e9_person_bag(100, 1024)).bind("y")),
            predicate: Some(ScalarExpr::binary(
                ScalarOp::Lt,
                ScalarExpr::var_field("x", "id"),
                ScalarExpr::var_field("y", "id"),
            )),
        }
        .map_project(ScalarExpr::var_field("x", "name")),
    )
    .expect("lowers");
    group.bench_function("nested_loop_join/1000x100", |b| {
        b.iter(|| evaluate_physical(&nl_plan, &resolved).unwrap());
    });

    group.finish();
}

criterion_group!(benches, bench_evaluator);
criterion_main!(benches);

//! E7 — the Prototype 0 pipeline (bench counterpart of Fig. 2).
//!
//! Measures each stage of the pipeline — parse, optimize, execute — and
//! the end-to-end path for the mixed workload query.

use criterion::{criterion_group, criterion_main, Criterion};
use disco_bench::workloads::person_federation;
use disco_core::CapabilitySet;
use disco_oql::parse_query;
use disco_runtime::Executor;

const QUERY: &str = "select x.name from x in person where x.salary > 250";

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_pipeline");
    group.sample_size(30);
    let federation = person_federation(4, 100, CapabilitySet::full());
    group.bench_function("parse", |b| {
        b.iter(|| parse_query(QUERY).unwrap());
    });
    group.bench_function("optimize", |b| {
        b.iter(|| federation.mediator.explain(QUERY).unwrap());
    });
    let plan = federation.mediator.explain(QUERY).unwrap().plan;
    let executor = Executor::new(federation.mediator.registry().clone());
    group.bench_function("execute", |b| {
        b.iter(|| {
            executor
                .execute(&plan.physical, federation.mediator.catalog())
                .unwrap()
        });
    });
    group.bench_function("end_to_end", |b| {
        b.iter(|| federation.mediator.query(QUERY).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);

//! E10 — federation overlap (bench counterpart).
//!
//! Streamed vs blocking source resolution over a federation with one
//! degraded (~10x slower) source: the streamed path combines fast
//! sources' chunks while the slow wrapper is still answering, so
//! wall-clock tracks the slowest source alone instead of slowest +
//! combine.  The full sweep (with the `BENCH_e10.json` record) lives in
//! `harness e10`; this bench keeps the path under the CI bitrot guard.

use criterion::{criterion_group, criterion_main, Criterion};
use disco_bench::experiments::{e10_federation_overlap, Scale};

fn bench_federation_overlap(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_federation_overlap");
    group.sample_size(10);
    group.bench_function("streamed_vs_blocking_quick", |b| {
        b.iter(|| e10_federation_overlap(Scale::quick()));
    });
    group.finish();
}

criterion_group!(benches, bench_federation_overlap);
criterion_main!(benches);

//! # disco-bench
//!
//! Workload builders, experiment implementations and reporting used by the
//! `harness` binary and the Criterion benches.  Every experiment in
//! [`experiments::ALL`] is a function returning a [`report::Report`]; the
//! harness prints the tables recorded in `BENCH_eN.json` and ROADMAP's
//! Performance section, the benches measure the same code paths at a
//! smaller scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workloads;

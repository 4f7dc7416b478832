//! # disco-perfbench
//!
//! The repository's benchmark: four named workloads driven from OQL text
//! to checked answer through the public entry points (`Mediator::query`,
//! `Session::query`), with a traced run that attributes a query's time to
//! the crate it was spent in.  See `perfbench/README.md` for how to run
//! it, the metric glossary, and why each workload exists.
//!
//! * [`gen`] — the seed-determined workload generator,
//! * [`driver`] — federation set-up and the closed-loop clients,
//! * [`staged`] — the stage-by-stage replay of the traced pass,
//! * [`oracle`] — the answer checks,
//! * [`trace`] — the span recorder,
//! * [`stats`] — order statistics and `/proc` counters,
//! * [`metrics`] — the metric tables `BENCHMARK.json` mirrors,
//! * [`report`] — runs, suites, the machine record and `compare`,
//! * [`json`] — the JSON the above read and write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod staged;
pub mod stats;
pub mod trace;

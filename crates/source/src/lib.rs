//! # disco-source
//!
//! Simulated heterogeneous data sources for the DISCO reproduction.
//!
//! The paper evaluates DISCO against autonomous remote servers (relational
//! DBMSs, WAIS servers, file systems).  This crate substitutes
//! deterministic in-process equivalents that exercise the same code paths
//! through the wrapper interface:
//!
//! * [`RelationalStore`] / [`Table`] — an in-memory relational source,
//! * [`CsvSource`] — a flat-file source whose only native operation is a
//!   full scan,
//! * [`DocumentStore`] — a keyword-searchable, WAIS-style source,
//! * [`SimulatedLink`] / [`NetworkProfile`] — the simulated network path
//!   (latency, jitter, availability, fail/slow injection) that drives the
//!   partial-evaluation and cost-calibration experiments,
//! * [`generator`] — seeded workload generators (persons, students,
//!   employees/managers, water-quality measurements, documents).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csv_source;
mod document;
mod error;
pub mod generator;
mod net;
mod relational;

pub use csv_source::{parse_csv, CsvSource};
pub use document::{Document, DocumentStore};
pub use error::SourceError;
pub use net::{Availability, LinkDelay, NetworkProfile, SimulatedLink};
pub use relational::{RelationalStore, Table};

/// Convenience result alias for source operations.
pub type Result<T> = std::result::Result<T, SourceError>;

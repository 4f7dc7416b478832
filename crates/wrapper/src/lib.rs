//! # disco-wrapper
//!
//! The wrapper layer of DISCO (§1.4, §3.2): the [`Wrapper`] trait through
//! which the mediator ships logical expressions to data sources, the
//! shared evaluator for pushed expressions, concrete wrappers for the
//! simulated sources (relational, CSV, document), application of local
//! transformation maps at the boundary, and the run-time type check.
//!
//! Each wrapper advertises a [`disco_algebra::CapabilitySet`] via
//! `capabilities()` (the paper's `submit-functionality` call); the
//! optimizer only pushes expressions a wrapper accepts, and the wrapper
//! re-checks at run time.  A wrapper has one call,
//! [`Wrapper::submit_into`] (the paper's `submit`), and it streams: chunks
//! go into an [`AnswerSink`], and [`AnswerSink::pause`] is where a wrapper
//! waits out link time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csv_wrapper;
mod document_wrapper;
mod error;
mod eval;
mod interface;
mod mapping;
mod relational_wrapper;
mod streaming;

pub use csv_wrapper::CsvWrapper;
pub use document_wrapper::DocumentWrapper;
pub use error::WrapperError;
pub use eval::{eval_pushed, PushedResult, RowProvider};
pub use interface::{AnswerSink, AnswerSummary, Wrapper, WrapperRegistry};
pub use mapping::{
    check_type_conformance, expected_after_expr, map_expr_to_source, map_rows_to_mediator,
};
pub use relational_wrapper::RelationalWrapper;

/// Convenience result alias for wrapper operations.
pub type Result<T> = std::result::Result<T, WrapperError>;

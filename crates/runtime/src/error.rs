use std::fmt;

/// Errors produced by the run-time system.
///
/// Note that an *unavailable data source* is deliberately **not** an error:
/// it produces a partial answer (§4).  Errors here are hard failures —
/// capability violations, type conflicts, malformed plans.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A wrapper reported a hard error (capability violation, type
    /// conflict, unknown table, …).
    Wrapper(disco_wrapper::WrapperError),
    /// An evaluation error at the mediator.
    Algebra(disco_algebra::AlgebraError),
    /// A catalog lookup failed while executing (missing extent, wrapper or
    /// repository binding).
    Catalog(disco_catalog::CatalogError),
    /// The plan references a wrapper name with no registered implementation.
    UnknownWrapper(String),
    /// The plan has a shape the executor cannot evaluate.
    Unsupported(String),
    /// A wrapper call panicked on a worker of the call executor during
    /// streamed resolution.  The panic is contained (`catch_unwind`),
    /// converted to this error, and surfaced to the consumers of the
    /// call's spool like any evaluation failure — never a hang, never a
    /// process abort.
    WorkerPanic(String),
    /// A *pending* (still-streaming) source was classified unavailable —
    /// either its wrapper reported unavailability mid-stream or the
    /// execution deadline expired while it was still answering.  It is
    /// the pass's branch-local unwind: a root union drops the branch that
    /// reads the source and streams on, and under any other root the
    /// executor ends the pass with no data.  It is **not** a hard error
    /// for callers of [`crate::Executor::execute`].
    PendingUnavailable(String),
    /// A spill file of a memory-budgeted pipeline breaker could not be
    /// written or read back (disk full, spill directory missing, corrupt
    /// run).  Only produced when a memory budget is configured
    /// (`PipelineOptions::mem_budget` / `DISCO_MEM_BUDGET`); the default
    /// unbounded configuration never touches disk.
    Spill(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Wrapper(err) => write!(f, "wrapper error: {err}"),
            RuntimeError::Algebra(err) => write!(f, "evaluation error: {err}"),
            RuntimeError::Catalog(err) => write!(f, "catalog error: {err}"),
            RuntimeError::UnknownWrapper(name) => write!(f, "no wrapper registered under: {name}"),
            RuntimeError::Unsupported(msg) => write!(f, "unsupported plan shape: {msg}"),
            RuntimeError::WorkerPanic(msg) => {
                write!(f, "wrapper call panicked on its worker: {msg}")
            }
            RuntimeError::PendingUnavailable(repository) => {
                write!(
                    f,
                    "source {repository} became unavailable during streamed resolution \
                     (what reads it goes residual)"
                )
            }
            RuntimeError::Spill(msg) => write!(f, "spill i/o error: {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Wrapper(err) => Some(err),
            RuntimeError::Algebra(err) => Some(err),
            RuntimeError::Catalog(err) => Some(err),
            _ => None,
        }
    }
}

impl From<disco_wrapper::WrapperError> for RuntimeError {
    fn from(err: disco_wrapper::WrapperError) -> Self {
        RuntimeError::Wrapper(err)
    }
}

impl From<disco_algebra::AlgebraError> for RuntimeError {
    fn from(err: disco_algebra::AlgebraError) -> Self {
        RuntimeError::Algebra(err)
    }
}

impl From<disco_catalog::CatalogError> for RuntimeError {
    fn from(err: disco_catalog::CatalogError) -> Self {
        RuntimeError::Catalog(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: RuntimeError = disco_algebra::AlgebraError::DivisionByZero.into();
        assert_eq!(e.to_string(), "evaluation error: division by zero");
        let e: RuntimeError = disco_catalog::CatalogError::UnknownExtent("x".into()).into();
        assert!(matches!(e, RuntimeError::Catalog(_)));
        assert_eq!(
            RuntimeError::UnknownWrapper("w9".into()).to_string(),
            "no wrapper registered under: w9"
        );
    }
}

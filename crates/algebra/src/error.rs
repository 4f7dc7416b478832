use std::fmt;

/// Errors produced while building, transforming or evaluating algebra
/// expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgebraError {
    /// A scalar expression referenced an attribute the row does not have.
    UnknownAttribute(String),
    /// A scalar expression referenced a range variable that is not bound.
    UnknownVariable(String),
    /// A value had the wrong type for the operation.
    Type(String),
    /// Division by zero.
    DivisionByZero,
    /// Integer arithmetic (or an integer `sum`) left the `i64` range.
    IntegerOverflow,
    /// A sub-query appeared where the evaluation context cannot evaluate
    /// one (e.g. inside an expression pushed to a wrapper).
    SubqueryNotSupported,
    /// An operator was pushed to a wrapper that does not support it.
    CapabilityViolation {
        /// The operator that was rejected.
        operator: String,
        /// The wrapper whose capabilities were violated.
        wrapper: String,
    },
    /// A capability grammar could not be parsed.
    InvalidGrammar(String),
    /// The expression shape is not supported by this operation.
    Unsupported(String),
    /// A value-level error from `disco-value`.
    Value(disco_value::ValueError),
}

impl fmt::Display for AlgebraError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgebraError::UnknownAttribute(a) => write!(f, "unknown attribute: {a}"),
            AlgebraError::UnknownVariable(v) => write!(f, "unknown range variable: {v}"),
            AlgebraError::Type(msg) => write!(f, "type error: {msg}"),
            AlgebraError::DivisionByZero => write!(f, "division by zero"),
            AlgebraError::IntegerOverflow => write!(f, "integer overflow"),
            AlgebraError::SubqueryNotSupported => {
                write!(f, "sub-query evaluation not supported in this context")
            }
            AlgebraError::CapabilityViolation { operator, wrapper } => {
                write!(f, "wrapper {wrapper} does not support operator {operator}")
            }
            AlgebraError::InvalidGrammar(msg) => write!(f, "invalid capability grammar: {msg}"),
            AlgebraError::Unsupported(msg) => write!(f, "unsupported expression: {msg}"),
            AlgebraError::Value(err) => write!(f, "value error: {err}"),
        }
    }
}

impl std::error::Error for AlgebraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgebraError::Value(err) => Some(err),
            _ => None,
        }
    }
}

impl From<disco_value::ValueError> for AlgebraError {
    fn from(err: disco_value::ValueError) -> Self {
        AlgebraError::Value(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            AlgebraError::UnknownAttribute("salary".into()).to_string(),
            "unknown attribute: salary"
        );
        assert_eq!(
            AlgebraError::CapabilityViolation {
                operator: "join".into(),
                wrapper: "w1".into()
            }
            .to_string(),
            "wrapper w1 does not support operator join"
        );
    }

    #[test]
    fn value_error_converts() {
        let err: AlgebraError = disco_value::ValueError::NoSuchField { field: "x".into() }.into();
        assert!(matches!(err, AlgebraError::Value(_)));
    }
}

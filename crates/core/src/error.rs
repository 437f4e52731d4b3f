//! Crate-wide error type.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by `isgc-core`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A placement or code was requested with parameters outside its valid
    /// range (e.g. FR with `c ∤ n`, or HR violating Theorem 6).
    InvalidParameters {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// Classic gradient coding could not decode: more than `c − 1` workers
    /// straggled, so the all-ones vector is outside the span of the received
    /// codeword coefficients.
    TooManyStragglers {
        /// Number of workers that responded.
        available: usize,
        /// Minimum number of workers classic GC needs (`n − c + 1`).
        required: usize,
    },
}

impl Error {
    /// Convenience constructor for [`Error::InvalidParameters`].
    pub(crate) fn invalid(reason: impl Into<String>) -> Self {
        Error::InvalidParameters {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidParameters { reason } => {
                write!(f, "invalid parameters: {reason}")
            }
            Error::TooManyStragglers {
                available,
                required,
            } => write!(
                f,
                "classic gradient coding needs at least {required} workers, got {available}"
            ),
        }
    }
}

impl StdError for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(Error::invalid("c must divide n")
            .to_string()
            .contains("c must divide n"));
        let e = Error::TooManyStragglers {
            available: 2,
            required: 3,
        };
        assert!(e.to_string().contains("at least 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + StdError + 'static>() {}
        assert_bounds::<Error>();
    }
}

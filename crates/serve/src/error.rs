//! Typed errors for the serving layer.

use std::fmt;
use vecsparse::engine::EngineError;

/// Everything that can go wrong between `Client::submit` and a served
/// result. Extends [`EngineError`]: any engine failure during dispatch
/// surfaces verbatim inside [`ServeError::Engine`], so callers keep the
/// engine's typed diagnostics through the serving layer.
///
/// Marked `#[non_exhaustive]` like `EngineError`: keep a wildcard arm.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// The engine rejected or failed the job (malformed operands,
    /// dimension mismatches, internal invariants — see [`EngineError`]).
    Engine(EngineError),
    /// The submitting tenant is not registered in the [`ServeConfig`].
    ///
    /// [`ServeConfig`]: crate::ServeConfig
    UnknownTenant {
        /// The unregistered tenant name.
        tenant: String,
    },
    /// Admission control rejected the job: the tenant's queue is at its
    /// configured depth limit (backpressure — retry later).
    QueueFull {
        /// The tenant whose queue is full.
        tenant: String,
        /// Jobs currently queued for the tenant.
        depth: usize,
        /// The tenant's configured depth limit.
        limit: usize,
    },
    /// The server has shut down; no further submissions are accepted
    /// (jobs already queued at shutdown still drain and complete).
    Closed,
    /// A [`ServeConfig`] builder invariant was violated.
    ///
    /// [`ServeConfig`]: crate::ServeConfig
    InvalidConfig {
        /// Which invariant.
        what: &'static str,
    },
    /// The worker panicked while planning or running the job's batch.
    /// Every job of that batch fails with this error; the worker goes on
    /// serving later batches.
    WorkerPanicked {
        /// The panic message (empty when the payload was not a string).
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error while serving: {e}"),
            ServeError::UnknownTenant { tenant } => {
                write!(f, "unknown tenant: {tenant:?} is not registered")
            }
            ServeError::QueueFull {
                tenant,
                depth,
                limit,
            } => write!(
                f,
                "admission rejected: tenant {tenant:?} queue full ({depth}/{limit})"
            ),
            ServeError::Closed => write!(f, "server closed: submissions are no longer accepted"),
            ServeError::InvalidConfig { what } => write!(f, "invalid serve config: {what}"),
            ServeError::WorkerPanicked { message } => {
                write!(f, "serve worker panicked on the job's batch: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> ServeError {
        ServeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_offender() {
        let e = ServeError::QueueFull {
            tenant: "bulk".into(),
            depth: 64,
            limit: 64,
        };
        assert!(e.to_string().contains("bulk"));
        assert!(e.to_string().contains("64/64"));
        let e: ServeError = EngineError::EmptyBatch.into();
        assert!(e.to_string().contains("empty batch"));
        // The engine error is reachable through the std error chain.
        let src = std::error::Error::source(&e).expect("source");
        assert!(src.to_string().contains("empty batch"));
    }
}

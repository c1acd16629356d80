//! Common error types shared across the workspace.

use std::fmt;

/// Workspace-wide result alias.
pub type OmResult<T> = Result<T, OmError>;

/// Errors surfaced by substrates and platform bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OmError {
    /// A referenced entity does not exist.
    NotFound(String),
    /// Optimistic or pessimistic concurrency conflict; the operation may be
    /// retried.
    Conflict(String),
    /// A distributed transaction aborted (with reason).
    TxAborted(String),
    /// A business rule rejected the operation (e.g. insufficient stock).
    Rejected(String),
    /// The runtime is shutting down or the target component crashed.
    Unavailable(String),
    /// Request timed out.
    Timeout(String),
    /// A durable store hit an IO failure it cannot ack past: every
    /// further write fails fast until an explicit unwedge repairs the
    /// torn tail. Unlike [`OmError::Internal`] this is an *operational*
    /// state, not a bug — the gateway sheds it with `503 Retry-After`
    /// rather than a 500.
    Wedged(String),
    /// An invariant was violated — indicates a bug, surfaced loudly.
    Internal(String),
}

impl OmError {
    /// Short machine-readable label, used in metrics.
    pub fn label(&self) -> &'static str {
        match self {
            OmError::NotFound(_) => "not_found",
            OmError::Conflict(_) => "conflict",
            OmError::TxAborted(_) => "tx_aborted",
            OmError::Rejected(_) => "rejected",
            OmError::Unavailable(_) => "unavailable",
            OmError::Timeout(_) => "timeout",
            OmError::Wedged(_) => "wedged",
            OmError::Internal(_) => "internal",
        }
    }
}

impl fmt::Display for OmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmError::NotFound(m) => write!(f, "not found: {m}"),
            OmError::Conflict(m) => write!(f, "conflict: {m}"),
            OmError::TxAborted(m) => write!(f, "transaction aborted: {m}"),
            OmError::Rejected(m) => write!(f, "rejected: {m}"),
            OmError::Unavailable(m) => write!(f, "unavailable: {m}"),
            OmError::Timeout(m) => write!(f, "timeout: {m}"),
            OmError::Wedged(m) => write!(f, "storage wedged: {m}"),
            OmError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for OmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = OmError::NotFound("product-3".into());
        assert_eq!(e.to_string(), "not found: product-3");
        assert_eq!(e.label(), "not_found");
        let e = OmError::Wedged("disk".into());
        assert_eq!(e.to_string(), "storage wedged: disk");
        assert_eq!(e.label(), "wedged");
    }
}

//! HTTP-layer error type.
//!
//! Parse errors map to a `400 Bad Request`-style status so the server can
//! answer malformed traffic without tearing the connection down unless the
//! framing itself is unrecoverable.

use std::fmt;

/// Errors produced while parsing or handling HTTP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line is malformed (bad method, target or version).
    BadRequestLine(String),
    /// A header line is malformed.
    BadHeader(String),
    /// The HTTP version is not supported (only HTTP/1.0 and HTTP/1.1 are).
    UnsupportedVersion(String),
    /// The method token is not one we implement.
    UnsupportedMethod(String),
    /// `Content-Length` missing/duplicated/unparsable, or conflicting with
    /// `Transfer-Encoding`.
    BadFraming(String),
    /// A chunked body is malformed.
    BadChunk(String),
    /// The message head exceeds the configured size limit.
    HeadTooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// The body exceeds the configured size limit.
    BodyTooLarge {
        /// The configured limit in bytes.
        limit: usize,
    },
    /// Too many headers.
    TooManyHeaders {
        /// The configured number of header lines.
        limit: usize,
    },
    /// Percent-encoding in the target is invalid.
    BadPercentEncoding(String),
    /// The connection was closed mid-message.
    UnexpectedEof,
}

impl HttpError {
    /// Status code a server should answer this parse failure with.
    pub fn status_code(&self) -> u16 {
        match self {
            HttpError::UnsupportedVersion(_) => 505,
            HttpError::UnsupportedMethod(_) => 501,
            HttpError::HeadTooLarge { .. } => 431,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::TooManyHeaders { .. } => 431,
            _ => 400,
        }
    }

    /// Whether the connection can be reused after answering the error.
    ///
    /// Once framing is broken we no longer know where the next message
    /// starts, so the connection must close.
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            HttpError::UnsupportedMethod(_) | HttpError::BadPercentEncoding(_)
        )
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine(m) => write!(f, "malformed request line: {m}"),
            HttpError::BadHeader(m) => write!(f, "malformed header: {m}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version: {v}"),
            HttpError::UnsupportedMethod(m) => write!(f, "unsupported method: {m}"),
            HttpError::BadFraming(m) => write!(f, "bad message framing: {m}"),
            HttpError::BadChunk(m) => write!(f, "bad chunk: {m}"),
            HttpError::HeadTooLarge { limit } => write!(f, "message head exceeds {limit} bytes"),
            HttpError::BodyTooLarge { limit } => write!(f, "body exceeds {limit} bytes"),
            HttpError::TooManyHeaders { limit } => write!(f, "more than {limit} headers"),
            HttpError::BadPercentEncoding(m) => write!(f, "invalid percent-encoding: {m}"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-message"),
        }
    }
}

impl std::error::Error for HttpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_match_error_class() {
        assert_eq!(HttpError::BadRequestLine("x".into()).status_code(), 400);
        assert_eq!(HttpError::UnsupportedVersion("HTTP/2".into()).status_code(), 505);
        assert_eq!(HttpError::UnsupportedMethod("BREW".into()).status_code(), 501);
        assert_eq!(HttpError::HeadTooLarge { limit: 1 }.status_code(), 431);
        assert_eq!(HttpError::BodyTooLarge { limit: 1 }.status_code(), 413);
        assert_eq!(HttpError::TooManyHeaders { limit: 1 }.status_code(), 431);
    }

    #[test]
    fn framing_errors_are_not_recoverable() {
        assert!(!HttpError::BadFraming("x".into()).is_recoverable());
        assert!(!HttpError::BadChunk("x".into()).is_recoverable());
        assert!(!HttpError::UnexpectedEof.is_recoverable());
        assert!(HttpError::UnsupportedMethod("BREW".into()).is_recoverable());
    }
}

//! The shared error type for the workspace.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, FlockError>;

/// Errors produced anywhere in the reproduction pipeline.
///
/// The variants mirror the failure modes the paper's crawler had to handle:
/// malformed handles, unreachable instances, rate limiting, missing or
/// restricted accounts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlockError {
    /// A string failed to parse as a Mastodon handle.
    InvalidHandle(String),
    /// A search query string failed to parse.
    InvalidQuery(String),
    /// The requested entity does not exist.
    NotFound(String),
    /// The account exists but its content is not accessible
    /// (protected tweets, suspended account, …).
    Forbidden(String),
    /// The caller is rate limited; retry after the given number of
    /// virtual-time seconds.
    RateLimited { retry_after_secs: u64 },
    /// The remote instance is down / unreachable at the moment.
    InstanceUnavailable(String),
    /// The remote instance is inside a scheduled outage window and will
    /// come back after the given number of virtual-time seconds. Unlike
    /// [`FlockError::InstanceUnavailable`] the deadline is known, so a
    /// caller can wait it out deterministically (like a rate limit).
    InstanceOutage { retry_after_secs: u64 },
    /// An opaque pagination cursor was malformed or expired.
    BadCursor(String),
    /// A well-formed pagination cursor points past the end of a dataset
    /// that has shrunk since the cursor was issued.
    StaleCursor(String),
    /// A configuration value is out of range or inconsistent.
    InvalidConfig(String),
    /// Delivery failed: a follow the federation refused while the world was
    /// built, or an injected transient API error.
    DeliveryFailed(String),
    /// The crawler's cumulative virtual rate-limit wait for one logical
    /// request exceeded its configured budget. Not retryable: retrying is
    /// exactly what exhausted the budget.
    RetryBudgetExhausted { waited_secs: u64 },
    /// A persisted JSON artifact (dataset or checkpoint) failed strict
    /// parsing.
    MalformedRecord(String),
    /// The crawl was interrupted (kill switch / shutdown request) and
    /// should be resumed from its checkpoint. Never retryable.
    Interrupted,
}

impl fmt::Display for FlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlockError::InvalidHandle(s) => write!(f, "invalid mastodon handle: {s}"),
            FlockError::InvalidQuery(s) => write!(f, "invalid search query: {s}"),
            FlockError::NotFound(s) => write!(f, "not found: {s}"),
            FlockError::Forbidden(s) => write!(f, "forbidden: {s}"),
            FlockError::RateLimited { retry_after_secs } => {
                write!(f, "rate limited; retry after {retry_after_secs}s")
            }
            FlockError::InstanceUnavailable(s) => write!(f, "instance unavailable: {s}"),
            FlockError::InstanceOutage { retry_after_secs } => {
                write!(f, "instance in outage window; back in {retry_after_secs}s")
            }
            FlockError::BadCursor(s) => write!(f, "bad pagination cursor: {s}"),
            FlockError::StaleCursor(s) => write!(f, "stale pagination cursor: {s}"),
            FlockError::InvalidConfig(s) => write!(f, "invalid configuration: {s}"),
            FlockError::DeliveryFailed(s) => write!(f, "federation delivery failed: {s}"),
            FlockError::RetryBudgetExhausted { waited_secs } => {
                write!(
                    f,
                    "retry budget exhausted after {waited_secs}s of virtual waiting"
                )
            }
            FlockError::MalformedRecord(s) => write!(f, "malformed record: {s}"),
            FlockError::Interrupted => write!(f, "crawl interrupted; resume from checkpoint"),
        }
    }
}

impl std::error::Error for FlockError {}

impl FlockError {
    /// `true` if the error is transient and the operation may be retried
    /// (possibly after waiting). The crawler's retry loop keys off this.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            FlockError::RateLimited { .. }
                | FlockError::InstanceUnavailable(_)
                | FlockError::InstanceOutage { .. }
                | FlockError::DeliveryFailed(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FlockError::RateLimited {
            retry_after_secs: 900,
        };
        assert!(e.to_string().contains("900"));
        assert!(FlockError::NotFound("tw:1".into())
            .to_string()
            .contains("tw:1"));
    }

    #[test]
    fn retryability_classification() {
        assert!(FlockError::RateLimited {
            retry_after_secs: 1
        }
        .is_retryable());
        assert!(FlockError::InstanceUnavailable("x".into()).is_retryable());
        assert!(FlockError::InstanceOutage {
            retry_after_secs: 60
        }
        .is_retryable());
        assert!(!FlockError::Interrupted.is_retryable());
        assert!(!FlockError::NotFound("x".into()).is_retryable());
        assert!(!FlockError::Forbidden("x".into()).is_retryable());
        assert!(!FlockError::InvalidQuery("x".into()).is_retryable());
        assert!(!FlockError::StaleCursor("x".into()).is_retryable());
        assert!(!FlockError::RetryBudgetExhausted { waited_secs: 1 }.is_retryable());
        assert!(!FlockError::MalformedRecord("x".into()).is_retryable());
    }

    #[test]
    fn new_variants_display_their_payloads() {
        assert!(FlockError::StaleCursor("offset 9".into())
            .to_string()
            .contains("offset 9"));
        assert!(FlockError::RetryBudgetExhausted {
            waited_secs: 604801
        }
        .to_string()
        .contains("604801"));
        assert!(FlockError::MalformedRecord("row 3".into())
            .to_string()
            .contains("row 3"));
        assert!(FlockError::InstanceOutage {
            retry_after_secs: 3600
        }
        .to_string()
        .contains("3600"));
        assert!(FlockError::Interrupted.to_string().contains("checkpoint"));
    }
}

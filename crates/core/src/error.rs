//! Error types of the FASE methodology crate.

use fase_dsp::SpectrumError;
use std::fmt;

/// Errors produced by campaign configuration and analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum FaseError {
    /// A campaign configuration parameter is missing or inconsistent.
    InvalidConfig(String),
    /// The supplied spectra do not form a valid campaign (wrong count,
    /// mismatched grids, mismatched alternation labels).
    InvalidSpectra(String),
    /// An underlying spectrum operation failed.
    Spectrum(SpectrumError),
    /// A campaign worker thread died (panicked) before finishing its
    /// capture tasks; the payload is the panic message.
    Worker(String),
    /// A capture task exhausted its retry budget. The runner drops the
    /// affected alternation frequency and degrades to the surviving
    /// spectra; the error itself surfaces only when fewer than two
    /// alternation frequencies survive.
    CaptureFailed {
        /// Planned alternation frequency of the failed capture.
        f_alt: fase_dsp::Hertz,
        /// Sweep-segment index of the failed capture.
        segment: usize,
        /// Attempts made before giving up.
        attempts: u32,
        /// Description of the final attempt's failure.
        cause: String,
    },
    /// The capture cache could not be created or written (I/O failure).
    /// Cache *corruption* is never an error — invalid entries are detected
    /// by their integrity hash and silently recomputed — so this variant
    /// covers only the cases where the sweep cannot proceed at all.
    Cache(String),
    /// The operation was cancelled cooperatively before it could finish —
    /// a deadline expired, a capture budget ran out, or a caller asked for
    /// shutdown. The payload says which. Cancellation is a *normal*
    /// robustness outcome: schedulers that can degrade return a partial
    /// result instead, and this variant surfaces only where nothing
    /// partial exists to return.
    Cancelled(String),
    /// A bounded queue or admission controller refused the work because
    /// the system is at capacity. Carries a retry hint so callers (and the
    /// serving layer's `Retry-After` header) can back off instead of
    /// spinning.
    Busy {
        /// Which capacity limit rejected the work (e.g. `"tenant queue"`,
        /// `"global queue"`).
        scope: String,
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

impl FaseError {
    /// Builds an [`FaseError::InvalidConfig`] error.
    ///
    /// This module is the designated construction site for `FaseError`
    /// variants (fase-lint rule `S-errctor`); the rest of the workspace
    /// goes through these helpers so the error vocabulary stays auditable
    /// in one place.
    pub fn invalid_config(msg: impl Into<String>) -> FaseError {
        FaseError::InvalidConfig(msg.into())
    }

    /// Builds an [`FaseError::InvalidSpectra`] error.
    pub fn invalid_spectra(msg: impl Into<String>) -> FaseError {
        FaseError::InvalidSpectra(msg.into())
    }

    /// Builds an [`FaseError::Worker`] error from a panic or abort message.
    pub fn worker(msg: impl Into<String>) -> FaseError {
        FaseError::Worker(msg.into())
    }

    /// Builds an [`FaseError::CaptureFailed`] error for the capture at
    /// `f_alt`/`segment` that gave up after `attempts` tries.
    pub fn capture_failed(
        f_alt: fase_dsp::Hertz,
        segment: usize,
        attempts: u32,
        cause: impl Into<String>,
    ) -> FaseError {
        FaseError::CaptureFailed {
            f_alt,
            segment,
            attempts,
            cause: cause.into(),
        }
    }

    /// Builds an [`FaseError::Cache`] error.
    pub fn cache(msg: impl Into<String>) -> FaseError {
        FaseError::Cache(msg.into())
    }

    /// Builds an [`FaseError::Cancelled`] error naming what cut the
    /// operation short (deadline, capture budget, explicit cancel).
    pub fn cancelled(reason: impl Into<String>) -> FaseError {
        FaseError::Cancelled(reason.into())
    }

    /// Builds an [`FaseError::Busy`] rejection for the capacity limit
    /// named by `scope`, hinting the caller retry after `retry_after_ms`.
    pub fn busy(scope: impl Into<String>, retry_after_ms: u64) -> FaseError {
        FaseError::Busy {
            scope: scope.into(),
            retry_after_ms,
        }
    }
}

impl fmt::Display for FaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaseError::InvalidConfig(msg) => write!(f, "invalid campaign configuration: {msg}"),
            FaseError::InvalidSpectra(msg) => write!(f, "invalid campaign spectra: {msg}"),
            FaseError::Spectrum(e) => write!(f, "spectrum error: {e}"),
            FaseError::Worker(msg) => write!(f, "campaign worker failed: {msg}"),
            FaseError::CaptureFailed {
                f_alt,
                segment,
                attempts,
                cause,
            } => write!(
                f,
                "capture at f_alt {f_alt} (segment {segment}) failed after {attempts} attempt(s): {cause}"
            ),
            FaseError::Cache(msg) => write!(f, "capture cache: {msg}"),
            FaseError::Cancelled(reason) => write!(f, "cancelled: {reason}"),
            FaseError::Busy {
                scope,
                retry_after_ms,
            } => write!(f, "busy: {scope} full, retry after {retry_after_ms} ms"),
        }
    }
}

impl std::error::Error for FaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FaseError::Spectrum(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpectrumError> for FaseError {
    fn from(e: SpectrumError) -> FaseError {
        FaseError::Spectrum(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = FaseError::InvalidConfig("band not set".into());
        assert!(format!("{e}").contains("band not set"));
        assert!(e.source().is_none());
        let e = FaseError::from(SpectrumError::Empty);
        assert!(e.source().is_some());
        assert!(format!("{e}").contains("spectrum error"));
        let e = FaseError::cache("manifest truncated");
        assert!(format!("{e}").contains("capture cache: manifest truncated"));
        assert!(e.source().is_none());
        let e = FaseError::cancelled("deadline exceeded");
        assert!(format!("{e}").contains("cancelled: deadline exceeded"));
        let e = FaseError::busy("tenant queue", 250);
        assert!(format!("{e}").contains("tenant queue full, retry after 250 ms"));
    }
}

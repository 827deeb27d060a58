//! Capture-campaign health: what the measurement survived.
//!
//! Real FASE campaigns run in hostile RF environments (§2.1): AM broadcast
//! interference, ADC overloads, dropped sweeps. The campaign runner keeps
//! going through such impairments — retrying failed captures, quarantining
//! glitched ones, dropping alternation frequencies whose retry budget is
//! exhausted — and records everything it tolerated here so the analysis
//! report can state exactly how trustworthy the campaign was.

use crate::error::FaseError;
use fase_dsp::Hertz;
use std::fmt;

/// One impairment a capture suffered, tagged for test assertions and for
/// the report. The `tag` is a stable kebab-case identifier supplied by the
/// measurement layer (e.g. `"adc-clip"`, `"interference-burst"`).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Planned alternation frequency of the afflicted capture.
    pub f_alt: Hertz,
    /// Sweep-segment index of the afflicted capture.
    pub segment: usize,
    /// Index of the capture within the segment's averaging cohort.
    pub average: usize,
    /// Zero-based attempt on which the impairment struck.
    pub attempt: u32,
    /// Stable identifier of the impairment class.
    pub tag: String,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @ f_alt {} seg {} avg {} (attempt {})",
            self.tag, self.f_alt, self.segment, self.average, self.attempt
        )
    }
}

/// An alternation frequency dropped from the campaign after one of its
/// captures exhausted its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct DroppedAlternation {
    /// The planned alternation frequency that produced no usable spectrum.
    pub f_alt: Hertz,
    /// Sweep-segment index of the capture that gave up.
    pub segment: usize,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Description of the final attempt's failure.
    pub cause: String,
}

impl DroppedAlternation {
    /// The [`FaseError::CaptureFailed`] this drop records: what a campaign
    /// returns when fewer than two alternation frequencies survive, and
    /// the text the health record prints for the drop.
    pub fn error(&self) -> FaseError {
        FaseError::capture_failed(self.f_alt, self.segment, self.attempts, self.cause.clone())
    }
}

/// Health report of one measurement campaign: retries spent, captures
/// quarantined by the glitch-robust averager, impairments observed, and
/// alternation frequencies dropped into degraded mode.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignHealth {
    /// Alternation frequencies the campaign planned to measure.
    pub planned: usize,
    /// Alternation frequencies that produced a usable spectrum.
    pub surviving: usize,
    /// Capture tasks that needed more than one attempt.
    pub retried_tasks: usize,
    /// Total extra attempts across all capture tasks.
    pub total_retries: usize,
    /// Captures excluded from averaging as gross outliers.
    pub quarantined: usize,
    /// Impairments observed (injected or real), in campaign order.
    pub faults: Vec<FaultRecord>,
    /// Alternation frequencies dropped after retry exhaustion.
    pub dropped: Vec<DroppedAlternation>,
}

impl CampaignHealth {
    /// A pristine health record for a campaign over `planned` alternation
    /// frequencies (surviving count is filled in by the runner).
    pub fn new(planned: usize) -> CampaignHealth {
        CampaignHealth {
            planned,
            surviving: planned,
            ..CampaignHealth::default()
        }
    }

    /// True if fewer alternation frequencies survived than were planned —
    /// the Eq. 1 product is renormalized over the survivors.
    pub fn degraded(&self) -> bool {
        self.surviving < self.planned
    }

    /// True if the campaign completed with no retries, quarantines,
    /// impairments, or drops.
    pub fn is_clean(&self) -> bool {
        !self.degraded()
            && self.retried_tasks == 0
            && self.total_retries == 0
            && self.quarantined == 0
            && self.faults.is_empty()
            && self.dropped.is_empty()
    }

    /// True if any recorded fault carries the given tag.
    pub fn has_fault(&self, tag: &str) -> bool {
        self.faults.iter().any(|f| f.tag == tag)
    }
}

impl fmt::Display for CampaignHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(
                f,
                "capture health: clean ({}/{} spectra)",
                self.surviving, self.planned
            );
        }
        write!(
            f,
            "capture health: {}/{} spectra, {} task(s) retried ({} extra attempt(s)), \
             {} capture(s) quarantined, {} fault(s)",
            self.surviving,
            self.planned,
            self.retried_tasks,
            self.total_retries,
            self.quarantined,
            self.faults.len()
        )?;
        if self.degraded() {
            write!(f, " [DEGRADED]")?;
            for d in &self.dropped {
                write!(f, "\n  dropped f_alt {}: {}", d.f_alt, d.error())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_health_reads_clean() {
        let h = CampaignHealth::new(5);
        assert!(h.is_clean());
        assert!(!h.degraded());
        assert!(format!("{h}").contains("clean (5/5"));
    }

    #[test]
    fn degraded_health_lists_drops() {
        let mut h = CampaignHealth::new(5);
        h.surviving = 3;
        h.total_retries = 4;
        h.retried_tasks = 2;
        h.dropped.push(DroppedAlternation {
            f_alt: Hertz(43_300.0),
            segment: 0,
            attempts: 3,
            cause: "injected task failure".into(),
        });
        assert!(h.degraded());
        assert!(!h.is_clean());
        let text = format!("{h}");
        assert!(text.contains("DEGRADED"), "{text}");
        assert!(text.contains("43.300 kHz"), "{text}");
    }

    #[test]
    fn fault_tags_are_queryable() {
        let mut h = CampaignHealth::new(5);
        h.faults.push(FaultRecord {
            f_alt: Hertz(43_300.0),
            segment: 1,
            average: 2,
            attempt: 0,
            tag: "adc-clip".into(),
        });
        assert!(h.has_fault("adc-clip"));
        assert!(!h.has_fault("gain-glitch"));
        assert!(format!("{}", h.faults[0]).contains("adc-clip"));
        assert!(!h.is_clean());
    }
}

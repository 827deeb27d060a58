//! One-call system audits: the complete §4 workflow.
//!
//! The paper's evaluation of each machine follows a fixed recipe: run the
//! memory-activity campaign (LDM/LDL1) and the on-chip campaign
//! (LDL2/LDL1), classify every carrier by which pair modulates it, group
//! harmonic families, read duty-cycle clues, quantify leakage, and probe
//! anything suspicious for AM-vs-FM. [`audit_system`] performs all of it
//! and returns a single [`SystemAudit`].

use fase_core::{
    classify_by_pairs, estimate_all, CampaignConfig, ClassifiedCarrier, Fase, FaseError,
    FaseReport, LeakageEstimate,
};
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{run_campaign_with_options, CampaignOptions};
use fase_sysmodel::ActivityPair;
use std::fmt;

/// Everything an audit produces.
#[derive(Debug, Clone)]
pub struct SystemAudit {
    /// Report of the memory-activity (LDM/LDL1) campaign.
    pub memory_report: FaseReport,
    /// Report of the on-chip (LDL2/LDL1) campaign.
    pub onchip_report: FaseReport,
    /// Carriers classified by which activity pair modulates them.
    pub classified: Vec<ClassifiedCarrier>,
    /// Leakage upper bounds per carrier of the memory campaign.
    pub leakage: Vec<LeakageEstimate>,
}

impl SystemAudit {
    /// Total distinct carriers across both campaigns.
    pub fn carrier_count(&self) -> usize {
        self.classified.len()
    }

    /// The worst-case (largest) leakage bound, if any carrier was found.
    pub fn worst_leakage_bps(&self) -> Option<f64> {
        self.leakage.first().map(|e| e.capacity_bps)
    }
}

impl fmt::Display for SystemAudit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== system audit: {} carrier(s) ===",
            self.carrier_count()
        )?;
        for c in &self.classified {
            writeln!(f, "  {} -> {}", c.carrier, c.class)?;
        }
        writeln!(f, "leakage bounds (memory campaign):")?;
        for e in &self.leakage {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

/// Audits a simulated system over `[lo, hi]` at the given resolution.
///
/// Runs both activity-pair campaigns with the paper's five-`f_alt`
/// procedure, classifies, and quantifies leakage. Each campaign is one
/// capture pool, so the `system_factory` is called five times per
/// campaign, once per alternation frequency, ten times in all; that
/// frequency's captures share the scene and each drives a clone of the
/// calibrated machine.
///
/// # Errors
///
/// Propagates campaign and analysis failures.
///
/// # Examples
///
/// ```no_run
/// use fase::audit::audit_system;
/// use fase::prelude::*;
/// let audit = audit_system(
///     || SimulatedSystem::intel_i7_desktop(42),
///     Hertz::from_khz(60.0),
///     Hertz::from_mhz(2.0),
///     Hertz(100.0),
///     7,
/// )?;
/// println!("{audit}");
/// # Ok::<(), fase::core::FaseError>(())
/// ```
pub fn audit_system<F>(
    system_factory: F,
    lo: Hertz,
    hi: Hertz,
    resolution: Hertz,
    seed: u64,
) -> Result<SystemAudit, FaseError>
where
    F: Fn() -> SimulatedSystem + Sync,
{
    let config = CampaignConfig::builder()
        .band(lo, hi)
        .resolution(resolution)
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(4)
        .build()?;
    let fase = Fase::default();

    let campaign = |pair: ActivityPair, campaign_seed: u64| {
        run_campaign_with_options(
            &config,
            pair,
            |_| system_factory(),
            campaign_seed,
            CampaignOptions::default(),
        )
    };
    let memory_spectra = campaign(ActivityPair::LdmLdl1, seed.wrapping_add(1))?;
    let memory_report = fase.analyze(&memory_spectra)?;
    let onchip_spectra = campaign(ActivityPair::Ldl2Ldl1, seed.wrapping_add(2))?;
    let onchip_report = fase.analyze(&onchip_spectra)?;

    let classified = classify_by_pairs(&memory_report, &onchip_report, Hertz::from_khz(2.0));
    let leakage = estimate_all(&memory_spectra, &memory_report, Hertz::from_khz(5.0));
    Ok(SystemAudit {
        memory_report,
        onchip_report,
        classified,
        leakage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_core::ModulationClass;

    #[test]
    fn audit_covers_the_narrow_band() {
        let audit = audit_system(
            || SimulatedSystem::intel_i7_desktop(42),
            Hertz::from_khz(250.0),
            Hertz::from_khz(400.0),
            Hertz(200.0),
            31,
        )
        .expect("audit");
        assert!(audit.carrier_count() >= 2, "{audit}");
        // The DRAM regulator classifies memory-related, the core regulator
        // on-chip-related.
        let class_of = |f: f64| {
            audit
                .classified
                .iter()
                .find(|c| (c.carrier.frequency().hz() - f).abs() < 2_000.0)
                .map(|c| c.class)
        };
        assert_eq!(class_of(315_660.0), Some(ModulationClass::MemoryRelated));
        assert_eq!(class_of(332_530.0), Some(ModulationClass::OnChipRelated));
        // Leakage bounds exist and are ordered.
        let worst = audit.worst_leakage_bps().expect("leakage estimates");
        assert!(worst > 0.0);
        for pair in audit.leakage.windows(2) {
            assert!(pair[0].capacity_bps >= pair[1].capacity_bps);
        }
        let text = format!("{audit}");
        assert!(text.contains("system audit"), "{text}");
    }
}

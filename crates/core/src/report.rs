//! The FASE analysis report.

use crate::carrier::Carrier;
use crate::grouping::{group_harmonic_sets, HarmonicSet};
use crate::health::CampaignHealth;
use fase_dsp::Hertz;
use fase_obs::json::quote as json_str;
use std::fmt;

/// Everything a FASE run produces: detected carriers (strongest evidence
/// first), their harmonic-set grouping, and the campaign's capture health.
/// The per-harmonic score traces that a figure plots come from
/// [`crate::heuristic::harmonic_scores`].
///
/// # Examples
///
/// ```
/// use fase_core::{Carrier, FaseReport, Harmonic};
/// use fase_dsp::{Dbm, Hertz};
/// let carrier = |f: f64| Carrier::new(
///     Hertz(f), Dbm(-105.0), Dbm(-120.0),
///     vec![Harmonic { h: 1, score: 50.0 }],
/// );
/// let report = FaseReport::from_carriers(
///     vec![carrier(315_000.0), carrier(630_000.0)],
///     0.003,
/// );
/// // The two carriers group into one harmonic set (1x and 2x of 315 kHz).
/// assert_eq!(report.harmonic_sets().len(), 1);
/// assert!(report.carrier_near(Hertz(315_100.0), Hertz(500.0)).is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaseReport {
    carriers: Vec<Carrier>,
    sets: Vec<HarmonicSet>,
    health: Option<CampaignHealth>,
}

impl FaseReport {
    /// Builds a report from carriers (computing the harmonic grouping with
    /// the given relative tolerance). Used by the analyzer and by tests.
    pub fn from_carriers(carriers: Vec<Carrier>, group_rel_tol: f64) -> FaseReport {
        let sets = group_harmonic_sets(&carriers, group_rel_tol);
        FaseReport {
            carriers,
            sets,
            health: None,
        }
    }

    /// Attaches the campaign's capture-health record.
    pub fn with_health(mut self, health: CampaignHealth) -> FaseReport {
        self.health = Some(health);
        self
    }

    /// The campaign's capture health, if the producer recorded one.
    pub fn health(&self) -> Option<&CampaignHealth> {
        self.health.as_ref()
    }

    /// True if the underlying campaign lost alternation frequencies and
    /// the Eq. 1 product was renormalized over the survivors.
    pub fn is_degraded(&self) -> bool {
        self.health.as_ref().is_some_and(CampaignHealth::degraded)
    }

    /// Detected carriers, strongest combined evidence first.
    pub fn carriers(&self) -> &[Carrier] {
        &self.carriers
    }

    /// Carriers grouped into harmonic sets.
    pub fn harmonic_sets(&self) -> &[HarmonicSet] {
        &self.sets
    }

    /// The carrier nearest to `f` within `tolerance`, if any.
    pub fn carrier_near(&self, f: Hertz, tolerance: Hertz) -> Option<&Carrier> {
        self.carriers
            .iter()
            .filter(|c| (c.frequency() - f).hz().abs() <= tolerance.hz())
            .min_by(|a, b| {
                let da = (a.frequency() - f).hz().abs();
                let db = (b.frequency() - f).hz().abs();
                da.total_cmp(&db)
            })
    }

    /// True if no carriers were detected.
    pub fn is_empty(&self) -> bool {
        self.carriers.is_empty()
    }

    /// Number of detected carriers.
    pub fn len(&self) -> usize {
        self.carriers.len()
    }

    /// Serializes the report as deterministic JSON: carriers (strongest
    /// evidence first), harmonic sets, and the capture-health record.
    ///
    /// Two reports that compare equal produce byte-identical JSON — floats
    /// are rendered with Rust's shortest-roundtrip formatting — which is
    /// what the sweep scheduler's resumability guarantee is asserted
    /// against.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"carriers\": [");
        let carriers: Vec<String> = self.carriers.iter().map(carrier_json).collect();
        out.push_str(&carriers.join(", "));
        out.push_str("],\n  \"harmonic_sets\": [");
        let sets: Vec<String> = self.sets.iter().map(set_json).collect();
        out.push_str(&sets.join(", "));
        out.push_str("],\n  \"degraded\": ");
        out.push_str(if self.is_degraded() { "true" } else { "false" });
        out.push_str(",\n  \"health\": ");
        match &self.health {
            Some(h) => out.push_str(&health_json(h)),
            None => out.push_str("null"),
        }
        out.push_str("\n}\n");
        out
    }
}

/// Formats an `f64` for JSON with Rust's shortest-roundtrip formatting —
/// deterministic across platforms, bit-exact on re-parse.
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        // JSON has no NaN/Inf; report fields are finite by construction,
        // but a textual escape keeps the serializer total.
        format!("\"{x:?}\"")
    }
}

fn carrier_json(c: &Carrier) -> String {
    let harmonics: Vec<String> = c
        .harmonics()
        .iter()
        .map(|h| format!("{{\"h\": {}, \"score\": {}}}", h.h, json_f64(h.score)))
        .collect();
    format!(
        "{{\"frequency_hz\": {}, \"magnitude_dbm\": {}, \"sideband_dbm\": {}, \
         \"total_log_score\": {}, \"harmonics\": [{}]}}",
        json_f64(c.frequency().hz()),
        json_f64(c.magnitude().dbm()),
        json_f64(c.sideband_magnitude().dbm()),
        json_f64(c.total_log_score()),
        harmonics.join(", ")
    )
}

fn set_json(s: &HarmonicSet) -> String {
    let numbers: Vec<String> = s.harmonic_numbers().iter().map(u32::to_string).collect();
    let members: Vec<String> = s
        .members()
        .iter()
        .map(|c| json_f64(c.frequency().hz()))
        .collect();
    format!(
        "{{\"fundamental_hz\": {}, \"harmonic_numbers\": [{}], \"member_frequencies_hz\": [{}]}}",
        json_f64(s.fundamental().hz()),
        numbers.join(", "),
        members.join(", ")
    )
}

fn health_json(h: &CampaignHealth) -> String {
    let faults: Vec<String> = h
        .faults
        .iter()
        .map(|f| {
            format!(
                "{{\"f_alt_hz\": {}, \"segment\": {}, \"average\": {}, \"attempt\": {}, \
                 \"tag\": {}}}",
                json_f64(f.f_alt.hz()),
                f.segment,
                f.average,
                f.attempt,
                json_str(&f.tag)
            )
        })
        .collect();
    let dropped: Vec<String> = h
        .dropped
        .iter()
        .map(|d| {
            format!(
                "{{\"f_alt_hz\": {}, \"error\": {}}}",
                json_f64(d.f_alt.hz()),
                json_str(&d.error().to_string())
            )
        })
        .collect();
    format!(
        "{{\"planned\": {}, \"surviving\": {}, \"retried_tasks\": {}, \"total_retries\": {}, \
         \"quarantined\": {}, \"faults\": [{}], \"dropped\": [{}]}}",
        h.planned,
        h.surviving,
        h.retried_tasks,
        h.total_retries,
        h.quarantined,
        faults.join(", "),
        dropped.join(", ")
    )
}

impl fmt::Display for FaseReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FASE report: {} carrier(s) in {} harmonic set(s)",
            self.carriers.len(),
            self.sets.len()
        )?;
        for set in &self.sets {
            writeln!(f, "  set @ fundamental {}:", set.fundamental())?;
            for c in set.members() {
                writeln!(f, "    {c}")?;
            }
        }
        if let Some(health) = &self.health {
            if !health.is_clean() {
                writeln!(f, "{health}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carrier::Harmonic;
    use fase_dsp::Dbm;

    fn carrier(f: f64) -> Carrier {
        Carrier::new(
            Hertz(f),
            Dbm(-100.0),
            Dbm(-114.0),
            vec![
                Harmonic { h: 1, score: 40.0 },
                Harmonic { h: -1, score: 30.0 },
            ],
        )
    }

    #[test]
    fn grouping_and_lookup() {
        let report = FaseReport::from_carriers(
            vec![carrier(315_000.0), carrier(630_000.0), carrier(512_000.0)],
            0.002,
        );
        assert_eq!(report.len(), 3);
        assert_eq!(report.harmonic_sets().len(), 2);
        let near = report.carrier_near(Hertz(314_800.0), Hertz(500.0)).unwrap();
        assert_eq!(near.frequency(), Hertz(315_000.0));
        assert!(report
            .carrier_near(Hertz(400_000.0), Hertz(500.0))
            .is_none());
    }

    #[test]
    fn nearest_wins_among_multiple() {
        let report = FaseReport::from_carriers(vec![carrier(100_000.0), carrier(100_900.0)], 0.002);
        let near = report
            .carrier_near(Hertz(100_800.0), Hertz(2_000.0))
            .unwrap();
        assert_eq!(near.frequency(), Hertz(100_900.0));
    }

    #[test]
    fn empty_report() {
        let report = FaseReport::from_carriers(vec![], 0.002);
        assert!(report.is_empty());
        assert!(format!("{report}").contains("0 carrier"));
    }

    #[test]
    fn display_lists_sets() {
        let report = FaseReport::from_carriers(vec![carrier(315_000.0)], 0.002);
        let text = format!("{report}");
        assert!(text.contains("set @ fundamental"), "{text}");
        assert!(text.contains("315.000 kHz"), "{text}");
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let mut health = CampaignHealth::new(5);
        health.surviving = 4;
        health.faults.push(crate::health::FaultRecord {
            f_alt: Hertz(43_300.0),
            segment: 0,
            average: 1,
            attempt: 0,
            tag: "adc-clip".into(),
        });
        health.dropped.push(crate::health::DroppedAlternation {
            f_alt: Hertz(44_300.0),
            segment: 0,
            attempts: 3,
            cause: "said \"no\"".into(),
        });
        let report = FaseReport::from_carriers(vec![carrier(315_000.0), carrier(630_000.0)], 0.003)
            .with_health(health);
        let json = report.to_json();
        assert_eq!(json, report.clone().to_json(), "serialization not stable");
        assert!(json.contains("\"frequency_hz\": 315000.0"), "{json}");
        assert!(json.contains("\"harmonic_numbers\": [1, 2]"), "{json}");
        assert!(json.contains("\"degraded\": true"), "{json}");
        assert!(json.contains("\"tag\": \"adc-clip\""), "{json}");
        assert!(json.contains("said \\\"no\\\""), "escaping broken: {json}");
    }

    #[test]
    fn json_without_health_is_null() {
        let report = FaseReport::from_carriers(vec![], 0.003);
        let json = report.to_json();
        assert!(json.contains("\"health\": null"), "{json}");
        assert!(json.contains("\"carriers\": []"), "{json}");
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_str("tab\there"), "\"tab\\there\"");
        assert_eq!(json_f64(f64::NAN), "\"NaN\"");
    }
}

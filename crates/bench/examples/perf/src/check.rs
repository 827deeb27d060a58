//! Output checks: every op's report must name a carrier near each of the
//! workload's must-find frequencies, and a digest of the reports shows
//! that reruns with the same seed produce the same answers.

use fase_core::FaseReport;
use std::collections::BTreeMap;

/// Reports folded into the digest: the first this many ops of a run. Runs
/// are timed, so their op counts differ; a fixed prefix keeps the digest
/// comparable across reruns.
pub const DIGEST_OPS: usize = 16;

/// Carriers a workload's every report must contain.
#[derive(Debug, Clone, Copy)]
pub struct MustFind {
    /// Frequencies, Hz.
    pub hz: &'static [f64],
    /// How close a reported carrier must be, Hz.
    pub tolerance_hz: f64,
}

impl MustFind {
    /// Must-find frequencies not matched by any of `carriers_hz`.
    pub fn missing(&self, carriers_hz: &[f64]) -> Vec<f64> {
        self.hz
            .iter()
            .copied()
            .filter(|&f| {
                !carriers_hz
                    .iter()
                    .any(|&c| (c - f).abs() <= self.tolerance_hz)
            })
            .collect()
    }
}

/// Carrier frequencies of a report.
pub fn carriers_hz(report: &FaseReport) -> Vec<f64> {
    report
        .carriers()
        .iter()
        .map(|c| c.frequency().hz())
        .collect()
}

/// Attempted and failed ops, the first failure reasons, and the report
/// digest of a run.
#[derive(Debug)]
pub struct Tally {
    must_find: MustFind,
    pub attempted: usize,
    pub failed: usize,
    pub reasons: Vec<String>,
    /// Per-op report hashes of the digest prefix, keyed by op so that
    /// ops finishing out of order (served requests) digest the same.
    report_hashes: BTreeMap<usize, u64>,
}

impl Tally {
    pub fn new(must_find: MustFind) -> Tally {
        Tally {
            must_find,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
            report_hashes: BTreeMap::new(),
        }
    }

    /// Records one op that produced `report_json` with these carriers;
    /// returns whether it passed.
    pub fn report(&mut self, op: usize, report_json: &str, carriers_hz: &[f64]) -> bool {
        self.attempted += 1;
        if op < DIGEST_OPS {
            self.report_hashes
                .insert(op, fnv1a(FNV_OFFSET, report_json.as_bytes()));
        }
        let missing = self.must_find.missing(carriers_hz);
        if missing.is_empty() {
            true
        } else {
            self.fail(format!(
                "op {op}: no carrier within {} Hz of {missing:?} Hz",
                self.must_find.tolerance_hz
            ));
            false
        }
    }

    /// Records one op that did not produce a usable report.
    pub fn error(&mut self, op: usize, why: impl std::fmt::Display) {
        self.attempted += 1;
        self.fail(format!("op {op}: {why}"));
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    /// Failed ops over attempted ops.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Hex digest of the first [`DIGEST_OPS`] reports, with their count.
    pub fn digest(&self) -> String {
        let digest = self.report_hashes.iter().fold(FNV_OFFSET, |h, (op, rh)| {
            fnv1a(fnv1a(h, &(*op as u64).to_le_bytes()), &rh.to_le_bytes())
        });
        format!("{digest:016x}/{}", self.report_hashes.len())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_core::{Carrier, Harmonic};
    use fase_dsp::{Dbm, Hertz};

    const MUST: MustFind = MustFind {
        hz: &[315_300.0, 522_100.0, 1_043_500.0],
        tolerance_hz: 1_000.0,
    };
    const NONE: MustFind = MustFind {
        hz: &[],
        tolerance_hz: 0.0,
    };

    fn report(freqs: &[f64]) -> FaseReport {
        let carriers = freqs
            .iter()
            .map(|&f| {
                Carrier::new(
                    Hertz(f),
                    Dbm(-105.0),
                    Dbm(-120.0),
                    vec![Harmonic { h: 1, score: 50.0 }],
                )
            })
            .collect();
        FaseReport::from_carriers(carriers, 0.003)
    }

    #[test]
    fn a_report_missing_a_carrier_counts_as_failed() {
        let mut tally = Tally::new(MUST);
        let full = report(&[315_660.0, 522_070.0, 1_043_200.0]);
        let short = report(&[315_660.0, 522_070.0]);
        assert!(tally.report(0, &full.to_json(), &carriers_hz(&full)));
        assert!(!tally.report(1, &short.to_json(), &carriers_hz(&short)));
        tally.error(2, "connection refused");
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert!(tally.reasons[0].contains("1043500"), "{:?}", tally.reasons);
    }

    #[test]
    fn tolerance_is_inclusive() {
        assert!(MUST
            .missing(&[316_300.0, 522_100.0, 1_043_500.0])
            .is_empty());
        assert_eq!(
            MUST.missing(&[316_301.0, 522_100.0, 1_043_500.0]),
            vec![315_300.0]
        );
    }

    #[test]
    fn digest_covers_only_the_fixed_prefix() {
        let r = report(&[315_660.0]);
        let json = r.to_json();
        let (mut a, mut b) = (Tally::new(NONE), Tally::new(NONE));
        for op in 0..DIGEST_OPS {
            a.report(op, &json, &[]);
            b.report(DIGEST_OPS - 1 - op, &json, &[]);
        }
        b.report(DIGEST_OPS, "anything after the prefix", &[]);
        assert_eq!(a.digest(), b.digest());
        let mut c = Tally::new(NONE);
        c.report(0, "different", &[]);
        assert_ne!(a.digest(), c.digest());
    }
}

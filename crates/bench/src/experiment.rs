//! Every figure and claim target as one table.
//!
//! Each entry of [`experiments`] is named and is one of two kinds. A
//! *campaign* entry names a simulated system, an activity pair, a campaign
//! and the paper's claims about which carriers FASE reports and which it
//! rejects; [`run`] executes every campaign entry the same way: run the
//! campaign and analyse it, print the carrier table, print each claim as
//! `label: value ✓` (or `✗ (want …)`), print a PASS/FAIL line and write
//! the carriers CSV. A *script* entry is a figure or prose claim with a
//! printout of its own, one module of `crate::figures` each. The
//! `experiment` binary runs an entry by name.

use crate::I7_MEMORY_FAMILIES;
use crate::{figures, fmt_freq, near_harmonic, paper_campaign, print_table, write_csv};
use fase_core::{CampaignConfig, Carrier, Fase, FaseReport};
use fase_dsp::Hertz;
use fase_emsim::{SimulatedSystem, SourceKind};
use fase_specan::run_campaign_with_options;
use fase_sysmodel::ActivityPair;
use std::fmt;

/// One named target of the `experiment` binary.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Name on the `experiment` command line (`[a-z0-9_]+`).
    pub name: &'static str,
    kind: Kind,
}

/// What an [`Experiment`] runs.
#[derive(Debug, Clone)]
enum Kind {
    /// A campaign with the paper's claims about its report.
    Campaign(Campaign),
    /// A figure or claim script that returns whether its claims hold.
    Script(fn() -> bool),
}

/// A system preset and the seed it is built with, the modulating
/// activity pair, the campaign and the seed of its capture tasks, and the
/// paper's claims about the report.
#[derive(Debug, Clone)]
struct Campaign {
    system: fn(u64) -> SimulatedSystem,
    system_seed: u64,
    pair: ActivityPair,
    config: CampaignConfig,
    capture_seed: u64,
    claims: Vec<Claim>,
}

/// One measurement of a report plus the value the paper expects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Printed label.
    pub label: &'static str,
    /// What is measured.
    pub measure: Measure,
    /// The expected value.
    pub expect: Expect,
}

/// A measurement of a [`FaseReport`], against the scene's ground truth
/// where it needs one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// `CarrierNear(f, tol)`: a reported carrier lies within `tol` of `f`.
    CarrierNear(Hertz, Hertz),
    /// `Family(base, n, tol)`: some `k` in `1..=n` has a reported carrier
    /// within `tol` of `k·base`.
    Family(Hertz, u32, Hertz),
    /// Some ground-truth source of this kind that activity modulates has a
    /// reported carrier within 2.5 kHz of one of its first 32 harmonics.
    TruthFamily(SourceKind),
    /// How many in-band ground-truth AM stations have a reported carrier
    /// within this tolerance.
    StationsFlagged(Hertz),
    /// How many in-band ground-truth spurs have a reported carrier within
    /// 1 kHz. A spur within 2 kHz of a harmonic `k ≤ 32` of a genuinely
    /// modulated carrier (315.66, 522.07 or 128 kHz) does not count:
    /// flagging that frequency is correct.
    SpursFlagged,
    /// How many carriers are reported above this frequency.
    CarriersAbove(Hertz),
    /// How many carriers are reported.
    Carriers,
}

/// The value a claim expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A yes/no measure equals this.
    Is(bool),
    /// A count equals this.
    Exactly(usize),
    /// A count is at least this.
    AtLeast(usize),
}

/// The value of a [`Measure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Value {
    /// A yes/no measure.
    Bool(bool),
    /// A count.
    Count(usize),
    /// `Audit(flagged, in_band)`: how many of a ground-truth population
    /// in the campaign's band were flagged.
    Audit(usize, usize),
}

/// The scene's ground truth that claims audit against: the kind and
/// fundamental of every source that activity modulates, and the AM
/// stations and spurs in the campaign's band.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    modulated: Vec<(SourceKind, Hertz)>,
    stations: Vec<Hertz>,
    spurs: Vec<Hertz>,
}

impl GroundTruth {
    /// The ground truth of `system` in `config`'s band.
    pub fn new(system: &SimulatedSystem, config: &CampaignConfig) -> GroundTruth {
        let (sources, spurs) = (system.scene.ground_truth(), system.scene.spur_frequencies());
        let in_band = |f: &Hertz| *f >= config.band_lo() && *f <= config.band_hi();
        let modulated = sources.iter().filter(|s| s.modulated_by.is_some());
        let stations = sources.iter().filter(|s| s.kind == SourceKind::AmBroadcast);
        GroundTruth {
            modulated: modulated.map(|s| (s.kind, s.fundamental)).collect(),
            stations: stations.map(|s| s.fundamental).filter(in_band).collect(),
            spurs: spurs.into_iter().filter(in_band).collect(),
        }
    }
}

impl Measure {
    /// Measures `report`.
    pub(crate) fn of(&self, report: &FaseReport, truth: &GroundTruth) -> Value {
        let near = |f: Hertz, tol: Hertz| report.carrier_near(f, tol).is_some();
        let frequencies = report.carriers().iter().map(Carrier::frequency);
        let family =
            |base: Hertz, n: u32, tol| (1..=n).any(|k| near(Hertz(base.hz() * f64::from(k)), tol));
        let audit = |of: &[Hertz], flagged: &dyn Fn(Hertz) -> bool| {
            Value::Audit(of.iter().filter(|&&f| flagged(f)).count(), of.len())
        };
        let near_genuine = |f: Hertz| near_harmonic(&I7_MEMORY_FAMILIES, f.hz(), 2_000.0);
        match *self {
            Measure::CarrierNear(f, tol) => Value::Bool(near(f, tol)),
            Measure::Family(base, n, tol) => Value::Bool(family(base, n, tol)),
            Measure::TruthFamily(kind) => {
                let mut bases = truth.modulated.iter().filter(|(k, _)| *k == kind);
                Value::Bool(bases.any(|&(_, base)| family(base, 32, Hertz(2_500.0))))
            }
            Measure::StationsFlagged(tol) => audit(&truth.stations, &|f| near(f, tol)),
            Measure::SpursFlagged => audit(&truth.spurs, &|f| {
                near(f, Hertz(1_000.0)) && !near_genuine(f)
            }),
            Measure::CarriersAbove(f) => Value::Count(frequencies.filter(|&c| c > f).count()),
            Measure::Carriers => Value::Count(report.len()),
        }
    }
}

impl Expect {
    /// True if `value` is what this expects (and of the kind it expects).
    pub(crate) fn holds(&self, value: Value) -> bool {
        match (*self, value) {
            (Expect::Is(want), Value::Bool(got)) => got == want,
            (Expect::Exactly(want), Value::Count(n) | Value::Audit(n, _)) => n == want,
            (Expect::AtLeast(want), Value::Count(n) | Value::Audit(n, _)) => n >= want,
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Count(n) => write!(f, "{n}"),
            Value::Audit(n, of) => write!(f, "{n} of {of} in band"),
        }
    }
}

impl Claim {
    /// Measures the claim on `report`, prints `label: value ✓` or
    /// `label: value ✗ (want …)`, and returns whether it holds.
    pub fn check(&self, report: &FaseReport, truth: &GroundTruth) -> bool {
        let value = self.measure.of(report, truth);
        let holds = self.expect.holds(value);
        match holds {
            true => println!("  {}: {value} ✓", self.label),
            false => println!("  {}: {value} ✗ (want {:?})", self.label, self.expect),
        }
        holds
    }
}

/// [`Measure::CarrierNear`] from frequencies in Hz.
pub fn near(f_hz: f64, tol_hz: f64) -> Measure {
    Measure::CarrierNear(Hertz(f_hz), Hertz(tol_hz))
}

/// [`Measure::Family`] from frequencies in Hz.
fn family(base_hz: f64, n: u32, tol_hz: f64) -> Measure {
    Measure::Family(Hertz(base_hz), n, Hertz(tol_hz))
}

/// An array of [`Claim`]s from `label => measure, expectation;` rows.
#[macro_export]
macro_rules! claims {
    ($($label:literal => $measure:expr, $expect:expr;)*) => {
        [$($crate::experiment::Claim { label: $label, measure: $measure, expect: $expect }),*]
    };
}

/// Script entries named after their `crate::figures` module.
macro_rules! scripts {
    ($($module:ident),* $(,)?) => {
        [$(Experiment { name: stringify!($module), kind: Kind::Script(figures::$module::run) }),*]
    };
}

fn entry(
    name: &'static str,
    system: fn(u64) -> SimulatedSystem,
    system_seed: u64,
    pair: ActivityPair,
    config: &CampaignConfig,
    capture_seed: u64,
    claims: &[Claim],
) -> Experiment {
    let campaign = Campaign {
        system,
        system_seed,
        pair,
        config: config.clone(),
        capture_seed,
        claims: claims.to_vec(),
    };
    Experiment {
        name,
        kind: Kind::Campaign(campaign),
    }
}

/// Every target, in the order `experiment` lists them: the scripts, then
/// the campaign entries.
pub fn experiments() -> Vec<Experiment> {
    use Expect::{AtLeast, Exactly, Is};
    use Measure::{Carriers, CarriersAbove, SpursFlagged, StationsFlagged, TruthFamily};
    let i7 = SimulatedSystem::intel_i7_desktop;
    let i3 = SimulatedSystem::intel_i3_laptop;
    let turion = SimulatedSystem::amd_turion_laptop;
    let p3m = SimulatedSystem::pentium3m_laptop;
    let (ldm, ldl2) = (ActivityPair::LdmLdl1, ActivityPair::Ldl2Ldl1);
    let to_4m = CampaignConfig::paper_0_4mhz();
    let to_120m = CampaignConfig::paper_0_120mhz();
    let narrow =
        |hi_mhz, res| paper_campaign(Hertz::from_khz(60.0), Hertz::from_mhz(hi_mhz), res, 4);
    let (to_1m1, to_1m2) = (narrow(1.1, Hertz(50.0)), narrow(1.2, Hertz(100.0)));
    let to_2m = narrow(2.0, Hertz(100.0));
    let fig11 = claims![
        "DRAM memory regulator family (315 kHz)" => family(315_000.0, 30, 2_500.0), Is(true);
        "memory-interface regulator family (522 kHz)" => family(522_070.0, 30, 2_500.0), Is(true);
        "memory refresh family (128 kHz multiples)" => family(128_000.0, 30, 2_500.0), Is(true);
        "core regulator 332 kHz" => near(332_000.0, 2_000.0), Is(false);
        "broadcast stations flagged" => StationsFlagged(Hertz(5_000.0)), Exactly(0);
    ];
    let fig13 = claims![
        "core regulator family (332 kHz)" => family(332_000.0, 4, 2_500.0), Is(true);
        "DRAM memory regulator 315 kHz" => near(315_000.0, 2_000.0), Is(false);
        "memory-interface regulator 525 kHz" => near(525_000.0, 2_000.0), Is(false);
    ];
    let fig17 = claims![
        "memory refresh family (132 kHz multiples)" => family(132_000.0, 8, 2_500.0), Is(true);
        "memory regulator (389 kHz)" => near(389_140.0, 2_500.0), Is(true);
        "unidentified carrier A (702 kHz)" => near(701_750.0, 2_500.0), Is(true);
        "unidentified carrier B (947 kHz)" => near(946_930.0, 2_500.0), Is(true);
        "FM core regulator (281 kHz)" => near(280_870.0, 4_000.0), Is(false);
    ];
    let fig10 = claims![
        "DRAM regulator family (315.66 kHz)" => family(315_660.0, 8, 3_000.0), Is(true);
        "carriers above 20 MHz (nothing lives there)" => CarriersAbove(Hertz(20e6)), Exactly(0);
    ];
    let reject = claims![
        "unmodulated spurs flagged" => SpursFlagged, Exactly(0);
        "broadcast stations flagged" => StationsFlagged(Hertz(1_000.0)), Exactly(0);
        "activity-modulated carriers reported" => Carriers, AtLeast(3);
    ];
    let survey = claims![
        "regulator family (ground truth)" => TruthFamily(SourceKind::SwitchingRegulator), Is(true);
        "refresh family (ground truth)" => TruthFamily(SourceKind::MemoryRefresh), Is(true);
        "broadcast stations flagged" => StationsFlagged(Hertz(5_000.0)), Exactly(0);
    ];
    let scripts = scripts![
        ablation_heuristic,
        baseline_compare,
        carrier_tracking,
        distance_sweep,
        fig01_ideal_am,
        fig02_program_am,
        fig03_jittered_carrier,
        fig04_nonideal_am,
        fig05_realistic,
        fig06_microbenchmark,
        fig07_sideband_shift,
        fig08_harmonic_map,
        fig09_heuristic_output,
        fig10_campaigns,
        fig12_core_regulator,
        fig14_ss_clock_load,
        fig15_ss_sidebands,
        fig16_ss_heuristic,
        fivr_scenario,
        harmonic_profile,
        leakage_capacity,
        mitigation_randomize,
        modulation_probe,
        refresh_load_sweep,
    ];
    let campaigns = [
        entry("fig11_i7_ldm", i7, 42, ldm, &to_4m, 110, &fig11),
        entry("fig13_i7_ldl2", i7, 42, ldl2, &to_4m, 130, &fig13),
        entry("fig17_amd_laptop", turion, 2007, ldm, &to_1m1, 170, &fig17),
        entry("campaign2_survey", i7, 42, ldm, &to_120m, 900, &fig10),
        entry("rejection_suite", i7, 42, ldm, &to_2m, 200, &reject),
        entry("survey_i7", i7, 42, ldm, &to_1m2, 400, &survey),
        entry("survey_i3", i3, 2010, ldm, &to_1m2, 401, &survey),
        entry("survey_turion", turion, 2007, ldm, &to_1m2, 402, &survey),
        entry("survey_p3m", p3m, 2002, ldm, &to_1m2, 403, &survey),
    ];
    scripts.into_iter().chain(campaigns).collect()
}

/// Runs `experiment` and returns whether every claim holds. A campaign
/// entry prints the campaign's carrier table, one line per claim and a
/// PASS/FAIL line, and writes the carriers CSV; a script prints what its
/// figure or claim needs.
///
/// # Panics
///
/// Panics if a campaign or its analysis fails, on I/O errors (this is an
/// experiment script), or when a script's `assert!`ed claim fails.
pub fn run(experiment: &Experiment) -> bool {
    match &experiment.kind {
        Kind::Campaign(campaign) => run_campaign(experiment.name, campaign),
        Kind::Script(script) => script(),
    }
}

fn run_campaign(name: &str, campaign: &Campaign) -> bool {
    let (pair, config) = (campaign.pair, &campaign.config);
    println!("running {config} (pooled capture tasks)…");
    let build = || (campaign.system)(campaign.system_seed);
    let truth = GroundTruth::new(&build(), config);
    let seed = campaign.capture_seed;
    let spectra = run_campaign_with_options(config, pair, |_| build(), seed, Default::default())
        .expect("campaign");
    let report = Fase::default().analyze(&spectra).expect("analysis");

    let (mut rows, mut csv) = (Vec::new(), Vec::new());
    for set in report.harmonic_sets() {
        for c in set.members() {
            rows.push(vec![
                fmt_freq(set.fundamental()),
                fmt_freq(c.frequency()),
                c.magnitude().to_string(),
                c.sideband_magnitude().to_string(),
                format!("{:.1}", c.total_log_score()),
            ]);
            csv.push(format!(
                "{:.1},{:.1},{:.2},{:.2},{:.2}",
                set.fundamental().hz(),
                c.frequency().hz(),
                c.magnitude().dbm(),
                c.sideband_magnitude().dbm(),
                c.total_log_score()
            ));
        }
    }
    let title = format!("{name}: carriers reported by FASE ({pair})");
    let columns = [
        "set fundamental",
        "carrier",
        "magnitude",
        "side-bands",
        "evidence",
    ];
    print_table(&title, &columns, &rows);

    println!();
    let (claims, total, carriers) = (&campaign.claims, campaign.claims.len(), report.len());
    let held = claims.iter().filter(|c| c.check(&report, &truth)).count();
    let verdict = if held == total { "PASS" } else { "FAIL" };
    println!("{verdict}: {held} of {total} claims hold; {carriers} carriers reported");

    let header = "fundamental_hz,carrier_hz,magnitude_dbm,sideband_dbm,evidence";
    write_csv(&format!("{name}_carriers.csv"), header, csv);
    held == total
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::Dbm;

    fn report(freqs: &[f64]) -> FaseReport {
        let carriers = freqs
            .iter()
            .map(|&f| {
                let harmonics = vec![fase_core::Harmonic { h: 1, score: 50.0 }];
                Carrier::new(Hertz(f), Dbm(-105.0), Dbm(-120.0), harmonics)
            })
            .collect();
        FaseReport::from_carriers(carriers, 0.003)
    }

    fn hz(freqs: &[f64]) -> Vec<Hertz> {
        freqs.iter().map(|&f| Hertz(f)).collect()
    }

    #[test]
    fn carrier_near_hits_at_the_tolerance_edge_and_misses_past_it() {
        let t = GroundTruth::default();
        let m = near(100_000.0, 2_500.0);
        assert_eq!(m.of(&report(&[102_500.0]), &t), Value::Bool(true));
        assert_eq!(m.of(&report(&[97_500.0]), &t), Value::Bool(true));
        assert_eq!(m.of(&report(&[102_501.0]), &t), Value::Bool(false));
    }

    #[test]
    fn family_stops_at_its_last_harmonic() {
        let t = GroundTruth::default();
        let m = family(100_000.0, 4, 2_500.0);
        assert_eq!(m.of(&report(&[402_500.0]), &t), Value::Bool(true));
        assert_eq!(m.of(&report(&[402_501.0]), &t), Value::Bool(false));
        assert_eq!(m.of(&report(&[500_000.0]), &t), Value::Bool(false));
        assert_eq!(m.of(&report(&[]), &t), Value::Bool(false));
    }

    #[test]
    fn truth_family_looks_up_to_the_32nd_harmonic_of_its_kind() {
        let t = GroundTruth {
            modulated: vec![
                (SourceKind::SwitchingRegulator, Hertz(300_000.0)),
                (SourceKind::MemoryRefresh, Hertz(128_000.0)),
            ],
            ..GroundTruth::default()
        };
        let m = Measure::TruthFamily(SourceKind::SwitchingRegulator);
        // The 32nd harmonic, at the 2.5 kHz edge; the 33rd is past the family.
        assert_eq!(m.of(&report(&[9_602_500.0]), &t), Value::Bool(true));
        assert_eq!(m.of(&report(&[9_602_501.0]), &t), Value::Bool(false));
        assert_eq!(m.of(&report(&[9_900_000.0]), &t), Value::Bool(false));
        // The refresh fundamental is no regulator harmonic.
        assert_eq!(m.of(&report(&[128_000.0]), &t), Value::Bool(false));
        let clock = Measure::TruthFamily(SourceKind::Clock);
        assert_eq!(clock.of(&report(&[300_000.0]), &t), Value::Bool(false));
    }

    #[test]
    fn stations_flagged_counts_stations_within_tolerance() {
        let t = GroundTruth {
            stations: hz(&[700_000.0, 900_000.0]),
            ..GroundTruth::default()
        };
        let r = report(&[701_000.0, 905_001.0]);
        let got = Measure::StationsFlagged(Hertz(1_000.0)).of(&r, &t);
        assert_eq!(got, Value::Audit(1, 2));
        assert_eq!(got.to_string(), "1 of 2 in band");
        assert!(!Expect::Exactly(0).holds(got));
        let got = Measure::StationsFlagged(Hertz(5_001.0)).of(&r, &t);
        assert_eq!(got, Value::Audit(2, 2));
    }

    #[test]
    fn spurs_near_a_genuine_harmonic_do_not_count() {
        // 640.5 kHz is 0.5 kHz from 5 × 128 kHz: excluded. 450 kHz is no
        // genuine harmonic. Past the 32nd harmonic of 128 kHz the
        // exclusion ends.
        let far = 33.0 * 128_000.0 + 500.0;
        let t = GroundTruth {
            spurs: hz(&[640_500.0, 450_000.0, far]),
            ..GroundTruth::default()
        };
        let got = Measure::SpursFlagged.of(&report(&[640_500.0, 451_000.0]), &t);
        assert_eq!(got, Value::Audit(1, 3));
        let got = Measure::SpursFlagged.of(&report(&[451_001.0]), &t);
        assert_eq!(got, Value::Audit(0, 3));
        let got = Measure::SpursFlagged.of(&report(&[far]), &t);
        assert_eq!(got, Value::Audit(1, 3));
    }

    #[test]
    fn ground_truth_keeps_stations_and_spurs_in_the_band() {
        let i7 = SimulatedSystem::intel_i7_desktop(42);
        let to_2m = paper_campaign(Hertz::from_khz(60.0), Hertz::from_mhz(2.0), Hertz(100.0), 4);
        let t = GroundTruth::new(&i7, &to_2m);
        assert_eq!((t.stations.len(), t.spurs.len()), (7, 73));
        let t = GroundTruth::new(&i7, &CampaignConfig::paper_0_4mhz());
        assert_eq!(t.spurs.len(), 140);
        let kinds = |kind| t.modulated.iter().filter(|(k, _)| *k == kind).count();
        assert_eq!(kinds(SourceKind::AmBroadcast), 0);
        assert!(kinds(SourceKind::SwitchingRegulator) >= 2);
    }

    #[test]
    fn count_measures_and_expectations() {
        let t = GroundTruth::default();
        let r = report(&[1.0e6, 20.0e6, 20.5e6, 90.0e6]);
        let above = Measure::CarriersAbove(Hertz::from_mhz(20.0)).of(&r, &t);
        assert_eq!(above, Value::Count(2));
        let carriers = Measure::Carriers.of(&r, &t);
        assert_eq!(carriers.to_string(), "4");
        assert!(Expect::Exactly(4).holds(carriers));
        assert!(!Expect::Exactly(3).holds(carriers));
        assert!(Expect::AtLeast(4).holds(carriers));
        assert!(!Expect::AtLeast(5).holds(carriers));
        assert!(Expect::AtLeast(3).holds(Value::Audit(3, 9)));
        assert!(!Expect::Is(true).holds(carriers));
        assert!(!Expect::Exactly(1).holds(Value::Bool(true)));
    }

    /// The campaign entries of the table.
    fn campaigns() -> Vec<(&'static str, Campaign)> {
        let table = experiments().into_iter();
        let campaign = |e: Experiment| match e.kind {
            Kind::Campaign(c) => Some((e.name, c)),
            Kind::Script(_) => None,
        };
        table.filter_map(campaign).collect()
    }

    #[test]
    fn names_are_unique_across_scripts_and_campaigns() {
        let table = experiments();
        assert_eq!(table.len(), 33);
        let mut names: Vec<&str> = table.iter().map(|e| e.name).collect();
        for name in &names {
            let ok = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_';
            assert!(
                !name.is_empty() && name.bytes().all(ok),
                "bad name {name:?}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), table.len(), "duplicate experiment names");
    }

    #[test]
    fn every_campaign_entry_claims_something() {
        let campaigns = campaigns();
        assert_eq!(campaigns.len(), 9);
        for (name, c) in &campaigns {
            assert!(!c.claims.is_empty(), "{name} has no claims");
        }
    }

    #[test]
    fn every_claim_expects_the_kind_its_measure_yields() {
        let (t, r) = (GroundTruth::default(), report(&[]));
        for (name, e) in campaigns() {
            for c in &e.claims {
                let counts = !matches!(c.measure.of(&r, &t), Value::Bool(_));
                let wants_count = !matches!(c.expect, Expect::Is(_));
                assert_eq!(counts, wants_count, "{name}: {}", c.label);
            }
        }
    }
}

//! §4.4: "We tested three laptop systems … In all three systems, FASE
//! finds the same types of carriers we already reported: regulator-related
//! signals, signals caused by memory refresh, and DRAM clock signals."
//! Run the LDM/LDL1 campaign on all four modeled systems and tabulate
//! which carrier *types* are found on each.

use fase_bench::print_table;
use fase_core::{CampaignConfig, Fase};
use fase_dsp::Hertz;
use fase_emsim::{SimulatedSystem, SourceKind};
use fase_specan::{run_campaign_with_options, CampaignOptions};
use fase_sysmodel::ActivityPair;

fn survey(name: &str, make: impl Fn() -> SimulatedSystem + Sync, seed: u64) -> Vec<String> {
    let truth = make().scene.ground_truth();
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_khz(60.0), Hertz::from_mhz(1.2))
        .resolution(Hertz(100.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(4)
        .build()
        .expect("config");
    let spectra = run_campaign_with_options(
        &campaign,
        ActivityPair::LdmLdl1,
        |_| make(),
        seed,
        CampaignOptions::default(),
    )
    .expect("campaign");
    let report = Fase::default().analyze(&spectra).expect("analysis");

    // Does any detected carrier belong to a ground-truth source family of
    // the given kind (any harmonic up to 32)?
    let family_found = |kind: SourceKind| {
        truth
            .iter()
            .filter(|s| s.kind == kind && s.modulated_by.is_some())
            .any(|s| {
                (1..=32).any(|k| {
                    report
                        .carrier_near(Hertz(s.fundamental.hz() * k as f64), Hertz(2_500.0))
                        .is_some()
                })
            })
    };
    let stations_flagged = truth
        .iter()
        .filter(|s| s.kind == SourceKind::AmBroadcast)
        .filter(|s| report.carrier_near(s.fundamental, Hertz(5_000.0)).is_some())
        .count();
    vec![
        name.to_owned(),
        family_found(SourceKind::SwitchingRegulator).to_string(),
        family_found(SourceKind::MemoryRefresh).to_string(),
        report.len().to_string(),
        stations_flagged.to_string(),
    ]
}

fn main() {
    let rows = vec![
        survey(
            "Intel Core i7 desktop",
            || SimulatedSystem::intel_i7_desktop(42),
            400,
        ),
        survey(
            "Intel Core i3 laptop",
            || SimulatedSystem::intel_i3_laptop(2010),
            401,
        ),
        survey(
            "AMD Turion X2 laptop",
            || SimulatedSystem::amd_turion_laptop(2007),
            402,
        ),
        survey(
            "Pentium 3M laptop",
            || SimulatedSystem::pentium3m_laptop(2002),
            403,
        ),
    ];
    print_table(
        "systems survey (LDM/LDL1, 60 kHz - 1.2 MHz)",
        &[
            "system",
            "regulator found",
            "refresh found",
            "carriers",
            "stations flagged",
        ],
        &rows,
    );
    for row in &rows {
        assert_eq!(row[1], "true", "{}: regulator family missing", row[0]);
        assert_eq!(row[2], "true", "{}: refresh family missing", row[0]);
        assert_eq!(row[4], "0", "{}: flagged a broadcast station", row[0]);
    }
    println!("\nPASS: all four systems expose regulator + refresh families; no station flagged.");
}

//! Leakage quantification (§6): how many bits per second could an attacker
//! demodulate from each carrier FASE reports on the i7 desktop?

use crate::{fmt_freq, paper_campaign, print_table, run_i7, write_csv};
use fase_core::{estimate_all, Fase};
use fase_dsp::Hertz;
use fase_sysmodel::ActivityPair;

pub fn run() -> bool {
    let campaign = paper_campaign(Hertz::from_khz(60.0), Hertz::from_mhz(2.0), Hertz(100.0), 4);
    let spectra = run_i7(&campaign, ActivityPair::LdmLdl1, 500);
    let report = Fase::default().analyze(&spectra).expect("analysis");
    let estimates = estimate_all(&spectra, &report, Hertz::from_khz(5.0));

    let rows: Vec<Vec<String>> = estimates
        .iter()
        .map(|e| {
            vec![
                fmt_freq(e.carrier),
                format!("{}", e.sideband),
                format!("{}", e.noise_floor),
                format!("{}", e.modulation_snr),
                format!("{:.1} kbit/s", e.capacity_bps / 1e3),
            ]
        })
        .collect();
    print_table(
        "per-carrier leakage upper bounds (i7, LDM/LDL1)",
        &[
            "carrier",
            "side-band",
            "noise floor",
            "mod. SNR",
            "capacity ≤",
        ],
        &rows,
    );
    println!("\n(The strongest regulator side-bands allow power-analysis-grade readouts");
    println!("of memory activity from a distance — the paper's §4.1 threat.)");
    assert!(
        estimates.iter().any(|e| e.capacity_bps > 10_000.0),
        "expected at least one carrier with >10 kbit/s of leakage"
    );
    write_csv(
        "leakage_capacity.csv",
        "carrier_hz,sideband_dbm,floor_dbm,snr_db,capacity_bps",
        estimates.iter().map(|e| {
            format!(
                "{:.1},{:.2},{:.2},{:.2},{:.1}",
                e.carrier.hz(),
                e.sideband.dbm(),
                e.noise_floor.dbm(),
                e.modulation_snr.db(),
                e.capacity_bps
            )
        }),
    );
    true
}

//! Figure 8: the "simplified spectrum representation" — for each carrier
//! found by the LDL2/LDL1 campaign, the frequencies of its side-band
//! harmonics (h = ±1, ±3, ±5, …) that interleave across the spectrum and
//! make manual interpretation hopeless.

use crate::{fmt_freq, paper_campaign, print_table, run_i7, write_csv};
use fase_core::Fase;
use fase_dsp::Hertz;
use fase_sysmodel::ActivityPair;

pub fn run() -> bool {
    let campaign = paper_campaign(Hertz::from_khz(60.0), Hertz::from_mhz(1.8), Hertz(100.0), 3);
    let spectra = run_i7(&campaign, ActivityPair::Ldl2Ldl1, 80);
    let report = Fase::default().analyze(&spectra).expect("analysis");

    let f_alt = spectra.spectra()[0].f_alt;
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (ci, carrier) in report.carriers().iter().enumerate() {
        for h in [-5i32, -3, -1, 1, 3, 5] {
            let f = Hertz(carrier.frequency().hz() + h as f64 * f_alt.hz());
            if f.hz() < campaign.band_lo().hz() || f.hz() > campaign.band_hi().hz() {
                continue;
            }
            rows.push(vec![
                format!("carrier {}", ci + 1),
                fmt_freq(carrier.frequency()),
                format!("{h:+}"),
                fmt_freq(f),
            ]);
            csv_rows.push(format!(
                "{},{:.1},{},{:.1}",
                ci + 1,
                carrier.frequency().hz(),
                h,
                f.hz()
            ));
        }
    }
    print_table(
        "Figure 8: side-band harmonic map for the LDL2/LDL1 campaign (f_alt = 43.3 kHz)",
        &["carrier", "f_c", "harmonic h", "side-band frequency"],
        &rows,
    );
    println!(
        "\n  {} carriers ({} harmonic sets); without FASE the interleaved",
        report.len(),
        report.harmonic_sets().len()
    );
    println!("  side-band lines of different carriers are hard to attribute by eye.");
    write_csv(
        "fig08_harmonic_map.csv",
        "carrier,fc_hz,harmonic,sideband_hz",
        csv_rows,
    );
    true
}

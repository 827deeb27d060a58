//! Figure 9: the heuristic function's output for the ±1st harmonics of
//! f_alt, for two carriers — the memory-pair carrier of Figure 7 (DRAM
//! regulator) and the on-chip carrier of Figure 12 (core regulator).
//! Large spikes at the carrier frequency, ≈ flat at 1 elsewhere.

use crate::{ascii_plot, paper_campaign, run_i7, write_csv};
use fase_core::heuristic::{harmonic_scores, HeuristicConfig};
use fase_dsp::Hertz;
use fase_sysmodel::ActivityPair;

fn trace_around(pair: ActivityPair, fc: Hertz, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (lo, hi) = (Hertz(fc.hz() - 60_000.0), Hertz(fc.hz() + 60_000.0));
    let spectra = run_i7(&paper_campaign(lo, hi, Hertz(50.0), 4), pair, seed);
    let plus = harmonic_scores(&spectra, 1, &HeuristicConfig::default());
    let minus = harmonic_scores(&spectra, -1, &HeuristicConfig::default());
    let mut offsets = Vec::new();
    let mut p = Vec::new();
    let mut m = Vec::new();
    for b in 0..plus.len() {
        let off = plus.frequency_at(b).hz() - fc.hz();
        if off.abs() <= 11_000.0 {
            offsets.push(off);
            p.push(plus.scores()[b]);
            m.push(minus.scores()[b]);
        }
    }
    (offsets, p, m)
}

pub fn run() -> bool {
    let (off_a, p_a, m_a) = trace_around(ActivityPair::LdmLdl1, Hertz::from_khz(315.0), 90);
    let (off_b, p_b, m_b) = trace_around(ActivityPair::Ldl2Ldl1, Hertz::from_khz(332.0), 91);

    let logs: Vec<f64> = p_a.iter().map(|s| s.log10()).collect();
    ascii_plot(
        "Figure 9a: log10 F_{+1}(f), DRAM regulator (offset from f_c, Hz)",
        &off_a,
        &logs,
        90,
        10,
    );
    let logs_b: Vec<f64> = p_b.iter().map(|s| s.log10()).collect();
    ascii_plot(
        "Figure 9b: log10 F_{+1}(f), core regulator (offset from f_c, Hz)",
        &off_b,
        &logs_b,
        90,
        10,
    );

    for (name, p, m) in [
        ("DRAM regulator", &p_a, &m_a),
        ("core regulator", &p_b, &m_b),
    ] {
        let peak_p = p.iter().cloned().fold(0.0, f64::max);
        let peak_m = m.iter().cloned().fold(0.0, f64::max);
        let median = fase_dsp::stats::median(p);
        println!(
            "{name}: peak F_+1 = {peak_p:.0}, peak F_-1 = {peak_m:.0}, baseline ≈ {median:.2}"
        );
    }

    let rows = off_a.iter().enumerate().map(|(i, &off)| {
        format!(
            "{off:.1},{:.4},{:.4},{:.4},{:.4}",
            p_a[i], m_a[i], p_b[i], m_b[i]
        )
    });
    write_csv(
        "fig09_heuristic_output.csv",
        "offset_hz,dram_reg_h_plus1,dram_reg_h_minus1,core_reg_h_plus1,core_reg_h_minus1",
        rows,
    );
    true
}

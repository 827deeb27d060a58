//! §4.2's key observation: the refresh carrier is *strongest when memory
//! is idle* and weakens as activity rises — the opposite of a normal
//! activity signal, because postponed refreshes lose their periodicity.
//! Sweep memory activity 0% → 50% → 100% and read the 128 kHz fundamental.

use crate::{measure_i7, paper_campaign, print_table, write_csv};
use fase_dsp::Hertz;
use fase_sysmodel::ActivityPair;

fn refresh_level(pair: ActivityPair, seed: u64) -> f64 {
    // f_alt = 43.3 kHz, the first alternation of the paper's campaign family.
    let (lo, hi) = (Hertz::from_khz(120.0), Hertz::from_khz(136.0));
    let campaign = paper_campaign(lo, hi, Hertz(100.0), 4);
    let s = measure_i7(&campaign, 0, pair, seed);
    10.0 * s.sample(Hertz(128_000.0)).expect("in band").log10()
}

pub fn run() -> bool {
    let points = [
        (0.0, ActivityPair::Ldl1Ldl1, "0% (LDL1/LDL1)"),
        (0.5, ActivityPair::LdmLdl1, "50% (LDM/LDL1)"),
        (1.0, ActivityPair::LdmLdm, "100% (LDM/LDM)"),
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut levels = Vec::new();
    for (i, (frac, pair, label)) in points.iter().enumerate() {
        let dbm = refresh_level(*pair, 220 + i as u64);
        rows.push(vec![label.to_string(), format!("{dbm:.1} dBm")]);
        csv.push(format!("{frac},{dbm:.2}"));
        levels.push(dbm);
    }
    print_table(
        "refresh 128 kHz fundamental vs memory activity",
        &["memory activity", "refresh fundamental"],
        &rows,
    );
    println!(
        "\nidle -> busy change: {:.1} dB (paper: strongest when idle, weakest under load)",
        levels[2] - levels[0]
    );
    assert!(
        levels[0] > levels[1] && levels[1] > levels[2],
        "refresh level must fall monotonically with load"
    );
    println!("PASS: refresh carrier weakens monotonically with memory activity.");
    write_csv("refresh_load_sweep.csv", "memory_fraction,refresh_dbm", csv);
    true
}

//! Figure 10: the FASE measurement parameters (the paper's only table).

use crate::print_table;
use fase_core::CampaignConfig;

pub fn run() -> bool {
    let campaigns = [
        CampaignConfig::paper_0_4mhz(),
        CampaignConfig::paper_0_120mhz(),
        CampaignConfig::paper_0_1200mhz(),
    ];
    let rows: Vec<Vec<String>> = campaigns
        .iter()
        .map(|c| {
            vec![
                format!("{:.0} to {:.0}", c.band_lo().mhz(), c.band_hi().mhz()),
                format!("{:.0}", c.resolution().hz()),
                format!("{:.1}", c.f_alt1().khz()),
                format!("{:.1}", c.f_delta().khz()),
                format!("{}", c.bins()),
                format!("{}", c.averages()),
            ]
        })
        .collect();
    print_table(
        "Figure 10: FASE measurement parameters",
        &[
            "Frequency Range (MHz)",
            "f_res (Hz)",
            "f_alt1 (kHz)",
            "f_delta (kHz)",
            "data points",
            "averages",
        ],
        &rows,
    );
    println!("\n(The paper's 0-4 MHz campaign: \"4MHz/50Hz = 80,000 data points\".)");
    true
}

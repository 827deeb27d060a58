//! Detection range: the paper received at 30 cm and notes related work
//! "reported distances of at least 2-3 m". Sweep the receiver distance
//! (near-field magnetic coupling falls ~60 dB per decade, 1/r³ amplitude)
//! and find where FASE loses each carrier.

use fase_bench::{print_table, write_csv};
use fase_core::{CampaignConfig, Fase};
use fase_dsp::Hertz;
use fase_emsim::channel::Channel;
use fase_emsim::SimulatedSystem;
use fase_specan::{run_campaign_with_options, CampaignOptions};
use fase_sysmodel::ActivityPair;

/// Extra path loss at `r` meters relative to the 30 cm baseline for
/// near-field magnetic (1/r³ amplitude) coupling.
fn extra_loss_db(r_meters: f64) -> f64 {
    60.0 * (r_meters / 0.3).log10()
}

fn system_at(loss_db: f64) -> SimulatedSystem {
    let mut system = SimulatedSystem::intel_i7_desktop(42);
    system
        .scene
        .set_channel(Channel::quiet(4242).with_gain_db(-loss_db));
    system
}

fn main() {
    let config = CampaignConfig::builder()
        .band(Hertz::from_khz(250.0), Hertz::from_khz(700.0))
        .resolution(Hertz(100.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(4)
        .build()
        .expect("config");
    let distances = [0.3, 0.6, 1.0, 1.5, 2.0, 3.0];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut baseline_ok = false;
    for (i, &r) in distances.iter().enumerate() {
        let loss = extra_loss_db(r);
        let spectra = run_campaign_with_options(
            &config,
            ActivityPair::LdmLdl1,
            |_| system_at(loss),
            1100 + i as u64,
            CampaignOptions::default(),
        )
        .expect("campaign");
        let report = Fase::default().analyze(&spectra).expect("analysis");
        let near = |f: f64| report.carrier_near(Hertz(f), Hertz(2_000.0)).is_some();
        let (reg, memif, refresh) = (
            near(315_660.0),
            near(522_070.0),
            near(512_000.0) || near(640_000.0),
        );
        if i == 0 {
            baseline_ok = reg && memif;
        }
        rows.push(vec![
            format!("{r:.1} m"),
            format!("{loss:.0} dB"),
            reg.to_string(),
            memif.to_string(),
            refresh.to_string(),
        ]);
        csv.push(format!(
            "{r},{loss:.1},{},{},{}",
            reg as u8, memif as u8, refresh as u8
        ));
    }
    print_table(
        "detection vs. receiver distance (near-field 1/r^3 scaling)",
        &[
            "distance",
            "extra loss",
            "DRAM regulator",
            "mem-if regulator",
            "refresh",
        ],
        &rows,
    );
    assert!(
        baseline_ok,
        "the 30 cm baseline must detect both regulators"
    );
    println!("\n(The regulators survive to ~0.6 m with this receiver; the refresh comb's");
    println!("strong harmonics live outside this 250-700 kHz window even at 30 cm —");
    println!("detection range depends on the carrier, as the paper's threat model implies.)");
    write_csv(
        "distance_sweep.csv",
        "distance_m,extra_loss_db,dram_regulator,memif_regulator,refresh",
        csv,
    );
}

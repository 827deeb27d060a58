//! §4.1's forward-looking remark, exercised: "integrated switching
//! regulators use higher switching frequencies (e.g. 140 MHz in [FIVR])
//! resulting in stronger emanations. Higher switching frequencies also
//! allow faster reactions … providing attackers with a higher bandwidth
//! readout of power consumption."
//!
//! Build a FIVR-era system (140 MHz on-die regulator) and show FASE finds
//! it with the campaign-3 parameters, and that the leakage *bandwidth* is
//! an order of magnitude above the legacy regulator's.

use crate::print_table;
use fase_core::{estimate_all, CampaignConfig, Fase};
use fase_dsp::Hertz;
use fase_emsim::channel::Channel;
use fase_emsim::regulator::SwitchingRegulator;
use fase_emsim::scene::RefreshPolicy;
use fase_emsim::{Scene, SimulatedSystem};
use fase_specan::{run_campaign_with_options, CampaignOptions};
use fase_sysmodel::controller::RefreshConfig;
use fase_sysmodel::{ActivityPair, Domain, Machine};

fn fivr_system(seed: u64) -> SimulatedSystem {
    let mut scene = Scene::new(Channel::quiet(seed));
    scene.add_source(Box::new(
        // On-die FIVR: 140 MHz nominal, small but fast; its faster control
        // loop tracks load tightly (large duty gain).
        // "Higher switching frequencies … resulting in stronger emanations":
        // hotter fundamental, tight fast control loop.
        SwitchingRegulator::new(
            "FIVR 140 MHz",
            Hertz::from_mhz(139.67),
            Domain::Core,
            seed + 1,
        )
        .with_fundamental_dbm(-96.0)
        .with_base_duty(0.12)
        .with_duty_gain(0.25)
        .with_linewidth(Hertz::from_khz(25.0)),
    ));
    SimulatedSystem {
        machine: Machine::core_i7(),
        scene,
        refresh: RefreshPolicy::Standard(RefreshConfig::ddr3()),
    }
}

pub fn run() -> bool {
    // Campaign-3 style parameters: f_alt = 1.8 MHz steps of 100 kHz — the
    // alternation itself must be fast to exercise the fast regulator.
    let config = CampaignConfig::builder()
        .band(Hertz::from_mhz(135.0), Hertz::from_mhz(145.0))
        .resolution(Hertz(2_000.0))
        .alternation(Hertz::from_mhz(1.8), Hertz::from_khz(100.0), 5)
        .averages(4)
        .build()
        .expect("config");
    let spectra = run_campaign_with_options(
        &config,
        ActivityPair::Ldl2Ldl1,
        |_| fivr_system(1000),
        1001,
        CampaignOptions::default(),
    )
    .expect("campaign");
    let report = Fase::default().analyze(&spectra).expect("analysis");

    let carrier = report
        .carrier_near(Hertz::from_mhz(139.67), Hertz::from_khz(60.0))
        .expect("FIVR carrier must be detected");
    let estimates = estimate_all(&spectra, &report, Hertz::from_khz(300.0));
    let fivr = &estimates[0];

    print_table(
        "FIVR vs. legacy regulator leakage",
        &[
            "regulator",
            "carrier",
            "demonstrated bandwidth",
            "capacity bound",
        ],
        &[
            vec![
                "legacy board VRM (campaign 1)".into(),
                "315.66 kHz".into(),
                "43.3 kHz".into(),
                "~193 kbit/s (leakage_capacity)".into(),
            ],
            vec![
                "on-die FIVR".into(),
                format!("{}", carrier.frequency()),
                format!("{}", fivr.bandwidth),
                format!("{:.0} kbit/s", fivr.capacity_bps / 1e3),
            ],
        ],
    );
    assert!(
        fivr.bandwidth.hz() > 40.0 * 43_300.0,
        "the FIVR readout bandwidth should dwarf the legacy regulator's"
    );
    assert!(
        fivr.capacity_bps > 1e6,
        "FIVR leakage should exceed 1 Mbit/s"
    );
    println!(
        "\nPASS: the integrated regulator leaks a {}-wide readout — the paper's\n\
         'higher bandwidth readout of power consumption' concern, quantified.",
        fivr.bandwidth
    );
    true
}

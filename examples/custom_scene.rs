//! Building your own system: a custom machine + EM scene from parts, then
//! a FASE campaign against it — what a downstream user does to model
//! *their* board instead of the paper's.
//!
//! ```sh
//! cargo run --release --example custom_scene
//! ```

use fase::emsim::channel::Channel;
use fase::emsim::interference::{AmBroadcast, SpurForest};
use fase::emsim::refresh::RefreshSource;
use fase::emsim::regulator::SwitchingRegulator;
use fase::prelude::*;
use fase::sysmodel::cache::{CacheConfig, MemoryHierarchy};
use fase::sysmodel::controller::RefreshConfig;
use fase::sysmodel::{Domain, Machine, MachineConfig};

/// The custom board. Every capture task of the campaign builds its own
/// copy, so the construction lives in one function.
fn build_system() -> SimulatedSystem {
    // --- the machine: a small embedded-class part, 1.2 GHz, tiny caches.
    let hierarchy = MemoryHierarchy::new(
        CacheConfig {
            size_bytes: 16 << 10,
            line_bytes: 32,
            associativity: 4,
            latency_cycles: 2,
        },
        CacheConfig {
            size_bytes: 128 << 10,
            line_bytes: 32,
            associativity: 8,
            latency_cycles: 10,
        },
        CacheConfig {
            size_bytes: 512 << 10,
            line_bytes: 32,
            associativity: 8,
            latency_cycles: 25,
        },
        150,
    );
    let machine = Machine::new(
        MachineConfig {
            clock_hz: 1.2e9,
            chase_stride: 32,
            ..MachineConfig::default()
        },
        hierarchy,
    );

    // --- the EM scene: one point-of-load regulator at 1.1 MHz (modern
    // parts switch faster), LPDDR refresh, an AM station, some spurs.
    let mut scene = Scene::new(Channel::quiet(77));
    scene.add_source(Box::new(
        SwitchingRegulator::new("PoL buck 1.1 MHz", Hertz::from_mhz(1.1034), Domain::Dram, 1)
            .with_fundamental_dbm(-101.0)
            .with_base_duty(0.28)
            .with_duty_gain(0.18)
            .with_linewidth(Hertz(900.0)),
    ));
    scene.add_source(Box::new(
        RefreshSource::new("LPDDR refresh", Hertz(256_000.0), 130e-9).with_harmonic_dbm(-118.0),
    ));
    scene.add_source(Box::new(
        AmBroadcast::new("AM 1.2 MHz", Hertz::from_mhz(1.2), 2).with_level_dbm(-97.0),
    ));
    scene.add_source(Box::new(SpurForest::random(
        "board spurs",
        Hertz(50_000.0),
        Hertz::from_mhz(2.0),
        40,
        -130.0,
        -110.0,
        3,
    )));

    SimulatedSystem {
        machine,
        scene,
        refresh: RefreshPolicy::Standard(RefreshConfig {
            t_refi: 1.0 / 256_000.0, // LPDDR refreshes twice as often
            ..RefreshConfig::default()
        }),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- the campaign.
    let campaign = CampaignConfig::builder()
        .band(Hertz::from_khz(200.0), Hertz::from_mhz(1.6))
        .resolution(Hertz(100.0))
        .alternation(Hertz::from_khz(43.3), Hertz(500.0), 5)
        .averages(3)
        .build()?;
    let spectra = run_campaign_with_options(
        &campaign,
        ActivityPair::LdmLdl1,
        |_| build_system(),
        9,
        CampaignOptions::default(),
    )?;
    let report = Fase::default().analyze(&spectra)?;
    println!("{report}");

    let reg = report.carrier_near(Hertz::from_mhz(1.1034), Hertz::from_khz(3.0));
    let refresh_family = (1..=6).any(|k| {
        report
            .carrier_near(Hertz(256_000.0 * k as f64), Hertz::from_khz(2.0))
            .is_some()
    });
    let station = report.carrier_near(Hertz::from_mhz(1.2), Hertz::from_khz(5.0));
    println!("PoL regulator found: {}", reg.is_some());
    println!("LPDDR refresh family found: {refresh_family}");
    println!("AM station rejected: {}", station.is_none());
    Ok(())
}

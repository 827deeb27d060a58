//! Rendering is a pure function of the scene, the capture window and the
//! render context: a scene rendered again and again through one shared
//! reference adds exactly the samples a freshly built scene adds on its
//! first render, in both synthesis modes. This is what lets one scene
//! serve every capture of a campaign.

use fase_dsp::rng::SmallRng;
use fase_dsp::{Complex64, Hertz};
use fase_emsim::channel::Channel;
use fase_emsim::clock::ClockSource;
use fase_emsim::interference::{AmBroadcast, RollingNoise, SpurForest};
use fase_emsim::refresh::RefreshSource;
use fase_emsim::regulator::{FmRegulator, SwitchingRegulator};
use fase_emsim::{CaptureWindow, RefreshPolicy, RenderCtx, Scene, SimulatedSystem, SynthMode};
use fase_sysmodel::controller::RefreshConfig;
use fase_sysmodel::{ActivityTrace, Domain, DomainLoads};

/// Every source kind, each with stochastic state where it has any, inside
/// one 0–500 kHz window.
fn every_kind_scene() -> Scene {
    let mut scene = Scene::new(Channel::new(-160.0, 1));
    scene.add_source(Box::new(
        SwitchingRegulator::new("regulator", Hertz::from_khz(101.3), Domain::Dram, 2)
            .with_fundamental_dbm(-100.0)
            .with_linewidth(Hertz(200.0)),
    ));
    scene.add_source(Box::new(
        FmRegulator::new("fm regulator", Hertz::from_khz(151.7), Domain::Core, 3)
            .with_fundamental_dbm(-102.0),
    ));
    scene.add_source(Box::new(
        ClockSource::spread_spectrum(
            "spread clock",
            Hertz::from_khz(300.0),
            Hertz::from_khz(310.0),
            100e-6,
            4,
        )
        .modulated_by(Domain::Dram, 0.2)
        .with_level_dbm(-104.0),
    ));
    scene.add_source(Box::new(
        AmBroadcast::new("station", Hertz::from_khz(250.0), 5).with_level_dbm(-98.0),
    ));
    scene.add_source(Box::new(
        RefreshSource::new("refresh", Hertz(128_000.0), 200e-9).with_harmonic_dbm(-115.0),
    ));
    scene.add_source(Box::new(SpurForest::random(
        "spurs",
        Hertz(10_000.0),
        Hertz::from_khz(490.0),
        40,
        -130.0,
        -110.0,
        6,
    )));
    scene.add_source(Box::new(RollingNoise::random(
        "rolling noise",
        -150.0,
        Hertz(0.0),
        Hertz::from_khz(500.0),
        3,
        7,
    )));
    scene
}

fn i7_scene() -> Scene {
    SimulatedSystem::intel_i7_desktop(42).scene
}

/// Bit patterns, so that a signed zero or a last-bit difference fails.
fn bits(iq: &[Complex64]) -> Vec<(u64, u64)> {
    iq.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

fn assert_pure(build: fn() -> Scene, center: Hertz, sample_rate: f64) {
    let window = CaptureWindow::new(center, sample_rate, 1 << 13, 0.25);
    // An alternating DRAM/core load and the refreshes it schedules, so
    // every modulated source and the refresh pulses contribute.
    let mut trace = ActivityTrace::new();
    for i in 0..40 {
        let load = if i % 2 == 0 { 0.9 } else { 0.1 };
        trace.push(0.5e-3, DomainLoads::new(load, load, load));
    }
    let refreshes = RefreshPolicy::Standard(RefreshConfig::ddr3())
        .schedule(&trace, &mut SmallRng::seed_from_u64(8));
    for mode in [SynthMode::Fast, SynthMode::Exact] {
        let ctx = RenderCtx::new(&trace, &refreshes, &window).with_mode(mode);
        let fresh = bits(&build().render(&window, &ctx));
        assert!(fresh.iter().any(|&(re, im)| re != 0 || im != 0));
        let scene = build();
        for render in 0..2 {
            assert!(
                bits(&scene.render(&window, &ctx)) == fresh,
                "{mode:?} render {render} differs from a fresh scene's first"
            );
        }
    }
}

#[test]
fn every_source_kind_renders_the_same_samples_every_time() {
    assert_pure(every_kind_scene, Hertz::from_khz(250.0), 500e3);
}

#[test]
fn the_i7_desktop_renders_the_same_samples_every_time() {
    assert_pure(i7_scene, Hertz::from_mhz(1.0), 2e6);
}

//! Scenes (source collections + channel) and the simulated systems of the
//! paper's evaluation (§3–§4).

use crate::channel::Channel;
use crate::clock::ClockSource;
use crate::ctx::{CaptureWindow, RenderCtx};
use crate::interference::{AmBroadcast, RollingNoise, SpurForest};
use crate::refresh::RefreshSource;
use crate::regulator::{FmRegulator, SwitchingRegulator};
use crate::source::{EmSource, SourceInfo};
use fase_dsp::rng::Rng;
use fase_dsp::{Complex64, Hertz};
use fase_sysmodel::controller::{
    schedule_refreshes, schedule_refreshes_randomized, RandomizedRefresh, RefreshConfig,
};
use fase_sysmodel::{ActivityTrace, Domain, Machine, RefreshEvent};

/// A collection of EM sources plus the receive channel.
///
/// # Examples
///
/// ```
/// use fase_dsp::Hertz;
/// use fase_emsim::{CaptureWindow, RenderCtx, Scene};
/// let scene = Scene::demo();
/// let window = CaptureWindow::new(Hertz::from_khz(400.0), 200e3, 4096, 0.0);
/// let ctx = RenderCtx::idle(&window);
/// let iq = scene.render(&window, &ctx);
/// assert_eq!(iq.len(), 4096);
/// ```
#[derive(Debug)]
pub struct Scene {
    sources: Vec<Box<dyn EmSource>>,
    channel: Channel,
}

impl Scene {
    /// Creates an empty scene with the given channel.
    pub fn new(channel: Channel) -> Scene {
        Scene {
            sources: Vec::new(),
            channel,
        }
    }

    /// A tiny demonstration scene: one memory regulator, one AM station,
    /// light noise. Cheap enough for doc tests.
    pub fn demo() -> Scene {
        let mut scene = Scene::new(Channel::quiet(0xD0));
        scene.add_source(Box::new(
            SwitchingRegulator::new("demo regulator", Hertz::from_khz(315.0), Domain::Dram, 0xD1)
                .with_fundamental_dbm(-104.0)
                .with_base_duty(0.12)
                .with_duty_gain(0.10),
        ));
        scene.add_source(Box::new(
            AmBroadcast::new("demo AM station", Hertz::from_khz(750.0), 0xD2).with_level_dbm(-98.0),
        ));
        scene
    }

    /// Adds a source.
    pub fn add_source(&mut self, source: Box<dyn EmSource>) {
        self.sources.push(source);
    }

    /// Replaces the receive channel (e.g. to model a different distance
    /// via [`Channel::with_gain_db`]).
    pub fn set_channel(&mut self, channel: Channel) {
        self.channel = channel;
    }

    /// The current receive channel — multi-channel sweeps read its gain
    /// and noise density to derive per-position channel realizations.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Ground-truth descriptions of every source (never consulted by FASE;
    /// used by tests and experiment reports).
    pub fn ground_truth(&self) -> Vec<SourceInfo> {
        self.sources.iter().map(|s| s.info()).collect()
    }

    /// Number of sources.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Renders all sources for `window` and applies the channel (gain +
    /// receiver noise). Rendering changes nothing in the scene, so equal
    /// windows and contexts render equal samples.
    pub fn render(&self, window: &CaptureWindow, ctx: &RenderCtx<'_>) -> Vec<Complex64> {
        let _synth = fase_obs::span!(ctx.recorder(), "synth");
        ctx.recorder().count("emsim.renders", 1);
        ctx.recorder()
            .count_usize("emsim.samples_rendered", window.len());
        let mut iq = vec![Complex64::ZERO; window.len()];
        for source in &self.sources {
            source.render(window, ctx, &mut iq);
        }
        self.channel.apply(window, &mut iq);
        iq
    }
}

/// How the memory controller schedules refresh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshPolicy {
    /// Standard postpone-and-catch-up behaviour.
    Standard(RefreshConfig),
    /// The paper's proposed mitigation: randomized issue times.
    Randomized(RandomizedRefresh),
}

impl RefreshPolicy {
    /// Schedules refresh commands for a trace under this policy.
    pub fn schedule<R: Rng + ?Sized>(
        &self,
        trace: &ActivityTrace,
        rng: &mut R,
    ) -> Vec<RefreshEvent> {
        match self {
            RefreshPolicy::Standard(cfg) => schedule_refreshes(trace, cfg, rng),
            RefreshPolicy::Randomized(m) => schedule_refreshes_randomized(trace, m, rng),
        }
    }

    /// The nominal refresh rate in Hz.
    pub fn rate_hz(&self) -> f64 {
        match self {
            RefreshPolicy::Standard(cfg) => cfg.rate_hz(),
            RefreshPolicy::Randomized(m) => m.base.rate_hz(),
        }
    }
}

/// A complete simulated system: the machine executing the micro-benchmark,
/// its EM scene, and its refresh policy.
#[derive(Debug)]
pub struct SimulatedSystem {
    /// The micro-architectural model that runs the benchmark.
    pub machine: Machine,
    /// The EM sources and channel.
    pub scene: Scene,
    /// Refresh scheduling policy.
    pub refresh: RefreshPolicy,
}

impl SimulatedSystem {
    /// The paper's Intel Core i7 desktop (§4, Figures 11–16): DRAM /
    /// memory-interface / core switching regulators, 128 kHz refresh, a
    /// spread-spectrum 332–333 MHz DRAM clock, an unmodulated spread
    /// CPU clock, AM broadcast stations, spurs and rolling noise.
    pub fn intel_i7_desktop(seed: u64) -> SimulatedSystem {
        let s = |k: u64| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k);
        let mut scene = Scene::new(Channel::quiet(s(0)));
        scene.add_source(Box::new(
            // Nominal 315 kHz; RC-oscillator tolerance puts the real part at +0.21%.
            SwitchingRegulator::new(
                "DRAM memory regulator",
                Hertz::from_khz(315.66),
                Domain::Dram,
                s(1),
            )
            .with_fundamental_dbm(-104.0)
            .with_base_duty(0.12)
            .with_duty_gain(0.10)
            .with_linewidth(Hertz(260.0)),
        ));
        scene.add_source(Box::new(
            SwitchingRegulator::new(
                "memory-interface regulator",
                Hertz::from_khz(522.07), // nominal 525 kHz, -0.56% RC tolerance
                Domain::MemoryInterface,
                s(2),
            )
            .with_fundamental_dbm(-106.0)
            .with_base_duty(0.20)
            .with_duty_gain(0.22)
            .with_linewidth(Hertz(420.0)),
        ));
        scene.add_source(Box::new(
            SwitchingRegulator::new(
                "CPU core regulator",
                Hertz::from_khz(332.53),
                Domain::Core,
                s(3),
            )
            .with_fundamental_dbm(-102.0)
            .with_base_duty(0.15)
            .with_duty_gain(0.25)
            .with_linewidth(Hertz(330.0)),
        ));
        scene.add_source(Box::new(
            RefreshSource::new("memory refresh", Hertz(128_000.0), 200e-9)
                .with_harmonic_dbm(-116.0),
        ));
        scene.add_source(Box::new(
            // Swept over 300 kHz every 100 µs: wide enough to satisfy EMC
            // averaging, narrow enough that the paper's f_alt = 180-220 kHz
            // moves the side-band images clear of the carrier's own
            // spectrum (§4.3).
            ClockSource::spread_spectrum(
                "DRAM clock",
                Hertz::from_mhz(332.7),
                Hertz::from_mhz(333.0),
                100e-6,
                s(4),
            )
            .modulated_by(Domain::Dram, 0.15)
            .with_level_dbm(-96.0),
        ));
        scene.add_source(Box::new(
            ClockSource::spread_spectrum(
                "CPU clock",
                Hertz::from_mhz(3_396.0),
                Hertz::from_mhz(3_400.0),
                100e-6,
                s(5),
            )
            .unmodulated()
            .with_level_dbm(-121.0),
        ));
        for (i, khz) in [610.0, 750.0, 920.0, 1_110.0, 1_340.0, 1_590.0]
            .iter()
            .enumerate()
        {
            scene.add_source(Box::new(
                AmBroadcast::new(
                    &format!("AM station {khz:.0} kHz"),
                    Hertz::from_khz(*khz),
                    s(6 + i as u64),
                )
                .with_level_dbm(-96.0 - 2.0 * i as f64)
                .with_modulation_index(0.5),
            ));
        }
        // Long-wave interference (paper: the 30–300 kHz band is crowded).
        scene.add_source(Box::new(
            AmBroadcast::new("long-wave station 189 kHz", Hertz::from_khz(189.0), s(20))
                .with_level_dbm(-101.0),
        ));
        scene.add_source(Box::new(SpurForest::random(
            "system spurs",
            Hertz(20_000.0),
            Hertz::from_mhz(4.0),
            140,
            -134.0,
            -108.0,
            s(21),
        )));
        scene.add_source(Box::new(RollingNoise::random(
            "switching noise",
            -168.0,
            Hertz(0.0),
            Hertz::from_mhz(4.0),
            6,
            s(22),
        )));
        SimulatedSystem {
            machine: Machine::core_i7(),
            scene,
            refresh: RefreshPolicy::Standard(RefreshConfig::ddr3()),
        }
    }

    /// The AMD Turion X2 laptop (§4.4, Figure 17): 132 kHz refresh, a
    /// memory regulator, two "unidentified" regulator-like carriers, and a
    /// frequency-modulated core regulator that FASE must *not* report.
    pub fn amd_turion_laptop(seed: u64) -> SimulatedSystem {
        let s = |k: u64| seed.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(k);
        let mut scene = Scene::new(Channel::quiet(s(0)));
        scene.add_source(Box::new(
            SwitchingRegulator::new(
                "memory regulator",
                Hertz::from_khz(389.14),
                Domain::Dram,
                s(1),
            )
            .with_fundamental_dbm(-106.0)
            .with_base_duty(0.14)
            .with_duty_gain(0.11)
            .with_linewidth(Hertz(300.0)),
        ));
        scene.add_source(Box::new(
            RefreshSource::new("memory refresh (132 kHz)", Hertz(132_000.0), 200e-9)
                .with_harmonic_dbm(-118.0),
        ));
        scene.add_source(Box::new(
            SwitchingRegulator::new(
                "unidentified carrier A",
                Hertz::from_khz(701.75),
                Domain::MemoryInterface,
                s(2),
            )
            .with_fundamental_dbm(-110.0)
            .with_base_duty(0.16)
            .with_duty_gain(0.20)
            .with_linewidth(Hertz(350.0)),
        ));
        scene.add_source(Box::new(
            SwitchingRegulator::new(
                "unidentified carrier B",
                Hertz::from_khz(946.93),
                Domain::Dram,
                s(3),
            )
            .with_fundamental_dbm(-113.0)
            .with_base_duty(0.22)
            .with_duty_gain(0.16)
            .with_linewidth(Hertz(280.0)),
        ));
        // The FM (constant on-time) core regulator: modulated by core
        // activity, but in frequency — FASE must reject it.
        scene.add_source(Box::new(
            FmRegulator::new(
                "core regulator (constant on-time)",
                Hertz::from_khz(280.87),
                Domain::Core,
                s(4),
            )
            .with_fundamental_dbm(-105.0)
            .with_fm_gain(0.06),
        ));
        for (i, khz) in [640.0, 880.0, 1_210.0].iter().enumerate() {
            scene.add_source(Box::new(
                AmBroadcast::new(
                    &format!("AM station {khz:.0} kHz"),
                    Hertz::from_khz(*khz),
                    s(5 + i as u64),
                )
                .with_level_dbm(-99.0 - 2.0 * i as f64),
            ));
        }
        scene.add_source(Box::new(SpurForest::random(
            "system spurs",
            Hertz(20_000.0),
            Hertz::from_mhz(2.0),
            80,
            -134.0,
            -110.0,
            s(9),
        )));
        scene.add_source(Box::new(RollingNoise::random(
            "switching noise",
            -168.0,
            Hertz(0.0),
            Hertz::from_mhz(2.0),
            4,
            s(10),
        )));
        SimulatedSystem {
            machine: Machine::laptop(),
            scene,
            refresh: RefreshPolicy::Standard(RefreshConfig::turion_132khz()),
        }
    }

    /// The Intel Core i3 laptop from 2010 (§4.4): the same types of
    /// carriers as the desktop — memory and core regulators at laptop-class
    /// switching frequencies, 128 kHz refresh — with a smaller interference
    /// population.
    pub fn intel_i3_laptop(seed: u64) -> SimulatedSystem {
        let s = |k: u64| seed.wrapping_mul(0x94D0_49BB_1331_11EB).wrapping_add(k);
        let mut scene = Scene::new(Channel::quiet(s(0)));
        scene.add_source(Box::new(
            SwitchingRegulator::new(
                "memory regulator",
                Hertz::from_khz(417.31),
                Domain::Dram,
                s(1),
            )
            .with_fundamental_dbm(-107.0)
            .with_base_duty(0.13)
            .with_duty_gain(0.11)
            .with_linewidth(Hertz(310.0)),
        ));
        scene.add_source(Box::new(
            SwitchingRegulator::new(
                "core regulator",
                Hertz::from_khz(298.77),
                Domain::Core,
                s(2),
            )
            .with_fundamental_dbm(-104.0)
            .with_base_duty(0.16)
            .with_duty_gain(0.24)
            .with_linewidth(Hertz(280.0)),
        ));
        scene.add_source(Box::new(
            RefreshSource::new("memory refresh", Hertz(128_000.0), 200e-9)
                .with_harmonic_dbm(-119.0),
        ));
        scene.add_source(Box::new(
            ClockSource::spread_spectrum(
                "DRAM clock",
                Hertz::from_mhz(399.7),
                Hertz::from_mhz(400.0),
                100e-6,
                s(3),
            )
            .modulated_by(Domain::Dram, 0.18)
            .with_level_dbm(-99.0),
        ));
        for (i, khz) in [640.0, 1_010.0].iter().enumerate() {
            scene.add_source(Box::new(
                AmBroadcast::new(
                    &format!("AM station {khz:.0} kHz"),
                    Hertz::from_khz(*khz),
                    s(4 + i as u64),
                )
                .with_level_dbm(-98.0 - 2.0 * i as f64),
            ));
        }
        scene.add_source(Box::new(SpurForest::random(
            "system spurs",
            Hertz(20_000.0),
            Hertz::from_mhz(2.0),
            70,
            -134.0,
            -112.0,
            s(8),
        )));
        scene.add_source(Box::new(RollingNoise::random(
            "switching noise",
            -168.0,
            Hertz(0.0),
            Hertz::from_mhz(2.0),
            4,
            s(9),
        )));
        SimulatedSystem {
            machine: Machine::laptop(),
            scene,
            refresh: RefreshPolicy::Standard(RefreshConfig::ddr3()),
        }
    }

    /// The Intel Pentium 3M laptop from 2002 (§4.4): older, slower parts —
    /// a single lower-frequency regulator pair and SDR-era memory — but
    /// the same carrier types, which is the paper's point.
    pub fn pentium3m_laptop(seed: u64) -> SimulatedSystem {
        let s = |k: u64| seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(k);
        let mut scene = Scene::new(Channel::quiet(s(0)));
        scene.add_source(Box::new(
            SwitchingRegulator::new(
                "memory regulator",
                Hertz::from_khz(247.19),
                Domain::Dram,
                s(1),
            )
            .with_fundamental_dbm(-105.0)
            .with_base_duty(0.17)
            .with_duty_gain(0.13)
            .with_linewidth(Hertz(420.0)),
        ));
        scene.add_source(Box::new(
            SwitchingRegulator::new(
                "core regulator",
                Hertz::from_khz(203.93),
                Domain::Core,
                s(2),
            )
            .with_fundamental_dbm(-103.0)
            .with_base_duty(0.18)
            .with_duty_gain(0.22)
            .with_linewidth(Hertz(460.0)),
        ));
        scene.add_source(Box::new(
            RefreshSource::new("memory refresh", Hertz(128_000.0), 250e-9)
                .with_harmonic_dbm(-116.0),
        ));
        for (i, khz) in [750.0, 1_340.0].iter().enumerate() {
            scene.add_source(Box::new(
                AmBroadcast::new(
                    &format!("AM station {khz:.0} kHz"),
                    Hertz::from_khz(*khz),
                    s(3 + i as u64),
                )
                .with_level_dbm(-97.0 - 3.0 * i as f64),
            ));
        }
        scene.add_source(Box::new(SpurForest::random(
            "system spurs",
            Hertz(20_000.0),
            Hertz::from_mhz(2.0),
            50,
            -132.0,
            -112.0,
            s(7),
        )));
        scene.add_source(Box::new(RollingNoise::random(
            "switching noise",
            -167.0,
            Hertz(0.0),
            Hertz::from_mhz(2.0),
            3,
            s(8),
        )));
        SimulatedSystem {
            machine: Machine::laptop(),
            scene,
            refresh: RefreshPolicy::Standard(RefreshConfig::ddr3()),
        }
    }

    /// The i7 desktop with the refresh-randomization mitigation applied
    /// (for the mitigation experiment).
    pub fn intel_i7_mitigated(seed: u64, strength: f64) -> SimulatedSystem {
        let mut system = SimulatedSystem::intel_i7_desktop(seed);
        system.refresh = RefreshPolicy::Randomized(RefreshConfig::randomized(strength));
        system
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceKind;

    #[test]
    fn demo_scene_renders() {
        let scene = Scene::demo();
        let window = CaptureWindow::new(Hertz::from_khz(315.0), 100e3, 2048, 0.0);
        let ctx = RenderCtx::idle(&window);
        let iq = scene.render(&window, &ctx);
        // Regulator carrier plus noise: definitely non-zero.
        assert!(iq.iter().map(|z| z.norm_sqr()).sum::<f64>() > 0.0);
    }

    #[test]
    fn i7_ground_truth_inventory() {
        let system = SimulatedSystem::intel_i7_desktop(1);
        let truth = system.scene.ground_truth();
        let count = |kind: SourceKind| truth.iter().filter(|i| i.kind == kind).count();
        assert_eq!(count(SourceKind::SwitchingRegulator), 3);
        assert_eq!(count(SourceKind::MemoryRefresh), 1);
        assert_eq!(count(SourceKind::Clock), 2);
        assert_eq!(count(SourceKind::AmBroadcast), 7);
        assert_eq!(count(SourceKind::Spur), 1);
        assert_eq!(count(SourceKind::BroadbandNoise), 1);
        // The modulated sources and their domains.
        let reg = truth
            .iter()
            .find(|i| i.name == "DRAM memory regulator")
            .unwrap();
        assert_eq!(reg.modulated_by, Some(Domain::Dram));
        assert!((reg.fundamental.khz() - 315.0).abs() < 1.0);
    }

    #[test]
    fn turion_has_fm_regulator_and_132khz_refresh() {
        let system = SimulatedSystem::amd_turion_laptop(2);
        let truth = system.scene.ground_truth();
        assert!(truth.iter().any(|i| i.kind == SourceKind::FmRegulator));
        let refresh = truth
            .iter()
            .find(|i| i.kind == SourceKind::MemoryRefresh)
            .unwrap();
        assert_eq!(refresh.fundamental, Hertz(132_000.0));
        assert!((system.refresh.rate_hz() - 132_000.0).abs() < 1e-6);
    }

    #[test]
    fn extra_laptops_have_expected_inventory() {
        for (system, regs) in [
            (SimulatedSystem::intel_i3_laptop(1), 2),
            (SimulatedSystem::pentium3m_laptop(1), 2),
        ] {
            let truth = system.scene.ground_truth();
            let count = |kind: SourceKind| truth.iter().filter(|i| i.kind == kind).count();
            assert_eq!(count(SourceKind::SwitchingRegulator), regs);
            assert_eq!(count(SourceKind::MemoryRefresh), 1);
            assert!(count(SourceKind::AmBroadcast) >= 2);
            // Both use the standard 128 kHz refresh (only the Turion
            // deviates, §4.4).
            assert!((system.refresh.rate_hz() - 128_000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mitigated_system_randomizes_refresh() {
        let system = SimulatedSystem::intel_i7_mitigated(3, 0.4);
        assert!(matches!(system.refresh, RefreshPolicy::Randomized(_)));
    }

    #[test]
    fn refresh_policy_schedules() {
        use fase_sysmodel::DomainLoads;
        let mut trace = ActivityTrace::new();
        trace.push(1e-3, DomainLoads::IDLE);
        let mut rng = fase_dsp::rng::SmallRng::seed_from_u64(4);
        let std = RefreshPolicy::Standard(RefreshConfig::ddr3());
        assert_eq!(std.schedule(&trace, &mut rng).len(), 128);
        let rand_policy = RefreshPolicy::Randomized(RefreshConfig::randomized(0.3));
        assert_eq!(rand_policy.schedule(&trace, &mut rng).len(), 128);
    }
}

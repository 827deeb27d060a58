//! Detection-quality benchmark: ROC / PR curves for fused vs.
//! single-channel detection over a labeled scenario population.
//!
//! The FASE heuristic yields a per-scene evidence statistic (the
//! strongest harmonic family's summed log-score). This module measures
//! how well that statistic *separates* leaky machines from
//! interferer-only scenes, and how much multi-channel fusion
//! ([`fase_specan::run_multichannel_sweep`]) improves the separation:
//!
//! * **Positives** — machines with genuinely activity-modulated
//!   regulators (the paper's i7 desktop and Turion laptop), degraded
//!   along the axes a real assessment fights: raised noise floor,
//!   antenna attenuation, capture faults, refresh-randomization
//!   mitigation.
//! * **Negatives** — scenes with the same *unmodulated* clutter (AM
//!   broadcast stations, spur forests, rolling noise hills) but no
//!   activity-coupled emitter, across interference densities.
//!
//! Every scenario is swept through `K` channel realizations; the fused
//! statistic and the honest single-channel baseline (channel 0 alone —
//! what a one-antenna assessor would measure) are thresholded into ROC
//! and precision/recall curves via [`fase_core::roc_points`] /
//! [`fase_core::roc_auc`] / [`fase_core::average_precision`].
//!
//! [`DetectionReport::to_json`] is deliberately wall-time-free: the
//! same scenarios, seeds and channel count serialize byte-identically
//! regardless of thread count or cache temperature — CI pins this.

use fase_core::{average_precision, roc_auc, roc_points, single_channel_statistic, RocPoint};
use fase_dsp::rng::mix_seed;
use fase_dsp::Hertz;
use fase_emsim::channel::Channel;
use fase_emsim::interference::{AmBroadcast, RollingNoise, SpurForest};
use fase_emsim::{RefreshPolicy, Scene, SimulatedSystem};
use fase_specan::{run_multichannel_sweep, FaultPlan, FaultRates, SweepConfig, SweepOptions};
use fase_sysmodel::controller::RefreshConfig;
use fase_sysmodel::{ActivityPair, Machine};
use std::fmt::Write as _;
use std::path::Path;

/// Which machine (or non-machine) a scenario simulates.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScenarioKind {
    /// The paper's Core i7 desktop: 315.66 kHz DRAM regulator in band.
    I7Desktop,
    /// The AMD Turion laptop: 389.14 kHz memory regulator in band.
    TurionLaptop,
    /// The i7 with refresh randomization of the given strength.
    MitigatedI7(f64),
    /// No activity-coupled emitter at all — only clutter.
    InterfererOnly {
        /// Spurs in the 20 kHz – 4 MHz forest.
        spurs: usize,
        /// AM broadcast stations (one lands inside the swept band).
        stations: usize,
        /// Rolling-noise hills.
        hills: usize,
    },
}

/// One labeled detection trial: a scene, its channel conditions, and
/// whether a leak is truly present.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionScenario {
    /// Human-readable scenario name (stable — part of the JSON output).
    pub name: String,
    /// Ground truth: does the scene contain an activity-modulated
    /// emitter?
    pub positive: bool,
    kind: ScenarioKind,
    /// Receiver noise density in dBm/Hz (the noise-floor axis).
    noise_density_dbm_per_hz: f64,
    /// Channel gain in dB (negative = antenna moved away).
    gain_db: f64,
    /// Uniform per-capture fault rate (the fault axis); 0 = clean.
    fault_rate: f64,
    seed: u64,
}

impl DetectionScenario {
    /// Builds the simulated system for alternation index `i_alt`,
    /// exactly as a sweep factory does.
    pub fn build_system(&self, i_alt: usize) -> SimulatedSystem {
        let seed = self.seed.wrapping_add(i_alt as u64);
        let mut system = match self.kind {
            ScenarioKind::I7Desktop => SimulatedSystem::intel_i7_desktop(seed),
            ScenarioKind::TurionLaptop => SimulatedSystem::amd_turion_laptop(seed),
            ScenarioKind::MitigatedI7(strength) => {
                SimulatedSystem::intel_i7_mitigated(seed, strength)
            }
            ScenarioKind::InterfererOnly {
                spurs,
                stations,
                hills,
            } => interferer_only_system(seed, spurs, stations, hills),
        };
        let channel = Channel::new(self.noise_density_dbm_per_hz, mix_seed(seed, 0x00C0_FFEE))
            .with_gain_db(self.gain_db);
        system.scene.set_channel(channel);
        system
    }

    fn fault_plan(&self) -> Option<FaultPlan> {
        (self.fault_rate > 0.0)
            .then(|| FaultPlan::new(self.seed).with_rates(FaultRates::uniform(self.fault_rate)))
    }
}

/// A clutter-only scene: AM stations (one inside the 250–400 kHz sweep
/// band), a spur forest and rolling noise — everything the i7 scene has
/// *except* activity-modulated emitters. The machine still executes the
/// micro-benchmark; it just does not radiate.
fn interferer_only_system(
    seed: u64,
    spurs: usize,
    stations: usize,
    hills: usize,
) -> SimulatedSystem {
    let s = |k: u64| mix_seed(seed, k);
    let mut scene = Scene::new(Channel::quiet(s(0)));
    // Station carriers march up from long-wave through the sweep band
    // into the broadcast band; index 2 (310 kHz) sits mid-band, the
    // in-band false-positive bait.
    let station_khz = [189.0, 261.0, 310.0, 389.5, 610.0, 920.0, 1_340.0];
    for (i, khz) in station_khz.iter().take(stations).enumerate() {
        scene.add_source(Box::new(
            AmBroadcast::new(
                &format!("AM station {khz:.0} kHz"),
                Hertz::from_khz(*khz),
                s(10 + i as u64),
            )
            .with_level_dbm(-99.0 - 2.0 * i as f64)
            .with_modulation_index(0.5),
        ));
    }
    if spurs > 0 {
        scene.add_source(Box::new(SpurForest::random(
            "system spurs",
            Hertz(20_000.0),
            Hertz::from_mhz(4.0),
            spurs,
            -134.0,
            -106.0,
            s(30),
        )));
    }
    if hills > 0 {
        scene.add_source(Box::new(RollingNoise::random(
            "switching noise",
            -168.0,
            Hertz(0.0),
            Hertz::from_mhz(4.0),
            hills,
            s(31),
        )));
    }
    SimulatedSystem {
        machine: Machine::core_i7(),
        scene,
        refresh: RefreshPolicy::Standard(RefreshConfig::ddr3()),
    }
}

/// The standard labeled population: 8 positives and 8 negatives across
/// the noise-floor, attenuation, fault-rate and interference-density
/// axes. Deterministic — same list every call.
pub fn standard_scenarios() -> Vec<DetectionScenario> {
    let scenario = |name: &str,
                    positive: bool,
                    kind: ScenarioKind,
                    noise: f64,
                    gain: f64,
                    fault: f64,
                    seed: u64| DetectionScenario {
        name: name.to_owned(),
        positive,
        kind,
        noise_density_dbm_per_hz: noise,
        gain_db: gain,
        fault_rate: fault,
        seed,
    };
    use ScenarioKind::{I7Desktop, InterfererOnly, MitigatedI7, TurionLaptop};
    vec![
        // Positives: strong → progressively degraded.
        scenario("i7-clean", true, I7Desktop, -172.0, 0.0, 0.0, 0x11),
        scenario("i7-noisy-floor", true, I7Desktop, -157.0, -6.0, 0.0, 0x12),
        scenario("i7-far-antenna", true, I7Desktop, -166.0, -15.0, 0.0, 0x13),
        scenario(
            "i7-faulty-capture",
            true,
            I7Desktop,
            -160.0,
            -12.0,
            0.08,
            0x14,
        ),
        scenario("i7-weak", true, I7Desktop, -159.0, -9.0, 0.0, 0x15),
        scenario("turion-clean", true, TurionLaptop, -172.0, 0.0, 0.0, 0x16),
        scenario("turion-far", true, TurionLaptop, -160.0, -13.0, 0.0, 0x17),
        scenario(
            "i7-mitigated",
            true,
            MitigatedI7(0.5),
            -162.0,
            -10.0,
            0.0,
            0x18,
        ),
        // Negatives: clutter only, across interference density.
        scenario(
            "quiet-sparse-spurs",
            false,
            InterfererOnly {
                spurs: 40,
                stations: 0,
                hills: 0,
            },
            -172.0,
            0.0,
            0.0,
            0x21,
        ),
        scenario(
            "dense-spurs",
            false,
            InterfererOnly {
                spurs: 220,
                stations: 0,
                hills: 4,
            },
            -168.0,
            0.0,
            0.0,
            0x22,
        ),
        scenario(
            "broadcast-band",
            false,
            InterfererOnly {
                spurs: 80,
                stations: 7,
                hills: 2,
            },
            -168.0,
            0.0,
            0.0,
            0x23,
        ),
        scenario(
            "in-band-station",
            false,
            InterfererOnly {
                spurs: 0,
                stations: 4,
                hills: 0,
            },
            -170.0,
            0.0,
            0.0,
            0x24,
        ),
        scenario(
            "noisy-floor-clutter",
            false,
            InterfererOnly {
                spurs: 140,
                stations: 5,
                hills: 6,
            },
            -157.0,
            0.0,
            0.0,
            0x25,
        ),
        scenario(
            "rolling-hills",
            false,
            InterfererOnly {
                spurs: 20,
                stations: 0,
                hills: 10,
            },
            -166.0,
            0.0,
            0.0,
            0x26,
        ),
        scenario(
            "faulty-clutter",
            false,
            InterfererOnly {
                spurs: 140,
                stations: 3,
                hills: 4,
            },
            -165.0,
            0.0,
            0.08,
            0x27,
        ),
        scenario(
            "amplified-clutter",
            false,
            InterfererOnly {
                spurs: 180,
                stations: 6,
                hills: 4,
            },
            -168.0,
            6.0,
            0.0,
            0x28,
        ),
    ]
}

/// The sweep family every scenario runs: 250–400 kHz (contains both the
/// i7's 315.66 kHz and the Turion's 389.14 kHz regulators), two bands,
/// the same alternation family the scheduler's own tests use.
pub fn detection_sweep_config() -> SweepConfig {
    SweepConfig {
        lo: Hertz::from_khz(250.0),
        hi: Hertz::from_khz(400.0),
        resolution: Hertz(200.0),
        bands: 2,
        overlap: Hertz::from_khz(2.0),
        f_alt1: Hertz::from_khz(30.0),
        f_delta: Hertz::from_khz(2.0),
        alternations: 5,
        averages: 3,
    }
}

/// One scenario's measured statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name (from [`DetectionScenario::name`]).
    pub name: String,
    /// Ground-truth label.
    pub positive: bool,
    /// Fused detection statistic across all channels.
    pub fused: f64,
    /// The single-channel baseline: channel 0's own statistic.
    pub single: f64,
    /// Best statistic any one channel achieved (upper bound on any
    /// single-antenna assessment).
    pub best_single: f64,
    /// Every channel's standalone statistic, in channel order.
    pub per_channel: Vec<f64>,
}

/// The benchmark's full result: per-scenario statistics plus ROC / PR
/// summaries for the fused and single-channel detectors.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Channel realizations per scenario.
    pub channels: usize,
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// ROC area under curve for the fused statistic.
    pub fused_auc: f64,
    /// ROC area under curve for the channel-0 baseline.
    pub single_auc: f64,
    /// Average precision (PR summary) for the fused statistic.
    pub fused_ap: f64,
    /// Average precision for the channel-0 baseline.
    pub single_ap: f64,
    /// Full ROC curve for the fused statistic.
    pub fused_roc: Vec<RocPoint>,
    /// Full ROC curve for the baseline.
    pub single_roc: Vec<RocPoint>,
}

/// Shortest-roundtrip float formatting (same convention as the core
/// report serializers): deterministic and byte-stable.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

fn roc_json(points: &[RocPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"threshold\": {}, \"tpr\": {}, \"fpr\": {}, \"precision\": {}}}",
                json_f64(p.threshold),
                json_f64(p.tpr),
                json_f64(p.fpr),
                json_f64(p.precision),
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

impl DetectionReport {
    /// Deterministic JSON — **no wall times**, so the same scenario
    /// population and channel count serialize byte-identically across
    /// thread counts and cache temperatures.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"fase-bench-detection-v1\",");
        let _ = writeln!(out, "  \"channels\": {},", self.channels);
        let _ = writeln!(out, "  \"scenarios\": {},", self.outcomes.len());
        let _ = writeln!(out, "  \"fused_auc\": {},", json_f64(self.fused_auc));
        let _ = writeln!(out, "  \"single_auc\": {},", json_f64(self.single_auc));
        let _ = writeln!(out, "  \"fused_ap\": {},", json_f64(self.fused_ap));
        let _ = writeln!(out, "  \"single_ap\": {},", json_f64(self.single_ap));
        let _ = writeln!(out, "  \"fused_roc\": {},", roc_json(&self.fused_roc));
        let _ = writeln!(out, "  \"single_roc\": {},", roc_json(&self.single_roc));
        out.push_str("  \"outcomes\": [\n");
        let rows: Vec<String> = self
            .outcomes
            .iter()
            .map(|o| {
                let per: Vec<String> = o.per_channel.iter().copied().map(json_f64).collect();
                format!(
                    "    {{\"name\": \"{}\", \"positive\": {}, \"fused\": {}, \
                     \"single\": {}, \"best_single\": {}, \"per_channel\": [{}]}}",
                    o.name,
                    o.positive,
                    json_f64(o.fused),
                    json_f64(o.single),
                    json_f64(o.best_single),
                    per.join(", "),
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Runs the labeled population through `channels`-way multi-channel
/// sweeps and summarizes detection quality.
///
/// With `cache_dir` set, every scenario × channel × band capture is
/// content-addressed there, so a warm re-run (and CI's byte-identity
/// check) skips synthesis entirely.
///
/// # Panics
///
/// Panics when a sweep fails — this is an experiment harness, and any
/// capture error is a bug worth a loud stop.
pub fn run_detection_benchmark(
    scenarios: &[DetectionScenario],
    channels: usize,
    cache_dir: Option<&Path>,
) -> DetectionReport {
    let config = detection_sweep_config();
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let mut options = SweepOptions::default();
        options.campaign.max_fft = 1 << 12;
        options.campaign.fault_plan = s.fault_plan();
        options.cache_dir = cache_dir.map(Path::to_path_buf);
        let outcome = run_multichannel_sweep(
            &config,
            &format!("detect:{}", s.name),
            ActivityPair::LdmLdl1,
            |i_alt| s.build_system(i_alt),
            s.seed,
            &options,
            channels,
        )
        .unwrap_or_else(|e| panic!("scenario {} failed: {e}", s.name));
        let per_channel: Vec<f64> = outcome
            .per_channel
            .iter()
            .map(|o| single_channel_statistic(&o.report))
            .collect();
        outcomes.push(ScenarioOutcome {
            name: s.name.clone(),
            positive: s.positive,
            fused: outcome.fused.fused,
            single: per_channel.first().copied().unwrap_or(0.0),
            best_single: outcome.fused.best_single,
            per_channel,
        });
    }

    let fused_labeled: Vec<(f64, bool)> = outcomes.iter().map(|o| (o.fused, o.positive)).collect();
    let single_labeled: Vec<(f64, bool)> =
        outcomes.iter().map(|o| (o.single, o.positive)).collect();
    DetectionReport {
        channels,
        fused_auc: roc_auc(&fused_labeled),
        single_auc: roc_auc(&single_labeled),
        fused_ap: average_precision(&fused_labeled),
        single_ap: average_precision(&single_labeled),
        fused_roc: roc_points(&fused_labeled),
        single_roc: roc_points(&single_labeled),
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_population_is_balanced_and_stable() {
        let scenarios = standard_scenarios();
        assert_eq!(scenarios.len(), 16);
        let positives = scenarios.iter().filter(|s| s.positive).count();
        assert_eq!(positives, 8);
        // Names are unique (they key cache entries and JSON rows).
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
        // The list is a pure function — identical on every call.
        assert_eq!(scenarios, standard_scenarios());
    }

    #[test]
    fn interferer_scenes_have_no_modulated_emitters() {
        let scenarios = standard_scenarios();
        for s in scenarios.iter().filter(|s| !s.positive) {
            let system = s.build_system(0);
            for info in system.scene.ground_truth() {
                assert!(
                    !info.name.contains("regulator"),
                    "negative scenario {} contains {}",
                    s.name,
                    info.name
                );
            }
        }
    }

    #[test]
    fn report_json_is_deterministic() {
        let report = DetectionReport {
            channels: 2,
            outcomes: vec![ScenarioOutcome {
                name: "x".into(),
                positive: true,
                fused: 3.5,
                single: 1.25,
                best_single: 2.0,
                per_channel: vec![1.25, 2.0],
            }],
            fused_auc: 1.0,
            single_auc: 0.75,
            fused_ap: 1.0,
            single_ap: 0.5,
            fused_roc: vec![],
            single_roc: vec![],
        };
        let a = report.to_json();
        let b = report.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"fused_auc\": 1.0"));
        assert!(a.contains("\"per_channel\": [1.25, 2.0]"));
        assert!(
            !a.contains("_ns") && !a.contains("wall"),
            "detection JSON must carry no timing fields"
        );
    }

    #[test]
    fn tiny_population_separates_and_fusion_dominates() {
        // Two scenarios (one positive, one negative), two channels: a
        // smoke-scale version of the full benchmark.
        let scenarios: Vec<DetectionScenario> = standard_scenarios()
            .into_iter()
            .filter(|s| s.name == "i7-clean" || s.name == "quiet-sparse-spurs")
            .collect();
        assert_eq!(scenarios.len(), 2);
        let report = run_detection_benchmark(&scenarios, 2, None);
        assert_eq!(report.outcomes.len(), 2);
        let pos = report.outcomes.iter().find(|o| o.positive).unwrap();
        let neg = report.outcomes.iter().find(|o| !o.positive).unwrap();
        assert!(
            pos.fused > neg.fused,
            "clean i7 ({}) must outscore clutter ({})",
            pos.fused,
            neg.fused
        );
        assert!(report.fused_auc >= report.single_auc);
        assert_eq!(report.fused_auc, 1.0);
    }
}

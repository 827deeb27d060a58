//! Multi-channel sweep campaigns: one machine, K receiver positions.
//!
//! The paper measures each machine once, from one antenna position. A
//! real assessment moves the antenna (or uses several), because a
//! genuine emanation is present in *every* receiver realization while
//! noise spikes and narrow-band interference are not coherent across
//! positions. This module runs the same [`run_sweep`] campaign through
//! `K` independent channel realizations of the *same* simulated machine
//! and fuses the per-channel reports into one
//! [`fase_core::FusionReport`]:
//!
//! * The machine (its activity execution and emitter behavior) is
//!   shared: every channel runs the caller's factory with the same
//!   sweep seed, so the transmitted spectrum is bit-identical across
//!   channels. Only the propagation channel differs.
//! * Channel `k` replaces the factory's channel with one seeded
//!   `mix_seed(plan.seed, k)` at the same noise density and gain.
//! * Each channel caches under its own `system_id` suffix (`#ch{k}`),
//!   so warm multi-channel re-runs are pure cache hits per channel and
//!   byte-identical to cold ones.
//!
//! Channels run sequentially and are fused in index order; the fused
//! report is a deterministic function of (config, factory, seed, plan).

use crate::scheduler::{run_sweep, seam_tolerance, SweepConfig, SweepOptions, SweepOutcome};
use fase_core::{
    fuse_reports, single_channel_statistic, FaseConfig, FaseError, FaseReport, FusionReport,
};
use fase_dsp::rng::mix_seed;
use fase_emsim::channel::Channel;
use fase_emsim::SimulatedSystem;
use fase_sysmodel::ActivityPair;

/// How many receiver realizations to run and how they differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelPlan {
    /// Number of independent channel realizations (`K`). Must be ≥ 1.
    pub channels: usize,
    /// Seed stream for the per-channel RNGs: channel `k` is seeded
    /// `mix_seed(seed, k)`, so channels are independent of each other
    /// and of the sweep's own capture seed.
    pub seed: u64,
}

impl ChannelPlan {
    /// A `K`-position plan at the factory's gain, channels seeded from
    /// `seed`.
    pub fn new(channels: usize, seed: u64) -> ChannelPlan {
        ChannelPlan { channels, seed }
    }
}

impl Default for ChannelPlan {
    fn default() -> ChannelPlan {
        ChannelPlan::new(3, 0xC4A2)
    }
}

/// The result of a multi-channel sweep: every channel's full outcome
/// plus the fused cross-channel report.
#[derive(Debug)]
pub struct MultiSweepOutcome {
    /// Per-channel sweep outcomes, in channel order (index `k` of this
    /// vector is the channel seeded `mix_seed(plan.seed, k)`).
    pub per_channel: Vec<SweepOutcome>,
    /// Cross-channel fusion of the per-channel reports.
    pub fused: FusionReport,
}

impl MultiSweepOutcome {
    /// The fused detection statistic (see
    /// [`FusionReport::detection_statistic`]).
    pub fn detection_statistic(&self) -> f64 {
        self.fused.detection_statistic()
    }

    /// The best statistic any single channel achieves on its own —
    /// the baseline fusion must beat.
    pub fn best_single_statistic(&self) -> f64 {
        self.fused.best_single_statistic()
    }

    /// Each channel's standalone detection statistic, in channel order.
    pub fn single_channel_statistics(&self) -> Vec<f64> {
        self.per_channel
            .iter()
            .map(|o| single_channel_statistic(&o.report))
            .collect()
    }
}

/// Replaces `system`'s propagation channel with realization `k` of the
/// plan: same noise density and gain, fresh RNG stream.
fn apply_channel(system: &mut SimulatedSystem, plan: &ChannelPlan, k: usize) {
    let base = system.scene.channel();
    let realized = Channel::new(base.noise_density(), mix_seed(plan.seed, k as u64))
        .with_gain_db(base.gain().db());
    system.scene.set_channel(realized);
}

/// Runs the same sweep campaign through `plan.channels` channel
/// realizations of the machine `factory` builds, and fuses the
/// per-channel reports. The factory is called as in [`run_sweep`]: each
/// channel's sweep calls it once per alternation frequency if it
/// captures any band.
///
/// `system_id` names what the factory builds exactly as in
/// [`run_sweep`]; each channel's captures cache under
/// `{system_id}#ch{k}`, so a channel realization never collides with
/// the single-channel sweep of the same machine. The carrier match
/// tolerance for fusion is `2 × config.resolution` — the same tolerance
/// the sweep itself uses to deduplicate seam carriers.
///
/// # Errors
///
/// * [`FaseError::InvalidConfig`] — a plan with zero channels, or any
///   plan error [`run_sweep`] itself reports.
/// * Everything [`run_sweep`] can return, unchanged, from the first
///   channel that fails.
pub fn run_multichannel_sweep<F>(
    config: &SweepConfig,
    system_id: &str,
    pair: ActivityPair,
    factory: F,
    seed: u64,
    options: &SweepOptions,
    plan: &ChannelPlan,
) -> Result<MultiSweepOutcome, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    if plan.channels == 0 {
        return Err(FaseError::invalid_config(
            "a channel plan needs at least one channel",
        ));
    }
    let match_tol = seam_tolerance(config.resolution);

    let mut per_channel = Vec::with_capacity(plan.channels);
    for k in 0..plan.channels {
        // Channel-granularity cancellation: once the token fires,
        // finished channels stand (their bands are cached) and remaining
        // realizations are abandoned; the fused report then covers only
        // the completed channels.
        if options.campaign.cancel.is_cancelled() {
            break;
        }
        let channel_factory = |i_alt: usize| {
            let mut system = factory(i_alt);
            apply_channel(&mut system, plan, k);
            system
        };
        let channel_id = format!("{system_id}#ch{k}");
        let outcome = run_sweep(config, &channel_id, pair, channel_factory, seed, options)?;
        let cancelled = outcome.cancelled;
        per_channel.push(outcome);
        if cancelled {
            break;
        }
    }

    let reports: Vec<FaseReport> = per_channel.iter().map(|o| o.report.clone()).collect();
    let fused = fuse_reports(&reports, match_tol, FaseConfig::default().group_rel_tol);
    Ok(MultiSweepOutcome { per_channel, fused })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_dsp::Hertz;
    use fase_sysmodel::Machine;

    fn demo_factory(i_alt: usize) -> SimulatedSystem {
        let mut system = SimulatedSystem::intel_i7_desktop(0xFA5E + i_alt as u64);
        system.machine = Machine::core_i7();
        system
    }

    fn small_sweep() -> SweepConfig {
        // Same 250–400 kHz family the scheduler tests use: contains the
        // i7 scene's 315 kHz DRAM regulator.
        SweepConfig {
            lo: Hertz(250_000.0),
            hi: Hertz(400_000.0),
            resolution: Hertz(200.0),
            bands: 2,
            overlap: Hertz(2_000.0),
            f_alt1: Hertz(30_000.0),
            f_delta: Hertz(2_000.0),
            alternations: 5,
            averages: 3,
        }
    }

    fn fast_options() -> SweepOptions {
        let mut options = SweepOptions::default();
        options.campaign.max_fft = 1 << 12;
        options
    }

    #[test]
    fn zero_channels_is_an_invalid_config() {
        let err = run_multichannel_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &fast_options(),
            &ChannelPlan::new(0, 1),
        )
        .unwrap_err();
        assert!(matches!(err, FaseError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn fusion_dominates_every_single_channel() {
        let plan = ChannelPlan::new(3, 0xBEEF);
        let outcome = run_multichannel_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &fast_options(),
            &plan,
        )
        .unwrap();
        assert_eq!(outcome.per_channel.len(), 3);
        let fused = outcome.detection_statistic();
        assert!(fused > 0.0, "the i7 regulator must be detected somewhere");
        for (k, single) in outcome.single_channel_statistics().iter().enumerate() {
            assert!(
                fused >= *single,
                "channel {k}: fused {fused} < single {single}"
            );
        }
        assert!(outcome.best_single_statistic() <= fused);
    }

    #[test]
    fn channel_realizations_differ_but_the_campaign_is_deterministic() {
        let plan = ChannelPlan::new(2, 0xBEEF);
        let run = || {
            run_multichannel_sweep(
                &small_sweep(),
                "demo",
                ActivityPair::LdmLdl1,
                demo_factory,
                7,
                &fast_options(),
                &plan,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        // Bit-identical across repeated runs…
        assert_eq!(a.fused.to_json(), b.fused.to_json());
        // …but the two channels see different noise realizations.
        assert_ne!(
            a.per_channel[0].report.to_json(),
            a.per_channel[1].report.to_json(),
            "independent channel seeds must change the captured bits"
        );
    }

    #[test]
    fn per_channel_caches_do_not_collide_and_warm_runs_are_identical() {
        let dir = std::env::temp_dir().join(format!("fase-multichan-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..fast_options()
        };
        let plan = ChannelPlan::new(2, 0xBEEF);
        let cold = run_multichannel_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &options,
            &plan,
        )
        .unwrap();
        let misses: usize = cold.per_channel.iter().map(|o| o.cache_misses).sum();
        assert_eq!(misses, 4, "2 channels × 2 bands must all be cold");

        let warm = run_multichannel_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &options,
            &plan,
        )
        .unwrap();
        let hits: usize = warm.per_channel.iter().map(|o| o.cache_hits).sum();
        assert_eq!(hits, 4, "warm run must be served entirely from cache");
        assert_eq!(warm.fused.to_json(), cold.fused.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_position_keeps_the_factory_gain() {
        let mut system = demo_factory(0);
        let base_gain = system.scene.channel().gain().db();
        apply_channel(&mut system, &ChannelPlan::new(3, 1), 2);
        assert_eq!(system.scene.channel().gain().db(), base_gain);
    }
}

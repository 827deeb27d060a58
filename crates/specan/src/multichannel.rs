//! Multi-channel sweep campaigns: one machine, K receiver positions.
//!
//! The paper measures each machine once, from one antenna position. A
//! genuine emanation is present in *every* receiver realization, while
//! noise spikes and narrow-band interference are not coherent across
//! positions. [`run_multichannel_sweep`] runs the same [`run_sweep`]
//! campaign through `K` channel realizations of the *same* simulated
//! machine and fuses the per-channel reports into one statistic
//! ([`fase_core::fuse_reports`]):
//!
//! * Every channel runs the caller's factory with the same sweep seed,
//!   so the transmitted spectrum is bit-identical across channels.
//! * Channel `k` replaces the factory's channel with one seeded
//!   `mix_seed(CHANNEL_SEED, k)` at the same noise density and gain.
//! * Each channel caches under its own `system_id` suffix (`#ch{k}`),
//!   so warm re-runs are pure cache hits, byte-identical to cold ones.

use crate::scheduler::{run_sweep, seam_tolerance, SweepConfig, SweepOptions, SweepOutcome};
use fase_core::{fuse_reports, FaseError, FaseReport};
use fase_dsp::rng::mix_seed;
use fase_emsim::channel::Channel;
use fase_emsim::SimulatedSystem;
use fase_sysmodel::ActivityPair;

/// Seed stream of the per-channel receiver noise. The cache key names a
/// channel only by its index, so this must stay one constant.
const CHANNEL_SEED: u64 = 0xC4A2;

/// The result of a multi-channel sweep: every channel's full outcome
/// plus the fused cross-channel statistic.
#[derive(Debug)]
pub struct MultiSweepOutcome {
    /// Per-channel sweep outcomes, in channel order.
    pub per_channel: Vec<SweepOutcome>,
    /// Cross-channel fusion of the per-channel reports: the strongest
    /// harmonic family's evidence summed over every channel.
    pub fused: f64,
}

/// Replaces `system`'s propagation channel with realization `k`: same
/// noise density and gain, fresh RNG stream.
fn apply_channel(system: &mut SimulatedSystem, k: usize) {
    let base = system.scene.channel();
    let realized = Channel::new(base.noise_density(), mix_seed(CHANNEL_SEED, k as u64))
        .with_gain_db(base.gain().db());
    system.scene.set_channel(realized);
}

/// Runs the same sweep campaign through `channels` channel realizations
/// of the machine `factory` builds, one after another, and fuses the
/// per-channel reports in channel order. Each channel's sweep calls the
/// factory as [`run_sweep`] does and caches under `{system_id}#ch{k}`,
/// so a channel never collides with the single-channel sweep of the same
/// machine. Carriers match across channels within the sweep's own seam
/// tolerance, `2 × config.resolution`.
///
/// # Errors
///
/// [`FaseError::InvalidConfig`] for zero `channels`; otherwise whatever
/// [`run_sweep`] returns for the first channel that fails.
pub fn run_multichannel_sweep<F>(
    config: &SweepConfig,
    system_id: &str,
    pair: ActivityPair,
    factory: F,
    seed: u64,
    options: &SweepOptions,
    channels: usize,
) -> Result<MultiSweepOutcome, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    if channels == 0 {
        return Err(FaseError::invalid_config(
            "a multi-channel sweep needs at least one channel",
        ));
    }
    let per_channel = (0..channels)
        .map(|k| {
            let channel_factory = |i_alt: usize| {
                let mut system = factory(i_alt);
                apply_channel(&mut system, k);
                system
            };
            let channel_id = format!("{system_id}#ch{k}");
            run_sweep(config, &channel_id, pair, channel_factory, seed, options)
        })
        .collect::<Result<Vec<SweepOutcome>, FaseError>>()?;
    let reports: Vec<&FaseReport> = per_channel.iter().map(|o| &o.report).collect();
    let fused = fuse_reports(&reports, seam_tolerance(config.resolution));
    Ok(MultiSweepOutcome { per_channel, fused })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_core::single_channel_statistic;
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
            0,
        )
        .unwrap_err();
        assert!(matches!(err, FaseError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn fusion_dominates_every_single_channel() {
        let outcome = run_multichannel_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &fast_options(),
            3,
        )
        .unwrap();
        assert_eq!(outcome.per_channel.len(), 3);
        let fused = outcome.fused;
        assert!(fused > 0.0, "the i7 regulator must be detected somewhere");
        for (k, channel) in outcome.per_channel.iter().enumerate() {
            let single = single_channel_statistic(&channel.report);
            assert!(
                fused >= single,
                "channel {k}: fused {fused} < single {single}"
            );
        }
    }

    #[test]
    fn channel_realizations_differ_but_the_campaign_is_deterministic() {
        let run = || {
            run_multichannel_sweep(
                &small_sweep(),
                "demo",
                ActivityPair::LdmLdl1,
                demo_factory,
                7,
                &fast_options(),
                2,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        // Bit-identical across repeated runs…
        assert_eq!(a.fused, b.fused);
        for (x, y) in a.per_channel.iter().zip(&b.per_channel) {
            assert_eq!(x.report.to_json(), y.report.to_json());
        }
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
        let cold = run_multichannel_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &options,
            2,
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
            2,
        )
        .unwrap();
        let hits: usize = warm.per_channel.iter().map(|o| o.cache_hits).sum();
        assert_eq!(hits, 4, "warm run must be served entirely from cache");
        assert_eq!(warm.fused, cold.fused);
        for (w, c) in warm.per_channel.iter().zip(&cold.per_channel) {
            assert_eq!(w.report.to_json(), c.report.to_json());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_position_keeps_the_factory_gain() {
        let mut system = demo_factory(0);
        let base_gain = system.scene.channel().gain().db();
        apply_channel(&mut system, 2);
        assert_eq!(system.scene.channel().gain().db(), base_gain);
    }
}

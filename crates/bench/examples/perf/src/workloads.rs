//! The closed-loop workloads: one campaign with its analysis, and an
//! 8-band sweep against a cold or a warm capture cache.
//!
//! Every op measures the same machine, the i7 desktop scene built from
//! [`SCENE_SEED`]; the run seed only drives the measurements: op `i`
//! captures with the `i`-th seed the run draws from the seed pool.

use crate::check::{carriers_hz, MustFind, Tally};
use crate::closedloop::Workload;
use crate::pool::Draw;
use fase_core::{CampaignConfig, Fase, FaseError, FaseReport};
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{
    run_campaign_with_options, run_sweep, CampaignOptions, SweepConfig, SweepOptions, SweepOutcome,
};
use fase_sysmodel::ActivityPair;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Capture pool size of every campaign, set explicitly (not through
/// `FASE_THREADS`).
pub const POOL_THREADS: usize = 2;

/// The scene every workload measures. Its carriers are the must-find
/// frequencies below; another scene seed moves the weaker ones.
pub const SCENE_SEED: u64 = 1;

/// Warm-up ops in each set-up round of `campaign` and `sweep_cold`.
const WARMUP_OPS: usize = 3;

/// Carriers a campaign over 1-4 MHz must report: the memory-interface
/// regulator's 2nd and the DRAM regulator's 4th harmonic. Reports place
/// them within 0.7 kHz of these values.
pub const CAMPAIGN_MUST_FIND: MustFind = MustFind {
    hz: &[1_044_300.0, 1_262_300.0],
    tolerance_hz: 1_000.0,
};

/// Carriers a sweep over 250 kHz-1.05 MHz must report: the DRAM and
/// memory-interface regulators and the latter's 2nd harmonic, at the mean
/// of 1,800 sweeps, none of which strayed more than 0.7 kHz from it.
pub const SWEEP_MUST_FIND: MustFind = MustFind {
    hz: &[315_300.0, 521_900.0, 1_043_700.0],
    tolerance_hz: 1_000.0,
};

/// Distinct sweeps the warm workload rotates through.
const WARM_SWEEPS: usize = 8;

fn pool_options() -> CampaignOptions {
    CampaignOptions {
        threads: Some(POOL_THREADS),
        ..CampaignOptions::default()
    }
}

fn record(tally: &mut Tally, i: usize, report: Result<&FaseReport, &FaseError>) {
    match report {
        Ok(report) => {
            tally.report(i, &report.to_json(), &carriers_hz(report));
        }
        Err(e) => tally.error(i, e),
    }
}

/// `campaign`: a render-heavy campaign (1-4 MHz at 125 Hz) and its
/// analysis, uncached. Its eight captures are four alternation
/// frequencies of two averages each: with two frequencies of four
/// averages, about one op in a hundred misses one of the must-find
/// carriers, and more averages do not fix that.
#[derive(Debug)]
pub struct Campaign {
    draw: Draw,
    config: CampaignConfig,
}

impl Campaign {
    pub fn new(draw: Draw) -> Result<Campaign, String> {
        let config = CampaignConfig::builder()
            .band(Hertz::from_mhz(1.0), Hertz::from_mhz(4.0))
            .resolution(Hertz(125.0))
            .alternation(Hertz::from_khz(30.0), Hertz::from_khz(2.0), 4)
            .averages(2)
            .build()
            .map_err(|e| e.to_string())?;
        Ok(Campaign { draw, config })
    }

    fn time_to_report(&self, capture_seed: u64) -> Result<FaseReport, FaseError> {
        let spectra = run_campaign_with_options(
            &self.config,
            ActivityPair::LdmLdl1,
            |_| SimulatedSystem::intel_i7_desktop(SCENE_SEED),
            capture_seed,
            pool_options(),
        )?;
        Fase::default().analyze(&spectra)
    }
}

impl Workload for Campaign {
    fn setup_round(&mut self, round: usize) -> Result<(), String> {
        for j in 0..WARMUP_OPS {
            self.time_to_report(self.draw.setup_seed(round * WARMUP_OPS + j))
                .map_err(|e| format!("campaign warm-up: {e}"))?;
        }
        Ok(())
    }

    fn op(&mut self, i: usize, tally: &mut Tally) -> f64 {
        let t0 = Instant::now();
        let report = self.time_to_report(self.draw.seed(i));
        let ns = t0.elapsed().as_nanos() as f64;
        record(tally, i, report.as_ref());
        ns
    }
}

/// `sweep_cold` and `sweep_warm`: an 8-band sweep of 250 kHz-1.05 MHz
/// through the capture cache. Cold ops each start from an empty cache
/// directory; warm ops re-run one of eight sweeps against a directory the
/// set-up populated.
#[derive(Debug)]
pub struct Sweep {
    draw: Draw,
    warm: bool,
    work: PathBuf,
    populated: Option<PathBuf>,
}

impl Sweep {
    /// `work` is a scratch directory the workload owns.
    pub fn new(draw: Draw, warm: bool, work: PathBuf) -> Sweep {
        Sweep {
            draw,
            warm,
            work,
            populated: None,
        }
    }

    fn config() -> SweepConfig {
        SweepConfig {
            lo: Hertz::from_khz(250.0),
            hi: Hertz::from_khz(1_050.0),
            resolution: Hertz(200.0),
            bands: 8,
            overlap: Hertz::from_khz(2.0),
            f_alt1: Hertz::from_khz(30.0),
            f_delta: Hertz::from_khz(2.0),
            alternations: 5,
            averages: 3,
        }
    }

    fn sweep(&self, capture_seed: u64, dir: &Path) -> Result<SweepOutcome, FaseError> {
        let options = SweepOptions {
            campaign: CampaignOptions {
                max_fft: 4096,
                ..pool_options()
            },
            cache_dir: Some(dir.to_path_buf()),
            ..SweepOptions::default()
        };
        run_sweep(
            &Sweep::config(),
            &format!("perf-i7#{SCENE_SEED:016x}"),
            ActivityPair::LdmLdl1,
            |_| SimulatedSystem::intel_i7_desktop(SCENE_SEED),
            capture_seed,
            &options,
        )
    }

    /// Runs the sweep of `capture_seed` into `dir`, requiring every band
    /// to hit (warm) or to miss (cold) the cache.
    fn checked_sweep(
        &self,
        capture_seed: u64,
        dir: &Path,
        warm: bool,
    ) -> Result<SweepOutcome, String> {
        let outcome = self.sweep(capture_seed, dir).map_err(|e| e.to_string())?;
        let bands = outcome.bands.len();
        let expected = if warm { (bands, 0) } else { (0, bands) };
        if (outcome.cache_hits, outcome.cache_misses) != expected {
            return Err(format!(
                "sweep {capture_seed}: {} cache hits, {} misses over {bands} bands ({} cache)",
                outcome.cache_hits,
                outcome.cache_misses,
                if warm { "warm" } else { "cold" }
            ));
        }
        Ok(outcome)
    }

    fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        remove_dir(&dir)?;
        Ok(dir)
    }
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", dir.display())),
    }
}

impl Workload for Sweep {
    fn setup_round(&mut self, round: usize) -> Result<(), String> {
        if !self.warm {
            for j in 0..WARMUP_OPS {
                let dir = self.fresh_dir("setup")?;
                let seed = self.draw.setup_seed(round * WARMUP_OPS + j);
                self.checked_sweep(seed, &dir, false)?;
            }
            return Ok(());
        }
        let dir = self.fresh_dir(&format!("setup-{round}"))?;
        for k in 0..WARM_SWEEPS {
            self.checked_sweep(self.draw.seed(k), &dir, false)?;
        }
        if let Some(old) = self.populated.replace(dir) {
            remove_dir(&old)?;
        }
        Ok(())
    }

    fn op(&mut self, i: usize, tally: &mut Tally) -> f64 {
        let (k, dir) = match (&self.populated, self.warm) {
            (Some(dir), true) => (i % WARM_SWEEPS, dir.clone()),
            _ => match self.fresh_dir("op") {
                Ok(dir) => (i, dir),
                Err(e) => {
                    tally.error(i, e);
                    return 0.0;
                }
            },
        };
        let t0 = Instant::now();
        let outcome = self.checked_sweep(self.draw.seed(k), &dir, self.warm);
        let ns = t0.elapsed().as_nanos() as f64;
        match outcome {
            Ok(outcome) => record(tally, i, Ok(&outcome.report)),
            Err(e) => tally.error(i, e),
        }
        ns
    }
}

//! The wide-band sweep scheduler.
//!
//! Paper §3 sweeps the Agilent MXA across 0–4 GHz in resolution-limited
//! steps; this module is that outer loop. [`run_sweep`] shards a span
//! `[f_lo, f_hi]` into overlapping bands ([`crate::sweep::plan_bands`]),
//! runs the full FASE campaign of every band on one capture pool,
//! analyzes each band independently as soon as its captures land, and
//! merges the per-band reports into one span-wide [`FaseReport`] with
//! seam-duplicate carriers deduplicated and harmonic sets regrouped
//! across band boundaries ([`fase_core::merge_band_reports`]).
//!
//! Three features make multi-hour sweeps practical:
//!
//! * **Capture cache** — with [`SweepOptions::cache_dir`] set, each band's
//!   reduced [`fase_core::CampaignSpectra`] is stored content-addressed
//!   ([`crate::cache`]); a warm re-run skips synthesis entirely and is
//!   byte-identical to the cold run.
//! * **Resume** — the cache is the sweep's only state: re-running an
//!   interrupted sweep over the same cache directory recomputes only the
//!   bands with no valid entry. Per-band seeds derive from the band
//!   *index* (`mix_seed(seed, index)`), never from execution order, so a
//!   resumed sweep's report is bit-identical to an uninterrupted one.
//! * **Sharding** — [`SweepOptions::shard`] `k/n` makes this process
//!   compute only bands with `index % n == k`, so `n` hosts sharing a
//!   cache directory can split a span and any one of them can later merge
//!   the full result.

use crate::cache::{CacheKey, CaptureCache};
use crate::runner::{run_pool, CampaignOptions, CapturePool, PoolBand};
use crate::sweep::{plan_bands, SweepBand};
use fase_core::par::par_map;
use fase_core::{merge_band_reports, CampaignConfig, Fase, FaseError, FaseReport};
use fase_dsp::rng::mix_seed;
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_sysmodel::ActivityPair;
use std::path::PathBuf;

/// Version prefix baked into every cache-key description: bump it when
/// the capture pipeline changes in a way that invalidates old captures.
const KEY_FORMAT: &str = "fase-sweep-key v1";

/// The span to sweep and the campaign family to run in every band.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Lower edge of the whole sweep span.
    pub lo: Hertz,
    /// Upper edge of the whole sweep span.
    pub hi: Hertz,
    /// Spectrum resolution, shared by every band.
    pub resolution: Hertz,
    /// Number of bands to shard the span into.
    pub bands: usize,
    /// Half-width of the seam overlap between adjacent bands (see
    /// [`plan_bands`]).
    pub overlap: Hertz,
    /// First alternation frequency `f_alt1`.
    pub f_alt1: Hertz,
    /// Alternation-frequency step `f_Δ`.
    pub f_delta: Hertz,
    /// Number of alternation frequencies per band campaign.
    pub alternations: usize,
    /// Captures power-averaged per spectrum.
    pub averages: usize,
}

/// A `k/n` shard assignment: this process computes only bands whose
/// `index % count == index_of_this_shard`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index, in `0..count`.
    pub index: usize,
    /// Total number of shards splitting the sweep.
    pub count: usize,
}

/// Everything about *how* a sweep executes (as opposed to *what* it
/// measures, which is [`SweepConfig`]).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Per-band campaign execution options (threads, FFT cap, fault plan,
    /// retry budget, recorder, cancellation). The FFT cap, fault plan and
    /// retry budget are part of each band's cache key; threads and
    /// recorder are not.
    pub campaign: CampaignOptions,
    /// Directory for the capture cache; `None` runs uncached. Re-running
    /// a sweep over the same directory resumes it: bands with a valid
    /// entry are read back, the rest are captured.
    pub cache_dir: Option<PathBuf>,
    /// Optional `k/n` shard assignment; unassigned bands are skipped and
    /// reported in [`SweepOutcome::complete`].
    pub shard: Option<Shard>,
}

/// What happened in one band.
#[derive(Debug, Clone, PartialEq)]
pub struct BandOutcome {
    /// The band's frequency range and index.
    pub band: SweepBand,
    /// True when the band's spectra came from the capture cache.
    pub from_cache: bool,
    /// True when the band was skipped (assigned to another shard).
    pub skipped: bool,
    /// Carriers the band's own analysis reported.
    pub carriers: usize,
}

/// The result of a sweep: the merged report plus per-band provenance.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Span-wide report: seam duplicates removed, harmonic sets regrouped,
    /// health summed across bands.
    pub report: FaseReport,
    /// Per-band outcomes, in band order.
    pub bands: Vec<BandOutcome>,
    /// Bands served from the capture cache.
    pub cache_hits: usize,
    /// Bands that had to be captured (including invalid entries that were
    /// recomputed).
    pub cache_misses: usize,
    /// True when every band was computed or cached; false when shard
    /// assignment skipped some (the report then covers a partial span).
    pub complete: bool,
    /// True when the sweep's [`crate::CancelToken`] fired and remaining
    /// bands were abandoned. The report then covers only the finished
    /// bands and its health counts the abandoned bands' alternations as
    /// planned-but-lost, so [`FaseReport::is_degraded`] is true — the
    /// partial report prints and serializes as degraded.
    pub cancelled: bool,
}

/// The bands the calling thread finished, in band order.
#[derive(Debug, Default)]
struct Finished {
    outcomes: Vec<BandOutcome>,
    reports: Vec<FaseReport>,
    hits: usize,
    misses: usize,
    cancelled: bool,
}

/// Carriers closer than this across band seams (or across channel
/// realizations) are one emitter: twice the sweep's resolution.
pub(crate) fn seam_tolerance(resolution: Hertz) -> Hertz {
    Hertz(2.0 * resolution.hz())
}

/// The campaign configuration one band runs.
fn band_config(config: &SweepConfig, band: &SweepBand) -> Result<CampaignConfig, FaseError> {
    CampaignConfig::builder()
        .band(band.lo, band.hi)
        .resolution(config.resolution)
        .alternation(config.f_alt1, config.f_delta, config.alternations)
        .averages(config.averages)
        .build()
}

/// Canonical description of everything that determines one band's
/// captured bits. `system_id` names the simulated scene + machine (the
/// caller's factory is opaque, so the caller vouches for the name);
/// floats enter as bit patterns, and execution details that cannot change
/// the bits (thread count, recorder) stay out. Every capture renders
/// with Fast synthesis and robust averaging; the `synth` and `averaging`
/// lines still name them so existing cache entries keep their keys.
fn band_description(
    config: &SweepConfig,
    band: &SweepBand,
    system_id: &str,
    pair: ActivityPair,
    band_seed: u64,
    options: &CampaignOptions,
) -> String {
    let fault = options
        .fault_plan
        .as_ref()
        .map_or_else(|| "none".to_owned(), |p| p.cache_token());
    format!(
        "{KEY_FORMAT}\nsystem={system_id}\npair={pair:?}\n\
         band={} lo={:016x} hi={:016x} res={:016x}\n\
         falt1={:016x} fdelta={:016x} alts={} avgs={}\n\
         seed={band_seed:016x}\nsynth=Fast\nmax_fft={}\nmax_attempts={}\n\
         averaging=Robust\nfault={fault}",
        band.index,
        band.lo.hz().to_bits(),
        band.hi.hz().to_bits(),
        config.resolution.hz().to_bits(),
        config.f_alt1.hz().to_bits(),
        config.f_delta.hz().to_bits(),
        config.alternations,
        config.averages,
        options.max_fft,
        options.max_attempts,
    )
}

/// Where a band's report comes from, as the probe pass found it.
#[derive(Debug)]
enum Source {
    /// Read back from the capture cache and analysed.
    Cached(Result<FaseReport, FaseError>),
    /// Captured as band `job` of the sweep's capture pool, then stored
    /// under `key`.
    Captured { job: usize, key: CacheKey },
    /// A miss assigned to another shard.
    OtherShard,
    /// Not probed: the token had fired.
    Abandoned,
}

/// One band as the probe pass keyed it.
#[derive(Debug)]
struct Keyed {
    config: CampaignConfig,
    seed: u64,
    key: CacheKey,
    /// An entry file exists under `key`.
    stored: bool,
}

/// Runs a wide-band sweep: shard into bands, capture (or cache-hit) and
/// analyze each, merge into one span-wide report.
///
/// The sweep first keys every band, then loads, verifies and analyzes
/// the bands that have a cache entry in one [`par_map`] over them, then
/// captures all the missed bands on one work-stealing pool, their tasks
/// queued in band order. Each captured band is reduced, stored and
/// analyzed on the calling thread as soon as its last capture lands,
/// while the workers capture the next bands; reports merge in band order.
///
/// `factory(i_alt)` builds the [`SimulatedSystem`] the captures of
/// alternation `i_alt` measure, exactly as in
/// [`crate::run_campaign_with_options`]. It is called once per
/// alternation frequency per sweep, and every captured band shares that
/// system; a sweep with every band cached never calls it. `system_id`
/// must uniquely name what the factory builds (scene, machine and scene
/// seed), because it stands in for the opaque factory in the cache key.
/// Each band's campaign runs with seed `mix_seed(seed, band_index)`, so
/// band results are independent of which bands ran before or beside them
/// — the property that makes resumed and sharded sweeps bit-identical to
/// monolithic ones.
///
/// Cancellation is band-granular. Bands are handed to the pool in order,
/// so the bands whose captures all ran form a prefix: they stand and are
/// cached, and every band from the first unfinished one on is skipped.
/// A cached band reached after the token fired is skipped too.
///
/// # Errors
///
/// * [`FaseError::InvalidConfig`] — degenerate span/band plan, or a shard
///   assignment with `index >= count`.
/// * [`FaseError::Cache`] — the cache directory cannot be created or an
///   entry cannot be written. (Corrupt cache *entries* are never errors;
///   they are recomputed.)
/// * Any capture error a band campaign surfaces, unchanged, from the
///   first failing band.
pub fn run_sweep<F>(
    config: &SweepConfig,
    system_id: &str,
    pair: ActivityPair,
    factory: F,
    seed: u64,
    options: &SweepOptions,
) -> Result<SweepOutcome, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    let bands = plan_bands(
        config.lo,
        config.hi,
        config.resolution,
        config.bands,
        config.overlap,
    )?;
    if let Some(shard) = options.shard {
        if shard.count == 0 || shard.index >= shard.count {
            return Err(FaseError::invalid_config(format!(
                "shard {}/{} is not a valid assignment (need index < count)",
                shard.index, shard.count
            )));
        }
    }

    let recorder = options.campaign.recorder.clone();
    let _sweep_span = recorder.span("specan.sweep");

    let cache = options
        .cache_dir
        .as_ref()
        .map(CaptureCache::open)
        .transpose()?;
    let cancel = &options.campaign.cancel;

    // Probe pass: key every band and note which have an entry file.
    let mut keyed = Vec::with_capacity(bands.len());
    for band in &bands {
        if cancel.is_cancelled() {
            keyed.push(None);
            continue;
        }
        let _band_span = recorder.span("specan.sweep_band");
        let band_seed = mix_seed(seed, band.index as u64);
        let key = CacheKey::from_description(&band_description(
            config,
            band,
            system_id,
            pair,
            band_seed,
            &options.campaign,
        ));
        keyed.push(Some(Keyed {
            config: band_config(config, band)?,
            seed: band_seed,
            stored: cache.as_ref().is_some_and(|c| c.has_entry(&key)),
            key,
        }));
    }

    // One map over the bands with an entry: load, verify and analyze each
    // on the thread budget. A band that is not a hit there is a miss.
    let analyzer = Fase::default().with_recorder(recorder.clone());
    let stored: Vec<&Keyed> = keyed.iter().flatten().filter(|k| k.stored).collect();
    let mut loaded = par_map(&stored, |k| {
        let _band_span = recorder.span("specan.sweep_band");
        // A hit whose stored config disagrees with the plan means a
        // (vanishingly unlikely) key collision or tampering — never trust
        // it.
        cache
            .as_ref()
            .and_then(|c| c.load(&k.key))
            .filter(|spectra| *spectra.config() == k.config)
            .map(|spectra| analyzer.analyze(&spectra))
    })
    .into_iter();

    // The misses this shard owns become the pool's bands.
    let mut sources = Vec::with_capacity(bands.len());
    let mut captured: Vec<(CampaignConfig, u64)> = Vec::new();
    for (band, keyed) in bands.iter().zip(keyed) {
        let Some(keyed) = keyed else {
            sources.push(Source::Abandoned);
            continue;
        };
        let hit = if keyed.stored {
            loaded.next().flatten()
        } else {
            None
        };
        if let Some(report) = hit {
            sources.push(Source::Cached(report));
        } else if options
            .shard
            .is_some_and(|shard| band.index % shard.count != shard.index)
        {
            sources.push(Source::OtherShard);
        } else {
            sources.push(Source::Captured {
                job: captured.len(),
                key: keyed.key,
            });
            captured.push((keyed.config, keyed.seed));
        }
    }
    let jobs: Vec<PoolBand<'_>> = captured
        .iter()
        .map(|(config, seed)| PoolBand {
            config,
            alts: 0..config.alternation_count(),
            seed: *seed,
        })
        .collect();

    let finish = |pool: &CapturePool<'_>| -> Result<Finished, FaseError> {
        let mut done = Finished::default();
        for (band, source) in bands.iter().zip(sources) {
            let skipped = BandOutcome {
                band: *band,
                from_cache: false,
                skipped: true,
                carriers: 0,
            };
            if done.cancelled {
                done.outcomes.push(skipped);
                continue;
            }
            let _band_span = recorder.span("specan.sweep_band");
            let (report, from_cache) = match source {
                Source::OtherShard => {
                    done.outcomes.push(skipped);
                    continue;
                }
                Source::Cached(report) if !cancel.is_cancelled() => {
                    done.hits += 1;
                    (report, true)
                }
                Source::Captured { job, key } => {
                    let reduced = {
                        let _campaign = recorder.span("campaign");
                        pool.reduce(job)
                    };
                    match reduced.and_then(|r| r.into_campaign(jobs[job].config)) {
                        Ok(spectra) => {
                            if let Some(cache) = &cache {
                                cache.store(&key, &spectra)?;
                            }
                            done.misses += 1;
                            (analyzer.analyze(&spectra), false)
                        }
                        // The token fired before all of this band's
                        // captures ran: nothing of it is kept, and the
                        // sweep degrades to the bands before it.
                        Err(FaseError::Cancelled(_)) => {
                            done.cancelled = true;
                            done.outcomes.push(skipped);
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
                // The token fired before this band was in hand.
                Source::Cached(_) | Source::Abandoned => {
                    done.cancelled = true;
                    done.outcomes.push(skipped);
                    continue;
                }
            };
            let report = report?;
            done.outcomes.push(BandOutcome {
                band: *band,
                from_cache,
                skipped: false,
                carriers: report.len(),
            });
            done.reports.push(report);
        }
        Ok(done)
    };
    let Finished {
        outcomes,
        reports,
        hits,
        misses,
        cancelled,
    } = run_pool(&jobs, pair, &factory, &options.campaign, finish)??;

    recorder.count_usize("specan.cache_hits", hits);
    recorder.count_usize("specan.cache_misses", misses);

    let seam = seam_tolerance(config.resolution);
    let complete = outcomes.iter().all(|o| !o.skipped);
    let mut report = merge_band_reports(&reports, seam);
    if cancelled {
        // Count the abandoned bands' alternations as planned-but-lost so
        // the partial report carries the degraded mark (PR 2 semantics):
        // `surviving < planned` makes `is_degraded()` true.
        let abandoned = outcomes.iter().filter(|o| o.skipped).count();
        let mut health = report.health().cloned().unwrap_or_default();
        health.planned += abandoned * config.alternations;
        report = report.with_health(health);
    }
    Ok(SweepOutcome {
        report,
        bands: outcomes,
        cache_hits: hits,
        cache_misses: misses,
        complete,
        cancelled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_campaign_with_options;
    use fase_emsim::SimulatedSystem;
    use fase_sysmodel::Machine;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn demo_factory(i_alt: usize) -> SimulatedSystem {
        let mut system = SimulatedSystem::intel_i7_desktop(0xFA5E + i_alt as u64);
        system.machine = Machine::core_i7();
        system
    }

    fn small_sweep() -> SweepConfig {
        // 250–400 kHz contains the 315 kHz DRAM regulator; the same
        // campaign family the runner's detection tests use, split in two.
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fase-sched-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn uncached_sweep_covers_the_span_and_merges() {
        let outcome = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &fast_options(),
        )
        .unwrap();
        assert_eq!(outcome.bands.len(), 2);
        assert!(outcome.complete);
        assert_eq!(outcome.cache_hits, 0);
        assert_eq!(outcome.cache_misses, 2);
        assert!(outcome.bands.iter().all(|b| !b.from_cache && !b.skipped));
        // The i7 scene's memory carrier lands in the span; the merged
        // report must see evidence somewhere.
        assert!(!outcome.report.is_empty(), "{}", outcome.report);
    }

    #[test]
    fn warm_cache_reproduces_the_cold_report_bit_for_bit() {
        let dir = temp_dir("warm");
        let mut options = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..fast_options()
        };
        let cold = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &options,
        )
        .unwrap();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 2));

        let warm = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &options,
        )
        .unwrap();
        assert_eq!((warm.cache_hits, warm.cache_misses), (2, 0));
        assert!(warm.bands.iter().all(|b| b.from_cache));
        assert_eq!(warm.report.to_json(), cold.report.to_json());

        // A different seed must not hit the same entries.
        options.cache_dir = Some(dir.clone());
        let other = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            8,
            &options,
        )
        .unwrap();
        assert_eq!(other.cache_hits, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_halves_then_rerun_match_the_monolithic_sweep() {
        let dir = temp_dir("shard");
        let whole = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            11,
            &fast_options(),
        )
        .unwrap();

        // Shard 0/2 computes band 0 only; its outcome is partial.
        let shard0 = SweepOptions {
            cache_dir: Some(dir.clone()),
            shard: Some(Shard { index: 0, count: 2 }),
            ..fast_options()
        };
        let partial = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            11,
            &shard0,
        )
        .unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.cache_misses, 1);
        assert!(partial.bands[1].skipped);

        // Re-running without a shard over the same cache fills in band 1
        // and reproduces the monolithic report exactly.
        let rerun = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..fast_options()
        };
        let finished = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            11,
            &rerun,
        )
        .unwrap();
        assert!(finished.complete);
        assert_eq!((finished.cache_hits, finished.cache_misses), (1, 1));
        assert_eq!(finished.report.to_json(), whole.report.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capture_budget_yields_partial_degraded_sweep_then_rerun_completes() {
        let whole = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            11,
            &fast_options(),
        )
        .unwrap();
        for threads in [1, 2] {
            let dir = temp_dir(&format!("cancel-{threads}"));
            // Budget for one band's captures (5 alts × 1 segment × 3 avgs
            // = 15) but not two: band 0 completes, band 1 is abandoned.
            let mut limited = SweepOptions {
                cache_dir: Some(dir.clone()),
                ..fast_options()
            };
            limited.campaign.threads = Some(threads);
            limited.campaign.cancel = crate::CancelToken::new().with_capture_budget(15);
            let partial = run_sweep(
                &small_sweep(),
                "demo",
                ActivityPair::LdmLdl1,
                demo_factory,
                11,
                &limited,
            )
            .unwrap();
            assert!(partial.cancelled);
            assert!(!partial.complete);
            assert_eq!(partial.cache_misses, 1);
            assert!(!partial.bands[0].skipped && partial.bands[1].skipped);
            // The finished bands form a prefix, never a hole.
            assert!(
                partial
                    .bands
                    .windows(2)
                    .all(|w| w[1].skipped >= w[0].skipped),
                "{threads} threads: {:?}",
                partial.bands
            );
            // The partial report is marked degraded: abandoned
            // alternations count as planned-but-lost.
            assert!(partial.report.is_degraded());
            let health = partial.report.health().unwrap();
            assert_eq!(health.planned, 10);
            assert_eq!(health.surviving, 5);

            // A fresh run over the same cache dir picks up where the
            // budget stopped: band 0 cache-hits, band 1 computes, and the
            // result is bit-identical to a never-interrupted sweep.
            let rerun = SweepOptions {
                cache_dir: Some(dir.clone()),
                ..fast_options()
            };
            let finished = run_sweep(
                &small_sweep(),
                "demo",
                ActivityPair::LdmLdl1,
                demo_factory,
                11,
                &rerun,
            )
            .unwrap();
            assert!(finished.complete && !finished.cancelled);
            assert_eq!((finished.cache_hits, finished.cache_misses), (1, 1));
            assert_eq!(finished.report.to_json(), whole.report.to_json());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Every cache entry in `dir`, as (file name, bytes), by name.
    fn entries(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        entries.sort();
        entries
    }

    #[test]
    fn the_pool_matches_per_band_campaigns_at_any_thread_count() {
        // The reference is a sweep run band by band: one campaign per
        // band, stored and analyzed in band order, reports merged.
        let config = SweepConfig {
            bands: 3,
            ..small_sweep()
        };
        let pair = ActivityPair::LdmLdl1;
        let bands = plan_bands(
            config.lo,
            config.hi,
            config.resolution,
            config.bands,
            config.overlap,
        )
        .unwrap();
        let campaign = fast_options().campaign;
        let reference_dir = temp_dir("pool-reference");
        let cache = CaptureCache::open(&reference_dir).unwrap();
        let mut outcomes = Vec::new();
        let mut reports = Vec::new();
        for band in &bands {
            let band_seed = mix_seed(13, band.index as u64);
            let spectra = run_campaign_with_options(
                &band_config(&config, band).unwrap(),
                pair,
                demo_factory,
                band_seed,
                campaign.clone(),
            )
            .unwrap();
            let description = band_description(&config, band, "demo", pair, band_seed, &campaign);
            cache
                .store(&CacheKey::from_description(&description), &spectra)
                .unwrap();
            let report = Fase::default().analyze(&spectra).unwrap();
            outcomes.push(BandOutcome {
                band: *band,
                from_cache: false,
                skipped: false,
                carriers: report.len(),
            });
            reports.push(report);
        }
        let merged = merge_band_reports(&reports, seam_tolerance(config.resolution));
        let expected = entries(&reference_dir);
        assert_eq!(expected.len(), 3);
        for threads in [1, 2, 4] {
            let dir = temp_dir(&format!("pool-{threads}"));
            let mut options = SweepOptions {
                cache_dir: Some(dir.clone()),
                ..fast_options()
            };
            options.campaign.threads = Some(threads);
            let outcome = run_sweep(&config, "demo", pair, demo_factory, 13, &options).unwrap();
            assert_eq!(
                outcome.report.to_json(),
                merged.to_json(),
                "{threads} threads"
            );
            assert_eq!(outcome.bands, outcomes, "{threads} threads");
            assert_eq!(entries(&dir), expected, "{threads} threads");
            std::fs::remove_dir_all(&dir).unwrap();
        }
        std::fs::remove_dir_all(&reference_dir).unwrap();
    }

    #[test]
    fn the_factory_runs_once_per_alternation_frequency_per_sweep() {
        // Both bands capture, and both share the five systems.
        let calls = AtomicUsize::new(0);
        let mut options = fast_options();
        options.campaign.threads = Some(2);
        run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            |i_alt| {
                calls.fetch_add(1, Ordering::Relaxed);
                demo_factory(i_alt)
            },
            7,
            &options,
        )
        .unwrap();
        assert_eq!(calls.into_inner(), small_sweep().alternations);
    }

    #[test]
    fn a_failed_band_fails_the_sweep_and_stores_no_band() {
        // Four of five alternations fail in every band, so band 0 cannot
        // form a campaign: its error ends the sweep before any band is
        // stored, though the pool may already have captured later ones.
        let dir = temp_dir("failed");
        let mut plan = crate::FaultPlan::new(3);
        for i_alt in 0..4 {
            plan = plan.always_fail(i_alt);
        }
        let mut options = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..fast_options()
        };
        options.campaign.threads = Some(2);
        options.campaign.max_attempts = 1;
        options.campaign.fault_plan = Some(plan);
        let err = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &options,
        )
        .unwrap_err();
        assert!(matches!(err, FaseError::CaptureFailed { .. }), "{err}");
        assert!(entries(&dir).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_cancelled_sweep_skips_every_band() {
        // Uncached, and over a warm cache: no band is probed or analysed.
        let dir = temp_dir("cancel");
        let warm = SweepOptions {
            cache_dir: Some(dir.clone()),
            ..fast_options()
        };
        let sweep = |options: &SweepOptions| {
            run_sweep(
                &small_sweep(),
                "demo",
                ActivityPair::LdmLdl1,
                demo_factory,
                7,
                options,
            )
            .unwrap()
        };
        sweep(&warm);
        for mut options in [fast_options(), warm] {
            let recorder = fase_obs::Recorder::detached();
            options.campaign.recorder = recorder.clone();
            options.campaign.cancel = crate::CancelToken::new();
            options.campaign.cancel.cancel();
            let outcome = sweep(&options);
            assert!(outcome.cancelled && !outcome.complete);
            assert!(outcome.bands.iter().all(|b| b.skipped));
            assert_eq!((outcome.cache_hits, outcome.cache_misses), (0, 0));
            assert!(outcome.report.is_empty());
            assert!(outcome.report.is_degraded());
            let spans = recorder.snapshot().spans;
            assert!(
                !spans.keys().any(|path| path.contains("analyze")),
                "{spans:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_key_descriptions_are_pinned() {
        // On-disk captures are addressed by this description: any change
        // strands every existing cache, so a change here must come with a
        // KEY_FORMAT bump.
        let config = small_sweep();
        let options = fast_options().campaign;
        let bands = plan_bands(
            config.lo,
            config.hi,
            config.resolution,
            config.bands,
            config.overlap,
        )
        .unwrap();
        let pair = ActivityPair::LdmLdl1;
        let band = band_description(&config, &bands[1], "demo", pair, mix_seed(7, 1), &options);
        assert_eq!(
            CacheKey::from_description(&band).hex(),
            "fcd81f041c301c90c0e6d64afd1e79e1",
            "band key moved:\n{band}"
        );
    }

    #[test]
    fn bad_shard_assignment_is_refused() {
        let options = SweepOptions {
            shard: Some(Shard { index: 2, count: 2 }),
            ..fast_options()
        };
        let err = run_sweep(
            &small_sweep(),
            "demo",
            ActivityPair::LdmLdl1,
            demo_factory,
            7,
            &options,
        )
        .unwrap_err();
        assert!(matches!(err, FaseError::InvalidConfig(_)), "{err}");
    }
}

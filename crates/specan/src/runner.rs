//! The campaign engine: a pool of capture tasks that orchestrates
//! micro-benchmark execution, EM rendering, capture, averaging and
//! stitching for a full FASE campaign.

use crate::analyzer::SpectrumAnalyzer;
use crate::cancel::CancelToken;
use crate::fault::{FaultKind, FaultPlan};
use crate::sweep::{SegmentSpec, SweepPlan};
use fase_core::{
    worker_threads, CampaignConfig, CampaignHealth, CampaignSpectra, DroppedAlternation, FaseError,
    FaultRecord, LabeledSpectrum,
};
use fase_dsp::rng::{mix_seed, SmallRng};
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::{RenderCtx, SimulatedSystem};
use fase_obs::{span, Recorder};
use fase_sysmodel::{ActivityPair, Alternation};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default FFT length cap (131072 points covers the paper's 0–4 MHz /
/// 50 Hz campaign in one segment).
pub const DEFAULT_MAX_FFT: usize = 1 << 17;

/// Default per-capture attempt budget: one regular try plus two retries.
pub const DEFAULT_MAX_ATTEMPTS: u32 = 3;

/// Captures whose total power deviates from the cohort median by more
/// than this factor (either way) are quarantined by the robust averager.
const QUARANTINE_FACTOR: f64 = 8.0;

/// Drops gross power outliers from a capture cohort. Quarantine needs a
/// majority to define "normal": cohorts smaller than three captures, a
/// non-positive median, or fewer than two survivors keep everything (the
/// per-bin trimmed mean still limits the damage).
fn quarantine(captures: &[Spectrum]) -> Vec<&Spectrum> {
    if captures.len() < 3 {
        return captures.iter().collect();
    }
    let totals: Vec<f64> = captures.iter().map(Spectrum::total_power).collect();
    let med = fase_dsp::stats::median(&totals);
    if !med.is_finite() || med <= 0.0 {
        return captures.iter().collect();
    }
    let keep: Vec<&Spectrum> = captures
        .iter()
        .zip(&totals)
        .filter(|(_, &t)| {
            t.is_finite() && t <= QUARANTINE_FACTOR * med && t >= med / QUARANTINE_FACTOR
        })
        .map(|(s, _)| s)
        .collect();
    if keep.len() >= 2 {
        keep
    } else {
        captures.iter().collect()
    }
}

/// RNG stream for `(campaign seed, task index, attempt)`. Attempt 0 uses
/// the same derivation as the pre-retry runner (`mix_seed(seed, index)`),
/// so fault-free campaigns reproduce historical results bit-for-bit;
/// each retry re-derives a fresh, equally well-mixed stream.
fn attempt_seed(seed: u64, index: usize, attempt: u32) -> u64 {
    let base = mix_seed(seed, index as u64);
    if attempt == 0 {
        base
    } else {
        mix_seed(base, attempt as u64)
    }
}

/// Tuning knobs for the pooled campaign executor
/// ([`run_campaign_with_options`]).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker thread count. `None` reads the `FASE_THREADS` environment
    /// variable and falls back to the machine's available parallelism.
    pub threads: Option<usize>,
    /// FFT length cap for the sweep plan (see [`DEFAULT_MAX_FFT`]).
    pub max_fft: usize,
    /// Deterministic impairment schedule injected into captures; `None`
    /// runs clean.
    pub fault_plan: Option<FaultPlan>,
    /// Per-capture attempt budget (minimum 1; a failed capture is retried
    /// on a fresh derived RNG stream until the budget is exhausted).
    pub max_attempts: u32,
    /// Metrics [`Recorder`] campaign spans, counters and capture timings
    /// report through (default is the process-wide recorder, inert unless
    /// enabled). Observability never affects campaign output.
    pub recorder: Recorder,
    /// Cooperative cancellation budget (deadline / capture budget /
    /// explicit cancel). The default token never fires, so default runs
    /// stay bit-identical; a fired token stops workers before their next
    /// task and surfaces as [`FaseError::Cancelled`] from the reduce.
    pub cancel: CancelToken,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            threads: None,
            max_fft: DEFAULT_MAX_FFT,
            fault_plan: None,
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            recorder: Recorder::global(),
            cancel: CancelToken::never(),
        }
    }
}

/// One independent unit of campaign work: a single IQ capture, identified
/// by its (alternation frequency, sweep segment, average) cell.
#[derive(Debug, Clone, Copy)]
struct CaptureTask {
    /// Position in the flattened campaign order; doubles as the RNG
    /// stream index and the capture's slot in the time schedule.
    index: usize,
    i_alt: usize,
    i_seg: usize,
    /// Position within the segment's averaging cohort (a fault-plan
    /// coordinate).
    i_avg: usize,
}

/// What a finished capture contributes to the reduction.
#[derive(Debug)]
struct CaptureOut {
    spectrum: Spectrum,
    /// X/Y pair count of the executed trace, for the achieved-f_alt
    /// bookkeeping.
    pairs: usize,
    trace_duration: f64,
}

/// Everything a capture task reports back: the capture (or the terminal
/// error after retry exhaustion), attempts spent, impairments suffered.
#[derive(Debug)]
struct TaskResult {
    out: Result<CaptureOut, FaseError>,
    attempts: u32,
    faults: Vec<FaultRecord>,
}

/// Extracts a printable message from a worker panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker thread panicked".to_owned()
    }
}

/// Per-alternation-frequency setup shared by that frequency's capture
/// tasks: the calibrated micro-benchmark and the machine whose profile
/// cache the calibration warmed. Tasks clone the machine, so every
/// capture starts from the identical calibrated state — and skips the
/// expensive op-level profiling pass.
#[derive(Debug)]
struct Prepared {
    machine: fase_sysmodel::Machine,
    bench: Alternation,
}

/// Returns the [`Prepared`] state for `i_alt`, building it on first use.
///
/// The build is deterministic (factory + calibration, no RNG), so it
/// does not matter which worker gets there first; the per-slot mutex
/// makes later tasks of the same frequency wait for it rather than
/// duplicate the calibration. The op-level profiling inside it is
/// memoized process-wide by [`fase_sysmodel::Machine::profile`], so only
/// the first campaign on a given machine pays for the pointer chase.
fn prepared_for<F>(
    slot: &Mutex<Option<std::sync::Arc<Prepared>>>,
    i_alt: usize,
    f_alt: Hertz,
    pair: ActivityPair,
    factory: &F,
) -> std::sync::Arc<Prepared>
where
    F: Fn(usize) -> SimulatedSystem,
{
    let mut guard = slot
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(p) = &*guard {
        return std::sync::Arc::clone(p);
    }
    let mut machine = factory(i_alt).machine;
    let bench = pair.calibrated(&mut machine, f_alt.hz());
    let p = std::sync::Arc::new(Prepared { machine, bench });
    *guard = Some(std::sync::Arc::clone(&p));
    p
}

/// Executes one capture attempt: build the system, run the calibrated
/// benchmark on the pre-profiled machine, render the EM scene, apply any
/// injected impairment and transform the capture.
///
/// Everything the attempt touches — machine, RNG stream, capture start
/// time, fault realization — is derived from the task's own coordinates
/// (and the attempt number), so the result is identical no matter which
/// worker runs it or in what order.
#[allow(clippy::too_many_arguments)]
fn execute_capture<F>(
    task: CaptureTask,
    attempt: u32,
    fault: Option<FaultKind>,
    prepared: &Prepared,
    segment: &SegmentSpec,
    factory: &F,
    seed: u64,
    recorder: &Recorder,
) -> Result<CaptureOut, FaseError>
where
    F: Fn(usize) -> SimulatedSystem,
{
    if fault == Some(FaultKind::TaskFailure) {
        return Err(FaseError::worker("injected task failure"));
    }
    // Set-up stages are child spans of the pool's `capture` span, beside
    // the `synth` and `transform` spans opened further down.
    let mut system = {
        let _setup = span!(recorder, "setup");
        let mut system = factory(task.i_alt);
        system.machine = prepared.machine.clone();
        system
    };
    let stream = attempt_seed(seed, task.index, attempt);
    let mut rng = SmallRng::seed_from_u64(stream);
    let window = segment.window(task.index as f64 * segment.duration());
    let trace = {
        let _alternation = span!(recorder, "alternation");
        system
            .machine
            .run_alternation(&prepared.bench, segment.duration(), &mut rng)
    };
    let pairs = (trace.len() / 2).max(1);
    let trace_duration = trace.duration();
    let refreshes = {
        let _refresh = span!(recorder, "refresh");
        system.refresh.schedule(&trace, &mut rng)
    };
    let ctx = {
        let _render_ctx = span!(recorder, "render_ctx");
        RenderCtx::new(&trace, &refreshes, &window).with_recorder(recorder.clone())
    };
    let mut iq = system.scene.render(&window, &ctx);
    if let Some(kind) = fault {
        let mut fault_rng = SmallRng::seed_from_u64(mix_seed(stream, 0xFAB1_7FAB));
        kind.apply(&mut iq, &mut fault_rng);
    }
    let spectrum = SpectrumAnalyzer::default().spectrum(&window, &iq)?;
    Ok(CaptureOut {
        spectrum,
        pairs,
        trace_duration,
    })
}

/// Runs the capture tasks of the alternation frequencies in `alts` on a
/// work-stealing pool and returns their results in task order.
///
/// Workers pull tasks from a shared atomic cursor, so a slow capture never
/// idles the rest of the pool. Task indices are those of the whole
/// campaign (alternation-major, then segment, then average), so running a
/// subset of the alternations measures exactly what the full campaign
/// measures for them.
///
/// # Errors
///
/// A panicking worker surfaces as [`FaseError::Worker`]; tasks a fired
/// [`CancelToken`] left unrun surface as [`FaseError::Cancelled`].
fn execute_tasks<F>(
    config: &CampaignConfig,
    alts: Range<usize>,
    segments: &[SegmentSpec],
    pair: ActivityPair,
    factory: &F,
    seed: u64,
    options: &CampaignOptions,
) -> Result<Vec<TaskResult>, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    let f_alts = config.alternation_frequencies();
    let averages = config.averages();
    let mut tasks = Vec::with_capacity(alts.len() * segments.len() * averages);
    for i_alt in alts {
        for i_seg in 0..segments.len() {
            for i_avg in 0..averages {
                tasks.push(CaptureTask {
                    index: (i_alt * segments.len() + i_seg) * averages + i_avg,
                    i_alt,
                    i_seg,
                    i_avg,
                });
            }
        }
    }

    let threads = worker_threads(options.threads).min(tasks.len()).max(1);
    let max_attempts = options.max_attempts.max(1);
    let fault_plan = options.fault_plan.as_ref();
    let recorder = &options.recorder;
    let cancel = &options.cancel;
    let next = AtomicUsize::new(0);
    let prepared: Vec<Mutex<Option<std::sync::Arc<Prepared>>>> =
        f_alts.iter().map(|_| Mutex::new(None)).collect();
    let results: Mutex<Vec<Option<TaskResult>>> =
        Mutex::new((0..tasks.len()).map(|_| None).collect());

    let mut worker_panic: Option<String> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let tasks = &tasks;
                let next = &next;
                let prepared = &prepared;
                let results = &results;
                let f_alts = &f_alts;
                scope.spawn(move || loop {
                    // Cooperative cancellation: stop before claiming the
                    // next task, so latency is bounded by one capture.
                    if cancel.is_cancelled() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&task) = tasks.get(i) else { break };
                    let prep = prepared_for(
                        &prepared[task.i_alt],
                        task.i_alt,
                        f_alts[task.i_alt],
                        pair,
                        factory,
                    );
                    // Worker threads have their own span stack, so this
                    // aggregates as a root "capture" span (one entry per
                    // task, retries included).
                    let _capture = span!(recorder, "capture");
                    let t0 = recorder.is_active().then(fase_obs::monotonic_ns);
                    // Bounded retry: each attempt draws its own fault and
                    // RNG stream from the task coordinates, so the retry
                    // history is identical for any worker count.
                    let mut faults = Vec::new();
                    let mut attempt = 0u32;
                    let result = loop {
                        let fault = fault_plan
                            .and_then(|p| p.draw(task.i_alt, task.i_seg, task.i_avg, attempt));
                        if let Some(kind) = fault {
                            faults.push(FaultRecord {
                                f_alt: f_alts[task.i_alt],
                                segment: task.i_seg,
                                average: task.i_avg,
                                attempt,
                                tag: kind.tag().to_owned(),
                            });
                        }
                        let out = execute_capture(
                            task,
                            attempt,
                            fault,
                            &prep,
                            &segments[task.i_seg],
                            factory,
                            seed,
                            recorder,
                        );
                        cancel.consume_capture();
                        attempt += 1;
                        match out {
                            Ok(out) => {
                                break TaskResult {
                                    out: Ok(out),
                                    attempts: attempt,
                                    faults,
                                }
                            }
                            Err(e) => {
                                // Exhausted budget or a fired token ends
                                // the retry burn; either way the capture
                                // reports as failed and the alternation
                                // degrades.
                                if attempt >= max_attempts || cancel.is_cancelled() {
                                    break TaskResult {
                                        out: Err(FaseError::capture_failed(
                                            f_alts[task.i_alt],
                                            task.i_seg,
                                            attempt,
                                            e.to_string(),
                                        )),
                                        attempts: attempt,
                                        faults,
                                    };
                                }
                            }
                        }
                    };
                    if let Some(t0) = t0 {
                        let elapsed = fase_obs::monotonic_ns().saturating_sub(t0);
                        recorder.observe_ns("specan.capture_ns", elapsed);
                    }
                    if result.out.is_ok() {
                        recorder.count("specan.captures", 1);
                    }
                    results
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)[i] = Some(result);
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                worker_panic.get_or_insert(panic_message(payload));
            }
        }
    });
    if let Some(msg) = worker_panic {
        return Err(FaseError::worker(msg));
    }
    results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|result| {
            // A hole in the results with a fired token is the
            // cancellation itself, not a scheduler bug.
            result.ok_or_else(|| {
                if cancel.is_cancelled() {
                    FaseError::cancelled(cancel.cause().unwrap_or("cancelled"))
                } else {
                    FaseError::worker("capture task never ran")
                }
            })
        })
        .collect()
}

/// Runs the capture tasks of the alternation frequencies in `alts` and
/// reduces them in task order (worker scheduling cannot reorder this):
/// average each segment's captures, stitch segments, trim to band, and
/// label each spectrum with the achieved alternation frequency. An
/// alternation frequency with an exhausted capture is dropped and
/// recorded in the health, which is also published to the recorder.
///
/// Returns the surviving spectra in alternation order, the health, and
/// the first capture failure that dropped an alternation, if any.
fn measure_alternations<F>(
    config: &CampaignConfig,
    alts: Range<usize>,
    pair: ActivityPair,
    factory: &F,
    seed: u64,
    options: &CampaignOptions,
) -> Result<(Vec<LabeledSpectrum>, CampaignHealth, Option<FaseError>), FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    let f_alts = config.alternation_frequencies();
    let plan = SweepPlan::new(
        config.band_lo(),
        config.band_hi(),
        config.resolution(),
        options.max_fft,
    );
    let segments = plan.segments();
    let averages = config.averages();
    let recorder = &options.recorder;
    let _campaign = span!(recorder, "campaign");
    let results = execute_tasks(config, alts.clone(), segments, pair, factory, seed, options)?;

    let _reduce = span!(recorder, "reduce");
    let mut results = results.into_iter();
    let mut health = CampaignHealth::new(alts.len());
    let mut labeled = Vec::with_capacity(alts.len());
    let mut first_failure: Option<FaseError> = None;
    for &f_alt in &f_alts[alts] {
        let mut segment_spectra = Vec::with_capacity(segments.len());
        let mut period_sum = 0.0f64;
        let mut period_count = 0usize;
        let mut alt_failure: Option<FaseError> = None;
        for _ in segments {
            let mut captures = Vec::with_capacity(averages);
            for result in results.by_ref().take(averages) {
                if result.attempts > 1 {
                    health.retried_tasks += 1;
                    health.total_retries += (result.attempts - 1) as usize;
                }
                health.faults.extend(result.faults);
                match result.out {
                    Ok(out) => {
                        period_sum += out.trace_duration / out.pairs as f64;
                        period_count += 1;
                        captures.push(out.spectrum);
                    }
                    Err(e) => {
                        alt_failure.get_or_insert(e);
                    }
                }
            }
            if alt_failure.is_none() {
                // Quarantine gross power outliers, then combine the
                // survivors with a per-bin trimmed mean.
                let survivors = quarantine(&captures);
                health.quarantined += captures.len() - survivors.len();
                segment_spectra.push(Spectrum::robust_average(survivors.iter().copied())?);
            }
        }
        if let Some(e) = alt_failure {
            first_failure.get_or_insert_with(|| e.clone());
            health.dropped.push(DroppedAlternation { f_alt, error: e });
            continue;
        }
        let stitched = Spectrum::stitch(segment_spectra.iter())?;
        let spectrum = stitched.band(config.band_lo(), config.band_hi())?;
        let measured = Hertz(period_count as f64 / period_sum);
        labeled.push(LabeledSpectrum {
            f_alt: measured,
            spectrum,
        });
    }
    health.surviving = labeled.len();
    // Retries, quarantines and faults show up in `--metrics-out` next to
    // the stage timings.
    recorder.count_usize("specan.capture_retries", health.total_retries);
    recorder.count_usize("specan.quarantined", health.quarantined);
    recorder.count_usize("specan.faults_injected", health.faults.len());
    recorder.count_usize("specan.dropped_alternations", health.dropped.len());
    Ok((labeled, health, first_failure))
}

/// Runs a campaign on a work-stealing pool of capture tasks.
///
/// This is the paper's §3 measurement procedure: for each alternation
/// frequency, calibrate the X/Y micro-benchmark, run it, schedule
/// refreshes, render the EM scene, capture, average the captures of each
/// sweep segment, stitch, and label the spectrum with the *achieved*
/// alternation frequency.
///
/// The campaign is flattened into independent `(f_alt, sweep segment,
/// average)` capture tasks. Each task seeds its RNG from
/// `mix_seed(seed, task_index)` and derives its capture start time from
/// its position in the flattened order, which makes the assembled
/// [`CampaignSpectra`] bit-identical for any worker count — including
/// one.
///
/// `factory(i_alt)` builds the [`SimulatedSystem`] a task measures
/// (usually the same preset with the same seed: the EM world is one
/// machine, while capture noise realizations differ per measurement).
///
/// An alternation frequency whose capture retry budget is exhausted is
/// dropped and the campaign degrades to the survivors (the heuristic needs
/// only two spectra), with a [`CampaignHealth`] record attached.
///
/// # Errors
///
/// [`FaseError::CaptureFailed`] when fewer than two alternation
/// frequencies survive, [`FaseError::Cancelled`] when the options' token
/// fires before every capture ran, and [`FaseError::Worker`] when a worker
/// panics (instead of poisoning the process).
pub fn run_campaign_with_options<F>(
    config: &CampaignConfig,
    pair: ActivityPair,
    factory: F,
    seed: u64,
    options: CampaignOptions,
) -> Result<CampaignSpectra, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    let alts = 0..config.alternation_count();
    let (labeled, health, first_failure) =
        measure_alternations(config, alts, pair, &factory, seed, &options)?;
    if labeled.len() < 2 {
        return Err(first_failure.unwrap_or_else(|| {
            FaseError::invalid_spectra("fewer than two alternation frequencies survived")
        }));
    }
    Ok(CampaignSpectra::new(config.clone(), labeled)?.with_health(health))
}

/// Measures alternation frequency `i_alt` of a campaign on the
/// capture-task pool: the averaged, stitched, band-trimmed spectrum,
/// labeled with the achieved alternation frequency.
///
/// Only that alternation's capture tasks run, under the campaign's own
/// task indices, so the result is bit-identical to entry `i_alt` of
/// [`run_campaign_with_options`] called with the same arguments. Figures
/// that need single spectra rather than a full campaign build on it.
///
/// # Errors
///
/// [`FaseError::InvalidConfig`] when `i_alt` is out of range and
/// [`FaseError::CaptureFailed`] when a capture exhausts its retry budget;
/// otherwise as [`run_campaign_with_options`].
pub fn measure_alternation<F>(
    config: &CampaignConfig,
    i_alt: usize,
    pair: ActivityPair,
    factory: F,
    seed: u64,
    options: CampaignOptions,
) -> Result<LabeledSpectrum, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    if i_alt >= config.alternation_count() {
        return Err(FaseError::invalid_config(format!(
            "alternation index {i_alt} is out of range for {} alternation frequencies",
            config.alternation_count()
        )));
    }
    let (mut labeled, _, first_failure) =
        measure_alternations(config, i_alt..i_alt + 1, pair, &factory, seed, &options)?;
    labeled.pop().ok_or_else(|| {
        first_failure.unwrap_or_else(|| FaseError::invalid_spectra("alternation was not measured"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_core::Fase;
    use fase_emsim::SimulatedSystem;

    /// A fast, narrow campaign around the demo regulator for smoke tests.
    fn small_config() -> CampaignConfig {
        CampaignConfig::builder()
            .band(Hertz::from_khz(250.0), Hertz::from_khz(400.0))
            .resolution(Hertz(200.0))
            .alternation(Hertz::from_khz(30.0), Hertz(2_000.0), 5)
            .averages(3)
            .build()
            .unwrap()
    }

    fn demo_system(seed: u64) -> SimulatedSystem {
        let mut system = SimulatedSystem::intel_i7_desktop(seed);
        // Keep the preset machine; the scene is fine as-is.
        system.machine = fase_sysmodel::Machine::core_i7();
        system
    }

    /// Campaign options with a small FFT cap.
    fn small_fft() -> CampaignOptions {
        CampaignOptions {
            max_fft: 1 << 12,
            ..CampaignOptions::default()
        }
    }

    /// One averaged spectrum over `[lo, hi]` with the benchmark
    /// alternating at `f_alt`: the first alternation of a two-frequency
    /// campaign.
    fn single_spectrum(
        pair: ActivityPair,
        system_seed: u64,
        seed: u64,
        f_alt: Hertz,
        (lo, hi): (Hertz, Hertz),
        resolution: Hertz,
        averages: usize,
    ) -> Spectrum {
        let config = CampaignConfig::builder()
            .band(lo, hi)
            .resolution(resolution)
            .alternation(f_alt, resolution, 2)
            .averages(averages)
            .build()
            .unwrap();
        measure_alternation(
            &config,
            0,
            pair,
            |_| demo_system(system_seed),
            seed,
            small_fft(),
        )
        .unwrap()
        .spectrum
    }

    #[test]
    fn campaign_produces_consistent_spectra() {
        let config = small_config();
        let spectra = run_campaign_with_options(
            &config,
            ActivityPair::LdmLdl1,
            |_| demo_system(5),
            11,
            small_fft(),
        )
        .unwrap();
        assert_eq!(spectra.len(), 5);
        let s0 = spectra.spectrum(0);
        assert_eq!(s0.resolution(), Hertz(200.0));
        assert!((s0.start().hz() - 250_000.0).abs() < 200.0);
        // Achieved f_alt close to requested.
        for (label, requested) in spectra
            .spectra()
            .iter()
            .zip(config.alternation_frequencies())
        {
            let err = (label.f_alt - requested).hz().abs() / requested.hz();
            assert!(err < 0.03, "achieved {} vs {requested}", label.f_alt);
        }
    }

    #[test]
    fn regulator_carrier_detected_in_band() {
        // 250–400 kHz contains the 315 kHz DRAM regulator (memory-
        // modulated) and the 332 kHz core regulator (not memory-modulated).
        let spectra = run_campaign_with_options(
            &small_config(),
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            12,
            small_fft(),
        )
        .unwrap();
        let report = Fase::default().analyze(&spectra).unwrap();
        let dram_reg = report.carrier_near(Hertz::from_khz(315.0), Hertz(1_500.0));
        assert!(dram_reg.is_some(), "{report}");
    }

    #[test]
    fn single_spectrum_shape() {
        // Idle memory (LDL1/LDL1): the refresh comb is clean and strong.
        // 125 Hz resolution: the refresh line is narrow, so a finer grid
        // keeps its bin at full power while the broadband (rolling-noise)
        // floor drops with the bin width — a sharper contrast measurement.
        let s = single_spectrum(
            ActivityPair::Ldl1Ldl1,
            7,
            13,
            Hertz::from_khz(30.0),
            (Hertz::from_khz(100.0), Hertz::from_khz(160.0)),
            Hertz(125.0),
            2,
        );
        assert_eq!(s.resolution(), Hertz(125.0));
        assert!(s.len() >= 480);
        // Peak-bin search around the nominal line so scalloping (the line
        // straddling two 500 Hz bins) does not understate it.
        let (_, peak) = s
            .band(Hertz(127_000.0), Hertz(129_000.0))
            .unwrap()
            .peak_bin();
        assert!(
            peak > 10.0 * s.median_power(),
            "refresh fundamental missing: {} vs median {}",
            peak,
            s.median_power()
        );
    }

    #[test]
    fn pair_calibration_on_the_demo_machine() {
        let mut system = demo_system(9);
        assert!(system.scene.source_count() > 5);
        let bench = ActivityPair::LdmLdl1.calibrated(&mut system.machine, 43_300.0);
        assert!(bench.x_count() >= 1 && bench.y_count() > bench.x_count());
        assert_eq!(bench.label(), "LDM/LDL1");
    }

    #[test]
    fn measure_alternation_matches_the_campaign() {
        // One engine: measuring a single alternation runs exactly that
        // alternation's tasks of the full campaign, for any worker count.
        let config = small_config();
        for threads in [1, 2] {
            let options = CampaignOptions {
                threads: Some(threads),
                ..small_fft()
            };
            let campaign = run_campaign_with_options(
                &config,
                ActivityPair::LdmLdl1,
                |_| demo_system(6),
                77,
                options.clone(),
            )
            .unwrap();
            for (i, labeled) in campaign.spectra().iter().enumerate() {
                let single = measure_alternation(
                    &config,
                    i,
                    ActivityPair::LdmLdl1,
                    |_| demo_system(6),
                    77,
                    options.clone(),
                )
                .unwrap();
                assert_eq!(
                    single.spectrum, labeled.spectrum,
                    "alternation {i} at {threads} thread(s)"
                );
                assert_eq!(single.f_alt, labeled.f_alt);
            }
        }
        let err = measure_alternation(
            &config,
            5,
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            small_fft(),
        )
        .unwrap_err();
        assert!(matches!(err, FaseError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn parallel_campaign_matches_detection() {
        let config = small_config();
        let spectra = run_campaign_with_options(
            &config,
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            CampaignOptions::default(),
        )
        .unwrap();
        assert_eq!(spectra.len(), 5);
        let report = Fase::default().analyze(&spectra).unwrap();
        assert!(
            report
                .carrier_near(Hertz::from_khz(315.66), Hertz(1_500.0))
                .is_some(),
            "{report}"
        );
    }

    #[test]
    fn pooled_campaign_is_deterministic_across_thread_counts() {
        // The flattened task schedule derives every capture's RNG stream
        // and start time from the task index alone, so the reduction must
        // be bit-for-bit identical no matter how many workers raced over
        // the queue — and across repeated runs with the same seed.
        let config = small_config();
        let run = |threads: usize| {
            run_campaign_with_options(
                &config,
                ActivityPair::LdmLdl1,
                |_| demo_system(6),
                77,
                CampaignOptions {
                    threads: Some(threads),
                    ..CampaignOptions::default()
                },
            )
            .unwrap()
        };
        let sequential = run(1);
        let pooled = run(4);
        assert_eq!(sequential, pooled, "threads=1 vs threads=4 diverged");
        assert_eq!(sequential, run(1), "same seed, same thread count diverged");
    }

    #[test]
    fn pooled_campaign_records_observability() {
        let recorder = Recorder::detached();
        let spectra = run_campaign_with_options(
            &small_config(),
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            CampaignOptions {
                threads: Some(2),
                recorder: recorder.clone(),
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert_eq!(spectra.len(), 5);
        let snap = recorder.snapshot();
        assert_eq!(snap.counters.get("specan.captures"), Some(&15));
        // Workers run on their own threads, so captures aggregate as root
        // spans next to the reducing main thread's campaign span.
        for path in ["campaign", "campaign/reduce", "capture", "capture/synth"] {
            assert!(snap.spans.contains_key(path), "missing span {path}");
        }
        assert_eq!(snap.spans.get("capture").unwrap().count, 15);
        assert_eq!(snap.histograms.get("specan.capture_ns").unwrap().count, 15);
    }

    #[test]
    fn worker_panic_surfaces_as_error() {
        let config = small_config();
        let err = run_campaign_with_options(
            &config,
            ActivityPair::LdmLdl1,
            |i| {
                assert!(i < 2, "synthetic factory failure");
                demo_system(6)
            },
            77,
            CampaignOptions {
                threads: Some(2),
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, FaseError::Worker(msg) if msg.contains("synthetic factory failure")),
            "expected Worker error, got {err:?}"
        );
    }

    #[test]
    fn pre_cancelled_campaign_returns_cancelled() {
        let token = crate::CancelToken::new();
        token.cancel();
        let err = run_campaign_with_options(
            &small_config(),
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            CampaignOptions {
                threads: Some(2),
                cancel: token,
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, FaseError::Cancelled(msg) if msg.contains("cancelled by caller")),
            "expected Cancelled, got {err:?}"
        );
    }

    #[test]
    fn exhausted_capture_budget_cancels_mid_campaign() {
        // 15 captures planned; a budget of 4 stops the workers early and
        // the reduce reports the budget as the cause.
        let err = run_campaign_with_options(
            &small_config(),
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            CampaignOptions {
                threads: Some(1),
                cancel: crate::CancelToken::new().with_capture_budget(4),
                ..CampaignOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(&err, FaseError::Cancelled(msg) if msg.contains("capture budget")),
            "expected Cancelled(budget), got {err:?}"
        );
    }

    #[test]
    fn inert_token_leaves_campaign_bit_identical() {
        let config = small_config();
        let run = |cancel: crate::CancelToken| {
            run_campaign_with_options(
                &config,
                ActivityPair::LdmLdl1,
                |_| demo_system(6),
                77,
                CampaignOptions {
                    cancel,
                    ..CampaignOptions::default()
                },
            )
            .unwrap()
        };
        let plain = run(CampaignOptions::default().cancel);
        assert_eq!(plain, run(crate::CancelToken::never()));
        assert_eq!(plain, run(crate::CancelToken::new()));
    }

    #[test]
    fn refresh_comb_weakens_under_load() {
        // §4.2: the refresh carrier is strongest when memory is idle and
        // weakest under continuous memory activity.
        let measure = |pair: ActivityPair, seed: u64| -> f64 {
            let s = single_spectrum(
                pair,
                8,
                seed,
                Hertz::from_khz(30.0),
                (Hertz::from_khz(120.0), Hertz::from_khz(140.0)),
                Hertz(500.0),
                2,
            );
            s.sample(Hertz(128_000.0)).unwrap()
        };
        let idle = measure(ActivityPair::Ldl1Ldl1, 21);
        let busy = measure(ActivityPair::LdmLdm, 22);
        assert!(
            idle > 4.0 * busy,
            "refresh harmonic should weaken under load: idle {idle} vs busy {busy}"
        );
    }
}

//! The campaign engine: a pool of capture tasks that orchestrates
//! micro-benchmark execution, EM rendering, capture, averaging and
//! stitching for a full FASE campaign.

use crate::cancel::CancelToken;
use crate::fault::{FaultKind, FaultPlan};
use crate::sweep::{SegmentSpec, SweepPlan};
use fase_core::par::{panic_message, scoped, worker_threads};
use fase_core::{
    CampaignConfig, CampaignHealth, CampaignSpectra, DroppedAlternation, FaseError, FaultRecord,
    LabeledSpectrum,
};
use fase_dsp::rng::{mix_seed, SmallRng};
use fase_dsp::{Hertz, Spectrum};
use fase_emsim::{RenderCtx, SimulatedSystem};
use fase_obs::Recorder;
use fase_sysmodel::{ActivityPair, Alternation};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// One independent unit of pool work: a single IQ capture, identified by
/// its pool band and its (alternation frequency, sweep segment, average)
/// cell of that band's campaign.
#[derive(Debug, Clone, Copy)]
struct CaptureTask {
    /// The pool band the capture belongs to.
    band: usize,
    /// Position in the band campaign's flattened order; doubles as the
    /// RNG stream index and the capture's slot in the time schedule.
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

/// Everything a capture task reports back: the capture (or, after retry
/// exhaustion, the drop it causes), attempts spent, impairments suffered.
#[derive(Debug)]
struct TaskResult {
    out: Result<CaptureOut, DroppedAlternation>,
    attempts: u32,
    faults: Vec<FaultRecord>,
}

/// Per-alternation-frequency setup shared by that frequency's capture
/// tasks in every band of a pool run: the system the factory built for
/// it, whose machine the calibration warmed, and the calibrated
/// micro-benchmark. Renders read no mutable source state, so every task
/// renders the one scene; each task clones the machine, so every capture
/// starts from the identical calibrated state — and skips the expensive
/// op-level profiling pass.
///
/// The build is deterministic (factory + calibration, no RNG, nothing
/// band-specific), so it does not matter which worker or which band gets
/// there first. The op-level profiling inside it is memoized process-wide
/// by [`fase_sysmodel::Machine::profile`], so only the first campaign on
/// a given machine pays for the pointer chase.
#[derive(Debug)]
struct Prepared {
    system: SimulatedSystem,
    bench: Alternation,
}

/// Executes one capture attempt: run the calibrated benchmark on a clone
/// of the pre-profiled machine, render the prepared EM scene, apply any
/// injected impairment and transform the capture.
///
/// Everything the attempt touches — machine, RNG stream, capture start
/// time, fault realization — is derived from the task's own coordinates
/// (and the attempt number), so the result is identical no matter which
/// worker runs it or in what order.
fn execute_capture(
    task: CaptureTask,
    attempt: u32,
    fault: Option<FaultKind>,
    prepared: &Prepared,
    segment: &SegmentSpec,
    seed: u64,
    recorder: &Recorder,
) -> Result<CaptureOut, FaseError> {
    if fault == Some(FaultKind::TaskFailure) {
        return Err(FaseError::worker("injected task failure"));
    }
    let system = &prepared.system;
    // Every stage is a child span of the pool's `capture` span on the
    // capture's recorder: the set-up stages here, `synth` and `transform`
    // further down. The scene and the analyzer record nothing themselves.
    let mut machine = {
        let _setup = recorder.span("setup");
        system.machine.clone()
    };
    let stream = attempt_seed(seed, task.index, attempt);
    let mut rng = SmallRng::seed_from_u64(stream);
    let window = segment.window(task.index as f64 * segment.duration());
    let trace = {
        let _alternation = recorder.span("alternation");
        machine.run_alternation(&prepared.bench, segment.duration(), &mut rng)
    };
    let pairs = (trace.len() / 2).max(1);
    let trace_duration = trace.duration();
    let refreshes = {
        let _refresh = recorder.span("refresh");
        system.refresh.schedule(&trace, &mut rng)
    };
    let ctx = {
        let _render_ctx = recorder.span("render_ctx");
        RenderCtx::new(&trace, &refreshes, &window)
    };
    let mut iq = {
        let _synth = recorder.span("synth");
        system.scene.render(&window, &ctx)
    };
    recorder.count("emsim.renders", 1);
    recorder.count_usize("emsim.samples_rendered", window.len());
    if let Some(kind) = fault {
        let mut fault_rng = SmallRng::seed_from_u64(mix_seed(stream, 0xFAB1_7FAB));
        kind.apply(&mut iq, &mut fault_rng);
    }
    assert_eq!(iq.len(), window.len(), "capture length must match window");
    let spectrum = {
        let _transform = recorder.span("transform");
        Spectrum::from_capture(window.center(), window.sample_rate(), &iq)?
    };
    Ok(CaptureOut {
        spectrum,
        pairs,
        trace_duration,
    })
}

/// One band of a capture pool run: the campaign it measures, the
/// alternation frequencies of that campaign it runs, and the seed its
/// capture streams derive from. The bands of one run share one
/// alternation family — a sweep runs the same family in every band — so
/// they share each frequency's [`Prepared`] system.
#[derive(Debug)]
pub(crate) struct PoolBand<'a> {
    pub(crate) config: &'a CampaignConfig,
    pub(crate) alts: Range<usize>,
    pub(crate) seed: u64,
}

/// A band's reduced captures: the surviving spectra in alternation
/// order and the health, which lists the dropped alternations.
#[derive(Debug)]
pub(crate) struct Reduced {
    labeled: Vec<LabeledSpectrum>,
    health: CampaignHealth,
}

impl Reduced {
    /// The band's campaign spectra with the health attached.
    ///
    /// # Errors
    ///
    /// The first dropped alternation's capture failure (or
    /// [`FaseError::InvalidSpectra`]) when fewer than two alternation
    /// frequencies survived.
    pub(crate) fn into_campaign(
        self,
        config: &CampaignConfig,
    ) -> Result<CampaignSpectra, FaseError> {
        if self.labeled.len() < 2 {
            return Err(self.health.dropped.first().map_or_else(
                || FaseError::invalid_spectra("fewer than two alternation frequencies survived"),
                DroppedAlternation::error,
            ));
        }
        Ok(CampaignSpectra::new(config.clone(), self.labeled)?.with_health(self.health))
    }
}

/// What the pool's helpers hand the caller: the landed results by task,
/// each band's count of captures still out, the helpers still running,
/// and the message of the first task that panicked.
#[derive(Debug)]
struct Landing {
    results: Vec<Option<TaskResult>>,
    pending: Vec<usize>,
    live: usize,
    panic: Option<String>,
}

fn lock(landing: &Mutex<Landing>) -> MutexGuard<'_, Landing> {
    // Results are stored whole, so a panic elsewhere cannot leave one
    // half-written.
    landing.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A work-stealing pool of capture tasks over one or more bands.
///
/// Tasks go into one queue in band-major order (then alternation,
/// segment, average); helpers pull them from a shared atomic cursor, so a
/// slow capture never idles the rest of the pool and a band's captures
/// all start before the next band's. Task indices are those of each
/// band's whole campaign, so running a subset of the alternations
/// measures exactly what the full campaign measures for them. The caller
/// reduces the bands in order with [`PoolHandle::reduce`], each as soon
/// as its last capture lands, while the helpers capture later bands.
#[derive(Debug)]
pub(crate) struct CapturePool<'a> {
    bands: &'a [PoolBand<'a>],
    plans: Vec<SweepPlan>,
    tasks: Vec<CaptureTask>,
    /// Band `j`'s tasks are `tasks[ranges[j]]`.
    ranges: Vec<Range<usize>>,
    f_alts: Vec<Hertz>,
    prepared: Vec<OnceLock<Prepared>>,
    options: &'a CampaignOptions,
    threads: usize,
    next: AtomicUsize,
    /// Set when the caller has what it needs or a task panicked:
    /// helpers claim no further task.
    stop: AtomicBool,
    landing: Mutex<Landing>,
    /// Signalled when a band's last capture lands or a helper exits.
    landed: Condvar,
}

impl<'a> CapturePool<'a> {
    fn new(bands: &'a [PoolBand<'a>], options: &'a CampaignOptions) -> CapturePool<'a> {
        let plans: Vec<SweepPlan> = bands
            .iter()
            .map(|b| {
                let c = b.config;
                SweepPlan::new(c.band_lo(), c.band_hi(), c.resolution(), options.max_fft)
            })
            .collect();
        let mut tasks = Vec::new();
        let mut ranges = Vec::with_capacity(bands.len());
        for (j, (band, plan)) in bands.iter().zip(&plans).enumerate() {
            let first = tasks.len();
            let segments = plan.segments().len();
            let averages = band.config.averages();
            for i_alt in band.alts.clone() {
                for i_seg in 0..segments {
                    for i_avg in 0..averages {
                        tasks.push(CaptureTask {
                            band: j,
                            index: (i_alt * segments + i_seg) * averages + i_avg,
                            i_alt,
                            i_seg,
                            i_avg,
                        });
                    }
                }
            }
            ranges.push(first..tasks.len());
        }
        let f_alts = bands
            .first()
            .map(|b| b.config.alternation_frequencies())
            .unwrap_or_default();
        debug_assert!(bands
            .iter()
            .all(|b| b.config.alternation_frequencies() == f_alts));
        let threads = worker_threads(options.threads).min(tasks.len());
        let landing = Landing {
            results: tasks.iter().map(|_| None).collect(),
            pending: ranges.iter().map(Range::len).collect(),
            live: threads,
            panic: None,
        };
        CapturePool {
            bands,
            plans,
            tasks,
            ranges,
            prepared: f_alts.iter().map(|_| OnceLock::new()).collect(),
            f_alts,
            options,
            threads,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            landing: Mutex::new(landing),
            landed: Condvar::new(),
        }
    }

    /// A helper: claims tasks in queue order until the queue is empty,
    /// the token fires or the pool stops. Each task runs under
    /// `catch_unwind`: a panic lands its message and stops the pool.
    fn work<F>(&self, pair: ActivityPair, factory: &F)
    where
        F: Fn(usize) -> SimulatedSystem + Sync,
    {
        loop {
            // Cooperative cancellation: stop before claiming the next
            // task, so latency is bounded by one capture.
            if self.options.cancel.is_cancelled() || self.stop.load(Ordering::Relaxed) {
                break;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&task) = self.tasks.get(i) else {
                break;
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                // Later tasks of the same frequency, in any band, wait for
                // the first one's build rather than duplicate the
                // calibration.
                let prep = self.prepared[task.i_alt].get_or_init(|| {
                    let mut system = factory(task.i_alt);
                    let bench = pair.calibrated(&mut system.machine, self.f_alts[task.i_alt].hz());
                    Prepared { system, bench }
                });
                self.capture(task, prep)
            }));
            let mut landing = lock(&self.landing);
            let result = match result {
                Ok(result) => result,
                Err(payload) => {
                    landing.panic.get_or_insert(panic_message(payload.as_ref()));
                    self.stop.store(true, Ordering::Relaxed);
                    break;
                }
            };
            landing.results[i] = Some(result);
            landing.pending[task.band] -= 1;
            if landing.pending[task.band] == 0 {
                self.landed.notify_all();
            }
        }
        // The caller stops waiting for captures no helper is left to run.
        lock(&self.landing).live -= 1;
        self.landed.notify_all();
    }

    /// Runs one capture task with its bounded retries.
    fn capture(&self, task: CaptureTask, prep: &Prepared) -> TaskResult {
        let recorder = &self.options.recorder;
        let cancel = &self.options.cancel;
        let max_attempts = self.options.max_attempts.max(1);
        let f_alt = self.f_alts[task.i_alt];
        // Helper threads have their own span stack, so this aggregates as
        // a root "capture" span (one entry per task, retries included).
        let _capture = recorder.span("capture");
        let t0 = recorder.is_active().then(fase_obs::monotonic_ns);
        // Bounded retry: each attempt draws its own fault and RNG stream
        // from the task coordinates, so the retry history is identical for
        // any helper count.
        let mut faults = Vec::new();
        let mut attempt = 0u32;
        let result = loop {
            let fault = self
                .options
                .fault_plan
                .as_ref()
                .and_then(|p| p.draw(task.i_alt, task.i_seg, task.i_avg, attempt));
            if let Some(kind) = fault {
                faults.push(FaultRecord {
                    f_alt,
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
                prep,
                &self.plans[task.band].segments()[task.i_seg],
                self.bands[task.band].seed,
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
                    // Exhausted budget or a fired token ends the retry
                    // burn; either way the capture reports as failed and
                    // the alternation degrades.
                    if attempt >= max_attempts || cancel.is_cancelled() {
                        break TaskResult {
                            out: Err(DroppedAlternation {
                                f_alt,
                                segment: task.i_seg,
                                attempts: attempt,
                                cause: e.to_string(),
                            }),
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
        result
    }

    /// Waits for every capture of band `j` to land, then reduces them in
    /// task order (helper scheduling cannot reorder this): average each
    /// segment's captures, stitch segments, trim to band, and label each
    /// spectrum with the achieved alternation frequency. An alternation
    /// frequency with an exhausted capture is dropped and recorded in the
    /// health, which is also published to the recorder.
    ///
    /// # Errors
    ///
    /// [`FaseError::Cancelled`] when the token fired before every capture
    /// of the band ran, [`FaseError::Worker`] when a panicked task left
    /// some unrun, and any averaging or stitching error.
    fn reduce(&self, j: usize) -> Result<Reduced, FaseError> {
        let results = {
            let landing = lock(&self.landing);
            let mut landing = self
                .landed
                .wait_while(landing, |l| l.pending[j] > 0 && l.live > 0)
                .unwrap_or_else(PoisonError::into_inner);
            landing.results[self.ranges[j].clone()]
                .iter_mut()
                .map(Option::take)
                .collect::<Option<Vec<TaskResult>>>()
        };
        let Some(results) = results else {
            // A hole with a fired token is the cancellation itself, not
            // a scheduler bug.
            let cancel = &self.options.cancel;
            return Err(if cancel.is_cancelled() {
                FaseError::cancelled(cancel.cause().unwrap_or("cancelled"))
            } else {
                FaseError::worker("capture task never ran")
            });
        };
        let recorder = &self.options.recorder;
        let _reduce = recorder.span("reduce");
        let band = &self.bands[j];
        let config = band.config;
        let segments = self.plans[j].segments();
        let averages = config.averages();
        let mut results = results.into_iter();
        let mut health = CampaignHealth::new(band.alts.len());
        let mut labeled = Vec::with_capacity(band.alts.len());
        for _ in band.alts.clone() {
            let mut segment_spectra = Vec::with_capacity(segments.len());
            let mut period_sum = 0.0f64;
            let mut period_count = 0usize;
            let mut alt_failure: Option<DroppedAlternation> = None;
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
                        Err(dropped) => {
                            alt_failure.get_or_insert(dropped);
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
            if let Some(dropped) = alt_failure {
                health.dropped.push(dropped);
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
        // Retries, quarantines and faults show up in `--metrics-out` next
        // to the stage timings.
        recorder.count_usize("specan.capture_retries", health.total_retries);
        recorder.count_usize("specan.quarantined", health.quarantined);
        recorder.count_usize("specan.faults_injected", health.faults.len());
        recorder.count_usize("specan.dropped_alternations", health.dropped.len());
        Ok(Reduced { labeled, health })
    }
}

/// The caller's hold on a running [`CapturePool`]: it reduces the
/// pool's bands, and dropping it stops the pool (helpers claim no
/// further task), whether its holder returns or unwinds from a panic.
#[derive(Debug)]
pub(crate) struct PoolHandle<'p, 'a>(&'p CapturePool<'a>);

impl PoolHandle<'_, '_> {
    /// [`CapturePool::reduce`] of the held pool.
    pub(crate) fn reduce(&self, j: usize) -> Result<Reduced, FaseError> {
        self.0.reduce(j)
    }
}

impl Drop for PoolHandle<'_, '_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::Relaxed);
    }
}

/// Runs the capture tasks of `bands` on one work-stealing pool while
/// `consume` reduces them on the calling thread, and returns what
/// `consume` returns. Its `worker_threads(options.threads)` helpers
/// capture; the calling thread never does, and runs `consume`'s analysis
/// inline ([`fase_core::par`]). The factory runs once per alternation
/// frequency per call, however many bands share it. Once `consume`
/// drops its [`PoolHandle`] (at the latest when it returns or unwinds),
/// helpers claim no further task.
///
/// # Errors
///
/// A panicking task surfaces as [`FaseError::Worker`] with its message,
/// whatever `consume` returned.
pub(crate) fn run_pool<F, T>(
    bands: &[PoolBand<'_>],
    pair: ActivityPair,
    factory: &F,
    options: &CampaignOptions,
    consume: impl FnOnce(PoolHandle<'_, '_>) -> T,
) -> Result<T, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    let pool = CapturePool::new(bands, options);
    let out = scoped(
        pool.threads,
        || pool.work(pair, factory),
        || consume(PoolHandle(&pool)),
    );
    let panic = lock(&pool.landing).panic.take();
    panic.map_or(Ok(out), |msg| Err(FaseError::worker(msg)))
}

/// Measures the alternation frequencies in `alts` of one campaign: a
/// one-band pool run, reduced under the `campaign` span.
fn measure_alternations<F>(
    config: &CampaignConfig,
    alts: Range<usize>,
    pair: ActivityPair,
    factory: &F,
    seed: u64,
    options: &CampaignOptions,
) -> Result<Reduced, FaseError>
where
    F: Fn(usize) -> SimulatedSystem + Sync,
{
    let _campaign = options.recorder.span("campaign");
    let band = PoolBand { config, alts, seed };
    run_pool(
        std::slice::from_ref(&band),
        pair,
        factory,
        options,
        |pool| pool.reduce(0),
    )?
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
/// `factory(i_alt)` builds the [`SimulatedSystem`] the tasks of
/// alternation `i_alt` measure (usually the same preset with the same
/// seed: the EM world is one machine). It is called once per alternation
/// frequency per campaign; that frequency's captures share the system's
/// scene and clone its calibrated machine. A campaign is the one-band
/// case of the capture pool [`crate::run_sweep`] runs over all its bands.
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
    measure_alternations(config, alts, pair, &factory, seed, &options)?.into_campaign(config)
}

/// Measures alternation frequency `i_alt` of a campaign on the
/// capture-task pool: the averaged, stitched, band-trimmed spectrum,
/// labeled with the achieved alternation frequency.
///
/// Only that alternation's capture tasks run, under the campaign's own
/// task indices, so the result is bit-identical to entry `i_alt` of
/// [`run_campaign_with_options`] called with the same arguments; the
/// factory is called once, for `i_alt`. Figures that need single spectra
/// rather than a full campaign build on it.
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
    let Reduced {
        mut labeled,
        health,
    } = measure_alternations(config, i_alt..i_alt + 1, pair, &factory, seed, &options)?;
    labeled.pop().ok_or_else(|| {
        health.dropped.first().map_or_else(
            || FaseError::invalid_spectra("alternation was not measured"),
            DroppedAlternation::error,
        )
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
        for path in [
            "campaign",
            "campaign/reduce",
            "capture",
            "capture/synth",
            "capture/transform",
        ] {
            assert!(snap.spans.contains_key(path), "missing span {path}");
        }
        assert_eq!(snap.spans.get("capture").unwrap().count, 15);
        assert_eq!(snap.histograms.get("specan.capture_ns").unwrap().count, 15);
    }

    #[test]
    fn a_panicking_consumer_stops_the_pool() {
        // One helper, five alternation frequencies. The first build waits
        // until the consumer's panic drops `release`, so the helper is
        // still on its first task when the pool must stop. Unwinding drops
        // the consumer's locals in reverse order: the pool handle, which
        // stops the pool, goes before `release`, so the helper sees the
        // stop as soon as its first task ends, however it is scheduled.
        let config = small_config();
        let calls = AtomicUsize::new(0);
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = Mutex::new(gate);
        let band = PoolBand {
            config: &config,
            alts: 0..config.alternation_count(),
            seed: 77,
        };
        let options = CampaignOptions {
            threads: Some(1),
            ..small_fft()
        };
        let factory = |_| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                let _ = gate.lock().unwrap().recv();
            }
            demo_system(6)
        };
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_pool(
                std::slice::from_ref(&band),
                ActivityPair::LdmLdl1,
                &factory,
                &options,
                move |pool| {
                    let _release = release;
                    let _pool = pool;
                    panic!("consumer failed")
                },
            )
        }));
        assert!(panicked.is_err());
        // At most the first build ran; a pool left running builds all five.
        assert!(calls.into_inner() <= 1);
    }

    #[test]
    fn the_factory_runs_once_per_alternation_frequency() {
        // Every capture of an alternation frequency renders the one scene
        // built for it: 5 frequencies × 3 averages, 5 systems.
        let config = small_config();
        let calls = AtomicUsize::new(0);
        run_campaign_with_options(
            &config,
            ActivityPair::LdmLdl1,
            |_| {
                calls.fetch_add(1, Ordering::Relaxed);
                demo_system(6)
            },
            77,
            CampaignOptions {
                threads: Some(2),
                ..small_fft()
            },
        )
        .unwrap();
        assert_eq!(calls.into_inner(), config.alternation_count());
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

//! Capture windows and the render context shared by all EM sources.

use crate::phasor::SynthMode;
use fase_dsp::{Hertz, Seconds};
use fase_obs::Recorder;
use fase_sysmodel::{ActivityTrace, Domain, RefreshEvent};

/// One complex-baseband capture: the receiver is tuned to `center` and
/// digitizes a span equal to the sample rate for `len` samples starting at
/// absolute time `start_time`.
///
/// # Examples
///
/// ```
/// use fase_dsp::Hertz;
/// use fase_emsim::CaptureWindow;
/// let w = CaptureWindow::new(Hertz::from_mhz(2.0), 4.0e6, 1 << 19, 0.0);
/// assert_eq!(w.len(), 1 << 19);
/// assert!((w.duration().secs() - 0.131072).abs() < 1e-9);
/// assert_eq!(w.low_edge(), Hertz(0.0));
/// assert_eq!(w.high_edge(), Hertz(4.0e6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureWindow {
    center: Hertz,
    sample_rate: f64,
    len: usize,
    start_time: f64,
}

impl CaptureWindow {
    /// Creates a capture window.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not positive or `len` is zero.
    pub fn new(center: Hertz, sample_rate: f64, len: usize, start_time: f64) -> CaptureWindow {
        assert!(sample_rate > 0.0, "sample rate must be positive");
        assert!(len > 0, "capture length must be non-zero");
        CaptureWindow {
            center,
            sample_rate,
            len,
            start_time,
        }
    }

    /// Tuned center frequency.
    pub fn center(&self) -> Hertz {
        self.center
    }

    /// Complex sample rate in samples/second (equals the captured span).
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of IQ samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (construction rejects zero length).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Absolute start time in seconds.
    pub fn start_time(&self) -> f64 {
        self.start_time
    }

    /// Capture duration.
    pub fn duration(&self) -> Seconds {
        Seconds(self.len as f64 / self.sample_rate)
    }

    /// Lowest RF frequency in the span (`center - fs/2`).
    pub fn low_edge(&self) -> Hertz {
        self.center - Hertz(self.sample_rate / 2.0)
    }

    /// Highest RF frequency in the span (`center + fs/2`).
    pub fn high_edge(&self) -> Hertz {
        self.center + Hertz(self.sample_rate / 2.0)
    }

    /// True if the RF frequency `f` falls inside the span, with `guard`
    /// hertz of margin beyond each edge.
    pub fn contains(&self, f: Hertz, guard: Hertz) -> bool {
        f.hz() >= self.low_edge().hz() - guard.hz() && f.hz() <= self.high_edge().hz() + guard.hz()
    }
}

/// Everything a source may consult while rendering: the program-activity
/// trace (times relative to the window start), the refresh command
/// timeline, and pre-rasterized per-domain load waveforms at the capture
/// rate.
#[derive(Debug)]
pub struct RenderCtx<'a> {
    trace: &'a ActivityTrace,
    refreshes: &'a [RefreshEvent],
    loads: [Vec<f64>; 3],
    mode: SynthMode,
    recorder: Recorder,
}

impl<'a> RenderCtx<'a> {
    /// Builds a context for one window, rasterizing each domain's load at
    /// the capture sample rate. `trace` times are interpreted relative to
    /// the window start.
    pub fn new(
        trace: &'a ActivityTrace,
        refreshes: &'a [RefreshEvent],
        window: &CaptureWindow,
    ) -> RenderCtx<'a> {
        let loads = trace.rasterize_domains(window.sample_rate(), window.len());
        RenderCtx {
            trace,
            refreshes,
            loads,
            mode: SynthMode::Fast,
            recorder: Recorder::global(),
        }
    }

    /// Selects the synthesis path sources should use (default
    /// [`SynthMode::Fast`]).
    pub fn with_mode(mut self, mode: SynthMode) -> RenderCtx<'a> {
        self.mode = mode;
        self
    }

    /// Replaces the metrics [`Recorder`] used by scene rendering (default
    /// is the process-wide recorder, inert unless enabled).
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> RenderCtx<'a> {
        self.recorder = recorder;
        self
    }

    /// The metrics recorder scene rendering should report through.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The selected synthesis path.
    pub fn mode(&self) -> SynthMode {
        self.mode
    }

    /// An idle context (all loads zero, no refreshes) for `window`.
    pub fn idle(window: &CaptureWindow) -> RenderCtx<'static> {
        static EMPTY_TRACE: std::sync::OnceLock<ActivityTrace> = std::sync::OnceLock::new();
        let trace = EMPTY_TRACE.get_or_init(ActivityTrace::new);
        RenderCtx {
            trace,
            refreshes: &[],
            loads: [
                vec![0.0; window.len()],
                vec![0.0; window.len()],
                vec![0.0; window.len()],
            ],
            mode: SynthMode::Fast,
            recorder: Recorder::global(),
        }
    }

    /// The raw activity trace.
    pub fn trace(&self) -> &ActivityTrace {
        self.trace
    }

    /// Refresh command timeline (times relative to window start).
    pub fn refreshes(&self) -> &[RefreshEvent] {
        self.refreshes
    }

    /// Pre-rasterized load waveform for `domain`, one value per IQ sample.
    pub fn load_waveform(&self, domain: Domain) -> &[f64] {
        let [core, memory, dram] = &self.loads;
        match domain {
            Domain::Core => core,
            Domain::MemoryInterface => memory,
            Domain::Dram => dram,
        }
    }
}

/// Converts a power level in dBm to the complex-envelope magnitude `a` such
/// that a CW tone of that magnitude measures `dbm` on the analyzer
/// (bin power `|a|²` milliwatts).
pub fn dbm_to_amplitude(dbm: f64) -> f64 {
    10f64.powf(dbm / 20.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_sysmodel::DomainLoads;

    #[test]
    fn window_geometry() {
        let w = CaptureWindow::new(Hertz::from_khz(500.0), 200e3, 1000, 1.5);
        assert_eq!(w.low_edge(), Hertz::from_khz(400.0));
        assert_eq!(w.high_edge(), Hertz::from_khz(600.0));
        assert!(w.contains(Hertz::from_khz(450.0), Hertz::ZERO));
        assert!(!w.contains(Hertz::from_khz(399.0), Hertz::ZERO));
        assert!(w.contains(Hertz::from_khz(399.0), Hertz(2000.0)));
    }

    #[test]
    fn ctx_rasterizes_loads() {
        let mut trace = ActivityTrace::new();
        trace.push(0.5e-3, DomainLoads::new(1.0, 0.0, 0.0));
        trace.push(0.5e-3, DomainLoads::new(0.0, 0.0, 1.0));
        let w = CaptureWindow::new(Hertz(0.0), 10_000.0, 10, 0.0);
        let ctx = RenderCtx::new(&trace, &[], &w);
        let core = ctx.load_waveform(Domain::Core);
        let dram = ctx.load_waveform(Domain::Dram);
        assert_eq!(core.len(), 10);
        assert_eq!(&core[..5], &[1.0; 5]);
        assert_eq!(&dram[5..], &[1.0; 5]);
    }

    #[test]
    fn idle_ctx_is_quiet() {
        let w = CaptureWindow::new(Hertz(0.0), 1000.0, 8, 0.0);
        let ctx = RenderCtx::idle(&w);
        assert!(ctx.load_waveform(Domain::Dram).iter().all(|&x| x == 0.0));
        assert!(ctx.refreshes().is_empty());
    }

    #[test]
    fn dbm_amplitude_round_trip() {
        for dbm in [-150.0, -110.0, -30.0, 0.0] {
            let a = dbm_to_amplitude(dbm);
            // Power of the envelope is |a|^2 mW.
            assert!((10.0 * (a * a).log10() - dbm).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_sample_rate_panics() {
        let _ = CaptureWindow::new(Hertz(0.0), 0.0, 8, 0.0);
    }
}

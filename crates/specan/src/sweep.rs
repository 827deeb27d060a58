//! Sweep planning: covering a wide band with FFT-sized capture segments,
//! and sharding a wide span into overlapping campaign bands.

use fase_core::FaseError;
use fase_dsp::Hertz;
use fase_emsim::CaptureWindow;

/// A plan for sweeping `[lo, hi]` at resolution `f_res` using FFT captures
/// of at most `max_fft` points.
///
/// Each segment spans `n·f_res` Hz where `n` is a power of two; segments
/// tile the band contiguously so the per-segment spectra stitch into one
/// [`fase_dsp::Spectrum`].
///
/// # Examples
///
/// ```
/// use fase_dsp::Hertz;
/// use fase_specan::SweepPlan;
/// let plan = SweepPlan::new(Hertz(0.0), Hertz::from_mhz(4.0), Hertz(50.0), 1 << 17);
/// assert_eq!(plan.fft_len(), 1 << 17);
/// assert_eq!(plan.segments().len(), 1); // 131072·50 Hz = 6.55 MHz ≥ 4 MHz
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    lo: Hertz,
    hi: Hertz,
    resolution: Hertz,
    fft_len: usize,
    segments: Vec<SegmentSpec>,
}

/// One capture segment of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSpec {
    /// Tuned center frequency.
    pub center: Hertz,
    /// Complex sample rate (= segment span).
    pub sample_rate: f64,
    /// FFT length.
    pub len: usize,
}

impl SegmentSpec {
    /// Materializes a [`CaptureWindow`] for this segment starting at
    /// absolute time `start_time`.
    pub fn window(&self, start_time: f64) -> CaptureWindow {
        CaptureWindow::new(self.center, self.sample_rate, self.len, start_time)
    }

    /// Capture duration in seconds (`1 / f_res`).
    pub fn duration(&self) -> f64 {
        self.len as f64 / self.sample_rate
    }
}

impl SweepPlan {
    /// Plans a sweep.
    ///
    /// The FFT length is the smallest power of two covering the whole band
    /// in one segment, capped at `max_fft`; if capped, multiple segments
    /// tile the band.
    ///
    /// # Panics
    ///
    /// Panics if the band is inverted, the resolution is not positive, or
    /// `max_fft` is smaller than 16.
    pub fn new(lo: Hertz, hi: Hertz, resolution: Hertz, max_fft: usize) -> SweepPlan {
        assert!(hi.hz() > lo.hz(), "band must be ordered");
        assert!(resolution.hz() > 0.0, "resolution must be positive");
        assert!(max_fft >= 16, "max_fft too small");
        let bins_needed = ((hi - lo) / resolution).ceil() as usize + 1;
        let n = bins_needed
            .next_power_of_two()
            .min(max_fft.next_power_of_two());
        let span = n as f64 * resolution.hz();
        let count = (((hi - lo).hz() / span).ceil() as usize).max(1);
        let segments = (0..count)
            .map(|k| SegmentSpec {
                center: Hertz(lo.hz() + (k as f64 + 0.5) * span),
                sample_rate: span,
                len: n,
            })
            .collect();
        SweepPlan {
            lo,
            hi,
            resolution,
            fft_len: n,
            segments,
        }
    }

    /// The lower band edge.
    pub fn lo(&self) -> Hertz {
        self.lo
    }

    /// The upper band edge.
    pub fn hi(&self) -> Hertz {
        self.hi
    }

    /// The spectrum resolution.
    pub fn resolution(&self) -> Hertz {
        self.resolution
    }

    /// FFT length per segment.
    pub fn fft_len(&self) -> usize {
        self.fft_len
    }

    /// The planned segments, in ascending frequency order.
    pub fn segments(&self) -> &[SegmentSpec] {
        &self.segments
    }
}

/// One band of a wide-band sweep: a sub-span of the full `[lo, hi]`
/// request, widened into its neighbors by the seam overlap so a carrier
/// sitting exactly on a band boundary is seen whole by both sides (the
/// span-wide merge deduplicates it). Produced by [`plan_bands`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepBand {
    /// Zero-based position in ascending frequency order.
    pub index: usize,
    /// Lower band edge (overlap-extended, snapped to the resolution grid).
    pub lo: Hertz,
    /// Upper band edge (overlap-extended, snapped to the resolution grid).
    pub hi: Hertz,
}

/// Shards the span `[lo, hi]` into `bands` equal-stride sub-bands, each
/// extended by `overlap` into its neighbors (the outermost edges stay at
/// the span boundary). Band edges are snapped to the resolution grid
/// anchored at `lo`, so every band's bins land on the same span-wide grid
/// and per-band reports merge without frequency skew.
///
/// # Errors
///
/// Returns [`FaseError::InvalidConfig`] when the band is inverted, the
/// resolution or band count is not positive, the per-band stride is
/// narrower than two resolution bins, or the overlap is negative,
/// non-finite, or at least one full stride wide.
pub fn plan_bands(
    lo: Hertz,
    hi: Hertz,
    resolution: Hertz,
    bands: usize,
    overlap: Hertz,
) -> Result<Vec<SweepBand>, FaseError> {
    if !(lo.hz().is_finite() && hi.hz().is_finite()) || hi.hz() <= lo.hz() {
        return Err(FaseError::invalid_config(format!(
            "sweep span must be an ordered finite band, got [{lo}, {hi}]"
        )));
    }
    if !resolution.hz().is_finite() || resolution.hz() <= 0.0 {
        return Err(FaseError::invalid_config(format!(
            "sweep resolution must be positive, got {resolution}"
        )));
    }
    if bands == 0 {
        return Err(FaseError::invalid_config("sweep needs at least one band"));
    }
    let stride = (hi - lo).hz() / bands as f64;
    if stride < 2.0 * resolution.hz() {
        return Err(FaseError::invalid_config(format!(
            "{bands} band(s) over [{lo}, {hi}] leaves a {stride:.1} Hz stride, narrower than \
             two {resolution} bins"
        )));
    }
    if !overlap.hz().is_finite() || overlap.hz() < 0.0 || overlap.hz() >= stride {
        return Err(FaseError::invalid_config(format!(
            "band overlap must be in [0, stride) = [0, {stride:.1} Hz), got {overlap}"
        )));
    }
    // Snap to the span-wide resolution grid anchored at `lo`.
    let snap = |f: f64| lo.hz() + ((f - lo.hz()) / resolution.hz()).round() * resolution.hz();
    Ok((0..bands)
        .map(|k| {
            let band_lo = if k == 0 {
                lo.hz()
            } else {
                snap(lo.hz() + k as f64 * stride - overlap.hz())
            };
            let band_hi = if k + 1 == bands {
                hi.hz()
            } else {
                snap(lo.hz() + (k + 1) as f64 * stride + overlap.hz())
            };
            SweepBand {
                index: k,
                lo: Hertz(band_lo),
                hi: Hertz(band_hi),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_segment_covers_band() {
        let plan = SweepPlan::new(Hertz(0.0), Hertz::from_mhz(4.0), Hertz(50.0), 1 << 20);
        assert_eq!(plan.segments().len(), 1);
        let seg = plan.segments()[0];
        // Segment span covers the band.
        assert!(seg.sample_rate >= 4.0e6);
        assert_eq!(seg.len as f64 * 50.0, seg.sample_rate);
        // Bin 0 of the segment sits exactly at the band's lower edge.
        let window = seg.window(0.0);
        assert!((window.low_edge().hz() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn capped_fft_tiles_band() {
        let plan = SweepPlan::new(Hertz(0.0), Hertz::from_mhz(4.0), Hertz(100.0), 1 << 14);
        // 16384 bins × 100 Hz = 1.6384 MHz per segment → 3 segments.
        assert_eq!(plan.fft_len(), 1 << 14);
        assert_eq!(plan.segments().len(), 3);
        // Contiguous tiling: each segment starts where the previous ended.
        for pair in plan.segments().windows(2) {
            let prev_hi = pair[0].center.hz() + pair[0].sample_rate / 2.0;
            let next_lo = pair[1].center.hz() - pair[1].sample_rate / 2.0;
            assert!((prev_hi - next_lo).abs() < 1e-6);
        }
    }

    #[test]
    fn segment_duration_is_inverse_resolution() {
        let plan = SweepPlan::new(Hertz(0.0), Hertz::from_mhz(1.0), Hertz(50.0), 1 << 15);
        let seg = plan.segments()[0];
        assert!((seg.duration() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn fft_len_is_a_power_of_two_for_any_plan() {
        // Every segment the sweep captures is a power-of-two transform,
        // whatever the band, resolution or FFT cap: the FFT engine's
        // arbitrary-length path serves no capture.
        use fase_dsp::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0xF17_1E4);
        for case in 0..400 {
            let lo = rng.gen_range(0.0, 50e6);
            let hi = lo + rng.gen_range(1e3, 2e6);
            let resolution = Hertz(rng.gen_range(10.0, 5e3));
            // Every fourth cap is a power of two; the rest are arbitrary.
            let max_fft = if case % 4 == 0 {
                1usize << (4 + rng.next_u64() % 17)
            } else {
                16 + (rng.next_u64() % (1 << 20)) as usize
            };
            let plan = SweepPlan::new(Hertz(lo), Hertz(hi), resolution, max_fft);
            let n = plan.fft_len();
            let what = format!("[{lo}, {hi}] at {resolution}, max_fft {max_fft}: n = {n}");
            assert!(n.is_power_of_two(), "{what}");
            assert!(n <= max_fft.next_power_of_two(), "{what}");
            assert!(plan.segments().iter().all(|s| s.len == n), "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn inverted_band_panics() {
        let _ = SweepPlan::new(Hertz(1e6), Hertz(0.0), Hertz(50.0), 1 << 15);
    }

    #[test]
    fn single_band_is_the_whole_span() {
        let bands = plan_bands(Hertz(0.0), Hertz(4e6), Hertz(50.0), 1, Hertz(1_000.0)).unwrap();
        assert_eq!(bands.len(), 1);
        assert_eq!(bands[0].lo, Hertz(0.0));
        assert_eq!(bands[0].hi, Hertz(4e6));
    }

    #[test]
    fn bands_overlap_at_seams_and_sit_on_the_grid() {
        let res = Hertz(100.0);
        let overlap = Hertz(2_000.0);
        let bands = plan_bands(Hertz(250_000.0), Hertz(850_000.0), res, 3, overlap).unwrap();
        assert_eq!(bands.len(), 3);
        // Outermost edges pinned to the span; inner edges overlap-extended.
        assert_eq!(bands[0].lo, Hertz(250_000.0));
        assert_eq!(bands[2].hi, Hertz(850_000.0));
        for pair in bands.windows(2) {
            let seam_width = (pair[0].hi - pair[1].lo).hz();
            assert!(
                (seam_width - 2.0 * overlap.hz()).abs() < 1e-6,
                "seam width {seam_width} (expected {})",
                2.0 * overlap.hz()
            );
        }
        // Every edge lies on the span-wide resolution grid.
        for b in &bands {
            for edge in [b.lo, b.hi] {
                let steps = (edge.hz() - 250_000.0) / res.hz();
                assert!(
                    (steps - steps.round()).abs() < 1e-9,
                    "edge {edge} off-grid (band {})",
                    b.index
                );
            }
            assert!(b.hi.hz() > b.lo.hz());
        }
    }

    #[test]
    fn zero_overlap_tiles_contiguously() {
        let bands = plan_bands(Hertz(0.0), Hertz(600_000.0), Hertz(100.0), 3, Hertz(0.0)).unwrap();
        for pair in bands.windows(2) {
            assert_eq!(pair[0].hi, pair[1].lo);
        }
    }

    #[test]
    fn degenerate_band_plans_are_rejected() {
        let ok = |r: Result<Vec<SweepBand>, FaseError>| r.is_ok();
        // Inverted span.
        assert!(!ok(plan_bands(
            Hertz(1e6),
            Hertz(0.0),
            Hertz(50.0),
            2,
            Hertz(0.0)
        )));
        // Zero bands.
        assert!(!ok(plan_bands(
            Hertz(0.0),
            Hertz(1e6),
            Hertz(50.0),
            0,
            Hertz(0.0)
        )));
        // Stride narrower than two bins.
        assert!(!ok(plan_bands(
            Hertz(0.0),
            Hertz(1_000.0),
            Hertz(400.0),
            2,
            Hertz(0.0)
        )));
        // Overlap as wide as the stride.
        assert!(!ok(plan_bands(
            Hertz(0.0),
            Hertz(1e6),
            Hertz(50.0),
            2,
            Hertz(500_000.0)
        )));
        // Non-finite resolution.
        assert!(!ok(plan_bands(
            Hertz(0.0),
            Hertz(1e6),
            Hertz(f64::NAN),
            2,
            Hertz(0.0)
        )));
    }
}

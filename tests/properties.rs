//! Randomized property tests over the core data structures and invariants,
//! spanning all workspace crates.
//!
//! Formerly written with `proptest`; rewritten on the in-house seeded PRNG
//! ([`fase_dsp::rng`]) so the workspace carries zero external dependencies
//! and builds offline. Each property runs `CASES` independently seeded
//! random instances; failures print the offending case seed so a run can
//! be reproduced by seeding directly.

use fase::dsp::demod::{envelope, instantaneous_frequency, moving_average, retune};
use fase::dsp::fft::{fft, ifft};
use fase::dsp::fir::Fir;
use fase::dsp::peaks::parabolic_offset;
use fase::dsp::stats;
use fase::prelude::*;
use fase_core::heuristic::{campaign_from_spectra, harmonic_scores, HeuristicConfig};
use fase_dsp::rng::{mix_seed, Rng, SmallRng};
use fase_dsp::Complex64;
use fase_emsim::source::pulse_harmonic_amplitude;
use fase_sysmodel::activity::PointerChase;
use fase_sysmodel::controller::{schedule_refreshes, RefreshConfig};
use fase_sysmodel::{ActivityTrace, DomainLoads};

const CASES: u64 = 64;

/// Runs `body` for `CASES` independently seeded random cases. The per-test
/// `tag` decorrelates the streams of different properties.
fn for_each_case(tag: u64, mut body: impl FnMut(&mut SmallRng)) {
    for case in 0..CASES {
        let seed = mix_seed(tag, case);
        let mut rng = SmallRng::seed_from_u64(seed);
        body(&mut rng);
    }
}

/// Uniform integer in `[lo, hi)`.
fn gen_usize(rng: &mut SmallRng, lo: usize, hi: usize) -> usize {
    lo + (rng.next_u64() % (hi - lo) as u64) as usize
}

/// A vector of uniform `f64`s with random length in `[min_len, max_len)`.
fn gen_vec(rng: &mut SmallRng, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
    let n = gen_usize(rng, min_len, max_len);
    (0..n).map(|_| rng.gen_range(lo, hi)).collect()
}

/// FFT inverse(forward(x)) == x for arbitrary signals and lengths,
/// including non-power-of-two (Bluestein) sizes.
#[test]
fn fft_round_trip() {
    for_each_case(1, |rng| {
        let n = gen_usize(rng, 1, 300);
        let x: Vec<Complex64> = (0..n)
            .map(|_| Complex64::new(rng.gen_range(-1e3, 1e3), rng.gen_range(-1e3, 1e3)))
            .collect();
        let y = ifft(&fft(&x));
        let scale = x.iter().map(|z| z.norm()).fold(1.0f64, f64::max);
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).norm() <= 1e-9 * scale, "n={n}");
        }
    });
}

/// Parseval: time-domain energy equals frequency-domain energy / N.
#[test]
fn fft_parseval() {
    for_each_case(2, |rng| {
        let values = gen_vec(rng, -1e3, 1e3, 2, 256);
        let x: Vec<Complex64> = values.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        let spec = fft(&x);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((te - fe).abs() <= 1e-9 * te.max(1.0));
    });
}

/// dBm/linear conversions round-trip over many orders of magnitude.
#[test]
fn dbm_round_trip() {
    for_each_case(3, |rng| {
        let dbm = rng.gen_range(-200.0, 50.0);
        let w = Dbm(dbm).watts();
        assert!((Dbm::from_watts(w).dbm() - dbm).abs() < 1e-9);
    });
}

/// Hertz arithmetic is consistent: (a + b) - b == a.
#[test]
fn hertz_arithmetic() {
    for_each_case(4, |rng| {
        let a = rng.gen_range(-1e9, 1e9);
        let b = rng.gen_range(-1e9, 1e9);
        let res = (Hertz(a) + Hertz(b)) - Hertz(b);
        assert!((res.hz() - a).abs() <= 1e-6 * a.abs().max(b.abs()).max(1.0));
    });
}

/// Spectrum stitching is the inverse of splitting.
#[test]
fn spectrum_stitch_split() {
    for_each_case(5, |rng| {
        let powers = gen_vec(rng, 0.0, 1e-6, 4, 200);
        let split = gen_usize(rng, 1, 3);
        let n = powers.len();
        let s = Spectrum::new(Hertz(1000.0), Hertz(25.0), powers).unwrap();
        let cut = (n * split) / 4 + 1; // somewhere inside
        let first = Spectrum::new(s.start(), s.resolution(), s.powers()[..cut].to_vec()).unwrap();
        let second = Spectrum::new(
            s.frequency_at(cut),
            s.resolution(),
            s.powers()[cut..].to_vec(),
        )
        .unwrap();
        let joined = Spectrum::stitch([&first, &second]).unwrap();
        assert!(joined.same_grid(&s));
        assert_eq!(joined.powers(), s.powers());
    });
}

/// Interpolated sampling never leaves the convex hull of its two
/// neighbouring bins.
#[test]
fn spectrum_sample_is_convex() {
    for_each_case(6, |rng| {
        let powers = gen_vec(rng, 0.0, 1e-6, 2, 64);
        let frac = rng.gen_f64();
        let s = Spectrum::new(Hertz(0.0), Hertz(10.0), powers).unwrap();
        let f = Hertz(frac * 10.0 * (s.len() - 1) as f64);
        let v = s.sample(f).unwrap();
        let i = ((f / s.resolution()).floor() as usize).min(s.len() - 1);
        let j = (i + 1).min(s.len() - 1);
        let lo = s.powers()[i].min(s.powers()[j]);
        let hi = s.powers()[i].max(s.powers()[j]);
        assert!(v >= lo - 1e-18 && v <= hi + 1e-18);
    });
}

/// Pulse-train harmonic amplitudes stay within their theoretical bounds
/// and the k-th harmonic never exceeds 2/(πk).
#[test]
fn pulse_harmonics_bounded() {
    for_each_case(7, |rng| {
        let k = gen_usize(rng, 1, 40) as u32;
        let duty = rng.gen_range(0.001, 0.999);
        let c = pulse_harmonic_amplitude(k, duty);
        assert!(c >= 0.0);
        assert!(c <= 2.0 / (std::f64::consts::PI * k as f64) + 1e-12);
    });
}

/// The Figure 6 pointer chase never escapes its footprint and visits
/// every line for power-of-two strides.
#[test]
fn pointer_chase_invariants() {
    for_each_case(8, |rng| {
        let footprint_log2 = gen_usize(rng, 7, 20);
        let stride_log2 = gen_usize(rng, 3, 7);
        let base = rng.next_u64() / 2;
        let footprint = 1usize << footprint_log2;
        let stride = 1u64 << stride_log2.min(footprint_log2 - 1);
        let mut chase = PointerChase::new(base, footprint, stride);
        let mask = footprint as u64 - 1;
        let expect_base = base & !mask;
        let lines = (footprint as u64 / stride) as usize;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..lines {
            let addr = chase.next_address();
            assert_eq!(addr & !mask, expect_base);
            seen.insert(addr);
        }
        assert_eq!(seen.len(), lines);
    });
}

/// Refresh scheduling: events are ordered, non-overlapping, the count
/// matches the duration, and postponement never exceeds the cap.
#[test]
fn refresh_schedule_invariants() {
    for_each_case(9, |rng| {
        let load = rng.gen_f64();
        let seed = rng.next_u64() % 1000;
        let cfg = RefreshConfig::ddr3();
        let mut trace = ActivityTrace::new();
        trace.push(5e-3, DomainLoads::new(0.0, load, load));
        let mut schedule_rng = SmallRng::seed_from_u64(seed);
        let events = schedule_refreshes(&trace, &cfg, &mut schedule_rng);
        assert_eq!(events.len(), (5e-3 / cfg.t_refi) as usize);
        for (i, pair) in events.windows(2).enumerate() {
            assert!(pair[1].start >= pair[0].end() - 1e-15, "overlap at {i}");
        }
        for (i, e) in events.iter().enumerate() {
            let due = i as f64 * cfg.t_refi;
            assert!(e.start + 1e-12 >= due, "event {i} issued before due");
            assert!(
                e.start - due <= (cfg.max_postpone as f64 + 1.5) * cfg.t_refi,
                "event {i} postponed beyond cap"
            );
        }
    });
}

/// The heuristic normalizes any campaign whose spectra are identical
/// (nothing moves with f_alt) to a score of exactly 1 everywhere.
///
/// It also pins the reading of Eq. 2 that DESIGN §1 takes from the
/// paper's prose: every F_{i,h} factor of a stationary signal stays near
/// one. Each of N ∈ 2..=5 spectra is one random shape, with a strong
/// stationary tone, times independent per-bin factors in [1−ε, 1+ε].
/// Numerator and denominator of each factor then lie within (1±ε) of the
/// shape's value, so every F_h lies within [((1−ε)/(1+ε))^N,
/// ((1+ε)/(1−ε))^N] and no factor reaches the support ratio.
#[test]
fn heuristic_flat_for_identical_spectra() {
    const EPS: f64 = 0.02;
    let res = 100.0;
    let campaign_of = |spectra: Vec<Spectrum>| {
        let bins = spectra[0].len();
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(res * (bins - 1) as f64))
            .resolution(Hertz(res))
            .alternation(Hertz(2_000.0), Hertz(500.0), spectra.len())
            .build()
            .unwrap();
        campaign_from_spectra(config, spectra).unwrap()
    };
    for_each_case(10, |rng| {
        let powers = gen_vec(rng, 1e-16, 1e-9, 64, 256);
        let s = Spectrum::new(Hertz(0.0), Hertz(res), powers).unwrap();
        let campaign = campaign_of(vec![s.clone(), s.clone(), s]);
        let trace = harmonic_scores(&campaign, 1, &HeuristicConfig::default());
        for (b, &score) in trace.scores().iter().enumerate() {
            assert!((score - 1.0).abs() < 1e-9, "bin {b}: {score}");
            assert_eq!(trace.support()[b], 0);
        }

        let n_spectra = gen_usize(rng, 2, 6);
        let mut shape = gen_vec(rng, 1e-16, 1e-9, 64, 256);
        let tone = gen_usize(rng, 0, shape.len());
        shape[tone] = 1e-6;
        let spectra: Vec<Spectrum> = (0..n_spectra)
            .map(|_| {
                let powers = shape
                    .iter()
                    .map(|&p| p * rng.gen_range(1.0 - EPS, 1.0 + EPS))
                    .collect();
                Spectrum::new(Hertz(0.0), Hertz(res), powers).unwrap()
            })
            .collect();
        let campaign = campaign_of(spectra);
        let lo = ((1.0 - EPS) / (1.0 + EPS)).powi(n_spectra as i32);
        let hi = ((1.0 + EPS) / (1.0 - EPS)).powi(n_spectra as i32);
        let max_h = fase_core::MAX_HARMONIC as i32;
        for h in (-max_h..=max_h).filter(|&h| h != 0) {
            let trace = harmonic_scores(&campaign, h, &HeuristicConfig::default());
            for (b, &score) in trace.scores().iter().enumerate() {
                assert!(
                    (lo..=hi).contains(&score),
                    "N={n_spectra} h={h} bin {b}: {score} outside [{lo}, {hi}]"
                );
                assert_eq!(trace.support()[b], 0, "N={n_spectra} h={h} bin {b}");
            }
        }
    });
}

/// Parabolic peak interpolation always returns an offset inside the
/// half-bin range.
#[test]
fn parabolic_offset_bounded() {
    for_each_case(11, |rng| {
        let values = gen_vec(rng, 0.0, 1e3, 3, 64);
        let idx = gen_usize(rng, 1, 62).min(values.len() - 2);
        let off = parabolic_offset(&values, idx);
        assert!((-0.5..=0.5).contains(&off));
    });
}

/// Robust statistics: the median is always within [min, max] and MAD is
/// non-negative.
#[test]
fn stats_sanity() {
    for_each_case(12, |rng| {
        let xs = gen_vec(rng, -1e6, 1e6, 1, 128);
        let med = stats::median(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(med >= lo && med <= hi);
        assert!(stats::median_mad(&xs).1 >= 0.0);
        assert!(stats::percentile(&xs, 0.0) == lo);
        assert!(stats::percentile(&xs, 100.0) == hi);
    });
}

/// Sort-based percentile over the finite elements: the reference that
/// the selection-based `stats::percentile` must reproduce bit for bit.
fn sorted_percentile(xs: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Selection statistics equal the sort-based reference bit for bit —
/// odd and even lengths, duplicates, ±0.0 and ignored NaN/±Inf entries.
#[test]
fn selection_statistics_match_sorting() {
    const SPECIAL: [f64; 6] = [0.0, -0.0, 1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for_each_case(18, |rng| {
        let n = gen_usize(rng, 1, 201);
        let xs: Vec<f64> = (0..n)
            .map(|_| match rng.next_u64() % 4 {
                0 => SPECIAL[(rng.next_u64() % 6) as usize],
                1 => (rng.next_u64() % 5) as f64 - 2.0,
                _ => rng.gen_range(-1e3, 1e3),
            })
            .collect();
        for p in [0.0, 1.0, 25.0, 50.0, 73.3, 99.0, 100.0] {
            assert_eq!(
                stats::percentile(&xs, p).to_bits(),
                sorted_percentile(&xs, p).to_bits(),
                "p={p} xs={xs:?}"
            );
        }
        let med = sorted_percentile(&xs, 50.0);
        let deviations: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
        let (m, mad) = stats::median_mad(&xs);
        assert_eq!(m.to_bits(), med.to_bits(), "xs={xs:?}");
        assert_eq!(
            mad.to_bits(),
            sorted_percentile(&deviations, 50.0).to_bits(),
            "xs={xs:?}"
        );
    });
}

/// Activity traces: rasterized waveforms only contain values the trace
/// actually holds, and mean loads stay within [0, max].
#[test]
fn trace_rasterize_values() {
    for_each_case(13, |rng| {
        let durations = gen_vec(rng, 1e-6, 1e-3, 1, 32);
        let loads = gen_vec(rng, 0.0, 1.0, 1, 32);
        let mut trace = ActivityTrace::new();
        for (d, l) in durations.iter().zip(loads.iter().cycle()) {
            trace.push(*d, DomainLoads::new(*l, 0.0, 0.0));
        }
        let n = 64;
        let fs = n as f64 / trace.duration();
        let wave = trace.rasterize(fase::sysmodel::Domain::Core, fs, n);
        for v in wave {
            assert!(loads.iter().any(|&l| (l - v).abs() < 1e-12));
        }
        let mean = trace.mean_loads().core;
        let max = loads.iter().cloned().fold(0.0f64, f64::max);
        assert!(mean <= max + 1e-12);
    });
}

/// FIR lowpass designs always have unit DC gain, bounded passband
/// response, and symmetric (linear-phase) taps.
#[test]
fn fir_lowpass_invariants() {
    for_each_case(14, |rng| {
        let taps_half = gen_usize(rng, 5, 60);
        let cutoff_frac = rng.gen_range(0.02, 0.45);
        let taps = 2 * taps_half + 1;
        let fs = 48_000.0;
        let fir = Fir::lowpass(taps, cutoff_frac * fs, fs);
        assert!((fir.taps().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for k in 0..taps / 2 {
            assert!((fir.taps()[k] - fir.taps()[taps - 1 - k]).abs() < 1e-12);
        }
        assert!((fir.response_at(0.0, fs) - 1.0).abs() < 1e-9);
        assert!(fir.response_at(fs / 2.0, fs) < 1.2);
    });
}

/// Envelope detection is invariant under a global phase rotation and
/// under retuning.
#[test]
fn envelope_phase_invariance() {
    for_each_case(15, |rng| {
        let mags = gen_vec(rng, 0.0, 10.0, 8, 64);
        let phase0 = rng.gen_range(0.0, 6.2);
        let offset = rng.gen_range(-1_000.0, 1_000.0);
        let fs = 10_000.0;
        let iq: Vec<Complex64> = mags
            .iter()
            .enumerate()
            .map(|(n, &m)| Complex64::from_polar(m, phase0 + 0.3 * n as f64))
            .collect();
        let direct = envelope(&iq, 1);
        let retuned = envelope(&retune(&iq, offset, fs), 1);
        for ((&m, d), r) in mags.iter().zip(&direct).zip(&retuned) {
            assert!((d - m).abs() < 1e-9);
            assert!((r - m).abs() < 1e-9);
        }
    });
}

/// Retuning by `o` shifts the instantaneous frequency by exactly `-o`.
#[test]
fn retune_shifts_instantaneous_frequency() {
    for_each_case(16, |rng| {
        let f = rng.gen_range(-2_000.0, 2_000.0);
        let offset = rng.gen_range(-2_000.0, 2_000.0);
        let fs = 20_000.0;
        let iq: Vec<Complex64> = (0..256)
            .map(|n| Complex64::cis(std::f64::consts::TAU * f * n as f64 / fs))
            .collect();
        let shifted = retune(&iq, offset, fs);
        let inst = instantaneous_frequency(&shifted, fs);
        for &v in &inst[1..] {
            assert!((v - (f - offset)).abs() < 1e-6, "inst {v}");
        }
    });
}

/// The moving average is bounded by the input's min/max and preserves
/// constants exactly.
#[test]
fn moving_average_bounds() {
    for_each_case(17, |rng| {
        let xs = gen_vec(rng, -100.0, 100.0, 1, 128);
        let len = gen_usize(rng, 1, 16);
        let sm = moving_average(&xs, len);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &v in &sm {
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
        let constant = vec![3.25; xs.len()];
        for &v in &moving_average(&constant, len) {
            assert!((v - 3.25).abs() < 1e-12);
        }
    });
}

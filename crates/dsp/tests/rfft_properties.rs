//! Property tests for the real-input FFT path.
//!
//! The contract: for any real signal, `rfft` must agree with the full
//! complex transform of the zero-imaginary signal to 1e-12 (relative to the
//! largest spectral magnitude), across every planner route — radix-2
//! (power-of-two), Bluestein (everything else), the odd-length Direct
//! fallback, and the length-1/length-2 edge cases. ci.sh runs this file
//! explicitly alongside the synth regression gate.

use fase_dsp::fft::{cached_rfft_plan, fft, rfft, FftPlan, FftScratch, RfftPlan};
use fase_dsp::Complex64;

/// Deterministic pseudo-random real signal (no rand dependency).
fn real_signal(n: usize, salt: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let a = ((i.wrapping_mul(2654435761).wrapping_add(salt * 97)) % 10_000) as f64;
            a / 5_000.0 - 1.0
        })
        .collect()
}

fn reference_spectrum(x: &[f64]) -> Vec<Complex64> {
    let as_complex: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
    fft(&as_complex)
}

fn assert_close(actual: &[Complex64], expected: &[Complex64], tol: f64, what: &str) {
    assert_eq!(actual.len(), expected.len(), "{what}: length mismatch");
    let scale = expected.iter().map(|z| z.norm()).fold(1.0f64, f64::max);
    for (k, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert!(
            (*a - *e).norm() <= tol * scale,
            "{what}: bin {k}: {a} vs {e} (tol {tol}, scale {scale})"
        );
    }
}

#[test]
fn rfft_equals_complex_fft_of_real_across_sizes() {
    // Powers of two, even non-pow2 (Bluestein half plans), odd lengths
    // (Direct fallback), primes, and the degenerate 1/2 cases.
    let sizes = [
        1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 17, 30, 31, 32, 64, 100, 128, 127, 243, 254,
        255, 256, 500, 1000, 1024, 2048,
    ];
    for (salt, &n) in sizes.iter().enumerate() {
        let x = real_signal(n, salt);
        assert_close(&rfft(&x), &reference_spectrum(&x), 1e-12, &format!("n={n}"));
    }
}

#[test]
fn rfft_plan_reuse_is_bit_identical() {
    // The same plan driven twice over the same input must agree exactly —
    // the shared scratch and post-split pass are stateless between calls.
    for &n in &[2usize, 8, 100, 255, 4096] {
        let x = real_signal(n, 11);
        let plan = cached_rfft_plan(n);
        let (mut first, mut second) = (Vec::new(), Vec::new());
        plan.forward(&x, &mut first);
        plan.forward(&x, &mut second);
        assert_eq!(first.len(), second.len());
        for (k, (a, b)) in first.iter().zip(&second).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "n={n} bin {k}: repeated transforms differ"
            );
        }
    }
}

#[test]
fn rfft_private_scratch_matches_shared_path() {
    // forward_with (caller-owned scratch, the hot-path route) must be
    // bit-identical to forward (thread-shared scratch, the one-shot route).
    for &n in &[64usize, 100, 255] {
        let x = real_signal(n, 23);
        let plan = RfftPlan::new(n);
        let mut shared = Vec::new();
        plan.forward(&x, &mut shared);
        let mut scratch = FftScratch::new();
        let mut private = Vec::new();
        plan.forward_with(&x, &mut private, &mut scratch);
        for (k, (a, b)) in shared.iter().zip(&private).enumerate() {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "n={n} bin {k}: scratch routes differ"
            );
        }
    }
}

#[test]
fn rfft_output_buffer_capacity_is_reused() {
    let plan = RfftPlan::new(256);
    let mut out = Vec::new();
    plan.forward(&real_signal(256, 3), &mut out);
    let cap = out.capacity();
    let ptr = out.as_ptr();
    plan.forward(&real_signal(256, 4), &mut out);
    assert_eq!(out.capacity(), cap, "second transform reallocated");
    assert!(
        std::ptr::eq(ptr, out.as_ptr()),
        "second transform moved the buffer"
    );
}

#[test]
fn rfft_linearity_over_real_signals() {
    let n = 240;
    let x = real_signal(n, 5);
    let y = real_signal(n, 6);
    let sum: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + b).collect();
    let lhs = rfft(&sum);
    let fx = rfft(&x);
    let fy = rfft(&y);
    let rhs: Vec<Complex64> = fx.iter().zip(&fy).map(|(a, b)| *a + *b).collect();
    assert_close(&lhs, &rhs, 1e-12, "linearity");
}

#[test]
fn rfft_parseval_energy_conserved() {
    for &n in &[128usize, 100, 255] {
        let x = real_signal(n, 7);
        let spec = rfft(&x);
        let time_energy: f64 = x.iter().map(|v| v * v).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!(
            (time_energy - freq_energy).abs() / time_energy < 1e-12,
            "n={n}: Parseval violated ({time_energy} vs {freq_energy})"
        );
    }
}

#[test]
fn rfft_pure_cosine_lands_in_symmetric_bins() {
    let n = 1024;
    let k0 = 37;
    let x: Vec<f64> = (0..n)
        .map(|t| (std::f64::consts::TAU * (k0 * t) as f64 / n as f64).cos())
        .collect();
    let spec = rfft(&x);
    let half_n = 0.5 * n as f64;
    for (k, z) in spec.iter().enumerate() {
        if k == k0 || k == n - k0 {
            assert!(
                (z.norm() - half_n).abs() < 1e-8,
                "bin {k} magnitude {}",
                z.norm()
            );
        } else {
            assert!(z.norm() < 1e-8, "leakage at bin {k}: {}", z.norm());
        }
    }
}

#[test]
fn zero_and_dc_signals() {
    for &n in &[2usize, 7, 64] {
        let zeros = vec![0.0; n];
        for z in rfft(&zeros) {
            assert_eq!(z.norm(), 0.0);
        }
        let ones = vec![1.0; n];
        let spec = rfft(&ones);
        assert!((spec[0].re - n as f64).abs() < 1e-12);
        for z in spec.iter().skip(1) {
            assert!(z.norm() < 1e-10);
        }
    }
}

#[test]
fn direct_and_split_agree_on_even_lengths() {
    // Force the Direct route by going through a full complex plan and
    // compare against the Split route for the same even length.
    for &n in &[16usize, 100] {
        let x = real_signal(n, 31);
        let split = rfft(&x);
        let mut direct: Vec<Complex64> = x.iter().map(|&v| Complex64::new(v, 0.0)).collect();
        FftPlan::new(n).forward(&mut direct);
        assert_close(&split, &direct, 1e-12, &format!("n={n} split-vs-direct"));
    }
}

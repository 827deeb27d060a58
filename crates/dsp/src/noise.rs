//! Seeded noise generators.
//!
//! Everything stochastic in the simulator flows from explicit RNGs so that
//! figures and tests are reproducible. [`crate::rng`] provides uniform
//! variates; the Gaussian draws here are built on top of it.

use crate::complex::Complex64;
use crate::rng::Rng;
use crate::stats::{safe_ln, safe_sqrt};

/// Draws one standard-normal variate via the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use fase_dsp::rng::SmallRng;
/// let mut rng = SmallRng::seed_from_u64(1);
/// let x = fase_dsp::noise::standard_normal(&mut rng);
/// assert!(x.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1 = 1.0 - rng.gen_f64();
    let u2 = rng.gen_f64();
    safe_sqrt(-2.0 * safe_ln(u1)) * (std::f64::consts::TAU * u2).cos()
}

/// Draws a complex sample with independent N(0, σ²/2) components — circular
/// white Gaussian noise with total power σ².
///
/// Uses both Box–Muller outputs of a single uniform pair (the cosine and
/// sine legs), so one `ln`/`sqrt` and two uniforms serve the whole complex
/// draw — half the cost of two independent [`standard_normal`] calls.
pub fn complex_normal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> Complex64 {
    let u1 = 1.0 - rng.gen_f64();
    let u2 = rng.gen_f64();
    // (σ/√2)·√(−2·ln u1) = σ·√(−ln u1).
    let r = sigma * safe_sqrt(-safe_ln(u1));
    let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
    Complex64::new(r * cos, r * sin)
}

/// Like [`complex_normal`] — circular complex Gaussian with total power
/// σ² — but drawn with the Marsaglia polar method: an accepted uniform
/// pair in the unit disc yields both components from one `ln`/`sqrt` with
/// no trigonometry. At the sample counts the channel and broadband-noise
/// models draw (one variate per rendered sample), the saved `sin_cos`
/// outweighs the ~21% rejection rate.
///
/// The realization differs from [`complex_normal`] for the same RNG state
/// (different uniform consumption); the distribution is identical.
///
/// # Examples
///
/// ```
/// use fase_dsp::rng::SmallRng;
/// let mut rng = SmallRng::seed_from_u64(7);
/// let z = fase_dsp::noise::complex_normal_polar(&mut rng, 1e-3);
/// assert!(z.norm() < 1.0);
/// ```
pub fn complex_normal_polar<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> Complex64 {
    loop {
        let u = 2.0 * rng.gen_f64() - 1.0;
        let v = 2.0 * rng.gen_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            // u·√(−2·ln s / s) is standard normal; scale by σ/√2 per
            // component to land total power σ².
            let r = sigma * safe_sqrt(-safe_ln(s) / s);
            return Complex64::new(r * u, r * v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
    use crate::stats;

    #[test]
    fn normal_moments() {
        let mut rng = SmallRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..200_000).map(|_| standard_normal(&mut rng)).collect();
        assert!(stats::mean(&xs).abs() < 0.01);
        assert!((stats::std_dev(&xs) - 1.0).abs() < 0.01);
    }

    #[test]
    fn complex_noise_power() {
        let mut rng = SmallRng::seed_from_u64(7);
        let sigma = 2.0;
        let power: f64 = (0..100_000)
            .map(|_| complex_normal(&mut rng, sigma).norm_sqr())
            .sum::<f64>()
            / 100_000.0;
        assert!((power - sigma * sigma).abs() / (sigma * sigma) < 0.02);
    }

    #[test]
    fn determinism_under_same_seed() {
        let a: Vec<f64> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..64).map(|_| standard_normal(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = SmallRng::seed_from_u64(99);
            (0..64).map(|_| standard_normal(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}

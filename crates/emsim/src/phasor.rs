//! Recurrence-based phasor oscillators — the synthesis fast path.
//!
//! The analytic sources all synthesize tones of the form
//! `a(t)·e^{jφ(t)}` where the instantaneous frequency `φ'(t)` changes much
//! more slowly than the sample rate. Evaluating `Complex64::from_polar`
//! per sample costs a `sin`+`cos` pair per harmonic per sample and
//! dominates campaign rendering. A [`Phasor`] instead tracks the unit
//! complex exponential and advances it with **one complex multiply per
//! sample**, refreshing the rotation (the only trigonometric work) once
//! per *block* of samples rather than once per sample.
//!
//! Rounding in the recurrence drifts the magnitude away from 1 by about an
//! ulp per multiply; [`Phasor::renormalize`] pulls it back. Renormalizing
//! every block (≤ [`BLOCK`] samples) keeps the relative magnitude error
//! below ~1e-13 over arbitrarily long captures.
//!
//! Within a block the instantaneous frequency is either held constant
//! ([`Phasor::rotation`]) or swept linearly ([`Phasor::chirp`], a
//! second-order recurrence: the per-sample rotation itself rotates).
//! Linear sweep per block reproduces triangular spread-spectrum profiles
//! exactly away from the (two per period) triangle vertices.
//!
//! The exact path — per-sample `from_polar` with per-sample noise — stays
//! available behind [`SynthMode::Exact`]; `fase-emsim`'s property tests
//! pin the two paths together in band-integrated power.
//!
//! # Batched lane mixers
//!
//! A single phasor recurrence is a serial dependency chain — each sample's
//! complex multiply waits on the previous one, so the CPU's SIMD units and
//! multiple FP pipes sit idle. The [`mix_tone`] family instead splits the
//! output into [`MIX_LANES`] interleaved lanes, each advanced by
//! `rotation^MIX_LANES` per step: four independent chains the compiler can
//! vectorize and schedule in parallel, with the window/load envelope fused
//! into the store. Renormalization is on a **fixed cadence** — every
//! [`RENORM_INTERVAL`] samples inside a mix call and once at the end of
//! every call — so amplitude drift stays bounded over arbitrarily long
//! captures regardless of how callers chop their sample ranges (the
//! `mix_tone_drift_bounded_over_2_22_samples` test pins the bound against
//! the exact oracle over ≥2²² samples).

use fase_dsp::Complex64;
use std::f64::consts::TAU;

/// Default synthesis block length in samples.
///
/// Noise processes (oscillator drift) and trigonometric rotation updates
/// run once per block; the tone itself is advanced per sample. 64 samples
/// keeps the block far shorter than every modulation the simulator
/// produces (activity alternation, audio program, sweep ramps) at the
/// sample rates campaigns use.
pub const BLOCK: usize = 64;

/// Selects between the recurrence fast path and the per-sample exact path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SynthMode {
    /// Phasor-recurrence synthesis with block-rate noise/rotation updates
    /// (the default).
    #[default]
    Fast,
    /// Reference path: per-sample `from_polar` and per-sample noise steps.
    /// Kept for validation and for callers that want the original
    /// sample-exact stochastic behaviour.
    Exact,
}

/// A unit-magnitude complex oscillator advanced by complex multiplication.
///
/// # Examples
///
/// ```
/// use fase_dsp::Complex64;
/// use fase_emsim::phasor::Phasor;
/// let mut p = Phasor::new(0.0);
/// let rot = Phasor::rotation(1_000.0, 1.0 / 48_000.0);
/// for _ in 0..48 {
///     p.advance(rot);
/// }
/// // After 48 samples at 1 kHz / 48 kHz the phasor is back at 1+0j.
/// assert!((p.value() - Complex64::ONE).norm() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phasor {
    z: Complex64,
}

impl Phasor {
    /// Creates a phasor at the given phase (radians).
    pub fn new(phase: f64) -> Phasor {
        Phasor {
            z: Complex64::cis(phase),
        }
    }

    /// The per-sample rotation `e^{j·2π·f·dt}` for a tone at `freq_hz`.
    #[inline]
    pub fn rotation(freq_hz: f64, dt: f64) -> Complex64 {
        Complex64::cis(TAU * freq_hz * dt)
    }

    /// The rotation-of-the-rotation for a linear frequency sweep: over a
    /// block of `len` samples whose instantaneous frequency ramps from
    /// `f0` to `f1`, multiply the per-sample rotation by this after every
    /// sample.
    #[inline]
    pub fn chirp(f0_hz: f64, f1_hz: f64, len: usize, dt: f64) -> Complex64 {
        Complex64::cis(TAU * (f1_hz - f0_hz) * dt / len as f64)
    }

    /// Current value `e^{jφ}`.
    #[inline]
    pub fn value(&self) -> Complex64 {
        self.z
    }

    /// Advances one sample by multiplying with `rotation`.
    #[inline]
    pub fn advance(&mut self, rotation: Complex64) {
        self.z *= rotation;
    }

    /// Rescales the phasor back onto the unit circle.
    ///
    /// One first-order Newton step of `1/√(|z|²)` — exact to double
    /// precision while `|z|` is within rounding distance of 1, and far
    /// cheaper than a square root.
    #[inline]
    pub fn renormalize(&mut self) {
        let n2 = self.z.norm_sqr();
        self.z = self.z.scale(1.5 - 0.5 * n2);
    }
}

/// Number of independent accumulator lanes in the batched mixers.
///
/// Four complex f64 lanes span two AVX2 registers (or one AVX-512
/// register) and break the serial multiply chain into four independent
/// ones — enough to keep scalar FMA pipes busy even without explicit SIMD.
pub const MIX_LANES: usize = 4;

/// Fixed renormalization cadence of the batched mixers, in samples.
///
/// Each lane drifts off the unit circle by ~ulp per lane step; pulling all
/// lanes back every `RENORM_INTERVAL` samples (and at the end of every mix
/// call) bounds the relative amplitude error at ~1e-13 over arbitrarily
/// long captures. A multiple of [`MIX_LANES`] so renorm blocks never split
/// a lane quad.
pub const RENORM_INTERVAL: usize = 2048;

/// Newton renormalization of one (unit-magnitude) lane value.
#[inline]
fn renorm_lane(u: Complex64) -> Complex64 {
    u.scale(1.5 - 0.5 * u.norm_sqr())
}

/// Unit-magnitude integer power by repeated squaring (log₂ `e` multiplies).
#[inline]
fn unit_pow(base: Complex64, mut e: usize) -> Complex64 {
    let mut acc = Complex64::ONE;
    let mut b = base;
    while e > 0 {
        if e & 1 == 1 {
            acc *= b;
        }
        b *= b;
        e >>= 1;
    }
    acc
}

/// Mixes `amp·e^{jφ(t)}` (constant frequency, constant amplitude) into
/// `out`, advancing `phasor` by `out.len()` samples.
///
/// Four-lane batched recurrence: sample `n` receives
/// `amp · phasor₀ · rotation^n`, evaluated as [`MIX_LANES`] interleaved
/// chains each stepped by `rotation⁴`. The phasor leaves renormalized, and
/// lanes renormalize every [`RENORM_INTERVAL`] samples, so state carried
/// across many mix calls does not drift.
///
/// # Examples
///
/// ```
/// use fase_dsp::Complex64;
/// use fase_emsim::phasor::{mix_tone, Phasor};
/// let mut out = vec![Complex64::ZERO; 48];
/// let mut p = Phasor::new(0.0);
/// let rot = Phasor::rotation(1_000.0, 1.0 / 48_000.0);
/// mix_tone(&mut out, &mut p, rot, 2.0);
/// assert!((out[0] - Complex64::new(2.0, 0.0)).norm() < 1e-12);
/// // After 48 samples of 1 kHz / 48 kHz the phasor wrapped to 1+0j.
/// assert!((p.value() - Complex64::ONE).norm() < 1e-9);
/// ```
pub fn mix_tone(out: &mut [Complex64], phasor: &mut Phasor, rotation: Complex64, amp: f64) {
    if out.is_empty() {
        return;
    }
    let r2 = rotation * rotation;
    let r4 = r2 * r2;
    let z = phasor.z;
    let (mut u0, mut u1, mut u2, mut u3) = (z, z * rotation, z * r2, z * r2 * rotation);
    for block in out.chunks_mut(RENORM_INTERVAL) {
        let mut quads = block.chunks_exact_mut(MIX_LANES);
        for quad in &mut quads {
            if let [a, b, c, d] = quad {
                *a += u0.scale(amp);
                *b += u1.scale(amp);
                *c += u2.scale(amp);
                *d += u3.scale(amp);
            }
            u0 *= r4;
            u1 *= r4;
            u2 *= r4;
            u3 *= r4;
        }
        let rem = quads.into_remainder();
        for (s, w) in rem.iter_mut().zip([u0, u1, u2, u3]) {
            *s += w.scale(amp);
        }
        if !rem.is_empty() {
            // End of the buffer (only the final block can have a tail):
            // the phasor state for sample `len` is the first unused lane.
            u0 = match rem.len() {
                1 => u1,
                2 => u2,
                _ => u3,
            };
        }
        u0 = renorm_lane(u0);
        u1 = renorm_lane(u1);
        u2 = renorm_lane(u2);
        u3 = renorm_lane(u3);
    }
    phasor.z = u0;
    phasor.renormalize();
}

/// Like [`mix_tone`], but with a per-sample envelope: sample `i` receives
/// `amp · env[i] · phasor₀ · rotation^i`. This is the amplitude-modulation
/// path — the envelope *is* the signal FASE detects, so it multiplies
/// per-sample while the carrier advances by recurrence.
///
/// # Panics
///
/// Panics if `env.len() != out.len()`.
pub fn mix_tone_env(
    out: &mut [Complex64],
    env: &[f64],
    phasor: &mut Phasor,
    rotation: Complex64,
    amp: f64,
) {
    assert_eq!(env.len(), out.len(), "envelope length must match output");
    if out.is_empty() {
        return;
    }
    let r2 = rotation * rotation;
    let r4 = r2 * r2;
    let z = phasor.z;
    let (mut u0, mut u1, mut u2, mut u3) = (z, z * rotation, z * r2, z * r2 * rotation);
    for (block, eblock) in out
        .chunks_mut(RENORM_INTERVAL)
        .zip(env.chunks(RENORM_INTERVAL))
    {
        let mut quads = block.chunks_exact_mut(MIX_LANES);
        let mut equads = eblock.chunks_exact(MIX_LANES);
        for (quad, eq) in (&mut quads).zip(&mut equads) {
            if let ([a, b, c, d], [e0, e1, e2, e3]) = (quad, eq) {
                *a += u0.scale(amp * e0);
                *b += u1.scale(amp * e1);
                *c += u2.scale(amp * e2);
                *d += u3.scale(amp * e3);
            }
            u0 *= r4;
            u1 *= r4;
            u2 *= r4;
            u3 *= r4;
        }
        let rem = quads.into_remainder();
        for ((s, &e), w) in rem.iter_mut().zip(equads.remainder()).zip([u0, u1, u2, u3]) {
            *s += w.scale(amp * e);
        }
        if !rem.is_empty() {
            u0 = match rem.len() {
                1 => u1,
                2 => u2,
                _ => u3,
            };
        }
        u0 = renorm_lane(u0);
        u1 = renorm_lane(u1);
        u2 = renorm_lane(u2);
        u3 = renorm_lane(u3);
    }
    phasor.z = u0;
    phasor.renormalize();
}

/// Like [`mix_tone`], but with a linearly ramping envelope:
/// sample `i` receives `(env0 + i·step) · phasor₀ · rotation^i`. Covers the
/// broadcast-audio interpolation path without materializing an envelope
/// buffer; each lane carries its own envelope accumulator stepped by
/// `MIX_LANES·step`.
pub fn mix_tone_ramp(
    out: &mut [Complex64],
    phasor: &mut Phasor,
    rotation: Complex64,
    env0: f64,
    step: f64,
) {
    if out.is_empty() {
        return;
    }
    let r2 = rotation * rotation;
    let r4 = r2 * r2;
    let z = phasor.z;
    let (mut u0, mut u1, mut u2, mut u3) = (z, z * rotation, z * r2, z * r2 * rotation);
    let (mut e0, mut e1, mut e2, mut e3) =
        (env0, env0 + step, env0 + 2.0 * step, env0 + 3.0 * step);
    let step4 = 4.0 * step;
    for block in out.chunks_mut(RENORM_INTERVAL) {
        let mut quads = block.chunks_exact_mut(MIX_LANES);
        for quad in &mut quads {
            if let [a, b, c, d] = quad {
                *a += u0.scale(e0);
                *b += u1.scale(e1);
                *c += u2.scale(e2);
                *d += u3.scale(e3);
            }
            u0 *= r4;
            u1 *= r4;
            u2 *= r4;
            u3 *= r4;
            e0 += step4;
            e1 += step4;
            e2 += step4;
            e3 += step4;
        }
        let rem = quads.into_remainder();
        for ((s, w), e) in rem.iter_mut().zip([u0, u1, u2, u3]).zip([e0, e1, e2, e3]) {
            *s += w.scale(e);
        }
        if !rem.is_empty() {
            u0 = match rem.len() {
                1 => u1,
                2 => u2,
                _ => u3,
            };
        }
        u0 = renorm_lane(u0);
        u1 = renorm_lane(u1);
        u2 = renorm_lane(u2);
        u3 = renorm_lane(u3);
    }
    phasor.z = u0;
    phasor.renormalize();
}

/// Like [`mix_tone_env`], but for a linear frequency chirp: the per-sample
/// rotation itself rotates by `accel` each sample (the second-order
/// recurrence of [`Phasor::chirp`]). On return `rotation` holds the
/// end-of-buffer per-sample rotation (`rotation·accel^len`), ready for the
/// caller's next block.
///
/// Lane math: sample `n` is `z·r^n·a^{n(n-1)/2}`, so each lane's stride-4
/// multiplier is `m_l = r⁴·a^{4l+6}`, itself advanced by `a¹⁶` per lane
/// step.
///
/// # Panics
///
/// Panics if `env.len() != out.len()`.
pub fn mix_chirp_env(
    out: &mut [Complex64],
    env: &[f64],
    phasor: &mut Phasor,
    rotation: &mut Complex64,
    accel: Complex64,
    amp: f64,
) {
    assert_eq!(env.len(), out.len(), "envelope length must match output");
    if out.is_empty() {
        return;
    }
    let r = *rotation;
    let a2 = accel * accel;
    let a4 = a2 * a2;
    let a8 = a4 * a4;
    let a16 = a8 * a8;
    let r2 = r * r;
    let r4 = r2 * r2;
    let z = phasor.z;
    // u_l = z·r^l·a^{l(l-1)/2} for l = 0..4.
    let (mut u0, mut u1, mut u2, mut u3) = (z, z * r, z * r2 * accel, z * r2 * r * a2 * accel);
    // m_l = r⁴·a^{4l+6}.
    let mut m0 = r4 * a4 * a2;
    let mut m1 = m0 * a4;
    let mut m2 = m1 * a4;
    let mut m3 = m2 * a4;
    for (block, eblock) in out
        .chunks_mut(RENORM_INTERVAL)
        .zip(env.chunks(RENORM_INTERVAL))
    {
        let mut quads = block.chunks_exact_mut(MIX_LANES);
        let mut equads = eblock.chunks_exact(MIX_LANES);
        for (quad, eq) in (&mut quads).zip(&mut equads) {
            if let ([a, b, c, d], [e0, e1, e2, e3]) = (quad, eq) {
                *a += u0.scale(amp * e0);
                *b += u1.scale(amp * e1);
                *c += u2.scale(amp * e2);
                *d += u3.scale(amp * e3);
            }
            u0 *= m0;
            u1 *= m1;
            u2 *= m2;
            u3 *= m3;
            m0 *= a16;
            m1 *= a16;
            m2 *= a16;
            m3 *= a16;
        }
        let rem = quads.into_remainder();
        for ((s, &e), w) in rem.iter_mut().zip(equads.remainder()).zip([u0, u1, u2, u3]) {
            *s += w.scale(amp * e);
        }
        if !rem.is_empty() {
            u0 = match rem.len() {
                1 => u1,
                2 => u2,
                _ => u3,
            };
        }
        u0 = renorm_lane(u0);
        u1 = renorm_lane(u1);
        u2 = renorm_lane(u2);
        u3 = renorm_lane(u3);
        // The stride multipliers are unit-magnitude products too and carry
        // the same per-step drift; pull them back on the same cadence.
        m0 = renorm_lane(m0);
        m1 = renorm_lane(m1);
        m2 = renorm_lane(m2);
        m3 = renorm_lane(m3);
    }
    phasor.z = u0;
    phasor.renormalize();
    *rotation = renorm_lane(r * unit_pow(accel, out.len()));
}

/// Splits `0..len` into runs no longer than [`BLOCK`] samples, breaking
/// additionally wherever `same(prev, next)` reports a change between
/// consecutive samples — e.g. a piecewise-constant load waveform stepping.
///
/// Returns `(start, len)` pairs covering `0..len` exactly. Sources use
/// this to hold per-run amplitudes exactly (the load envelope *is* the
/// signal under test) while updating noise and rotations at run rate.
pub fn runs_of<F: Fn(usize, usize) -> bool>(len: usize, same: F) -> RunIter<F> {
    RunIter { len, pos: 0, same }
}

/// Iterator returned by [`runs_of`].
#[derive(Debug)]
pub struct RunIter<F> {
    len: usize,
    pos: usize,
    same: F,
}

impl<F: Fn(usize, usize) -> bool> Iterator for RunIter<F> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.pos >= self.len {
            return None;
        }
        let start = self.pos;
        let cap = (start + BLOCK).min(self.len);
        let mut end = start + 1;
        while end < cap && (self.same)(end - 1, end) {
            end += 1;
        }
        self.pos = end;
        Some((start, end - start))
    }
}

/// Mixes a whole bank of constant-frequency tones into `out` in one pass:
/// sample `n` receives `Σ_k amps[k] · phasors[k]₀ · rots[k]ⁿ`.
///
/// Where [`mix_tone`] interleaves four lanes of a *single* recurrence,
/// here each harmonic of a multi-harmonic source (regulator combs run
/// ~a dozen) is its own independent chain — the same instruction-level
/// parallelism with one read-modify-write pass over `out` instead of one
/// per harmonic. All phasors renormalize every [`RENORM_INTERVAL`]
/// samples and leave renormalized, exactly like the single-tone kernels.
///
/// # Panics
///
/// Panics if `phasors`, `rots` and `amps` differ in length.
pub fn mix_tones(out: &mut [Complex64], phasors: &mut [Phasor], rots: &[Complex64], amps: &[f64]) {
    assert_eq!(phasors.len(), rots.len(), "one rotation per phasor");
    assert_eq!(phasors.len(), amps.len(), "one amplitude per phasor");
    if phasors.is_empty() || out.is_empty() {
        return;
    }
    // Structure-of-arrays groups of SOA_LANES harmonics: split re/im
    // arrays with a constant trip count let the autovectorizer keep whole
    // groups in vector registers. The amplitude is folded into the lane
    // (y = a·z) so the accumulate is a pure add and rotation is the only
    // multiply; renormalization rescales |y| back to a via the
    // precomputed 1/a². Idle pad lanes carry y = 0, rot = 1, 1/a² = 0:
    // they contribute nothing and stay zero through renormalization.
    for (ps, (rs, la)) in phasors
        .chunks_mut(SOA_LANES)
        .zip(rots.chunks(SOA_LANES).zip(amps.chunks(SOA_LANES)))
    {
        let mut yr = [0.0f64; SOA_LANES];
        let mut yi = [0.0f64; SOA_LANES];
        let mut rr = [1.0f64; SOA_LANES];
        let mut ri = [0.0f64; SOA_LANES];
        let mut inv_a2 = [0.0f64; SOA_LANES];
        for (k, p) in ps.iter().enumerate() {
            yr[k] = p.z.re * la[k];
            yi[k] = p.z.im * la[k];
            rr[k] = rs[k].re;
            ri[k] = rs[k].im;
            inv_a2[k] = if la[k] != 0.0 {
                1.0 / (la[k] * la[k])
            } else {
                0.0
            };
        }
        for block in out.chunks_mut(RENORM_INTERVAL) {
            for sample in block.iter_mut() {
                let mut acc_re = 0.0;
                let mut acc_im = 0.0;
                for k in 0..SOA_LANES {
                    acc_re += yr[k];
                    acc_im += yi[k];
                    let next_re = yr[k] * rr[k] - yi[k] * ri[k];
                    yi[k] = yr[k] * ri[k] + yi[k] * rr[k];
                    yr[k] = next_re;
                }
                *sample += Complex64::new(acc_re, acc_im);
            }
            for k in 0..SOA_LANES {
                let gain = 1.5 - 0.5 * (yr[k] * yr[k] + yi[k] * yi[k]) * inv_a2[k];
                yr[k] *= gain;
                yi[k] *= gain;
            }
        }
        for (k, p) in ps.iter_mut().enumerate() {
            if la[k] != 0.0 {
                p.z = Complex64::new(yr[k] / la[k], yi[k] / la[k]);
            } else {
                // A zero-amplitude lane carries no phase in y; advance
                // the phasor directly so it exits where the recurrence
                // would have left it.
                p.z *= unit_pow(rs[k], out.len());
            }
            p.renormalize();
        }
    }
}

/// Width of one [`mix_tones`] structure-of-arrays group: eight f64 lanes —
/// two AVX2 registers (or one AVX-512) per array — with groups beyond the
/// harmonic count padded by inert lanes.
const SOA_LANES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phasor_tracks_from_polar() {
        let dt = 1.0 / 1.0e6;
        let f = 12_345.0;
        let rot = Phasor::rotation(f, dt);
        let mut p = Phasor::new(0.3);
        for n in 1..=10_000 {
            p.advance(rot);
            if n % BLOCK == 0 {
                p.renormalize();
            }
            if n % 1_000 == 0 {
                let exact = Complex64::cis(0.3 + TAU * f * dt * n as f64);
                assert!((p.value() - exact).norm() < 1e-9, "sample {n}");
            }
        }
    }

    #[test]
    fn renormalize_keeps_unit_magnitude() {
        let rot = Phasor::rotation(333.0, 1e-5);
        let mut p = Phasor::new(1.0);
        for _ in 0..100 {
            for _ in 0..BLOCK {
                p.advance(rot);
            }
            p.renormalize();
        }
        assert!((p.value().norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chirp_matches_quadratic_phase() {
        // A linear ramp from f0 to f1 over the block: phase after sample n
        // is φ(n) = 2π·dt·(f0·n + (f1-f0)·n(n... the recurrence integrates
        // the ramp one sample at a time; compare against direct summation.
        let dt = 1e-6;
        let (f0, f1) = (1_000.0, 5_000.0);
        let len = 64;
        let mut rot = Phasor::rotation(f0, dt);
        let accel = Phasor::chirp(f0, f1, len, dt);
        let mut p = Phasor::new(0.0);
        let mut phase = 0.0;
        let mut f = f0;
        for _ in 0..len {
            p.advance(rot);
            rot *= accel;
            phase += TAU * f * dt;
            f += (f1 - f0) / len as f64;
            let exact = Complex64::cis(phase);
            assert!((p.value() - exact).norm() < 1e-10);
        }
    }

    #[test]
    fn runs_split_on_change_and_block() {
        // A waveform that changes value at sample 10 and 150.
        let wave: Vec<f64> = (0..200)
            .map(|i| {
                if i < 10 {
                    0.0
                } else if i < 150 {
                    1.0
                } else {
                    0.5
                }
            })
            .collect();
        let runs: Vec<(usize, usize)> = runs_of(wave.len(), |a, b| wave[a] == wave[b]).collect();
        // Covers 0..200 contiguously.
        let mut pos = 0;
        for &(start, len) in &runs {
            assert_eq!(start, pos);
            assert!((1..=BLOCK).contains(&len));
            // Constant within each run.
            assert!(wave[start..start + len].iter().all(|&v| v == wave[start]));
            pos += len;
        }
        assert_eq!(pos, 200);
        // The change points start new runs.
        assert!(runs.iter().any(|&(s, _)| s == 10));
        assert!(runs.iter().any(|&(s, _)| s == 150));
    }

    #[test]
    fn synthesis_defaults_to_fast() {
        assert_eq!(SynthMode::default(), SynthMode::Fast);
    }

    /// Naive serial reference for the lane mixers.
    fn naive_mix(
        out: &mut [Complex64],
        p: &mut Phasor,
        mut rot: Complex64,
        accel: Option<Complex64>,
        env: impl Fn(usize) -> f64,
    ) {
        for (i, s) in out.iter_mut().enumerate() {
            *s += p.value().scale(env(i));
            p.advance(rot);
            if let Some(a) = accel {
                rot *= a;
            }
        }
        p.renormalize();
    }

    #[test]
    fn mix_tone_matches_naive_recurrence() {
        for &n in &[0usize, 1, 2, 3, 4, 5, 63, 64, 100, 4096, 4099] {
            let rot = Phasor::rotation(12_345.0, 1e-6);
            let mut fast = vec![Complex64::new(0.1, -0.2); n];
            let mut slow = fast.clone();
            let mut p_fast = Phasor::new(0.7);
            let mut p_slow = Phasor::new(0.7);
            mix_tone(&mut fast, &mut p_fast, rot, 3.5e-5);
            naive_mix(&mut slow, &mut p_slow, rot, None, |_| 3.5e-5);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!((*a - *b).norm() < 1e-16, "n={n} sample {i}: {a} vs {b}");
            }
            assert!(
                (p_fast.value() - p_slow.value()).norm() < 1e-12,
                "n={n}: end phasor state diverged"
            );
        }
    }

    #[test]
    fn mix_tone_env_matches_naive_recurrence() {
        for &n in &[1usize, 4, 63, 64, 100, 2050] {
            let rot = Phasor::rotation(-7_777.0, 1e-6);
            let env: Vec<f64> = (0..n)
                .map(|i| 0.5 + 0.4 * ((i % 13) as f64 / 13.0))
                .collect();
            let mut fast = vec![Complex64::ZERO; n];
            let mut slow = vec![Complex64::ZERO; n];
            let mut p_fast = Phasor::new(-0.4);
            let mut p_slow = Phasor::new(-0.4);
            mix_tone_env(&mut fast, &env, &mut p_fast, rot, 2.0);
            naive_mix(&mut slow, &mut p_slow, rot, None, |i| 2.0 * env[i]);
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                // amp = 2.0, so this is ~5e-12 relative.
                assert!((*a - *b).norm() < 1e-11, "n={n} sample {i}");
            }
            assert!((p_fast.value() - p_slow.value()).norm() < 1e-12);
        }
    }

    #[test]
    fn mix_tone_ramp_matches_naive_recurrence() {
        for &n in &[1usize, 5, 64, 333] {
            let rot = Phasor::rotation(40_000.0, 1e-6);
            let (env0, step) = (1.0e-4, -2.5e-7);
            let mut fast = vec![Complex64::ZERO; n];
            let mut slow = vec![Complex64::ZERO; n];
            let mut p_fast = Phasor::new(1.1);
            let mut p_slow = Phasor::new(1.1);
            mix_tone_ramp(&mut fast, &mut p_fast, rot, env0, step);
            naive_mix(&mut slow, &mut p_slow, rot, None, |i| {
                env0 + i as f64 * step
            });
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!((*a - *b).norm() < 1e-16, "n={n} sample {i}");
            }
            assert!((p_fast.value() - p_slow.value()).norm() < 1e-12);
        }
    }

    #[test]
    fn mix_chirp_env_matches_naive_recurrence() {
        for &n in &[1usize, 4, 63, 64, 100, 999] {
            let dt = 1e-6;
            let rot0 = Phasor::rotation(1_000.0, dt);
            let accel = Phasor::chirp(1_000.0, 5_000.0, 64, dt);
            let env: Vec<f64> = (0..n).map(|i| 0.8 + 0.2 * ((i % 7) as f64 / 7.0)).collect();
            let mut fast = vec![Complex64::ZERO; n];
            let mut slow = vec![Complex64::ZERO; n];
            let mut p_fast = Phasor::new(0.0);
            let mut p_slow = Phasor::new(0.0);
            let mut rot_fast = rot0;
            mix_chirp_env(&mut fast, &env, &mut p_fast, &mut rot_fast, accel, 1.5);
            let mut rot_slow = rot0;
            for (i, s) in slow.iter_mut().enumerate() {
                *s += p_slow.value().scale(1.5 * env[i]);
                p_slow.advance(rot_slow);
                rot_slow *= accel;
            }
            p_slow.renormalize();
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                // Chirp phase error grows ~quadratically along both the
                // lane recurrence and the naive per-sample recurrence, on
                // different paths; 1e-9 bounds their divergence at n=999.
                assert!((*a - *b).norm() < 1e-9, "n={n} sample {i}: {a} vs {b}");
            }
            assert!((p_fast.value() - p_slow.value()).norm() < 1e-9, "n={n}");
            assert!((rot_fast - rot_slow).norm() < 1e-9, "n={n}: end rotation");
        }
    }

    #[test]
    fn mix_tones_matches_naive_bank() {
        for &n in &[0usize, 1, 5, 64, 67, 2050, 4099] {
            let dt = 0.25e-6;
            let rots: Vec<Complex64> = (1..=12)
                .map(|k| Phasor::rotation(k as f64 * 315_660.0 - 2.0e6, dt))
                .collect();
            let amps: Vec<f64> = (1..=12).map(|k| 1e-5 / k as f64).collect();
            let mut fast_ps: Vec<Phasor> = (0..12).map(|i| Phasor::new(0.3 * i as f64)).collect();
            let mut slow_ps = fast_ps.clone();
            let mut fast = vec![Complex64::new(0.5, 0.5); n];
            let mut slow = fast.clone();
            mix_tones(&mut fast, &mut fast_ps, &rots, &amps);
            for sample in slow.iter_mut() {
                for ((p, &rot), &amp) in slow_ps.iter_mut().zip(&rots).zip(&amps) {
                    *sample += p.value().scale(amp);
                    p.advance(rot);
                }
            }
            for p in slow_ps.iter_mut() {
                p.renormalize();
            }
            for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
                assert!((*a - *b).norm() < 1e-12, "n={n} sample {i}");
            }
            for (pf, ps) in fast_ps.iter().zip(&slow_ps) {
                assert!((pf.value() - ps.value()).norm() < 1e-12, "n={n} end state");
            }
        }
    }

    #[test]
    fn mix_tone_drift_bounded_over_2_22_samples() {
        // Satellite guarantee: fixed-cadence renormalization bounds the
        // amplitude AND phase error of Fast-mode synthesis against the
        // Exact oracle over at least 2^22 samples. f·dt = 1/64 makes the
        // oracle phase exactly representable: phase(n) = 2π·(n mod 64)/64.
        let rot = Complex64::cis(TAU / 64.0);
        let amp = 2.5e-4;
        let total = 1usize << 22;
        let chunk = 1usize << 14; // capture-sized mixes, state carried across
        let mut p = Phasor::new(0.0);
        let mut buf = vec![Complex64::ZERO; chunk];
        let (mut worst_amp, mut worst_phase) = (0.0f64, 0.0f64);
        let mut base = 0usize;
        while base < total {
            for z in buf.iter_mut() {
                *z = Complex64::ZERO;
            }
            mix_tone(&mut buf, &mut p, rot, amp);
            for i in (0..chunk).step_by(509) {
                let exact = Complex64::from_polar(amp, TAU * (((base + i) % 64) as f64) / 64.0);
                let got = buf[i];
                worst_amp = worst_amp.max((got.norm() - amp).abs() / amp);
                // Angle between got and exact via the conjugate product.
                worst_phase = worst_phase.max((got * exact.conj()).arg().abs());
            }
            base += chunk;
        }
        assert!(worst_amp < 1e-12, "amplitude drift {worst_amp}");
        assert!(worst_phase < 1e-8, "phase drift {worst_phase}");
        // The carried phasor itself is still on the unit circle.
        assert!((p.value().norm() - 1.0).abs() < 1e-13);
    }
}

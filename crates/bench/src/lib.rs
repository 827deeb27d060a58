//! # fase-bench — the experiment harness
//!
//! The campaign claims of Figs. 10, 11, 13 and 17, §1/§2.3 and §4.4 are
//! entries of one table, run by the `experiment` binary (see
//! [`experiment`]). Every other figure and prose claim has a binary of its
//! own; the detection-quality benchmark is [`detection`]. Timing lives in
//! the separate `perf` package under `examples/perf`.
//!
//! Every binary prints its series or carrier table and writes CSV data
//! under `target/figures/`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod detection;
pub mod experiment;

use fase_dsp::{Hertz, Spectrum};
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Directory where figure CSVs are written.
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Writes a CSV file under `target/figures/` and reports the path.
///
/// # Panics
///
/// Panics on I/O errors (these binaries are experiment scripts).
pub fn write_csv(name: &str, header: &str, rows: impl IntoIterator<Item = String>) {
    let path = figures_dir().join(name);
    let mut file = fs::File::create(&path).expect("create CSV file");
    writeln!(file, "{header}").expect("write CSV header");
    for row in rows {
        writeln!(file, "{row}").expect("write CSV row");
    }
    println!("  [csv] {}", path.display());
}

/// Writes a spectrum (or several, on a shared grid) as CSV columns.
///
/// # Panics
///
/// Panics on I/O errors or mismatched grids.
pub fn write_spectra_csv(name: &str, labels: &[&str], spectra: &[&Spectrum]) {
    assert_eq!(labels.len(), spectra.len());
    let first = spectra[0];
    assert!(
        spectra.iter().all(|s| first.same_grid(s)),
        "spectra must share a grid"
    );
    let header = std::iter::once("frequency_hz".to_owned())
        .chain(labels.iter().map(|l| format!("{l}_dbm")))
        .collect::<Vec<_>>()
        .join(",");
    let rows = (0..first.len()).map(|i| {
        let mut row = format!("{:.3}", first.frequency_at(i).hz());
        for s in spectra {
            row.push_str(&format!(",{:.3}", s.dbm_at(i).dbm()));
        }
        row
    });
    write_csv(name, &header, rows);
}

/// Renders an ASCII plot of `(x, y)` series to stdout — a stand-in for the
/// paper's figures when running in a terminal.
pub fn ascii_plot(title: &str, xs: &[f64], ys: &[f64], width: usize, height: usize) {
    assert_eq!(xs.len(), ys.len());
    if xs.is_empty() {
        println!("{title}: (empty)");
        return;
    }
    let (x_lo, x_hi) = (xs[0], xs[xs.len() - 1]);
    let y_lo = ys
        .iter()
        .cloned()
        .filter(|y| y.is_finite())
        .fold(f64::INFINITY, f64::min);
    let y_hi = ys
        .iter()
        .cloned()
        .filter(|y| y.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    let y_span = (y_hi - y_lo).max(1e-12);
    let mut grid = vec![vec![b' '; width]; height];
    // Column-wise max so narrow spikes stay visible at any width.
    let mut col_max = vec![f64::NEG_INFINITY; width];
    for (&x, &y) in xs.iter().zip(ys) {
        if !y.is_finite() {
            continue;
        }
        let c = (((x - x_lo) / (x_hi - x_lo).max(1e-300)) * (width - 1) as f64).round() as usize;
        let c = c.min(width - 1);
        col_max[c] = col_max[c].max(y);
    }
    for (c, &y) in col_max.iter().enumerate() {
        if !y.is_finite() {
            continue;
        }
        let r = (((y - y_lo) / y_span) * (height - 1) as f64).round() as usize;
        let r = height - 1 - r.min(height - 1);
        for (rr, row) in grid.iter_mut().enumerate() {
            if rr == r {
                row[c] = b'*';
            } else if rr > r && row[c] == b' ' {
                row[c] = b'.';
            }
        }
    }
    println!("\n{title}");
    if y_hi.abs() < 0.01 || y_hi.abs() >= 1e6 {
        println!("  y: {y_lo:.3e} .. {y_hi:.3e}");
    } else {
        println!("  y: {y_lo:.1} .. {y_hi:.1}");
    }
    for row in grid {
        println!("  |{}", String::from_utf8_lossy(&row));
    }
    println!("  +{}", "-".repeat(width));
    println!("   x: {x_lo:.0} .. {x_hi:.0}");
}

/// Plots a [`Spectrum`] in dBm.
pub fn plot_spectrum(title: &str, spectrum: &Spectrum, width: usize, height: usize) {
    let xs: Vec<f64> = (0..spectrum.len())
        .map(|i| spectrum.frequency_at(i).hz())
        .collect();
    let ys = spectrum.to_dbm_vec();
    ascii_plot(title, &xs, &ys, width, height);
}

/// Pretty-prints a table row list with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(header.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a frequency for tables.
pub fn fmt_freq(f: Hertz) -> String {
    format!("{f}")
}

/// Synthesizes one complex-baseband capture of a single carrier at
/// `carrier_hz` with a caller-supplied real envelope `envelope(n, t)` and a
/// Gauss–Markov frequency drift of standard deviation `drift_sigma_hz`
/// (0 = ideal oscillator). Used by the Figure 1–4 conceptual plots.
pub fn synthetic_carrier_capture(
    window: &fase_emsim::CaptureWindow,
    carrier: Hertz,
    mut envelope: impl FnMut(usize, f64) -> f64,
    drift_sigma_hz: f64,
    seed: u64,
) -> Vec<fase_dsp::Complex64> {
    use fase_dsp::Complex64;
    use fase_emsim::source::FreqDrift;
    let mut rng = fase_dsp::rng::SmallRng::seed_from_u64(seed);
    let mut drift = if drift_sigma_hz > 0.0 {
        FreqDrift::new(drift_sigma_hz, 0.5e-3)
    } else {
        FreqDrift::crystal()
    };
    let fs = window.sample_rate();
    let dt = 1.0 / fs;
    let mut phase = 0.0f64;
    (0..window.len())
        .map(|n| {
            let t = n as f64 * dt;
            let d = drift.step(dt, &mut rng);
            let z = Complex64::from_polar(envelope(n, t), phase);
            phase = (phase
                + std::f64::consts::TAU * (carrier.hz() + d - window.center().hz()) * dt)
                % std::f64::consts::TAU;
            z
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        write_csv(
            "test_helper.csv",
            "a,b",
            (0..3).map(|i| format!("{i},{}", i * 2)),
        );
        let text = fs::read_to_string(figures_dir().join("test_helper.csv")).unwrap();
        assert!(text.starts_with("a,b\n0,0\n1,2\n2,4"));
    }

    #[test]
    fn spectra_csv() {
        let s = Spectrum::new(Hertz(0.0), Hertz(10.0), vec![1e-12, 1e-11]).unwrap();
        write_spectra_csv("test_spec.csv", &["s"], &[&s]);
        let text = fs::read_to_string(figures_dir().join("test_spec.csv")).unwrap();
        assert!(text.contains("frequency_hz,s_dbm"));
        assert!(text.contains("-120.000"), "{text}");
    }

    #[test]
    fn ascii_plot_smoke() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x / 10.0).sin()).collect();
        ascii_plot("smoke", &xs, &ys, 60, 8); // must not panic
    }
}

//! §2.1's pulse-train harmonic facts, measured end-to-end: at 50% duty the
//! even harmonics vanish; at small duty the first harmonics are all of
//! similar strength; duty-cycle modulation changes *every* harmonic.

use crate::{print_table, write_csv};
use fase_dsp::{Complex64, Hertz, Spectrum};
use fase_emsim::regulator::SwitchingRegulator;
use fase_emsim::source::EmSource;
use fase_emsim::{CaptureWindow, RenderCtx};
use fase_sysmodel::{ActivityTrace, Domain, DomainLoads};

fn harmonic_levels(duty: f64, n_harmonics: u32) -> Vec<f64> {
    let fsw = Hertz::from_khz(300.0);
    let reg = SwitchingRegulator::new("probe", fsw, Domain::Dram, 1)
        .with_base_duty(duty)
        .with_duty_gain(0.0)
        .with_fundamental_dbm(-100.0)
        .with_linewidth(Hertz(2.0));
    let fs = 4.0e6;
    let n = 1 << 15;
    let window = CaptureWindow::new(Hertz::from_mhz(2.0), fs, n, 0.0);
    let mut trace = ActivityTrace::new();
    trace.push(1.0, DomainLoads::IDLE);
    let ctx = RenderCtx::new(&trace, &[], &window);
    let mut iq = vec![Complex64::ZERO; n];
    reg.render(&window, &ctx, &mut iq);
    let spectrum =
        Spectrum::from_capture(window.center(), window.sample_rate(), &iq).expect("spectrum");
    let power = spectrum.powers();
    (1..=n_harmonics)
        .map(|k| {
            let f = fsw.hz() * k as f64 - 2.0e6;
            let b = ((n / 2) as i64 + (f / (fs / n as f64)).round() as i64) as usize;
            let p: f64 = power[b - 4..=b + 4].iter().sum();
            10.0 * p.log10()
        })
        .collect()
}

pub fn run() -> bool {
    let duties = [0.05, 0.25, 0.5];
    let n_harmonics = 6u32;
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut profiles = Vec::new();
    for &d in &duties {
        let levels = harmonic_levels(d, n_harmonics);
        let mut row = vec![format!("{:.0}%", d * 100.0)];
        row.extend(levels.iter().map(|l| format!("{l:.1}")));
        rows.push(row);
        csv.push(format!(
            "{d},{}",
            levels
                .iter()
                .map(|l| format!("{l:.2}"))
                .collect::<Vec<_>>()
                .join(",")
        ));
        profiles.push(levels);
    }
    let header: Vec<String> = std::iter::once("duty".to_owned())
        .chain((1..=n_harmonics).map(|k| format!("h{k} (dBm)")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "pulse-train harmonic levels vs duty cycle",
        &header_refs,
        &rows,
    );

    // §2.1 checks.
    let small = &profiles[0];
    let spread = small.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - small.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread < 6.0,
        "small-duty harmonics should be similar (spread {spread:.1} dB)"
    );
    let half = &profiles[2];
    assert!(
        half[1] < half[0] - 25.0,
        "even harmonics must vanish at 50% duty"
    );
    assert!(
        half[3] < half[2] - 25.0,
        "4th harmonic must vanish at 50% duty"
    );
    println!("\nPASS: small duty ⇒ flat harmonics (spread {spread:.1} dB); 50% duty ⇒ even harmonics suppressed.");
    write_csv(
        "harmonic_profile.csv",
        "duty,h1_dbm,h2_dbm,h3_dbm,h4_dbm,h5_dbm,h6_dbm",
        csv,
    );
    true
}

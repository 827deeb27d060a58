//! §4.4's verification step, automated: probe each interesting carrier
//! directly and classify its modulation. The AM carriers FASE reports
//! probe as AM; the constant-on-time regulator FASE rejects probes as FM —
//! "we confirmed this with a spectrogram of the modulation".

use crate::print_table;
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{probe_modulation, ProbeConfig};
use fase_sysmodel::ActivityPair;

/// One probe definition: label, system builder, carrier Hz, span Hz,
/// driving pair, expected verdict.
type ProbeCase = (
    &'static str,
    fn(u64) -> SimulatedSystem,
    f64,
    f64,
    ActivityPair,
    &'static str,
);

pub fn run() -> bool {
    let probes: [ProbeCase; 4] = [
        (
            "i7 DRAM regulator 315.66 kHz",
            SimulatedSystem::intel_i7_desktop,
            315_660.0,
            24_000.0,
            ActivityPair::LdmLdl1,
            "Am",
        ),
        (
            "i7 core regulator 332.53 kHz",
            SimulatedSystem::intel_i7_desktop,
            332_530.0,
            24_000.0,
            ActivityPair::Ldl2Ldl1,
            "Am",
        ),
        (
            "Turion memory regulator 389.14 kHz",
            SimulatedSystem::amd_turion_laptop,
            389_140.0,
            24_000.0,
            ActivityPair::LdmLdl1,
            "Am",
        ),
        (
            "Turion core regulator 280.87 kHz (constant on-time)",
            SimulatedSystem::amd_turion_laptop,
            280_870.0,
            120_000.0,
            ActivityPair::Ldl2Ldl1,
            "Fm",
        ),
    ];
    let mut rows = Vec::new();
    let mut all_ok = true;
    for (i, (name, make, carrier, span, pair, expected)) in probes.iter().enumerate() {
        let mut system = make(if name.starts_with("i7") { 42 } else { 2007 });
        let config = ProbeConfig {
            span: *span,
            ..ProbeConfig::default()
        };
        let (stats, kind) = probe_modulation(
            &mut system,
            *pair,
            600 + i as u64,
            Hertz(*carrier),
            Hertz::from_khz(5.0),
            &config,
        );
        let verdict = format!("{kind:?}");
        let ok = verdict == *expected;
        all_ok &= ok;
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", stats.am_depth),
            format!("{:.0} Hz", stats.fm_deviation_hz),
            verdict,
            format!("{expected} {}", if ok { "✓" } else { "✗" }),
        ]);
    }
    print_table(
        "direct modulation probes (§4.4)",
        &["carrier", "AM depth", "FM deviation", "verdict", "expected"],
        &rows,
    );
    assert!(all_ok, "a probe verdict disagreed with the paper");
    println!("\nPASS: AM carriers probe as AM; the constant-on-time regulator probes as FM.");
    true
}

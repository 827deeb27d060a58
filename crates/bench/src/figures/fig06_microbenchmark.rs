//! Figure 6: the X/Y alternation micro-benchmark. Not a spectrum — the
//! paper shows pseudo-code — so this script demonstrates the mechanism:
//! the same pointer-chase kernel, differing only in the mask, is served by
//! the intended cache level, and the calibrated counts hit the requested
//! alternation frequency with a 50% duty cycle.

use crate::print_table;
use fase_sysmodel::{Activity, ActivityPair, Machine};

pub fn run() -> bool {
    println!("Figure 6 (paper pseudo-code):");
    println!("  while(true) {{");
    println!("    for(i=0;i<inst_x_count;i++) {{ ptr1=(ptr1&~mask1)|((ptr1+offset)&mask1); value=*ptr1; }}");
    println!("    for(i=0;i<inst_y_count;i++) {{ ptr2=(ptr2&~mask2)|((ptr2+offset)&mask2); *ptr2=value; }}");
    println!("  }}");

    let mut machine = Machine::core_i7();
    let rows: Vec<Vec<String>> = [
        Activity::LoadL1,
        Activity::LoadL2,
        Activity::LoadLlc,
        Activity::LoadDram,
        Activity::StoreDram,
    ]
    .iter()
    .map(|&a| {
        let p = machine.profile(a, 8192);
        vec![
            a.label().to_owned(),
            format!("{:.1} ns", p.op_seconds * 1e9),
            format!("{:.1}%", p.dram_fraction * 100.0),
            format!("{}", p.loads),
        ]
    })
    .collect();
    print_table(
        "activity profiles on the i7 model (mask selects the serving level)",
        &["activity", "latency/op", "DRAM ops", "domain loads"],
        &rows,
    );

    // Calibration check: the alternation hits its target frequency.
    let mut rows = Vec::new();
    for f_alt in [43_300.0, 180_000.0] {
        let bench = ActivityPair::LdmLdl1.calibrated(&mut machine, f_alt);
        let mut rng = fase_dsp::rng::SmallRng::seed_from_u64(60);
        let trace = machine.run_alternation(&bench, 5e-3, &mut rng);
        let pairs = trace.len() / 2;
        let achieved = pairs as f64 / trace.duration();
        rows.push(vec![
            format!("{:.1} kHz", f_alt / 1e3),
            format!("{}", bench),
            format!("{:.2} kHz", achieved / 1e3),
            format!("{:+.2}%", (achieved - f_alt) / f_alt * 100.0),
        ]);
    }
    print_table(
        "calibration: requested vs achieved f_alt (LDM/LDL1)",
        &["requested", "alternation", "achieved", "error"],
        &rows,
    );
    println!(
        "\n(The LDM and LDL1 loops are the same code; only the pointer-chase mask differs — §3.)"
    );
    true
}

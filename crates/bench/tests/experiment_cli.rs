//! The `experiment` binary's command line: listing, running an entry and
//! unknown names.

use std::process::Command;

fn experiment(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiment"))
        .args(args)
        .output()
        .expect("run experiment")
}

#[test]
fn no_argument_lists_exactly_the_table() {
    let out = experiment(&[]);
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8");
    let names: Vec<&str> = fase_bench::experiment::experiments()
        .iter()
        .map(|e| e.name)
        .collect();
    let listed: Vec<&str> = listed.lines().collect();
    assert_eq!(listed, names);
    // Every figure and claim script keeps the name it had as a binary of
    // its own, so doc rows, CI labels and CSV paths still map one to one.
    let scripts = [
        "ablation_heuristic",
        "baseline_compare",
        "carrier_tracking",
        "distance_sweep",
        "fig01_ideal_am",
        "fig02_program_am",
        "fig03_jittered_carrier",
        "fig04_nonideal_am",
        "fig05_realistic",
        "fig06_microbenchmark",
        "fig07_sideband_shift",
        "fig08_harmonic_map",
        "fig09_heuristic_output",
        "fig10_campaigns",
        "fig12_core_regulator",
        "fig14_ss_clock_load",
        "fig15_ss_sidebands",
        "fig16_ss_heuristic",
        "fivr_scenario",
        "harmonic_profile",
        "leakage_capacity",
        "mitigation_randomize",
        "modulation_probe",
        "refresh_load_sweep",
    ];
    for name in scripts {
        assert!(listed.contains(&name), "{name} is not listed");
    }
}

#[test]
fn a_script_entry_runs_and_exits_0() {
    // Figure 1 is synthetic: one capture of one ideal carrier.
    let out = experiment(&["fig01_ideal_am"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.contains("Figure 1: ideal carrier"), "{stdout}");
}

#[test]
fn unknown_name_exits_2() {
    let out = experiment(&["nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope"));
}

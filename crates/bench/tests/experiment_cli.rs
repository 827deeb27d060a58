//! The `experiment` binary's command line: listing and unknown names.

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
    assert_eq!(listed.lines().collect::<Vec<_>>(), names);
}

#[test]
fn unknown_name_exits_2() {
    let out = experiment(&["nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nope"));
}

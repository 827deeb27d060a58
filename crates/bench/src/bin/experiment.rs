//! Runs one campaign experiment of `fase_bench::experiment` by name:
//! `experiment <name>` prints its carrier table and claim verdicts and
//! exits 1 if a claim fails. With no argument it lists the names, one per
//! line. An unknown name exits 2.

use fase_bench::experiment::{experiments, run};
use std::process::ExitCode;

fn main() -> ExitCode {
    let table = experiments();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        table.iter().for_each(|e| println!("{}", e.name));
        return ExitCode::SUCCESS;
    }
    match table.iter().find(|e| args == [e.name]) {
        Some(experiment) => ExitCode::from(u8::from(!run(experiment))),
        None => {
            eprintln!("usage: experiment [<name>]; no experiment is named by {args:?}");
            ExitCode::from(2)
        }
    }
}

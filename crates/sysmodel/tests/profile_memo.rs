//! The process-wide profiling memo keeps its live entries when two
//! workers miss the same key together and both store it.
//!
//! This file holds a single test so that no other test in the process
//! touches the profiling memo or its `sysmodel.profile_memo_*` counters
//! while it runs.

use fase_sysmodel::{Activity, Machine};
use std::sync::Barrier;

/// The memo's capacity (`PROFILE_MEMO` in `machine.rs`).
const CAP: usize = 16;

fn misses() -> u64 {
    fase_obs::snapshot()
        .counters
        .get("sysmodel.profile_memo_misses")
        .copied()
        .unwrap_or(0)
}

/// Profiles `CAP − 1` distinct cheap keys on a fresh machine.
fn fill_all_but_one_slot() {
    let mut machine = Machine::core_i7();
    for ops in 1..CAP {
        machine.profile(Activity::Add, ops);
    }
}

#[test]
fn a_key_stored_while_building_does_not_clear_a_full_memo() {
    fase_obs::enable();
    fill_all_but_one_slot();
    let filled = misses();
    assert_eq!(filled, (CAP - 1) as u64);

    // Both workers look the key up before either stores it: the DRAM
    // pointer chase they then run takes far longer than the lookup. The
    // first store fills the memo; the second finds it full but already
    // holding the key, and must not clear it.
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                let mut machine = Machine::core_i7();
                start.wait();
                machine.profile(Activity::LoadDram, 2000);
            });
        }
    });
    let raced = misses() - filled;
    assert!((1..=2).contains(&raced), "{raced} misses for one key");

    // Every entry stored before the race is still live.
    fill_all_but_one_slot();
    assert_eq!(misses(), filled + raced, "the memo was cleared");
}

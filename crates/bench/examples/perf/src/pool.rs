//! Seeded draws from a fixed pool of capture seeds.
//!
//! Detection is statistical: a small share of seeds gives a report that
//! misses a must-find carrier (for the served sweep, one scene in about
//! 4,000), and a run checks hundreds of reports. So that a run with any
//! `--seed` can require every report to be right, every workload draws
//! its seeds from one fixed pool of [`SIZE`] entries for which every
//! workload's reports found every must-find carrier when the benchmark
//! was written (`perf pool <workload>` checks the pool again). A miss in
//! a run therefore means the program changed, not that the seed was
//! unlucky.
//!
//! The run seed picks where in the pool a run starts and with what stride:
//! draws `0..SIZE` of one run are distinct entries.

use fase_dsp::rng::mix_seed;

/// Entries in the pool; a power of two, so every odd stride visits each.
pub const SIZE: u64 = 1024;

/// Names the pool: entry `slot` is `mix_seed(BASE, slot) >> 11`.
const BASE: u64 = 1;

/// Entry `slot` of the pool. Entries fit in 53 bits, so a JSON request
/// body carries them exactly.
pub fn entry(slot: u64) -> u64 {
    mix_seed(BASE, slot) >> 11
}

/// The order in which one run visits the pool.
#[derive(Debug, Clone, Copy)]
pub struct Draw {
    start: u64,
    stride: u64,
}

impl Draw {
    pub fn new(run_seed: u64) -> Draw {
        let m = mix_seed(run_seed, BASE);
        Draw {
            start: m % SIZE,
            stride: ((m >> 32) % SIZE) | 1,
        }
    }

    /// Draw `j` is slot `j`: the order `perf pool` checks the pool in.
    pub fn in_order() -> Draw {
        Draw {
            start: 0,
            stride: 1,
        }
    }

    /// Seed of draw `j`.
    pub fn seed(&self, j: usize) -> u64 {
        let slot = (self.start + j as u64 * self.stride) % SIZE;
        entry(slot)
    }

    /// Seed of set-up draw `j`: counted from the far end of the run's
    /// order, so set-up and timed ops share no input while a run makes
    /// fewer than `SIZE - j` timed ops.
    pub fn setup_seed(&self, j: usize) -> u64 {
        self.seed(SIZE as usize - 1 - j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn a_run_visits_every_entry_once_and_the_seed_picks_the_order() {
        let draw = Draw::new(42);
        let seeds: BTreeSet<u64> = (0..SIZE as usize).map(|j| draw.seed(j)).collect();
        let pool: BTreeSet<u64> = (0..SIZE).map(entry).collect();
        assert_eq!(seeds, pool);
        assert_eq!(draw.seed(SIZE as usize), draw.seed(0));
        assert_eq!(draw.setup_seed(0), draw.seed(SIZE as usize - 1));
        let other = Draw::new(43);
        assert_ne!(
            (0..8).map(|j| draw.seed(j)).collect::<Vec<_>>(),
            (0..8).map(|j| other.seed(j)).collect::<Vec<_>>()
        );
        assert!(pool.iter().all(|&s| s < 1 << 53));
    }
}

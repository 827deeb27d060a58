//! The figure and prose-claim scripts: one module per entry of the
//! `experiment` table that is not a campaign with claims as data. Each
//! module's `run` prints its series or table, writes its CSVs under
//! `target/figures/` and returns whether its claims hold; most scripts
//! `assert!` their claims instead, and so panic when one fails.

pub mod ablation_heuristic;
pub mod baseline_compare;
pub mod carrier_tracking;
pub mod distance_sweep;
pub mod fig01_ideal_am;
pub mod fig02_program_am;
pub mod fig03_jittered_carrier;
pub mod fig04_nonideal_am;
pub mod fig05_realistic;
pub mod fig06_microbenchmark;
pub mod fig07_sideband_shift;
pub mod fig08_harmonic_map;
pub mod fig09_heuristic_output;
pub mod fig10_campaigns;
pub mod fig12_core_regulator;
pub mod fig14_ss_clock_load;
pub mod fig15_ss_sidebands;
pub mod fig16_ss_heuristic;
pub mod fivr_scenario;
pub mod harmonic_profile;
pub mod leakage_capacity;
pub mod mitigation_randomize;
pub mod modulation_probe;
pub mod refresh_load_sweep;

//! Fault-matrix integration tests: every impairment class, injected at a
//! fixed seed, must leave the campaign standing — the run completes, the
//! campaign health names the fault, and the planted AM carrier (the demo
//! system's ~315.66 kHz DRAM regulator) stays the top-scoring detection.
//!
//! The quick matrix always runs; set `FASE_FAULT_MATRIX=full` for the
//! extended sweep (every class at every alternation index, across worker
//! thread counts).

use fase_core::{CampaignConfig, Fase, FaseError, FaseReport};
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{
    run_campaign_with_options, CacheKey, CampaignOptions, CaptureCache, FaultKind, FaultPlan,
    DEFAULT_MAX_ATTEMPTS,
};
use fase_sysmodel::ActivityPair;

/// A fast, narrow campaign around the demo regulator (same shape as the
/// runner's unit-test config).
fn small_config() -> CampaignConfig {
    CampaignConfig::builder()
        .band(Hertz::from_khz(250.0), Hertz::from_khz(400.0))
        .resolution(Hertz(200.0))
        .alternation(Hertz::from_khz(30.0), Hertz(2_000.0), 5)
        .averages(3)
        .build()
        .unwrap()
}

fn demo_system(seed: u64) -> SimulatedSystem {
    let mut system = SimulatedSystem::intel_i7_desktop(seed);
    system.machine = fase_sysmodel::Machine::core_i7();
    system
}

fn options(threads: usize, plan: Option<FaultPlan>) -> CampaignOptions {
    CampaignOptions {
        threads: Some(threads),
        max_fft: 1 << 12,
        fault_plan: plan,
        ..CampaignOptions::default()
    }
}

/// Asserts the strongest carrier in the report is the DRAM regulator.
fn assert_dram_carrier_top(report: &FaseReport) {
    let top = report
        .carriers()
        .iter()
        .max_by(|a, b| a.total_log_score().total_cmp(&b.total_log_score()))
        .expect("report holds no carriers");
    let offset = (top.frequency() - Hertz::from_khz(315.66)).hz().abs();
    assert!(
        offset < 1_500.0,
        "top carrier at {} is not the DRAM regulator:\n{report}",
        top.frequency()
    );
}

#[test]
fn every_impairment_class_is_survivable() {
    for kind in FaultKind::ALL {
        let plan = FaultPlan::new(41).force(1, Some(0), Some(1), 1, kind);
        let spectra = run_campaign_with_options(
            &small_config(),
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            options(2, Some(plan)),
        )
        .unwrap_or_else(|e| panic!("{kind:?} sank the campaign: {e}"));
        let health = spectra.health().expect("fault-injected run lacks health");
        assert!(
            health.has_fault(kind.tag()),
            "{kind:?} not recorded: {health:?}"
        );
        assert_eq!(health.surviving, 5, "{kind:?} should not drop a spectrum");
        if kind == FaultKind::TaskFailure {
            // One forced failure, then a clean retry on a fresh RNG stream.
            assert!(health.retried_tasks >= 1, "retry not recorded: {health:?}");
        }
        let report = Fase::default().analyze(&spectra).unwrap();
        assert!(!report.is_degraded(), "{kind:?} wrongly degraded the run");
        assert_dram_carrier_top(&report);
    }
}

#[test]
fn sequential_runner_retries_and_records_faults() {
    // Fail the first two attempts of one capture: the default budget of
    // three leaves room for the clean third attempt. One worker runs the
    // tasks in campaign order.
    let plan = FaultPlan::new(13).force(0, Some(0), Some(0), 2, FaultKind::TaskFailure);
    let spectra = run_campaign_with_options(
        &small_config(),
        ActivityPair::LdmLdl1,
        |_| demo_system(5),
        11,
        options(1, Some(plan)),
    )
    .unwrap();
    let health = spectra.health().unwrap();
    assert!(health.has_fault("task-failure"));
    assert_eq!(health.retried_tasks, 1);
    assert_eq!(health.total_retries, 2);
    assert!(!health.degraded());
    let report = Fase::default().analyze(&spectra).unwrap();
    assert_dram_carrier_top(&report);
}

#[test]
fn exhausted_alternation_degrades_the_campaign() {
    let plan = FaultPlan::new(3).always_fail(2);
    let spectra = run_campaign_with_options(
        &small_config(),
        ActivityPair::LdmLdl1,
        |_| demo_system(6),
        77,
        options(2, Some(plan)),
    )
    .unwrap();
    assert_eq!(spectra.len(), 4, "campaign should degrade to 4 spectra");
    let health = spectra.health().unwrap();
    assert!(health.degraded());
    assert_eq!(health.surviving, 4);
    assert_eq!(health.dropped.len(), 1);
    assert_eq!(
        health.dropped[0].attempts, DEFAULT_MAX_ATTEMPTS,
        "unexpected drop: {:?}",
        health.dropped[0]
    );
    // Eq. 1 renormalizes over the surviving spectra; the carrier must
    // still win.
    let report = Fase::default().analyze(&spectra).unwrap();
    assert!(report.is_degraded());
    assert_dram_carrier_top(&report);

    // The report, the health text and the stored cache entry are pinned
    // byte for byte: an entry written by an earlier version must stay
    // readable, and the report JSON is what sweeps and the server emit.
    assert_eq!(report.to_json(), DEGRADED_REPORT_JSON);
    assert_eq!(health.to_string(), DEGRADED_HEALTH);
    let dir = std::env::temp_dir().join(format!("fase-fault-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = CaptureCache::open(&dir).unwrap();
    let key = CacheKey::from_description("exhausted alternation");
    cache.store(&key, &spectra).unwrap();
    let entry = std::fs::read(dir.join(format!("{}.entry", key.hex()))).unwrap();
    assert_eq!(fnv1a_hex(&entry), DEGRADED_ENTRY_FNV1A);
    assert_eq!(cache.load(&key).as_ref(), Some(&spectra));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `exhausted_alternation_degrades_the_campaign`'s report JSON.
const DEGRADED_REPORT_JSON: &str = r#"{
  "carriers": [{"frequency_hz": 315400.0, "magnitude_dbm": -101.98118514091755, "sideband_dbm": -117.58981700913208, "total_log_score": 29.991859460451344, "harmonics": [{"h": 1, "score": 2620879.7350505004}, {"h": -1, "score": 4044377.63182109}]}],
  "harmonic_sets": [{"fundamental_hz": 315400.0, "harmonic_numbers": [1], "member_frequencies_hz": [315400.0]}],
  "degraded": true,
  "health": {"planned": 5, "surviving": 4, "retried_tasks": 3, "total_retries": 6, "quarantined": 0, "faults": [{"f_alt_hz": 34000.0, "segment": 0, "average": 0, "attempt": 0, "tag": "task-failure"}, {"f_alt_hz": 34000.0, "segment": 0, "average": 0, "attempt": 1, "tag": "task-failure"}, {"f_alt_hz": 34000.0, "segment": 0, "average": 0, "attempt": 2, "tag": "task-failure"}, {"f_alt_hz": 34000.0, "segment": 0, "average": 1, "attempt": 0, "tag": "task-failure"}, {"f_alt_hz": 34000.0, "segment": 0, "average": 1, "attempt": 1, "tag": "task-failure"}, {"f_alt_hz": 34000.0, "segment": 0, "average": 1, "attempt": 2, "tag": "task-failure"}, {"f_alt_hz": 34000.0, "segment": 0, "average": 2, "attempt": 0, "tag": "task-failure"}, {"f_alt_hz": 34000.0, "segment": 0, "average": 2, "attempt": 1, "tag": "task-failure"}, {"f_alt_hz": 34000.0, "segment": 0, "average": 2, "attempt": 2, "tag": "task-failure"}], "dropped": [{"f_alt_hz": 34000.0, "error": "capture at f_alt 34.000 kHz (segment 0) failed after 3 attempt(s): campaign worker failed: injected task failure"}]}
}
"#;

/// `exhausted_alternation_degrades_the_campaign`'s health text.
const DEGRADED_HEALTH: &str = concat!(
    "capture health: 4/5 spectra, 3 task(s) retried (6 extra attempt(s)), 0 capture(s) quarantined, 9 fault(s) [DEGRADED]\n",
    "  dropped f_alt 34.000 kHz: capture at f_alt 34.000 kHz (segment 0) failed after 3 attempt(s): campaign worker failed: injected task failure",
);

/// FNV-1a 64 of the cache entry `exhausted_alternation_degrades_the_campaign`
/// stores.
const DEGRADED_ENTRY_FNV1A: &str = "33194d0c79ab7136";

/// FNV-1a 64 of `bytes`, as 16 hex digits.
fn fnv1a_hex(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

#[test]
fn sequential_runner_degrades_like_the_pool() {
    let plan = FaultPlan::new(3).always_fail(2);
    let spectra = run_campaign_with_options(
        &small_config(),
        ActivityPair::LdmLdl1,
        |_| demo_system(5),
        11,
        options(1, Some(plan)),
    )
    .unwrap();
    assert_eq!(spectra.len(), 4);
    assert!(spectra.health().unwrap().degraded());
    let report = Fase::default().analyze(&spectra).unwrap();
    assert_dram_carrier_top(&report);
}

#[test]
fn fewer_than_two_survivors_is_a_capture_failure() {
    let plan = FaultPlan::new(3)
        .always_fail(0)
        .always_fail(1)
        .always_fail(2)
        .always_fail(3);
    let err = run_campaign_with_options(
        &small_config(),
        ActivityPair::LdmLdl1,
        |_| demo_system(6),
        77,
        options(2, Some(plan)),
    )
    .unwrap_err();
    assert!(
        matches!(
            &err,
            FaseError::CaptureFailed { attempts, cause, .. }
                if *attempts == DEFAULT_MAX_ATTEMPTS && cause.contains("injected task failure")
        ),
        "expected CaptureFailed, got {err:?}"
    );
}

#[test]
fn faulty_campaign_is_thread_count_invariant() {
    // Random faults at a healthy rate: retries, glitched waveforms and
    // quarantines all fire, yet the outcome — spectra *and* health — must
    // be a pure function of the seed, not of worker scheduling.
    let run = |threads: usize| {
        let plan = FaultPlan::new(7).with_rate(0.2);
        run_campaign_with_options(
            &small_config(),
            ActivityPair::LdmLdl1,
            |_| demo_system(6),
            77,
            options(threads, Some(plan)),
        )
        .unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one, four, "threads=1 vs threads=4 diverged under faults");
    assert!(
        !one.health().unwrap().faults.is_empty(),
        "rate 0.2 injected nothing — the invariance test is vacuous"
    );
}

#[test]
fn panicking_task_surfaces_error_and_executor_stays_usable() {
    let config = small_config();
    let err = run_campaign_with_options(
        &config,
        ActivityPair::LdmLdl1,
        |i| {
            assert!(i < 1, "synthetic capture panic");
            demo_system(6)
        },
        77,
        options(2, None),
    )
    .unwrap_err();
    assert!(
        matches!(&err, FaseError::Worker(msg) if msg.contains("synthetic capture panic")),
        "expected Worker error, got {err:?}"
    );
    // No poisoned state escapes the failed run: the same process can run
    // the same campaign cleanly right after.
    let spectra =
        run_campaign_with_options(&config, ActivityPair::LdmLdl1, |_| demo_system(6), 77, {
            options(2, None)
        })
        .unwrap();
    assert_eq!(spectra.len(), 5);
    assert!(spectra.health().unwrap().is_clean());
}

#[test]
fn full_fault_matrix() {
    if std::env::var("FASE_FAULT_MATRIX").as_deref() != Ok("full") {
        eprintln!("skipping extended matrix; set FASE_FAULT_MATRIX=full to run");
        return;
    }
    let config = small_config();
    for kind in FaultKind::ALL {
        for i_alt in 0..config.alternation_frequencies().len() {
            let mut reference: Option<fase_core::CampaignSpectra> = None;
            for threads in [1, 2, 4] {
                let plan = FaultPlan::new(97).force(i_alt, None, Some(0), 1, kind);
                let spectra = run_campaign_with_options(
                    &config,
                    ActivityPair::LdmLdl1,
                    |_| demo_system(6),
                    77,
                    options(threads, Some(plan)),
                )
                .unwrap_or_else(|e| panic!("{kind:?} at i_alt={i_alt}, threads={threads}: {e}"));
                assert!(spectra.health().unwrap().has_fault(kind.tag()));
                let report = Fase::default().analyze(&spectra).unwrap();
                assert_dram_carrier_top(&report);
                match &reference {
                    None => reference = Some(spectra),
                    Some(r) => assert_eq!(
                        r, &spectra,
                        "{kind:?} at i_alt={i_alt}: threads={threads} diverged"
                    ),
                }
            }
        }
    }
}

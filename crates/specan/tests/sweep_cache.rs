//! End-to-end sweep/cache correctness: cold, warm, kill-and-rerun and
//! corrupted-entry runs must all produce byte-identical reports.

use fase_core::FaseError;
use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_specan::{run_sweep, Shard, SweepConfig, SweepOptions};
use fase_sysmodel::{ActivityPair, Machine};
use std::path::PathBuf;
use std::time::Duration;

fn factory(i_alt: usize) -> SimulatedSystem {
    let mut system = SimulatedSystem::intel_i7_desktop(0xFA5E + i_alt as u64);
    system.machine = Machine::core_i7();
    system
}

/// 250–400 kHz split in two: contains the 315 kHz DRAM regulator, so the
/// reports under comparison are non-trivial.
fn sweep_config() -> SweepConfig {
    SweepConfig {
        lo: Hertz(250_000.0),
        hi: Hertz(400_000.0),
        resolution: Hertz(200.0),
        bands: 2,
        overlap: Hertz(2_000.0),
        f_alt1: Hertz(30_000.0),
        f_delta: Hertz(2_000.0),
        alternations: 5,
        averages: 3,
    }
}

fn options(cache_dir: Option<&PathBuf>) -> SweepOptions {
    let mut options = SweepOptions {
        cache_dir: cache_dir.cloned(),
        ..SweepOptions::default()
    };
    options.campaign.max_fft = 1 << 12;
    options
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fase-sweep-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SEED: u64 = 23;

fn sweep_json(opts: &SweepOptions) -> String {
    run_sweep(
        &sweep_config(),
        "it-demo",
        ActivityPair::LdmLdl1,
        factory,
        SEED,
        opts,
    )
    .unwrap()
    .report
    .to_json()
}

#[test]
fn cold_warm_and_resumed_sweeps_are_byte_identical() {
    let dir = temp_dir("identity");

    // Reference: one uninterrupted, uncached sweep.
    let reference = sweep_json(&options(None));

    // Cold run populates the cache; warm run is served from it.
    let cold = sweep_json(&options(Some(&dir)));
    let warm = sweep_json(&options(Some(&dir)));
    assert_eq!(cold, reference, "cold cached run diverged");
    assert_eq!(warm, reference, "warm run diverged");

    // "Kill" mid-sweep: a fresh cache where only band 0 was computed
    // (shard 0/2 skips band 1), then a plain re-run over the same cache
    // finishes the job.
    let dir2 = temp_dir("rerun");
    let mut killed = options(Some(&dir2));
    killed.shard = Some(Shard { index: 0, count: 2 });
    let partial = run_sweep(
        &sweep_config(),
        "it-demo",
        ActivityPair::LdmLdl1,
        factory,
        SEED,
        &killed,
    )
    .unwrap();
    assert!(!partial.complete);

    let resumed = run_sweep(
        &sweep_config(),
        "it-demo",
        ActivityPair::LdmLdl1,
        factory,
        SEED,
        &options(Some(&dir2)),
    )
    .unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.cache_hits, 1, "band 0 should come from the cache");
    assert_eq!(resumed.cache_misses, 1, "band 1 should be recomputed");
    assert_eq!(resumed.report.to_json(), reference, "resumed run diverged");

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

#[test]
fn corrupt_cache_entry_is_detected_and_recomputed() {
    let dir = temp_dir("corrupt");
    let cold = sweep_json(&options(Some(&dir)));

    // Flip a byte near the end of one entry's payload.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "entry"))
        .expect("cache entry written");
    let mut bytes = std::fs::read(&entry).unwrap();
    let at = bytes.len() - 10;
    bytes[at] = bytes[at].wrapping_add(1);
    std::fs::write(&entry, &bytes).unwrap();

    let outcome = run_sweep(
        &sweep_config(),
        "it-demo",
        ActivityPair::LdmLdl1,
        factory,
        SEED,
        &options(Some(&dir)),
    )
    .unwrap();
    assert_eq!(
        outcome.cache_misses, 1,
        "the corrupted band must be recomputed"
    );
    assert_eq!(outcome.cache_hits, 1, "the intact band must still hit");
    assert_eq!(outcome.report.to_json(), cold, "healed run diverged");

    // The recomputed entry healed the cache: everything hits now.
    let healed = run_sweep(
        &sweep_config(),
        "it-demo",
        ActivityPair::LdmLdl1,
        factory,
        SEED,
        &options(Some(&dir)),
    )
    .unwrap();
    assert_eq!(healed.cache_hits, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn panicking_factory_fails_the_sweep_and_stores_nothing() {
    for threads in [1, 2] {
        let dir = temp_dir(&format!("panic-t{threads}"));
        let mut opts = options(Some(&dir));
        opts.campaign.threads = Some(threads);
        // The sweep runs on its own thread so a hang fails the test
        // instead of stalling the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = run_sweep(
                &sweep_config(),
                "it-demo",
                ActivityPair::LdmLdl1,
                |i| {
                    assert!(i < 2, "synthetic sweep panic");
                    factory(i)
                },
                SEED,
                &opts,
            );
            let _ = tx.send(result.map(|outcome| outcome.report.to_json()));
        });
        let err = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("threads={threads}: sweep did not return"))
            .unwrap_err();
        assert!(
            matches!(&err, FaseError::Worker(msg) if msg.contains("synthetic sweep panic")),
            "threads={threads}: expected Worker error, got {err:?}"
        );
        // Every band needs the panicking alternation, so none finished
        // and nothing was stored.
        let stored: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(stored.is_empty(), "threads={threads}: {stored:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The `.entry` files in `dir`, by name.
fn entry_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "entry"))
        .collect();
    entries.sort();
    entries
}

#[test]
fn a_mixed_cache_gives_the_uncached_report_at_any_thread_count() {
    // Three bands: band 0 cached, band 1 missing, band 2 corrupt.
    let config = SweepConfig {
        bands: 3,
        ..sweep_config()
    };
    let sweep = |opts: &SweepOptions| {
        run_sweep(
            &config,
            "it-demo",
            ActivityPair::LdmLdl1,
            factory,
            SEED,
            opts,
        )
        .unwrap()
    };
    let reference = sweep(&options(None)).report.to_json();

    let mixed = temp_dir("mixed");
    let mut shard = options(Some(&mixed));
    shard.shard = Some(Shard { index: 0, count: 3 });
    sweep(&shard);
    let band0 = entry_files(&mixed);
    shard.shard = Some(Shard { index: 2, count: 3 });
    sweep(&shard);
    let band2: Vec<PathBuf> = entry_files(&mixed)
        .into_iter()
        .filter(|p| !band0.contains(p))
        .collect();
    assert_eq!((band0.len(), band2.len()), (1, 1));
    let mut bytes = std::fs::read(&band2[0]).unwrap();
    let at = bytes.len() - 10;
    bytes[at] = bytes[at].wrapping_add(1);
    std::fs::write(&band2[0], &bytes).unwrap();

    for threads in [1, 2, 4] {
        let dir = temp_dir(&format!("mixed-t{threads}"));
        std::fs::create_dir_all(&dir).unwrap();
        for entry in entry_files(&mixed) {
            std::fs::copy(&entry, dir.join(entry.file_name().unwrap())).unwrap();
        }
        let mut opts = options(Some(&dir));
        opts.campaign.threads = Some(threads);
        let outcome = sweep(&opts);
        assert_eq!(outcome.report.to_json(), reference, "threads={threads}");
        assert_eq!((outcome.cache_hits, outcome.cache_misses), (1, 2));
        let from_cache: Vec<bool> = outcome.bands.iter().map(|b| b.from_cache).collect();
        assert_eq!(from_cache, [true, false, false], "threads={threads}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&mixed).unwrap();
}

//! Workspace file discovery and rule-scope classification.
//!
//! The scope map encodes *which promise applies where*:
//!
//! | scope                                   | D | P | U | S-errdoc | S-errctor | S-lock |
//! |-----------------------------------------|---|---|---|----------|-----------|--------|
//! | `fase-dsp`/`core`/`emsim`/`specan` src  | ✓ | ✓ |   | ✓        | ✓         | ✓      |
//! | `fase-obs` src (clock waiver inside)    | ✓ | ✓ |   | ✓        | ✓         | ✓      |
//! | DSP hot-path files (spectrum, fft, …)   | ✓ | ✓ | ✓ | ✓        | ✓         | ✓      |
//! | `fase-sysmodel`/`baseline`/root src     |   | ✓ |   | ✓        | ✓         | ✓      |
//! | `fase-serve` src (concurrent server)    |   | ✓ |   | ✓        | ✓         | ✓      |
//! | `fase-cli` (except `main.rs`)           |   | ✓ |   | ✓        | ✓         | ✓      |
//! | `core/src/error.rs` (designated site)   | ✓ | ✓ |   | ✓        |           | ✓      |
//! | `crates/bench`, `crates/lint`, tests    |   |   |   |          |           |        |
//!
//! `S-lock` (discarded `Mutex`/`RwLock` guards) tracks the panic-freedom
//! scope: everywhere library code is expected to degrade instead of
//! abort, it must also actually hold the locks it takes.
//!
//! `units.rs`/`stats.rs` inside fase-dsp are the *homes* of the guarded
//! helpers, so the U rules do not apply to them; `rng.rs` and `complex.rs`
//! are primitive math layers below the units discipline.

use crate::rules::RuleSet;
use std::io;
use std::path::{Path, PathBuf};

/// Crates whose library code must be deterministic (rule group D). The
/// `obs` crate is deliberately in scope: its `clock.rs` carries the
/// workspace's single justified `D-time` waiver, and everything else in
/// it must stay clock-free.
const DETERMINISTIC_CRATES: &[&str] = &["dsp", "core", "emsim", "obs", "specan"];

/// Crates whose library code must be panic-free (rule group P); `cli` is
/// handled separately because its `main.rs` is exempt.
const PANIC_FREE_CRATES: &[&str] = &[
    "dsp", "core", "emsim", "obs", "specan", "sysmodel", "baseline", "serve", "cli",
];

/// DSP hot-path files subject to the units/float-hygiene rules (group U).
const HOT_PATHS: &[&str] = &[
    "crates/dsp/src/spectrum.rs",
    "crates/dsp/src/fft.rs",
    "crates/dsp/src/window.rs",
    "crates/dsp/src/peaks.rs",
    "crates/dsp/src/demod.rs",
    "crates/dsp/src/fir.rs",
    "crates/dsp/src/noise.rs",
];

/// The one file allowed to construct `FaseError` variants directly.
const ERRCTOR_DESIGNATED: &str = "crates/core/src/error.rs";

/// Classifies a workspace-relative path (forward slashes) into the rules
/// that apply to it. Returns `None` for files the lint does not walk.
pub fn classify(rel: &str) -> Option<RuleSet> {
    if !rel.ends_with(".rs") {
        return None;
    }
    // Self, the bench crate, and non-src trees are out of scope.
    if rel.starts_with("crates/lint/")
        || rel.starts_with("crates/bench/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/")
        || rel.starts_with("tests/")
        || rel.contains("/target/")
    {
        return None;
    }

    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next());
    let in_src = match crate_name {
        Some(name) => rel.starts_with(&format!("crates/{name}/src/")),
        None => rel.starts_with("src/"),
    };
    if !in_src {
        return None;
    }

    let mut rules = RuleSet {
        errctor: rel != ERRCTOR_DESIGNATED,
        ..RuleSet::default()
    };
    match crate_name {
        Some(name) => {
            rules.determinism = DETERMINISTIC_CRATES.contains(&name);
            rules.panic_freedom =
                PANIC_FREE_CRATES.contains(&name) && !(name == "cli" && rel.ends_with("/main.rs"));
            rules.units = HOT_PATHS.contains(&rel);
            rules.errdoc = rules.panic_freedom;
            rules.locks = PANIC_FREE_CRATES.contains(&name);
        }
        None => {
            // The root `fase` facade crate.
            rules.panic_freedom = true;
            rules.errdoc = true;
            rules.locks = true;
        }
    }
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

/// Recursively collects the workspace's lintable `.rs` files under `root`,
/// returning `(relative_path, rules)` pairs in sorted (deterministic) order.
///
/// # Errors
///
/// Returns any I/O error from directory traversal.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(String, RuleSet)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in sorted_entries(&crates_dir)? {
            let src = entry.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }

    let mut out = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        if let Some(rules) = classify(&rel) {
            out.push((rel, rules));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Directory entries sorted by path for deterministic traversal.
fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    Ok(entries)
}

/// Appends every `.rs` file under `dir` (recursively) to `out`.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_map_matches_the_design() {
        let dsp = classify("crates/dsp/src/spectrum.rs").unwrap();
        assert!(dsp.determinism && dsp.panic_freedom && dsp.units && dsp.errctor);
        let units_home = classify("crates/dsp/src/units.rs").unwrap();
        assert!(!units_home.units, "guarded-helper home is exempt from U");
        let core = classify("crates/core/src/heuristic.rs").unwrap();
        assert!(core.determinism && core.panic_freedom && !core.units);
        let sysmodel = classify("crates/sysmodel/src/machine.rs").unwrap();
        assert!(!sysmodel.determinism && sysmodel.panic_freedom);
        let error_home = classify("crates/core/src/error.rs").unwrap();
        assert!(!error_home.errctor, "error.rs is the designated ctor site");
        assert!(classify("crates/core/src/config.rs").unwrap().errctor);
        let obs_clock = classify("crates/obs/src/clock.rs").unwrap();
        assert!(
            obs_clock.determinism && obs_clock.panic_freedom && !obs_clock.units,
            "the obs clock module is in D scope; its waiver is a pragma, not an exemption"
        );
        let obs_bin = classify("crates/obs/src/bin/validate.rs").unwrap();
        assert!(obs_bin.determinism && obs_bin.panic_freedom);
        let serve = classify("crates/serve/src/server.rs").unwrap();
        assert!(
            !serve.determinism && serve.panic_freedom && serve.errdoc && serve.locks,
            "the concurrent server is panic-free and lock-disciplined, \
             but free to use the wall clock"
        );
        assert!(classify("crates/specan/src/scheduler.rs").unwrap().locks);
    }

    #[test]
    fn named_paths_exist_in_the_workspace() {
        // A renamed or deleted file would silently drop out of the rules
        // that name it; every named path must be a file the walk visits.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("crates/lint sits two levels below the workspace root");
        let walked: Vec<String> = workspace_files(root)
            .expect("walk the workspace")
            .into_iter()
            .map(|(rel, _)| rel)
            .collect();
        for rel in HOT_PATHS.iter().chain([&ERRCTOR_DESIGNATED]) {
            assert!(
                walked.iter().any(|w| w == rel),
                "{rel} is not in the workspace"
            );
        }
    }

    #[test]
    fn exemptions() {
        assert!(classify("crates/bench/src/detection.rs").is_none());
        assert!(classify("crates/lint/src/rules.rs").is_none());
        assert!(classify("crates/emsim/tests/pulse_validation.rs").is_none());
        assert!(classify("crates/specan/Cargo.toml").is_none());
        assert!(classify("tests/end_to_end.rs").is_none());
        let main = classify("crates/cli/src/main.rs").unwrap();
        assert!(!main.panic_freedom && !main.errdoc && main.errctor);
        let root = classify("src/audit.rs").unwrap();
        assert!(root.panic_freedom && !root.determinism);
    }
}

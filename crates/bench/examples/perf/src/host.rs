//! What the benchmark reads about its own process and build: CPU time
//! and peak memory from `/proc/self`, plus the run stamp.

use std::path::Path;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed
/// at 100 on x86-64 Linux).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time of the whole process (every thread), in ms.
pub fn cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("missing field {i} in /proc/self/stat"))
    };
    Ok((tick(11)? + tick(12)?) * 1_000.0 / TICKS_PER_S)
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU level the benchmark (and so the library code it calls) was
/// compiled for; the repository pins x86-64-v3 in `.cargo/config.toml`.
pub fn target_cpu() -> &'static str {
    if cfg!(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma",
        target_feature = "bmi2"
    )) {
        "x86-64-v3"
    } else if cfg!(target_arch = "x86_64") {
        "x86-64"
    } else {
        std::env::consts::ARCH
    }
}

/// The commit checked out in `root`, read from `.git` without running git
/// (a source export has no `.git`: "unknown").
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_owned();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        assert!(cpu_ms().expect("cpu time") >= 0.0);
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(nproc() >= 1);
    }
}

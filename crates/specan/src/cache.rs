//! The content-addressed capture cache.
//!
//! A wide-band sweep re-runs the same five-`f_alt` campaign in dozens of
//! bands, and in practice (paper §3: multi-hour spans on the Agilent MXA)
//! gets interrupted, re-run, and repeated across machines. Synthesis +
//! capture dominates the cost, so finished band campaigns are persisted
//! here, keyed by a stable hash of everything that determines their bits:
//! scene/machine identity, activity pair, band, alternation family, FFT
//! and retry budgets, fault plan and seed (the scheduler assembles that
//! description; see [`CacheKey::from_description`]).
//!
//! Entries carry an FNV-based integrity hash over their payload: a
//! corrupted or truncated entry fails verification and loads as `None`,
//! exactly like a miss — recompute and overwrite, never trust. Spectra
//! round-trip **bit-exactly** (every `f64` is stored as its IEEE-754 bit
//! pattern), which is what makes warm-cache and resumed sweeps
//! byte-identical to cold ones.
//!
//! The entries are the sweep's only state: an interrupted sweep resumes by
//! re-running it over the same directory, because every finished band is
//! found by its key and every missing one is captured.
//!
//! Writers need no lock. Each [`CaptureCache::store`] writes a temp file
//! under a name no other writer uses (process id plus a process-wide
//! counter) and renames it into place. Two writers of one key write the
//! same bytes, the rename replaces the entry atomically, and a torn file
//! still fails the integrity hash. A writer killed mid-write leaves its
//! `*.tmp` file behind; nothing reads it, and it can be deleted.

use fase_core::{
    CampaignConfig, CampaignHealth, CampaignSpectra, DroppedAlternation, FaseError, FaultRecord,
    LabeledSpectrum,
};
use fase_dsp::{Hertz, Spectrum};
use std::fmt;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// First line of every cache entry; bump the version to invalidate the
/// whole cache when the entry format (or anything upstream of the stored
/// bits) changes incompatibly.
const ENTRY_MAGIC: &str = "FASECACHE v1";

/// Numbers this process's temp files, so concurrent writers in one
/// process never share a temp name. It publishes no other data, so
/// `Relaxed` increments suffice.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// FNV-1a 64-bit offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Salt for the second FNV pass (the two passes together give the 128-bit
/// key/integrity hash).
const FNV_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// 128-bit hex digest of `bytes`: two independent FNV-1a chains, one from
/// the plain basis and one from the salted basis, run in one pass.
fn digest_hex(bytes: &[u8]) -> String {
    let (mut a, mut b) = (FNV_BASIS, FNV_BASIS ^ FNV_SALT);
    for &byte in bytes {
        a = (a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        b = (b ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    format!("{a:016x}{b:016x}")
}

/// A content-address: the 128-bit hex digest of a canonical capture
/// description. Equal descriptions — same scene, machine, band,
/// alternation family, budgets, fault plan, seed — produce equal keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey(String);

impl CacheKey {
    /// Derives the key for a canonical description string. The
    /// description must mention every input that can change the captured
    /// bits; execution details that cannot (thread count, recorder) must
    /// stay out of it.
    pub fn from_description(description: &str) -> CacheKey {
        CacheKey(digest_hex(description.as_bytes()))
    }

    /// The 32-hex-digit key text (also the entry's file stem).
    pub fn hex(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An on-disk store of reduced band campaigns, one file per
/// [`CacheKey`].
#[derive(Debug)]
pub struct CaptureCache {
    dir: PathBuf,
}

impl CaptureCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::Cache`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CaptureCache, FaseError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| FaseError::cache(format!("creating {}: {e}", dir.display())))?;
        Ok(CaptureCache { dir })
    }

    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.entry", key.hex()))
    }

    /// True when an entry file exists under `key`; [`CaptureCache::load`]
    /// still decides whether it is a hit.
    pub fn has_entry(&self, key: &CacheKey) -> bool {
        self.entry_path(key).is_file()
    }

    /// Probes the cache for `key`: the stored spectra, or `None`. Never
    /// fails: a missing entry and *any* defect — I/O error, wrong magic,
    /// key mismatch, integrity-hash mismatch, parse failure, campaign
    /// re-validation failure — both read as `None`, which the caller
    /// recomputes and overwrites.
    pub fn load(&self, key: &CacheKey) -> Option<CampaignSpectra> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let (header, payload) = text.split_once("---\n")?;
        let mut lines = header.lines();
        if lines.next() != Some(ENTRY_MAGIC)
            || lines.next() != Some(format!("key {}", key.hex()).as_str())
            || lines.next() != Some(format!("hash {}", digest_hex(payload.as_bytes())).as_str())
        {
            return None;
        }
        decode_spectra(payload)
    }

    /// Persists a reduced band campaign under `key`. The entry is written
    /// to a temp file of its own and renamed into place, so a concurrent
    /// or killed writer can never leave a half-entry under the final name
    /// — at worst the integrity hash catches a torn rename target.
    ///
    /// # Errors
    ///
    /// Returns [`FaseError::Cache`] when the entry cannot be written.
    pub fn store(&self, key: &CacheKey, spectra: &CampaignSpectra) -> Result<(), FaseError> {
        let payload = encode_spectra(spectra);
        let text = format!(
            "{ENTRY_MAGIC}\nkey {}\nhash {}\n---\n{payload}",
            key.hex(),
            digest_hex(payload.as_bytes())
        );
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{}.{}-{seq}.tmp", key.hex(), std::process::id()));
        let path = self.entry_path(key);
        let written = std::fs::write(&tmp, text)
            .map_err(|e| FaseError::cache(format!("writing {}: {e}", tmp.display())))
            .and_then(|()| {
                std::fs::rename(&tmp, &path)
                    .map_err(|e| FaseError::cache(format!("renaming into {}: {e}", path.display())))
            });
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }
}

/// Hex bit-pattern of an `f64` — the bit-exact wire form of every float
/// in a cache entry.
fn f64_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parses an `f64` back from its bit-pattern hex: exactly the 16 digits
/// [`f64_hex`] writes.
fn hex_f64(tok: &str) -> Option<f64> {
    let digits: &[u8; 16] = tok.as_bytes().try_into().ok()?;
    let mut bits = 0u64;
    for &c in digits {
        bits = bits << 4 | u64::from(char::from(c).to_digit(16)?);
    }
    Some(f64::from_bits(bits))
}

/// Escapes a free-text field (an error cause) into a single line.
fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Reverses [`escape`].
fn unescape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Serializes a reduced band campaign as the line-oriented entry payload.
/// Every float travels as its IEEE-754 bit pattern so decoding is
/// bit-exact.
fn encode_spectra(spectra: &CampaignSpectra) -> String {
    let c = spectra.config();
    let mut out = format!(
        "config {} {} {} {} {} {} {}\n",
        f64_hex(c.band_lo().hz()),
        f64_hex(c.band_hi().hz()),
        f64_hex(c.resolution().hz()),
        f64_hex(c.f_alt1().hz()),
        f64_hex(c.f_delta().hz()),
        c.alternation_count(),
        c.averages()
    );
    for labeled in spectra.spectra() {
        let s = &labeled.spectrum;
        let _ = writeln!(
            out,
            "spectrum {} {} {} {}",
            f64_hex(labeled.f_alt.hz()),
            f64_hex(s.start().hz()),
            f64_hex(s.resolution().hz()),
            s.len()
        );
        // Each bin goes straight into the payload: 16 hex digits plus a
        // separator.
        out.reserve(17 * s.len());
        for (i, &p) in s.powers().iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{:016x}", p.to_bits());
        }
        out.push('\n');
    }
    if let Some(h) = spectra.health() {
        let _ = writeln!(
            out,
            "health {} {} {} {} {}",
            h.planned, h.surviving, h.retried_tasks, h.total_retries, h.quarantined
        );
        for f in &h.faults {
            let _ = writeln!(
                out,
                "fault {} {} {} {} {}",
                f64_hex(f.f_alt.hz()),
                f.segment,
                f.average,
                f.attempt,
                f.tag
            );
        }
        for d in &h.dropped {
            // f_alt is written twice, as when a drop also carried it in
            // its capture error, so an entry keeps the bytes (and the
            // integrity hash) that earlier versions wrote and read back.
            let f_alt = f64_hex(d.f_alt.hz());
            let _ = writeln!(
                out,
                "drop {f_alt} {f_alt} {} {} {}",
                d.segment,
                d.attempts,
                escape(&d.cause)
            );
        }
    }
    out
}

/// Parses an entry payload back into validated campaign spectra. `None`
/// on any structural defect; [`CampaignSpectra::new`] re-runs the full
/// campaign validation, so a decoded hit satisfies every invariant a
/// freshly captured campaign does.
fn decode_spectra(payload: &str) -> Option<CampaignSpectra> {
    let mut lines = payload.lines();
    let mut config_toks = lines.next()?.split_whitespace();
    if config_toks.next()? != "config" {
        return None;
    }
    let lo = hex_f64(config_toks.next()?)?;
    let hi = hex_f64(config_toks.next()?)?;
    let res = hex_f64(config_toks.next()?)?;
    let f_alt1 = hex_f64(config_toks.next()?)?;
    let f_delta = hex_f64(config_toks.next()?)?;
    let alternations: usize = config_toks.next()?.parse().ok()?;
    let averages: usize = config_toks.next()?.parse().ok()?;
    let config = CampaignConfig::builder()
        .band(Hertz(lo), Hertz(hi))
        .resolution(Hertz(res))
        .alternation(Hertz(f_alt1), Hertz(f_delta), alternations)
        .averages(averages)
        .build()
        .ok()?;

    let mut labeled: Vec<LabeledSpectrum> = Vec::new();
    let mut health: Option<CampaignHealth> = None;
    while let Some(line) = lines.next() {
        let mut toks = line.split_whitespace();
        match toks.next()? {
            "spectrum" => {
                let f_alt = hex_f64(toks.next()?)?;
                let start = hex_f64(toks.next()?)?;
                let resolution = hex_f64(toks.next()?)?;
                let bins: usize = toks.next()?.parse().ok()?;
                // The encoder separates bins by single spaces.
                let powers: Vec<f64> = lines
                    .next()?
                    .split(' ')
                    .map(hex_f64)
                    .collect::<Option<Vec<f64>>>()?;
                if powers.len() != bins {
                    return None;
                }
                let spectrum = Spectrum::new(Hertz(start), Hertz(resolution), powers).ok()?;
                labeled.push(LabeledSpectrum {
                    f_alt: Hertz(f_alt),
                    spectrum,
                });
            }
            "health" => {
                let mut h = CampaignHealth::new(toks.next()?.parse().ok()?);
                h.surviving = toks.next()?.parse().ok()?;
                h.retried_tasks = toks.next()?.parse().ok()?;
                h.total_retries = toks.next()?.parse().ok()?;
                h.quarantined = toks.next()?.parse().ok()?;
                health = Some(h);
            }
            "fault" => {
                let f_alt = hex_f64(toks.next()?)?;
                let segment: usize = toks.next()?.parse().ok()?;
                let average: usize = toks.next()?.parse().ok()?;
                let attempt: u32 = toks.next()?.parse().ok()?;
                let tag = toks.next()?.to_owned();
                health.as_mut()?.faults.push(FaultRecord {
                    f_alt: Hertz(f_alt),
                    segment,
                    average,
                    attempt,
                    tag,
                });
            }
            "drop" => {
                let mut fields = line.splitn(6, ' ');
                let _tag = fields.next()?;
                let f_alt = fields.next()?;
                if fields.next()? != f_alt {
                    return None;
                }
                let f_alt = hex_f64(f_alt)?;
                let segment: usize = fields.next()?.parse().ok()?;
                let attempts: u32 = fields.next()?.parse().ok()?;
                let cause = unescape(fields.next().unwrap_or(""));
                health.as_mut()?.dropped.push(DroppedAlternation {
                    f_alt: Hertz(f_alt),
                    segment,
                    attempts,
                    cause,
                });
            }
            _ => return None,
        }
    }
    let spectra = CampaignSpectra::new(config, labeled).ok()?;
    Some(match health {
        Some(h) => spectra.with_health(h),
        None => spectra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fase-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_spectra(with_health: bool) -> CampaignSpectra {
        let config = CampaignConfig::builder()
            .band(Hertz(0.0), Hertz(1_000.0))
            .resolution(Hertz(10.0))
            .alternation(Hertz(200.0), Hertz(10.0), 3)
            .averages(2)
            .build()
            .unwrap();
        let labeled: Vec<LabeledSpectrum> = config
            .alternation_frequencies()
            .into_iter()
            .enumerate()
            .map(|(i, f_alt)| {
                let powers: Vec<f64> = (0..101)
                    .map(|b| 1e-13 * (1.0 + (b as f64 * 0.37 + i as f64).sin().abs()))
                    .collect();
                LabeledSpectrum {
                    f_alt,
                    spectrum: Spectrum::new(Hertz(0.0), Hertz(10.0), powers).unwrap(),
                }
            })
            .collect();
        let spectra = CampaignSpectra::new(config, labeled).unwrap();
        if with_health {
            let mut h = CampaignHealth::new(3);
            h.total_retries = 2;
            h.retried_tasks = 1;
            h.faults.push(FaultRecord {
                f_alt: Hertz(200.0),
                segment: 0,
                average: 1,
                attempt: 0,
                tag: "adc-clip".into(),
            });
            h.dropped.push(DroppedAlternation {
                f_alt: Hertz(210.0),
                segment: 0,
                attempts: 3,
                cause: "injected\ntask failure".into(),
            });
            h.surviving = 2;
            spectra.with_health(h)
        } else {
            spectra
        }
    }

    #[test]
    fn keys_are_stable_and_sensitive() {
        let a = CacheKey::from_description("band 0 seed 42");
        assert_eq!(a, CacheKey::from_description("band 0 seed 42"));
        assert_ne!(a, CacheKey::from_description("band 0 seed 43"));
        assert_eq!(a.hex().len(), 32);
        assert!(a.hex().chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(format!("{a}"), a.hex());
    }

    #[test]
    fn entry_bytes_are_pinned() {
        // Stored entries are read back by every later version: the
        // payload bytes of one entry with and one without health must not
        // move (a change here needs an ENTRY_MAGIC bump).
        let digests =
            [false, true].map(|h| digest_hex(encode_spectra(&sample_spectra(h)).as_bytes()));
        assert_eq!(
            digests,
            [
                "4fec7e9d97bc0bdf4150462624f8dd00",
                "d01997f88e766dfd501d5453639b1e8c"
            ]
        );
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        for with_health in [false, true] {
            let dir = temp_dir("roundtrip");
            let cache = CaptureCache::open(&dir).unwrap();
            let spectra = sample_spectra(with_health);
            let key = CacheKey::from_description("roundtrip");
            assert!(!cache.has_entry(&key));
            assert_eq!(cache.load(&key), None);
            cache.store(&key, &spectra).unwrap();
            assert_eq!(cache.load(&key), Some(spectra));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corrupt_entries_are_invalid_not_trusted() {
        let dir = temp_dir("corrupt");
        let cache = CaptureCache::open(&dir).unwrap();
        let spectra = sample_spectra(true);
        let key = CacheKey::from_description("corrupt");
        cache.store(&key, &spectra).unwrap();
        let path = cache.entry_path(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte (past the ~100-byte header).
        let i = bytes.len() - 20;
        bytes[i] = bytes[i].wrapping_add(1);
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.has_entry(&key));
        assert_eq!(cache.load(&key), None);
        // Truncation is also caught.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cache.has_entry(&key));
        assert_eq!(cache.load(&key), None);
        // Recompute-and-overwrite heals the entry.
        cache.store(&key, &spectra).unwrap();
        assert_eq!(cache.load(&key), Some(spectra));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_key_in_entry_is_invalid() {
        let dir = temp_dir("wrongkey");
        let cache = CaptureCache::open(&dir).unwrap();
        let spectra = sample_spectra(false);
        let key_a = CacheKey::from_description("a");
        let key_b = CacheKey::from_description("b");
        cache.store(&key_a, &spectra).unwrap();
        // Copy a's entry file under b's name: content-address mismatch.
        std::fs::copy(cache.entry_path(&key_a), cache.entry_path(&key_b)).unwrap();
        assert!(cache.has_entry(&key_b));
        assert_eq!(cache.load(&key_b), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_stores_and_loads_in_one_dir_stay_consistent() {
        // No lock guards the directory: writers storing shared and
        // distinct keys, while a reader loads in a loop, must never expose
        // a torn entry, and must leave every entry bit-exact and no temp
        // file behind.
        use std::sync::atomic::AtomicBool;
        const WRITERS: usize = 3;
        const KEYS: usize = 4;
        let dir = temp_dir("hammer");
        let cache = CaptureCache::open(&dir).unwrap();
        let spectra = sample_spectra(true);
        let keys: Vec<CacheKey> = (0..KEYS)
            .map(|i| CacheKey::from_description(&format!("hammer-shared-{i}")))
            .chain(
                (0..WRITERS * KEYS).map(|i| CacheKey::from_description(&format!("hammer-own-{i}"))),
            )
            .collect();
        let stored: Vec<AtomicBool> = keys.iter().map(|_| AtomicBool::new(false)).collect();
        let writers_done = AtomicBool::new(false);
        // Every thread starts at once, so the writes and reads overlap.
        let start = std::sync::Barrier::new(WRITERS + 1);
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                start.wait();
                let mut loads = 0usize;
                while !writers_done.load(Ordering::SeqCst) || loads == 0 {
                    for (key, was_stored) in keys.iter().zip(&stored) {
                        let stored_before = was_stored.load(Ordering::SeqCst);
                        // Entries are only ever replaced whole, so one
                        // seen before the load must load.
                        let existed = cache.has_entry(key);
                        match cache.load(key) {
                            Some(loaded) => assert_eq!(loaded, spectra),
                            None => assert!(!existed, "{key} read as invalid"),
                        }
                        assert!(existed || !stored_before, "{key} vanished");
                        loads += 1;
                    }
                }
            });
            let writers: Vec<_> = (0..WRITERS)
                .map(|t| {
                    let (cache, spectra, keys, stored) = (&cache, &spectra, &keys, &stored);
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        for _ in 0..40 {
                            for i in 0..KEYS {
                                let (shared, own) = (i, KEYS + t * KEYS + i);
                                for k in [shared, own] {
                                    cache.store(&keys[k], spectra).unwrap();
                                    stored[k].store(true, Ordering::SeqCst);
                                }
                            }
                        }
                    })
                })
                .collect();
            // Stop the reader even when a writer failed, then report.
            let written: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
            writers_done.store(true, Ordering::SeqCst);
            reader.join().unwrap();
            for result in written {
                result.unwrap();
            }
        });
        for key in &keys {
            assert_eq!(
                cache.load(key).as_ref(),
                Some(&spectra),
                "entry {key} after hammer"
            );
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn escape_roundtrips() {
        for s in ["plain", "with\nnewline", "back\\slash", "both\\\nmixed", ""] {
            assert_eq!(unescape(&escape(s)), s, "{s:?}");
        }
    }
}

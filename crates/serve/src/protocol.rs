//! The service's JSON vocabulary: parsing sweep requests and building
//! response bodies.
//!
//! Requests are parsed with the deterministic JSON reader from
//! `fase-obs` ([`fase_obs::json`]); responses are built by hand with the
//! same escaping rules the rest of the workspace uses (stable key order,
//! no floats beyond what the report itself prints).

use fase_dsp::Hertz;
use fase_emsim::SimulatedSystem;
use fase_obs::json::{parse, quote, Value};
use fase_specan::{SweepConfig, SweepOutcome};
use fase_sysmodel::ActivityPair;

/// Longest tenant name accepted; longer names are rejected at parse
/// time so queue keys and metric labels stay bounded.
pub const MAX_TENANT_LEN: usize = 64;

/// One tenant's sweep request, as decoded from `POST /v1/sweep`.
///
/// The measurement fields mirror `fase-cli sweep` exactly, so a request
/// served here and a sweep run from the command line over the same cache
/// directory are the *same* sweep: identical cache keys, identical
/// reports, byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Tenant the request bills its queue slot to (required, non-empty).
    pub tenant: String,
    /// Simulated system preset (`i7`, `i3`, `turion`, `p3m`,
    /// `i7-mitigated`).
    pub system: String,
    /// Activity pair driving the alternation micro-benchmark.
    pub pair: String,
    /// Lower edge of the sweep span, Hz.
    pub lo: f64,
    /// Upper edge of the sweep span, Hz.
    pub hi: f64,
    /// Spectrum resolution, Hz.
    pub resolution: f64,
    /// Number of bands to shard the span into.
    pub bands: usize,
    /// Seam overlap between adjacent bands, Hz.
    pub overlap: f64,
    /// First alternation frequency, Hz.
    pub f_alt1: f64,
    /// Alternation-frequency step, Hz.
    pub f_delta: f64,
    /// Alternation frequencies per band.
    pub alternations: usize,
    /// Captures power-averaged per spectrum.
    pub averages: usize,
    /// Scene seed; the campaign's other seeds derive from it through
    /// [`sweep_seeds`], as on the CLI.
    pub seed: u64,
    /// Per-class capture impairment probability, `[0, 1]`.
    pub fault_rate: f64,
    /// Impairment schedule seed; derived from `seed` when absent.
    pub fault_seed: Option<u64>,
    /// Retries per failed capture inside the runner.
    pub retries: u32,
    /// FFT length cap (present for fast tests; `None` keeps the
    /// scheduler default).
    pub max_fft: Option<usize>,
    /// Wall-clock deadline for the whole request, milliseconds.
    pub deadline_ms: Option<u64>,
    /// Capture budget for the whole request.
    pub max_captures: Option<u64>,
}

/// Reads `key` as a finite number, or `default` when absent.
fn num_or(obj: &Value, key: &str, default: f64) -> Result<f64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => match v.as_number() {
            Some(n) if n.is_finite() => Ok(n),
            _ => Err(format!("field '{key}' must be a finite number")),
        },
    }
}

/// What a scene seed stands for in a sweep: the seeds the campaign
/// derives from it and the scene's cache identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSeeds {
    /// Cache identity of the simulated scene:
    /// `<system>#<seed as 16 hex digits>`.
    pub system_id: String,
    /// The campaign's capture stream, `seed + 1`, distinct from the
    /// scene's own.
    pub capture_seed: u64,
    /// The fault schedule's seed when none is given, `seed·0x9E37 + 1`.
    pub fault_seed: u64,
}

/// The seeds and cache identity of `system` built from `seed`. The
/// server and `fase-cli` both derive them here, so a sweep served over
/// a cache directory and the same sweep run from the command line share
/// every cached band.
pub fn sweep_seeds(system: &str, seed: u64) -> SweepSeeds {
    SweepSeeds {
        system_id: format!("{system}#{seed:016x}"),
        capture_seed: seed.wrapping_add(1),
        fault_seed: seed.wrapping_mul(0x9E37).wrapping_add(1),
    }
}

/// Integers at or above 2^53 cannot be told apart from their neighbours
/// once parsed as `f64`, so integer fields must stay below it.
const MAX_EXACT_INTEGER: f64 = 9_007_199_254_740_992.0;

/// Reads `key` as a non-negative integer below 2^53, or `default` when
/// absent. Larger values are refused rather than silently rounded.
fn uint_or(obj: &Value, key: &str, default: u64) -> Result<u64, String> {
    let n = num_or(obj, key, default as f64)?;
    if n < 0.0 || n.fract() != 0.0 || n >= MAX_EXACT_INTEGER {
        return Err(format!(
            "field '{key}' must be a non-negative integer below 2^53"
        ));
    }
    Ok(n as u64)
}

/// Reads `key` as an optional non-negative integer.
fn uint_opt(obj: &Value, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(_) => uint_or(obj, key, 0).map(Some),
    }
}

/// Reads `key` as a string, or `default` when absent.
fn str_or(obj: &Value, key: &str, default: &str) -> Result<String, String> {
    match obj.get(key) {
        None => Ok(default.to_owned()),
        Some(v) => v
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| format!("field '{key}' must be a string")),
    }
}

impl SweepRequest {
    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first offending field;
    /// the server wraps it in a structured `400` body.
    pub fn from_json(text: &str) -> Result<SweepRequest, String> {
        let root = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        if root.as_object().is_none() {
            return Err("request body must be a JSON object".to_owned());
        }
        let tenant = str_or(&root, "tenant", "")?;
        if tenant.is_empty() {
            return Err("field 'tenant' is required and must be non-empty".to_owned());
        }
        if tenant.len() > MAX_TENANT_LEN {
            return Err(format!("field 'tenant' exceeds {MAX_TENANT_LEN} bytes"));
        }
        let lo = num_or(&root, "lo", f64::NAN)?;
        let hi = num_or(&root, "hi", f64::NAN)?;
        if !lo.is_finite() || !hi.is_finite() {
            return Err("fields 'lo' and 'hi' (Hz) are required".to_owned());
        }
        let resolution = num_or(&root, "res", 100.0)?;
        let request = SweepRequest {
            tenant,
            system: str_or(&root, "system", "i7")?,
            pair: str_or(&root, "pair", "ldm-ldl1")?,
            lo,
            hi,
            resolution,
            bands: uint_or(&root, "bands", 2)? as usize,
            overlap: num_or(&root, "overlap", 20.0 * resolution)?,
            f_alt1: num_or(&root, "falt", 43_300.0)?,
            f_delta: num_or(&root, "fdelta", 500.0)?,
            alternations: uint_or(&root, "alts", 5)? as usize,
            averages: uint_or(&root, "avg", 4)? as usize,
            seed: uint_or(&root, "seed", 42)?,
            fault_rate: num_or(&root, "fault_rate", 0.0)?,
            fault_seed: uint_opt(&root, "fault_seed")?,
            retries: uint_or(&root, "retries", 2)?.min(u64::from(u32::MAX) - 1) as u32,
            max_fft: uint_opt(&root, "max_fft")?.map(|n| n as usize),
            deadline_ms: uint_opt(&root, "deadline_ms")?,
            max_captures: uint_opt(&root, "max_captures")?,
        };
        request.validate()?;
        Ok(request)
    }

    /// Domain validation beyond JSON shape.
    fn validate(&self) -> Result<(), String> {
        if self.lo >= self.hi {
            return Err(format!("lo ({}) must be below hi ({})", self.lo, self.hi));
        }
        if self.resolution <= 0.0 {
            return Err("res must be positive".to_owned());
        }
        if self.bands == 0 || self.bands > 64 {
            return Err("bands must be in 1..=64".to_owned());
        }
        if !(0.0..=1.0).contains(&self.fault_rate) {
            return Err(format!(
                "fault_rate {} is not a probability in [0, 1]",
                self.fault_rate
            ));
        }
        if system_factory(&self.system).is_none() {
            return Err(format!("unknown system '{}'", self.system));
        }
        if pair_by_name(&self.pair).is_none() {
            return Err(format!("unknown pair '{}'", self.pair));
        }
        Ok(())
    }

    /// The sweep-scheduler configuration this request describes.
    pub fn sweep_config(&self) -> SweepConfig {
        SweepConfig {
            lo: Hertz(self.lo),
            hi: Hertz(self.hi),
            resolution: Hertz(self.resolution),
            bands: self.bands,
            overlap: Hertz(self.overlap),
            f_alt1: Hertz(self.f_alt1),
            f_delta: Hertz(self.f_delta),
            alternations: self.alternations,
            averages: self.averages,
        }
    }

    /// Queue cost of the request: one unit per band, so fairness is
    /// measured in bands of work, not request counts.
    pub fn cost(&self) -> u64 {
        self.bands.max(1) as u64
    }

    /// Re-serializes the request as a canonical JSON body (used by the
    /// load generator and the resume demo).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"tenant\":{},\"system\":{},\"pair\":{},\"lo\":{},\"hi\":{},\"res\":{},\
             \"bands\":{},\"overlap\":{},\"falt\":{},\"fdelta\":{},\"alts\":{},\"avg\":{},\
             \"seed\":{},\"fault_rate\":{},\"retries\":{}",
            quote(&self.tenant),
            quote(&self.system),
            quote(&self.pair),
            self.lo,
            self.hi,
            self.resolution,
            self.bands,
            self.overlap,
            self.f_alt1,
            self.f_delta,
            self.alternations,
            self.averages,
            self.seed,
            self.fault_rate,
            self.retries,
        );
        if let Some(seed) = self.fault_seed {
            out.push_str(&format!(",\"fault_seed\":{seed}"));
        }
        if let Some(n) = self.max_fft {
            out.push_str(&format!(",\"max_fft\":{n}"));
        }
        if let Some(ms) = self.deadline_ms {
            out.push_str(&format!(",\"deadline_ms\":{ms}"));
        }
        if let Some(n) = self.max_captures {
            out.push_str(&format!(",\"max_captures\":{n}"));
        }
        out.push('}');
        out
    }
}

/// Maps a system preset name to its zero-capture constructor; `fase-cli`
/// resolves its `--system` names here too.
pub fn system_factory(name: &str) -> Option<fn(u64) -> SimulatedSystem> {
    match name {
        "i7" => Some(SimulatedSystem::intel_i7_desktop),
        "i3" => Some(SimulatedSystem::intel_i3_laptop),
        "turion" => Some(SimulatedSystem::amd_turion_laptop),
        "p3m" => Some(SimulatedSystem::pentium3m_laptop),
        "i7-mitigated" => Some(|seed| SimulatedSystem::intel_i7_mitigated(seed, 0.45)),
        _ => None,
    }
}

/// Maps an activity-pair name to the pair; `fase-cli` resolves its
/// `--pair` names here too.
pub fn pair_by_name(name: &str) -> Option<ActivityPair> {
    match name {
        "ldm-ldl1" => Some(ActivityPair::LdmLdl1),
        "ldl2-ldl1" => Some(ActivityPair::Ldl2Ldl1),
        "ldl1-ldl1" => Some(ActivityPair::Ldl1Ldl1),
        "ldm-ldm" => Some(ActivityPair::LdmLdm),
        "stm-ldl1" => Some(ActivityPair::StmLdl1),
        "ldm-add" => Some(ActivityPair::LdmAdd),
        _ => None,
    }
}

/// A structured error body: `{"error": kind, "message": ...}` plus an
/// optional machine-readable retry hint.
pub fn error_body(kind: &str, message: &str, retry_after_ms: Option<u64>) -> String {
    let mut out = format!("{{\"error\":{},\"message\":{}", quote(kind), quote(message));
    if let Some(ms) = retry_after_ms {
        out.push_str(&format!(",\"retry_after_ms\":{ms}"));
    }
    out.push('}');
    out
}

/// The success body for a finished (possibly degraded) sweep: request
/// provenance, per-band accounting, and the full report JSON inline.
pub fn sweep_body(tenant: &str, outcome: &SweepOutcome) -> String {
    let bands: Vec<String> = outcome
        .bands
        .iter()
        .map(|b| {
            format!(
                "{{\"index\":{},\"lo_hz\":{},\"hi_hz\":{},\"from_cache\":{},\"skipped\":{},\"carriers\":{}}}",
                b.band.index,
                b.band.lo.hz(),
                b.band.hi.hz(),
                b.from_cache,
                b.skipped,
                b.carriers
            )
        })
        .collect();
    format!(
        "{{\"tenant\":{},\"status\":{},\"degraded\":{},\"cancelled\":{},\"complete\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"bands\":[{}],\"report\":{}}}",
        quote(tenant),
        quote(if outcome.report.is_degraded() || outcome.cancelled {
            "degraded"
        } else {
            "complete"
        }),
        outcome.report.is_degraded() || outcome.cancelled,
        outcome.cancelled,
        outcome.complete,
        outcome.cache_hits,
        outcome.cache_misses,
        bands.join(","),
        outcome.report.to_json()
    )
}

/// The success body for a request cancelled before any band finished:
/// still `200`, still structured, explicitly degraded and empty.
pub fn cancelled_body(tenant: &str, reason: &str) -> String {
    format!(
        "{{\"tenant\":{},\"status\":\"degraded\",\"degraded\":true,\"cancelled\":true,\
         \"complete\":false,\"cache_hits\":0,\"cache_misses\":0,\"bands\":[],\
         \"reason\":{},\"report\":null}}",
        quote(tenant),
        quote(reason)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{"tenant":"acme","lo":250000,"hi":400000}"#;

    #[test]
    fn minimal_request_fills_cli_defaults() {
        let req = SweepRequest::from_json(MINIMAL).unwrap();
        assert_eq!(req.tenant, "acme");
        assert_eq!(req.system, "i7");
        assert_eq!(req.pair, "ldm-ldl1");
        assert_eq!(req.bands, 2);
        assert_eq!(req.resolution, 100.0);
        assert_eq!(req.overlap, 2_000.0);
        assert_eq!(req.seed, 42);
        assert_eq!(req.retries, 2);
        assert!(req.deadline_ms.is_none());
        assert_eq!(req.cost(), 2);
        let seeds = sweep_seeds(&req.system, req.seed);
        assert_eq!(seeds.system_id, "i7#000000000000002a");
        assert_eq!(seeds.capture_seed, 43);
        assert_eq!(seeds.fault_seed, 42 * 0x9E37 + 1);
    }

    #[test]
    fn json_roundtrip_is_stable() {
        let req = SweepRequest::from_json(
            r#"{"tenant":"t 1","lo":1000,"hi":2000,"res":10,"bands":3,"deadline_ms":500,
                "max_fft":4096,"max_captures":9,"fault_rate":0.25,"fault_seed":7}"#,
        )
        .unwrap();
        let again = SweepRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(req, again);
    }

    #[test]
    fn rejects_bad_requests_with_named_fields() {
        let cases = [
            ("not json", "invalid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"lo":1,"hi":2}"#, "tenant"),
            (r#"{"tenant":"a"}"#, "'lo' and 'hi'"),
            (r#"{"tenant":"a","lo":2000,"hi":1000}"#, "must be below"),
            (r#"{"tenant":"a","lo":1,"hi":2,"res":0}"#, "res"),
            (r#"{"tenant":"a","lo":1,"hi":2,"bands":0}"#, "bands"),
            (
                r#"{"tenant":"a","lo":1,"hi":2,"fault_rate":1.5}"#,
                "fault_rate",
            ),
            (
                r#"{"tenant":"a","lo":1,"hi":2,"system":"vax"}"#,
                "unknown system",
            ),
            (
                r#"{"tenant":"a","lo":1,"hi":2,"pair":"x-y"}"#,
                "unknown pair",
            ),
            (r#"{"tenant":"a","lo":1,"hi":2,"seed":-4}"#, "seed"),
            // 2^53 + 1 parses to the f64 2^53: it would be served as
            // another seed, so it is refused.
            (
                r#"{"tenant":"a","lo":1,"hi":2,"seed":9007199254740993}"#,
                "seed",
            ),
            (
                r#"{"tenant":"a","lo":1,"hi":2,"max_captures":18446744073709551616}"#,
                "max_captures",
            ),
        ];
        for (body, needle) in cases {
            let err = SweepRequest::from_json(body).unwrap_err();
            assert!(err.contains(needle), "body {body}: {err}");
        }
    }

    #[test]
    fn error_body_is_structured() {
        let body = error_body("queue-full", "tenant \"a\" at capacity", Some(750));
        assert_eq!(
            body,
            r#"{"error":"queue-full","message":"tenant \"a\" at capacity","retry_after_ms":750}"#
        );
        let plain = error_body("bad-request", "nope", None);
        assert!(!plain.contains("retry_after_ms"));
    }

    #[test]
    fn name_vocabulary_matches_the_cli() {
        for name in ["i7", "i3", "turion", "p3m", "i7-mitigated"] {
            assert!(system_factory(name).is_some(), "{name}");
        }
        for name in [
            "ldm-ldl1",
            "ldl2-ldl1",
            "ldl1-ldl1",
            "ldm-ldm",
            "stm-ldl1",
            "ldm-add",
        ] {
            assert!(pair_by_name(name).is_some(), "{name}");
        }
        assert!(system_factory("vax").is_none());
        assert!(pair_by_name("nop-nop").is_none());
    }
}

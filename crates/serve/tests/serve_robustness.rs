//! The robustness demo: a four-tenant faulty load against a live
//! server, exercising all five headline guarantees end to end.
//!
//! * deadlines — no request outlives its deadline plus the bounded
//!   cancellation grace;
//! * admission — queue-full rejections are structural (`429`,
//!   `Retry-After`, machine-readable body), never dropped connections;
//! * drain — a mid-run drain answers every accepted request, complete
//!   or degraded, and the server then stops cleanly;
//! * restart-resume — a sweep interrupted by a capture budget finishes
//!   on a *restarted* server byte-identically to one that was never
//!   interrupted;
//! * containment — capture faults injected into one tenant's requests
//!   do not break anyone (all answered, server healthy after).

use fase_dsp::Hertz;
use fase_serve::http::client_request;
use fase_serve::{run_load, LoadSpec, QueueCaps, ServeConfig, ServePhase, Server, SweepRequest};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fase-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The scheduler test family: 250–400 kHz around the i7's 315 kHz DRAM
/// regulator, two bands, 15 captures per band.
fn resume_request(max_captures: Option<u64>) -> SweepRequest {
    SweepRequest {
        tenant: "resume-demo".to_owned(),
        system: "i7".to_owned(),
        pair: "ldm-ldl1".to_owned(),
        lo: 250_000.0,
        hi: 400_000.0,
        resolution: 200.0,
        bands: 2,
        overlap: 2_000.0,
        f_alt1: 30_000.0,
        f_delta: 2_000.0,
        alternations: 5,
        averages: 3,
        seed: 11,
        fault_rate: 0.0,
        fault_seed: None,
        retries: 2,
        max_fft: Some(1 << 12),
        deadline_ms: Some(60_000),
        max_captures,
    }
}

#[test]
fn four_tenant_faulty_load_is_answered_within_deadlines() {
    let cache = temp_dir("load");
    let server = Server::start(ServeConfig {
        workers: 3,
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let spec = LoadSpec {
        addr: server.addr().to_string(),
        tenants: 4,
        requests: 2,
        concurrency: 8,
        seed: 7,
        fault_rate: 0.05,
        deadline_ms: Some(30_000),
        ..LoadSpec::default()
    };
    let report = run_load(&spec).unwrap();
    assert_eq!(report.sent, 8);
    // Failed captures are retried inside the runner (the server never
    // re-runs a sweep); every request is answered, none errors out, none
    // hangs past deadline + grace.
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(
        report.answered() + report.rejected,
        report.sent,
        "{report:?}"
    );
    assert!(report.answered() >= 1, "{report:?}");
    assert!(
        report.max_ms < 45_000.0,
        "a request outlived deadline + grace: {report:?}"
    );

    // Per-tenant metrics surfaced through /v1/metrics.
    let metrics = client_request(&server.addr().to_string(), "GET", "/v1/metrics", "")
        .unwrap()
        .body;
    for tenant in 0..4 {
        assert!(
            metrics.contains(&format!("serve.requests.tenant-{tenant}")),
            "{metrics}"
        );
    }
    // The captures that filled the cold cache recorded their render and
    // transform stages on the server's own recorder.
    for stage in ["capture/synth", "capture/transform"] {
        assert!(metrics.contains(&format!("{stage}\":")), "{metrics}");
    }
    server.join();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn queue_full_rejections_are_structural() {
    // One worker, one queued job per tenant, two global: a burst of six
    // same-tenant requests must see 429s with Retry-After.
    let server = Server::start(ServeConfig {
        workers: 1,
        caps: QueueCaps {
            per_tenant: 1,
            global: 2,
            quantum: 2,
        },
        drain_deadline_ms: 200,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // Another tenant's sweep, far longer than the burst takes to send,
    // holds the single worker until the drain below cancels it. While it
    // runs, at most one burst request can be queued.
    let holder = {
        let mut request = LoadSpec::default().request_for(1, 0);
        request.tenant = "holder".to_owned();
        request.lo = 100_000.0;
        request.hi = 4_000_000.0;
        request.resolution = 50.0;
        request.bands = 16;
        request.averages = 64;
        request.deadline_ms = Some(60_000);
        let body = request.to_json();
        let addr = addr.clone();
        std::thread::spawn(move || client_request(&addr, "POST", "/v1/sweep", &body).unwrap())
    };
    let started = std::time::Instant::now();
    loop {
        let health = client_request(&addr, "GET", "/v1/health", "").unwrap().body;
        if health.contains("\"queued\":0,\"active\":1") {
            break;
        }
        assert!(
            started.elapsed().as_secs() < 30,
            "holder never ran: {health}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let body = LoadSpec {
        deadline_ms: Some(30_000),
        ..LoadSpec::default()
    }
    .request_for(0, 0)
    .to_json();
    let (tx, rx) = std::sync::mpsc::channel();
    for _ in 0..6 {
        let addr = addr.clone();
        let body = body.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let _ = tx.send(client_request(&addr, "POST", "/v1/sweep", &body).unwrap());
        });
    }
    drop(tx);
    // The rejections come back while the holder runs; the drain then
    // cancels it and answers the queued request degraded.
    let mut replies = Vec::new();
    while replies.len() < 5 {
        match rx.recv_timeout(std::time::Duration::from_secs(30)) {
            Ok(reply) => replies.push(reply),
            Err(_) => break,
        }
    }
    server.drain();
    replies.extend(rx.iter());
    assert_eq!(replies.len(), 6);
    // The drain, not the holder's own end, released the worker.
    let held = holder.join().unwrap();
    assert!(
        held.status == 200 && held.body.contains("\"degraded\":true"),
        "holder finished before the burst was answered: {}",
        held.body
    );
    let rejected: Vec<_> = replies.iter().filter(|r| r.status == 429).collect();
    let answered = replies.iter().filter(|r| r.status == 200).count();
    // At most 1 running + 1 queued can be in flight; with six
    // simultaneous sends at least four must be rejected — structurally.
    assert!(rejected.len() >= 4, "only {} rejected", rejected.len());
    assert!(answered >= 1, "nothing completed");
    for reply in &rejected {
        assert!(
            reply.header("retry-after").is_some(),
            "429 without Retry-After"
        );
        assert!(
            reply.body.contains("-queue-full"),
            "unstructured 429 body: {}",
            reply.body
        );
        assert!(
            reply.body.contains("\"retry_after_ms\":"),
            "no machine hint: {}",
            reply.body
        );
    }
    server.join();
}

#[test]
fn mid_run_drain_answers_every_accepted_request() {
    let cache = temp_dir("drain");
    let server = Server::start(ServeConfig {
        workers: 1,
        cache_dir: Some(cache.clone()),
        drain_deadline_ms: 1_500,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr().to_string();

    // Six requests across three tenants, all admitted before the drain.
    let mut handles = Vec::new();
    for i in 0..6 {
        let body = LoadSpec {
            seed: 31,
            deadline_ms: Some(60_000),
            ..LoadSpec::default()
        }
        .request_for(i % 3, i / 3)
        .to_json();
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            client_request(&addr, "POST", "/v1/sweep", &body).unwrap()
        }));
    }
    // Let the burst get admitted, then drain mid-run.
    std::thread::sleep(std::time::Duration::from_millis(150));
    let drained = client_request(&addr, "POST", "/v1/drain", "").unwrap();
    assert_eq!(drained.status, 202);

    for handle in handles {
        let reply = handle.join().unwrap();
        // Accepted before the drain -> answered, complete or degraded;
        // or raced the drain flip -> structurally refused. Never hung,
        // never dropped.
        match reply.status {
            200 => assert!(
                reply.body.contains("\"status\":\"complete\"")
                    || reply.body.contains("\"degraded\":true"),
                "{}",
                reply.body
            ),
            503 => assert!(reply.body.contains("draining"), "{}", reply.body),
            other => panic!("unexpected status {other}: {}", reply.body),
        }
    }
    assert_eq!(server.phase(), ServePhase::Draining);
    server.join();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn restarted_server_resumes_an_interrupted_sweep_byte_identically() {
    let cache = temp_dir("restart");

    // Server A: the request's capture budget covers band 0 only (15
    // captures); band 1 is abandoned and the reply is degraded.
    let server_a = Server::start(ServeConfig {
        workers: 1,
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr_a = server_a.addr().to_string();
    let partial = client_request(
        &addr_a,
        "POST",
        "/v1/sweep",
        &resume_request(Some(15)).to_json(),
    )
    .unwrap();
    assert_eq!(partial.status, 200, "{}", partial.body);
    assert!(
        partial.body.contains("\"degraded\":true"),
        "{}",
        partial.body
    );
    assert!(
        partial.body.contains("\"cancelled\":true"),
        "{}",
        partial.body
    );
    assert!(
        partial.body.contains("\"cache_misses\":1"),
        "{}",
        partial.body
    );
    server_a.join();

    // Server B, fresh process-equivalent over the same cache directory:
    // the re-sent request (no budget) cache-hits band 0, computes band
    // 1, and completes.
    let server_b = Server::start(ServeConfig {
        workers: 1,
        cache_dir: Some(cache.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr_b = server_b.addr().to_string();
    let resumed = client_request(
        &addr_b,
        "POST",
        "/v1/sweep",
        &resume_request(None).to_json(),
    )
    .unwrap();
    assert_eq!(resumed.status, 200, "{}", resumed.body);
    assert!(
        resumed.body.contains("\"status\":\"complete\""),
        "{}",
        resumed.body
    );
    assert!(
        resumed.body.contains("\"cache_hits\":1") && resumed.body.contains("\"cache_misses\":1"),
        "{}",
        resumed.body
    );
    server_b.join();

    // Reference: the same sweep, uncached and never interrupted, run
    // directly through the scheduler. Byte-identical report JSON.
    let request = resume_request(None);
    let config = fase_specan::SweepConfig {
        lo: Hertz(request.lo),
        hi: Hertz(request.hi),
        resolution: Hertz(request.resolution),
        bands: request.bands,
        overlap: Hertz(request.overlap),
        f_alt1: Hertz(request.f_alt1),
        f_delta: Hertz(request.f_delta),
        alternations: request.alternations,
        averages: request.averages,
    };
    let mut options = fase_specan::SweepOptions::default();
    options.campaign.threads = Some(1);
    options.campaign.max_attempts = request.retries + 1;
    options.campaign.max_fft = 1 << 12;
    let seeds = fase_serve::protocol::sweep_seeds(&request.system, request.seed);
    let reference = fase_specan::run_sweep(
        &config,
        &seeds.system_id,
        fase_sysmodel::ActivityPair::LdmLdl1,
        |_| fase_emsim::SimulatedSystem::intel_i7_desktop(request.seed),
        seeds.capture_seed,
        &options,
    )
    .unwrap();
    let wanted = format!("\"report\":{}}}", reference.report.to_json());
    assert!(
        resumed.body.ends_with(&wanted),
        "resumed report differs from the uninterrupted reference:\n{}\nvs\n{}",
        resumed.body,
        wanted
    );
    let _ = std::fs::remove_dir_all(&cache);
}

//! Open-loop load generator: requests are due on a fixed schedule,
//! whether or not earlier ones have been answered.
//!
//! Each request is timed from the moment it was *due*, not from the
//! moment it was sent. When the server stalls, both connections block,
//! later requests go out late, and that lateness lands in their
//! latencies, as a user arriving on schedule would see it. Timing from
//! the send instead would hide the stall (coordinated omission). The
//! lateness itself is kept as `lag_ms`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request's timing.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in the schedule.
    pub index: usize,
    /// From the due time to the full response, ms.
    pub latency_ms: f64,
    /// From the actual send to the full response, ms.
    pub from_send_ms: f64,
    /// How late the request was sent, ms.
    pub lag_ms: f64,
    /// Whether the sender accepted the response.
    pub ok: bool,
}

/// Sends `count` requests due every `1/rate` seconds from start, over
/// `lanes` threads, each with at most one connection in flight.
/// `send(i)` issues request `i` and reports whether its response passed.
/// Samples come back in schedule order.
pub fn run<F>(rate: f64, count: usize, lanes: usize, send: F) -> Vec<Sample>
where
    F: Fn(usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(count));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..lanes.max(1) {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let due = start + Duration::from_secs_f64(index as f64 / rate);
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let ok = send(index);
                let done = Instant::now();
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                let sample = Sample {
                    index,
                    latency_ms: ms(done - due),
                    from_send_ms: ms(done - sent),
                    lag_ms: ms(sent.saturating_duration_since(due)),
                    ok,
                };
                samples
                    .lock()
                    .expect("a lane panicked while recording")
                    .push(sample);
            });
        }
    });
    let mut samples = samples.into_inner().expect("lanes joined");
    samples.sort_by_key(|s| s.index);
    samples
}

/// Whether the generator fell further behind as the step went on: the
/// median lag of the last third exceeds that of the first third by more
/// than `slack_ms`.
pub fn lag_grows(samples: &[Sample], slack_ms: f64) -> bool {
    let third = samples.len() / 3;
    if third == 0 {
        return false;
    }
    let lags = |s: &[Sample]| -> Vec<f64> { s.iter().map(|s| s.lag_ms).collect() };
    let first = fase_dsp::stats::median(&lags(&samples[..third]));
    let last = fase_dsp::stats::median(&lags(&samples[samples.len() - third..]));
    last > first + slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use fase_serve::http::client_request;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A one-thread HTTP server that answers requests in order and stalls
    /// for `stall` before answering the first one.
    fn stalling_server(requests: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            for i in 0..requests {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") {
                    stream.read_exact(&mut byte).expect("read request");
                    head.push(byte[0]);
                }
                if i == 0 {
                    std::thread::sleep(stall);
                }
                stream
                    .write_all(
                        b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}",
                    )
                    .expect("write response");
            }
        });
        (addr, handle)
    }

    #[test]
    fn requests_queued_behind_a_stall_carry_it_in_their_latency() {
        let stall = Duration::from_millis(400);
        let (rate, count) = (50.0, 12); // one due every 20 ms
        let (addr, server) = stalling_server(count, stall);
        let samples = run(rate, count, 2, |_| {
            client_request(&addr, "GET", "/", "").is_ok_and(|r| r.status == 200)
        });
        server.join().expect("server thread");
        assert_eq!(samples.len(), count);
        assert!(samples.iter().all(|s| s.ok));
        // The server answers nothing until the stall ends, 400 ms after
        // request 0 was due. Request i was due at 20·i ms, so from its
        // due time it cannot finish sooner than 400 − 20·i ms — however
        // quickly it was answered once sent.
        for s in &samples[1..10] {
            let floor = 400.0 - 20.0 * s.index as f64;
            assert!(
                s.latency_ms >= floor - 5.0,
                "request {} latency {:.1} ms hides the stall (floor {floor} ms)",
                s.index,
                s.latency_ms
            );
        }
        // Requests due while both connections were blocked went out
        // late, and the generator says so.
        assert!(samples[5].lag_ms >= 200.0, "{:?}", samples[5]);
        assert!(samples[5].from_send_ms < samples[5].latency_ms - 200.0);
    }

    #[test]
    fn lateness_growth_compares_first_and_last_thirds() {
        let sample = |index: usize, lag_ms: f64| Sample {
            index,
            latency_ms: lag_ms,
            from_send_ms: 0.0,
            lag_ms,
            ok: true,
        };
        let steady: Vec<Sample> = (0..30).map(|i| sample(i, 1.0)).collect();
        let growing: Vec<Sample> = (0..30).map(|i| sample(i, i as f64 * 10.0)).collect();
        assert!(!lag_grows(&steady, 10.0));
        assert!(lag_grows(&growing, 10.0));
    }
}

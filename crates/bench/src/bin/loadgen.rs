//! Load generator for the qudit service.
//!
//! Hammers `POST /v1/jobs` with a mix of the clean Figure-4 job and two
//! algorithm-library jobs (3-qutrit QFT, 2-digit Draper adder) from
//! several client threads and prints throughput and latency percentiles.
//! Every reply must be a 200 whose body is byte-identical to the warm-up
//! reply for the same job: the three jobs are noise-free with basis
//! inputs, so their replies are deterministic, and a result-cache hit
//! returns the same bytes. Any other reply counts as an error, and the run
//! asserts there are none.
//!
//! Usage: `loadgen [--addr HOST:PORT] [--threads N] [--requests N]`
//! (`--requests` is per thread; without `--addr` an in-process server with
//! the default production shape is self-hosted).

use bench::serve_support::{mixed_job_jsons, Target};
use qudit_server::ServerConfig;
use std::time::{Duration, Instant};
use tiny_http::client;

fn main() {
    let mut threads = 4usize;
    let mut requests = 50usize;
    let mut addr = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match flag.as_str() {
            "--threads" => threads = value("--threads").parse().expect("--threads"),
            "--requests" => requests = value("--requests").parse().expect("--requests"),
            "--addr" => addr = Some(value("--addr").parse().expect("--addr must be HOST:PORT")),
            other => panic!("unknown flag {other}"),
        }
    }
    let target = Target::resolve(addr, ServerConfig::default());
    let addr = target.addr();

    // Warm the compile cache on every body shape so steady-state
    // throughput is measured, not the one-time circuit compilations. Each
    // warm-up reply is the body every later reply to that job must match.
    let jobs: Vec<(String, Vec<u8>)> = mixed_job_jsons()
        .into_iter()
        .map(|body| {
            let warm = client::post(
                addr,
                "/v1/jobs",
                body.as_bytes(),
                &[],
                Duration::from_secs(60),
            )
            .expect("warm-up request");
            assert_eq!(warm.status, 200, "warm-up failed");
            (body, warm.body)
        })
        .collect();

    let start = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let jobs = jobs.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(requests);
                let mut errors = 0usize;
                for i in 0..requests {
                    let (body, expected) = &jobs[i % jobs.len()];
                    let sent = Instant::now();
                    match client::post(
                        addr,
                        "/v1/jobs",
                        body.as_bytes(),
                        &[],
                        Duration::from_secs(60),
                    ) {
                        Ok(resp) if resp.status == 200 && resp.body == *expected => {
                            latencies.push(sent.elapsed())
                        }
                        Ok(_) | Err(_) => errors += 1,
                    }
                }
                (latencies, errors)
            })
        })
        .collect();

    let mut latencies: Vec<Duration> = Vec::with_capacity(threads * requests);
    let mut errors = 0usize;
    for handle in handles {
        let (thread_latencies, thread_errors) = handle.join().expect("client thread");
        latencies.extend(thread_latencies);
        errors += thread_errors;
    }
    let wall = start.elapsed();
    target.finish();

    latencies.sort();
    let total = threads * requests;
    let rps = latencies.len() as f64 / wall.as_secs_f64();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let percentile = |p: f64| -> f64 {
        if latencies.is_empty() {
            return f64::NAN;
        }
        let idx = ((latencies.len() as f64 * p).ceil() as usize).saturating_sub(1);
        ms(latencies[idx.min(latencies.len() - 1)])
    };

    println!(
        "loadgen: {total} requests ({threads} threads), {errors} errors, {rps:.1} req/s, \
         latency p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        percentile(0.50),
        percentile(0.99),
        latencies.last().map_or(f64::NAN, |&d| ms(d)),
    );

    assert_eq!(errors, 0, "load run saw {errors} failed request(s)");
}

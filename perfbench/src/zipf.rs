//! `serve-zipf`: a closed-loop client posting a Zipf(1.1) stream of noisy
//! jobs to an in-process `qudit_server::Server` with the default config.
//!
//! The catalog holds 2048 specs (the Figure-4 Toffoli, the 3-qutrit QFT and
//! the 2-digit Draper adder, crossed with the 7 paper models and a range of
//! seeds; `AllOnes` input, adaptive `TargetSigma` precision, one spec in
//! four on the density backend) — 4× the executor's 512-entry result cache,
//! so the same layers are used two ways: most requests are hits that cost
//! only HTTP, decode, cache key, probe and encode, while about a thousand
//! misses per run write and evict entries and run adaptive trials or the
//! exact backend. One client, one connection at a time: no ROADMAP item
//! targets queueing. Timing starts once the result cache is full.

use crate::measure::{derive, digest, mean, median, ms, overhead_pct, peak_rss_mb, tail, Tracer};
use crate::metrics::Report;
use crate::Mode;
use qudit_api::{
    BackendKind, ExecutionResult, Executor, InputState, JobSpec, PassLevel, Precision,
};
use qudit_circuit::passes::compile_with_topology;
use qudit_circuit::Circuit;
use qudit_noise::{models, SharedNoiseArtifacts, TrajectorySimulator};
use qudit_server::{Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CATALOG: usize = 2048;
const ZIPF_S: f64 = 1.1;
const MAX_TRIALS: usize = 512;
const PRECISION: Precision = Precision::TargetSigma {
    sigma: 0.02,
    min_trials: 8,
    max_trials: MAX_TRIALS,
};
/// The executor's default result-cache capacity: the stream is timed from
/// the request after this many distinct specs have been stored.
const CACHE_ENTRIES: usize = 512;
/// Set-ups per untraced run, each in its own process; `setup_s` is their
/// median.
pub const SETUPS: usize = 3;

// Seed streams (see `measure::derive`).
const SPECS: u64 = 1;
const REQUESTS: u64 = 3;

/// The catalog: specs, their wire bodies, and which circuit shape each uses.
struct Catalog {
    specs: Vec<JobSpec>,
    bodies: Vec<String>,
    shapes: Vec<usize>,
    circuits: Vec<Circuit>,
    build_ms: f64,
}

impl Catalog {
    fn build(seed: u64) -> Catalog {
        let start = Instant::now();
        let circuits = vec![
            qutrit_toffoli::gen_toffoli::n_controlled_x(2).expect("Figure-4 Toffoli"),
            qudit_algos::qft(3, 3).expect("3-qutrit QFT"),
            qudit_algos::qft_adder(3, 2).expect("2-digit Draper adder"),
        ];
        let build_ms = ms(start.elapsed());
        let noise_models = models::all_models();
        let mut catalog = Catalog {
            specs: Vec::with_capacity(CATALOG),
            bodies: Vec::with_capacity(CATALOG),
            shapes: Vec::with_capacity(CATALOG),
            circuits,
            build_ms,
        };
        for i in 0..CATALOG {
            let shape = i % catalog.circuits.len();
            let backend = if i % 4 == 3 {
                BackendKind::DensityMatrix
            } else {
                BackendKind::Trajectory
            };
            let spec = JobSpec::builder(catalog.circuits[shape].clone())
                .noise(noise_models[i % noise_models.len()].clone())
                .backend(backend)
                .trials(MAX_TRIALS)
                .seed(derive(seed, SPECS, i as u64))
                .input(InputState::AllOnes)
                .precision(PRECISION)
                .build()
                .expect("catalog spec is valid");
            catalog.bodies.push(spec.to_json());
            catalog.specs.push(spec);
            catalog.shapes.push(shape);
        }
        catalog
    }
}

/// The request stream: Zipf(1.1) over the catalog, rank `r` being spec
/// `r`. The catalog cycles shape, model and backend with the index, so the
/// hot specs mix all three shapes, all seven models and both backends the
/// same way for every seed; the seed changes the job seeds and the draws.
struct Stream {
    cdf: Vec<f64>,
    rng: StdRng,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        let mut total = 0.0;
        let cdf = (1..=CATALOG)
            .map(|rank| {
                total += 1.0 / (rank as f64).powf(ZIPF_S);
                total
            })
            .collect();
        Stream {
            cdf,
            rng: StdRng::seed_from_u64(derive(seed, REQUESTS, 0)),
        }
    }

    fn next(&mut self) -> usize {
        let point = self.rng.next_f64() * self.cdf[CATALOG - 1];
        self.cdf.partition_point(|&c| c <= point).min(CATALOG - 1)
    }
}

fn post(addr: SocketAddr, body: &str) -> Result<(u16, Vec<u8>), String> {
    tiny_http::client::post(
        addr,
        "/v1/jobs",
        body.as_bytes(),
        &[],
        Duration::from_secs(60),
    )
    .map(|resp| (resp.status, resp.body))
    .map_err(|e| format!("transport: {e}"))
}

/// Every reply seen so far: the first reply per spec (later replies must be
/// byte-identical to it), and one digest per request in stream order.
struct Replies {
    first: Vec<Option<Vec<u8>>>,
    digests: Vec<u64>,
    non_200: usize,
}

impl Replies {
    fn new() -> Replies {
        Replies {
            first: vec![None; CATALOG],
            digests: Vec::new(),
            non_200: 0,
        }
    }

    /// Records one reply, returning a failure description if it is not a
    /// 200 or differs from the spec's first reply.
    fn record(&mut self, spec: usize, reply: Result<(u16, Vec<u8>), String>) -> Option<String> {
        let (status, body) = match reply {
            Ok(reply) => reply,
            Err(e) => {
                self.digests.push(0);
                return Some(format!("spec {spec}: {e}"));
            }
        };
        self.digests
            .push(digest(body.iter().map(|&b| u64::from(b))));
        if status != 200 {
            self.non_200 += 1;
            return Some(format!(
                "spec {spec}: status {status}: {}",
                String::from_utf8_lossy(&body)
            ));
        }
        match &self.first[spec] {
            Some(first) if *first != body => {
                Some(format!("spec {spec}: reply differs from its first reply"))
            }
            Some(_) => None,
            None => {
                self.first[spec] = Some(body);
                None
            }
        }
    }
}

/// One complete set-up: catalog, server, and the stream up to the point
/// where the result cache is full. Returns the stream, the server and the
/// catalog, with every fill request appended to `sequence`.
fn setup(
    seed: u64,
    report: &mut Report,
    replies: &mut Replies,
    sequence: &mut Vec<usize>,
) -> (Catalog, Server, Stream) {
    let catalog = Catalog::build(seed);
    let server = Server::start(ServerConfig::default()).expect("in-process server starts");
    let mut stream = Stream::new(seed);
    let mut seen = vec![false; CATALOG];
    let mut distinct = 0;
    while distinct < CACHE_ENTRIES {
        let spec = stream.next();
        if !seen[spec] {
            seen[spec] = true;
            distinct += 1;
        }
        sequence.push(spec);
        let failure = replies.record(spec, post(server.addr(), &catalog.bodies[spec]));
        report.check(failure.is_none(), || failure.unwrap_or_default());
    }
    (catalog, server, stream)
}

/// The result-cache counters `/healthz` reports, as (hits, misses, entries).
fn health(addr: SocketAddr) -> Option<(u64, u64, u64)> {
    let resp = tiny_http::client::get(addr, "/healthz", Duration::from_secs(10)).ok()?;
    let body = serde::json::parse(&String::from_utf8_lossy(&resp.body)).ok()?;
    let cache = body.get("result_cache")?;
    let field = |name: &str| cache.get(name)?.as_u64().ok();
    Some((field("hits")?, field("misses")?, field("entries")?))
}

/// Runs the workload; the traced run also returns its spans.
pub fn run(
    seed: u64,
    seconds: f64,
    mode: Mode,
    process_start: Instant,
) -> (Report, Option<Tracer>) {
    let mut report = Report::default();
    let mut replies = Replies::new();
    let mut sequence = Vec::new();
    let (catalog, server, mut stream) = setup(seed, &mut report, &mut replies, &mut sequence);
    report.setups_s.push(process_start.elapsed().as_secs_f64());
    if mode == Mode::SetupOnly {
        server.shutdown();
        return (report, None);
    }
    let fill = sequence.len();
    let entries = health(server.addr()).map(|h| h.2);
    report.check(entries == Some(CACHE_ENTRIES as u64), || {
        format!("result cache holds {entries:?} entries after the fill, want {CACHE_ENTRIES}")
    });

    let tracer = if mode == Mode::Traced {
        let traced = traced(
            seconds,
            &catalog,
            &server,
            (&mut stream, &mut sequence, fill),
            &mut replies,
            &mut report,
        );
        Some(traced)
    } else {
        while report.timed_s < seconds {
            let spec = stream.next();
            sequence.push(spec);
            let start = Instant::now();
            let reply = post(server.addr(), &catalog.bodies[spec]);
            let latency = ms(start.elapsed());
            let failure = replies.record(spec, reply);
            report.timed(latency, 0, failure);
        }
        None
    };
    server.shutdown();

    // Every distinct reply parses and stayed within the trial budget.
    for (spec, body) in replies.first.iter().enumerate() {
        if let Some(body) = body {
            let parsed = ExecutionResult::from_json(&String::from_utf8_lossy(body));
            let trials = parsed.as_ref().ok().and_then(ExecutionResult::trials_run);
            report.check(matches!(trials, Some(t) if t <= MAX_TRIALS), || {
                format!(
                    "spec {spec}: reply {:?} ran {trials:?} trials",
                    parsed.err()
                )
            });
        }
    }
    report.peak_rss_mb = peak_rss_mb();
    (report, tracer)
}

/// The traced run. Its timed phase sends the stream to the untraced
/// server and to a second server beside it, one request each in
/// alternating order, with a span around each request to the second; both
/// together run until `seconds`, and the second server's replies (its fill
/// included) must match the untraced server's byte for byte. Then the
/// stream is replayed in process through the façade's public calls,
/// checked the same way, and the compile, noise-artifact and ideal-replay
/// probes run.
fn traced(
    seconds: f64,
    catalog: &Catalog,
    untraced_server: &Server,
    (stream, sequence, fill): (&mut Stream, &mut Vec<usize>, usize),
    untraced: &mut Replies,
    report: &mut Report,
) -> Tracer {
    let mut tracer = Tracer::new();
    let threads = rayon::current_num_threads() as f64;

    let server = Server::start(ServerConfig::default()).expect("in-process server starts");
    let mut replies = Replies::new();
    let mut mismatched = 0usize;
    let (mut untraced_ms, mut traced_ms, mut http_ms) = (Vec::new(), Vec::new(), Vec::new());
    tracer.begin_op(0, "setup");
    for &spec in &sequence[..fill] {
        let (reply, _) = tracer.span("setup", |t| {
            t.span("server.request", |_| {
                post(server.addr(), &catalog.bodies[spec])
            })
            .0
        });
        replies.record(spec, reply);
    }
    while report.timed_s + traced_ms.iter().sum::<f64>() / 1e3 < seconds {
        let i = sequence.len();
        let spec = stream.next();
        sequence.push(spec);
        let body = &catalog.bodies[spec];
        let plain = || {
            let start = Instant::now();
            let reply = post(untraced_server.addr(), body);
            (reply, ms(start.elapsed()))
        };
        let mut spanned = || {
            tracer.begin_op(i as u64, format!("spec{spec}"));
            let start = Instant::now();
            let ((reply, request), _) = tracer.span("op", |t| {
                t.span("server.request", |_| post(server.addr(), body))
            });
            (reply, ms(request), ms(start.elapsed()))
        };
        let ((reply, latency), (traced_reply, request_ms, traced_latency)) = if i % 2 == 0 {
            let plain = plain();
            (plain, spanned())
        } else {
            let spanned = spanned();
            (plain(), spanned)
        };
        let failure = untraced.record(spec, reply);
        report.timed(latency, 0, failure);
        untraced_ms.push(latency);
        traced_ms.push(traced_latency);
        http_ms.push(request_ms);
        replies.record(spec, traced_reply);
    }
    for (i, (got, want)) in replies.digests.iter().zip(&untraced.digests).enumerate() {
        if got != want {
            mismatched += 1;
            if mismatched == 1 {
                report
                    .ledger
                    .push(format!("first differing HTTP reply: request {i}"));
            }
        }
    }
    let server_counters = health(server.addr());
    server.shutdown();
    report.check(mismatched == 0 && replies.non_200 == 0, || {
        format!(
            "{mismatched} traced HTTP replies differ from the untraced server's, {} not 200",
            replies.non_200
        )
    });
    let sequence = &sequence[..];
    let untraced = &*untraced;

    // The stream replayed in process: decode → key → probe → run on a miss
    // → encode, on a fresh executor with the server's default cache.
    let executor = Executor::new();
    let mut hit = vec![false; sequence.len()];
    let (mut decode_us, mut key_us, mut encode_us, mut hit_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut hit_library_ms, mut miss_ms, mut exact_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut trials, mut ideal_work, mut trial_work) = (Vec::new(), 0.0, 0.0);
    let (mut request_bytes, mut response_bytes) = (Vec::new(), Vec::new());
    tracer.begin_op(sequence.len() as u64, "probe.ideal");
    let ideal_ms = ideal_probe(catalog, &mut tracer);
    let mut simulated_at_fill = 0;
    let mut replay_errors: Vec<String> = Vec::new();
    for (i, &spec) in sequence.iter().enumerate() {
        let timed = i >= fill;
        if i == fill {
            simulated_at_fill = executor.jobs_simulated();
        }
        tracer.begin_op(
            (sequence.len() + 1 + i) as u64,
            format!("replay.spec{spec}"),
        );
        let body = &catalog.bodies[spec];
        let density = catalog.specs[spec].backend() == BackendKind::DensityMatrix;
        let (encoded, _) = tracer.span("op", |t| {
            let (decoded, decode) = t.span("api.spec.decode", |_| JobSpec::from_json(body));
            let decoded = decoded.map_err(|e| format!("spec {spec}: decode: {e}"))?;
            let (_, key) = t.span("api.spec.key", |_| decoded.to_json());
            let (probed, probe) =
                t.span("api.executor.probe", |_| executor.cached_result(&decoded));
            hit[i] = probed.is_some();
            let result = match probed {
                Some(result) => result,
                None => {
                    let name = if density {
                        "noise.exact.run"
                    } else {
                        "api.executor.run"
                    };
                    let (result, run) = t.span(name, |_| executor.run(&decoded));
                    let result = result.map_err(|e| format!("spec {spec}: run: {e}"))?;
                    if timed {
                        miss_ms.push(ms(run));
                        if density {
                            exact_ms.push(ms(run));
                        } else if let Some(n) = result.trials_run() {
                            trials.push(n as f64);
                            ideal_work += ideal_ms[catalog.shapes[spec]] * n as f64;
                            trial_work += ms(run) * threads;
                        }
                    }
                    result
                }
            };
            let (encoded, encode) = t.span("api.spec.encode", |_| result.to_json());
            if timed {
                decode_us.push(ms(decode) * 1e3);
                key_us.push(ms(key) * 1e3);
                encode_us.push(ms(encode) * 1e3);
                request_bytes.push(body.len() as f64);
                response_bytes.push(encoded.len() as f64);
                if hit[i] {
                    hit_us.push(ms(probe) * 1e3);
                    hit_library_ms.push(ms(decode + probe + encode));
                }
            }
            Ok::<String, String>(encoded)
        });
        match encoded {
            Ok(encoded) if digest(encoded.bytes().map(u64::from)) == untraced.digests[i] => {}
            Ok(_) => replay_errors.push(format!("request {i} (spec {spec}) differs")),
            Err(e) => replay_errors.push(e),
        }
    }
    report.check(replay_errors.is_empty(), || {
        format!(
            "{} in-process replies differ from the HTTP replies or failed, first: {}",
            replay_errors.len(),
            replay_errors[0]
        )
    });
    let stats = executor.result_cache_stats();
    report.check(
        server_counters == Some((stats.hits as u64, stats.misses as u64, stats.entries as u64)),
        || format!("server cache counters {server_counters:?} differ from the replay's {stats:?}"),
    );
    report.ledger.push(format!(
        "traced replies byte-identical to untraced: HTTP {}/{}, in-process {}/{}",
        sequence.len() - mismatched,
        sequence.len(),
        sequence.len() - replay_errors.len(),
        sequence.len()
    ));

    // Probe: the pass pipeline, noise program and site sets per shape and
    // model, as the executor builds them on a first miss.
    tracer.begin_op(2 * sequence.len() as u64 + 1, "probe.compile");
    let (mut compile_ms, mut program_us, mut sites_ms) = (0.0, 0.0, 0.0);
    let (mut ops_post, mut frames, mut idle_sites) = (0usize, 0usize, 0usize);
    let planner = qudit_sim::Simulator::default();
    for circuit in &catalog.circuits {
        let (ir, took) = tracer.span("circuit.passes.compile", |_| {
            compile_with_topology(circuit, PassLevel::Physical, None)
        });
        compile_ms += ms(took);
        ops_post += ir.report().post.total_ops();
        let n_frames = ir.frames().map_or(0, |f| f.frames().len());
        frames += n_frames;
        idle_sites += n_frames * circuit.width();
        let (artifacts, took) = tracer.span("noise.artifacts.program", |_| {
            SharedNoiseArtifacts::from_ir(&ir).expect("catalog circuits lower")
        });
        program_us += ms(took) * 1e3;
        for model in models::all_models() {
            let (_, took) = tracer.span("noise.artifacts.sites", |_| {
                TrajectorySimulator::from_artifacts_with(&artifacts, &model, &planner).map(|_| ())
            });
            sites_ms += ms(took);
        }
    }

    let timed_hits: Vec<f64> = (fill..sequence.len())
        .filter(|&i| hit[i])
        .map(|i| http_ms[i - fill])
        .collect();
    let untraced_hits: Vec<f64> = (fill..sequence.len())
        .filter(|&i| hit[i])
        .map(|i| untraced_ms[i - fill])
        .collect();
    let noise_stats = executor.noise_artifact_stats();
    let timed_requests = (sequence.len() - fill) as f64;
    let (miss_tail, _) = tail(&miss_ms);
    let layers = &mut report.layers;
    for (name, value) in [
        (
            "server.transport_ms",
            median(&timed_hits) - median(&hit_library_ms),
        ),
        (
            "server.non_200",
            (untraced.non_200 + replies.non_200) as f64,
        ),
        ("api.spec.decode_us", median(&decode_us)),
        ("api.spec.key_us", median(&key_us)),
        ("api.spec.encode_us", median(&encode_us)),
        ("api.spec.request_bytes", mean(&request_bytes)),
        ("api.spec.response_bytes", mean(&response_bytes)),
        ("api.executor.hit_us", median(&hit_us)),
        ("api.executor.miss_ms", median(&miss_ms)),
        ("api.executor.miss_ms.tail", miss_tail),
        (
            "api.executor.hit_rate",
            hit_us.len() as f64 / timed_requests,
        ),
        (
            "api.executor.evictions",
            stats.misses.saturating_sub(stats.entries) as f64,
        ),
        (
            "api.executor.jobs_simulated",
            (executor.jobs_simulated() - simulated_at_fill) as f64,
        ),
        ("circuit.passes.compile_ms", compile_ms),
        ("circuit.passes.ops_post", ops_post as f64),
        ("circuit.passes.frames", frames as f64),
        ("noise.artifacts.program_us", program_us),
        ("noise.artifacts.sites_ms", sites_ms),
        (
            "noise.artifacts.sites_built",
            noise_stats.sites_built as f64,
        ),
        (
            "noise.artifacts.sites_shared",
            noise_stats.sites_shared as f64,
        ),
        ("noise.trajectory.trials", mean(&trials)),
        ("noise.trajectory.idle_sites", idle_sites as f64),
        ("noise.trajectory.gate_sites", ops_post as f64),
        (
            "noise.trajectory.ideal_share",
            if trial_work > 0.0 {
                ideal_work / trial_work
            } else {
                0.0
            },
        ),
        ("noise.exact.run_ms", median(&exact_ms)),
        ("circuits.build_ms", catalog.build_ms),
        ("trace.overhead_pct", overhead_pct(&untraced_ms, &traced_ms)),
    ] {
        layers.insert(name.to_string(), value);
    }
    report.ledger.push(format!(
        "timed hits: p50 {:.4} ms over HTTP (untraced server {:.4} ms), {:.4} ms in process",
        median(&timed_hits),
        median(&untraced_hits),
        median(&hit_library_ms)
    ));
    report.ledger.push(format!(
        "timed stream: {} requests, {} hits, {} misses ({} on the density backend)",
        sequence.len() - fill,
        hit_us.len(),
        miss_ms.len(),
        exact_ms.len()
    ));
    tracer
}

/// The noise-free replay time (ms) of each shape's Physical circuit on its
/// `AllOnes` input — what every trajectory trial recomputes.
fn ideal_probe(catalog: &Catalog, tracer: &mut Tracer) -> Vec<f64> {
    let executor = Executor::new();
    catalog
        .circuits
        .iter()
        .map(|circuit| {
            let job = executor.compile_statevector(circuit, PassLevel::Physical);
            let input =
                qudit_core::StateVector::from_basis_state(circuit.dim(), &vec![1; circuit.width()])
                    .expect("all-ones input");
            let runs: Vec<f64> = (0..25)
                .map(|_| {
                    ms(tracer
                        .span("sim.kernel.ideal_replay", |_| job.run(input.clone()))
                        .1)
                })
                .collect();
            median(&runs)
        })
        .collect()
}

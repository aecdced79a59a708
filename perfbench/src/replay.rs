//! `replay-wide`: noise-free replay of wide circuits through
//! `Executor::run`, with the result cache off.
//!
//! One op is the 12-qutrit QFT (84 ops, an 8.5 MB state) followed by the
//! 14-qutrit Generalized Toffoli at the paper's Figure 11 width (13
//! controls, a 76.5 MB state), each from a fresh seeded basis input. The
//! SIMD kernels, cache-blocked segments and intra-state parallel dispatch
//! do all the work, on states far larger than L2; no noise, wire or cache
//! code runs. The result cache is off because it would otherwise keep every
//! op's full output state.

use crate::measure::{derive, digest, median, ms, overhead_pct, peak_rss_mb, Tracer};
use crate::metrics::{set_per_item, Report, REPLAY_CIRCUITS};
use crate::Mode;
use qudit_api::{ExecutionResult, Executor, InputState, JobSpec, PassLevel};
use qudit_circuit::classical::simulate_classical;
use qudit_circuit::passes::compile_with_topology;
use qudit_circuit::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const QFT_WIDTH: usize = 12;
const TOFFOLI_CONTROLS: usize = 13;
/// Set-ups per untraced run, each in its own process; `setup_s` is their
/// median.
pub const SETUPS: usize = 7;

// Seed streams (see `measure::derive`).
const WARMUP: u64 = 1;
const TIMED: u64 = 2;

/// The two circuits, in op order (labels in `REPLAY_CIRCUITS`).
struct Circuits {
    circuits: [Circuit; 2],
}

impl Circuits {
    fn build() -> Circuits {
        Circuits {
            circuits: [
                qudit_algos::qft(3, QFT_WIDTH).expect("12-qutrit QFT"),
                qutrit_toffoli::gen_toffoli::n_controlled_x(TOFFOLI_CONTROLS)
                    .expect("14-qutrit Toffoli"),
            ],
        }
    }

    /// The seeded basis inputs of op `op` in stream `stream`: any digit for
    /// the QFT, qubit digits for the Toffoli (the construction's domain).
    fn inputs(&self, seed: u64, stream: u64, op: u64) -> [Vec<usize>; 2] {
        let mut rng = StdRng::seed_from_u64(derive(seed, stream, op));
        let mut digits = |circuit: &Circuit, levels: usize| -> Vec<usize> {
            (0..circuit.width())
                .map(|_| rng.gen_range(0..levels))
                .collect()
        };
        [digits(&self.circuits[0], 3), digits(&self.circuits[1], 2)]
    }

    fn spec(&self, which: usize, digits: &[usize]) -> JobSpec {
        JobSpec::builder(self.circuits[which].clone())
            .input(InputState::Basis(digits.to_vec()))
            .build()
            .expect("replay spec is valid")
    }

    /// Checks one replay's output: every QFT output probability is
    /// `3^-12`, and the Toffoli maps the input to its classical image with
    /// probability 1.
    fn check(&self, which: usize, digits: &[usize], result: &ExecutionResult) -> Option<String> {
        let label = REPLAY_CIRCUITS[which];
        let state = match result.states() {
            Ok([state]) => state,
            _ => return Some(format!("{label}: expected one output state")),
        };
        if which == 0 {
            let uniform = 3f64.powi(-(QFT_WIDTH as i32));
            let worst = state
                .probabilities()
                .iter()
                .map(|p| (p - uniform).abs())
                .fold(0.0, f64::max);
            (worst > 1e-9).then(|| format!("{label}: a probability is {worst} away from 3^-12"))
        } else {
            let image = simulate_classical(&self.circuits[1], digits);
            let p = image
                .as_ref()
                .ok()
                .and_then(|image| state.probability(image).ok());
            match p {
                Some(p) if (p - 1.0).abs() <= 1e-9 => None,
                _ => Some(format!(
                    "{label}: input {digits:?} reaches {image:?} with probability {p:?}"
                )),
            }
        }
    }
}

/// A digest of a replay's output amplitudes, bit for bit.
fn state_digest(result: &ExecutionResult) -> u64 {
    let states = result.states().unwrap_or_default();
    digest(
        states
            .iter()
            .filter_map(|state| state.pure())
            .flat_map(|psi| psi.amplitudes())
            .flat_map(|amp| [amp.re.to_bits(), amp.im.to_bits()]),
    )
}

/// One complete set-up: circuits, an executor without a result cache, and
/// one replay of each circuit (which compiles it).
fn setup(seed: u64, report: &mut Report) -> (Circuits, Executor) {
    let circuits = Circuits::build();
    let executor = Executor::with_result_cache(0);
    let inputs = circuits.inputs(seed, WARMUP, 0);
    for (which, digits) in inputs.iter().enumerate() {
        let failure = match executor.run(&circuits.spec(which, digits)) {
            Ok(result) => circuits.check(which, digits, &result),
            Err(e) => Some(format!("warm-up {}: {e}", REPLAY_CIRCUITS[which])),
        };
        report.check(failure.is_none(), || failure.unwrap_or_default());
    }
    (circuits, executor)
}

/// Timed op `op`: replays both circuits through `Executor::run`, checks
/// both outputs (outside the timed region) and records the op in
/// `report`; returns the digests of the two output states.
fn timed_op(
    circuits: &Circuits,
    executor: &Executor,
    seed: u64,
    op: usize,
    report: &mut Report,
) -> [u64; 2] {
    let inputs = circuits.inputs(seed, TIMED, op as u64);
    let specs = [circuits.spec(0, &inputs[0]), circuits.spec(1, &inputs[1])];
    let start = Instant::now();
    let results = [executor.run(&specs[0]), executor.run(&specs[1])];
    let latency = ms(start.elapsed());
    let mut failure = None;
    let mut digests = [0u64; 2];
    for (which, result) in results.iter().enumerate() {
        match result {
            Ok(result) => {
                failure = failure.or_else(|| circuits.check(which, &inputs[which], result));
                digests[which] = state_digest(result);
            }
            Err(e) => {
                failure = failure.or_else(|| Some(format!("{}: {e}", REPLAY_CIRCUITS[which])))
            }
        }
    }
    drop(results);
    report.timed(latency, 0, failure);
    digests
}

/// Runs the workload; the traced run also returns its spans.
pub fn run(
    seed: u64,
    seconds: f64,
    mode: Mode,
    process_start: Instant,
) -> (Report, Option<Tracer>) {
    let mut report = Report::default();
    let (circuits, executor) = setup(seed, &mut report);
    report.setups_s.push(process_start.elapsed().as_secs_f64());
    let tracer = match mode {
        Mode::SetupOnly => return (report, None),
        Mode::Traced => Some(traced(seed, seconds, &circuits, &executor, &mut report)),
        Mode::Untraced => {
            let mut op = 0;
            while report.timed_s < seconds {
                timed_op(&circuits, &executor, seed, op, &mut report);
                op += 1;
            }
            None
        }
    };
    report.peak_rss_mb = peak_rss_mb();
    (report, tracer)
}

/// The traced run: each untraced op interleaved with the same op run with a
/// span around each replay (in alternating order), its output states
/// checked bit for bit against the untraced ones; both together run until
/// `seconds`. Then the compile and segmentation probes.
fn traced(
    seed: u64,
    seconds: f64,
    circuits: &Circuits,
    executor: &Executor,
    report: &mut Report,
) -> Tracer {
    let mut tracer = Tracer::new();
    tracer.begin_op(0, "setup");
    let (_, took) = tracer.span("circuits.build", |_| Circuits::build());
    let build_ms = ms(took);
    let (mut compile_ms, mut ops_post, mut frames) = (0.0, 0usize, 0usize);
    for circuit in &circuits.circuits {
        let (ir, took) = tracer.span("circuit.passes.compile", |_| {
            compile_with_topology(circuit, PassLevel::Ideal, None)
        });
        compile_ms += ms(took);
        ops_post += ir.report().post.total_ops();
        frames += ir.frames().map_or(0, |f| f.frames().len());
    }
    let jobs_before = executor.jobs_simulated();

    let mut replay_ms = [Vec::new(), Vec::new()];
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut mismatched = 0usize;
    let mut op = 0;
    while (untraced_ms.iter().sum::<f64>() + traced_ms.iter().sum::<f64>()) / 1e3 < seconds {
        let inputs = circuits.inputs(seed, TIMED, op as u64);
        let specs = [circuits.spec(0, &inputs[0]), circuits.spec(1, &inputs[1])];
        let spanned = |tracer: &mut Tracer| {
            tracer.begin_op(op as u64 + 1, "qft12+toffoli14");
            let start = Instant::now();
            let ((results, took_each), _) = tracer.span("op", |t| {
                let (qft, a) = t.span("sim.kernel.replay.qft12", |_| executor.run(&specs[0]));
                let (toffoli, b) =
                    t.span("sim.kernel.replay.toffoli14", |_| executor.run(&specs[1]));
                ([qft, toffoli], [a, b])
            });
            let took = ms(start.elapsed());
            let digests = results.map(|result| result.as_ref().ok().map(state_digest));
            (digests, took_each, took)
        };
        let timed_before = report.timed_s;
        let (expected, (digests, took_each, took)) = if op % 2 == 0 {
            let expected = timed_op(circuits, executor, seed, op, report);
            (expected, spanned(&mut tracer))
        } else {
            let spanned = spanned(&mut tracer);
            (timed_op(circuits, executor, seed, op, report), spanned)
        };
        untraced_ms.push((report.timed_s - timed_before) * 1e3);
        traced_ms.push(took);
        for which in 0..2 {
            replay_ms[which].push(ms(took_each[which]));
            if digests[which] != Some(expected[which]) {
                mismatched += 1;
            }
        }
        op += 1;
    }
    report.check(mismatched == 0, || {
        format!("{mismatched} traced replays differ from the untraced outputs")
    });
    report.ledger.push(format!(
        "traced outputs bit-identical to untraced: {}/{}",
        2 * op - mismatched,
        2 * op
    ));

    let (mut per_replay, mut per_gate, mut per_gb) = (Vec::new(), Vec::new(), Vec::new());
    let mut blocked_ops = 0usize;
    for (which, circuit) in circuits.circuits.iter().enumerate() {
        let job = executor.compile_statevector(circuit, PassLevel::Ideal);
        blocked_ops += job
            .replay_segments()
            .iter()
            .filter(|(_, chunk)| *chunk > 0)
            .map(|(ops, _)| ops)
            .sum::<usize>();
        let label = REPLAY_CIRCUITS[which].to_string();
        let p50 = median(&replay_ms[which]);
        let amps = (circuit.dim() as f64).powi(circuit.width() as i32);
        let ops = job.op_count() as f64;
        per_replay.push((label.clone(), p50));
        per_gate.push((label.clone(), p50 * 1e6 / ops));
        per_gb.push((label, ops * amps * 32.0 / (p50 / 1e3) / 1e9));
    }
    let layers = &mut report.layers;
    set_per_item(layers, "sim.kernel.replay_ms", &per_replay);
    set_per_item(layers, "sim.kernel.gate_apply_ns", &per_gate);
    set_per_item(layers, "sim.kernel.computed_gb_s", &per_gb);
    layers.insert("sim.kernel.blocked_ops".into(), blocked_ops as f64);
    layers.insert("circuit.passes.compile_ms".into(), compile_ms);
    layers.insert("circuit.passes.ops_post".into(), ops_post as f64);
    layers.insert("circuit.passes.frames".into(), frames as f64);
    layers.insert(
        "api.executor.jobs_simulated".into(),
        (executor.jobs_simulated() - jobs_before) as f64,
    );
    layers.insert("circuits.build_ms".into(), build_ms);
    layers.insert(
        "trace.overhead_pct".into(),
        overhead_pct(&untraced_ms, &traced_ms),
    );
    tracer
}

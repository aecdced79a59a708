//! `fig11-sweep`: the paper's Figure 11 at the `fig11` CLI defaults.
//!
//! 16 (construction, noise model) bars of the 7-control Generalized Toffoli
//! (8 qutrits, 8 qubits, or 9 qubits with the dirty ancilla), 40 trajectory
//! trials each on random qubit-subspace inputs. One op is one bar through
//! `Executor::run` with a fresh seed, so no result is reused: noisy trials
//! (T1 Kraus sampling, gate-error channels, the per-trial ideal replay) do
//! nearly all the work, while the wire format, the result cache and the
//! wide kernels do none of it.

use crate::measure::{derive, mean, median, ms, overhead_pct, peak_rss_mb, Tracer};
use crate::metrics::{bar_label, set_per_item, site_label, Report, KRAUS_SITES};
use crate::Mode;
use qudit_api::{BackendKind, Executor, FidelityEstimate, InputState, JobSpec, PassLevel};
use qudit_circuit::passes::{compile_with_topology, CompiledIr};
use qudit_circuit::Circuit;
use qudit_core::StateVector;
use qudit_noise::{
    idle_damping_channel, models, two_qudit_depolarizing, CancelToken, CompiledChannel, NoiseModel,
    NoiseResult, SharedNoiseArtifacts, TrajectoryConfig, TrajectorySimulator,
};
use qutrit_toffoli::cost::Construction;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// The `fig11` CLI defaults.
const CONTROLS: usize = 7;
const TRIALS: usize = 40;
/// Cross-validation runs at a density-feasible width.
const CROSSVAL_CONTROLS: usize = 3;
/// Set-ups per untraced run, each in its own process; `setup_s` is their
/// median.
pub const SETUPS: usize = 9;
/// Paired with/without-T1 repetitions per bar in the T1 probe.
const T1_REPS: usize = 3;

// Seed streams (see `measure::derive`).
const WARMUP: u64 = 1;
const TIMED: u64 = 2;
const CROSSVAL: u64 = 3;
const PROBE: u64 = 4;

type Bar = (Construction, NoiseModel);

fn label((construction, model): &Bar) -> String {
    bar_label(construction.name(), &model.name)
}

/// A bar's job: `trials` trajectory trials on random qubit-subspace
/// inputs, seeded `seed`.
fn spec((construction, model): &Bar, trials: usize, seed: u64) -> JobSpec {
    bench::figure11_job(
        BackendKind::Trajectory,
        *construction,
        model,
        CONTROLS,
        trials,
        seed,
    )
    .expect("Figure 11 bar spec is valid")
}

/// Timed op `op`'s job: bar `op % 16` of sweep `op / 16`, on a fresh seed.
fn timed_spec(bars: &[Bar], seed: u64, op: usize) -> JobSpec {
    spec(
        &bars[op % bars.len()],
        TRIALS,
        derive(seed, TIMED, op as u64),
    )
}

/// Rounding allowed outside [0, 1] on a mean fidelity: per-trial
/// fidelities `|<ideal|noisy>|^2` of an error-free trial land within a few
/// ulps of 1 (e.g. 1.0000000000000018), the same 1e-9 the workspace's own
/// fidelity tests allow.
const ROUNDING: f64 = 1e-9;

/// Runs timed op `op` through `Executor::run`, checks it, and records it
/// in `report`; returns its estimate.
fn timed_op(
    executor: &Executor,
    bars: &[Bar],
    seed: u64,
    op: usize,
    report: &mut Report,
) -> Option<FidelityEstimate> {
    let spec = timed_spec(bars, seed, op);
    let label = label(&bars[op % bars.len()]);
    let start = Instant::now();
    let result = executor.run(&spec);
    let latency = ms(start.elapsed());
    let estimate = result
        .as_ref()
        .ok()
        .and_then(|r| r.fidelity().ok().copied());
    let failure = match (&result, &estimate) {
        (Err(e), _) => Some(format!("{label}: {e}")),
        (Ok(_), None) => Some(format!("{label}: no fidelity estimate")),
        (Ok(_), Some(e)) if e.trials != TRIALS || !(-ROUNDING..=1.0 + ROUNDING).contains(&e.mean) => {
            Some(format!(
                "{label}: {} trials, mean {} (want {TRIALS} trials, mean in [0, 1] up to {ROUNDING} rounding)",
                e.trials, e.mean
            ))
        }
        (Ok(_), Some(_)) => None,
    };
    report.timed(latency, op % bars.len(), failure);
    estimate
}

/// One complete set-up: the circuits (inside each bar's job), a fresh
/// executor, and a 1-trial warm-up job per bar on a seed the timed phase
/// never uses.
fn setup(seed: u64, report: &mut Report) -> (Vec<Bar>, Executor) {
    let bars = bench::figure11_pairs();
    let executor = Executor::new();
    for (i, bar) in bars.iter().enumerate() {
        let result = executor.run(&spec(bar, 1, derive(seed, WARMUP, i as u64)));
        report.check(result.is_ok(), || {
            format!("warm-up {}: {:?}", label(bar), result.err())
        });
    }
    (bars, executor)
}

/// Runs the workload; the traced run also returns its spans.
pub fn run(
    seed: u64,
    seconds: f64,
    mode: Mode,
    process_start: Instant,
) -> (Report, Option<Tracer>) {
    let mut report = Report::default();
    let (bars, executor) = setup(seed, &mut report);
    report.setups_s.push(process_start.elapsed().as_secs_f64());
    let tracer = match mode {
        Mode::SetupOnly => return (report, None),
        Mode::Traced => Some(traced(seed, seconds, &bars, &executor, &mut report)),
        // Whole sweeps until `seconds` of timed work.
        Mode::Untraced => {
            let mut op = 0;
            while report.timed_s < seconds || op % bars.len() != 0 {
                timed_op(&executor, &bars, seed, op, &mut report);
                op += 1;
            }
            None
        }
    };

    // Cross-validation against the exact backend, outside the timed phase.
    for (i, (construction, model)) in bars.iter().enumerate() {
        let spec = JobSpec::builder(bench::benchmark_circuit(*construction, CROSSVAL_CONTROLS))
            .noise(model.clone())
            .trials(TRIALS)
            .seed(derive(seed, CROSSVAL, i as u64))
            .input(InputState::AllOnes)
            .build()
            .expect("cross-validation spec is valid");
        let label = label(&bars[i]);
        match executor.cross_validate(&spec, 3.0) {
            Ok(cv) => report.check(cv.within_bounds(), || {
                format!(
                    "cross-validation {label}: trajectory {} vs exact {} beyond {}",
                    cv.estimate.mean, cv.exact, cv.tolerance
                )
            }),
            Err(e) => report.check(false, || format!("cross-validation {label}: {e}")),
        }
    }
    report.peak_rss_mb = peak_rss_mb();
    (report, tracer)
}

/// The split op: the calls `Executor::run` makes for a trajectory-job miss,
/// made one by one, each in a span of `t` — the result-cache key, the site
/// sets, the trials. Returns the estimate and the key and trial durations.
fn split_op(
    t: &mut Tracer,
    spec: &JobSpec,
    artifacts: &SharedNoiseArtifacts,
    model: &NoiseModel,
    planner: &qudit_sim::Simulator,
) -> (NoiseResult<FidelityEstimate>, Duration, Duration) {
    t.span("op", |t| {
        let (_, key) = t.span("api.spec.key", |_| spec.to_json());
        let (simulator, _) = t.span("noise.artifacts.sites", |_| {
            TrajectorySimulator::from_artifacts_with(artifacts, model, planner)
        });
        let (estimate, run) = t.span("noise.trajectory.run", |_| {
            simulator.and_then(|s| {
                s.run_with_precision(&config_of(spec), spec.precision(), &CancelToken::never())
            })
        });
        (estimate, key, run)
    })
    .0
}

/// The traced run: each untraced op (`Executor::run`) interleaved with the
/// same op split into its public calls, run once with and once without
/// spans (in alternating order), both checked bit for bit against the
/// untraced estimate; then the T1, Kraus and ideal-replay probes.
fn traced(
    seed: u64,
    seconds: f64,
    bars: &[Bar],
    executor: &Executor,
    report: &mut Report,
) -> Tracer {
    let mut tracer = Tracer::new();
    let planner = qudit_sim::Simulator::default();
    let threads = rayon::current_num_threads() as f64;

    // Set-up, split: generators, pass pipeline, noise program, site sets.
    tracer.begin_op(0, "setup");
    let mut build_ms = 0.0;
    let mut circuits: Vec<(Construction, Circuit)> = Vec::new();
    for construction in Construction::benchmarked() {
        let (circuit, took) = tracer.span("circuits.build", |_| {
            bench::benchmark_circuit(construction, CONTROLS)
        });
        build_ms += ms(took);
        circuits.push((construction, circuit));
    }
    let mut compiled: Vec<(Construction, CompiledIr, SharedNoiseArtifacts)> = Vec::new();
    let (mut compile_ms, mut program_us) = (0.0, 0.0);
    for (construction, circuit) in &circuits {
        let (ir, took) = tracer.span("circuit.passes.compile", |_| {
            compile_with_topology(circuit, PassLevel::Physical, None)
        });
        compile_ms += ms(took);
        let (artifacts, took) = tracer.span("noise.artifacts.program", |_| {
            SharedNoiseArtifacts::from_ir(&ir).expect("Figure 11 circuits lower")
        });
        program_us += ms(took) * 1e3;
        compiled.push((*construction, ir, artifacts));
    }
    let artifacts_of = |construction: Construction| {
        &compiled
            .iter()
            .find(|(c, _, _)| *c == construction)
            .expect("every construction is compiled")
            .2
    };
    let mut sites_ms = 0.0;
    for (i, (construction, model)) in bars.iter().enumerate() {
        let (simulator, took) = tracer.span("noise.artifacts.sites", |_| {
            TrajectorySimulator::from_artifacts_with(artifacts_of(*construction), model, &planner)
                .expect("paper models are physical")
        });
        sites_ms += ms(took);
        let config = config_of(&spec(&bars[i], 1, derive(seed, WARMUP, i as u64)));
        let _ = tracer.span("noise.trajectory.run", |_| {
            simulator.run_with_precision(
                &config,
                &qudit_noise::Precision::FixedTrials,
                &CancelToken::never(),
            )
        });
    }

    // Timed phase: whole sweeps until the three variants together reach
    // `seconds`.
    let n_bars = bars.len();
    let mut off = Tracer::off();
    let mut run_ms: Vec<Vec<f64>> = vec![Vec::new(); n_bars];
    let (mut key_us, mut trials) = (Vec::new(), Vec::new());
    let (mut plain_ms, mut spanned_ms) = (Vec::new(), Vec::new());
    let mut mismatches: Vec<String> = Vec::new();
    let mut op = 0;
    while report.timed_s + (plain_ms.iter().sum::<f64>() + spanned_ms.iter().sum::<f64>()) / 1e3
        < seconds
        || op % n_bars != 0
    {
        let expected = timed_op(executor, bars, seed, op, report);
        let (construction, model) = &bars[op % n_bars];
        let spec = timed_spec(bars, seed, op);
        tracer.begin_op(op as u64 + 1, label(&bars[op % n_bars]));
        let split = |t: &mut Tracer| {
            let start = Instant::now();
            let out = split_op(t, &spec, artifacts_of(*construction), model, &planner);
            (out, ms(start.elapsed()))
        };
        let (plain, spanned) = if op % 2 == 0 {
            let plain = split(&mut off);
            (plain, split(&mut tracer))
        } else {
            let spanned = split(&mut tracer);
            (split(&mut off), spanned)
        };
        plain_ms.push(plain.1);
        spanned_ms.push(spanned.1);
        let ((estimate, key, run), _) = spanned;
        key_us.push(ms(key) * 1e3);
        run_ms[op % n_bars].push(ms(run));
        let plain_same =
            matches!((&plain.0 .0, &expected), (Ok(got), Some(want)) if same_bits(got, want));
        match (estimate, &expected) {
            (Ok(got), Some(want)) if same_bits(&got, want) && plain_same => {
                trials.push(got.trials as f64)
            }
            (got, want) => mismatches.push(format!(
                "traced op {op} ({}): {got:?} (without spans {:?}) differs from untraced {want:?}",
                label(&bars[op % n_bars]),
                plain.0 .0
            )),
        }
        op += 1;
    }
    report.check(mismatches.is_empty(), || {
        format!(
            "{} traced bars differ, first: {}",
            mismatches.len(),
            mismatches[0]
        )
    });
    report.ledger.push(format!(
        "traced estimates bit-identical to untraced: {}/{}",
        op - mismatches.len(),
        op
    ));

    // Probe: each T1 bar again with the model's T1 removed, paired on the
    // same seeds and inputs.
    tracer.begin_op(op as u64 + 1, "probe.t1");
    let mut t1_share = Vec::new();
    let (mut share_with, mut share_without) = (0.0, 0.0);
    for (bar, (construction, model)) in bars.iter().enumerate() {
        if model.t1.is_none() {
            continue;
        }
        let without = NoiseModel {
            t1: None,
            ..model.clone()
        };
        let artifacts = artifacts_of(*construction);
        let with_sim = TrajectorySimulator::from_artifacts_with(artifacts, model, &planner)
            .expect("paper models are physical");
        let without_sim = TrajectorySimulator::from_artifacts_with(artifacts, &without, &planner)
            .expect("paper models are physical");
        let (mut with_ms, mut without_ms) = (Vec::new(), Vec::new());
        for rep in 0..T1_REPS {
            let config = config_of(&timed_spec(bars, seed, rep * n_bars + bar));
            let fixed = qudit_noise::Precision::FixedTrials;
            let (_, took) = tracer.span("noise.trajectory.run", |_| {
                with_sim.run_with_precision(&config, &fixed, &CancelToken::never())
            });
            with_ms.push(ms(took));
            let (_, took) = tracer.span("noise.trajectory.run", |_| {
                without_sim.run_with_precision(&config, &fixed, &CancelToken::never())
            });
            without_ms.push(ms(took));
        }
        share_with += median(&with_ms);
        share_without += median(&without_ms);
        t1_share.push((
            label(&bars[bar]),
            1.0 - median(&without_ms) / median(&with_ms),
        ));
    }

    // Probe: per-call Kraus costs at each Figure 11 register.
    tracer.begin_op(op as u64 + 2, "probe.kraus");
    let sc = models::sc();
    let mut rng = StdRng::seed_from_u64(derive(seed, PROBE, 0));
    let (mut t1_apply, mut depol_apply) = (Vec::new(), Vec::new());
    for site in KRAUS_SITES {
        let (d, width) = site;
        let mut state =
            qudit_core::random_qubit_subspace_state(d, width, &mut rng).expect("valid register");
        let damping = idle_damping_channel(d, sc.moment_duration(true), sc.t1.expect("SC has T1"))
            .expect("physical damping")
            .compile(d, width, &[width / 2]);
        let depol = two_qudit_depolarizing(d, sc.p2)
            .expect("physical depolarizing")
            .compile(d, width, &[0, 1]);
        let calls = [(&damping, 40), (&depol, 2000)];
        let [t1, depol2] = calls.map(|(channel, n)| {
            let name = if n == 40 {
                "noise.kraus.t1_apply"
            } else {
                "noise.kraus.depol2_apply"
            };
            per_call_us(&mut tracer, name, n, channel, &mut state, &mut rng)
        });
        t1_apply.push((site_label(site), t1));
        depol_apply.push((site_label(site), depol2));
    }

    // Probe: the noise-free replay of each bar's Physical circuit, for the
    // ideal-replay share of the trial work.
    tracer.begin_op(op as u64 + 3, "probe.ideal");
    let mut ideal_ms = Vec::new();
    for (construction, circuit) in &circuits {
        let job = executor.compile_statevector(circuit, PassLevel::Physical);
        let runs: Vec<f64> = (0..9u64)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(derive(seed, PROBE, 1 + i));
                let input = qudit_core::random_qubit_subspace_state(
                    circuit.dim(),
                    circuit.width(),
                    &mut rng,
                )
                .expect("valid register");
                let (_, took) = tracer.span("sim.kernel.ideal_replay", |_| job.run(input));
                ms(took)
            })
            .collect();
        ideal_ms.push((*construction, median(&runs)));
    }
    let ideal_of = |bar: usize| {
        ideal_ms
            .iter()
            .find(|(c, _)| *c == bars[bar].0)
            .expect("every construction probed")
            .1
    };
    let ideal_work: f64 = (0..n_bars)
        .map(|bar| ideal_of(bar) * TRIALS as f64 * run_ms[bar].len() as f64)
        .sum();
    let trial_work: f64 = run_ms.iter().flatten().sum::<f64>() * threads;

    let layers = &mut report.layers;
    layers.insert("api.spec.key_us".into(), median(&key_us));
    layers.insert("circuit.passes.compile_ms".into(), compile_ms);
    layers.insert(
        "circuit.passes.ops_post".into(),
        compiled
            .iter()
            .map(|(_, ir, _)| ir.report().post.total_ops() as f64)
            .sum(),
    );
    let frames = |ir: &CompiledIr| ir.frames().map_or(0, |f| f.frames().len());
    layers.insert(
        "circuit.passes.frames".into(),
        compiled.iter().map(|(_, ir, _)| frames(ir) as f64).sum(),
    );
    layers.insert("noise.artifacts.program_us".into(), program_us);
    layers.insert("noise.artifacts.sites_ms".into(), sites_ms);
    let noise_stats = executor.noise_artifact_stats();
    layers.insert(
        "noise.artifacts.sites_built".into(),
        noise_stats.sites_built as f64,
    );
    layers.insert(
        "noise.artifacts.sites_shared".into(),
        noise_stats.sites_shared as f64,
    );
    let per_bar: Vec<(String, f64)> = (0..n_bars)
        .map(|bar| (label(&bars[bar]), median(&run_ms[bar])))
        .collect();
    set_per_item(layers, "noise.trajectory.run_ms", &per_bar);
    layers.insert("noise.trajectory.trials".into(), mean(&trials));
    layers.insert(
        "noise.trajectory.idle_sites".into(),
        compiled
            .iter()
            .map(|(_, ir, _)| (frames(ir) * ir.circuit().width()) as f64)
            .sum(),
    );
    layers.insert(
        "noise.trajectory.gate_sites".into(),
        compiled
            .iter()
            .map(|(_, ir, _)| ir.circuit().len() as f64)
            .sum(),
    );
    set_per_item(layers, "noise.trajectory.t1_share", &t1_share);
    layers.insert(
        "noise.trajectory.ideal_share".into(),
        ideal_work / trial_work,
    );
    set_per_item(layers, "noise.kraus.t1_apply_us", &t1_apply);
    set_per_item(layers, "noise.kraus.depol2_apply_us", &depol_apply);
    layers.insert("circuits.build_ms".into(), build_ms);
    layers.insert(
        "trace.overhead_pct".into(),
        overhead_pct(&plain_ms, &spanned_ms),
    );
    report.ledger.push(format!(
        "T1 share over the {} T1 bars (summed medians): {:.3}",
        t1_share.len(),
        1.0 - share_without / share_with
    ));
    tracer
}

/// Median per-call time (µs) of `channel.apply_trajectory` over 15 spans
/// of `calls` calls each, on an evolving state.
fn per_call_us(
    tracer: &mut Tracer,
    name: &'static str,
    calls: usize,
    channel: &CompiledChannel,
    state: &mut StateVector,
    rng: &mut StdRng,
) -> f64 {
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let (_, took) = tracer.span(name, |_| {
                for _ in 0..calls {
                    std::hint::black_box(channel.apply_trajectory(state, rng));
                }
            });
            ms(took) * 1e3 / calls as f64
        })
        .collect();
    median(&batches)
}

/// The trajectory configuration `Executor::run` derives from a spec
/// (unrouted, so the input is passed through unchanged).
fn config_of(spec: &JobSpec) -> TrajectoryConfig {
    TrajectoryConfig {
        trials: spec.trials(),
        seed: spec.seed(),
        level: spec.level(),
        input: spec.input().clone(),
    }
}

/// Bit-for-bit equality of two estimates.
fn same_bits(a: &FidelityEstimate, b: &FidelityEstimate) -> bool {
    a.mean.to_bits() == b.mean.to_bits()
        && a.std_error.to_bits() == b.std_error.to_bits()
        && a.trials == b.trials
}

//! Backend cross-validation: the trajectory Monte Carlo estimate must
//! converge to the exact density-matrix backend's ground-truth fidelity.
//!
//! Every case fixes the input (all-|1⟩) and the seed, so passing is
//! deterministic: the trajectory mean over `trials` samples must land
//! within `3σ` of the exact value, where `σ` is the binomial bound
//! `√(F(1−F)/trials)` (per-trial fidelities lie in `[0, 1]`). The `crossval`
//! bench binary runs the same harness at larger sizes in CI.

use qudit_api::{
    BackendKind, CrossValidation, Executor, InputState, JobSpec, NoiseModel, PassLevel, Precision,
    Topology,
};
use qudit_circuit::Circuit;
use qudit_noise::models;
use qutrit_toffoli::baselines::qubit_no_ancilla;
use qutrit_toffoli::gen_toffoli::n_controlled_x;

fn fig4_toffoli() -> Circuit {
    n_controlled_x(2).unwrap()
}

/// Runs a noisy job at the default (physical) accounting on both backends
/// and wraps the two results in the 3σ bound.
fn cross_validate(
    circuit: &Circuit,
    model: &NoiseModel,
    trials: usize,
    seed: u64,
    input: InputState,
) -> CrossValidation {
    let spec = JobSpec::builder(circuit.clone())
        .noise(model.clone())
        .trials(trials)
        .seed(seed)
        .input(input)
        .build()
        .unwrap();
    Executor::new().cross_validate(&spec, 3.0).unwrap()
}

#[test]
fn trajectory_converges_to_exact_for_every_noise_model_on_the_fig4_toffoli() {
    // The acceptance case: every paper noise model, 3-qutrit test circuit,
    // trajectory within 3σ of the binomial bound around the exact value.
    let circuit = fig4_toffoli();
    for model in models::all_models() {
        let cv = cross_validate(&circuit, &model, 300, 2019, InputState::AllOnes);
        assert!(
            cv.within_bounds(),
            "{}: trajectory {:.6} vs exact {:.6} exceeds bound {:.2e}",
            model.name,
            cv.estimate.mean,
            cv.exact,
            cv.tolerance
        );
        assert!(cv.exact > 0.9 && cv.exact <= 1.0, "{}", model.name);
    }
}

#[test]
fn trajectory_converges_to_exact_on_a_qubit_circuit() {
    // d = 2 coverage: the 3-controlled qubit-only baseline (4 qubits).
    let circuit = qubit_no_ancilla(3, 2).unwrap();
    let cv = cross_validate(
        &circuit,
        &models::sc_t1_gates(),
        300,
        11,
        InputState::AllOnes,
    );
    assert!(
        cv.within_bounds(),
        "trajectory {:.6} vs exact {:.6} exceeds bound {:.2e}",
        cv.estimate.mean,
        cv.exact,
        cv.tolerance
    );
}

#[test]
fn trajectory_converges_to_exact_for_each_optional_channel() {
    // Each optional channel alone on the SC baseline, both radices where
    // defined: a drift in one channel's accounting in either backend is
    // attributable to exactly one case. Over-rotation and crosstalk are
    // coherent (non-Pauli) channels, so this also pins the MixedUnitary
    // composition path.
    let cases: Vec<(&str, Circuit, NoiseModel)> = vec![
        (
            "leakage d=3",
            fig4_toffoli(),
            models::sc().with_leakage(2e-3),
        ),
        (
            "over-rotation d=3",
            fig4_toffoli(),
            models::sc().with_overrotation(0.03),
        ),
        (
            "over-rotation d=2",
            qubit_no_ancilla(3, 2).unwrap(),
            models::sc().with_overrotation(0.03),
        ),
        (
            "crosstalk d=3",
            fig4_toffoli(),
            models::sc().with_crosstalk(3e4),
        ),
        (
            "crosstalk d=2",
            qubit_no_ancilla(3, 2).unwrap(),
            models::sc().with_crosstalk(3e4),
        ),
        (
            "all three at once d=3",
            fig4_toffoli(),
            models::sc()
                .with_leakage(1e-3)
                .with_overrotation(0.02)
                .with_crosstalk(2e4),
        ),
    ];
    for (label, circuit, model) in cases {
        let cv = cross_validate(&circuit, &model, 300, 2019, InputState::AllOnes);
        assert!(
            cv.within_bounds(),
            "{label}: trajectory {:.6} vs exact {:.6} exceeds bound {:.2e}",
            cv.estimate.mean,
            cv.exact,
            cv.tolerance
        );
        // The channel must actually bite: fidelity strictly below the
        // plain-SC value would be ideal, but exact < 1 is the cheap
        // invariant that catches a silently-ignored field.
        assert!(cv.exact < 1.0 - 1e-6, "{label}: channel did not bite");
    }
}

#[test]
fn backends_agree_exactly_when_there_is_no_noise() {
    // With p1 = p2 = 0 and no T1 the trajectory draws no branches at all,
    // so the two backends must agree to numerical precision — and both must
    // report unit fidelity. Each leg runs on a fresh uncached executor.
    let noiseless = NoiseModel {
        name: "NOISELESS".to_string(),
        p1: 0.0,
        p2: 0.0,
        t1: None,
        gate_time_1q: 100e-9,
        gate_time_2q: 300e-9,
        leak_rate: None,
        overrotation: None,
        crosstalk: None,
    };
    let fidelity = |backend: BackendKind| {
        let spec = JobSpec::builder(fig4_toffoli())
            .noise(noiseless.clone())
            .backend(backend)
            .trials(5)
            .seed(1)
            .input(InputState::AllOnes)
            .build()
            .unwrap();
        *Executor::with_result_cache(0)
            .run(&spec)
            .unwrap()
            .fidelity()
            .unwrap()
    };
    let exact = fidelity(BackendKind::DensityMatrix);
    let sampled = fidelity(BackendKind::Trajectory);
    assert!((exact.mean - 1.0).abs() < 1e-10);
    assert!((sampled.mean - exact.mean).abs() < 1e-9);
}

#[test]
fn per_edge_error_rates_are_charged_by_both_backends_for_routed_swaps() {
    // A 3-qutrit circuit whose only two-qudit gates join the two ends of a
    // line — every gate needs routed SWAPs, all charged on the line's
    // edges. Poisoning the edge weights (8× the base two-qudit error) must
    // lower the exact fidelity, and the trajectory backend must agree with
    // the exact backend under the same weights.
    let mut circuit = Circuit::new(3, 3);
    for _ in 0..3 {
        circuit
            .push_gate(qudit_circuit::Gate::csum(3), &[0, 2])
            .unwrap();
    }
    let executor = Executor::new();
    let exact_on = |topology: Topology| {
        let spec = JobSpec::builder(circuit.clone())
            .noise(models::sc())
            .level(PassLevel::Physical)
            .backend(BackendKind::DensityMatrix)
            .trials(1)
            .seed(7)
            .input(InputState::AllOnes)
            .topology(topology)
            .build()
            .unwrap();
        executor.run(&spec).unwrap().fidelity().unwrap().mean
    };
    let uniform = exact_on(Topology::linear(3).unwrap());
    let poisoned_topology = Topology::linear(3)
        .unwrap()
        .with_edge_quality(vec![8.0, 8.0])
        .unwrap();
    let poisoned = exact_on(poisoned_topology.clone());
    assert!(
        poisoned < uniform - 1e-6,
        "poisoned edges must cost fidelity: {poisoned} vs {uniform}"
    );
    // Consistency: trajectory charges the same per-edge scaling.
    let spec = JobSpec::builder(circuit)
        .noise(models::sc())
        .level(PassLevel::Physical)
        .trials(300)
        .seed(2019)
        .input(InputState::AllOnes)
        .topology(poisoned_topology)
        .build()
        .unwrap();
    let cv = executor.cross_validate(&spec, 3.0).unwrap();
    assert!(
        cv.within_bounds(),
        "edge-weighted: trajectory {:.6} vs exact {:.6} exceeds bound {:.2e}",
        cv.estimate.mean,
        cv.exact,
        cv.tolerance
    );
}

#[test]
fn random_input_cross_validation_shares_input_draws() {
    // With RandomQubitSubspace inputs both backends draw the *same* seeded
    // inputs (trial i uses seed + i before any noise sampling), so the only
    // disagreement left is trajectory noise sampling — the bound still
    // holds at modest trial counts.
    let cv = cross_validate(
        &fig4_toffoli(),
        &models::sc(),
        200,
        5,
        InputState::RandomQubitSubspace,
    );
    assert!(
        cv.within_bounds(),
        "trajectory {:.6} vs exact {:.6} exceeds bound {:.2e}",
        cv.estimate.mean,
        cv.exact,
        cv.tolerance
    );
}

#[test]
fn cross_validation_runs_the_spec_precision_over_shared_draws() {
    // An adaptive spec: the trajectory leg must stop exactly where
    // `Executor::run` of the spec stops, and the exact leg must average the
    // same input draws — a fixed-count density run over that many draws.
    let spec = JobSpec::builder(fig4_toffoli())
        .noise(models::sc())
        .trials(2048)
        .input(InputState::RandomQubitSubspace)
        .precision(Precision::TargetSigma {
            sigma: 0.02,
            min_trials: 8,
            max_trials: 2048,
        })
        .build()
        .unwrap();
    let run = *Executor::with_result_cache(0)
        .run(&spec)
        .unwrap()
        .fidelity()
        .unwrap();
    assert!(run.trials < 2048, "the spec must stop early");
    let cv = Executor::with_result_cache(0)
        .cross_validate(&spec, 3.0)
        .unwrap();
    assert_eq!(cv.estimate.trials, run.trials);
    assert_eq!(cv.estimate.mean.to_bits(), run.mean.to_bits());
    assert_eq!(cv.estimate.std_error.to_bits(), run.std_error.to_bits());
    let exact_spec = JobSpec::builder(fig4_toffoli())
        .noise(models::sc())
        .backend(BackendKind::DensityMatrix)
        .trials(run.trials)
        .seed(spec.seed())
        .input(InputState::RandomQubitSubspace)
        .build()
        .unwrap();
    let exact = Executor::with_result_cache(0)
        .run(&exact_spec)
        .unwrap()
        .fidelity()
        .unwrap()
        .mean;
    assert_eq!(cv.exact.to_bits(), exact.to_bits());
    assert!(cv.within_bounds(), "{cv:?}");
}

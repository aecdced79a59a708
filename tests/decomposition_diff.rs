//! Differential harness for the physical Di & Wei lowering.
//!
//! The compiler's decompose step (the `Physical` pass levels) changes *how*
//! every ≥3-qudit operation is executed (a real 6 two-qudit + 7 single-qudit block in the IR instead of
//! synthetic per-arity error sites in the noise backends). Two properties
//! pin the cutover:
//!
//! 1. **Unitary preservation:** the lowered circuit's unitary equals the
//!    reference oracle's (the retained naive engine replaying the *raw*
//!    circuit), on basis states and random states, for the paper's
//!    constructions and for random multiply-controlled operations over
//!    `d ∈ {2, 3}`.
//! 2. **Accounting equivalence:** the exact density-matrix backend's
//!    fidelity under the lowered circuit (uniform per-gate errors, frame
//!    idle durations measured from the lowered schedule) matches the
//!    paper's virtual Di & Wei accounting to ≤ 1e-9 for **every** noise
//!    model of the paper on all three construction families. The baseline
//!    is [`virtual_diwei_fidelity`], a test-local oracle built from public
//!    channel/superoperator primitives only (the production shim that used
//!    to provide it — `GateExpansion` — is deleted): per ASAP moment, the
//!    operation unitaries, then 6 synthetic two-qudit + 7 single-qudit
//!    error charges per ≥3-qudit operation, then per-qudit idle damping for
//!    the moment's expanded duration. This is not a statistical bound — the
//!    depolarizing channels are Weyl twirls (replace channels), which
//!    commute, so the two accountings are equal as superoperators and the
//!    tests see only floating-point noise.

use proptest::prelude::*;
use qudit_api::{BackendKind, Executor, InputState, JobSpec};
use qudit_circuit::passes::{compile, PassLevel};
use qudit_circuit::{Circuit, Control, Gate, Schedule};
use qudit_core::{random_qubit_subspace_state, random_state, StateVector};
use qudit_noise::{models, NoiseModel};
use qudit_sim::{reference, CompiledCircuit, DensityMatrix};
use qutrit_toffoli::gen_toffoli::n_controlled_x;
use qutrit_toffoli::incrementer::incrementer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UNITARY_TOL: f64 = 1e-9;
const ACCOUNTING_TOL: f64 = 1e-9;

fn fig4_toffoli() -> Circuit {
    n_controlled_x(2).unwrap()
}

/// Replays the raw circuit through the naive reference oracle and the
/// lowered circuit through the compiled kernels; asserts equal output
/// amplitudes.
fn assert_lowering_preserves_unitary(circuit: &Circuit, state: StateVector) {
    let ir = compile(circuit, PassLevel::Physical);
    assert!(
        ir.circuit().iter().all(|op| op.arity() <= 2),
        "physical lowering must reach arity ≤ 2"
    );
    let fast = CompiledCircuit::compile_ir(&ir).run(state.clone());
    let mut naive = state;
    for op in circuit.iter() {
        reference::apply_operation_naive(&mut naive, op);
    }
    for (i, (a, b)) in fast.amplitudes().iter().zip(naive.amplitudes()).enumerate() {
        assert!(
            a.approx_eq(*b, UNITARY_TOL),
            "amplitude {i} differs: {a:?} vs {b:?}"
        );
    }
}

#[test]
fn lowered_fig4_toffoli_matches_oracle_on_all_binary_inputs() {
    let c = fig4_toffoli();
    for value in 0..(1usize << 3) {
        let digits: Vec<usize> = (0..3).map(|i| (value >> i) & 1).collect();
        let state = StateVector::from_basis_state(3, &digits).unwrap();
        assert_lowering_preserves_unitary(&c, state);
    }
}

#[test]
fn lowered_incrementer_8_matches_oracle() {
    // Width 8 (3^8 amplitudes): basis spot checks plus random states cover
    // the full block structure including |2⟩-controlled internal nodes.
    let c = incrementer(8).unwrap();
    let mut rng = StdRng::seed_from_u64(41);
    for value in [0usize, 1, 37, 127, 128, 200, 255] {
        let digits: Vec<usize> = (0..8).map(|i| (value >> i) & 1).collect();
        assert_lowering_preserves_unitary(&c, StateVector::from_basis_state(3, &digits).unwrap());
    }
    for _ in 0..3 {
        assert_lowering_preserves_unitary(&c, random_state(3, 8, &mut rng).unwrap());
    }
}

#[test]
fn lowered_n_controlled_x_family_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(42);
    for n_controls in [3usize, 4, 5, 6] {
        let c = n_controlled_x(n_controls).unwrap();
        // The all-ones input exercises every tree level; random states
        // exercise the full Hilbert space including |2⟩ components the
        // binary functional tests never reach.
        let all_ones = StateVector::from_basis_state(3, &vec![1; n_controls + 1]).unwrap();
        assert_lowering_preserves_unitary(&c, all_ones);
        assert_lowering_preserves_unitary(&c, random_state(3, n_controls + 1, &mut rng).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random multiply-controlled operations over d ∈ {2, 3}: the lowered
    /// unitary equals the reference oracle on random states.
    #[test]
    fn lowered_random_controlled_ops_match_oracle(seed in 0u64..1_000_000, dim in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(3..5);
        let mut circuit = Circuit::new(dim, width);
        let ops = rng.gen_range(1..4);
        for _ in 0..ops {
            // Pick 3 distinct qudits: two controls + one target.
            let mut qudits: Vec<usize> = (0..width).collect();
            for i in (1..qudits.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                qudits.swap(i, j);
            }
            let gate = match rng.gen_range(0..5) {
                0 => Gate::increment(dim),
                1 => Gate::decrement(dim),
                2 => Gate::x(dim),
                3 => Gate::h(dim),
                _ => Gate::fourier(dim),
            };
            let controls = vec![
                Control::new(qudits[0], rng.gen_range(0..dim)),
                Control::new(qudits[1], rng.gen_range(0..dim)),
            ];
            circuit
                .push_controlled(gate, &controls, &[qudits[2]])
                .unwrap();
        }
        let state = random_state(dim, width, &mut rng).unwrap();

        let ir = compile(&circuit, PassLevel::Physical);
        prop_assert!(ir.circuit().iter().all(|op| op.arity() <= 2));
        let fast = CompiledCircuit::compile_ir(&ir).run(state.clone());
        let mut naive = state;
        for op in circuit.iter() {
            reference::apply_operation_naive(&mut naive, op);
        }
        for (i, (a, b)) in fast.amplitudes().iter().zip(naive.amplitudes()).enumerate() {
            prop_assert!(
                a.approx_eq(*b, UNITARY_TOL),
                "amplitude {i}: {a:?} vs {b:?}"
            );
        }
    }
}

/// The three construction families of the differential acceptance case, at
/// widths the exact backend handles comfortably in a debug test run.
fn diff_cases() -> Vec<(&'static str, Circuit)> {
    // Widths are kept ≤ 5 so the superoperator evolutions stay fast in a
    // debug test run; the lowering itself is identical at every width and
    // the unitary oracle suite above covers the larger instances.
    vec![
        ("fig4-toffoli", fig4_toffoli()),
        ("incrementer(5)", incrementer(5).unwrap()),
        ("n-controlled-x(3)", n_controlled_x(3).unwrap()),
    ]
}

/// The paper's published virtual Di & Wei accounting, reimplemented from
/// public primitives as an independent oracle: per ASAP moment of the *raw*
/// circuit, apply the operation unitaries, then per operation the synthetic
/// gate-error charges (its own qudits for arity ≤ 2; for arity ≥ 3, six
/// two-qudit depolarizing errors cycling over the operation's qudit pairs
/// plus seven single-qudit errors cycling over its qudits), then per-qudit
/// idle damping for the moment's expanded duration (6 two-qudit gate times
/// for a ≥3-qudit moment). Returns `⟨ψ_ideal|ρ|ψ_ideal⟩` with the ideal
/// output produced by the retained naive reference engine.
fn virtual_diwei_fidelity(circuit: &Circuit, model: &NoiseModel, input: &StateVector) -> f64 {
    let d = circuit.dim();
    let n = circuit.width();
    let schedule = Schedule::asap(circuit);
    let single = model.single_qudit_gate_error(d).unwrap().superoperator();
    let two = model.two_qudit_gate_error(d).unwrap().superoperator();

    let mut rho = DensityMatrix::from_pure(input);
    for moment in schedule.moments() {
        for &i in &moment.op_indices {
            rho.apply_operation(&circuit.operations()[i]);
        }
        for &i in &moment.op_indices {
            let op = &circuit.operations()[i];
            let qudits = op.qudits();
            match op.arity() {
                0 => {}
                1 => rho.apply_superoperator(&single, &qudits),
                2 => rho.apply_superoperator(&two, &qudits),
                _ => {
                    let mut pairs = Vec::new();
                    for a in 0..qudits.len() {
                        for b in (a + 1)..qudits.len() {
                            pairs.push([qudits[a], qudits[b]]);
                        }
                    }
                    for k in 0..6 {
                        rho.apply_superoperator(&two, &pairs[k % pairs.len()]);
                    }
                    for k in 0..7 {
                        rho.apply_superoperator(&single, &[qudits[k % qudits.len()]]);
                    }
                }
            }
        }
        // A ≥3-qudit operation lasts its Di & Wei block: six two-qudit times.
        let dt = match moment.max_arity() {
            0 | 1 => model.gate_time_1q,
            2 => model.gate_time_2q,
            _ => 6.0 * model.gate_time_2q,
        };
        if let Some(idle) = model.idle_error(d, dt).unwrap() {
            let idle = idle.superoperator();
            for q in 0..n {
                rho.apply_superoperator(&idle, &[q]);
            }
        }
    }
    rho.renormalize();

    let mut ideal = input.clone();
    for op in circuit.iter() {
        reference::apply_operation_naive(&mut ideal, op);
    }
    rho.fidelity_with_pure(&ideal)
}

/// The exact backend's fidelity for a one-input physical-accounting job.
fn physical_fidelity(
    executor: &Executor,
    circuit: &Circuit,
    model: &NoiseModel,
    seed: u64,
    input: InputState,
) -> f64 {
    let spec = JobSpec::builder(circuit.clone())
        .noise(model.clone())
        .level(PassLevel::Physical)
        .backend(BackendKind::DensityMatrix)
        .trials(1)
        .seed(seed)
        .input(input)
        .build()
        .unwrap();
    executor.run(&spec).unwrap().fidelity().unwrap().mean
}

#[test]
fn physical_lowering_matches_virtual_diwei_accounting_for_every_model() {
    // The acceptance case: exact-backend fidelity under the lowered
    // circuit vs the independent virtual-accounting oracle, ≤ 1e-9, on all
    // 7 noise models × 3 constructions, all-|1⟩ input.
    let executor = Executor::new();
    for (name, circuit) in diff_cases() {
        for model in models::all_models() {
            let input = StateVector::from_basis_state(3, &vec![1usize; circuit.width()]).unwrap();
            let f_virtual = virtual_diwei_fidelity(&circuit, &model, &input);
            let f_physical =
                physical_fidelity(&executor, &circuit, &model, 2019, InputState::AllOnes);
            assert!(
                (f_virtual - f_physical).abs() <= ACCOUNTING_TOL,
                "{name}/{}: physical {f_physical:.12} vs virtual {f_virtual:.12} \
                 (diff {:.3e})",
                model.name,
                (f_virtual - f_physical).abs()
            );
        }
    }
}

#[test]
fn physical_lowering_matches_virtual_diwei_on_random_inputs() {
    // Random superposition inputs reach the |2⟩ components and interference
    // terms the all-ones case cannot; one representative model per family.
    // The input draw mirrors the production simulators' seeding, so the
    // oracle sees exactly the state a one-trial job with this seed evolves.
    let seed = 23u64;
    let executor = Executor::new();
    for (name, circuit) in diff_cases() {
        for model in [models::sc_t1_gates(), models::dressed_qutrit()] {
            let mut rng = StdRng::seed_from_u64(seed);
            let input = random_qubit_subspace_state(3, circuit.width(), &mut rng).unwrap();
            let f_virtual = virtual_diwei_fidelity(&circuit, &model, &input);
            let f_physical = physical_fidelity(
                &executor,
                &circuit,
                &model,
                seed,
                InputState::RandomQubitSubspace,
            );
            assert!(
                (f_virtual - f_physical).abs() <= ACCOUNTING_TOL,
                "{name}/{}: physical {f_physical:.12} vs virtual {f_virtual:.12}",
                model.name
            );
        }
    }
}

#[test]
fn trajectory_physical_stays_within_crossval_bounds() {
    // The trajectory engine on the lowered program must still converge to
    // the (lowered) exact value: the statistical gate that CI also runs at
    // larger sizes through `bench --bin crossval`.
    let spec = JobSpec::builder(n_controlled_x(3).unwrap())
        .noise(models::sc_t1_gates())
        .level(PassLevel::Physical)
        .trials(300)
        .seed(2019)
        .input(InputState::AllOnes)
        .build()
        .unwrap();
    let cv = Executor::new().cross_validate(&spec, 3.0).unwrap();
    assert!(
        cv.within_bounds(),
        "trajectory {:.6} vs exact {:.6} exceeds bound {:.2e}",
        cv.estimate.mean,
        cv.exact,
        cv.tolerance
    );
}

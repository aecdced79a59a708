//! Pass-pipeline invariance suite.
//!
//! Two properties pin the compiler's semantics:
//!
//! 1. **Unitary preservation (Ideal level):** for random circuits over
//!    `d ∈ {2, 3, 4}`, replaying the pass-transformed circuit through the
//!    compiled kernels must produce the same state as the retained naive
//!    reference oracle (`qudit_sim::reference`) replaying the *raw*
//!    circuit, on random input states.
//! 2. **Noise preservation (NoisePreserving level):** the pipeline must be
//!    the identity transformation — operation list and schedule exactly
//!    equal — and the exact density-matrix backend's fidelity must be
//!    bit-identical on the raw and transformed circuits.
//!
//! Plus cross-checks that the specialization tags match the kernels the
//! simulator actually dispatches, and that the pipeline measurably reduces
//! kernel invocations on paper constructions (Grover, the incrementer).

use proptest::prelude::*;
use qudit_api::{BackendKind, Executor, InputState, JobSpec};
use qudit_circuit::passes::{compile, PassLevel};
use qudit_circuit::{Circuit, Control, Gate, Schedule};
use qudit_core::{complex_gaussian, random_state, CMatrix, Complex};
use qudit_noise::models;
use qudit_sim::{reference, ApplyPlan, CompiledCircuit};
use qutrit_toffoli::grover::{grover_circuit, optimal_iterations};
use qutrit_toffoli::incrementer::incrementer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-10;

/// A Haar-ish random unitary via modified Gram–Schmidt on a Gaussian
/// matrix (same construction as the kernel equivalence suite).
fn random_unitary(n: usize, rng: &mut StdRng) -> CMatrix {
    let mut cols: Vec<Vec<Complex>> = (0..n)
        .map(|_| (0..n).map(|_| complex_gaussian(rng)).collect())
        .collect();
    for i in 0..n {
        let (done, rest) = cols.split_at_mut(i);
        let col = &mut rest[0];
        for prev in done.iter() {
            let proj: Complex = prev
                .iter()
                .zip(col.iter())
                .map(|(a, b)| a.conj() * *b)
                .sum();
            for (x, y) in col.iter_mut().zip(prev.iter()) {
                *x -= proj * *y;
            }
        }
        let norm: f64 = col.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!(norm > 1e-9, "degenerate random matrix");
        for z in col.iter_mut() {
            *z = z.scale(1.0 / norm);
        }
    }
    let mut m = CMatrix::zeros(n, n);
    for (c, col) in cols.iter().enumerate() {
        for (r, z) in col.iter().enumerate() {
            m.set(r, c, *z);
        }
    }
    m
}

/// A random circuit mixing every gate structure the passes care about:
/// dense unitaries, classical permutations, diagonals, controlled ops —
/// with deliberate adjacent repeats and inverse pairs so fusion and
/// cancellation actually fire.
fn random_circuit(dim: usize, width: usize, ops: usize, rng: &mut StdRng) -> Circuit {
    let mut circuit = Circuit::new(dim, width);
    while circuit.len() < ops {
        let target = rng.gen_range(0..width);
        let gate = match rng.gen_range(0..6) {
            0 => Gate::increment(dim),
            1 => Gate::decrement(dim),
            2 => Gate::clock(dim),
            3 => Gate::x(dim),
            4 => Gate::from_matrix("U", dim, random_unitary(dim, rng)).unwrap(),
            _ => Gate::h(dim),
        };
        let controlled = width > 1 && rng.gen_bool(0.4);
        if controlled {
            let mut control = rng.gen_range(0..width);
            while control == target {
                control = rng.gen_range(0..width);
            }
            let level = rng.gen_range(0..dim);
            circuit
                .push_controlled(gate.clone(), &[Control::new(control, level)], &[target])
                .unwrap();
            // Sometimes immediately append the inverse: a cancellation site.
            if rng.gen_bool(0.3) {
                circuit
                    .push_controlled(gate.inverse(), &[Control::new(control, level)], &[target])
                    .unwrap();
            } else if rng.gen_bool(0.4) {
                // Or a different gate under the same control condition: a
                // same-support fusion site (C(U₂)·C(U₁) = C(U₂·U₁)).
                let next = match rng.gen_range(0..3) {
                    0 => Gate::increment(dim),
                    1 => Gate::clock(dim),
                    _ => Gate::h(dim),
                };
                circuit
                    .push_controlled(next, &[Control::new(control, level)], &[target])
                    .unwrap();
            }
        } else {
            circuit.push_gate(gate.clone(), &[target]).unwrap();
            // Sometimes stack another single-qudit gate: a fusion site.
            if rng.gen_bool(0.4) {
                circuit.push_gate(gate.inverse(), &[target]).unwrap();
            }
        }
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Ideal-level pipeline preserves the circuit unitary: post-pass
    /// kernels equal the naive reference oracle on the raw circuit.
    #[test]
    fn ideal_passes_preserve_semantics(seed in 0u64..1_000_000, dim in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(1..5);
        let ops = rng.gen_range(4..14);
        let circuit = random_circuit(dim, width, ops, &mut rng);

        let ir = compile(&circuit, PassLevel::Ideal);
        prop_assert!(ir.circuit().len() <= circuit.len(), "passes must never grow the circuit");

        let state = random_state(dim, width, &mut rng).unwrap();
        let fast = CompiledCircuit::compile_ir(&ir).run(state.clone());
        let mut naive = state;
        for op in circuit.iter() {
            reference::apply_operation_naive(&mut naive, op);
        }
        for (i, (a, b)) in fast.amplitudes().iter().zip(naive.amplitudes()).enumerate() {
            prop_assert!(
                a.approx_eq(*b, TOL),
                "amplitude {i} differs after {} -> {} ops: {a:?} vs {b:?}\n{}",
                circuit.len(),
                ir.circuit().len(),
                ir.report()
            );
        }
    }

    /// NoisePreserving level is the identity transformation: same op list,
    /// same schedule, and bit-identical exact-backend fidelity.
    #[test]
    fn noise_preserving_is_bit_identical(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(2..4);
        let ops = rng.gen_range(3..8);
        let circuit = random_circuit(3, width, ops, &mut rng);

        let ir = compile(&circuit, PassLevel::NoisePreserving);
        prop_assert_eq!(ir.circuit(), &circuit);
        prop_assert_eq!(ir.schedule(), &Schedule::asap(&circuit));

        // Exact (deterministic) backend: fidelity on the raw circuit and on
        // the pipeline's output circuit must agree to the last bit. Fresh
        // uncached executors, so both legs actually simulate.
        let exact = |c: &Circuit| {
            let spec = JobSpec::builder(c.clone())
                .noise(models::sc())
                .backend(BackendKind::DensityMatrix)
                .trials(1)
                .seed(seed)
                .input(InputState::AllOnes)
                .build()
                .unwrap();
            Executor::with_result_cache(0).run(&spec).unwrap().fidelity().unwrap().mean
        };
        let raw = exact(&circuit);
        let passed = exact(ir.circuit());
        prop_assert_eq!(raw.to_bits(), passed.to_bits());
    }

    /// The specialization tags match the kernels the simulator's plan
    /// builder actually dispatches, operation by operation.
    #[test]
    fn specialize_tags_match_dispatched_kernels(seed in 0u64..1_000_000, dim in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(1..5);
        let circuit = random_circuit(dim, width, rng.gen_range(3..10), &mut rng);
        let ir = compile(&circuit, PassLevel::Ideal);
        prop_assert_eq!(ir.kernel_tags().len(), ir.circuit().len());
        for (op, &tag) in ir.circuit().iter().zip(ir.kernel_tags()) {
            let plan = ApplyPlan::for_operation(ir.circuit().width(), op);
            prop_assert_eq!(plan.kernel_class(), tag);
        }
    }
}

#[test]
fn ideal_passes_reduce_kernel_invocations_on_paper_constructions() {
    // Grover: the diffusion operator's H/X sandwiches around the
    // phase-flip trees leave adjacent single-qudit pairs on the target
    // qubit; the incrementer's nested Generalized-Toffoli trees expose
    // adjacent inverse pairs between uncompute and compute halves.
    let grover = grover_circuit(4, 11, optimal_iterations(4)).unwrap();
    let ir = compile(&grover, PassLevel::Ideal);
    assert!(
        ir.circuit().len() < grover.len(),
        "Grover: expected a reduction, got {} -> {}",
        grover.len(),
        ir.circuit().len()
    );

    let incr = incrementer(8).unwrap();
    let ir = compile(&incr, PassLevel::Ideal);
    assert!(
        ir.circuit().len() < incr.len(),
        "incrementer: expected a reduction, got {} -> {}",
        incr.len(),
        ir.circuit().len()
    );
    // Same-support fusion (identical targets + control conditions) is what
    // pushes this below the 24 ops single-qudit-only fusion reached —
    // adjacent controlled pairs in the carry chain compose.
    assert!(
        ir.circuit().len() <= 18,
        "incrementer: same-support fusion regressed, got {} ops",
        ir.circuit().len()
    );
    assert!(ir.report().post.depth() < ir.report().pre.depth());

    // And the transformed incrementer still increments, exhaustively.
    let compiled = CompiledCircuit::compile_ir(&ir);
    for value in 0..(1usize << 8) {
        let input = qutrit_toffoli::incrementer::value_to_register(value, 8);
        let expected = qutrit_toffoli::incrementer::value_to_register((value + 1) % (1 << 8), 8);
        let out = compiled.run(qudit_core::StateVector::from_basis_state(3, &input).unwrap());
        assert!(
            (out.probability(&expected).unwrap() - 1.0).abs() < 1e-9,
            "value {value}"
        );
    }
}

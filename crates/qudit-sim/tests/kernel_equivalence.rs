//! Property-based equivalence suite: every kernel path of the
//! stride-enumerated engine must agree with the retained naive reference
//! (`qudit_sim::reference`) on random states, random gates and random
//! control configurations, for `d ∈ {2, 3, 4}`.
//!
//! Paths covered:
//! * dense `k = 1` (the in-place kernel at d = 2, 3, 4),
//! * dense `k = 2` (the in-place kernel at d = 2, the tiled and per-group
//!   kernels at d = 3, 4),
//! * generic gather–scatter (`k = 3`),
//! * the sparse permutation fast path (classical gates, with controls),
//! * the parallel dispatch (both the contiguous-chunk and the strided
//!   shared-pointer variants, forced on regardless of host core count),
//! * the plan-cache path through `Simulator` on whole random circuits.

use proptest::prelude::*;
use qudit_circuit::{Circuit, Control, Gate, Operation};
use qudit_core::{complex_gaussian, random_state, CMatrix, Complex, StateVector};
use qudit_sim::kernel::SimdLevel;
use qudit_sim::{reference, ApplyPlan, CompiledCircuit, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether the host can actually execute the AVX2+FMA kernels. Gates the
/// forced-level tests on the CPU, not on `QUDIT_SIMD` — CI forces the env
/// var both ways and the cross-level check must still run under
/// `QUDIT_SIMD=scalar` on capable hardware.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}
#[cfg(not(target_arch = "x86_64"))]
fn avx2_available() -> bool {
    false
}

/// Max |amplitude difference| tolerated between the two engines.
const TOL: f64 = 1e-10;

/// A Haar-ish random unitary via modified Gram–Schmidt on a Gaussian matrix.
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

/// Picks `k` distinct qudit indices out of `0..n`.
fn random_targets(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    for i in (1..pool.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

fn assert_states_match(fast: &StateVector, slow: &StateVector, what: &str) {
    for (i, (a, b)) in fast.amplitudes().iter().zip(slow.amplitudes()).enumerate() {
        assert!(
            a.approx_eq(*b, TOL),
            "{what}: amplitude {i} differs: {a:?} vs {b:?}"
        );
    }
}

/// Applies `matrix` on `targets` with `controls` through (a) the plan kernel,
/// sequential; (b) the plan kernel, forced-parallel dispatch; (c) the naive
/// reference — and checks all three agree.
fn check_equivalence(
    dim: usize,
    width: usize,
    matrix: &CMatrix,
    targets: &[usize],
    controls: &[(usize, usize)],
    state: &StateVector,
    what: &str,
) {
    let plan = ApplyPlan::new(dim, width, matrix, targets, controls);
    // Acceptance criterion: the kernel visits exactly d^(n-k-c) groups.
    assert_eq!(
        plan.groups(),
        dim.pow((width - targets.len() - controls.len()) as u32),
        "{what}: wrong group count"
    );

    let mut seq = state.clone();
    plan.apply_forced(&mut seq, false);

    let mut par = state.clone();
    plan.apply_forced(&mut par, true);

    let mut naive = state.clone();
    let control_structs: Vec<Control> = controls
        .iter()
        .map(|&(q, level)| Control::new(q, level))
        .collect();
    if control_structs.is_empty() {
        reference::apply_matrix_naive(&mut naive, matrix, targets);
    } else {
        let gate = Gate::new("rand", dim, targets.len(), matrix.clone()).unwrap();
        let op = Operation::new(gate, control_structs, targets.to_vec()).unwrap();
        reference::apply_operation_naive(&mut naive, &op);
    }

    assert_states_match(&seq, &naive, &format!("{what} (sequential)"));
    assert_states_match(&par, &naive, &format!("{what} (parallel)"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Dense single-target gates: exercises the in-place d = 2, 3, 4
    /// kernel on every target position (contiguous and strided).
    #[test]
    fn dense_k1_matches_reference(seed in 0u64..1_000_000, dim in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(1..5);
        let target = rng.gen_range(0..width);
        let u = random_unitary(dim, &mut rng);
        let state = random_state(dim, width, &mut rng).unwrap();
        check_equivalence(dim, width, &u, &[target], &[], &state, "dense k=1");
    }

    /// Dense two-target gates: the in-place kernel at d = 2, the tiled and
    /// per-group kernels at d = 3, 4.
    #[test]
    fn dense_k2_matches_reference(seed in 0u64..1_000_000, dim in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(2..5);
        let targets = random_targets(width, 2, &mut rng);
        let u = random_unitary(dim * dim, &mut rng);
        let state = random_state(dim, width, &mut rng).unwrap();
        check_equivalence(dim, width, &u, &targets, &[], &state, "dense k=2");
    }

    /// Three-target gates take the generic gather–scatter path.
    #[test]
    fn generic_k3_matches_reference(seed in 0u64..1_000_000, dim in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(3..5);
        let targets = random_targets(width, 3, &mut rng);
        let u = random_unitary(dim.pow(3), &mut rng);
        let state = random_state(dim, width, &mut rng).unwrap();
        check_equivalence(dim, width, &u, &targets, &[], &state, "generic k=3");
    }

    /// Random permutation matrices take the sparse cycle kernel.
    #[test]
    fn permutation_fast_path_matches_reference(seed in 0u64..1_000_000, dim in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width: usize = rng.gen_range(1..5);
        let k = rng.gen_range(1..width.min(2) + 1);
        let targets = random_targets(width, k, &mut rng);
        let block = dim.pow(k as u32);
        let mut perm: Vec<usize> = (0..block).collect();
        for i in (1..block).rev() {
            let j = rng.gen_range(0..i + 1);
            perm.swap(i, j);
        }
        let m = CMatrix::permutation(&perm);
        let plan = ApplyPlan::new(dim, width, &m, &targets, &[]);
        assert!(plan.is_permutation(), "permutation matrix must take the sparse path");
        let state = random_state(dim, width, &mut rng).unwrap();
        check_equivalence(dim, width, &m, &targets, &[], &state, "permutation");
    }

    /// Controlled operations: random control counts and activation levels,
    /// on both dense and classical gates.
    #[test]
    fn controlled_ops_match_reference(seed in 0u64..1_000_000, dim in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(2..6);
        let qudits = random_targets(width, width.min(rng.gen_range(2..4)), &mut rng);
        let (target, control_qudits) = qudits.split_first().unwrap();
        let controls: Vec<(usize, usize)> = control_qudits
            .iter()
            .map(|&q| (q, rng.gen_range(0..dim)))
            .collect();
        let state = random_state(dim, width, &mut rng).unwrap();
        let u = random_unitary(dim, &mut rng);
        check_equivalence(dim, width, &u, &[*target], &controls, &state, "controlled dense");
        // And a controlled classical gate (permutation under control).
        let shift = Gate::increment(dim);
        check_equivalence(
            dim,
            width,
            shift.matrix(),
            &[*target],
            &controls,
            &state,
            "controlled permutation",
        );
    }

    /// Both forced SIMD levels agree with the reference, and with each
    /// other: dense kernels within 1e-12 (FMA changes rounding, nothing
    /// else), permutation and diagonal paths **bit-identically** — those
    /// kernels never branch on the SIMD level, so the operation order is
    /// unchanged by construction and the test pins that it stays so.
    #[test]
    fn forced_simd_levels_agree(seed in 0u64..1_000_000, dim in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(2..6);
        let state = random_state(dim, width, &mut rng).unwrap();

        // Dense k=1 and k=2 at a random position.
        for k in 1..=2usize {
            let targets = random_targets(width, k, &mut rng);
            let u = random_unitary(dim.pow(k as u32), &mut rng);
            let plan = ApplyPlan::for_matrix(dim, width, &u, &targets);
            let mut scalar = state.clone();
            plan.apply_forced_simd(&mut scalar, false, SimdLevel::Scalar);
            let mut naive = state.clone();
            reference::apply_matrix_naive(&mut naive, &u, &targets);
            assert_states_match(&scalar, &naive, &format!("dense k={k} scalar"));
            if avx2_available() {
                let mut vectored = state.clone();
                plan.apply_forced_simd(&mut vectored, false, SimdLevel::Avx2);
                for (i, (a, b)) in vectored.amplitudes().iter().zip(scalar.amplitudes()).enumerate() {
                    assert!(
                        a.approx_eq(*b, 1e-12),
                        "dense k={k}: scalar/avx2 amplitude {i} differ beyond 1e-12: {a:?} vs {b:?}"
                    );
                }
            }
        }

        // Permutation (classical) and diagonal plans: exact across levels.
        let target = rng.gen_range(0..width);
        for (gate, what) in [(Gate::increment(dim), "permutation"), (Gate::clock(dim), "diagonal")] {
            let plan = ApplyPlan::for_matrix(dim, width, gate.matrix(), &[target]);
            let mut scalar = state.clone();
            plan.apply_forced_simd(&mut scalar, false, SimdLevel::Scalar);
            if avx2_available() {
                let mut vectored = state.clone();
                plan.apply_forced_simd(&mut vectored, false, SimdLevel::Avx2);
                for (i, (a, b)) in vectored.amplitudes().iter().zip(scalar.amplitudes()).enumerate() {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "{what}: amplitude {i} not bit-identical across SIMD levels"
                    );
                }
            }
            let mut naive = state.clone();
            reference::apply_matrix_naive(&mut naive, gate.matrix(), &[target]);
            assert_states_match(&scalar, &naive, what);
        }
    }

    /// Cache-blocked segmented replay (including composed-permutation
    /// folding) vs the naive reference, on circuits built to have a
    /// chunkable trailing-support run: some prefix on qudit 0, then a run
    /// of gates confined to the last two qudits — classical-only runs fold
    /// into one exact chunk permutation, mixed runs replay per-plan.
    /// Against op-at-a-time plan application a classical-only run must be
    /// **bit-identical** (permutation folding moves amplitudes without any
    /// arithmetic); mixed runs must agree within 1e-12 — a span plan's
    /// shorter runs may send a dense group through the scalar tail instead
    /// of the FMA chain, which changes rounding only.
    #[test]
    fn segmented_replay_matches_reference(seed in 0u64..1_000_000, dim in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let classical_only = seed % 2 == 0;
        let width = rng.gen_range(4..7);
        let mut circuit = Circuit::new(dim, width);
        circuit.push_gate(Gate::fourier(dim), &[0]).unwrap();
        for _ in 0..rng.gen_range(2..6) {
            let target = width - 1 - rng.gen_range(0usize..2);
            let gate = match (classical_only, rng.gen_range(0..3)) {
                (true, 0) => Gate::increment(dim),
                (true, 1) => Gate::x(dim),
                (true, _) => Gate::decrement(dim),
                (false, 0) => Gate::fourier(dim),
                (false, 1) => Gate::increment(dim),
                (false, _) => Gate::from_matrix("U", dim, random_unitary(dim, &mut rng)).unwrap(),
            };
            if rng.gen_bool(0.4) {
                let other = 2 * width - 3 - target; // the other trailing qudit
                circuit
                    .push_controlled(gate, &[Control::new(other, rng.gen_range(0..dim))], &[target])
                    .unwrap();
            } else {
                circuit.push_gate(gate, &[target]).unwrap();
            }
        }
        circuit.push_gate(Gate::fourier(dim), &[0]).unwrap();
        let state = random_state(dim, width, &mut rng).unwrap();

        let compiled = CompiledCircuit::compile(&circuit);
        let fast = compiled.run_sequential(state.clone());

        let mut naive = state.clone();
        for op in circuit.iter() {
            reference::apply_operation_naive(&mut naive, op);
        }
        assert_states_match(&fast, &naive, "segmented replay");

        let mut op_at_a_time = state;
        for op in circuit.iter() {
            ApplyPlan::for_operation(width, op).apply_forced(&mut op_at_a_time, false);
        }
        for (i, (a, b)) in fast.amplitudes().iter().zip(op_at_a_time.amplitudes()).enumerate() {
            if classical_only {
                assert_eq!(
                    (a.re.to_bits(), a.im.to_bits()),
                    (b.re.to_bits(), b.im.to_bits()),
                    "folded permutation replay: amplitude {i} not bit-identical to op-at-a-time"
                );
            } else {
                assert!(
                    a.approx_eq(*b, 1e-12),
                    "segmented replay: amplitude {i} drifts beyond 1e-12 from op-at-a-time: {a:?} vs {b:?}"
                );
            }
        }
    }

    /// Whole random circuits through the plan-caching `Simulator` vs the
    /// naive reference, op by op.
    #[test]
    fn simulator_matches_naive_on_random_circuits(seed in 0u64..1_000_000, dim in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(2..5);
        let mut circuit = Circuit::new(dim, width);
        for _ in 0..8 {
            let target = rng.gen_range(0..width);
            let gate = match rng.gen_range(0..4) {
                0 => Gate::increment(dim),
                1 => Gate::from_matrix("U", dim, random_unitary(dim, &mut rng)).unwrap(),
                2 => Gate::fourier(dim),
                _ => Gate::x(dim),
            };
            if width > 1 && rng.gen_bool(0.5) {
                let mut control = rng.gen_range(0..width);
                while control == target {
                    control = rng.gen_range(0..width);
                }
                let level = rng.gen_range(0..dim);
                circuit
                    .push_controlled(gate, &[Control::new(control, level)], &[target])
                    .unwrap();
            } else {
                circuit.push_gate(gate, &[target]).unwrap();
            }
        }
        let state = random_state(dim, width, &mut rng).unwrap();

        let fast = Simulator::new().run_with_state(&circuit, state.clone());
        let mut naive = state;
        for op in circuit.iter() {
            reference::apply_operation_naive(&mut naive, op);
        }
        assert_states_match(&fast, &naive, "random circuit");
    }
}

/// One deterministic large case whose dense plans cross the real parallel
/// threshold (9-qutrit k = 1/k = 2 work estimates exceed `PAR_MIN_WORK`),
/// so `apply`'s own dispatch decision is exercised end-to-end on
/// multi-core hosts.
#[test]
fn large_register_auto_dispatch_matches_reference() {
    let mut rng = StdRng::seed_from_u64(2019);
    let dim = 3;
    let width = 9;
    let state = random_state(dim, width, &mut rng).unwrap();

    for (targets, what) in [
        (vec![8], "k=1 contiguous"),
        (vec![0], "k=1 strided"),
        (vec![4, 8], "k=2 mixed"),
    ] {
        let u = random_unitary(dim.pow(targets.len() as u32), &mut rng);
        let plan = ApplyPlan::for_matrix(dim, width, &u, &targets);
        let mut fast = state.clone();
        plan.apply(&mut fast); // auto dispatch
        let mut naive = state.clone();
        reference::apply_matrix_naive(&mut naive, &u, &targets);
        assert_states_match(&fast, &naive, what);
    }
}

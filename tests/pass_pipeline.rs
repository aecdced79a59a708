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
//! Plus cross-checks that the kernel tags match the kernels the simulator
//! actually dispatches, that the Ideal level measurably reduces kernel
//! invocations on paper constructions (Grover, the incrementer), and that
//! every compile of a fixed corpus matches
//! `tests/golden/compile_corpus.txt` field for field.

use proptest::prelude::*;
use qudit_api::{BackendKind, Executor, InputState, JobSpec};
use qudit_circuit::passes::{compile, compile_with_topology, PassLevel};
use qudit_circuit::{Circuit, Control, Gate, Operation, Schedule, Topology};
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

/// 64-bit FNV-1a over everything written into it. Written out here because
/// std's `DefaultHasher` is not stable across Rust releases, and the golden
/// must be.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, text: &str) -> std::fmt::Result {
        for byte in text.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A seeded random circuit with every op shape the compiler treats
/// differently: single-qudit gates, one-, two- and three-control ops (the
/// last two are lowered at the Physical levels), controlled SWAPs (arity-3
/// multi-target ops the lowering passes through), and ops followed by
/// their inverse or by a repeat.
fn corpus_random_circuit(seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = 2 + (seed % 2) as usize;
    let width = 3 + (seed / 2 % 4) as usize;
    let ops = rng.gen_range(6..16);
    let mut circuit = Circuit::new(dim, width);
    while circuit.len() < ops {
        let mut qudits: Vec<usize> = (0..width).collect();
        for i in (1..width).rev() {
            qudits.swap(i, rng.gen_range(0..i + 1));
        }
        let gate = match rng.gen_range(0..6) {
            0 => Gate::increment(dim),
            1 => Gate::decrement(dim),
            2 => Gate::x(dim),
            3 => Gate::h(dim),
            4 => Gate::clock(dim),
            _ => Gate::fourier(dim),
        };
        let controls: Vec<Control> = qudits[1..]
            .iter()
            .map(|&q| Control::new(q, rng.gen_range(0..dim)))
            .collect();
        let op = match rng.gen_range(0..6) {
            0 => Operation::new(gate, vec![], vec![qudits[0]]),
            1 | 2 => Operation::new(gate, controls[..1].to_vec(), vec![qudits[0]]),
            3 => Operation::new(gate, controls[..2].to_vec(), vec![qudits[0]]),
            4 if width >= 4 => Operation::new(gate, controls[..3].to_vec(), vec![qudits[0]]),
            _ => Operation::new(
                Gate::swap(dim),
                vec![controls[1]],
                vec![qudits[0], qudits[1]],
            ),
        }
        .unwrap();
        circuit.push(op.clone()).unwrap();
        match rng.gen_range(0..4) {
            0 => circuit.push(op.inverse()).unwrap(),
            1 => circuit.push(op).unwrap(),
            _ => {}
        }
    }
    circuit
}

/// The corpus: the paper's constructions, the algorithm catalog and seeded
/// random circuits.
fn corpus_circuits() -> Vec<(String, Circuit)> {
    use qutrit_toffoli::baselines::{he_log_depth, qubit_no_ancilla, qubit_one_dirty_ancilla};
    use qutrit_toffoli::gen_toffoli::n_controlled_x;
    let mut circuits = Vec::new();
    for n in [2, 3, 4, 5, 6, 7, 8, 11] {
        circuits.push((format!("ncx{n}"), n_controlled_x(n).unwrap()));
    }
    for n in 2..=5 {
        circuits.push((format!("qubit{n}"), qubit_no_ancilla(n, 2).unwrap()));
        circuits.push((
            format!("qubit_ancilla{n}"),
            qubit_one_dirty_ancilla(n, 2).unwrap(),
        ));
    }
    for n in 3..=5 {
        circuits.push((format!("he{n}"), he_log_depth(n, 2).unwrap()));
    }
    for bits in 3..=8 {
        circuits.push((format!("incrementer{bits}"), incrementer(bits).unwrap()));
    }
    circuits.push((
        "grover4".to_string(),
        grover_circuit(4, 11, optimal_iterations(4)).unwrap(),
    ));
    for case in qudit_algos::catalog() {
        circuits.push((case.name.to_string(), case.circuit()));
    }
    for seed in 0..64 {
        circuits.push((format!("random{seed}"), corpus_random_circuit(seed)));
    }
    circuits
}

/// No topology, then every family that fits the width: all-to-all, line,
/// ring, the squarest grid with both sides ≥ 2, and heavy-hex(1) at its 12
/// sites.
fn corpus_topologies(width: usize) -> Vec<Option<Topology>> {
    let mut topologies = vec![
        None,
        Some(Topology::all_to_all(width).unwrap()),
        Some(Topology::linear(width).unwrap()),
        Some(Topology::ring(width).unwrap()),
    ];
    if let Some(rows) = (2..width)
        .rev()
        .find(|&r| r * r <= width && width.is_multiple_of(r))
    {
        topologies.push(Some(Topology::grid(rows, width / rows).unwrap()));
    }
    let heavy_hex = Topology::heavy_hex(1).unwrap();
    if heavy_hex.sites() == width {
        topologies.push(Some(heavy_hex));
    }
    topologies
}

/// One line per (circuit, level, topology): the op count, frame count,
/// post depth and routed SWAP count, and an FNV-1a digest of the `Debug`
/// text of everything the compile produced except the per-step statistics.
fn corpus_lines() -> Vec<String> {
    use std::fmt::Write;
    let mut lines = Vec::new();
    for (name, circuit) in corpus_circuits() {
        for level in [
            PassLevel::NoisePreserving,
            PassLevel::Physical,
            PassLevel::PhysicalIdeal,
            PassLevel::Ideal,
        ] {
            for topology in corpus_topologies(circuit.width()) {
                let ir = compile_with_topology(&circuit, level, topology.as_ref());
                let report = ir.report();
                let mut digest = Fnv1a(0xcbf2_9ce4_8422_2325);
                write!(
                    digest,
                    "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
                    ir.circuit(),
                    ir.schedule(),
                    ir.frames(),
                    ir.kernel_tags(),
                    ir.routing(),
                    ir.topology(),
                    report.level,
                    report.pre,
                    report.post,
                    ir.reference_circuit(),
                )
                .unwrap();
                let topology = topology.map_or("none".to_string(), |t| t.to_string());
                lines.push(format!(
                    "{name} {} {topology} ops={} frames={} depth={} swaps={} fnv={:016x}",
                    level.name(),
                    ir.circuit().len(),
                    ir.frames().map_or(0, |f| f.frames().len()),
                    report.post.depth(),
                    ir.routing().map_or(0, |r| r.inserted_swaps),
                    digest.0,
                ));
            }
        }
    }
    lines
}

/// Every compile of the corpus matches the golden: the circuit, schedule,
/// frames, kernel tags, routing, topology, level, both resource reports
/// and the reference circuit. Among other things this pins the frames rule
/// for Physical compiles that keep an op they could not lower, which no
/// semantic test distinguishes.
#[test]
fn compile_corpus_matches_the_golden() {
    let golden: Vec<&str> = include_str!("golden/compile_corpus.txt").lines().collect();
    let lines = corpus_lines();
    assert_eq!(lines.len(), golden.len(), "corpus size changed");
    let mismatches: Vec<String> = lines
        .iter()
        .zip(&golden)
        .filter(|(line, expected)| line != *expected)
        .map(|(line, expected)| format!("  expected {expected}\n  got      {line}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} compiles differ from tests/golden/compile_corpus.txt, first ones:\n{}",
        mismatches.len(),
        lines.len(),
        mismatches[..mismatches.len().min(10)].join("\n")
    );
}

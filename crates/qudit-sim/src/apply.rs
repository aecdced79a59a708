//! The retained naive reference implementation of gate application.
//!
//! Production code builds an [`ApplyPlan`](crate::ApplyPlan) once per
//! operation and reuses it (see [`crate::CompiledCircuit`]); a one-shot
//! application is `ApplyPlan::for_matrix(..).apply(state)` or
//! `ApplyPlan::for_operation(..).apply(state)`. The `reference` module
//! keeps the seed engine as the oracle the kernel equivalence suite checks
//! every plan kernel against.

/// The seed implementation, retained verbatim in spirit as the test oracle:
/// it scans **all** `d^n` flat indices and filters for group representatives,
/// which is `d^k`-times more iteration (plus per-index `pow`) than the
/// stride-enumerated kernels. Correct, slow, and easy to audit — the
/// equivalence suite pits every kernel against it.
#[doc(hidden)]
pub mod reference {
    use crate::kernel::block_offsets;
    use qudit_circuit::Operation;
    use qudit_core::{CMatrix, Complex, StateVector};

    /// Naive full-scan version of
    /// [`ApplyPlan::for_matrix`](crate::ApplyPlan::for_matrix) + `apply`.
    ///
    /// # Panics
    ///
    /// Same conditions as the fast path.
    pub fn apply_matrix_naive(state: &mut StateVector, matrix: &CMatrix, qudits: &[usize]) {
        apply_naive(state, matrix, qudits, &[]);
    }

    /// Naive full-scan version of
    /// [`ApplyPlan::for_operation`](crate::ApplyPlan::for_operation) + `apply`.
    ///
    /// # Panics
    ///
    /// Same conditions as the fast path.
    pub fn apply_operation_naive(state: &mut StateVector, op: &Operation) {
        debug_assert_eq!(state.dim(), op.gate().dim(), "dimension mismatch");
        apply_naive(state, op.gate().matrix(), op.targets(), &op.control_pairs());
    }

    fn apply_naive(
        state: &mut StateVector,
        matrix: &CMatrix,
        targets: &[usize],
        controls: &[(usize, usize)],
    ) {
        let dim = state.dim();
        let n = state.num_qudits();
        let k = targets.len();
        let block = dim.pow(k as u32);
        assert_eq!(matrix.rows(), block, "matrix size must be dim^k");
        assert_eq!(matrix.cols(), block, "matrix size must be dim^k");
        let mut seen = vec![false; n];
        for &q in targets.iter().chain(controls.iter().map(|(q, _)| q)) {
            assert!(q < n, "qudit index {q} out of range");
            assert!(!seen[q], "repeated qudit index {q}");
            seen[q] = true;
        }

        let t_strides: Vec<usize> = targets
            .iter()
            .map(|&q| dim.pow((n - 1 - q) as u32))
            .collect();
        let offsets = block_offsets(dim, &t_strides);
        let c_strides: Vec<(usize, usize)> = controls
            .iter()
            .map(|&(q, level)| (dim.pow((n - 1 - q) as u32), level))
            .collect();

        let len = state.len();
        let amps = state.amplitudes_mut();
        let mut local = vec![Complex::ZERO; block];

        // The deliberate inefficiency: every flat index is visited and
        // tested for being a group representative with active controls.
        for base in 0..len {
            let is_rep = t_strides.iter().all(|&s| (base / s) % dim == 0);
            if !is_rep {
                continue;
            }
            let active = c_strides
                .iter()
                .all(|&(s, level)| (base / s) % dim == level);
            if !active {
                continue;
            }
            for (b, offset) in offsets.iter().enumerate() {
                local[b] = amps[base + offset];
            }
            for (r, offset) in offsets.iter().enumerate() {
                let mut acc = Complex::ZERO;
                for (c, l) in local.iter().enumerate() {
                    let m = matrix.get(r, c);
                    if m != Complex::ZERO {
                        acc += m * *l;
                    }
                }
                amps[base + offset] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ApplyPlan;
    use qudit_circuit::{Control, Gate, Operation};
    use qudit_core::{gates, StateVector};

    #[test]
    fn single_qudit_gate_on_basis_state() {
        let mut sv = StateVector::from_basis_state(3, &[0, 1]).unwrap();
        ApplyPlan::for_matrix(3, 2, &gates::qutrit::x_plus_1(), &[1]).apply(&mut sv);
        assert!((sv.probability(&[0, 2]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gate_on_most_significant_qudit() {
        let mut sv = StateVector::from_basis_state(3, &[1, 0, 0]).unwrap();
        ApplyPlan::for_matrix(3, 3, &gates::qutrit::x_plus_1(), &[0]).apply(&mut sv);
        assert!((sv.probability(&[2, 0, 0]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_qudit_gate_matches_full_matrix() {
        // Apply CNOT-like controlled increment via matrix on qudits (2,0) of
        // a 3-qutrit register and compare with the flat matrix-vector
        // product on the reordered space.
        let mut sv = StateVector::from_basis_state(3, &[1, 0, 1]).unwrap();
        let g = gates::controlled_matrix(3, 1, &gates::qutrit::x_plus_1());
        ApplyPlan::for_matrix(3, 3, &g, &[2, 0]).apply(&mut sv);
        // Control is qudit 2 (value 1) → target qudit 0 goes 1 → 2.
        assert!((sv.probability(&[2, 0, 1]).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_operation_fast_path_matches_full_matrix_path() {
        use qudit_core::random_state;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let mut rng = StdRng::seed_from_u64(11);
        let psi0 = random_state(3, 4, &mut rng).unwrap();

        let op = Operation::new(
            Gate::increment(3),
            vec![Control::on_two(1), Control::on_one(3)],
            vec![2],
        )
        .unwrap();

        // Fast path.
        let mut fast = psi0.clone();
        ApplyPlan::for_operation(4, &op).apply(&mut fast);

        // Reference path: build the full controlled matrix over qudits
        // (1, 3, 2) and apply it as a plain matrix.
        let full = op.full_matrix();
        let mut slow = psi0;
        ApplyPlan::for_matrix(3, 4, &full, &[1, 3, 2]).apply(&mut slow);

        assert!(fast.fidelity(&slow) > 1.0 - 1e-10);
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-10));
        }
    }

    #[test]
    fn uncontrolled_operation_applies_gate() {
        let op = Operation::uncontrolled(Gate::h(3), vec![0]).unwrap();
        let mut sv = StateVector::zero_state(3, 1).unwrap();
        ApplyPlan::for_operation(1, &op).apply(&mut sv);
        // H acts on levels 0/1 only: amplitudes 1/√2 on |0> and |1>.
        assert!((sv.probability(&[0]).unwrap() - 0.5).abs() < 1e-10);
        assert!((sv.probability(&[1]).unwrap() - 0.5).abs() < 1e-10);
        assert!(sv.probability(&[2]).unwrap() < 1e-12);
    }

    #[test]
    fn norm_is_preserved_by_unitaries() {
        use qudit_core::random_state;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut sv = random_state(3, 3, &mut rng).unwrap();
        ApplyPlan::for_matrix(3, 3, &gates::qutrit::h3(), &[1]).apply(&mut sv);
        let cx = gates::controlled_matrix(3, 2, &gates::qutrit::x01());
        ApplyPlan::for_matrix(3, 3, &cx, &[0, 2]).apply(&mut sv);
        assert!((sv.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_qudit() {
        ApplyPlan::for_matrix(3, 2, &gates::qutrit::x01(), &[5]);
    }

    #[test]
    fn fast_and_naive_agree_on_a_seeded_circuit_fragment() {
        use qudit_core::random_state;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        let psi = random_state(3, 5, &mut rng).unwrap();

        let ops = [
            Operation::uncontrolled(Gate::fourier(3), vec![2]).unwrap(),
            Operation::new(Gate::increment(3), vec![Control::on_two(0)], vec![4]).unwrap(),
            Operation::uncontrolled(Gate::swap(3), vec![1, 3]).unwrap(),
            Operation::new(
                Gate::h(3),
                vec![Control::on_one(1), Control::on_zero(3)],
                vec![0],
            )
            .unwrap(),
        ];

        let mut fast = psi.clone();
        let mut slow = psi;
        for op in &ops {
            ApplyPlan::for_operation(5, op).apply(&mut fast);
            reference::apply_operation_naive(&mut slow, op);
        }
        for (a, b) in fast.amplitudes().iter().zip(slow.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-10));
        }
    }
}

//! The paper's key contribution (Section 4.2, Figure 5): an ancilla-free,
//! logarithmic-depth decomposition of the Generalized Toffoli gate using
//! qutrits.
//!
//! The construction is a binary tree over the controls. Each internal node
//! of the tree is itself one of the control qudits: a three-qutrit gate
//! elevates it to |2⟩ (via `X+1`) iff it was originally |1⟩ and the roots of
//! both child subtrees are |2⟩ (leaf children are checked against their own
//! activation level, normally |1⟩). After `⌈log₂ N⌉` levels the tree root is
//! |2⟩ iff every control is active, a single |2⟩-controlled gate applies the
//! target unitary, and the mirror-image uncomputation restores the controls.
//!
//! Control activations other than |1⟩ are supported (the paper notes the
//! construction "still works in a straightforward fashion when the control
//! type … activates on |2⟩ or |0⟩"), which the incrementer requires:
//! |0⟩-activated controls can serve as internal nodes by using `X02` instead
//! of `X+1`, while |2⟩-activated controls are kept as leaves.

use qudit_circuit::{Circuit, CircuitError, CircuitResult, Control, Gate, Operation};

/// Specification of a multiply-controlled gate: a set of controls (each with
/// its own activation level), one target, and the gate applied to the target
/// when every control is active.
#[derive(Clone, Debug, PartialEq)]
pub struct GeneralizedToffoliSpec {
    /// The control conditions.
    pub controls: Vec<Control>,
    /// The target qudit.
    pub target: usize,
    /// The gate applied to the target when all controls are active.
    pub target_gate: Gate,
}

impl GeneralizedToffoliSpec {
    /// A standard N-controlled X: controls `0..n_controls` activating on |1⟩,
    /// target `n_controls`, gate `X`.
    pub fn n_controlled_x(n_controls: usize) -> Self {
        GeneralizedToffoliSpec {
            controls: (0..n_controls).map(Control::on_one).collect(),
            target: n_controls,
            target_gate: Gate::x(3),
        }
    }

    /// A standard N-controlled Z (used by Grover's diffusion operator).
    pub fn n_controlled_z(n_controls: usize) -> Self {
        GeneralizedToffoliSpec {
            controls: (0..n_controls).map(Control::on_one).collect(),
            target: n_controls,
            target_gate: Gate::z(3),
        }
    }

    /// The circuit width needed (1 + largest qudit index used).
    pub fn min_width(&self) -> usize {
        self.controls
            .iter()
            .map(|c| c.qudit)
            .chain(std::iter::once(self.target))
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }
}

/// Emits the compute half of the control tree into `ops`, returning the
/// summary controls (normally a single |2⟩-activated root) that jointly
/// certify "all controls in this subtree are active".
fn build_tree(controls: &[Control], ops: &mut Vec<Operation>) -> CircuitResult<Vec<Control>> {
    match controls.len() {
        0 => Ok(Vec::new()),
        1 => Ok(vec![controls[0]]),
        _ => {
            // Choose the internal node: the control nearest the middle whose
            // activation is not |2⟩ (a |2⟩-activated control cannot act as a
            // tree root because X+1 would take it out of its marked state).
            let mid = controls.len() / 2;
            let root_idx = (0..controls.len())
                .filter(|&i| controls[i].level != 2)
                .min_by_key(|&i| (i as isize - mid as isize).unsigned_abs());
            let Some(root_idx) = root_idx else {
                // Degenerate case: every control in this subtree activates on
                // |2⟩; no compression is possible, so pass them all upward.
                return Ok(controls.to_vec());
            };
            let root = controls[root_idx];
            let left = build_tree(&controls[..root_idx], ops)?;
            let right = build_tree(&controls[root_idx + 1..], ops)?;
            let mut gate_controls = left;
            gate_controls.extend(right);
            // The elevation gate: X+1 marks a |1⟩-activated root (1 → 2);
            // X02 marks a |0⟩-activated root (0 → 2).
            let gate = match root.level {
                1 => Gate::increment(3),
                0 => Gate::swap_levels(3, 0, 2),
                _ => unreachable!("|2⟩-activated roots are filtered out above"),
            };
            if gate_controls.is_empty() {
                // A lone root with no children cannot occur for len >= 2.
                return Err(CircuitError::InvalidClassicalInput {
                    reason: "internal tree node with no children".to_string(),
                });
            }
            ops.push(Operation::new(gate, gate_controls, vec![root.qudit])?);
            Ok(vec![Control::on_two(root.qudit)])
        }
    }
}

/// Builds the qutrit-tree Generalized Toffoli circuit for the given
/// specification, over a register of `width` qutrits.
///
/// The returned circuit takes qubit (binary) inputs on all controls that
/// activate on |0⟩ or |1⟩, occupies the |2⟩ state only transiently, and
/// restores every control to its input value.
///
/// # Errors
///
/// Returns an error if any qudit index is out of range, indices repeat, or a
/// control level is invalid.
pub fn generalized_toffoli(spec: &GeneralizedToffoliSpec, width: usize) -> CircuitResult<Circuit> {
    let mut circuit = Circuit::new(3, width);
    if spec.controls.is_empty() {
        circuit.push_gate(spec.target_gate.clone(), &[spec.target])?;
        return Ok(circuit);
    }

    let mut compute_ops: Vec<Operation> = Vec::new();
    let summary = build_tree(&spec.controls, &mut compute_ops)?;

    for op in &compute_ops {
        circuit.push(op.clone())?;
    }
    circuit.push_controlled(spec.target_gate.clone(), &summary, &[spec.target])?;
    for op in compute_ops.iter().rev() {
        circuit.push(op.inverse())?;
    }
    Ok(circuit)
}

/// Builds the standard N-controlled-X qutrit-tree circuit on `n_controls + 1`
/// qutrits (controls `0..n_controls`, target `n_controls`).
///
/// # Errors
///
/// Returns an error only if circuit construction fails internally.
pub fn n_controlled_x(n_controls: usize) -> CircuitResult<Circuit> {
    let spec = GeneralizedToffoliSpec::n_controlled_x(n_controls);
    generalized_toffoli(&spec, n_controls + 1)
}

/// Builds the N-controlled-U qutrit-tree circuit with an arbitrary
/// single-qutrit target gate.
///
/// # Errors
///
/// Returns an error if construction fails.
pub fn n_controlled_u(n_controls: usize, target_gate: Gate) -> CircuitResult<Circuit> {
    let spec = GeneralizedToffoliSpec {
        controls: (0..n_controls).map(Control::on_one).collect(),
        target: n_controls,
        target_gate,
    };
    generalized_toffoli(&spec, n_controls + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qudit_circuit::classical::{all_binary_basis_states, simulate_classical};
    use qudit_circuit::{ResourceReport, Schedule};

    fn expected_n_controlled_x(input: &[usize]) -> Vec<usize> {
        let n = input.len() - 1;
        let mut out = input.to_vec();
        if input[..n].iter().all(|&b| b == 1) {
            out[n] = 1 - out[n];
        }
        out
    }

    #[test]
    fn two_controls_reduces_to_figure_4() {
        let c = n_controlled_x(2).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.two_qudit_gate_count(), 3);
    }

    #[test]
    fn exhaustive_verification_up_to_nine_controls() {
        for n in 1..=9usize {
            let c = n_controlled_x(n).unwrap();
            for input in all_binary_basis_states(n + 1) {
                let out = simulate_classical(&c, &input).unwrap();
                assert_eq!(
                    out,
                    expected_n_controlled_x(&input),
                    "mismatch for n={n}, input={input:?}"
                );
            }
        }
    }

    #[test]
    fn outputs_are_always_binary() {
        let c = n_controlled_x(7).unwrap();
        for input in all_binary_basis_states(8) {
            let out = simulate_classical(&c, &input).unwrap();
            assert!(out.iter().all(|&d| d < 2), "leaked |2⟩ for input {input:?}");
        }
    }

    #[test]
    fn fifteen_controls_matches_figure_5_structure() {
        // 15 controls: 7 compute gates + 1 target gate + 7 uncompute gates.
        let c = n_controlled_x(15).unwrap();
        assert_eq!(c.len(), 15);
        // Logical depth is 2·log2(16) + 1 = 9? The tree has 3 levels of
        // three-qutrit gates on each side plus the central gate: depth 7.
        let depth = Schedule::asap(&c).depth();
        assert_eq!(depth, 7, "tree depth for 15 controls");
    }

    #[test]
    fn depth_grows_logarithmically() {
        let mut depths = Vec::new();
        for n in [7usize, 15, 31, 63, 127] {
            let c = n_controlled_x(n).unwrap();
            depths.push(Schedule::asap(&c).depth());
        }
        // Doubling the controls adds a constant number of levels (2: one on
        // the compute side, one on the uncompute side).
        for w in depths.windows(2) {
            assert_eq!(w[1] - w[0], 2, "depths {depths:?}");
        }
    }

    #[test]
    fn gate_count_is_linear_and_about_6n_two_qutrit_gates() {
        for n in [16usize, 32, 64, 128] {
            let c = n_controlled_x(n).unwrap();
            let costs = ResourceReport::measure(&c).physical;
            let two_q = costs.two_qudit_gates as f64;
            // Compute+uncompute have ~n/2 three-qutrit gates each, so with
            // the 6× expansion we expect ≈ 6·n two-qudit gates.
            assert!(
                two_q > 5.0 * n as f64 && two_q < 7.0 * n as f64,
                "n={n}: two-qudit gates {two_q}"
            );
        }
    }

    #[test]
    fn controls_activating_on_zero_work() {
        // 3 controls: q0 activates on |0⟩, q1 and q2 on |1⟩.
        let spec = GeneralizedToffoliSpec {
            controls: vec![Control::on_zero(0), Control::on_one(1), Control::on_one(2)],
            target: 3,
            target_gate: Gate::x(3),
        };
        let c = generalized_toffoli(&spec, 4).unwrap();
        for input in all_binary_basis_states(4) {
            let out = simulate_classical(&c, &input).unwrap();
            let mut expected = input.to_vec();
            if input[0] == 0 && input[1] == 1 && input[2] == 1 {
                expected[3] = 1 - expected[3];
            }
            assert_eq!(out, expected, "input {input:?}");
        }
    }

    #[test]
    fn controls_activating_on_two_work_as_leaves() {
        // q0 activates on |2⟩ (as the incrementer needs). Feed it ternary
        // inputs directly.
        let spec = GeneralizedToffoliSpec {
            controls: vec![Control::on_two(0), Control::on_one(1), Control::on_one(2)],
            target: 3,
            target_gate: Gate::x(3),
        };
        let c = generalized_toffoli(&spec, 4).unwrap();
        for q0 in 0..3usize {
            for q1 in 0..2usize {
                for q2 in 0..2usize {
                    for t in 0..2usize {
                        let input = vec![q0, q1, q2, t];
                        let out = simulate_classical(&c, &input).unwrap();
                        let mut expected = input.clone();
                        if q0 == 2 && q1 == 1 && q2 == 1 {
                            expected[3] = 1 - expected[3];
                        }
                        assert_eq!(out, expected, "input {input:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn arbitrary_target_gate_is_applied() {
        let c = n_controlled_u(3, Gate::increment(3)).unwrap();
        let out = simulate_classical(&c, &[1, 1, 1, 1]).unwrap();
        assert_eq!(out, vec![1, 1, 1, 2], "X+1 applied to the target");
        let out = simulate_classical(&c, &[1, 0, 1, 1]).unwrap();
        assert_eq!(out, vec![1, 0, 1, 1]);
    }

    #[test]
    fn zero_controls_is_just_the_gate() {
        let spec = GeneralizedToffoliSpec {
            controls: vec![],
            target: 0,
            target_gate: Gate::x(3),
        };
        let c = generalized_toffoli(&spec, 1).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(simulate_classical(&c, &[0]).unwrap(), vec![1]);
    }

    #[test]
    fn statevector_agrees_with_classical_for_medium_width() {
        use qudit_sim::Simulator;
        let c = n_controlled_x(5).unwrap();
        let sim = Simulator::new();
        for input in all_binary_basis_states(6) {
            let expected = simulate_classical(&c, &input).unwrap();
            let out = sim.run_on_basis_state(&c, &input).unwrap();
            assert!(
                (out.probability(&expected).unwrap() - 1.0).abs() < 1e-9,
                "input {input:?}"
            );
        }
    }

    #[test]
    fn min_width_accounts_for_all_qudits() {
        let spec = GeneralizedToffoliSpec::n_controlled_x(4);
        assert_eq!(spec.min_width(), 5);
    }
}

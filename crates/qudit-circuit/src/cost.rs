//! Circuit cost analysis.
//!
//! The paper evaluates constructions by two costs (Section 2): the circuit
//! *depth* (critical path length, i.e. number of moments) and the gate
//! counts, in particular the number of two-qudit gates (Figure 10). The
//! paper's tree construction is expressed in three-qutrit gates which are
//! each implemented as 6 two-qutrit + 7 single-qutrit physical gates; the
//! crate-private `CostWeights` captures that expansion so costs can be
//! reported at physical-gate granularity. The one public producer of these
//! numbers is [`ResourceReport`](crate::ResourceReport), whose `logical`
//! and `physical` columns are [`CircuitCosts`] computed here.

use crate::circuit::Circuit;
use crate::schedule::Schedule;

/// How to expand operations of each arity into physical one- and two-qudit
/// gates when accounting costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct CostWeights {
    /// Physical two-qudit gates charged per three-qudit operation.
    two_qudit_per_three_qudit_op: usize,
    /// Physical single-qudit gates charged per three-qudit operation.
    one_qudit_per_three_qudit_op: usize,
    /// Depth (in physical moments) charged per three-qudit operation.
    depth_per_three_qudit_op: usize,
}

impl CostWeights {
    /// The paper's accounting: each three-qutrit gate is decomposed into
    /// 6 two-qutrit and 7 single-qutrit gates (Di & Wei \[15\]); we charge the
    /// decomposition a depth of 6 two-qudit layers (the single-qudit gates
    /// interleave with them).
    pub(crate) fn di_wei() -> Self {
        CostWeights {
            two_qudit_per_three_qudit_op: 6,
            one_qudit_per_three_qudit_op: 7,
            depth_per_three_qudit_op: 6,
        }
    }

    /// No expansion: three-qudit operations are counted as single gates of
    /// depth 1 (useful for reasoning about the logical circuit itself).
    pub(crate) fn logical() -> Self {
        CostWeights {
            two_qudit_per_three_qudit_op: 1,
            one_qudit_per_three_qudit_op: 0,
            depth_per_three_qudit_op: 1,
        }
    }
}

/// A summary of a circuit's resource costs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitCosts {
    /// Register width (number of qudits).
    pub width: usize,
    /// Total operation count at logical granularity.
    pub total_ops: usize,
    /// Number of single-qudit physical gates after expansion.
    pub one_qudit_gates: usize,
    /// Number of two-qudit physical gates after expansion.
    pub two_qudit_gates: usize,
    /// Number of logical operations touching three or more qudits (before
    /// expansion).
    pub three_plus_qudit_ops: usize,
    /// Logical depth: number of moments with operations counted as-is.
    pub logical_depth: usize,
    /// Physical depth: logical depth with each ≥3-qudit moment expanded by
    /// the configured weight.
    pub physical_depth: usize,
}

/// Computes the costs of a circuit under the given expansion weights.
pub(crate) fn analyze(circuit: &Circuit, weights: CostWeights) -> CircuitCosts {
    let schedule = Schedule::asap(circuit);
    let logical_depth = schedule.depth();

    let mut one_q = 0usize;
    let mut two_q = 0usize;
    let mut three_plus = 0usize;
    for op in circuit.iter() {
        match op.arity() {
            0 => {}
            1 => one_q += 1,
            2 => two_q += 1,
            _ => {
                three_plus += 1;
                two_q += weights.two_qudit_per_three_qudit_op;
                one_q += weights.one_qudit_per_three_qudit_op;
            }
        }
    }

    // Physical depth: each moment contributes 1 if it only has 1- or 2-qudit
    // gates, or the expansion depth if it contains a ≥3-qudit operation.
    let mut physical_depth = 0usize;
    for (m, op_indices) in schedule.iter() {
        let _ = m;
        let has_three = op_indices
            .iter()
            .any(|&i| circuit.operations()[i].arity() >= 3);
        physical_depth += if has_three {
            weights.depth_per_three_qudit_op
        } else {
            1
        };
    }

    CircuitCosts {
        width: circuit.width(),
        total_ops: circuit.len(),
        one_qudit_gates: one_q,
        two_qudit_gates: two_q,
        three_plus_qudit_ops: three_plus,
        logical_depth,
        physical_depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::operation::Control;

    fn three_qutrit_op_circuit() -> Circuit {
        let mut c = Circuit::new(3, 3);
        c.push_controlled(
            Gate::increment(3),
            &[Control::on_one(0), Control::on_two(1)],
            &[2],
        )
        .unwrap();
        c
    }

    #[test]
    fn logical_weights_do_not_expand() {
        let c = three_qutrit_op_circuit();
        let costs = analyze(&c, CostWeights::logical());
        assert_eq!(costs.two_qudit_gates, 1);
        assert_eq!(costs.one_qudit_gates, 0);
        assert_eq!(costs.physical_depth, 1);
        assert_eq!(costs.three_plus_qudit_ops, 1);
    }

    #[test]
    fn di_wei_weights_expand_three_qutrit_ops() {
        let c = three_qutrit_op_circuit();
        let costs = analyze(&c, CostWeights::di_wei());
        assert_eq!(costs.two_qudit_gates, 6);
        assert_eq!(costs.one_qudit_gates, 7);
        assert_eq!(costs.physical_depth, 6);
    }

    #[test]
    fn mixed_circuit_counts() {
        let mut c = three_qutrit_op_circuit();
        c.push_gate(Gate::x(3), &[0]).unwrap();
        c.push_controlled(Gate::x(3), &[Control::on_one(1)], &[2])
            .unwrap();
        let costs = analyze(&c, CostWeights::di_wei());
        assert_eq!(costs.total_ops, 3);
        assert_eq!(costs.one_qudit_gates, 7 + 1);
        assert_eq!(costs.two_qudit_gates, 6 + 1);
        // Moment 1: the 3-qutrit op (depth 6). Moment 2: X(0) and C X(1;2)
        // run in parallel (depth 1).
        assert_eq!(costs.logical_depth, 2);
        assert_eq!(costs.physical_depth, 7);
    }

    #[test]
    fn empty_circuit_has_zero_costs() {
        let c = Circuit::new(3, 4);
        let costs = analyze(&c, CostWeights::di_wei());
        assert_eq!(costs.total_ops, 0);
        assert_eq!(costs.physical_depth, 0);
        assert_eq!(costs.two_qudit_gates, 0);
    }
}

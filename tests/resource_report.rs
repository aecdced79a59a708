//! Golden tests: the `ResourceReport` analyzer must reproduce the resource
//! numbers the paper reports for its constructions — the depth and
//! two-qudit-count columns behind Tables 2–3's simulated circuits and the
//! Figure 9/10 series.
//!
//! The values are pinned exactly (they are structural, not statistical):
//! a drift in the scheduler, the Di & Wei expansion or the constructions
//! themselves fails this suite.

use qudit_circuit::passes::{compile, PassLevel};
use qudit_circuit::{KernelClass, ResourceReport};
use qutrit_toffoli::gen_toffoli::n_controlled_x;
use qutrit_toffoli::incrementer::incrementer;

#[test]
fn fig4_toffoli_resources_match_the_paper() {
    // Tables 2–3's reference fidelity circuit: the Figure 4 Toffoli —
    // three two-qutrit gates, depth 3, no single-qudit gates, no ancilla.
    let report = ResourceReport::measure(&n_controlled_x(2).unwrap());
    assert_eq!(report.total_ops(), 3);
    assert_eq!(report.two_qudit_gates(), 3);
    assert_eq!(report.physical.one_qudit_gates, 0);
    assert_eq!(report.depth(), 3);
    assert_eq!(report.logical_depth(), 3);
    // All three gates are classical permutations: the cheap kernel path.
    assert_eq!(report.kernels.permutation, 3);
    assert_eq!(report.kernels.dense, 0);
}

#[test]
fn n_controlled_x_15_resources_match_the_paper() {
    // Figure 5's binary tree over 15 controls: 7 compute + 1 central +
    // 7 uncompute operations; all 14 tree ops are three-qutrit gates.
    let report = ResourceReport::measure(&n_controlled_x(15).unwrap());
    assert_eq!(report.total_ops(), 15);
    assert_eq!(report.logical_depth(), 7, "2·log2(16) - 1 tree levels");
    // Di & Wei: 14 three-qutrit ops × 6 + the central two-qutrit gate.
    assert_eq!(report.two_qudit_gates(), 14 * 6 + 1);
    // Physical depth: 6 tree moments × 6 + the central moment.
    assert_eq!(report.depth(), 6 * 6 + 1);
    // The paper's ~6N two-qudit model (Figure 10) at N = 15.
    let model = 6.0 * 15.0;
    let measured = report.two_qudit_gates() as f64;
    assert!(
        (measured - model).abs() / model < 0.1,
        "measured {measured} vs ~6N model {model}"
    );
}

#[test]
fn n_controlled_x_depth_column_is_logarithmic() {
    // The Figure 9 depth column: doubling the controls adds a constant
    // 12 physical layers (one tree level of Di & Wei-expanded moments on
    // each side).
    let depths: Vec<usize> = [7usize, 15, 31, 63]
        .iter()
        .map(|&n| ResourceReport::measure(&n_controlled_x(n).unwrap()).depth())
        .collect();
    assert_eq!(depths, vec![25, 37, 49, 61]);
}

#[test]
fn incrementer_8_resources_are_pinned() {
    // The Section 5.3 ancilla-free incrementer at 8 bits. Structural
    // goldens for our construction: 28 logical ops, 46 physical two-qudit
    // gates, physical depth 39 (log²-depth scaling).
    let report = ResourceReport::measure(&incrementer(8).unwrap());
    assert_eq!(report.total_ops(), 28);
    assert_eq!(report.two_qudit_gates(), 46);
    assert_eq!(report.depth(), 39);
    // Every gate in the incrementer is classical.
    assert_eq!(
        report.kernels.permutation,
        report.total_ops(),
        "incrementer must be all-permutation: {:?}",
        report.kernels
    );
}

#[test]
fn lowered_n_controlled_x_15_reproduces_the_inferred_goldens() {
    // The cutover pin: the *measured* resources of the physically lowered
    // circuit must equal what the virtual accounting (six two-qudit layers
    // per ≥3-qudit moment) and the Di & Wei cost weights have always
    // inferred — 85 two-qudit gates and physical depth
    // 37 for nCX(15) (14 tree ops × 6 + the central gate; 6 tree moments
    // × 6 layers + 1).
    let circuit = n_controlled_x(15).unwrap();
    let ir = compile(&circuit, PassLevel::Physical);
    let lowered = ir.circuit();
    assert!(lowered.iter().all(|op| op.arity() <= 2));
    assert_eq!(lowered.iter().filter(|op| op.arity() == 2).count(), 85);
    assert_eq!(lowered.iter().filter(|op| op.arity() == 1).count(), 14 * 7);
    assert_eq!(ir.frames().unwrap().physical_depth(), 37);

    // The measured report and the inferred report agree column for column.
    let measured = ResourceReport::measure_physical(&circuit);
    let inferred = ResourceReport::measure(&circuit);
    assert_eq!(measured.two_qudit_gates(), inferred.two_qudit_gates());
    assert_eq!(measured.depth(), inferred.depth());
    assert_eq!(
        measured.physical.one_qudit_gates,
        inferred.physical.one_qudit_gates
    );
    assert_eq!(measured.total_ops(), 15, "logical op count is unchanged");
}

#[test]
fn lowered_incrementer_8_reproduces_the_inferred_goldens() {
    // incrementer(8): 46 physical two-qudit gates, physical depth 39 —
    // measured on the lowered circuit, equal to the inferred values.
    let circuit = incrementer(8).unwrap();
    let ir = compile(&circuit, PassLevel::Physical);
    assert_eq!(ir.circuit().iter().filter(|op| op.arity() == 2).count(), 46);
    assert_eq!(ir.frames().unwrap().physical_depth(), 39);

    let measured = ResourceReport::measure_physical(&circuit);
    assert_eq!(measured.two_qudit_gates(), 46);
    assert_eq!(measured.depth(), 39);
    assert_eq!(measured.total_ops(), 28);
    let inferred = ResourceReport::measure(&circuit);
    assert_eq!(measured.two_qudit_gates(), inferred.two_qudit_gates());
    assert_eq!(measured.depth(), inferred.depth());
    assert_eq!(
        measured.physical.one_qudit_gates,
        inferred.physical.one_qudit_gates
    );
}

#[test]
fn lowered_depth_column_matches_the_inferred_logarithmic_series() {
    // The Figure 9 depth column, measured on real lowered circuits.
    let depths: Vec<usize> = [7usize, 15, 31]
        .iter()
        .map(|&n| ResourceReport::measure_physical(&n_controlled_x(n).unwrap()).depth())
        .collect();
    assert_eq!(depths, vec![25, 37, 49]);
}

#[test]
fn arity_four_inferred_and_measured_columns_diverge_as_documented() {
    // Lowering at high arity: the flat Di & Wei weights charge every
    // >=3-arity op as one three-qutrit expansion (6 two-qudit gates), but
    // recursively lowering a 4-arity op (3 controls + a target) really
    // emits 14 two-qudit gates. `measure` reports the flat inference and
    // `measure_physical` the faithful physical numbers — both sides are
    // pinned so neither silently drifts toward the other, and the routed
    // column starts out absent on an unrouted report.
    use qudit_circuit::{Circuit, Control, Gate};
    let mut circuit = Circuit::new(3, 4);
    circuit
        .push_controlled(
            Gate::increment(3),
            &[Control::on_one(0), Control::on_one(1), Control::on_one(2)],
            &[3],
        )
        .unwrap();

    let inferred = ResourceReport::measure(&circuit);
    assert_eq!(
        inferred.two_qudit_gates(),
        6,
        "flat model: one 6-gate expansion"
    );

    let measured = ResourceReport::measure_physical(&circuit);
    assert_eq!(
        measured.two_qudit_gates(),
        14,
        "recursion: 2 arity-3 commutator factors x 6 + 2 direct two-qudit ops"
    );
    assert!(measured.two_qudit_gates() > inferred.two_qudit_gates());
    assert!(measured.routed.is_none() && inferred.routed.is_none());
}

#[test]
fn physical_ideal_level_shrinks_lowered_circuits() {
    // Optimization across decomposition boundaries: identity padding and
    // det-1 phase gates vanish, diagonal-commutation cancellation fires.
    let circuit = n_controlled_x(15).unwrap();
    let physical = compile(&circuit, PassLevel::Physical);
    let optimized = compile(&circuit, PassLevel::PhysicalIdeal);
    assert!(
        optimized.circuit().len() < physical.circuit().len(),
        "{} -> {} ops",
        physical.circuit().len(),
        optimized.circuit().len()
    );
    assert!(optimized.report().post.depth() < physical.report().post.depth());
}

#[test]
fn kernel_histogram_totals_match_op_count() {
    for circuit in [
        n_controlled_x(7).unwrap(),
        incrementer(6).unwrap(),
        qutrit_toffoli::grover::grover_circuit(3, 2, 2).unwrap(),
    ] {
        let report = ResourceReport::measure(&circuit);
        let k = report.kernels;
        assert_eq!(
            k.identity + k.permutation + k.diagonal + k.dense,
            report.total_ops()
        );
    }
}

#[test]
fn grover_central_gates_are_tagged_diagonal() {
    // Grover's multiply-controlled Z trees end in a |2⟩-controlled Z —
    // a diagonal gate the specialization pass must tag so the simulator
    // takes the diagonal kernel.
    let circuit = qutrit_toffoli::grover::grover_circuit(3, 5, 1).unwrap();
    let report = ResourceReport::measure(&circuit);
    assert!(
        report.kernels.diagonal >= 2,
        "expected the two phase-flip Z gates to be diagonal: {:?}",
        report.kernels
    );
    let tagged: Vec<KernelClass> = circuit.iter().map(KernelClass::of_operation).collect();
    assert!(tagged.contains(&KernelClass::Diagonal));
}

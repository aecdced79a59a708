//! Differential harness for the topology-aware routing pass.
//!
//! Routing changes *where* every gate executes (a placement of logical
//! qudits onto hardware sites plus inserted qudit-SWAPs), never *what* the
//! circuit computes. Three properties pin the pass:
//!
//! 1. **Unitary preservation modulo the recorded permutations:** for any
//!    circuit and topology, embedding the input through the initial
//!    placement, running the routed circuit, and undoing the final mapping
//!    yields the same state the unrouted compilation produces — on the
//!    paper's constructions and on random circuits over `d ∈ {2, 3}` for
//!    every topology family (linear, ring, grid, heavy-hex).
//! 2. **Identity on routable circuits:** routing on an all-to-all topology
//!    — or on any topology under which the circuit is already
//!    nearest-neighbour — is an op-list identity: zero SWAPs, untouched
//!    operations, identity placement.
//! 3. **Accounting neutrality:** the exact density-matrix backend reports
//!    the same fidelity for routed and unrouted runs of the fig4 Toffoli
//!    (which routes SWAP-free on a 3-site line or ring) under **every**
//!    noise model of the paper, to ≤ 1e-9.

use proptest::prelude::*;
use qudit_api::{BackendKind, Executor, InputState, JobSpec};
use qudit_circuit::passes::{compile, compile_with_topology, PassLevel};
use qudit_circuit::{Circuit, Control, Gate, Operation, Topology};
use qudit_core::{random_state, StateVector};
use qudit_noise::models;
use qudit_sim::{reference, CompiledCircuit};
use qutrit_toffoli::gen_toffoli::n_controlled_x;
use qutrit_toffoli::incrementer::incrementer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UNITARY_TOL: f64 = 1e-9;
const FIDELITY_TOL: f64 = 1e-9;

fn invert(map: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; map.len()];
    for (q, &site) in map.iter().enumerate() {
        inv[site] = q;
    }
    inv
}

/// The differential check: the routed compilation, conjugated by its own
/// recorded placement/final-mapping permutations, must act on states exactly
/// like the unrouted compilation at the same pass level.
fn assert_routing_preserves_unitary(
    circuit: &Circuit,
    topology: &Topology,
    level: PassLevel,
    state: &StateVector,
) {
    let routed_ir = compile_with_topology(circuit, level, Some(topology));
    let summary = routed_ir
        .routing()
        .expect("a topology-compiled IR records its routing summary")
        .clone();
    assert_eq!(summary.unrouted, 0, "every interaction must be routed");
    // Every multi-qudit op of the routed circuit acts on adjacent sites.
    for op in routed_ir.circuit().iter() {
        let qudits = op.qudits();
        for a in 0..qudits.len() {
            for b in (a + 1)..qudits.len() {
                assert!(
                    topology.is_adjacent(qudits[a], qudits[b]),
                    "routed op on non-adjacent sites {} and {} ({topology})",
                    qudits[a],
                    qudits[b]
                );
            }
        }
    }

    let embedded = state.permute_qudits(&summary.placement).unwrap();
    let routed_out = CompiledCircuit::compile_ir(&routed_ir).run(embedded);
    let unembedded = routed_out
        .permute_qudits(&invert(&summary.final_mapping))
        .unwrap();

    let unrouted_ir = compile(circuit, level);
    let want = CompiledCircuit::compile_ir(&unrouted_ir).run(state.clone());

    for (i, (a, b)) in unembedded
        .amplitudes()
        .iter()
        .zip(want.amplitudes())
        .enumerate()
    {
        assert!(
            a.approx_eq(*b, UNITARY_TOL),
            "amplitude {i} differs on {topology}: {a:?} vs {b:?}"
        );
    }
}

/// A random circuit mixing single-qudit, two-qudit and (optionally)
/// two-control operations across the full width — interactions land on
/// arbitrary qudit pairs, so any bounded-degree topology needs SWAPs.
fn random_circuit(dim: usize, width: usize, ops: usize, rng: &mut StdRng) -> Circuit {
    random_circuit_with(dim, width, ops, true, rng)
}

/// `high_arity = false` keeps every op at arity ≤ 2 — required when routing
/// *without* a lowering pass (the Ideal level) on a triangle-free topology
/// like heavy-hex, where a 3-qudit op has no clique of sites to land on.
fn random_circuit_with(
    dim: usize,
    width: usize,
    ops: usize,
    high_arity: bool,
    rng: &mut StdRng,
) -> Circuit {
    let mut circuit = Circuit::new(dim, width);
    for _ in 0..ops {
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
        match rng.gen_range(0..4) {
            0 => circuit
                .push(Operation::new(gate, vec![], vec![qudits[0]]).unwrap())
                .unwrap(),
            // Two-control ops exercise the pipeline ordering: decomposition
            // lowers them to two-qudit blocks *before* routing sees them.
            1 if high_arity && width >= 3 => circuit
                .push_controlled(
                    gate,
                    &[
                        Control::new(qudits[0], rng.gen_range(0..dim)),
                        Control::new(qudits[1], rng.gen_range(0..dim)),
                    ],
                    &[qudits[2]],
                )
                .unwrap(),
            _ => circuit
                .push_controlled(
                    gate,
                    &[Control::new(qudits[0], rng.gen_range(0..dim))],
                    &[qudits[1]],
                )
                .unwrap(),
        };
    }
    circuit
}

/// Every topology family at a circuit-friendly small width.
fn topologies_for(width: usize) -> Vec<Topology> {
    let mut out = vec![
        Topology::linear(width).unwrap(),
        Topology::ring(width).unwrap(),
    ];
    match width {
        4 => out.push(Topology::grid(2, 2).unwrap()),
        6 => {
            out.push(Topology::grid(2, 3).unwrap());
            out.push(Topology::grid(3, 2).unwrap());
        }
        _ => {}
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random circuits over d ∈ {2, 3} on every small topology family:
    /// routed ∘ placement⁻¹ ≡ unrouted, at the physical level (routing
    /// after lowering) on random states.
    #[test]
    fn routed_random_circuits_match_unrouted(seed in 0u64..1_000_000, dim in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(4..7);
        let circuit = random_circuit(dim, width, rng.gen_range(2..5), &mut rng);
        let state = random_state(dim, width, &mut rng).unwrap();
        for topology in topologies_for(width) {
            assert_routing_preserves_unitary(&circuit, &topology, PassLevel::Physical, &state);
        }
    }

    /// The heavy-hex family at its smallest cell count (12 sites), d = 2 so
    /// the differential replay stays fast in a debug run.
    #[test]
    fn routed_heavy_hex_circuits_match_unrouted(seed in 0u64..1_000_000) {
        let topology = Topology::heavy_hex(1).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let circuit =
            random_circuit_with(2, topology.sites(), rng.gen_range(2..5), false, &mut rng);
        let state = random_state(2, topology.sites(), &mut rng).unwrap();
        assert_routing_preserves_unitary(&circuit, &topology, PassLevel::Ideal, &state);
    }

    /// The routing pass's SWAP primitive itself, pinned at d = 3: applying
    /// `Gate::swap(3)` to qudits (i, j) of a random state equals relabeling
    /// those qudits — on *any* state, not just basis states.
    #[test]
    fn qudit_swap_gate_relabels_qutrits(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(2..5);
        let i = rng.gen_range(0..width);
        let j = (i + rng.gen_range(1..width)) % width;
        let state = random_state(3, width, &mut rng).unwrap();

        let mut swapped = state.clone();
        let op = Operation::new(Gate::swap(3), vec![], vec![i, j]).unwrap();
        reference::apply_operation_naive(&mut swapped, &op);

        let mut transposition: Vec<usize> = (0..width).collect();
        transposition.swap(i, j);
        let relabeled = state.permute_qudits(&transposition).unwrap();
        for (a, b) in swapped.amplitudes().iter().zip(relabeled.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-12), "{a:?} vs {b:?}");
        }
    }

    /// A circuit that is already nearest-neighbour on a line routes with
    /// zero SWAPs, an identity placement, and an untouched op list.
    #[test]
    fn already_routable_circuits_route_with_zero_swaps(seed in 0u64..1_000_000, dim in 2usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(3..7);
        let mut circuit = Circuit::new(dim, width);
        for _ in 0..rng.gen_range(2..6) {
            let a = rng.gen_range(0..width - 1);
            circuit
                .push_controlled(
                    Gate::x(dim),
                    &[Control::new(a, rng.gen_range(0..dim))],
                    &[a + 1],
                )
                .unwrap();
        }
        let topology = Topology::linear(width).unwrap();
        let routed = compile_with_topology(&circuit, PassLevel::Ideal, Some(&topology));
        let summary = routed.routing().unwrap();
        prop_assert!(summary.is_identity());
        prop_assert_eq!(summary.inserted_swaps, 0);
        prop_assert_eq!(routed.report().post.routed.unwrap().inserted_swaps, 0);
        let unrouted = compile(&circuit, PassLevel::Ideal);
        prop_assert_eq!(
            routed.circuit().operations(),
            unrouted.circuit().operations()
        );
    }
}

#[test]
fn routing_on_all_to_all_is_an_op_list_identity() {
    // Property 2 at the pipeline level: every level, two constructions and
    // a generic random circuit — all-to-all routing must not reorder,
    // rewrite or pad a single operation.
    let mut rng = StdRng::seed_from_u64(7);
    let circuits = vec![
        n_controlled_x(3).unwrap(),
        incrementer(5).unwrap(),
        random_circuit(3, 5, 4, &mut rng),
    ];
    for circuit in circuits {
        let topology = Topology::all_to_all(circuit.width()).unwrap();
        for level in [
            PassLevel::Ideal,
            PassLevel::Physical,
            PassLevel::PhysicalIdeal,
            PassLevel::NoisePreserving,
        ] {
            let routed = compile_with_topology(&circuit, level, Some(&topology));
            let unrouted = compile(&circuit, level);
            assert!(routed.routing().unwrap().is_identity());
            assert_eq!(
                routed.circuit().operations(),
                unrouted.circuit().operations(),
                "{level:?} op lists diverged"
            );
            assert_eq!(routed.report().post.routed.unwrap().inserted_swaps, 0);
        }
    }
}

#[test]
fn routed_paper_constructions_match_unrouted() {
    // The fixed acceptance circuits on every topology family their widths
    // fit (the smallest heavy-hex lattice has 12 sites — none of these
    // constructions reach it; the heavy-hex proptest above covers that
    // family).
    let mut rng = StdRng::seed_from_u64(2019);
    let cases: Vec<(&str, Circuit)> = vec![
        ("fig4-toffoli", n_controlled_x(2).unwrap()),
        ("n-controlled-x(3)", n_controlled_x(3).unwrap()),
        ("incrementer(5)", incrementer(5).unwrap()),
    ];
    for (name, circuit) in cases {
        let width = circuit.width();
        let all_ones = StateVector::from_basis_state(3, &vec![1usize; width]).unwrap();
        let random = random_state(3, width, &mut rng).unwrap();
        for topology in topologies_for(width) {
            for state in [&all_ones, &random] {
                assert_routing_preserves_unitary(&circuit, &topology, PassLevel::Physical, state);
            }
        }
        // Keep the name in the assertion path for debuggability.
        let _ = name;
    }
}

#[test]
fn star_smoke_on_a_d3_heavy_hex_lattice() {
    // One fixed qutrit case on the 12-site heavy-hex cell: a star over 5
    // qudits needs a degree-4 hub, which a degree-≤3 lattice cannot offer —
    // SWAPs are unavoidable. Compiled-vs-compiled replay (3^12 amplitudes
    // makes the naive oracle too slow for a debug run).
    let topology = Topology::heavy_hex(1).unwrap();
    let mut circuit = Circuit::new(3, topology.sites());
    for q in 1..5 {
        circuit
            .push_controlled(Gate::x(3), &[Control::on_one(0)], &[q])
            .unwrap();
    }
    let routed = compile_with_topology(&circuit, PassLevel::Ideal, Some(&topology));
    let summary = routed.routing().unwrap().clone();
    assert!(
        summary.inserted_swaps > 0,
        "a degree-4 hub cannot embed in a degree-3 lattice"
    );

    let mut digits = vec![0usize; topology.sites()];
    digits[0] = 1;
    let state = StateVector::from_basis_state(3, &digits).unwrap();
    let embedded = state.permute_qudits(&summary.placement).unwrap();
    let routed_out = CompiledCircuit::compile_ir(&routed)
        .run(embedded)
        .permute_qudits(&invert(&summary.final_mapping))
        .unwrap();
    let want = CompiledCircuit::compile_ir(&compile(&circuit, PassLevel::Ideal)).run(state);
    for (a, b) in routed_out.amplitudes().iter().zip(want.amplitudes()) {
        assert!(a.approx_eq(*b, UNITARY_TOL), "{a:?} vs {b:?}");
    }
}

#[test]
fn routed_fig4_exact_fidelity_matches_unrouted_for_every_model() {
    // Accounting neutrality: fig4's gates touch (0,1), (1,2), (0,1) —
    // nearest-neighbour on a 3-site line or ring — so routing must leave
    // the compiled circuit (and with it the exact-backend fidelity under
    // every noise model) untouched to well under 1e-9.
    let executor = Executor::new();
    for topology in [Topology::linear(3).unwrap(), Topology::ring(3).unwrap()] {
        for model in models::all_models() {
            let leg = |topology: Option<Topology>| {
                let mut builder = JobSpec::builder(n_controlled_x(2).unwrap())
                    .backend(BackendKind::DensityMatrix)
                    .noise(model.clone())
                    .trials(1)
                    .input(InputState::AllOnes);
                if let Some(t) = topology {
                    builder = builder.topology(t);
                }
                executor.run(&builder.build().unwrap()).unwrap()
            };
            let unrouted = leg(None).fidelity().unwrap().mean;
            let routed = leg(Some(topology.clone())).fidelity().unwrap().mean;
            assert!(
                (routed - unrouted).abs() <= FIDELITY_TOL,
                "{topology}/{}: routed {routed:.12} vs unrouted {unrouted:.12}",
                model.name
            );
        }
    }
}

#[test]
fn genuinely_routed_noisy_job_charges_the_inserted_swaps() {
    // A star interaction graph cannot embed in a line: routing inserts
    // SWAPs, and the exact backend must charge their error sites — the
    // routed fidelity is strictly below the all-to-all fidelity.
    let mut circuit = Circuit::new(3, 4);
    for q in 1..4 {
        circuit
            .push_controlled(Gate::x(3), &[Control::on_one(0)], &[q])
            .unwrap();
    }
    let executor = Executor::new();
    let leg = |topology: Option<Topology>| {
        let mut builder = JobSpec::builder(circuit.clone())
            .backend(BackendKind::DensityMatrix)
            .noise(models::sc_t1_gates())
            .trials(1)
            .input(InputState::AllOnes);
        if let Some(t) = topology {
            builder = builder.topology(t);
        }
        executor.run(&builder.build().unwrap()).unwrap()
    };
    let unrouted = leg(None);
    let routed = leg(Some(Topology::linear(4).unwrap()));
    let swaps = routed.resources.routed.unwrap().inserted_swaps;
    assert!(swaps > 0, "the star circuit must need SWAPs on a line");
    assert!(
        routed.fidelity().unwrap().mean < unrouted.fidelity().unwrap().mean,
        "inserted SWAPs must cost fidelity: routed {} vs unrouted {}",
        routed.fidelity().unwrap().mean,
        unrouted.fidelity().unwrap().mean
    );
}

#[test]
fn relabeling_only_routing_still_records_frames() {
    // incrementer(4) embeds in a 2x2 grid with zero SWAPs but a
    // non-identity placement: routing rewrites the op list (relabeling
    // qudits onto sites) without changing its length. The rewrite
    // invalidates the lowering's frames, and the compiler must re-derive
    // them from the routed circuit — the noise backends panic on a
    // Physical IR without frames. Regression test for exactly that panic.
    let circuit = incrementer(4).unwrap();
    let topology = Topology::grid(2, 2).unwrap();
    let ir = compile_with_topology(&circuit, PassLevel::Physical, Some(&topology));
    let summary = ir.routing().expect("routing summary");
    assert_eq!(
        summary.inserted_swaps, 0,
        "incrementer(4) embeds in the grid"
    );
    assert!(
        !summary.is_identity(),
        "the embedding permutes the register"
    );
    assert!(
        ir.frames().is_some(),
        "a relabeled Physical IR must still carry its frame partition"
    );

    // And the full noisy path the panic surfaced on: an exact-backend job
    // routed for the grid runs and matches the unrouted fidelity (zero
    // SWAPs means no extra error sites).
    let executor = Executor::new();
    let leg = |topology: Option<Topology>| {
        let mut builder = JobSpec::builder(circuit.clone())
            .backend(BackendKind::DensityMatrix)
            .noise(models::sc_t1_gates())
            .trials(1)
            .input(InputState::AllOnes);
        if let Some(t) = topology {
            builder = builder.topology(t);
        }
        executor.run(&builder.build().unwrap()).unwrap()
    };
    let unrouted = leg(None).fidelity().unwrap().mean;
    let routed = leg(Some(topology)).fidelity().unwrap().mean;
    assert!(
        (routed - unrouted).abs() <= FIDELITY_TOL,
        "zero-SWAP routing must not change the fidelity: {routed:.12} vs {unrouted:.12}"
    );
}

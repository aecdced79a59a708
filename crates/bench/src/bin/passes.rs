//! Pre/post compile resource report for the paper constructions.
//!
//! Compiles each construction at the `Ideal` level (cancellation and
//! same-support fusion, repeated until a round removes nothing) and prints
//! what the transformation bought: kernel invocations (total ops),
//! two-qudit gate count and depth before and after; then the same table
//! for the `Physical` lowering (Di & Wei blocks in the IR — the goldens 85
//! two-qudit/depth 37 for nCX(15)) and for `PhysicalIdeal` (optimization
//! *across* decomposition boundaries). The noise-preserving level is also
//! run to demonstrate it is the identity transformation (noisy fidelity
//! semantics cannot drift). `--verbose` adds each compile's report with
//! its per-step statistics. CI diffs the default stdout against
//! `tests/golden/passes.txt`.
//!
//! Usage: `cargo run --release -p bench --bin passes [-- --verbose]`

use qudit_circuit::passes::{compile, PassLevel};
use qudit_circuit::Circuit;
use qutrit_toffoli::gen_toffoli::n_controlled_x;
use qutrit_toffoli::grover::{grover_circuit, optimal_iterations};
use qutrit_toffoli::incrementer::incrementer;

fn cases() -> Vec<(String, Circuit)> {
    vec![
        (
            "fig4-toffoli (2 controls)".to_string(),
            n_controlled_x(2).expect("construction"),
        ),
        (
            "n-controlled-x (15 controls)".to_string(),
            n_controlled_x(15).expect("construction"),
        ),
        (
            "incrementer (8 bits)".to_string(),
            incrementer(8).expect("construction"),
        ),
        (
            "grover (4 qubits, optimal iters)".to_string(),
            grover_circuit(4, 11, optimal_iterations(4)).expect("construction"),
        ),
    ]
}

fn main() {
    let args = qudit_api::CliArgs::from_env();
    let verbose = args.has("--verbose");

    for level in [
        PassLevel::Ideal,
        PassLevel::Physical,
        PassLevel::PhysicalIdeal,
    ] {
        println!("Pass-pipeline resource report ({} level)", level.name());
        println!(
            "{:<34} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}",
            "construction", "ops pre", "ops post", "2q pre", "2q post", "d pre", "d post"
        );
        for (name, circuit) in cases() {
            let ir = compile(&circuit, level);
            let report = ir.report();
            println!(
                "{:<34} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7}",
                name,
                report.pre.total_ops(),
                report.post.total_ops(),
                report.pre.two_qudit_gates(),
                report.post.two_qudit_gates(),
                report.pre.depth(),
                report.post.depth()
            );
            if verbose {
                print!("{report}");
            }
        }
        println!();
    }

    println!();
    println!("Noise-preserving level (must be the identity transformation):");
    let mut all_identity = true;
    for (name, circuit) in cases() {
        let ir = compile(&circuit, PassLevel::NoisePreserving);
        let identical = ir.circuit() == &circuit;
        all_identity &= identical;
        println!(
            "  {:<34} {}",
            name,
            if identical {
                "unchanged (bit-identical op list)"
            } else {
                "CHANGED — noise semantics violated!"
            }
        );
    }
    if !all_identity {
        eprintln!("noise-preserving pipeline modified a circuit");
        std::process::exit(1);
    }
}

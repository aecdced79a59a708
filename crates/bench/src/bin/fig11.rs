//! Regenerates Figure 11: mean fidelity of the N-controlled Generalized
//! Toffoli for every applicable (circuit construction, noise model) pair —
//! 16 bars in total.
//!
//! The paper simulates 13 controls (a 14-input gate) with 1000+ quantum
//! trajectories per bar across >100 machines; by default this harness runs a
//! reduced size so it completes on a laptop in minutes. Pass
//! `--controls 13 --trials 1000` to reproduce the full experiment.
//!
//! `--backend density` switches every bar to the exact density-matrix
//! engine (feasible up to ~6 qudits): fidelities become ground truth and the
//! `2σ` column reflects only the spread over the sampled inputs.
//!
//! All 16 bars are described as [`JobSpec`]s and submitted in one
//! [`Executor::run_batch`] call: structurally shared circuits compile once
//! and the bars fan out across rayon workers (bit-identical to running them
//! sequentially).
//!
//! `--out <path>` also writes the run as a JSON record: its parameters, the
//! 16 bars, the wall time of the batch and the provenance (commit, cores,
//! SIMD level, build profile). `BENCH_fig11.json` is such a record of a
//! paper-scale run.
//!
//! Usage:
//! `cargo run --release -p bench --bin fig11 [-- --controls 7 --trials 40 --seed 2019 --backend trajectory --out PATH]`

use bench::{figure11_job, figure11_pairs, percent};
use qudit_api::{BackendKind, CliArgs, Executor, JobSpec};
use std::fmt::Write as _;
use std::time::Instant;

fn main() {
    let args = CliArgs::from_env();
    let n_controls: usize = args.flag_or("--controls", 7).expect("--controls");
    let trials: usize = args.flag_or("--trials", 40).expect("--trials");
    let seed: u64 = args.flag_or("--seed", 2019).expect("--seed");
    let backend = args.backend_or(BackendKind::Trajectory).expect("--backend");
    let out = args.flag("--out");

    let pairs = figure11_pairs();
    let jobs: Vec<JobSpec> = pairs
        .iter()
        .map(|(construction, model)| {
            figure11_job(backend, *construction, model, n_controls, trials, seed).unwrap_or_else(
                |e| {
                    eprintln!(
                        "invalid job for {}/{}: {e}",
                        construction.name(),
                        model.name
                    );
                    std::process::exit(1);
                },
            )
        })
        .collect();

    println!(
        "Figure 11: mean fidelity of the {}-input Generalized Toffoli ({} controls, {} trials/bar, {} backend)",
        n_controls + 1,
        n_controls,
        trials,
        backend.name()
    );
    println!(
        "{:<16} {:<15} {:>12} {:>10}",
        "Noise model", "Circuit", "Fidelity", "2-sigma"
    );
    let executor = Executor::new();
    let start = Instant::now();
    let results = executor.run_batch(&jobs);
    let wall_s = start.elapsed().as_secs_f64();
    let mut rows = Vec::new();
    for ((construction, model), result) in pairs.iter().zip(results) {
        let est = result
            .and_then(|r| r.fidelity().cloned())
            .unwrap_or_else(|e| {
                eprintln!("{}/{} failed: {e}", construction.name(), model.name);
                std::process::exit(1);
            });
        println!(
            "{:<16} {:<15} {:>12} {:>10}",
            model.name,
            construction.name(),
            percent(est.mean),
            percent(est.two_sigma())
        );
        rows.push(format!(
            "    {{\"model\": \"{}\", \"circuit\": \"{}\", \"fidelity\": {:?}, \"two_sigma\": {:?}, \"trials\": {}}}",
            model.name,
            construction.name(),
            est.mean,
            est.two_sigma(),
            est.trials
        ));
    }
    if let Some(out) = out {
        let mut json = String::new();
        writeln!(json, "{{").unwrap();
        writeln!(json, "  \"bench\": \"fig11\",").unwrap();
        writeln!(
            json,
            "  \"provenance\": {{\"commit\": \"{}\", \"cores\": {}, \"rayon_threads\": {}, \
             \"simd\": \"{:?}\", \"profile\": \"{}\"}},",
            commit(),
            std::thread::available_parallelism().map_or(0, usize::from),
            rayon::current_num_threads(),
            qudit_sim::kernel::simd_level(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
        )
        .unwrap();
        writeln!(
            json,
            "  \"controls\": {n_controls}, \"trials\": {trials}, \"seed\": {seed}, \"backend\": \"{}\",",
            backend.name()
        )
        .unwrap();
        writeln!(json, "  \"wall_s\": {wall_s:.3},").unwrap();
        writeln!(json, "  \"rows\": [\n{}\n  ]", rows.join(",\n")).unwrap();
        writeln!(json, "}}").unwrap();
        std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    }
}

/// The checkout's commit, with `-dirty` when tracked files differ from it
/// (`git describe --always --dirty`), or `unknown` outside a git checkout.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

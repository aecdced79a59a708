//! Façade-enforcement check (grep-style, as the API redesign's acceptance
//! criterion requires): no example or bench source, and no source of the
//! crates built on the engine (the constructions in `crates/core`, the
//! algorithm library, the server), may construct a simulator engine
//! directly — `TrajectorySimulator`, `DensityNoiseSimulator` and
//! `CompiledCircuit` are internal names now; everything outside the engine
//! crates goes through `qudit_api::Executor`.

use std::path::{Path, PathBuf};

/// The engine type names consumers must not reach for.
const FORBIDDEN: &[&str] = &[
    "TrajectorySimulator",
    "DensityNoiseSimulator",
    "CompiledCircuit",
    "CompiledDensityCircuit",
];

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_example_or_bench_source_constructs_a_simulator_directly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_sources(&root.join("examples"), &mut sources);
    rust_sources(&root.join("crates/bench/src"), &mut sources);
    rust_sources(&root.join("crates/bench/benches"), &mut sources);
    rust_sources(&root.join("crates/core/src"), &mut sources);
    rust_sources(&root.join("crates/qudit-algos/src"), &mut sources);
    rust_sources(&root.join("crates/qudit-server/src"), &mut sources);
    assert!(
        sources.len() >= 52,
        "expected the examples, the bench bins/benches and the core, algos and \
         server sources, found {} file(s)",
        sources.len()
    );

    let mut violations = Vec::new();
    for path in sources {
        let text = std::fs::read_to_string(&path).expect("readable source file");
        for (lineno, line) in text.lines().enumerate() {
            for name in FORBIDDEN {
                if line.contains(name) {
                    violations.push(format!(
                        "{}:{}: uses {name}",
                        path.strip_prefix(root).unwrap_or(&path).display(),
                        lineno + 1
                    ));
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "consumers must go through qudit_api::Executor; direct engine use found:\n{}",
        violations.join("\n")
    );
}

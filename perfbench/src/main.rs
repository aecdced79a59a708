//! The repository's end-to-end benchmark: three workloads, each run in its
//! own process with one client thread, timed only through the façade
//! (`JobSpec`, `Executor`, `ExecutionResult`, `qudit_server::Server`).
//!
//! ```text
//! perfbench --workload <fig11-sweep|serve-zipf|replay-wide> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>] [--commit <id>]
//!           [--source-digest <hex>]
//! perfbench --workload <w> --seed <n> --setup-only
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; its
//! `setup_s` is the median over its own set-up and those of fresh
//! `--setup-only` processes of this binary, which set up, print their
//! set-up time and exit. A traced run (`--trace 1`) interleaves each
//! untraced op with the same op split into its public calls and run once
//! with and once without a span around each (checked bit for bit against
//! the untraced results), then runs the per-layer probes; it prints the
//! per-layer metrics, a self-time ledger per layer, and writes its spans.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when every
//! op and output check passed.

mod fig11;
mod measure;
mod metrics;
mod replay;
mod zipf;

use measure::Tracer;
use metrics::{json_number, Report};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["fig11-sweep", "serve-zipf", "replay-wide"];

/// What one process of the harness does.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set up, print the set-up time, exit.
    SetupOnly,
    /// The timed phase: end-to-end metrics.
    Untraced,
    /// Untraced and traced ops interleaved, then the probes: per-layer
    /// metrics.
    Traced,
}

/// A workload's entry point: seed, seconds, mode and process start in; the
/// report and, for a traced run, its spans out.
type Workload = fn(u64, f64, Mode, Instant) -> (Report, Option<Tracer>);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
    out: PathBuf,
    commit: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        mode: Mode::SetupOnly,
        out: PathBuf::from(".bench_build/perfbench-out"),
        commit: "unknown".to_string(),
        source_digest: "unknown".to_string(),
    };
    let (mut seed, mut seconds, mut trace, mut setup_only) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(Mode::Untraced),
                "1" => trace = Some(Mode::Traced),
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            "--out" => args.out = PathBuf::from(&value),
            "--commit" => args.commit = value.clone(),
            "--source-digest" => args.source_digest = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    args.seed = seed.ok_or("--seed is required")?;
    if !setup_only {
        args.seconds = seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?;
        args.mode = trace.ok_or("--trace is required")?;
    }
    Ok(args)
}

/// Adds `count - 1` set-up samples to `report`, each from a fresh
/// `--setup-only` process of this binary, run one after another once this
/// process's timed phase is done.
fn fresh_setups(args: &Args, count: usize, report: &mut Report) {
    let exe = std::env::current_exe();
    for _ in 1..count {
        let output = exe.as_ref().ok().and_then(|exe| {
            Command::new(exe)
                .args(["--workload", &args.workload, "--setup-only"])
                .args(["--seed", &args.seed.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .ok()
        });
        let setup_s = output
            .as_ref()
            .filter(|out| out.status.success())
            .and_then(|out| {
                String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .parse::<f64>()
                    .ok()
            });
        report.check(setup_s.is_some(), || {
            format!("a --setup-only process failed: {output:?}")
        });
        report.setups_s.extend(setup_s);
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (run, setups): (Workload, usize) = match args.workload.as_str() {
        "fig11-sweep" => (fig11::run, fig11::SETUPS),
        "serve-zipf" => (zipf::run, zipf::SETUPS),
        _ => (replay::run, replay::SETUPS),
    };
    let (mut report, tracer) = run(args.seed, args.seconds, args.mode, process_start);
    match args.mode {
        Mode::SetupOnly => {
            println!("{}", json_number(report.setups_s[0]));
            std::process::exit(if report.failed == 0 { 0 } else { 1 });
        }
        Mode::Untraced => fresh_setups(&args, setups, &mut report),
        Mode::Traced => {}
    }
    let trace = args.mode == Mode::Traced;
    let (e2e, tail_pct) = report.end_to_end();
    let provenance =
        format!(
        "{{\"commit\": \"{}\", \"source_digest\": \"{}\", \"cores\": {}, \"rayon_threads\": {}, \
         \"simd\": \"{:?}\", \"profile\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"timed_ops\": {}, \"tail_percentile\": {}}}",
        args.commit,
        args.source_digest,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::current_num_threads(),
        qudit_sim::kernel::simd_level(),
        if cfg!(debug_assertions) { "debug" } else { "release (lto=thin, codegen-units=1)" },
        args.workload,
        args.seed,
        args.seconds,
        trace,
        report.timed_ops,
        json_number(tail_pct),
    );

    let trace_word = if trace { "traced" } else { "untraced" };
    println!(
        "perfbench {} (seed {}, {} s, {trace_word})",
        args.workload, args.seed, args.seconds
    );
    println!("provenance {provenance}");
    for (name, unit) in metrics::END_TO_END {
        let note = match name {
            "tail_ms" => format!("p{tail_pct:.2} of {} timed ops", report.latencies_ms.len()),
            "setup_s" => format!(
                "median of {} set-ups, each in its own process",
                report.setups_s.len()
            ),
            _ => String::new(),
        };
        println!("  {name:<14} {:>14.4} {unit:<8} {note}", e2e[name]);
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "  {:<14} {error_rate:>14.4} {:<8} {} failed of {} attempted",
        "error_rate", "fraction", report.failed, report.attempted
    );
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }

    let layer_metrics = metrics::per_layer();
    let mut layers = Vec::new();
    if let Some(tracer) = &tracer {
        println!("per-layer metrics (0 where this workload does not call the layer):");
        for metric in &layer_metrics {
            let value = report.layers.get(&metric.name).copied().unwrap_or(0.0);
            println!(
                "  {:<52} {value:>14.4} {:<8} moves {}",
                metric.name, metric.unit, metric.moves
            );
            layers.push((metric, value));
        }
        println!("self time per layer over every span:");
        for (layer, spans, self_ms) in tracer.self_times() {
            println!("  {layer:<18} {spans:>8} spans {self_ms:>14.3} ms");
        }
        for line in &report.ledger {
            println!("  {line}");
        }
    }

    if let Err(e) = write_outputs(&args, &provenance, &report, &e2e, tracer.as_ref(), &layers) {
        eprintln!(
            "perfbench: writing results under {}: {e}",
            args.out.display()
        );
    }

    let rows: Vec<(&str, f64, &str)> = if trace {
        layers
            .iter()
            .map(|(m, v)| (m.name.as_str(), *v, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|(name, unit)| (*name, e2e[name], *unit))
            .collect()
    };
    let metric_json: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metric_json.join(", ")
    );
    std::process::exit(if report.failed == 0 { 0 } else { 1 });
}

/// Writes the run's result file (provenance, every metric, failures) and,
/// for a traced run, its spans.
fn write_outputs(
    args: &Args,
    provenance: &str,
    report: &Report,
    e2e: &std::collections::BTreeMap<&'static str, f64>,
    tracer: Option<&Tracer>,
    layers: &[(&metrics::Metric, f64)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.mode == Mode::Traced)
    );
    let mut json = format!("{{\n  \"provenance\": {provenance},\n  \"end_to_end\": {{");
    let e2e_rows: Vec<String> = e2e
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_number(*v)))
        .collect();
    json.push_str(&e2e_rows.join(", "));
    write!(
        json,
        "}},\n  \"error_rate\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"per_layer\": {{",
        json_number(report.failed as f64 / report.attempted.max(1) as f64),
        report.attempted,
        report.failed,
        report
            .failures
            .iter()
            .map(|f| serde::json::to_string(&serde::Value::Str(f.clone())))
            .collect::<Vec<_>>()
            .join(", ")
    )
    .expect("write");
    let layer_rows: Vec<String> = layers
        .iter()
        .map(|(m, v)| format!("\"{}\": {}", m.name, json_number(*v)))
        .collect();
    json.push_str(&layer_rows.join(", "));
    let setups: Vec<String> = report.setups_s.iter().map(|v| json_number(*v)).collect();
    write!(json, "}},\n  \"setups_s\": [{}", setups.join(", ")).expect("write");
    let latencies: Vec<String> = report
        .latencies_ms
        .iter()
        .map(|v| json_number(*v))
        .collect();
    write!(
        json,
        "],\n  \"latencies_ms\": [{}]\n}}\n",
        latencies.join(", ")
    )
    .expect("write");
    std::fs::write(args.out.join(format!("{stem}.json")), json)?;
    if let Some(tracer) = tracer {
        tracer.write(&args.out.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

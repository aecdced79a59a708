//! README quotes its performance numbers from `BENCH_perfbench.json`, the
//! checked-in record of one untraced perfbench run per workload. These tests
//! re-read it and fail when a quoted number differs from the record at the
//! precision README prints it, so a re-recorded benchmark cannot leave
//! README stale, and when an entry is not a full 30 s untraced run with no
//! failed op, so a smoke run cannot be checked in as the record. README's
//! Figure 11 table is checked the same way against `tests/golden/fig11.txt`
//! (7 controls) and `BENCH_fig11.json` (the paper-scale run).

use serde::Value;
use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn json(name: &str) -> Value {
    serde::json::parse(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn number(value: &Value, path: &[&str]) -> f64 {
    path.iter()
        .fold(value, |v, key| v.field(key).expect("field present"))
        .as_f64()
        .expect("a number")
}

/// The recorded `end_to_end` metric `metric` of `workload`.
fn recorded(workload: &str, metric: &str) -> f64 {
    number(
        &json("BENCH_perfbench.json"),
        &[workload, "end_to_end", metric],
    )
}

/// The README paragraph that starts with `start`, with its line breaks
/// folded into single spaces.
fn readme_paragraph(start: &str) -> String {
    let readme = read("README.md");
    let from = readme
        .find(start)
        .unwrap_or_else(|| panic!("README has no paragraph starting {start:?}"));
    let text = &readme[from..];
    let end = text.find("\n\n").unwrap_or(text.len());
    text[..end].split_whitespace().collect::<Vec<_>>().join(" ")
}

/// A number as README prints it, with the rounding that printing implies:
/// half a unit in the last printed decimal.
#[derive(Debug)]
struct Quoted {
    value: f64,
    tolerance: f64,
}

impl Quoted {
    /// Parses the number that ends right before the first `suffix` in
    /// `text`: digits, optionally grouped by single spaces ("12 372"), with
    /// optional decimals.
    fn before(text: &str, suffix: &str) -> Quoted {
        let end = text
            .find(suffix)
            .unwrap_or_else(|| panic!("no {suffix:?} in {text:?}"));
        let head = &text[..end];
        let mut start = end;
        for (i, c) in head.char_indices().rev() {
            let grouping_space = c == ' '
                && head[..i].ends_with(|p: char| p.is_ascii_digit())
                && head[i + 1..].starts_with(|n: char| n.is_ascii_digit());
            if c.is_ascii_digit() || c == '.' || grouping_space {
                start = i;
            } else {
                break;
            }
        }
        Quoted::parse(&head[start..])
    }

    /// Parses the number that starts right after the first `label` in
    /// `text`.
    fn after(text: &str, label: &str) -> Quoted {
        let from = text
            .find(label)
            .unwrap_or_else(|| panic!("no {label:?} in {text:?}"))
            + label.len();
        let len = text[from..]
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(text.len() - from);
        Quoted::parse(&text[from..from + len])
    }

    fn parse(printed: &str) -> Quoted {
        let digits: String = printed.chars().filter(|&c| c != ' ').collect();
        let value: f64 = digits
            .parse()
            .unwrap_or_else(|_| panic!("{printed:?} is not a number"));
        let decimals = digits.split_once('.').map_or(0, |(_, d)| d.len());
        Quoted {
            value,
            tolerance: 10f64.powi(-(decimals as i32)) / 2.0,
        }
    }

    fn assert_matches(&self, what: &str, recorded: f64) {
        assert!(
            (self.value - recorded).abs() <= self.tolerance * (1.0 + 1e-9),
            "README quotes {what} as {} but its record holds {recorded}",
            self.value
        );
    }
}

#[test]
fn bench_perfbench_json_holds_a_full_untraced_run_of_every_workload() {
    let record = json("BENCH_perfbench.json");
    let Value::Object(entries) = &record else {
        panic!("BENCH_perfbench.json is not an object");
    };
    let recorded: Vec<&str> = entries.iter().map(|(name, _)| name.as_str()).collect();
    let declared = json("BENCHMARK.json");
    let declared: Vec<&str> = declared
        .field("workloads")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists its workloads")
        .iter()
        .map(|w| w.field("name").and_then(Value::as_str).expect("a name"))
        .collect();
    assert_eq!(recorded, declared, "one entry per BENCHMARK.json workload");

    for (workload, entry) in entries {
        let provenance = entry.field("provenance").expect("provenance");
        let field = |key: &str| provenance.field(key).expect("provenance field");
        assert_eq!(field("workload").as_str().unwrap(), workload);
        assert_eq!(field("seconds").as_f64().unwrap(), 30.0, "{workload}");
        assert!(!field("trace").as_bool().unwrap(), "{workload} is traced");
        assert_eq!(number(entry, &["failed"]), 0.0, "{workload} failed ops");
        assert!(number(entry, &["attempted"]) > 0.0, "{workload} ran no op");
    }
}

#[test]
fn readme_replay_throughput_and_latency_match_bench_perfbench_json() {
    let paragraph = readme_paragraph("perfbench's `replay-wide` workload measures");
    Quoted::before(&paragraph, " ops/s").assert_matches(
        "the replay-wide ops/s",
        recorded("replay-wide", "ops_per_s"),
    );
    Quoted::after(&paragraph, "p50 ")
        .assert_matches("the replay-wide p50", recorded("replay-wide", "p50_ms"));
}

#[test]
fn readme_serve_throughput_and_latency_match_bench_perfbench_json() {
    let paragraph = readme_paragraph("perfbench's `serve-zipf` workload measures");
    Quoted::before(&paragraph, " req/s")
        .assert_matches("the serve-zipf req/s", recorded("serve-zipf", "ops_per_s"));
    Quoted::after(&paragraph, "p50 ")
        .assert_matches("the serve-zipf p50", recorded("serve-zipf", "p50_ms"));
}

#[test]
fn readme_fig11_throughput_and_latency_match_bench_perfbench_json() {
    let paragraph = readme_paragraph("perfbench's `fig11-sweep` workload measures");
    Quoted::before(&paragraph, " ops/s").assert_matches(
        "the fig11-sweep ops/s",
        recorded("fig11-sweep", "ops_per_s"),
    );
    Quoted::after(&paragraph, "p50 ")
        .assert_matches("the fig11-sweep p50", recorded("fig11-sweep", "p50_ms"));
}

/// The cells of README's Figure 11 table row for `model` and `circuit`.
fn figure11_cells(model: &str, circuit: &str) -> Vec<String> {
    let readme = read("README.md");
    let prefix = format!("| {model} | {circuit} |");
    let row = readme
        .lines()
        .find(|line| line.starts_with(&prefix))
        .unwrap_or_else(|| panic!("README's Figure 11 table has no {prefix:?} row"));
    row.trim_matches('|')
        .split('|')
        .map(|cell| cell.trim().to_string())
        .collect()
}

/// Checks a `"F% ± 2σ%"` cell against a fidelity and its 2σ.
fn assert_cell(cell: &str, what: &str, fidelity: f64, two_sigma: f64) {
    Quoted::before(cell, "%").assert_matches(&format!("{what} fidelity"), 100.0 * fidelity);
    Quoted::after(cell, "± ").assert_matches(&format!("{what} 2σ"), 100.0 * two_sigma);
}

#[test]
fn readme_figure11_table_matches_the_golden_and_bench_fig11_json() {
    // The 7-control column: `fig11`'s default run, as pinned byte for byte.
    let golden = read("tests/golden/fig11.txt");
    let bars: Vec<Vec<&str>> = golden
        .lines()
        .skip(2)
        .map(|line| line.split_whitespace().collect())
        .collect();
    assert_eq!(bars.len(), 16);
    for bar in &bars {
        let (model, circuit) = (bar[0], bar[1]);
        let percent = |cell: &str| cell.trim_end_matches('%').parse::<f64>().unwrap() / 100.0;
        assert_cell(
            &figure11_cells(model, circuit)[2],
            &format!("the 7-control {model}/{circuit}"),
            percent(bar[2]),
            percent(bar[3]),
        );
    }

    // The paper-scale column and its wall time.
    let record = json("BENCH_fig11.json");
    assert_eq!(number(&record, &["controls"]), 13.0);
    assert!(number(&record, &["trials"]) >= 200.0);
    assert_eq!(
        record
            .field("backend")
            .and_then(Value::as_str)
            .expect("a backend"),
        "trajectory"
    );
    let rows = record
        .field("rows")
        .and_then(Value::as_array)
        .expect("BENCH_fig11.json lists its bars");
    assert_eq!(rows.len(), 16);
    for row in rows {
        let text = |key: &str| row.field(key).and_then(Value::as_str).expect(key);
        let (model, circuit) = (text("model"), text("circuit"));
        assert_cell(
            &figure11_cells(model, circuit)[3],
            &format!("the 13-control {model}/{circuit}"),
            number(row, &["fidelity"]),
            number(row, &["two_sigma"]),
        );
    }
    let paragraph = readme_paragraph("At the paper's size");
    Quoted::before(&paragraph, " s of wall time")
        .assert_matches("the paper-scale wall time", number(&record, &["wall_s"]));
}

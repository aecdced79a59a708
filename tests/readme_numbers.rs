//! README quotes headline numbers from the checked-in benchmark snapshots.
//! These tests re-read `BENCH_zipf.json` and `BENCH_serve.json` and fail
//! when a quoted number differs from its snapshot at the precision README
//! prints it, so a re-run benchmark cannot leave README stale.

use serde::Value;
use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn bench(name: &str) -> Value {
    serde::json::parse(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn number(value: &Value, path: &[&str]) -> f64 {
    path.iter()
        .fold(value, |v, key| v.field(key).expect("field present"))
        .as_f64()
        .expect("a number")
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
/// half a unit in the last printed decimal, or — for a `~` approximation
/// ending in zeros — half a unit in the last non-zero digit.
#[derive(Debug)]
struct Quoted {
    value: f64,
    tolerance: f64,
}

impl Quoted {
    /// Parses the number that ends right before byte `end` of `text`:
    /// digits, optionally grouped by single spaces ("12 372"), with optional
    /// decimals and an optional leading `~`.
    fn ending_at(text: &str, end: usize) -> Quoted {
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
        let approximate = head[..start].ends_with('~');
        Quoted::parse(&head[start..], approximate)
    }

    /// Parses the number that starts right after `label` in `text`.
    fn after(text: &str, label: &str) -> Quoted {
        let from = text
            .find(label)
            .unwrap_or_else(|| panic!("no {label:?} in {text:?}"))
            + label.len();
        let len = text[from..]
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(text.len() - from);
        Quoted::parse(&text[from..from + len], false)
    }

    fn parse(printed: &str, approximate: bool) -> Quoted {
        let digits: String = printed.chars().filter(|&c| c != ' ').collect();
        let value: f64 = digits
            .parse()
            .unwrap_or_else(|_| panic!("{printed:?} is not a number"));
        let unit = match digits.split_once('.') {
            Some((_, decimals)) => 10f64.powi(-(decimals.len() as i32)),
            None if approximate => {
                let zeros = digits.len() - digits.trim_end_matches('0').len();
                10f64.powi(zeros as i32)
            }
            None => 1.0,
        };
        Quoted {
            value,
            tolerance: unit / 2.0,
        }
    }

    fn assert_matches(&self, what: &str, snapshot: f64) {
        assert!(
            (self.value - snapshot).abs() <= self.tolerance * (1.0 + 1e-9),
            "README quotes {what} as {} but the snapshot records {snapshot}",
            self.value
        );
    }
}

/// Every number in `paragraph` that directly precedes `suffix`, in order.
fn quoted_before(paragraph: &str, suffix: &str) -> Vec<Quoted> {
    paragraph
        .match_indices(suffix)
        .map(|(at, _)| Quoted::ending_at(paragraph, at))
        .collect()
}

#[test]
fn readme_zipf_throughput_and_speedup_match_bench_zipf_json() {
    let snapshot = bench("BENCH_zipf.json");
    let paragraph = readme_paragraph("`bench --bin zipf` measures");
    let rates = quoted_before(&paragraph, " req/s");
    assert_eq!(rates.len(), 2, "baseline and cached req/s in {paragraph:?}");
    rates[0].assert_matches(
        "the uncached baseline req/s",
        number(&snapshot, &["baseline", "rps"]),
    );
    rates[1].assert_matches(
        "the cached+adaptive req/s",
        number(&snapshot, &["cached", "rps"]),
    );
    let speedups = quoted_before(&paragraph, "× effective throughput");
    assert_eq!(speedups.len(), 1, "one speedup in {paragraph:?}");
    speedups[0].assert_matches("the speedup", number(&snapshot, &["speedup"]));
}

#[test]
fn readme_serve_throughput_and_latency_match_bench_serve_json() {
    let snapshot = bench("BENCH_serve.json");
    let paragraph = readme_paragraph("`loadgen` verifies every response");
    let rates = quoted_before(&paragraph, " req/s");
    assert_eq!(rates.len(), 1, "one req/s figure in {paragraph:?}");
    rates[0].assert_matches("the serve req/s", number(&snapshot, &["rps"]));
    Quoted::after(&paragraph, "p50 ")
        .assert_matches("the serve p50", number(&snapshot, &["latency_ms", "p50"]));
    Quoted::after(&paragraph, "p99 ")
        .assert_matches("the serve p99", number(&snapshot, &["latency_ms", "p99"]));
}

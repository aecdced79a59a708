//! The metric catalog and the per-run report.
//!
//! Every per-layer metric names the end-to-end metric it should move and
//! on which workload ("moves → on"); "—" marks an exact count that explains
//! the work. A traced run reports every per-layer metric; one whose layer
//! the workload never calls reads 0.

use crate::measure::{median, tail};
use std::collections::BTreeMap;

/// One per-layer metric: name, unit, and which end-to-end metric it should
/// move on which workload.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub moves: &'static str,
}

fn metric(name: impl Into<String>, unit: &'static str, moves: &'static str) -> Metric {
    Metric {
        name: name.into(),
        unit,
        moves,
    }
}

/// The end-to-end metrics every untraced run reports, as (name, unit).
/// `error_rate` is printed with them but carried in the result line's
/// `attempted` and `failed` counts: it reads 0 on a healthy run, and a
/// metric that can read 0 has no relative spread.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The (d, width) registers of the Figure 11 bars: 8 qutrits, 8 qubits, and
/// 9 qubits with the dirty ancilla — where the Kraus probes run.
pub const KRAUS_SITES: [(usize, usize); 3] = [(3, 8), (2, 8), (2, 9)];

/// The replay-wide circuits, in op order.
pub const REPLAY_CIRCUITS: [&str; 2] = ["qft12", "toffoli14"];

/// A metric-name suffix for a Figure 11 bar, e.g. `qubit_ancilla.sc_t1`.
pub fn bar_label(construction: &str, model: &str) -> String {
    let clean = |s: &str| s.to_lowercase().replace(['+', '/'], "_");
    format!("{}.{}", clean(construction), clean(model))
}

/// A metric-name suffix for a Kraus probe register, e.g. `d3w8`.
pub fn site_label((d, width): (usize, usize)) -> String {
    format!("d{d}w{width}")
}

/// Every per-layer metric, in report order. Metrics that are "one per" bar,
/// register or circuit come as the median over the items under the bare
/// name, then one suffixed metric per item.
pub fn per_layer() -> Vec<Metric> {
    let bars: Vec<String> = bench::figure11_pairs()
        .iter()
        .map(|(construction, model)| bar_label(construction.name(), &model.name))
        .collect();
    let t1_bars: Vec<String> = bench::figure11_pairs()
        .iter()
        .filter(|(_, model)| model.t1.is_some())
        .map(|(construction, model)| bar_label(construction.name(), &model.name))
        .collect();
    let sites: Vec<String> = KRAUS_SITES.iter().map(|s| site_label(*s)).collect();
    let mut out = vec![
        metric("server.transport_ms", "ms", "p50_ms on serve-zipf"),
        metric("server.non_200", "count", "error_rate on serve-zipf"),
        metric("api.spec.decode_us", "us", "p50_ms on serve-zipf"),
        metric(
            "api.spec.key_us",
            "us",
            "p50_ms on serve-zipf; flat on fig11-sweep",
        ),
        metric("api.spec.encode_us", "us", "p50_ms on serve-zipf"),
        metric("api.spec.request_bytes", "bytes", "—"),
        metric("api.spec.response_bytes", "bytes", "—"),
        metric("api.executor.hit_us", "us", "p50_ms on serve-zipf"),
        metric(
            "api.executor.miss_ms",
            "ms",
            "tail_ms, ops_per_s on serve-zipf",
        ),
        metric(
            "api.executor.miss_ms.tail",
            "ms",
            "tail_ms, ops_per_s on serve-zipf",
        ),
        metric("api.executor.hit_rate", "fraction", "—"),
        metric("api.executor.evictions", "count", "—"),
        metric("api.executor.jobs_simulated", "count", "—"),
        metric(
            "circuit.passes.compile_ms",
            "ms",
            "setup_s on fig11-sweep, replay-wide",
        ),
        metric("circuit.passes.ops_post", "count", "—"),
        metric("circuit.passes.frames", "count", "—"),
        metric("noise.artifacts.program_us", "us", "setup_s on fig11-sweep"),
        metric(
            "noise.artifacts.sites_ms",
            "ms",
            "setup_s on fig11-sweep, serve-zipf",
        ),
        metric("noise.artifacts.sites_built", "count", "—"),
        metric("noise.artifacts.sites_shared", "count", "—"),
    ];
    let run_moves = "ops_per_s, p50_ms, tail_ms on fig11-sweep";
    out.push(metric("noise.trajectory.run_ms", "ms", run_moves));
    for bar in &bars {
        out.push(metric(
            format!("noise.trajectory.run_ms.{bar}"),
            "ms",
            run_moves,
        ));
    }
    out.push(metric(
        "noise.trajectory.trials",
        "count",
        "tail_ms on serve-zipf",
    ));
    out.push(metric("noise.trajectory.idle_sites", "count", "—"));
    out.push(metric("noise.trajectory.gate_sites", "count", "—"));
    let t1_moves = "ops_per_s, tail_ms on fig11-sweep; flat on trapped-ion bars and replay-wide";
    out.push(metric("noise.trajectory.t1_share", "fraction", t1_moves));
    for bar in &t1_bars {
        out.push(metric(
            format!("noise.trajectory.t1_share.{bar}"),
            "fraction",
            t1_moves,
        ));
    }
    out.push(metric(
        "noise.trajectory.ideal_share",
        "fraction",
        "tail_ms on serve-zipf; flat on fig11-sweep",
    ));
    let t1_apply = "ops_per_s, tail_ms on fig11-sweep";
    out.push(metric("noise.kraus.t1_apply_us", "us", t1_apply));
    for site in &sites {
        out.push(metric(
            format!("noise.kraus.t1_apply_us.{site}"),
            "us",
            t1_apply,
        ));
    }
    let depol = "ops_per_s on fig11-sweep";
    out.push(metric("noise.kraus.depol2_apply_us", "us", depol));
    for site in &sites {
        out.push(metric(
            format!("noise.kraus.depol2_apply_us.{site}"),
            "us",
            depol,
        ));
    }
    out.push(metric(
        "noise.exact.run_ms",
        "ms",
        "tail_ms, ops_per_s on serve-zipf",
    ));
    let replay = "ops_per_s, p50_ms on replay-wide";
    let gate = "ops_per_s on replay-wide";
    for (base, unit, moves) in [
        ("sim.kernel.replay_ms", "ms", replay),
        ("sim.kernel.gate_apply_ns", "ns", gate),
        ("sim.kernel.computed_gb_s", "GB/s", "—"),
    ] {
        out.push(metric(base, unit, moves));
        for circuit in REPLAY_CIRCUITS {
            out.push(metric(format!("{base}.{circuit}"), unit, moves));
        }
    }
    out.push(metric("sim.kernel.blocked_ops", "count", "—"));
    out.push(metric(
        "circuits.build_ms",
        "ms",
        "setup_s on all workloads",
    ));
    out.push(metric("trace.overhead_pct", "%", "—"));
    out
}

/// Sets `base` to the median over `items` and `base.<label>` to each item.
pub fn set_per_item(layers: &mut BTreeMap<String, f64>, base: &str, items: &[(String, f64)]) {
    let values: Vec<f64> = items.iter().map(|(_, v)| *v).collect();
    layers.insert(base.to_string(), median(&values));
    for (label, value) in items {
        layers.insert(format!("{base}.{label}"), *value);
    }
}

/// What one run measured: the timed-op sample, failures, set-up times and
/// (traced runs) the per-layer values and ledger lines.
#[derive(Default)]
pub struct Report {
    /// Timed ops attempted.
    pub timed_ops: usize,
    /// Latency of every successful timed op, in ms.
    pub latencies_ms: Vec<f64>,
    /// The kind of each op in `latencies_ms`: its bar on fig11-sweep, 0 on
    /// the other workloads.
    pub kinds: Vec<usize>,
    /// Wall time of the timed ops (closed loop: the sum of their latencies,
    /// failed ops included), in s.
    pub timed_s: f64,
    /// Ops attempted: timed ops plus set-up and output checks.
    pub attempted: usize,
    /// Ops that returned an error, a non-200 reply or a wrong output.
    pub failed: usize,
    /// A description of the first few failures.
    pub failures: Vec<String>,
    /// Each set-up's time from the start of its process to its first timed
    /// op, in s: this process's first, then the fresh processes'.
    pub setups_s: Vec<f64>,
    /// `VmHWM` once the timed phase and its checks are done, in MB.
    pub peak_rss_mb: f64,
    /// Per-layer values (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Extra lines for the human-readable ledger (traced runs).
    pub ledger: Vec<String>,
}

impl Report {
    /// Records one failure (first 20 kept verbatim).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what.into());
        }
    }

    /// Counts one attempted check and records it as failed when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records one timed op: its latency, its kind, and whether it failed
    /// (a failed op counts toward wall time but not the latency sample).
    pub fn timed(&mut self, latency_ms: f64, kind: usize, failure: Option<String>) {
        self.timed_ops += 1;
        self.attempted += 1;
        self.timed_s += latency_ms / 1e3;
        match failure {
            None => {
                self.latencies_ms.push(latency_ms);
                self.kinds.push(kind);
            }
            Some(what) => self.fail(what),
        }
    }

    /// The median op latency, stratified by op kind: the median over kinds
    /// of each kind's median latency. With one kind it is the plain median.
    /// On fig11-sweep, whose 16 bars split into 8 cheap and 8 expensive
    /// ones, the plain median of all ops falls in the gap between the two
    /// groups, where it is the mean of the slowest cheap op and the fastest
    /// expensive op and swings by a fifth from run to run; each bar's
    /// median is steady.
    pub fn p50_ms(&self) -> f64 {
        let mut by_kind: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (kind, latency) in self.kinds.iter().zip(&self.latencies_ms) {
            by_kind.entry(*kind).or_default().push(*latency);
        }
        let medians: Vec<f64> = by_kind.values().map(|v| median(v)).collect();
        median(&medians)
    }

    /// Timed ops per second of timed wall time.
    pub fn ops_per_s(&self) -> f64 {
        if self.timed_s > 0.0 {
            self.timed_ops as f64 / self.timed_s
        } else {
            0.0
        }
    }

    /// The end-to-end values: ops/s, p50, tail (with its percentile),
    /// set-up (median over set-ups) and peak RSS.
    pub fn end_to_end(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let (tail_ms, tail_pct) = tail(&self.latencies_ms);
        let mut values = BTreeMap::new();
        values.insert("ops_per_s", self.ops_per_s());
        values.insert("p50_ms", self.p50_ms());
        values.insert("tail_ms", tail_ms);
        values.insert("setup_s", median(&self.setups_s));
        values.insert("peak_rss_mb", self.peak_rss_mb);
        (values, tail_pct)
    }
}

/// Formats a metric value with all its digits as a JSON number (0 for a
/// non-finite value, which JSON cannot carry).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p50_is_the_median_of_per_kind_medians() {
        let mut report = Report::default();
        for (latency, kind) in [(10.0, 0), (11.0, 0), (12.0, 0), (100.0, 1), (101.0, 1)] {
            report.timed(latency, kind, None);
        }
        report.timed(5.0, 1, Some("failed".into()));
        assert_eq!(report.p50_ms(), (11.0 + 100.5) / 2.0);
        assert_eq!(report.failed, 1);
        let mut one_kind = Report::default();
        for latency in [3.0, 1.0, 2.0] {
            one_kind.timed(latency, 0, None);
        }
        assert_eq!(one_kind.p50_ms(), 2.0);
    }
}

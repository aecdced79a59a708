//! Timing statistics, seed derivation, peak memory and the span recorder.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Derives an independent 64-bit value from the run seed, a stream tag and
/// an index (SplitMix64 finalizer), so every job seed, the Zipf stream and
/// every basis input follow from the one `--seed` argument.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// How much slower, in percent of ops per second, the traced ops ran than
/// the untraced ops they were interleaved with: `100 × (1 − traced ops/s ÷
/// untraced ops/s)` over equal op counts.
pub fn overhead_pct(untraced_ms: &[f64], traced_ms: &[f64]) -> f64 {
    100.0 * (1.0 - untraced_ms.iter().sum::<f64>() / traced_ms.iter().sum::<f64>())
}

/// The median of a sample (mean of the middle two for even sizes); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The mean of a sample; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The deepest percentile [`tail`] reports, as a count of nines. Beyond
/// p99 a 30 s serve-zipf run leaves only a few dozen ops, so a handful of
/// requests that the shared host delays decide the value: its p99.9 spread
/// by a third to a half of its median over ten seeds. Its p99 has a few
/// hundred ops beyond it and sits inside the band of the slowest misses.
const TAIL_NINES: u32 = 2;

/// The tail of a latency sample as `(value, percentile)`: the highest of
/// p50, p90 and p99 that still has at least ten samples beyond it, by
/// nearest rank. Below twenty samples none qualifies and the maximum is
/// returned as percentile 100; the caller's printout shows the count.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let s = sorted(xs);
    let n = s.len();
    let mut best = (s[n - 1], 100.0);
    let (mut beyond, mut pct, mut nines) = (n / 2, 50.0, 0u32);
    while beyond >= 10 && nines <= TAIL_NINES {
        best = (s[n - beyond - 1], pct);
        nines += 1;
        beyond = n / 10usize.pow(nines);
        pct = 100.0 - 100.0 / 10f64.powi(nines as i32);
    }
    best
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    s
}

/// The process's peak resident set (`VmHWM`) in MB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A 64-bit FNV-style digest of a word sequence, for comparing replies and
/// output states across phases without keeping them.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The layers spans are attributed to, longest prefix first; a span whose
/// name matches none is benchmark harness time.
pub const LAYERS: [&str; 10] = [
    "server",
    "api.spec",
    "api.executor",
    "circuit.passes",
    "noise.artifacts",
    "noise.trajectory",
    "noise.kraus",
    "noise.exact",
    "sim.kernel",
    "circuits",
];

fn layer_of(name: &str) -> &'static str {
    LAYERS
        .iter()
        .find(|layer| name == **layer || name.starts_with(&format!("{layer}.")))
        .copied()
        .unwrap_or("bench")
}

/// One recorded span: a call into a layer, timed from outside.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    op: u64,
}

/// In-memory span recorder for the traced run. Spans nest by call order on
/// the one client thread; each carries the op id current when it opened.
/// Nothing is written until [`Tracer::write`] at exit. A recorder made with
/// [`Tracer::off`] records nothing, so the same split op can run with and
/// without spans.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    labels: Vec<(u64, String)>,
}

impl Tracer {
    /// An empty recorder whose timestamps count from now.
    pub fn new() -> Tracer {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            labels: Vec::new(),
        }
    }

    /// A recorder that records nothing: [`Tracer::span`] only runs its
    /// closure and reports a zero duration, reading no clock.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new()
        }
    }

    /// Starts attributing spans to op `op`, labelled for the span file.
    pub fn begin_op(&mut self, op: u64, label: impl Into<String>) {
        if !self.on {
            return;
        }
        self.op = op;
        self.labels.push((op, label.into()));
    }

    /// Runs `f` inside a span named `name` and returns its result and the
    /// span's duration (zero when the recorder is off).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, Duration) {
        if !self.on {
            return (f(self), Duration::ZERO);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        let out = f(self);
        let end = self.epoch.elapsed();
        self.open.pop();
        self.spans[index].end = end;
        (out, end - self.spans[index].start)
    }

    /// Self time per layer over every span recorded so far: a span's
    /// duration minus the time its children cover, summed by layer, as
    /// `(layer, spans, self ms)` in [`LAYERS`] order with the harness last.
    pub fn self_times(&self) -> Vec<(&'static str, usize, f64)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.end - span.start;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64)> = LAYERS
            .iter()
            .chain(std::iter::once(&"bench"))
            .map(|layer| (*layer, 0, 0.0))
            .collect();
        for (span, children) in self.spans.iter().zip(&child_time) {
            let layer = layer_of(span.name);
            let row = rows
                .iter_mut()
                .find(|row| row.0 == layer)
                .expect("every layer has a row");
            row.1 += 1;
            row.2 += ms((span.end - span.start).saturating_sub(*children));
        }
        rows
    }

    /// Writes every span as one JSON object per line (name, layer, start
    /// and end in ns since the recorder started, parent index, op id),
    /// after one line per op label.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (op, label) in &self.labels {
            writeln!(out, "{{\"op\":{op},\"label\":\"{label}\"}}").expect("write to string");
        }
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{index},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                span.name,
                layer_of(span.name),
                span.start.as_nanos(),
                span.end.as_nanos(),
                span.op
            )
            .expect("write to string");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_ladder_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs), (900.0, 90.0));
        let xs: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail(&xs), (990.0, 99.0));
        let xs: Vec<f64> = (1..=20_000).map(f64::from).collect();
        let (value, pct) = tail(&xs);
        assert_eq!((value, pct), (19_800.0, 99.0));
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 200);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        tracer.span("api.executor.run", |t| {
            t.span("noise.trajectory.run", |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        let rows = tracer.self_times();
        let get = |layer: &str| rows.iter().find(|r| r.0 == layer).unwrap().2;
        assert!(get("noise.trajectory") >= 20.0);
        assert!(get("api.executor") < 20.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tracer = Tracer::off();
        tracer.begin_op(1, "op");
        let (out, took) = tracer.span("api.spec.key", |t| t.span("circuits.build", |_| 7).0);
        assert_eq!((out, took), (7, Duration::ZERO));
        assert!(tracer.spans.is_empty() && tracer.labels.is_empty());
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        assert_ne!(derive(1, 0, 0), derive(1, 1, 0));
        assert_ne!(derive(1, 0, 0), derive(1, 0, 1));
        assert_eq!(derive(7, 3, 9), derive(7, 3, 9));
    }
}

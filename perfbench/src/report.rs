//! Result plumbing: percentiles, peak memory, the reference comparison and
//! the one-line JSON result the benchmark ends with.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::hash::Hasher;

use kwdebug::metrics::ProbeCounters;
use kwdebug::DebugReport;
use kwserve::protocol::encode_report;

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples: the
/// smallest sample with at least `q` of all samples at or below it. It is
/// always an observed value, so on `paper_solo`, where a pass holds ten
/// fixed queries, the median is one query's latency and never a blend
/// across the step between two queries.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of samples (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Length of a measurement window, in seconds.
pub const WINDOW_S: f64 = 1.0;

/// One measurement window: its length and the latencies of the requests
/// answered in it.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Window length in seconds.
    pub secs: f64,
    /// Latencies of requests completed in the window, in milliseconds.
    pub latencies_ms: Vec<f64>,
}

/// Cuts `(end_s, latency_ms)` samples of a `total_s`-second interval into
/// whole [`WINDOW_S`] windows (a trailing partial window joins the last).
pub fn slice(samples: impl Iterator<Item = (f64, f64)>, total_s: f64) -> Vec<Window> {
    let n = ((total_s / WINDOW_S).floor() as usize).max(1);
    let width = total_s / n as f64;
    let mut windows = vec![
        Window {
            secs: width,
            latencies_ms: Vec::new()
        };
        n
    ];
    for (end, latency) in samples {
        let i = ((end / width) as usize).min(n - 1);
        windows[i].latencies_ms.push(latency);
    }
    windows
}

/// Per-window requests per second, p50 and p90 latency, each the median
/// over `windows`: a burst of outside load skews a window or two, not the
/// result.
pub fn window_medians(windows: &[Window]) -> (f64, f64, f64) {
    let per = |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    (
        per(&|w| ratio(w.latencies_ms.len() as f64, w.secs)),
        per(&|w| percentile(&w.latencies_ms, 0.5)),
        per(&|w| percentile(&w.latencies_ms, 0.9)),
    )
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Canonical report bytes with probe-work counters scrubbed, so that a warm,
/// cached or batched report compares equal to a cold reference: cache hits,
/// SQL counts and epoch gauges legitimately differ; keyword tables, answers,
/// non-answers, MPANs, SQL texts, samples and prune statistics must not.
pub fn scrubbed(mut report: DebugReport) -> Vec<u8> {
    for i in &mut report.interpretations {
        i.sql_queries = 0;
        i.probes = ProbeCounters::default();
    }
    encode_report(&report)
}

/// A 64-bit digest of [`scrubbed`] bytes, to compare reports without
/// keeping them.
pub fn fingerprint(report: DebugReport) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(&scrubbed(report));
    h.finish()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (requests, writes or set-ups).
    pub samples: usize,
}

impl Metric {
    /// A metric over `samples` samples.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (and reference checks).
    pub attempted: u64,
    /// Failures, sheds, degraded reports and reference mismatches.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Extra figures printed for people, not part of the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// Human-readable lines: every metric with its unit and sample count.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<36} {:>16.6} {:<6} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "{:<36} {:>16.6} {:<6} (n={})",
            "error_rate",
            self.error_rate(),
            "ratio",
            self.attempted
        );
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let o = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", "s", 1.5, 3)],
            notes: vec![],
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}

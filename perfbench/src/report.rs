//! What one run measured, and the line format `run.py` reads it in.
//!
//! Each line is `M <name> <unit> <value>` (a metric), `I <key> <value>`
//! (context that is not a metric: sample counts, raw counters) or
//! `A <attempted> <failed>` (operation counts). `run.py` turns them into
//! the final JSON result.

use std::fmt::Display;

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations that returned an error (never retried).
    pub failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
    info: Vec<(String, String)>,
}

impl Report {
    /// Records a metric; non-finite values are a bug in the benchmark.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name, unit, value));
    }

    /// Records context that is printed but is not a metric.
    pub fn info(&mut self, key: impl Into<String>, value: impl Display) {
        self.info.push((key.into(), value.to_string()));
    }

    /// Prints the report in the line format described above.
    pub fn print(&self) {
        for (key, value) in &self.info {
            println!("I {key} {value}");
        }
        for (name, unit, value) in &self.metrics {
            println!("M {name} {unit} {value}");
        }
        println!("A {} {}", self.attempted, self.failed);
    }
}

/// A latency histogram of fixed size, so memory use does not grow with
/// throughput: `width_ns` buckets, the last one holding everything above.
/// The default has no buckets and only holds a place.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    width_ns: u64,
    counts: Vec<u32>,
}

impl Hist {
    pub fn new(width_ns: u64, buckets: usize) -> Self {
        Hist {
            width_ns,
            counts: vec![0; buckets],
        }
    }

    pub fn record(&mut self, ns: u64) {
        let last = self.counts.len() - 1;
        self.counts[((ns / self.width_ns) as usize).min(last)] += 1;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// The nearest-rank `q` quantile, as the middle of its bucket.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let rank = ((q * self.total() as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return (i as f64 + 0.5) * self.width_ns as f64;
            }
        }
        panic!("quantile of an empty histogram");
    }
}

/// The median of `values` (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_quantiles_are_bucket_midpoints() {
        let mut h = Hist::new(10, 100);
        for ns in [5, 15, 25, 35, 5_000] {
            h.record(ns);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.quantile_ns(0.50), 25.0);
        // 5 000 ns lands in the last bucket, which holds everything above.
        assert_eq!(h.quantile_ns(0.99), 995.0);
    }

    #[test]
    fn median_takes_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 1_000.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}

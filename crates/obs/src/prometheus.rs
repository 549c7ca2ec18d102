//! Prometheus text-exposition-format rendering.
//!
//! A tiny builder over `String` for the handful of metric shapes the
//! pipeline exposes: plain counters/gauges, labelled counter series, and
//! log2 histograms rendered as cumulative `_bucket{le=…}` series. The
//! output follows the text format's rules (one `# HELP`/`# TYPE` pair per
//! family, `+Inf` bucket equal to `_count`), so any Prometheus scraper or
//! `promtool check metrics` accepts it.

use crate::hist::LogHistogram;
use std::fmt::{Display, Write};

/// A Prometheus text-format page under construction.
#[derive(Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty page.
    pub fn new() -> Self {
        PromText::default()
    }

    /// Writes the `# HELP`/`# TYPE` header for a metric family.
    fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Renders a monotonic counter.
    pub fn counter(&mut self, name: &str, help: &str, value: impl Display) -> &mut Self {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name} {value}");
        self
    }

    /// Renders a gauge (a value that can go down, e.g. residency).
    pub fn gauge(&mut self, name: &str, help: &str, value: impl Display) -> &mut Self {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name} {value}");
        self
    }

    /// Renders a labelled counter family: one sample per `(labels, value)`
    /// entry, each `labels` a `name="value"` list body (no braces).
    pub fn labeled_counter(
        &mut self,
        name: &str,
        help: &str,
        series: &[(String, u64)],
    ) -> &mut Self {
        self.header(name, help, "counter");
        for (labels, value) in series {
            let _ = writeln!(self.out, "{name}{{{labels}}} {value}");
        }
        self
    }

    /// Renders a [`LogHistogram`] as a Prometheus histogram: cumulative
    /// `_bucket` samples at each non-empty power-of-two boundary (plus
    /// `+Inf`), then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, help: &str, h: &LogHistogram) -> &mut Self {
        self.header(name, help, "histogram");
        let mut cum = 0u64;
        for (i, &c) in h.buckets().iter().enumerate() {
            if c == 0 {
                continue; // sparse rendering: empty buckets add no information
            }
            cum += c;
            let _ = writeln!(
                self.out,
                "{name}_bucket{{le=\"{}\"}} {cum}",
                LogHistogram::bucket_bound(i)
            );
        }
        let _ = writeln!(self.out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
        let _ = writeln!(self.out, "{name}_sum {}", h.sum());
        let _ = writeln!(self.out, "{name}_count {}", h.count());
        self
    }

    /// The rendered page.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut p = PromText::new();
        p.counter("parcfl_queries_total", "Queries answered.", 12)
            .gauge("parcfl_store_entries", "Resident jmp entries.", 5);
        let s = p.finish();
        assert!(s.contains("# TYPE parcfl_queries_total counter"));
        assert!(s.contains("parcfl_queries_total 12"));
        assert!(s.contains("# TYPE parcfl_store_entries gauge"));
        assert!(s.contains("parcfl_store_entries 5"));
    }

    #[test]
    fn labeled_series() {
        let mut p = PromText::new();
        p.labeled_counter(
            "parcfl_worker_local_pops_total",
            "Work-list pops per worker.",
            &[
                ("worker=\"0\"".to_string(), 3),
                ("worker=\"1\"".to_string(), 7),
            ],
        );
        let s = p.finish();
        assert!(s.contains("parcfl_worker_local_pops_total{worker=\"0\"} 3"));
        assert!(s.contains("parcfl_worker_local_pops_total{worker=\"1\"} 7"));
        assert_eq!(
            s.matches("# TYPE parcfl_worker_local_pops_total").count(),
            1,
            "one TYPE line per family"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let mut h = LogHistogram::new();
        h.record(1); // bucket 0, le 2
        h.record(3); // bucket 1, le 4
        h.record(3);
        h.record(100); // bucket 6, le 128
        let mut p = PromText::new();
        p.histogram("parcfl_query_latency", "Per-query latency.", &h);
        let s = p.finish();
        assert!(s.contains("parcfl_query_latency_bucket{le=\"2\"} 1"));
        assert!(s.contains("parcfl_query_latency_bucket{le=\"4\"} 3"));
        assert!(s.contains("parcfl_query_latency_bucket{le=\"128\"} 4"));
        assert!(s.contains("parcfl_query_latency_bucket{le=\"+Inf\"} 4"));
        assert!(s.contains("parcfl_query_latency_sum 107"));
        assert!(s.contains("parcfl_query_latency_count 4"));
        assert!(!s.contains("le=\"8\""), "empty buckets are skipped: {s}");
    }
}

//! Named metrics with units and sample counts, and the result line.

use std::fmt::Write as _;

use crate::stats;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many samples the value summarises (1 for a count).
    pub samples: usize,
    /// What the value is: `median`, `p90`, `count`, `rate`, …
    pub stat: &'static str,
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    fn push(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        stat: &'static str,
    ) {
        self.items.push(Metric {
            name: name.to_owned(),
            unit,
            value,
            samples,
            stat,
        });
    }

    /// A value that is not a summary of samples (a rate, a ratio, a
    /// size), derived from `samples` ops.
    pub fn value(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.push(name, unit, value, samples, "value");
    }

    /// An exact count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.push(name, "count", value as f64, 1, "count");
    }

    /// The median of `samples`.
    pub fn median(
        &mut self,
        name: &str,
        unit: &'static str,
        samples: &[f64],
    ) -> Result<f64, String> {
        let v = stats::median(samples).map_err(|e| format!("{name}: {e}"))?;
        self.push(name, unit, v, samples.len(), "median");
        Ok(v)
    }

    /// The nearest-rank 90th percentile of `samples`, refused when fewer
    /// than ten samples lie beyond it.
    pub fn p90(&mut self, name: &str, unit: &'static str, samples: &[f64]) -> Result<f64, String> {
        let v = stats::percentile(samples, 0.9).map_err(|e| format!("{name}: {e}"))?;
        self.push(name, unit, v, samples.len(), "p90");
        Ok(v)
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.items.iter().find(|m| m.name == name)
    }

    /// A table with the sample count next to every value.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.items {
            let _ = writeln!(
                out,
                "  {:<34} {:>14.4} {:<6} {:<6} n={}",
                m.name, m.value, m.unit, m.stat, m.samples
            );
        }
        out
    }

    /// The result line: `names` picks and orders the metrics; every one
    /// must have been measured.
    pub fn result_line(
        &self,
        names: &[&str],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut body = Vec::new();
        for &name in names {
            let m = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite: {}", m.value));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

/// A finite float as JSON, with every digit Rust's shortest round-trip
/// formatting gives it.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

/// End-to-end metrics, reported with `--trace 0` on every workload. Each
/// workload measures all of them on its own main phase; [`alias_of`]
/// names the workload's own metric behind each.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "success_rate",
    "latency_ms_p50",
    "work_per_s",
];

/// The workload metric a generic end-to-end metric reports, with the
/// factor that converts its unit.
pub fn alias_of(workload: &str, generic: &str) -> Option<(&'static str, f64)> {
    Some(match (workload, generic) {
        ("figures-cold", "latency_ms_p50") => ("figures_s", 1000.0),
        ("figures-cold", "work_per_s") => ("figures_requests_per_s", 1.0),
        ("search-store", "latency_ms_p50") => ("replay_ms", 1.0),
        ("search-store", "work_per_s") => ("search_evals_per_s", 1.0),
        ("daemon-warm", "latency_ms_p50") => ("cycle_ms_p50", 1.0),
        ("daemon-warm", "work_per_s") => ("requests_per_s", 1.0),
        _ => return None,
    })
}

/// Per-layer metrics, reported with `--trace 1` on every workload.
pub const PER_LAYER: &[&str] = &[
    "sched.loops_per_s",
    "sched.loop_us_p50",
    "sched.loop_us_p90",
    "sched.partition_us_p50",
    "sched.pseudo_eval_us_p50",
    "sched.ims_us_p50",
    "explore.profile_s",
    "explore.measure_miss_ms_p50",
    "explore.evaluate_ms_p50",
    "explore.select_ms_p50",
    "explore.homog_ms",
    "explore.measure_hit_us_p50",
    "explore.measure_misses_figures",
    "explore.measure_misses_search",
    "search.evaluations",
    "search.screened",
    "search.replay_ms_p50",
    "store.open_ms",
    "store.open_mb_per_s",
    "store.get_us_p50",
    "store.put_us_p50",
    "store.stats_us_p50",
    "store.bytes_written",
    "store.bytes_read",
    "exec.map_us_p50",
    "api.request_decode_us_p50",
    "api.response_encode_us_p50",
    "api.response_decode_us_p50",
    "api.cache_stats_us_p50",
    "api.engine_run_ms_p50.table1",
    "api.engine_run_ms_p50.table2",
    "api.engine_run_ms_p50.figure6",
    "api.engine_run_ms_p50.figure7",
    "api.engine_run_ms_p50.figure8",
    "api.engine_run_ms_p50.figure9",
    "api.engine_run_ms_p50.search",
    "serve.ping_us_p50",
    "serve.overhead_ms_p50",
    "workloads.suite_ms",
    "trace.overhead_pct",
    "trace.self_ms.bench",
    "trace.self_ms.api",
    "trace.self_ms.serve",
    "trace.self_ms.store",
    "trace.self_ms.sched",
    "trace.self_ms.explore",
    "trace.self_ms.search",
    "trace.self_ms.exec",
    "trace.self_ms.workloads",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(1.0), "1.0");
        for v in [0.1 + 0.2, 1e-7, 123_456.789_012_345, 2.0_f64.sqrt()] {
            assert_eq!(json_number(v).parse::<f64>().unwrap(), v);
        }
    }

    #[test]
    fn result_line_lists_exactly_the_named_metrics() {
        let mut m = Metrics::default();
        m.value("a", "s", 2.5, 3);
        m.count("b", 7);
        let line = m.result_line(&["b"], true, 3, 0).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"b\": {\"value\": 7.0, \"unit\": \"count\"}}}"
        );
        assert!(m.result_line(&["c"], true, 1, 0).is_err());
    }
}

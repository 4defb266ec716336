//! Metric names, units and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("ok_frac", "ratio"),
    ("oracle_recall_at_10", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not cross reads 0 there (see `hambench/README.md` for which metric
/// belongs to which workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p99_ms", "ms"),
    ("latency_samples", "count"),
    ("tensor.scan_us", "us"),
    ("tensor.scan_gbps", "GB/s"),
    ("tensor.kernel_calls_per_op", "count"),
    ("tensor.kernel_bytes_per_op", "bytes"),
    ("core.query_build_us", "us"),
    ("serve.select_us", "us"),
    ("serve.merge_us", "us"),
    ("serve.client_ops_s", "ops/s"),
    ("serve.client_p50_ms", "ms"),
    ("serve.client_p99_ms", "ms"),
    ("serve.queue_us_mean", "us"),
    ("serve.queue_us_p99", "us"),
    ("serve.service_us_mean", "us"),
    ("serve.dispatch_overhead_us", "us"),
    ("serve.shed_total", "count"),
    ("serve.degraded_total", "count"),
    ("online.ingest_us", "us"),
    ("online.round_ms", "ms"),
    ("online.train_ms", "ms"),
    ("online.publish_ms", "ms"),
    ("online.gate_probes", "count"),
    ("online.first_serve_ms", "ms"),
    ("online.generator_lag_p99_ms", "ms"),
    ("online.unserved_events", "count"),
    ("eval.score_us_per_user", "us"),
    ("eval.rank_us_per_user", "us"),
    ("setup.data_s", "s"),
    ("setup.train_s", "s"),
    ("setup.freeze_s", "s"),
    ("model_recall_at_10", "ratio"),
    ("model_ndcg_at_10", "ratio"),
    ("trace.overhead_latency_p50_pct", "%"),
    ("trace.overhead_latency_p99_pct", "%"),
    ("trace.overhead_throughput_pct", "%"),
];

/// Named values a workload produced; anything not in the two tables above
/// still goes to the results file.
#[derive(Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Outcome of one run, before rendering.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable findings (failed checks first).
    pub notes: Vec<String>,
}

/// Renders the result line: every end-to-end metric (`trace == false`) or
/// every per-layer metric (`trace == true`).
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let table = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = JsonObject::new();
    let mut correct = outcome.correct;
    for &(name, unit) in table {
        let value = match outcome.values.get(name) {
            Some(v) if v.is_finite() => v,
            Some(_) => {
                correct = false;
                0.0
            }
            // End-to-end metrics are mandatory; a missing one is a bug.
            None if !trace => {
                correct = false;
                0.0
            }
            None => 0.0,
        };
        let mut entry = JsonObject::new();
        entry.num("value", value);
        entry.str("unit", unit);
        metrics.raw(name, entry.render());
    }
    let mut line = JsonObject::new();
    line.raw("correct", correct.to_string());
    line.raw("attempted", outcome.attempted.to_string());
    line.raw("failed", outcome.failed.to_string());
    line.raw("metrics", metrics.render());
    line.render()
}

/// A flat, insertion-ordered JSON object writer (the benchmark has no JSON
/// dependency of its own).
#[derive(Default)]
pub struct JsonObject(Vec<(String, String)>);

impl JsonObject {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        let rendered = if value.is_finite() { format!("{value:?}") } else { "null".to_string() };
        self.raw(key, rendered)
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.raw(key, format!("\"{escaped}\""))
    }

    pub fn raw(&mut self, key: &str, rendered: String) -> &mut Self {
        self.0.push((key.to_string(), rendered));
        self
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!("{{{}}}", body.join(", "))
    }
}

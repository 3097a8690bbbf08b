//! The metric catalogue and the result line every run ends with.
//!
//! `BENCHMARK.json` at the repository root declares the same names and
//! units; a self-test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), in output order: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_attainment", "fraction"),
    ("sim_shots_per_s", "1/s"),
    ("sim_exec_us", "us"),
    ("clp_speedup", "x"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), in output order: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.lag_p99_ms", "ms"),
    ("gen.sent", "count"),
    ("gen.depth_start", "jobs"),
    ("gen.depth_end", "jobs"),
    ("front.submit_us_p50", "us"),
    ("front.wait_ms_p99", "ms"),
    ("front.shed", "count"),
    ("router.place_us_p50", "us"),
    ("router.warm_place_ratio", "fraction"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.queue_wait_ms_p99", "ms"),
    ("server.quanta_per_job", "count"),
    ("server.quantum_us_p50", "us"),
    ("server.quantum_us_p99", "us"),
    ("server.finalize_us_p50", "us"),
    ("cache.hit_ratio", "fraction"),
    ("cache.evictions", "count"),
    ("cache.compile_ms_p50", "ms"),
    ("cache.compile_ms_p99", "ms"),
    ("isa.assemble_us", "us"),
    ("core.compile_us", "us"),
    ("engine.shot_us_p50", "us"),
    ("engine.shot_us_p99", "us"),
    ("engine.host_ns_per_sim_cycle", "ns"),
    ("qpu.apply_calls_per_shot", "count"),
    ("qpu.share_of_shot", "fraction"),
    ("sim.cycles_per_shot", "cycles"),
    ("sim.measure_wait_cycles", "cycles"),
    ("sim.sched_busy_cycles", "cycles"),
    ("sim.ctx_dep_stalls", "cycles"),
    ("sim.prefetch_hit_ratio", "fraction"),
    ("sim.late_issues", "count"),
    ("sim.daq_contended", "count"),
    ("sim.proc_utilization", "fraction"),
    ("trace.overhead", "x"),
    ("trace.dropped_events", "count"),
    ("breakdown.gap_frac", "fraction"),
];

/// The metric values one run measured, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// When `name` is set twice — a bug in the workload.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.0.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (jobs or requests sent).
    pub attempted: u64,
    /// Attempts that were shed, errored, cancelled or stopped short of
    /// completion.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: Metrics,
    /// Workload parameters and sample counts, for the provenance line.
    pub params: Vec<(&'static str, String)>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

/// One human-readable line per metric of `catalogue`: name, value, unit.
pub fn metric_lines(catalogue: &[(&str, &str)], metrics: &Metrics) -> Vec<String> {
    catalogue
        .iter()
        .map(|&(name, unit)| match metrics.get(name) {
            Some(v) => format!("  {name:<30} {v:>16.6} {unit}"),
            None => format!("  {name:<30} {:>16} {unit}", "missing"),
        })
        .collect()
}

/// The closing JSON line: `correct`, `attempted`, `failed`, and every
/// metric of `catalogue` with its value and unit.
///
/// # Errors
///
/// When a catalogue metric is missing or not finite, or `metrics` holds
/// a name outside the catalogue.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    metrics: &Metrics,
) -> Result<String, String> {
    if let Some(extra) = metrics
        .0
        .keys()
        .find(|k| !catalogue.iter().any(|(name, _)| name == *k))
    {
        return Err(format!("metric {extra} is not in the catalogue"));
    }
    let mut entries = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        entries.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Map(entries) => {
                &entries
                    .iter()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("missing key {key}"))
                    .1
            }
            other => panic!("expected an object, got {}", other.kind()),
        }
    }

    fn keys(v: &Value) -> Vec<&str> {
        match v {
            Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {}", other.kind()),
        }
    }

    fn full(catalogue: &[(&'static str, &str)]) -> Metrics {
        let mut m = Metrics::default();
        for (i, &(name, _)) in catalogue.iter().enumerate() {
            m.set(name, 0.5 + i as f64);
        }
        m
    }

    #[test]
    fn result_line_has_the_documented_shape() {
        for catalogue in [END_TO_END, PER_LAYER] {
            let line = result_line(true, 12, 1, catalogue, &full(catalogue)).unwrap();
            assert!(!line.contains('\n'));
            let v = serde_json::value_from_str(&line).unwrap();
            assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(field(&v, "correct"), &Value::Bool(true));
            assert_eq!(field(&v, "attempted"), &Value::UInt(12));
            assert_eq!(field(&v, "failed"), &Value::UInt(1));
            let metrics = field(&v, "metrics");
            let names: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            assert_eq!(keys(metrics), names);
            for (i, &(name, unit)) in catalogue.iter().enumerate() {
                let m = field(metrics, name);
                assert_eq!(keys(m), ["value", "unit"]);
                assert_eq!(field(m, "unit"), &Value::Str(unit.to_string()));
                assert_eq!(field(m, "value"), &Value::Float(0.5 + i as f64));
            }
        }
    }

    #[test]
    fn values_keep_all_their_digits() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.123_456_789_012_345_6);
        let line = result_line(true, 1, 0, &[("setup_s", "s")], &m).unwrap();
        let v = serde_json::value_from_str(&line).unwrap();
        let value = field(field(field(&v, "metrics"), "setup_s"), "value");
        assert_eq!(value, &Value::Float(0.123_456_789_012_345_6));
    }

    #[test]
    fn incomplete_or_foreign_metrics_are_refused() {
        let mut m = full(END_TO_END);
        assert!(result_line(true, 1, 0, &END_TO_END[1..], &m).is_err());
        m.set("gen.sent", 1.0);
        assert!(result_line(true, 1, 0, END_TO_END, &m).is_err());
        let mut nan = Metrics::default();
        nan.set("setup_s", f64::NAN);
        assert!(result_line(true, 1, 0, &[("setup_s", "s")], &nan).is_err());
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let v = serde_json::value_from_str(&text).unwrap();
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Value::Seq(declared) = field(&v, key) else {
                panic!("{key} is not a list");
            };
            let declared: Vec<(String, String)> = declared
                .iter()
                .map(|m| match (field(m, "name"), field(m, "unit")) {
                    (Value::Str(n), Value::Str(u)) => (n.clone(), u.clone()),
                    _ => panic!("{key} entry without a name and unit"),
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from the catalogue");
        }
        // Every workload the command accepts is declared, and no other.
        let Value::Seq(workloads) = field(&v, "workloads") else {
            panic!("workloads is not a list");
        };
        let names: Vec<&Value> = workloads.iter().map(|w| field(w, "name")).collect();
        let ours: Vec<Value> = crate::WORKLOADS
            .iter()
            .map(|w| Value::Str(w.to_string()))
            .collect();
        assert_eq!(names, ours.iter().collect::<Vec<_>>());
    }
}

//! The metric catalogue (the names and units `BENCHMARK.json` declares)
//! and the collector that prints a run's result.

use crate::json::quote;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs and gated. Every time
/// among them is host-normalised: a solve or a request over the frozen
/// reference loop (`x_ref`), or set-up seconds on the nominal host.
/// Raw walls move with the host's speed state, so they are reported
/// (`wall.*`) but not gated.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("solve_norm_p50", "x_ref"),
    ("solve_norm_tail", "x_ref"),
    ("latency_norm_p50", "x_ref"),
    ("latency_norm_tail", "x_ref"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// The raw walls behind the end-to-end metrics: printed by traced runs,
/// and in the table (not the result line) of untraced runs.
pub const WALLS: [(&str, &str); 5] = [
    ("wall.setup_s", "s"),
    ("wall.solve_ms_p50", "ms"),
    ("wall.solve_ms_tail", "ms"),
    ("wall.latency_ms_p50", "ms"),
    ("wall.latency_ms_tail", "ms"),
];

/// Solver phases reported by `SolveReport.phases` that the benchmark
/// breaks solves down by.
pub const PHASES: [&str; 6] = [
    "remainder",
    "treepoly",
    "preinterval",
    "sieve",
    "bisection",
    "newton",
];

/// Public `Int` operations timed per operand-size bucket.
pub const MP_OPS: [&str; 4] = ["mul", "sqr", "div_rem", "div_exact"];

/// Operand-size buckets in limbs: (name, largest limb count).
pub const MP_BUCKETS: [(&str, usize); 4] = [
    ("le8", 8),
    ("l9-32", 32),
    ("l33-128", 128),
    ("gt128", usize::MAX),
];

/// Per-layer metrics, printed by traced runs.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m = Vec::new();
    for phase in PHASES {
        for (field, unit) in [
            ("self_ms", "ms"),
            ("share", "ratio"),
            ("muls", "count"),
            ("mul_bits", "bit2"),
            ("ns_per_limbpair", "ns"),
        ] {
            m.push((format!("core.{phase}.{field}"), unit));
        }
    }
    for op in MP_OPS {
        for (bucket, _) in MP_BUCKETS {
            m.push((format!("mp.{op}.ns_per_limbpair.{bucket}"), "ns"));
        }
    }
    let fixed: [(&str, &'static str); 23] = [
        ("poly.remainder_seq_ms", "ms"),
        ("poly.sign_at_us", "us"),
        ("sched.tasks", "count"),
        ("sched.work_ms", "ms"),
        ("sched.span_ms", "ms"),
        ("sched.parallelism", "x"),
        ("sched.busy_ratio", "ratio"),
        ("sched.steal_retries", "count"),
        ("sched.empty_polls", "count"),
        ("sched.speedup", "x"),
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.queue_wait_ms_p99", "ms"),
        ("serve.solve_ms_p50", "ms"),
        ("serve.overhead_ms_p50", "ms"),
        ("serve.cpu_ms_per_req", "ms"),
        ("serve.retries", "count"),
        ("serve.rejected", "count"),
        ("serve.degraded", "count"),
        ("workload.gen_s", "s"),
        ("loadgen.lag_ms_p99", "ms"),
        ("host.ref_ms_p50", "ms"),
        ("host.ref_ms_iqr", "ms"),
        ("obs.trace_overhead", "x"),
    ];
    m.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    m.extend(WALLS.iter().map(|&(n, u)| (n.to_string(), u)));
    m
}

/// The metrics a run must print: every end-to-end metric when untraced,
/// every per-layer metric when traced.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// One run's result: values for the declared metrics, any others the
/// run measured, and the correctness tally.
pub struct RunResult {
    declared: Vec<(String, &'static str)>,
    values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl RunResult {
    pub fn new(trace: bool) -> RunResult {
        RunResult {
            declared: declared(trace),
            values: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Sets metric `name`. Every value goes into the table; only the
    /// declared metrics go into the result line, so the workloads can
    /// compute both sets the same way.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name.to_string(), value);
    }

    /// Tallies one timed operation.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Declared metrics this run has not set.
    pub fn missing(&self) -> Vec<&str> {
        self.declared
            .iter()
            .filter(|(n, _)| !self.values.contains_key(n))
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Metrics as `name value unit` lines, for people: the declared ones,
    /// then the walls this run measured but does not print on the result
    /// line.
    pub fn table(&self) -> String {
        let line = |n: &str, u: &str| {
            self.values
                .get(n)
                .map(|v| format!("{n:<40} {v:>16.6} {u}\n"))
        };
        let declared = self.declared.iter().filter_map(|(n, u)| line(n, u));
        let walls = WALLS
            .iter()
            .filter(|(n, _)| !self.declared.iter().any(|(d, _)| d == n))
            .filter_map(|(n, u)| line(n, u).map(|l| l.replace('\n', "  (not gated)\n")));
        declared.chain(walls).collect()
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .declared
            .iter()
            .filter_map(|(n, u)| {
                self.values
                    .get(n)
                    .map(|v| format!("{}: {{\"value\": {v}, \"unit\": {}}}", quote(n), quote(u)))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("valid JSON")
    }

    fn listed(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .as_array()
            .iter()
            .map(|m| {
                (
                    m.get("name").as_str().unwrap().to_string(),
                    m.get("unit").as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    fn ours(trace: bool) -> Vec<(String, String)> {
        declared(trace)
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let v = benchmark_json();
        assert_eq!(ours(false), listed(&v, "end_to_end"));
        assert_eq!(ours(true), listed(&v, "per_layer"));
    }

    #[test]
    fn workloads_in_benchmark_json_are_the_ones_the_harness_runs() {
        let names: Vec<String> = benchmark_json()
            .get("workloads")
            .as_array()
            .iter()
            .map(|w| w.get("name").as_str().unwrap().to_string())
            .collect();
        let ours: Vec<String> = crate::workload::ALL
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut r = RunResult::new(false);
        for (n, _) in END_TO_END {
            r.set(n, 1.5);
        }
        r.set("core.newton.muls", 3.0); // not printed by untraced runs
        r.set("wall.solve_ms_p50", 40.0); // in the table only
        r.tally(true);
        assert!(r
            .table()
            .lines()
            .any(|l| l.starts_with("wall.solve_ms_p50") && l.ends_with("(not gated)")));
        assert!(!r.table().contains("core.newton.muls"));
        assert!(r.missing().is_empty());
        let v = parse(&r.json()).unwrap();
        let Value::Object(top) = &v else { panic!() };
        assert_eq!(
            top.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        let Value::Object(m) = v.get("metrics") else {
            panic!()
        };
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            v.get("metrics").get("setup_s").get("unit").as_str(),
            Some("s")
        );
        assert_eq!(v.get("correct"), &Value::Bool(true));
    }
}

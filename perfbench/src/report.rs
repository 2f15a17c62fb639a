//! The metrics a run reports, and its output: one line per metric, then the
//! result object as the last line of standard output.

use std::collections::BTreeMap;

use crate::replay::Tally;
use crate::stats::tail;
use crate::trace::Layer;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("compiles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ii_per_iter", "cycles"),
];

/// Per-layer metrics, reported by every workload from its traced run; a layer
/// the workload's program never enters reports 0.
pub const PER_LAYER: [(&str, &str); 72] = [
    ("loopgen.total_ms", "ms"),
    ("loopgen.ops", "count"),
    ("unroll.calls", "count"),
    ("unroll.total_ms", "ms"),
    ("unroll.tail_us", "us"),
    ("unroll.ops_out", "count"),
    ("qrf.copies_total_ms", "ms"),
    ("qrf.copies_tail_us", "us"),
    ("qrf.copies_inserted", "count"),
    ("sched.calls", "count"),
    ("sched.total_ms", "ms"),
    ("sched.p50_us", "us"),
    ("sched.tail_us", "us"),
    ("sched.attempts_per_call", "ratio"),
    ("sched.first_ii_share", "ratio"),
    ("partition.calls", "count"),
    ("partition.total_ms", "ms"),
    ("partition.p50_us", "us"),
    ("partition.tail_us", "us"),
    ("partition.tail_over_p50", "ratio"),
    ("partition.attempts_per_call", "ratio"),
    ("partition.collapse_share", "ratio"),
    ("partition.collapse_time_share", "ratio"),
    ("partition.self_share", "ratio"),
    ("partition.c4_calls", "count"),
    ("partition.c4_collapses", "count"),
    ("partition.c4_collapse_time_share", "ratio"),
    ("partition.c5_calls", "count"),
    ("partition.c5_collapses", "count"),
    ("partition.c5_collapse_time_share", "ratio"),
    ("partition.c6_calls", "count"),
    ("partition.c6_collapses", "count"),
    ("partition.c6_collapse_time_share", "ratio"),
    ("qrf.alloc_calls", "count"),
    ("qrf.alloc_total_ms", "ms"),
    ("qrf.alloc_tail_us", "us"),
    ("qrf.queues_per_call", "ratio"),
    ("pipeline.compile_p50_us", "us"),
    ("pipeline.compile_tail_us", "us"),
    ("verify.calls", "count"),
    ("verify.total_ms", "ms"),
    ("verify.tail_us", "us"),
    ("verify.faults", "count"),
    ("sim.calls", "count"),
    ("sim.total_ms", "ms"),
    ("sim.tail_us", "us"),
    ("sim.host_ns_per_cycle", "ns"),
    ("sim.violations", "count"),
    ("bounds.calls", "count"),
    ("bounds.total_ms", "ms"),
    ("session.compilations", "count"),
    ("session.hits", "count"),
    ("session.hit_share", "ratio"),
    ("session.disk_hits", "count"),
    ("persist.files", "count"),
    ("persist.bytes_written", "bytes"),
    ("persist.write_ms", "ms"),
    ("persist.read_ms", "ms"),
    ("serve.fig3_p50_ms", "ms"),
    ("serve.copy_cost_p50_ms", "ms"),
    ("serve.fig4_p50_ms", "ms"),
    ("serve.sweep_dynamic_p50_ms", "ms"),
    ("serve.sweep_pruned_p50_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.restart_s", "s"),
    ("serve.request_p50_ms", "ms"),
    ("serve.request_p99_ms", "ms"),
    ("serve.requests_per_s", "1/s"),
    ("trace.untraced_replay_s", "s"),
    ("trace.traced_replay_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result object.
    lines: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.correct = false;
            self.lines.push(format!("CHECK FAILED: {}", what.into()));
        }
    }

    /// Sets the `session.*` metrics from a session's cache statistics.
    pub fn session(&mut self, stats: &vliw_core::SessionStats) {
        let lookups = stats.compilations + stats.hits + stats.disk_hits;
        self.set("session.compilations", stats.compilations as f64);
        self.set("session.hits", stats.hits as f64);
        self.set("session.disk_hits", stats.disk_hits as f64);
        self.set(
            "session.hit_share",
            (stats.hits + stats.disk_hits) as f64 / lookups.max(1) as f64,
        );
    }

    /// Sets `names` — call count, total ms, p50 µs and tail µs, in that
    /// order; `None` skips one — from the layer's spans, and prints the
    /// layer's line with the tail's percentile.
    pub fn layer(
        &mut self,
        layers: &BTreeMap<&'static str, Layer>,
        span: &str,
        names: [Option<&'static str>; 4],
    ) {
        let Some(layer) = layers.get(span) else { return };
        let mut sorted = layer.durations_ns.clone();
        sorted.sort_unstable();
        let (pct, tail_ns) = tail(&sorted);
        let p50 = crate::stats::percentile(&sorted, 50.0);
        let values = [
            layer.calls() as f64,
            layer.total_ns() as f64 / 1e6,
            p50 as f64 / 1e3,
            tail_ns as f64 / 1e3,
        ];
        for (name, value) in names.into_iter().zip(values) {
            if let Some(name) = name {
                self.set(name, value);
            }
        }
        self.line(format!(
            "# layer {span}: {} calls, total {:.3} ms, self {:.3} ms, p50 {:.1} us, p{pct} {:.1} us",
            layer.calls(),
            layer.total_ns() as f64 / 1e6,
            layer.self_ns as f64 / 1e6,
            p50 as f64 / 1e3,
            tail_ns as f64 / 1e3,
        ));
    }

    /// Sets every compile-stage metric from a replay's spans and counts.
    pub fn stage_metrics(&mut self, layers: &BTreeMap<&'static str, Layer>, tally: &Tally) {
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        self.layer(
            layers,
            "unroll",
            [Some("unroll.calls"), Some("unroll.total_ms"), None, Some("unroll.tail_us")],
        );
        self.set("unroll.ops_out", tally.unroll_ops_out as f64);
        self.layer(
            layers,
            "qrf/copies",
            [None, Some("qrf.copies_total_ms"), None, Some("qrf.copies_tail_us")],
        );
        self.set("qrf.copies_inserted", tally.copies_inserted as f64);
        self.layer(
            layers,
            "sched",
            [
                Some("sched.calls"),
                Some("sched.total_ms"),
                Some("sched.p50_us"),
                Some("sched.tail_us"),
            ],
        );
        self.set(
            "sched.attempts_per_call",
            ratio(tally.ims_attempts as f64, tally.ims_calls as f64),
        );
        self.set("sched.first_ii_share", ratio(tally.ims_first_ii as f64, tally.ims_calls as f64));
        self.layer(
            layers,
            "partition",
            [
                Some("partition.calls"),
                Some("partition.total_ms"),
                Some("partition.p50_us"),
                Some("partition.tail_us"),
            ],
        );
        let p50 = self.values.get("partition.p50_us").copied().unwrap_or(0.0);
        let tail_us = self.values.get("partition.tail_us").copied().unwrap_or(0.0);
        self.set("partition.tail_over_p50", ratio(tail_us, p50));
        self.set(
            "partition.attempts_per_call",
            ratio(tally.partition_attempts as f64, tally.partition_calls as f64),
        );
        let sum = |k: usize| tally.by_clusters.iter().map(|row| row[k]).sum::<u64>() as f64;
        let partition_ns = sum(2);
        self.set("partition.collapse_share", ratio(sum(1), sum(0)));
        self.set("partition.collapse_time_share", ratio(sum(3), partition_ns));
        let self_total: u64 = layers.values().map(|l| l.self_ns).sum();
        let partition_self = layers.get("partition").map_or(0, |l| l.self_ns);
        self.set("partition.self_share", ratio(partition_self as f64, self_total as f64));
        const COLLAPSE: [[&str; 3]; 3] = [
            ["partition.c4_calls", "partition.c4_collapses", "partition.c4_collapse_time_share"],
            ["partition.c5_calls", "partition.c5_collapses", "partition.c5_collapse_time_share"],
            ["partition.c6_calls", "partition.c6_collapses", "partition.c6_collapse_time_share"],
        ];
        if partition_ns > 0.0 {
            self.line("# collapse attribution (share of all partition time):");
            self.line("#   clusters  calls  collapses  collapse_time_share  partition_ms");
        }
        for (clusters, names) in (4..=6).zip(COLLAPSE) {
            let row = tally.by_clusters[clusters];
            self.set(names[0], row[0] as f64);
            self.set(names[1], row[1] as f64);
            self.set(names[2], ratio(row[3] as f64, partition_ns));
            if partition_ns > 0.0 {
                self.line(format!(
                    "#   {clusters:>8}  {:>5}  {:>9}  {:>19.4}  {:>12.1}",
                    row[0],
                    row[1],
                    ratio(row[3] as f64, partition_ns),
                    row[2] as f64 / 1e6
                ));
            }
        }
        self.layer(
            layers,
            "qrf/alloc",
            [Some("qrf.alloc_calls"), Some("qrf.alloc_total_ms"), None, Some("qrf.alloc_tail_us")],
        );
        self.set("qrf.queues_per_call", ratio(tally.queues as f64, tally.alloc_calls as f64));
        self.layer(layers, "qrf/registers", [None; 4]);
        self.layer(
            layers,
            "pipeline",
            [None, None, Some("pipeline.compile_p50_us"), Some("pipeline.compile_tail_us")],
        );
        self.layer(
            layers,
            "verify",
            [Some("verify.calls"), Some("verify.total_ms"), None, Some("verify.tail_us")],
        );
        self.set("verify.faults", tally.verify_schedule_faults as f64);
        self.layer(
            layers,
            "sim",
            [Some("sim.calls"), Some("sim.total_ms"), None, Some("sim.tail_us")],
        );
        let sim_ns = layers.get("sim").map_or(0, Layer::total_ns);
        self.set("sim.host_ns_per_cycle", ratio(sim_ns as f64, tally.sim_cycles as f64));
        self.set("sim.violations", tally.sim_violations as f64);
        self.layer(layers, "bounds", [Some("bounds.calls"), Some("bounds.total_ms"), None, None]);
        self.layer(layers, "persist/write", [None, Some("persist.write_ms"), None, None]);
        self.layer(layers, "persist/read", [None, Some("persist.read_ms"), None, None]);
        self.layer(layers, "loopgen", [None, Some("loopgen.total_ms"), None, None]);
    }

    /// Prints every metric of the selected list, then the result object.
    pub fn emit(mut self, traced: bool) {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    self.check(false, format!("{name} is not a finite number"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    self.check(false, format!("{name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
            self.lines.push(format!("{name} = {value} {unit}"));
        }
        if self.attempted == 0 {
            self.check(false, "the run attempted nothing");
        }
        for line in &self.lines {
            println!("{line}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(entries) => &entries.iter().find(|(k, _)| k == key).expect(key).1,
            _ => panic!("{key}: not an object"),
        }
    }

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        let Value::Array(items) = field(doc, list) else { panic!("{list}: not an array") };
        let text = |v: &Value| match v {
            Value::String(s) => s.clone(),
            _ => panic!("not a string"),
        };
        items.iter().map(|m| (text(field(m, "name")), text(field(m, "unit")))).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), ours(&PER_LAYER));
    }
}

//! What one run measured, and how it is printed: a table for people,
//! then one JSON line for tools that collect results.

use crate::probe::Phase;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A per-layer metric: its name, unit, and the end-to-end metric (per
/// workload) it should move. `BENCHMARK.json` declares the same names
/// and units, with the direction that is better.
#[derive(Debug, Clone, Copy)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, moves: &'static str) -> LayerDef {
    LayerDef { name, unit, moves }
}

/// Every per-layer metric, in print order. The first block is read in
/// every run; the rest come from the traced run only. A layer a
/// workload does not exercise reads 0 there.
pub const LAYERS: &[LayerDef] = &[
    layer(
        "wire.loop_busy_us_per_op",
        "us/op",
        "serve: ops_per_s, latency_p50_us",
    ),
    layer(
        "service.worker_busy_us_per_op",
        "us/op",
        "serve: cpu_us_per_op",
    ),
    layer(
        "journal.writer_busy_us_per_op",
        "us/op",
        "serve: cpu_us_per_op",
    ),
    layer(
        "batch.worker_busy_us_per_op",
        "us/op",
        "replay: ops_per_s; plan: cpu_us_per_op",
    ),
    layer(
        "load.client_busy_us_per_op",
        "us/op",
        "nothing (must stay far below loop busy)",
    ),
    layer(
        "wire.wakeups_per_op",
        "1/op",
        "serve: ops_per_s via loop busy",
    ),
    layer(
        "wire.frames_per_writev",
        "frames/writev",
        "serve: ops_per_s via loop busy",
    ),
    layer("service.queue_wait_p50_us", "us", "serve: latency_p50_us"),
    layer(
        "cache.hit_rate",
        "ratio",
        "serve, replay: cpu_us_per_op, peak_rss_mb",
    ),
    layer(
        "cache.misses",
        "count",
        "serve, replay: cpu_us_per_op, peak_rss_mb",
    ),
    layer("cache.entries", "count", "serve, replay: peak_rss_mb"),
    layer(
        "journal.bytes_per_record",
        "B/record",
        "serve: cpu_us_per_op",
    ),
    layer(
        "journal.scan_records_per_s",
        "1/s",
        "serve, replay: setup_s",
    ),
    layer("planner.nodes_per_solve", "count", "plan: ops_per_s"),
    layer("planner.candidates_per_node", "count", "plan: ops_per_s"),
    layer("planner.nodes_per_s", "1/s", "plan: ops_per_s"),
    layer("planner.cache_hit_rate", "ratio", "plan: ops_per_s"),
    layer("latency_tail_us", "us", "reported, not gated"),
    layer(
        "latency_tail_pct",
        "%",
        "the percentile latency_tail_us is read at",
    ),
    layer(
        "latency_samples",
        "count",
        "samples behind latency_p50_us and the tail",
    ),
    layer("host.steal_ms", "ms", "nothing; explains outlier runs"),
    layer("host.cpu_ref_ms", "ms", "nothing; explains outlier runs"),
    layer(
        "spec.parse_ns",
        "ns",
        "replay: ops_per_s; serve: via loop busy",
    ),
    layer(
        "factkey.project_ns",
        "ns",
        "serve, replay (expected negligible)",
    ),
    layer("cache.hit_ns", "ns", "serve, plan: ops_per_s"),
    layer("cache.miss_ns", "ns", "replay: ops_per_s"),
    layer("engine.assess_ns", "ns", "replay: ops_per_s"),
    layer("wire.encode_ns", "ns", "serve: via loop busy"),
    layer("wire.decode_ns", "ns", "serve: via loop busy"),
    layer("journal.append_ns", "ns", "serve: worker busy"),
    layer(
        "journal.commit_us_p50",
        "us",
        "serve: off the response path today",
    ),
    layer("batch.call_us", "us", "plan: ops_per_s"),
    layer("replay.parse_share", "ratio", "replay: ops_per_s"),
    layer("replay.assess_share", "ratio", "replay: ops_per_s"),
    layer("replay.compare_share", "ratio", "replay: ops_per_s"),
    layer("service.queue_span_us_p50", "us", "serve: latency_p50_us"),
    layer("engine.span_us_p50", "us", "serve: latency_p50_us"),
    layer(
        "engine.span_ge_1us_share",
        "ratio",
        "serve: latency_p50_us (engine spans are mostly under the ring's 1 us)",
    ),
    layer("wire.serialize_span_us_p50", "us", "serve: latency_p50_us"),
    layer(
        "wire.serialize_span_ge_1us_share",
        "ratio",
        "serve: latency_p50_us (serialize spans are mostly under the ring's 1 us)",
    ),
    layer("obs.trace_overhead_pct", "%", "nothing"),
];

/// The end-to-end metrics every workload reports.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    pub setup_s: f64,
    /// How many set-ups `setup_s` is the median of.
    pub setups: usize,
    /// Throughput and latency over the whole timed phase.
    pub phase: Phase,
    /// Process CPU over the whole timed phase per operation.
    pub cpu_us_per_op: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    fn metrics(&self) -> [(&'static str, f64, &'static str); 5] {
        [
            ("setup_s", self.setup_s, "s"),
            ("ops_per_s", self.phase.ops_per_s(), "1/s"),
            ("latency_p50_us", self.phase.latency.p50_us, "us"),
            ("cpu_us_per_op", self.cpu_us_per_op, "us"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    pub e2e: EndToEnd,
    pub layers: BTreeMap<&'static str, f64>,
    /// Notes printed beside per-layer metrics in the table.
    pub notes: BTreeMap<&'static str, String>,
}

impl Run {
    pub fn check(&mut self, what: impl Into<String>, held: bool) {
        self.checks.push((what.into(), held));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYERS.iter().any(|l| l.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, note: String) {
        self.notes.insert(name, note);
    }

    pub fn set_latency(&mut self) {
        let l = self.e2e.phase.latency;
        self.set("latency_tail_us", l.tail_us);
        self.set("latency_tail_pct", l.tail_pct);
        self.set("latency_samples", l.samples as f64);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, held)| *held)
    }

    /// The human-readable report, ending before the JSON line.
    pub fn table(&self, workload: &str, traced: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "end-to-end ({workload}):");
        for (name, value, unit) in self.e2e.metrics() {
            let phase = &self.e2e.phase;
            let note = match name {
                "setup_s" => format!("median of {} set-ups", self.e2e.setups),
                "ops_per_s" => format!("{} operations in {:.3} s", phase.ops, phase.elapsed_s),
                "latency_p50_us" => format!(
                    "{} samples; tail p{} = {:.1} us",
                    phase.latency.samples, phase.latency.tail_pct, phase.latency.tail_us
                ),
                _ => String::new(),
            };
            let _ = writeln!(out, "  {name:<32} {value:>14.4} {unit:<14} {note}");
        }
        let _ = writeln!(
            out,
            "  operations attempted {} failed {}",
            self.attempted, self.failed
        );
        let _ = writeln!(
            out,
            "per-layer ({}):",
            if traced {
                "traced run"
            } else {
                "read in every run"
            }
        );
        for def in LAYERS {
            if let Some(value) = self.layers.get(def.name) {
                let _ = write!(
                    out,
                    "  {:<32} {value:>14.4} {:<14} moves {}",
                    def.name, def.unit, def.moves
                );
                match self.notes.get(def.name) {
                    Some(note) => {
                        let _ = writeln!(out, "; {note}");
                    }
                    None => out.push('\n'),
                }
            }
        }
        for (what, held) in &self.checks {
            let _ = writeln!(out, "check {}: {what}", if *held { "ok  " } else { "FAIL" });
        }
        out
    }

    /// The result line: end-to-end metrics untraced, every per-layer
    /// metric traced.
    pub fn json(&self, traced: bool) -> String {
        let mut metrics = String::new();
        let mut add = |name: &str, value: f64, unit: &str| {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = write!(
                metrics,
                r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#
            );
        };
        if traced {
            for def in LAYERS {
                add(
                    def.name,
                    self.layers.get(def.name).copied().unwrap_or(0.0),
                    def.unit,
                );
            }
        } else {
            for (name, value, unit) in self.e2e.metrics() {
                add(name, value, unit);
            }
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// `"name" -> "unit"` for every named entry of `BENCHMARK.json`
    /// (workloads map to an empty unit).
    fn declared() -> BTreeMap<String, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench");
        text.split(r#""name": ""#)
            .skip(1)
            .map(|entry| {
                let name = &entry[..entry.find('"').expect("closed name")];
                let unit = entry
                    .split(r#""unit": ""#)
                    .nth(1)
                    .filter(|_| !entry.contains(r#""why""#))
                    .map_or("", |u| &u[..u.find('"').expect("closed unit")]);
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_harness_prints() {
        let declared = declared();
        let mut expected: BTreeMap<String, String> = LAYERS
            .iter()
            .map(|l| (l.name.to_string(), l.unit.to_string()))
            .collect();
        for name in crate::WORKLOADS {
            expected.insert(name.to_string(), String::new());
        }
        let sample = EndToEnd {
            setup_s: 0.0,
            setups: 0,
            phase: crate::probe::Phase::new(0, std::time::Duration::ZERO, &mut []),
            cpu_us_per_op: 0.0,
            peak_rss_mb: 0.0,
        };
        for (name, _, unit) in sample.metrics() {
            expected.insert(name.to_string(), unit.to_string());
        }
        assert_eq!(declared, expected);
    }
}

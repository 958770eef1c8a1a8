//! Metric names, units and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json` (a test
//! keeps them in step). Every run prints every metric of its kind, on
//! every workload: a per-layer metric whose layer does no work on the
//! workload reads 0, which is the prediction the table records for it.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::stats;

/// An end-to-end metric: name and unit.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower" },
    EndToEnd { name: "wall_s", unit: "s", better: "lower" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower" },
    EndToEnd { name: "disk_mb", unit: "MB", better: "lower" },
    EndToEnd { name: "job_p50_ms", unit: "ms", better: "lower" },
    EndToEnd { name: "job_p90_ms", unit: "ms", better: "lower" },
    EndToEnd { name: "goodput_jobs_per_s", unit: "1/s", better: "higher" },
];

/// A per-layer metric with the prediction it carries: which end-to-end
/// metric and workload it should move, and where it should not.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub still_on: &'static str,
}

macro_rules! layer {
    ($name:literal, $unit:literal, $better:literal, $moves:literal, $still:literal) => {
        PerLayer { name: $name, unit: $unit, better: $better, moves: $moves, still_on: $still }
    };
}

/// The per-layer metrics of the traced run, with their predictions.
pub const PER_LAYER: [PerLayer; 39] = [
    layer!(
        "workloads.synth_s",
        "s",
        "lower",
        "wall_s on matrix-cold (25 syntheses); little on explore-sweep (1)",
        "resweep-warm"
    ),
    layer!("workloads.events", "count", "lower", "wall_s on matrix-cold", "resweep-warm"),
    layer!(
        "allocators.script_s",
        "s",
        "lower",
        "wall_s on explore-sweep (dominant) and matrix-cold",
        "resweep-warm"
    ),
    layer!(
        "allocators.ops",
        "count",
        "lower",
        "wall_s on explore-sweep and matrix-cold",
        "resweep-warm"
    ),
    layer!(
        "allocators.ns_per_op",
        "ns",
        "lower",
        "wall_s on explore-sweep and matrix-cold",
        "resweep-warm"
    ),
    layer!("core.drive_s", "s", "lower", "wall_s on matrix-cold and explore-sweep", "resweep-warm"),
    layer!("core.run_s", "s", "lower", "wall_s on every offline workload", "none"),
    layer!("core.unattributed_s", "s", "lower", "wall_s on matrix-cold", "none"),
    layer!("core.unattributed_frac", "ratio", "lower", "wall_s on matrix-cold", "none"),
    layer!("sim-mem.refs", "count", "lower", "wall_s on matrix-cold", "none"),
    layer!("sim-mem.runs", "count", "lower", "wall_s on matrix-cold and resweep-warm", "none"),
    layer!(
        "sim-mem.refs_per_run",
        "refs/run",
        "higher",
        "wall_s on matrix-cold and resweep-warm",
        "none"
    ),
    layer!(
        "sim-mem.stream.store_s",
        "s",
        "lower",
        "wall_s and disk_mb on matrix-cold",
        "resweep-warm"
    ),
    layer!(
        "sim-mem.stream.bytes_per_run",
        "B/run",
        "lower",
        "disk_mb on matrix-cold",
        "explore-sweep"
    ),
    layer!(
        "sim-mem.stream.load_s",
        "s",
        "lower",
        "wall_s and peak_rss_mb on resweep-warm",
        "matrix-cold"
    ),
    layer!(
        "sim-mem.stream.decode_mrefs_per_s",
        "Mrefs/s",
        "higher",
        "wall_s on resweep-warm",
        "matrix-cold"
    ),
    layer!(
        "cache-sim.sweep_s",
        "s",
        "lower",
        "wall_s on resweep-warm (dominant); less on matrix-cold",
        "serve-open"
    ),
    layer!("cache-sim.mrefs_per_s", "Mrefs/s", "higher", "wall_s on resweep-warm", "serve-open"),
    layer!("cache-sim.fastpath_frac", "ratio", "higher", "wall_s on resweep-warm", "serve-open"),
    layer!("vm-sim.pager_s", "s", "lower", "wall_s on matrix-cold only", "resweep-warm"),
    layer!("vm-sim.fastpath_frac", "ratio", "higher", "wall_s on matrix-cold only", "resweep-warm"),
    layer!("vm-sim.distinct_pages", "count", "lower", "wall_s on matrix-cold only", "resweep-warm"),
    layer!("explore.points_s", "s", "lower", "wall_s on explore-sweep", "matrix-cold"),
    layer!("explore.point_p50_ms", "ms", "lower", "wall_s on explore-sweep", "matrix-cold"),
    layer!("explore.pareto_s", "s", "lower", "wall_s on explore-sweep", "matrix-cold"),
    layer!("explore.report_s", "s", "lower", "wall_s on explore-sweep", "matrix-cold"),
    layer!("serve.submit_p50_ms", "ms", "lower", "job_p50_ms on serve-open", "matrix-cold"),
    layer!("serve.submit_p90_ms", "ms", "lower", "job_p90_ms on serve-open", "matrix-cold"),
    layer!(
        "serve.poll_p50_ms",
        "ms",
        "lower",
        "job_p50_ms and job_p90_ms on serve-open",
        "matrix-cold"
    ),
    layer!("serve.queue_wait_p50_ms", "ms", "lower", "job_p90_ms on serve-open", "matrix-cold"),
    layer!("serve.queue_wait_p90_ms", "ms", "lower", "job_p90_ms on serve-open", "matrix-cold"),
    layer!(
        "serve.execute_p50_ms",
        "ms",
        "lower",
        "job_p90_ms and goodput_jobs_per_s on serve-open",
        "matrix-cold"
    ),
    layer!("serve.execute_p90_ms", "ms", "lower", "job_p90_ms on serve-open", "matrix-cold"),
    layer!("serve.hit_frac", "ratio", "higher", "job_p50_ms on serve-open", "matrix-cold"),
    layer!("serve.refused", "count", "lower", "goodput_jobs_per_s on serve-open", "matrix-cold"),
    layer!(
        "loadgen.lag_p90_ms",
        "ms",
        "lower",
        "job_p90_ms on serve-open (generator, not daemon)",
        "matrix-cold"
    ),
    layer!("trace.untraced_wall_s", "s", "lower", "wall_s of the same batch, untraced", "none"),
    layer!(
        "trace.traced_wall_s",
        "s",
        "lower",
        "wall_s of the same batch with spans recorded",
        "none"
    ),
    layer!(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "none: spans are recorded outside the program",
        "every workload"
    ),
];

/// A metric's direction and, for a per-layer metric, its prediction.
pub fn describe(name: &str) -> String {
    if let Some(m) = END_TO_END.iter().find(|m| m.name == name) {
        return format!("{} is better", m.better);
    }
    match PER_LAYER.iter().find(|m| m.name == name) {
        Some(m) => format!(
            "{} is better; moves {}; predicted not to move on {}",
            m.better, m.moves, m.still_on
        ),
        None => String::new(),
    }
}

/// One metric as printed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// The benchmark's last output line.
#[derive(Debug, Clone, Serialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// What one workload run measured, before it is reduced to metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Set-up durations, seconds (one per repetition).
    pub setup: Vec<f64>,
    /// Wall time of each fixed batch, seconds.
    pub walls: Vec<f64>,
    /// Latency of each successful job, from due to done, seconds.
    pub latencies: Vec<f64>,
    /// Latency sample of each failed job, from due to when it was given
    /// up and at least `limit`, seconds. The percentiles count these;
    /// goodput does not.
    pub given_up: Vec<f64>,
    /// The workload's latency limit, seconds.
    pub limit: f64,
    /// Operations (cells, points or requests) attempted.
    pub attempted: u64,
    /// Operations that errored, missed their deadline, were refused or
    /// returned a wrong result.
    pub failed: u64,
    /// Results whose digest was wrong (each is also counted in
    /// `failed`).
    pub mismatches: Vec<String>,
    /// Peak resident memory of the simulating process, MB.
    pub peak_rss_mb: f64,
    /// Size of what the workload leaves on disk, MB.
    pub disk_mb: f64,
}

impl Outcome {
    /// Records a failed operation that is not a wrong result.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        eprintln!("# failed: {why}");
        self.failed += 1;
    }

    /// Records a digest check: a mismatch fails the operation and the
    /// whole benchmark.
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(why) = verdict {
            eprintln!("# WRONG RESULT: {why}");
            self.failed += 1;
            self.mismatches.push(why);
        }
    }

    /// The end-to-end metrics. Prints the percentile actually reported
    /// and the sample counts on a comment line.
    pub fn end_to_end(&self) -> BTreeMap<String, Metric> {
        let ms = |s: f64| s * 1e3;
        let every: Vec<f64> = self.latencies.iter().chain(&self.given_up).copied().collect();
        let p50 = stats::median(&every).unwrap_or(0.0);
        let p90 = stats::tail(&every, 90.0);
        match p90 {
            Some(t) => println!(
                "# job latency: p50 {:.3} ms and p{:.1} {:.3} ms over {} samples ({} given up)",
                ms(p50),
                t.percentile,
                ms(t.value),
                t.samples,
                self.given_up.len()
            ),
            None => println!("# job latency: too few samples ({}) for a tail", every.len()),
        }
        let mut walls = self.walls.clone();
        walls.sort_by(f64::total_cmp);
        println!("# batch walls (s, sorted): {walls:.3?}");
        let measured: f64 = self.walls.iter().sum();
        let within = self.latencies.iter().filter(|&&l| l <= self.limit).count();
        let values: [f64; END_TO_END.len()] = [
            stats::median(&self.setup).unwrap_or(0.0),
            stats::median(&self.walls).unwrap_or(0.0),
            self.peak_rss_mb,
            self.disk_mb,
            ms(p50),
            ms(p90.map_or(0.0, |t| t.value)),
            if measured > 0.0 { within as f64 / measured } else { 0.0 },
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| (m.name.to_string(), Metric { value, unit: m.unit }))
            .collect()
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registries must list exactly the metrics `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn registries_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
        let field = |v: &serde::Value, k: &str| -> String {
            let pairs = v.as_object().expect("object");
            let (_, value) = pairs.iter().find(|(key, _)| key == k).expect("field present");
            value.as_str().expect("string").to_string()
        };
        let list = |k: &str| -> Vec<String> {
            let pairs = doc.as_object().expect("object");
            let (_, items) = pairs.iter().find(|(key, _)| key == k).expect("list present");
            items
                .as_array()
                .expect("array")
                .iter()
                .map(|m| {
                    format!("{} {} {}", field(m, "name"), field(m, "unit"), field(m, "better"))
                })
                .collect()
        };
        let e2e: Vec<String> =
            END_TO_END.iter().map(|m| format!("{} {} {}", m.name, m.unit, m.better)).collect();
        let layers: Vec<String> =
            PER_LAYER.iter().map(|m| format!("{} {} {}", m.name, m.unit, m.better)).collect();
        assert_eq!(list("end_to_end"), e2e);
        assert_eq!(list("per_layer"), layers);
    }

    #[test]
    fn goodput_counts_only_jobs_within_the_limit() {
        let outcome = Outcome {
            walls: vec![2.0, 2.0],
            latencies: vec![0.5, 1.0, 3.0],
            limit: 1.0,
            ..Outcome::default()
        };
        assert_eq!(outcome.end_to_end()["goodput_jobs_per_s"].value, 0.5);
    }
}

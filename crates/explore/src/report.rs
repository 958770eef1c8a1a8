//! The stable JSONL artifact a finished sweep emits.
//!
//! An `alloc-locality.sweep-report` document is a header line, one
//! line per sweep point, and a closing Pareto-front line. Every line
//! carries `schema`, `version`, `kind`, and `sweep_id`, so a consumer
//! can route lines without holding the whole document; the schema is
//! versioned under the same rules as the run report — additions bump
//! [`SWEEP_REPORT_VERSION`], renames and removals are not allowed
//! without a new schema name.
//!
//! Each point row embeds the point's full [`RunReport`] — the *same*
//! bytes a direct `repro` run of that [`JobSpec`] emits, after
//! [`normalize_report`] zeroes the nondeterministic telemetry both carry
//! (span wall-times, and sharded-pipeline send stalls) — so downstream
//! tooling that already consumes run reports can lift them out of a
//! sweep unchanged.

use alloc_locality::{JobSpec, RunReport};
use serde::{Deserialize, Serialize};

use crate::pareto::{pareto_front, Objectives};
use crate::sweep::SweepSpec;

/// The schema identifier every sweep-report line carries.
pub const SWEEP_REPORT_SCHEMA: &str = "alloc-locality.sweep-report";

/// Current schema version. Bump on additive changes; consumers accept
/// any version `<=` the one they were built against. v2 added the
/// workload axes (`programs`, `scales`), the per-sweep stream-cache
/// tallies (`stream_hits`, `stream_misses`), and the exploration-mode
/// metadata (`mode`, `adaptive_*`) to the header; v1 documents parse
/// with all of them defaulted.
pub const SWEEP_REPORT_VERSION: u32 = 2;

/// The sweep-report's opening line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepHeader {
    /// Always [`SWEEP_REPORT_SCHEMA`].
    pub schema: String,
    /// Always [`SWEEP_REPORT_VERSION`] at emission time.
    pub version: u32,
    /// Always `"header"`.
    pub kind: String,
    /// Content-addressed sweep id ([`SweepSpec::sweep_id`]).
    pub sweep_id: String,
    /// First program of the program axis (the only one pre-v2).
    pub program: String,
    /// First scale of the scale axis (the only one pre-v2).
    pub scale: f64,
    /// The full program axis, in expansion order (v2; empty in v1
    /// documents, where `program` is the whole axis).
    #[serde(default)]
    pub programs: Vec<String>,
    /// The full scale axis, in expansion order (v2; empty in v1
    /// documents, where `scale` is the whole axis).
    #[serde(default)]
    pub scales: Vec<f64>,
    /// Distinct allocator families swept, in grid order.
    pub families: Vec<String>,
    /// Number of point rows that follow.
    pub points: u64,
    /// Points whose stream was already cached when the sweep started
    /// (v2; zero when no stream cache was configured).
    #[serde(default)]
    pub stream_hits: u64,
    /// Points whose stream was generated — and stored — by this sweep
    /// (v2; zero when no stream cache was configured).
    #[serde(default)]
    pub stream_misses: u64,
    /// How the point set was chosen: `"grid"` (exhaustive expansion) or
    /// `"adaptive"` (budgeted refinement); empty in v1 documents, which
    /// are always exhaustive.
    #[serde(default)]
    pub mode: String,
    /// Refinement iterations the adaptive mode ran (zero outside
    /// adaptive mode).
    #[serde(default)]
    pub adaptive_iterations: u64,
    /// Points the adaptive mode evaluated — equals `points` (zero
    /// outside adaptive mode).
    #[serde(default)]
    pub adaptive_evaluated: u64,
    /// Points the exhaustive grid would have evaluated (zero outside
    /// adaptive mode).
    #[serde(default)]
    pub adaptive_exhaustive: u64,
    /// The point budget the adaptive mode ran under (zero outside
    /// adaptive mode).
    #[serde(default)]
    pub adaptive_budget: u64,
}

/// One sweep point's row: identity, scores, and the embedded report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPointRow {
    /// Always [`SWEEP_REPORT_SCHEMA`].
    pub schema: String,
    /// Always [`SWEEP_REPORT_VERSION`] at emission time.
    pub version: u32,
    /// Always `"point"`.
    pub kind: String,
    /// The owning sweep's id.
    pub sweep_id: String,
    /// The point's content address ([`JobSpec::job_id`]).
    pub point_id: String,
    /// Position in the sweep's deterministic expansion order.
    pub index: u64,
    /// The run's allocator label, knobs included (e.g.
    /// `QuickFit(fast_max=64)`).
    pub allocator: String,
    /// The point's job spec, normalized.
    pub spec: JobSpec,
    /// The point's scores on the minimized objectives.
    pub objectives: Objectives,
    /// True when the point is on the Pareto front.
    pub pareto: bool,
    /// The point's full run report — byte-identical to a direct run of
    /// `spec` once both pass through [`normalize_report`].
    pub report: RunReport,
}

/// The sweep-report's closing line: the Pareto front.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepFrontRow {
    /// Always [`SWEEP_REPORT_SCHEMA`].
    pub schema: String,
    /// Always [`SWEEP_REPORT_VERSION`] at emission time.
    pub version: u32,
    /// Always `"front"`.
    pub kind: String,
    /// The owning sweep's id.
    pub sweep_id: String,
    /// Point ids of the Pareto-optimal points, in expansion order.
    pub front: Vec<String>,
}

/// Zeroes the nondeterministic fields a run report carries: span
/// wall-times, and the `pipeline.send_stalls` counter a sharded run
/// emits (how often the producer found a worker's channel full, which
/// depends on thread scheduling). The other counters, histograms, span
/// *counts*, and the whole [`RunResult`] are deterministic simulation
/// output. Normalizing makes the sweep artifact fully deterministic —
/// the same sweep spec yields byte-identical sweep-report JSONL from
/// the shared-trace executor, the naive baseline, and the serve
/// daemon's job queue.
pub fn normalize_report(report: &mut RunReport) {
    for span in report.metrics.spans.values_mut() {
        span.total_ns = 0;
    }
    if let Some(stalls) = report.metrics.counters.get_mut("pipeline.send_stalls") {
        *stalls = 0;
    }
}

/// Execution telemetry the sweep's runner contributes to the v2 header:
/// how the stream cache answered, and — for the adaptive mode — how the
/// point set was chosen.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepExec {
    /// Points whose stream was already cached when the sweep started.
    pub stream_hits: u64,
    /// Points whose stream this sweep generated (and stored).
    pub stream_misses: u64,
    /// Set when the point set came from adaptive refinement rather than
    /// exhaustive grid expansion.
    pub adaptive: Option<AdaptiveMeta>,
}

/// How an adaptive refinement arrived at its point set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveMeta {
    /// Refinement iterations run (the coarse seed round included).
    pub iterations: u64,
    /// Points evaluated across all iterations.
    pub evaluated: u64,
    /// Points the exhaustive grid would have evaluated.
    pub exhaustive: u64,
    /// The evaluation budget the refinement ran under.
    pub budget: u64,
}

/// A full sweep-report document.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The opening header line.
    pub header: SweepHeader,
    /// One row per sweep point, in expansion order.
    pub points: Vec<SweepPointRow>,
    /// The closing Pareto-front line.
    pub front: SweepFrontRow,
}

impl SweepReport {
    /// [`SweepReport::assemble_with`] with no execution telemetry: an
    /// exhaustive grid sweep that never consulted the stream cache.
    ///
    /// # Errors
    ///
    /// As [`SweepReport::assemble_with`].
    pub fn assemble(spec: &SweepSpec, reports: Vec<RunReport>) -> Result<SweepReport, String> {
        SweepReport::assemble_with(spec, reports, &SweepExec::default())
    }

    /// Assembles the artifact from a sweep and its per-point reports
    /// (one per expanded point, in expansion order — however they were
    /// produced: the shared-trace executor, the serve daemon's job
    /// queue, or direct runs), stamping the runner's execution telemetry
    /// into the header.
    ///
    /// # Errors
    ///
    /// Returns a message when the report count disagrees with the
    /// sweep's point set or a run simulated no caches (its miss-rate
    /// objective would be undefined).
    pub fn assemble_with(
        spec: &SweepSpec,
        mut reports: Vec<RunReport>,
        exec: &SweepExec,
    ) -> Result<SweepReport, String> {
        reports.iter_mut().for_each(normalize_report);
        let sweep_id = spec.sweep_id();
        let n = spec.normalized();
        let specs = n.points();
        if specs.len() != reports.len() {
            return Err(format!(
                "sweep expands to {} points but {} reports were supplied",
                specs.len(),
                reports.len()
            ));
        }
        let objectives = reports
            .iter()
            .map(|r| {
                Objectives::of(&r.result)
                    .ok_or_else(|| format!("{}/{} simulated no caches", r.program, r.allocator))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let front_set = pareto_front(&objectives);
        let points: Vec<SweepPointRow> = specs
            .into_iter()
            .zip(reports)
            .zip(&objectives)
            .enumerate()
            .map(|(index, ((spec, report), &objectives))| SweepPointRow {
                schema: SWEEP_REPORT_SCHEMA.to_string(),
                version: SWEEP_REPORT_VERSION,
                kind: "point".to_string(),
                sweep_id: sweep_id.clone(),
                point_id: spec.job_id(),
                index: index as u64,
                allocator: report.allocator.clone(),
                spec,
                objectives,
                pareto: front_set.contains(&index),
                report,
            })
            .collect();
        let adaptive = exec.adaptive;
        Ok(SweepReport {
            header: SweepHeader {
                schema: SWEEP_REPORT_SCHEMA.to_string(),
                version: SWEEP_REPORT_VERSION,
                kind: "header".to_string(),
                sweep_id: sweep_id.clone(),
                program: n.program.clone(),
                scale: n.scale,
                programs: n.programs_axis(),
                scales: n.scales_axis(),
                families: n.families(),
                points: points.len() as u64,
                stream_hits: exec.stream_hits,
                stream_misses: exec.stream_misses,
                mode: if adaptive.is_some() { "adaptive" } else { "grid" }.to_string(),
                adaptive_iterations: adaptive.map_or(0, |a| a.iterations),
                adaptive_evaluated: adaptive.map_or(0, |a| a.evaluated),
                adaptive_exhaustive: adaptive.map_or(0, |a| a.exhaustive),
                adaptive_budget: adaptive.map_or(0, |a| a.budget),
            },
            front: SweepFrontRow {
                schema: SWEEP_REPORT_SCHEMA.to_string(),
                version: SWEEP_REPORT_VERSION,
                kind: "front".to_string(),
                sweep_id,
                front: front_set.iter().map(|&i| points[i].point_id.clone()).collect(),
            },
            points,
        })
    }

    /// The Pareto-optimal point rows, in expansion order.
    pub fn front_rows(&self) -> impl Iterator<Item = &SweepPointRow> {
        self.points.iter().filter(|p| p.pareto)
    }

    /// Serializes to JSONL: header, points, front — one line each, with
    /// a trailing newline.
    ///
    /// # Panics
    ///
    /// Panics if serialization fails, which for this in-memory tree
    /// would be a serializer bug.
    pub fn to_jsonl(&self) -> String {
        let mut out = serde_json::to_string(&self.header).expect("serialize sweep header");
        out.push('\n');
        for point in &self.points {
            out.push_str(&serde_json::to_string(point).expect("serialize sweep point"));
            out.push('\n');
        }
        out.push_str(&serde_json::to_string(&self.front).expect("serialize sweep front"));
        out.push('\n');
        out
    }

    /// Parses a JSONL document: a header line, point lines, and a front
    /// line, in that order (blank lines are skipped, unknown fields
    /// ignored).
    ///
    /// # Errors
    ///
    /// Returns the offending line number and reason.
    pub fn parse(text: &str) -> Result<SweepReport, String> {
        let mut header: Option<SweepHeader> = None;
        let mut points = Vec::new();
        let mut front: Option<SweepFrontRow> = None;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value: serde::Value =
                serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let kind = value
                .as_object()
                .and_then(|fields| serde::__find_field(fields, "kind"))
                .and_then(|v| match v {
                    serde::Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .ok_or_else(|| format!("line {}: no \"kind\" field", lineno + 1))?;
            let fail = |e: serde::Error| format!("line {}: {e}", lineno + 1);
            match kind.as_str() {
                "header" if header.is_some() => {
                    return Err(format!("line {}: second header", lineno + 1));
                }
                "header" => header = Some(SweepHeader::from_value(&value).map_err(fail)?),
                "point" if front.is_some() => {
                    return Err(format!("line {}: point after the front row", lineno + 1));
                }
                "point" => points.push(SweepPointRow::from_value(&value).map_err(fail)?),
                "front" if front.is_some() => {
                    return Err(format!("line {}: second front row", lineno + 1));
                }
                "front" => front = Some(SweepFrontRow::from_value(&value).map_err(fail)?),
                other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
            }
        }
        Ok(SweepReport {
            header: header.ok_or("no header line")?,
            points,
            front: front.ok_or("no front line")?,
        })
    }

    /// Checks every invariant an emitted sweep report must satisfy:
    /// schema and version on every row, ids consistent with the header,
    /// point ids matching their specs' content addresses, embedded run
    /// reports valid, objectives re-derivable from the embedded results,
    /// and the Pareto flags and front row exactly the recomputed front.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let h = &self.header;
        if h.schema != SWEEP_REPORT_SCHEMA {
            return Err(format!("schema is {:?}, expected {SWEEP_REPORT_SCHEMA:?}", h.schema));
        }
        if h.version == 0 || h.version > SWEEP_REPORT_VERSION {
            return Err(format!(
                "version {} outside supported range 1..={SWEEP_REPORT_VERSION}",
                h.version
            ));
        }
        if h.kind != "header" {
            return Err(format!("header kind is {:?}", h.kind));
        }
        if h.points != self.points.len() as u64 {
            return Err(format!(
                "header declares {} points, document carries {}",
                h.points,
                self.points.len()
            ));
        }
        // The v2 additions: axes consistent with the scalar fields they
        // generalize, cache tallies covering every point or none, and
        // adaptive metadata present exactly in adaptive mode. All of
        // them default in v1 documents, which the empty checks accept.
        if !h.programs.is_empty() && h.programs[0] != h.program {
            return Err(format!(
                "program axis starts with {:?}, header program is {:?}",
                h.programs[0], h.program
            ));
        }
        if !h.scales.is_empty() && h.scales[0] != h.scale {
            return Err(format!(
                "scale axis starts with {}, header scale is {}",
                h.scales[0], h.scale
            ));
        }
        let tallied = h.stream_hits + h.stream_misses;
        if tallied != 0 && tallied != h.points {
            return Err(format!(
                "stream-cache tallies cover {tallied} points, sweep has {}",
                h.points
            ));
        }
        match h.mode.as_str() {
            "adaptive" => {
                if h.adaptive_evaluated != h.points {
                    return Err(format!(
                        "adaptive mode evaluated {} points, document carries {}",
                        h.adaptive_evaluated, h.points
                    ));
                }
                if h.adaptive_evaluated > h.adaptive_exhaustive {
                    return Err(format!(
                        "adaptive mode evaluated {} of only {} exhaustive points",
                        h.adaptive_evaluated, h.adaptive_exhaustive
                    ));
                }
                if h.adaptive_iterations == 0 {
                    return Err("adaptive mode ran zero iterations".to_string());
                }
            }
            // "" is a v1 document; exhaustive expansions carry no
            // adaptive metadata.
            "" | "grid" => {
                if h.adaptive_iterations != 0
                    || h.adaptive_evaluated != 0
                    || h.adaptive_exhaustive != 0
                    || h.adaptive_budget != 0
                {
                    return Err(format!("mode {:?} carries adaptive metadata", h.mode));
                }
            }
            other => return Err(format!("unknown exploration mode {other:?}")),
        }
        let mut objectives = Vec::with_capacity(self.points.len());
        for (index, p) in self.points.iter().enumerate() {
            let at = |msg: String| format!("point {index}: {msg}");
            if p.schema != SWEEP_REPORT_SCHEMA || p.version != h.version || p.kind != "point" {
                return Err(at("bad schema/version/kind".into()));
            }
            if p.sweep_id != h.sweep_id {
                return Err(at(format!("sweep_id {:?} differs from header", p.sweep_id)));
            }
            if p.index != index as u64 {
                return Err(at(format!("index {} out of order", p.index)));
            }
            if p.point_id != p.spec.job_id() {
                return Err(at(format!(
                    "point_id {:?} is not the spec's content address {:?}",
                    p.point_id,
                    p.spec.job_id()
                )));
            }
            if p.allocator != p.report.allocator {
                return Err(at(format!(
                    "allocator {:?} disagrees with the embedded report's {:?}",
                    p.allocator, p.report.allocator
                )));
            }
            p.report.validate().map_err(|e| at(format!("embedded report: {e}")))?;
            let derived = Objectives::of(&p.report.result)
                .ok_or_else(|| at("embedded result simulated no caches".into()))?;
            if derived != p.objectives {
                return Err(at(format!(
                    "objectives {:?} disagree with the embedded result's {derived:?}",
                    p.objectives
                )));
            }
            objectives.push(derived);
        }
        let f = &self.front;
        if f.schema != SWEEP_REPORT_SCHEMA || f.version != h.version || f.kind != "front" {
            return Err("front row: bad schema/version/kind".to_string());
        }
        if f.sweep_id != h.sweep_id {
            return Err(format!("front row: sweep_id {:?} differs from header", f.sweep_id));
        }
        let expected: Vec<String> = pareto_front(&objectives)
            .into_iter()
            .map(|i| self.points[i].point_id.clone())
            .collect();
        if f.front != expected {
            return Err(format!(
                "front row {:?} is not the recomputed Pareto front {expected:?}",
                f.front
            ));
        }
        for p in &self.points {
            if p.pareto != expected.contains(&p.point_id) {
                return Err(format!(
                    "point {}: pareto flag {} disagrees with the front",
                    p.index, p.pareto
                ));
            }
        }
        Ok(())
    }
}

//! The offline workloads: `matrix-cold`, `resweep-warm`, `explore-sweep`.
//!
//! Each runs a fixed batch through the program's own parallel entry
//! point on `nproc` threads, repeated until `--seconds` of batches have
//! been measured. A batch's jobs (cells or points) are all due when the
//! batch starts, so a job's latency is the time from batch start to the
//! moment the entry point reports it finished.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use alloc_locality::{default_threads, run_parallel_progress, Experiment, RunResult};
use explore::SweepSpec;

use crate::digest::{digest_bytes, result_digest, Expected};
use crate::inputs::{self, Cell};
use crate::metrics::Outcome;
use crate::rss;

/// Latency limit of an offline job: every cell or point must finish
/// within this long after its batch starts.
pub const OFFLINE_LIMIT_S: f64 = 60.0;

/// Batches every offline run measures at least, so the pooled job
/// latencies support a p90 (25 cells x 4 = 100 samples).
pub const MIN_BATCHES: usize = 4;

/// Timed builds of a batch's inputs per set-up sample. A build takes a
/// fraction of a millisecond, so interference (file-system calls, page
/// faults, other tenants) would dominate a single timing; the fastest of
/// many is the build's own cost.
const SETUP_REPEATS: usize = 20;

/// Populations `resweep-warm` times for its set-up median.
const POPULATE_REPEATS: usize = 3;

/// Per-batch hook: lets the traced run wrap a batch's calls in spans.
pub trait Hook: Sync {
    /// Called once before the batch's timed call.
    fn batch_start(&self) {}
    /// Called from a worker as each job finishes.
    fn job_done(&self) {}
    /// Called once after the batch's timed call.
    fn batch_end(&self) {}
}

/// No spans: the untraced run.
pub struct Untraced;
impl Hook for Untraced {}

/// Runs `batch` until at least `seconds` of batch wall time and
/// `min_batches` batches are measured, or until an operation fails.
fn repeat(
    seconds: f64,
    min_batches: usize,
    out: &mut Outcome,
    mut batch: impl FnMut(u64, &mut Outcome) -> Result<(), String>,
) -> Result<(), String> {
    let mut batches = 0;
    // A failed batch ends the run: its wall is not a timing, and the run
    // is already wrong.
    while out.failed == 0 && (batches < min_batches || out.walls.iter().sum::<f64>() < seconds) {
        batch(batches as u64, out)?;
        batches += 1;
    }
    Ok(())
}

/// Runs one batch of experiments through `run_parallel_progress`,
/// checking every result. Wall time and per-job latencies are recorded
/// only when the batch succeeded: the entry point stops at the first
/// error, so a failed batch's wall would read as a speed-up.
fn run_cells(
    jobs: Vec<Experiment>,
    key: impl Fn(&RunResult) -> String,
    expected: &Expected,
    hook: &dyn Hook,
    out: &mut Outcome,
) {
    let n = jobs.len() as u64;
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    hook.batch_start();
    let start = Instant::now();
    let matrix = run_parallel_progress(jobs, default_threads(), |_, _| {
        let at = start.elapsed().as_secs_f64();
        hook.job_done();
        done.lock().expect("latency list lock").push(at);
    });
    let wall = start.elapsed().as_secs_f64();
    hook.batch_end();
    out.attempted += n;
    match matrix {
        Ok(matrix) => {
            out.walls.push(wall);
            out.latencies.extend(done.into_inner().expect("latency list lock"));
            for r in &matrix.runs {
                out.check(expected.check(&key(r), result_digest(r)));
            }
        }
        Err(e) => {
            // The entry point stops at the first error: no job of the
            // batch has a trustworthy result.
            for _ in 0..n {
                out.fail(format!("batch error: {e}"));
            }
        }
    }
}

/// Total size of the regular files directly under `dir`, MB.
pub fn dir_mb(dir: &Path) -> f64 {
    let bytes: u64 = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    bytes as f64 / 1e6
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            return Err(format!("clearing {}: {e}", dir.display()))
        }
        _ => {}
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

fn matrix_key(prefix: &'static str) -> impl Fn(&RunResult) -> String {
    move |r| format!("{prefix}/{}/{}", r.program, r.allocator)
}

/// `matrix-cold`: the paper's 5x5 with caches and pager, each batch
/// storing all 25 streams into an empty stream-cache directory.
pub fn matrix_cold(
    seed: u64,
    seconds: f64,
    min_batches: usize,
    work: &Path,
    hook: &dyn Hook,
) -> Result<Outcome, String> {
    let expected = Expected::committed();
    let dir = work.join("streams");
    let mut out = Outcome { limit: OFFLINE_LIMIT_S, ..Outcome::default() };
    repeat(seconds, min_batches, &mut out, |batch, out| {
        let jobs = timed_setup(out, || matrix_inputs(seed, batch, &dir))?;
        run_cells(jobs, matrix_key("matrix"), &expected, hook, out);
        out.disk_mb = dir_mb(&dir);
        // Emptying the directory is the batch's teardown, not timed.
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        Ok(())
    })?;
    keep_fastest_setup(&mut out);
    out.peak_rss_mb = rss::own_peak_rss_mb().map_err(|e| e.to_string())?;
    Ok(out)
}

/// A `matrix-cold` batch's inputs: an empty stream-cache directory and
/// the 25 experiments.
fn matrix_inputs(seed: u64, batch: u64, dir: &Path) -> Result<Vec<Experiment>, String> {
    fresh_dir(dir)?;
    let opts = inputs::matrix_options(Some(dir));
    Ok(inputs::matrix_cells(seed, batch).iter().map(|c| c.experiment(&opts)).collect())
}

/// An `explore-sweep` batch's inputs: the sweep and its point count.
fn sweep_inputs(seed: u64, batch: u64) -> (SweepSpec, u64) {
    let spec = inputs::sweep_spec(seed, batch);
    let points = spec.points().len() as u64;
    (spec, points)
}

/// Builds a batch's inputs once untimed, to warm up, then
/// [`SETUP_REPEATS`] times, timing each; the batch's set-up sample is
/// the fastest build. Returns the last build.
fn timed_setup<T>(
    out: &mut Outcome,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut built = build()?;
    let mut fastest = f64::INFINITY;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        built = build()?;
        fastest = fastest.min(t.elapsed().as_secs_f64());
    }
    out.setup.push(fastest);
    Ok(built)
}

/// Reduces the per-batch set-up samples to the fastest: the cost of
/// building the inputs when nothing else interferes. On a shared host a
/// sub-millisecond build swings by half again from one second to the
/// next, so the median over batches moves from run to run; the fastest
/// does not.
fn keep_fastest_setup(out: &mut Outcome) {
    let fastest = out.setup.iter().copied().fold(f64::INFINITY, f64::min);
    out.setup = vec![fastest];
}

/// Fills `dir` with the 25 `matrix-cold` streams (the `populate`
/// subcommand, run as a child process so its memory is not charged to
/// the measured process).
pub fn populate(seed: u64, dir: &Path) -> Result<(), String> {
    fresh_dir(dir)?;
    let opts = inputs::matrix_options(Some(dir));
    let jobs = inputs::matrix_cells(seed, 0).iter().map(|c| c.experiment(&opts)).collect();
    run_parallel_progress(jobs, default_threads(), |_, _| {}).map_err(|e| e.to_string())?;
    Ok(())
}

/// Runs the `populate` subcommand of this executable into `dir`,
/// returning its wall time.
fn populate_child(seed: u64, dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let t = Instant::now();
    let status = std::process::Command::new(exe)
        .args(["populate", "--seed", &seed.to_string(), "--dir"])
        .arg(dir)
        .status()
        .map_err(|e| format!("starting populate: {e}"))?;
    let elapsed = t.elapsed().as_secs_f64();
    if !status.success() {
        return Err(format!("populate exited with {status}"));
    }
    Ok(elapsed)
}

/// `resweep-warm`: the 25 streams stored during set-up, re-answered at
/// 64-byte blocks without the pager, so every cell decodes and replays.
pub fn resweep_warm(
    seed: u64,
    seconds: f64,
    min_batches: usize,
    work: &Path,
    hook: &dyn Hook,
) -> Result<Outcome, String> {
    let expected = Expected::committed();
    let dir = work.join("streams");
    let mut out = Outcome { limit: OFFLINE_LIMIT_S, ..Outcome::default() };
    for _ in 0..POPULATE_REPEATS {
        out.setup.push(populate_child(seed, &dir)?);
    }
    let mut last: Vec<String> = Vec::new();
    repeat(seconds, min_batches, &mut out, |batch, out| {
        // The engine memoizes the stream it decoded last. A batch that
        // began with a cell the previous one ended with would skip that
        // decode, so such cells move to the middle.
        let (mut cells, repeats): (Vec<Cell>, Vec<Cell>) =
            inputs::matrix_cells(seed, batch).into_iter().partition(|c| !last.contains(&c.key("")));
        let middle = cells.len() / 2;
        cells.splice(middle..middle, repeats);
        last = cells.iter().rev().take(default_threads()).map(|c| c.key("")).collect();
        let opts = inputs::resweep_options(Some(&dir));
        let jobs = cells.iter().map(|c| c.experiment(&opts)).collect();
        run_cells(jobs, matrix_key("resweep"), &expected, hook, out);
        Ok(())
    })?;
    out.disk_mb = dir_mb(&dir);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    out.peak_rss_mb = rss::own_peak_rss_mb().map_err(|e| e.to_string())?;
    Ok(out)
}

/// The explore-sweep front's digest key and value: the sorted front
/// point ids, comma-joined.
pub fn front_digest(front: &[String]) -> u64 {
    let mut ids = front.to_vec();
    ids.sort();
    digest_bytes(ids.join(",").as_bytes())
}

/// `explore-sweep`: the 64-point sweep, cold, through
/// `explore::run_sweep`, its report written out as `explore --out`
/// does.
pub fn explore_sweep(
    seed: u64,
    seconds: f64,
    min_batches: usize,
    work: &Path,
    hook: &dyn Hook,
) -> Result<Outcome, String> {
    let expected = Expected::committed();
    let report_path: PathBuf = work.join("sweep.jsonl");
    let mut out = Outcome { limit: OFFLINE_LIMIT_S, ..Outcome::default() };
    repeat(seconds, min_batches, &mut out, |batch, out| {
        let (spec, points) = timed_setup(out, || Ok(sweep_inputs(seed, batch)))?;
        let done = Mutex::new(Vec::new());
        hook.batch_start();
        let start = Instant::now();
        let report = explore::run_sweep(&spec, default_threads(), |_, _| {
            let at = start.elapsed().as_secs_f64();
            hook.job_done();
            done.lock().expect("latency list lock").push(at);
        });
        let written = report.as_ref().map_err(|e| e.to_string()).and_then(|report| {
            std::fs::write(&report_path, report.to_jsonl()).map_err(|e| e.to_string())
        });
        let wall = start.elapsed().as_secs_f64();
        hook.batch_end();
        out.attempted += points + 1;
        let report = match (report, written) {
            (Ok(report), Ok(())) => {
                out.walls.push(wall);
                report
            }
            (Err(e), _) => {
                (0..=points).for_each(|_| out.fail(format!("sweep error: {e}")));
                return Ok(());
            }
            (Ok(_), Err(e)) => return Err(format!("writing the sweep report: {e}")),
        };
        out.latencies.extend(done.into_inner().expect("latency list lock"));
        for row in &report.points {
            out.check(
                expected
                    .check(&format!("explore/{}", row.point_id), result_digest(&row.report.result)),
            );
        }
        out.check(expected.check("explore/front", front_digest(&report.front.front)));
        out.disk_mb = std::fs::metadata(&report_path).map_or(0.0, |m| m.len() as f64 / 1e6);
        Ok(())
    })?;
    keep_fastest_setup(&mut out);
    out.peak_rss_mb = rss::own_peak_rss_mb().map_err(|e| e.to_string())?;
    Ok(out)
}

/// Expected digests of every offline cell and point, from direct,
/// cache-free runs (the `digests` subcommand).
pub fn offline_digests(table: &mut Expected) -> Result<(), String> {
    let cells: Vec<Cell> = inputs::matrix_cells(0, 0);
    let plain = inputs::matrix_options(None);
    let resweep = inputs::resweep_options(None);
    for (prefix, opts) in [("matrix", &plain), ("resweep", &resweep)] {
        let jobs = cells.iter().map(|c| c.experiment(opts)).collect();
        let matrix =
            run_parallel_progress(jobs, default_threads(), |_, _| {}).map_err(|e| e.to_string())?;
        for r in &matrix.runs {
            table.insert(matrix_key(prefix)(r), result_digest(r));
        }
    }
    let spec = inputs::sweep_spec(0, 0);
    let jobs: Vec<Experiment> = spec
        .points()
        .iter()
        .map(|p| p.to_experiment().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let matrix =
        run_parallel_progress(jobs, default_threads(), |_, _| {}).map_err(|e| e.to_string())?;
    for (point, r) in spec.points().iter().zip(&matrix.runs) {
        table.insert(format!("explore/{}", point.job_id()), result_digest(r));
    }
    let objectives: Vec<explore::Objectives> = matrix
        .runs
        .iter()
        .map(|r| explore::Objectives::of(r).ok_or("a point simulated no caches"))
        .collect::<Result<_, _>>()?;
    let front: Vec<String> =
        explore::pareto_front(&objectives).into_iter().map(|i| spec.points()[i].job_id()).collect();
    table.insert("explore/front".into(), front_digest(&front));
    Ok(())
}

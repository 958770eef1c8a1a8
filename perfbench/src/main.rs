//! `perfbench`: the end-to-end benchmark of the simulator and its
//! daemon.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--work-dir DIR]
//! perfbench digests            # print the expected-digest table
//! perfbench populate --seed N --dir DIR   # resweep-warm set-up child
//! perfbench capacity [--rounds N] [--seconds S] [--serve-bin PATH]
//!                              # the daemon's closed-loop throughput
//! ```
//!
//! Workloads: `matrix-cold`, `resweep-warm`, `explore-sweep`,
//! `serve-open`, or `all` for each in turn (see `README.md` beside this
//! crate for why each exists and what each per-layer metric predicts). With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of the traced run. Every result is
//! checked against `expected_digests.tsv`; a wrong result, or an offline
//! cell or point that errors, makes the run exit 1.

mod digest;
mod inputs;
mod layers;
mod metrics;
mod offline;
mod rss;
mod serve_open;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::{Outcome, ResultLine};

const WORKLOADS: [&str; 4] = ["matrix-cold", "resweep-warm", "explore-sweep", "serve-open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::from(".bench_build/release/serve"),
        work_dir: PathBuf::from(".perfbench"),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--serve-bin" => a.serve_bin = value.into(),
            "--work-dir" => a.work_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be `all` or one of {WORKLOADS:?}"));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Run metadata: where the numbers came from. Not gated.
fn metadata() -> String {
    let (lines, fingerprint) = crate_lines(Path::new("crates"));
    let parent = std::env::current_dir().ok().and_then(|d| d.parent().map(Path::to_path_buf));
    let mut git = std::process::Command::new("git");
    git.args(["rev-parse", "HEAD"]).stderr(std::process::Stdio::null());
    if let Some(parent) = parent {
        // Never search above the checkout for a repository.
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    let rev = git.output().ok().filter(|o| o.status.success()).map_or_else(
        || "none".to_string(),
        |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
    );
    format!(
        "{{\"git_rev\":\"{rev}\",\"crates_fnv\":\"{fingerprint:016x}\",\"nproc\":{},\"crates_rust_lines\":{lines}}}",
        alloc_locality::default_threads()
    )
}

/// Non-blank lines of Rust under `dir`, and an FNV-1a fingerprint of
/// those files' paths and contents (a revision stand-in where git is
/// absent).
fn crate_lines(dir: &Path) -> (u64, u64) {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut h = sim_mem::Fnv64::new();
    let mut lines = 0;
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        lines += text.lines().filter(|l| !l.trim().is_empty()).count() as u64;
        h.write(path.to_string_lossy().as_bytes());
        h.write(text.as_bytes());
    }
    (lines, h.finish())
}

fn run(a: &Args) -> Result<ResultLine, String> {
    let work = a.work_dir.join(&a.workload);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let meta = metadata();
    println!("# meta {meta}");
    let (out, metrics) = if a.trace {
        layers::traced(&a.workload, a.seed, a.seconds, &work, &a.serve_bin)?
    } else {
        let hook = &offline::Untraced;
        let out: Outcome = match a.workload.as_str() {
            "matrix-cold" => {
                offline::matrix_cold(a.seed, a.seconds, offline::MIN_BATCHES, &work, hook)?
            }
            "resweep-warm" => {
                offline::resweep_warm(a.seed, a.seconds, offline::MIN_BATCHES, &work, hook)?
            }
            "explore-sweep" => {
                offline::explore_sweep(a.seed, a.seconds, offline::MIN_BATCHES, &work, hook)?
            }
            _ => {
                serve_open::serve_open(
                    a.seed,
                    a.seconds,
                    serve_open::ROUNDS,
                    &work,
                    &a.serve_bin,
                    false,
                )?
                .0
            }
        };
        let metrics = out.end_to_end();
        (out, metrics)
    };
    for (name, m) in &metrics {
        println!("# {name} = {} {} ({})", m.value, m.unit, metrics::describe(name));
    }
    println!(
        "# error_rate = {} ({} of {} operations failed)",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    if let Some(bad) = metrics.iter().find(|(_, m)| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.0));
    }
    let line = ResultLine {
        // Offline, an operation fails only when the program errs; served
        // jobs may also fail by missing their deadline under load.
        correct: out.mismatches.is_empty() && (out.failed == 0 || a.workload == "serve-open"),
        attempted: out.attempted,
        failed: out.failed,
        metrics,
    };
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"meta\":{meta},\"result\":{}}}\n",
        a.workload,
        a.seed,
        u8::from(a.trace),
        serde_json::to_string(&line).expect("result line serializes")
    );
    append(&a.work_dir.join("runs.jsonl"), &record)?;
    Ok(line)
}

/// `--workload all`: every workload in turn, each in a child process of
/// its own so its peak memory is its own, each ending in its own result
/// line. The exit code is the worst of theirs.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0;
    for workload in WORKLOADS {
        println!("# workload {workload}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }])
            .arg("--serve-bin")
            .arg(&a.serve_bin)
            .arg("--work-dir")
            .arg(&a.work_dir)
            .status();
        let code = match status {
            Ok(status) => status.code().unwrap_or(2),
            Err(e) => {
                eprintln!("perfbench: starting {workload}: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(u8::try_from(worst).unwrap_or(2))
}

fn append(path: &Path, text: &str) -> Result<(), String> {
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("appending to {}: {e}", path.display()))
}

/// `perfbench digests`: the expected-digest table from direct,
/// cache-free runs.
fn digests() -> Result<String, String> {
    let mut table = digest::Expected::default();
    offline::offline_digests(&mut table)?;
    for spec in inputs::serve_pool() {
        let exp = spec.to_experiment().map_err(|e| e.to_string())?;
        let result = exp.run().map_err(|e| e.to_string())?;
        table.insert(format!("serve/{}", spec.job_id()), digest::result_digest(&result));
    }
    Ok(format!(
        "# Expected FNV-1a digests of each serialized RunResult, by workload/cell.\n\
         # Regenerate with `perfbench digests` (direct runs, no caches).\n{}",
        table.to_tsv()
    ))
}

/// `perfbench capacity [--rounds N] [--seconds S] [--serve-bin PATH]`.
fn capacity(mut args: impl Iterator<Item = String>) -> Result<String, String> {
    let (mut rounds, mut seconds) = (3, 20.0);
    let mut bin = PathBuf::from(".bench_build/release/serve");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--rounds" => rounds = value.parse().map_err(|e| format!("--rounds: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--serve-bin" => bin = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    serve_open::capacity(&bin, rounds, seconds)
}

fn populate(mut args: impl Iterator<Item = String>) -> Result<(), String> {
    let (mut seed, mut dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| e.to_string())?),
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    offline::populate(seed.ok_or("--seed is required")?, &dir.ok_or("--dir is required")?)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let outcome = match args.peek().map(String::as_str) {
        Some("digests") => digests().map(|tsv| print!("{tsv}")),
        Some("populate") => populate(args.skip(1)),
        Some("capacity") => capacity(args.skip(1)).map(|text| print!("{text}")),
        _ => match parse(args) {
            Ok(a) if a.workload == "all" => return run_all(&a),
            Ok(a) => match run(&a) {
                Ok(line) => {
                    println!("{}", serde_json::to_string(&line).expect("result line serializes"));
                    return if line.correct { ExitCode::SUCCESS } else { ExitCode::FAILURE };
                }
                Err(e) => Err(e),
            },
            Err(e) => Err(e),
        },
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

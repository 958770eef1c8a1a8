//! `trace-tool` end to end: `record` writes the ALSC stream the engine
//! captures, `replay` reproduces the engine's miss counts from it, and
//! every bad input exits 1 with a message instead of panicking.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use alloc_locality::{AllocChoice, Experiment};
use allocators::AllocatorKind;
use cache_sim::CacheConfig;
use workloads::{Program, Scale};

fn trace_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace-tool")).args(args).output().expect("spawn trace-tool")
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trace-tool-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Records `ptc bsd` at the tool's default scale into `dir`.
fn record_ptc_bsd(dir: &Path) -> PathBuf {
    let path = dir.join("t.alsc");
    let out = trace_tool(&["record", "ptc", "bsd", path.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "record failed: {}", String::from_utf8_lossy(&out.stderr));
    path
}

fn ptc_bsd() -> Experiment {
    Experiment::new(Program::Ptc, AllocChoice::Paper(AllocatorKind::Bsd)).scale(Scale(0.005))
}

/// Asserts a clean failure: exit code 1 and a message, no panic.
fn assert_fails_cleanly(args: &[&str]) {
    let out = trace_tool(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} should exit 1; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(!stderr.trim().is_empty(), "{args:?} failed without a message");
}

#[test]
fn record_writes_the_captured_stream_as_alsc() {
    let dir = scratch_dir("record");
    let bytes = std::fs::read(record_ptc_bsd(&dir)).expect("recorded file");
    let runs = ptc_bsd().capture_runs().expect("capture");
    assert_eq!(bytes, sim_mem::encode_stream(0, b"", &runs), "record is not the captured stream");

    let refs: u64 = runs.iter().map(|run| u64::from(run.count)).sum();
    let per_ref = bytes.len() as f64 / refs as f64;
    assert!(per_ref < 6.0, "{per_ref:.2} B/ref is not compact");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_matches_the_engine_run() {
    let dir = scratch_dir("replay");
    let path = record_ptc_bsd(&dir);
    let out =
        trace_tool(&["replay", path.to_str().expect("utf-8 path"), "--cache-kb", "16", "--paging"]);
    assert!(out.status.success(), "replay failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);

    let k16 = CacheConfig::direct_mapped(16 * 1024, 32);
    let run = ptc_bsd().caches(vec![k16]).paging(true).run().expect("engine run");
    let misses = run.cache[0].1.misses();
    assert!(stdout.contains(&format!("{k16}: ")), "no 16K line in: {stdout}");
    assert!(stdout.contains(&format!("({misses} misses,")), "16K misses {misses} not in: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_inputs_exit_1_without_panicking() {
    let dir = scratch_dir("errors");
    let path = record_ptc_bsd(&dir);
    let bytes = std::fs::read(&path).expect("recorded file");

    let truncated = dir.join("truncated.alsc");
    std::fs::write(&truncated, &bytes[..100]).expect("write truncated copy");
    let old_format = dir.join("old.altr");
    let mut altr = b"ALTR".to_vec();
    altr.extend_from_slice(&bytes[4..]);
    std::fs::write(&old_format, altr).expect("write ALTR-magic copy");
    let missing_dir = dir.join("no-such-dir").join("t.alsc");

    let stream = path.to_str().expect("utf-8 path");
    assert_fails_cleanly(&["info", truncated.to_str().expect("utf-8 path")]);
    assert_fails_cleanly(&["info", old_format.to_str().expect("utf-8 path")]);
    assert_fails_cleanly(&["record", "make", "bsd", missing_dir.to_str().expect("utf-8 path")]);
    for scale in ["-1", "NaN"] {
        assert_fails_cleanly(&["record", "make", "bsd", stream, "--scale", scale]);
    }
    for bad in [
        &["--cache-kb", "0"][..],
        &["--cache-kb", "48"],
        &["--cache-kb", "4194304"],
        &["--victim", "0"],
        &["--victim", "100000000000"],
    ] {
        let mut args = vec!["replay", stream];
        args.extend_from_slice(bad);
        assert_fails_cleanly(&args);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

//! Golden digests: every allocator policy's observable behaviour, pinned
//! to committed FNV-1a digests in `tests/golden_digests.json`.
//!
//! Each allocator has exactly one implementation, so bit-identity is
//! anchored in repository history rather than in a second copy of the
//! code. Two kinds of input are digested:
//!
//! * **engine cells** — `Program::FIVE` × every allocator choice whose
//!   policy lives in `crates/allocators`, plus every point of the CI
//!   espresso exploration grid, at scale 0.005 (small enough for
//!   the debug-profile test suite). Each cell digests its captured
//!   reference stream (run boundaries included), the ALSC bytes that
//!   stream encodes to, per-phase instruction counts, `AllocStats`, the
//!   serialized `RunResult`, and the run's metric counters and
//!   histograms;
//! * **scripts** — deterministic alloc/free sequences that straddle every
//!   size-class boundary, cascade coalesces and cross the 4096-ref flush
//!   cut-point, driven straight through each allocator. Each digests the
//!   stream, heap image, granted addresses, stats, instruction counts and
//!   metrics.
//!
//! Span timings are wall-clock and excluded; every counter and histogram
//! is digested.
//!
//! On a mismatch the test writes every freshly computed digest to
//! `golden_digests.actual.json` under the cargo test temp directory and
//! names the entries that moved. A change that is *meant* to alter
//! simulated behaviour replaces the committed file with that one and
//! says why in its commit message.

use std::collections::BTreeMap;
use std::sync::Mutex;

use alloc_locality_repro::engine::{AllocChoice, Experiment, SimOptions};
use allocators::bsd::BsdConfig;
use allocators::first_fit::FirstFitConfig;
use allocators::gnu_gxx::GnuGxxConfig;
use allocators::predictive::PredictiveConfig;
use allocators::quick_fit::QuickFitConfig;
use allocators::{Allocator, SizeProfile};
use cache_sim::CacheConfig;
use obs::{MemoryRecorder, MetricsSnapshot};
use sim_mem::stream::{encode_stream, Fnv64};
use sim_mem::{AccessSink, Address, HeapImage, InstrCounter, MemCtx, MemRef, Phase, RefRun};
use workloads::{Program, Scale};

const GOLDEN: &str = include_str!("golden_digests.json");

type Digests = BTreeMap<String, BTreeMap<String, String>>;

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Digest of a value's compact JSON serialization.
fn digest_json(text: Result<String, serde_json::Error>) -> String {
    hex(sim_mem::stream::fnv1a(text.expect("serializes").as_bytes()))
}

fn digest_runs(runs: &[RefRun]) -> String {
    let mut h = Fnv64::new();
    for run in runs {
        h.write_u64(run.r.addr.raw());
        h.write_u64(u64::from(run.r.size));
        h.write(&[run.r.kind as u8, run.r.class as u8]);
        h.write_u64(u64::from(run.count));
    }
    hex(h.finish())
}

/// Counters and histograms; never spans.
fn digest_metrics(snap: &MetricsSnapshot) -> String {
    let counters = digest_json(serde_json::to_string(&snap.counters));
    let histograms = digest_json(serde_json::to_string(&snap.histograms));
    format!("{counters}:{histograms}")
}

// ---------------------------------------------------------------------------
// Engine cells
// ---------------------------------------------------------------------------

fn options() -> SimOptions {
    SimOptions {
        cache_configs: vec![CacheConfig::direct_mapped(16 * 1024, 32)],
        paging: false,
        scale: Scale(0.005),
        ..SimOptions::default()
    }
}

fn cells() -> Vec<(Program, AllocChoice)> {
    let mut choices = AllocChoice::paper_five();
    choices.extend([
        AllocChoice::Custom,
        AllocChoice::CustomBounded(0.25),
        AllocChoice::BestFit,
        AllocChoice::Buddy,
        AllocChoice::Predictive,
        AllocChoice::GnuLocalTagged,
    ]);
    let mut cells: Vec<(Program, AllocChoice)> = Program::FIVE
        .into_iter()
        .flat_map(|p| choices.iter().map(move |c| (p, c.clone())))
        .collect();
    // The points of the CI exploration grid on espresso.
    for split_threshold in [8, 16, 24, 32, 48, 64] {
        for coalesce in [true, false] {
            for roving in [true, false] {
                cells.push((
                    Program::Espresso,
                    AllocChoice::FirstFitTuned(FirstFitConfig {
                        split_threshold,
                        coalesce,
                        roving,
                    }),
                ));
            }
            cells.push((
                Program::Espresso,
                AllocChoice::GnuGxxTuned(GnuGxxConfig { split_threshold, coalesce }),
            ));
        }
    }
    for fast_max in [8, 16, 24, 32, 40, 48, 56, 64, 96, 128, 192, 256] {
        cells.push((Program::Espresso, AllocChoice::QuickFitTuned(QuickFitConfig { fast_max })));
    }
    for min_shift in [3, 4, 5, 6, 7, 8] {
        cells.push((Program::Espresso, AllocChoice::BsdTuned(BsdConfig { min_shift })));
    }
    for short_age in [1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000, 1000000] {
        cells.push((
            Program::Espresso,
            AllocChoice::PredictiveTuned(PredictiveConfig { short_age }),
        ));
    }
    cells
}

fn cell_digests(program: Program, choice: AllocChoice) -> BTreeMap<String, String> {
    let label = format!("{program}/{}", choice.label());
    let exp = Experiment::new(program, choice).options(options());
    let runs = exp.capture_runs().unwrap_or_else(|e| panic!("{label}: {e}"));
    let (result, metrics) = exp.run_instrumented().unwrap_or_else(|e| panic!("{label}: {e}"));
    BTreeMap::from([
        ("stream".to_string(), digest_runs(&runs)),
        ("alsc".to_string(), hex(sim_mem::stream::fnv1a(&encode_stream(0, b"", &runs)))),
        ("instrs".to_string(), digest_json(serde_json::to_string(&result.instrs))),
        ("alloc_stats".to_string(), digest_json(serde_json::to_string(&result.alloc_stats))),
        ("result".to_string(), digest_json(serde_json::to_string(&result))),
        ("metrics".to_string(), digest_metrics(&metrics)),
    ])
}

// ---------------------------------------------------------------------------
// Deterministic scripts
// ---------------------------------------------------------------------------

/// Captures the stream exactly as delivered: run boundaries included.
#[derive(Default)]
struct RunSink {
    runs: Vec<RefRun>,
}

impl AccessSink for RunSink {
    fn record(&mut self, r: MemRef) {
        self.runs.push(RefRun::once(r));
    }

    fn record_runs(&mut self, runs: &[RefRun]) {
        self.runs.extend_from_slice(runs);
    }
}

/// One scripted operation: allocate a size at a call site, or free the
/// nth live object (modulo the live count).
#[derive(Debug, Clone, Copy)]
enum Op {
    Malloc(u32, u32),
    Free(usize),
}

/// Sizes straddling every class boundary the allocators key on: the
/// word size, quicklist FAST_MAX (32), power-of-two bin edges, the
/// chunked FRAG_MAX / SizeMap MAP_MAX (2048), and the BSD page.
const BOUNDARY_SIZES: [u32; 24] = [
    1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 127, 128, 129, 2047, 2048, 2049,
    4096,
];

fn size_class_boundaries() -> Vec<Op> {
    let mut ops = Vec::new();
    for (i, &s) in BOUNDARY_SIZES.iter().enumerate() {
        ops.push(Op::Malloc(s, (i % 64) as u32));
        ops.push(Op::Malloc(s, (i % 64) as u32));
    }
    // Free every other object oldest-first, then everything else
    // newest-first, then re-allocate the same ladder to recycle.
    for i in 0..BOUNDARY_SIZES.len() {
        ops.push(Op::Free(i));
    }
    for _ in 0..BOUNDARY_SIZES.len() {
        ops.push(Op::Free(usize::MAX));
    }
    for (i, &s) in BOUNDARY_SIZES.iter().enumerate() {
        ops.push(Op::Malloc(s, (i % 64) as u32));
    }
    ops
}

fn coalesce_cascades() -> Vec<Op> {
    // Carve a run of adjacent blocks, free half oldest-first (neighbours
    // stay allocated), free the rest newest-first (every free merges
    // both ways), then allocate a block only the merged span can hold.
    let mut ops = vec![Op::Malloc(48, 0); 16];
    ops.extend([Op::Free(0); 8]);
    ops.extend([Op::Free(usize::MAX); 8]);
    ops.push(Op::Malloc(48 * 12, 0));
    ops
}

fn flush_boundaries() -> Vec<Op> {
    // Enough operations to cross several 4096-ref flush boundaries.
    let mut ops = Vec::new();
    for i in 0..1500u32 {
        ops.push(Op::Malloc(8 + (i % 5) * 8, i % 64));
        if i % 3 == 0 {
            ops.push(Op::Free(0));
        }
    }
    ops
}

fn build(kind: &str, ctx: &mut MemCtx<'_>) -> Box<dyn Allocator> {
    let profile: SizeProfile = [8u32, 16, 24, 40, 100, 8, 16, 16, 24].into_iter().collect();
    match kind {
        "first_fit" => Box::new(allocators::FirstFit::new(ctx).unwrap()),
        "best_fit" => Box::new(allocators::BestFit::new(ctx).unwrap()),
        "bsd" => Box::new(allocators::Bsd::new(ctx).unwrap()),
        "buddy" => Box::new(allocators::Buddy::new(ctx).unwrap()),
        "gnu_gxx" => Box::new(allocators::GnuGxx::new(ctx).unwrap()),
        "gnu_local" => Box::new(allocators::GnuLocal::new(ctx).unwrap()),
        "quick_fit" => Box::new(allocators::QuickFit::new(ctx).unwrap()),
        "custom" => Box::new(allocators::Custom::from_profile(ctx, &profile).unwrap()),
        "predictive" => Box::new(allocators::Predictive::new(ctx).unwrap()),
        _ => unreachable!("unknown allocator {kind}"),
    }
}

fn scripts() -> Vec<(&'static str, &'static str, Vec<Op>)> {
    let every = [
        "first_fit",
        "best_fit",
        "bsd",
        "buddy",
        "gnu_gxx",
        "gnu_local",
        "quick_fit",
        "custom",
        "predictive",
    ];
    let mut out = Vec::new();
    for kind in every {
        out.push(("size_class_boundaries", kind, size_class_boundaries()));
    }
    for kind in ["first_fit", "best_fit", "gnu_gxx", "buddy"] {
        out.push(("coalesce_cascades", kind, coalesce_cascades()));
    }
    for kind in ["first_fit", "bsd", "quick_fit", "gnu_local"] {
        out.push(("flush_boundaries", kind, flush_boundaries()));
    }
    out
}

/// Drives `ops` with the engine's phase discipline and digests every
/// observable output.
fn script_digests(kind: &str, ops: &[Op]) -> BTreeMap<String, String> {
    let mut heap = HeapImage::new();
    let mut sink = RunSink::default();
    let mut instrs = InstrCounter::new();
    let mut rec = MemoryRecorder::new();
    let mut grants: Vec<Option<u64>> = Vec::new();
    let stats = {
        let mut ctx = MemCtx::batched(&mut heap, &mut sink, &mut instrs).with_recorder(&mut rec);
        ctx.set_phase(Phase::Malloc);
        let mut alloc = build(kind, &mut ctx);
        ctx.set_phase(Phase::App);
        let mut live: Vec<Address> = Vec::new();
        for &op in ops {
            match op {
                Op::Malloc(size, site) => {
                    ctx.set_phase(Phase::Malloc);
                    let got = alloc.malloc_at(size, site, &mut ctx).ok();
                    ctx.set_phase(Phase::App);
                    grants.push(got.map(Address::raw));
                    live.extend(got);
                }
                Op::Free(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let p = live.remove(i % live.len());
                    ctx.set_phase(Phase::Free);
                    alloc.free(p, &mut ctx).expect("free of live block");
                    ctx.set_phase(Phase::App);
                }
            }
        }
        ctx.flush();
        *alloc.stats()
    };
    let base = heap.base();
    let mut image = Fnv64::new();
    for i in 0..(heap.brk() - base) / 4 {
        image.write(&heap.read_u32(base + i * 4).to_le_bytes());
    }
    BTreeMap::from([
        ("stream".to_string(), digest_runs(&sink.runs)),
        ("heap".to_string(), hex(image.finish())),
        ("grants".to_string(), digest_json(serde_json::to_string(&grants))),
        ("instrs".to_string(), digest_json(serde_json::to_string(&instrs))),
        ("alloc_stats".to_string(), digest_json(serde_json::to_string(&stats))),
        ("metrics".to_string(), digest_metrics(&rec.snapshot())),
    ])
}

// ---------------------------------------------------------------------------
// The check
// ---------------------------------------------------------------------------

/// Computes every digest, spreading the engine cells over the host's
/// threads.
fn compute() -> Digests {
    let mut out = Digests::new();
    for (script, kind, ops) in scripts() {
        out.insert(format!("script/{script}/{kind}"), script_digests(kind, &ops));
    }
    let queue = Mutex::new(cells());
    let done = Mutex::new(Vec::new());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let Some((program, choice)) = queue.lock().unwrap().pop() else { break };
                let key = format!("cell/{program}/{}", choice.label());
                let digests = cell_digests(program, choice);
                done.lock().unwrap().push((key, digests));
            });
        }
    });
    out.extend(done.into_inner().unwrap());
    out
}

#[test]
fn golden_digests_match() {
    let expected: Digests = serde_json::from_str(GOLDEN).expect("golden_digests.json parses");
    let actual = compute();
    assert_eq!(actual.len(), cells().len() + scripts().len(), "duplicate input labels");

    let mut moved = Vec::new();
    for (key, fields) in &actual {
        match expected.get(key) {
            None => moved.push(format!("{key}: not in the golden file")),
            Some(want) => {
                for (field, got) in fields {
                    if want.get(field) != Some(got) {
                        moved.push(format!("{key}: {field}"));
                    }
                }
            }
        }
    }
    moved.extend(
        expected
            .keys()
            .filter(|k| !actual.contains_key(*k))
            .map(|k| format!("{k}: no longer computed")),
    );
    if !moved.is_empty() {
        let path =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_digests.actual.json");
        let text = serde_json::to_string_pretty(&actual).expect("serializes");
        std::fs::write(&path, text + "\n").expect("writes actual digests");
        panic!(
            "{} golden digest(s) moved (fresh digests written to {}):\n  {}",
            moved.len(),
            path.display(),
            moved.join("\n  ")
        );
    }
}

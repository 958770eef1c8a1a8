//! FIRSTFIT's shadow engine must be observationally identical to its
//! verbatim pre-rework port in `allocators::reference`.
//!
//! FIRSTFIT is the one policy with two implementations: its shadow
//! engine (host-side word mirror, occupancy bitmap, slab freelist, burst
//! replay) is a pure host-speed change, so for any alloc/free script the
//! engine and its reference port must produce
//!
//! * the identical emitted reference stream, *including* run-length
//!   boundaries (RLE merging and the 4096-ref flush cut-points are
//!   observable in captured streams),
//! * the identical heap image, word for word, up to the break,
//! * identical granted addresses and [`allocators::AllocStats`],
//! * identical per-phase instruction totals,
//! * identical recorder metrics for everything the reference also
//!   records (the engine adds two *new* counters — `alloc.bitmap_probe`
//!   and `alloc.boundary_coalesce` — which are filtered out before
//!   comparing).
//!
//! Randomized scripts cover the general interleavings; the deterministic
//! cases pin size-class boundaries and coalesce cascades, where an
//! off-by-one in class indexing or merge order would hide from uniform
//! random sizes. Every other policy has a single implementation, pinned
//! by the repository's golden digests instead.

use std::collections::BTreeMap;

use proptest::prelude::*;

use allocators::{reference, Allocator};
use obs::MemoryRecorder;
use sim_mem::{AccessSink, Address, HeapImage, InstrCounter, MemCtx, MemRef, Phase, RefRun};

/// Counters that only the shadow engine emits; ignored when comparing
/// recorder state against the reference port.
const NEW_COUNTERS: [&str; 2] = [obs::names::BITMAP_PROBE, obs::names::BOUNDARY_COALESCE];

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

/// One scripted operation: allocate a size (at a call site), or free the
/// nth live object.
#[derive(Debug, Clone)]
enum Op {
    Malloc(u32, u32),
    Free(usize),
}

/// Everything observable about one run, for exact comparison.
#[derive(Debug, PartialEq)]
struct Observation {
    runs: Vec<RefRun>,
    heap_words: Vec<u32>,
    grants: Vec<Option<Address>>,
    stats: allocators::AllocStats,
    instrs: InstrCounter,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Vec<(u64, u64)>>,
}

/// Drives `ops` through the allocator `build` returns, mimicking the
/// engine's phase discipline (Malloc/Free around allocator calls, App
/// between), and captures every observable output.
fn observe(build: impl FnOnce(&mut MemCtx<'_>) -> Box<dyn Allocator>, ops: &[Op]) -> Observation {
    let mut heap = HeapImage::new();
    let mut sink = RunSink::default();
    let mut instrs = InstrCounter::new();
    let mut rec = MemoryRecorder::new();
    let mut grants = Vec::new();
    let stats = {
        let mut ctx = MemCtx::batched(&mut heap, &mut sink, &mut instrs).with_recorder(&mut rec);
        ctx.set_phase(Phase::Malloc);
        let mut alloc = build(&mut ctx);
        ctx.set_phase(Phase::App);

        let mut live: Vec<Address> = Vec::new();
        for op in ops {
            match *op {
                Op::Malloc(size, site) => {
                    ctx.set_phase(Phase::Malloc);
                    let got = alloc.malloc_at(size, site, &mut ctx).ok();
                    ctx.set_phase(Phase::App);
                    grants.push(got);
                    if let Some(p) = got {
                        live.push(p);
                    }
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
    let words = (heap.brk() - base) / 4;
    let heap_words = (0..words).map(|i| heap.read_u32(base + i * 4)).collect();

    let snap = rec.snapshot();
    let counters = snap
        .counters
        .iter()
        .filter(|(name, _)| !NEW_COUNTERS.contains(&name.as_str()))
        .map(|(name, &v)| (name.clone(), v))
        .collect();
    let histograms =
        snap.histograms.iter().map(|(name, h)| (name.clone(), h.buckets.clone())).collect();

    Observation { runs: sink.runs, heap_words, grants, stats, instrs, counters, histograms }
}

/// Asserts the full observation equality, with field-by-field messages
/// so a divergence names what broke instead of dumping two megabyte
/// structs.
fn assert_equivalent(label: &str, new: &Observation, reference: &Observation) {
    assert_eq!(new.grants, reference.grants, "{label}: granted addresses diverge");
    assert_eq!(new.stats, reference.stats, "{label}: AllocStats diverge");
    assert_eq!(new.instrs, reference.instrs, "{label}: instruction phase totals diverge");
    assert_eq!(
        new.runs.len(),
        reference.runs.len(),
        "{label}: captured run counts diverge (RLE/flush boundaries?)"
    );
    if let Some(i) = (0..new.runs.len()).find(|&i| new.runs[i] != reference.runs[i]) {
        panic!(
            "{label}: reference streams diverge at run {i}: new={:?} reference={:?}",
            new.runs[i], reference.runs[i]
        );
    }
    assert_eq!(new.heap_words, reference.heap_words, "{label}: heap images diverge");
    assert_eq!(new.counters, reference.counters, "{label}: recorder counters diverge");
    assert_eq!(new.histograms, reference.histograms, "{label}: recorder histograms diverge");
}

/// Runs one script through the (engine, reference) FIRSTFIT pair.
fn check_pair(ops: &[Op]) {
    let new = observe(|ctx| Box::new(allocators::FirstFit::new(ctx).unwrap()), ops);
    let old = observe(|ctx| Box::new(reference::FirstFit::new(ctx).unwrap()), ops);
    assert_equivalent("first_fit", &new, &old);
}

fn op_strategy(max_size: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => ((1u32..=max_size), (0u32..64)).prop_map(|(s, site)| Op::Malloc(s, site)),
        // Tiny and popular sizes, so freed blocks are recycled often.
        2 => (prop_oneof![Just(8u32), Just(16), Just(24), Just(40)], (0u32..64))
            .prop_map(|(s, site)| Op::Malloc(s, site)),
        3 => any::<proptest::sample::Index>().prop_map(|i| Op::Free(i.index(1 << 16))),
    ]
}

fn ops_strategy(max_size: u32) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(max_size), 1..250)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn first_fit_matches_reference(ops in ops_strategy(2000)) {
        check_pair(&ops);
    }
}

/// Sizes straddling every class boundary the allocators key on (the
/// golden-digest scripts reuse this ladder): the word size, quicklist
/// FAST_MAX (32), power-of-two bin edges, the chunked FRAG_MAX /
/// SizeMap MAP_MAX (2048), and the BSD page.
const BOUNDARY_SIZES: [u32; 24] = [
    1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 127, 128, 129, 2047, 2048, 2049,
    4096,
];

#[test]
fn size_class_boundaries_match_reference() {
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
    check_pair(&ops);
}

#[test]
fn coalesce_cascades_match_reference() {
    // Carve a run of adjacent blocks, then free in an order that forces
    // backward merges, forward merges, and merge-into-merged cascades;
    // finally allocate a block that only fits in the fully coalesced
    // span.
    let mut ops = Vec::new();
    for _ in 0..16 {
        ops.push(Op::Malloc(48, 0));
    }
    // Free evens oldest-first: each free's neighbors stay allocated.
    for _ in 0..8 {
        ops.push(Op::Free(0));
    }
    // Free the rest newest-first: every free now merges both ways.
    for _ in 0..8 {
        ops.push(Op::Free(usize::MAX));
    }
    ops.push(Op::Malloc(48 * 12, 0));
    check_pair(&ops);
}

#[test]
fn flush_boundary_runs_match_reference() {
    // Enough operations to cross several 4096-ref flush boundaries, so a
    // run split at the cut-point must split identically in both lanes.
    let mut ops = Vec::new();
    for i in 0..1500u32 {
        ops.push(Op::Malloc(8 + (i % 5) * 8, i % 64));
        if i % 3 == 0 {
            ops.push(Op::Free(0));
        }
    }
    check_pair(&ops);
}

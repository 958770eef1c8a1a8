//! Cross-crate integration tests: the full pipeline (workload model →
//! instrumented allocator → cache bank + pager) holds its conservation
//! and determinism invariants for every allocator and program.

use alloc_locality_repro::engine::{AllocChoice, Experiment, SimOptions};
use allocators::AllocatorKind;
use cache_sim::CacheConfig;
use workloads::{Program, Scale};

fn quick_opts(scale: f64) -> SimOptions {
    SimOptions {
        cache_configs: vec![
            CacheConfig::direct_mapped(16 * 1024, 32),
            CacheConfig::direct_mapped(64 * 1024, 32),
        ],
        paging: true,
        scale: Scale(scale),
        ..SimOptions::default()
    }
}

#[test]
fn every_allocator_completes_every_program() {
    for program in Program::FIVE {
        for kind in AllocatorKind::ALL {
            let r = Experiment::new(program, AllocChoice::Paper(kind))
                .options(quick_opts(0.001))
                .run()
                .unwrap_or_else(|e| panic!("{program}/{kind}: {e}"));
            assert!(r.alloc_stats.mallocs > 0, "{program}/{kind}: no allocations");
            assert!(r.heap_high_water > 0);
            assert!(r.instrs.total() > 0);
        }
    }
}

#[test]
fn reference_conservation_across_simulators() {
    // Every reference the counting sink sees must reach both caches and
    // the pager: totals line up.
    let r = Experiment::new(Program::Make, AllocChoice::Paper(AllocatorKind::QuickFit))
        .options(quick_opts(0.01))
        .run()
        .expect("runs");
    let word_refs = r.data_refs();
    for (cfg, stats) in &r.cache {
        assert_eq!(
            stats.accesses(),
            word_refs,
            "cache {cfg} saw a different word count than the trace"
        );
        assert!(stats.misses() > 0, "a finite cache must miss sometimes");
        assert!(stats.cold_misses <= stats.misses());
    }
    let curve = r.fault_curve.as_ref().expect("paging enabled");
    assert!(curve.accesses > 0);
    // The pager sees page-granular touches: at least one per trace record
    // is impossible to assert exactly, but it cannot exceed word refs.
    assert!(curve.accesses <= word_refs);
}

#[test]
fn cache_miss_rates_fall_with_size() {
    let r = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
        .options(quick_opts(0.005))
        .run()
        .expect("runs");
    let m16 = r.miss_rate(CacheConfig::direct_mapped(16 * 1024, 32)).expect("16K");
    let m64 = r.miss_rate(CacheConfig::direct_mapped(64 * 1024, 32)).expect("64K");
    assert!(m64 < m16, "64K ({m64}) should miss less than 16K ({m16})");
}

#[test]
fn pager_curve_covers_the_heap() {
    let r = Experiment::new(Program::Gawk, AllocChoice::Paper(AllocatorKind::Bsd))
        .options(quick_opts(0.005))
        .run()
        .expect("runs");
    let curve = r.fault_curve.as_ref().expect("paging enabled");
    let frames_needed = curve.working_set_frames();
    // The working set cannot exceed the heap (plus the stack segment).
    let heap_frames = r.heap_high_water.div_ceil(4096) + 2;
    assert!(
        frames_needed <= heap_frames,
        "working set {frames_needed} frames vs heap {heap_frames}"
    );
    // With the full heap resident, only compulsory faults remain.
    let floor = curve.faults(heap_frames);
    assert!(floor < curve.faults(1));
}

#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        Experiment::new(Program::GsSmall, AllocChoice::Paper(AllocatorKind::GnuLocal))
            .options(quick_opts(0.002))
            .run()
            .expect("runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.instrs, b.instrs);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.heap_high_water, b.heap_high_water);
    assert_eq!(a.cache, b.cache);
    assert_eq!(
        a.fault_curve.as_ref().expect("paging").points,
        b.fault_curve.as_ref().expect("paging").points
    );
}

#[test]
fn sharded_pipeline_matches_inline_bit_for_bit() {
    // Acceptance criterion for the batched pipeline: fanning the
    // reference stream out to worker threads (PipelineMode::Sharded)
    // must leave every measurement bit-identical to the single-threaded
    // inline pass. Every shard kind is attached: two caches, the pager,
    // a victim buffer, the three-C analyzer, the two-level hierarchy,
    // and fragmentation sampling.
    use alloc_locality_repro::engine::PipelineMode;

    let run = |mode: PipelineMode| {
        let opts = SimOptions {
            victim_entries: Some(8),
            three_c: true,
            two_level: true,
            frag_sample_every: 64,
            ..quick_opts(0.005)
        };
        Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
            .options(opts)
            .pipeline(mode)
            .run()
            .expect("runs")
    };

    let a = run(PipelineMode::Inline);
    let b = run(PipelineMode::Sharded);

    assert_eq!(a.instrs, b.instrs);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.cache, b.cache);
    assert_eq!(a.fault_curve, b.fault_curve);
    assert_eq!(a.victim, b.victim);
    assert_eq!(a.three_c, b.three_c);
    assert_eq!(a.two_level, b.two_level);
    assert_eq!(a.frag_curve, b.frag_curve);
    assert_eq!(a.heap_high_water, b.heap_high_water);
    assert_eq!(a.alloc_stats, b.alloc_stats);
}

#[test]
fn sweep_engine_matches_per_cache_bit_for_bit() {
    // Acceptance criterion for the single-pass sweep: the engine
    // simulates the paper's five configurations in one walk (one
    // SweepCache shard), and its cache stats must equal those of an
    // independent per-cache CacheBank fed the same captured stream, in
    // both pipeline modes, with every other shard kind attached.
    use alloc_locality_repro::engine::PipelineMode;
    use cache_sim::CacheBank;
    use sim_mem::AccessSink;

    let exp = |mode: PipelineMode| {
        let opts = SimOptions {
            cache_configs: CacheConfig::paper_sweep(),
            victim_entries: Some(8),
            three_c: true,
            two_level: true,
            frag_sample_every: 64,
            ..quick_opts(0.003)
        };
        Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
            .options(opts)
            .pipeline(mode)
    };

    let mut bank = CacheBank::new(CacheConfig::paper_sweep());
    bank.record_runs(&exp(PipelineMode::Inline).capture_runs().expect("capture"));
    let reference = bank.results();
    assert_eq!(reference.len(), 5);
    for mode in [PipelineMode::Inline, PipelineMode::Sharded] {
        let sweep = exp(mode).run().expect("runs");
        assert_eq!(sweep.cache, reference, "cache stats diverged under {mode:?}");
    }
}

#[test]
fn captured_stream_replays_into_components_identically() {
    // What the perf harness leans on: a stream captured once with
    // capture_runs, replayed directly into the cache components and the
    // pager, reproduces the stats of a normal engine run bit for bit.
    use cache_sim::{CacheBank, SweepCache};
    use sim_mem::AccessSink;
    use vm_sim::StackSim;

    let exp = Experiment::new(Program::Gawk, AllocChoice::Paper(AllocatorKind::Bsd))
        .options(quick_opts(0.003));
    let engine_result = exp.run().expect("engine run");
    let runs = exp.capture_runs().expect("capture");

    let configs: Vec<CacheConfig> = engine_result.cache.iter().map(|&(c, _)| c).collect();
    let mut bank = CacheBank::new(configs.iter().copied());
    bank.record_runs(&runs);
    assert_eq!(bank.results(), engine_result.cache);

    let mut sweep = SweepCache::try_new(configs).expect("sweepable");
    sweep.record_runs(&runs);
    assert_eq!(sweep.results(), engine_result.cache);

    let mut pager = StackSim::paper();
    pager.record_runs(&runs);
    assert_eq!(Some(pager.curve()), engine_result.fault_curve);
}

#[test]
fn custom_and_tagged_variants_run_end_to_end() {
    for choice in
        [AllocChoice::Custom, AllocChoice::CustomBounded(0.25), AllocChoice::GnuLocalTagged]
    {
        let label = choice.label();
        let r = Experiment::new(Program::Make, choice)
            .options(quick_opts(0.005))
            .run()
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(r.alloc_stats.mallocs > 0);
        assert_eq!(r.alloc_stats.live_granted, {
            // Whatever is still live is bounded by the heap.
            assert!(r.alloc_stats.live_granted <= r.heap_high_water);
            r.alloc_stats.live_granted
        });
    }
}

#[test]
fn exported_trace_replays_identically() {
    // Export a synthetic stream as a text trace, re-import it, and run
    // it as a fixed event stream: every measurement must match the
    // original generated run bit for bit.
    use alloc_locality_repro::engine::Experiment as Exp;
    use workloads::import::{parse_trace, write_trace};

    let scale = 0.01;
    let original = Exp::new(Program::Make, AllocChoice::Paper(AllocatorKind::GnuLocal))
        .options(quick_opts(scale))
        .run()
        .expect("original run");

    let events: Vec<workloads::AppEvent> = Program::Make.spec().events(Scale(scale)).collect();
    let mut text = Vec::new();
    write_trace(&events, &mut text).expect("export");
    let imported = parse_trace(&text[..]).expect("import");

    let replayed = Exp::with_events("make", imported, AllocChoice::Paper(AllocatorKind::GnuLocal))
        .options(quick_opts(scale))
        .run()
        .expect("replayed run");

    assert_eq!(replayed.instrs, original.instrs);
    assert_eq!(replayed.trace, original.trace);
    assert_eq!(replayed.cache, original.cache);
    assert_eq!(replayed.heap_high_water, original.heap_high_water);
    assert_eq!(replayed.alloc_stats, original.alloc_stats);
}

#[test]
fn allocator_metadata_traffic_is_visible_per_class() {
    // The split between application and allocator references must be
    // populated, and the sequential-fit allocator must generate more
    // metadata traffic per operation than segregated storage.
    let opts = quick_opts(0.005);
    let ff = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::FirstFit))
        .options(opts.clone())
        .run()
        .expect("runs");
    let bsd = Experiment::new(Program::Espresso, AllocChoice::Paper(AllocatorKind::Bsd))
        .options(opts)
        .run()
        .expect("runs");
    let per_op = |r: &alloc_locality_repro::engine::RunResult| {
        r.trace.meta_refs() as f64 / (r.alloc_stats.mallocs + r.alloc_stats.frees) as f64
    };
    assert!(ff.trace.meta_refs() > 0 && bsd.trace.meta_refs() > 0);
    assert!(
        per_op(&ff) > per_op(&bsd),
        "FirstFit should touch more metadata per op: {} vs {}",
        per_op(&ff),
        per_op(&bsd)
    );
}

//! Property-based tests: every allocator must uphold the fundamental
//! malloc contract under arbitrary allocation/free interleavings.
//!
//! * payloads are word-aligned and never overlap while live,
//! * payloads lie inside the simulated heap,
//! * statistics balance (live counts return to zero after freeing all),
//! * the tagged allocators' heap structure survives a full walk,
//! * granted bytes never undercut the request.

use proptest::prelude::*;

use allocators::{
    Allocator, AllocatorKind, BestFit, Buddy, Custom, Predictive, SizeMap, SizeProfile,
};
use sim_mem::{Address, CountingSink, HeapImage, InstrCounter, MemCtx};

/// One scripted operation: allocate a size, or free the nth-oldest live
/// object.
#[derive(Debug, Clone)]
enum Op {
    Malloc(u32),
    Free(usize),
}

fn op_strategy(max_size: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u32..=max_size).prop_map(Op::Malloc),
        // A small weighted mix of tiny and exact-popular sizes.
        2 => prop_oneof![Just(8u32), Just(16), Just(24), Just(40)].prop_map(Op::Malloc),
        3 => any::<proptest::sample::Index>().prop_map(|i| Op::Free(i.index(1 << 16))),
    ]
}

fn ops_strategy(max_size: u32) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(max_size), 1..200)
}

/// Runs a script against one allocator and checks the contract.
fn check_contract(kind: &str, ops: &[Op]) {
    let mut heap = HeapImage::new();
    let mut sink = CountingSink::new();
    let mut instrs = InstrCounter::new();
    let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
    let mut alloc: Box<dyn Allocator> = match kind {
        "FirstFit" => AllocatorKind::FirstFit.build(&mut ctx).expect("build"),
        "GNU G++" => AllocatorKind::GnuGxx.build(&mut ctx).expect("build"),
        "BSD" => AllocatorKind::Bsd.build(&mut ctx).expect("build"),
        "GNU local" => AllocatorKind::GnuLocal.build(&mut ctx).expect("build"),
        "QuickFit" => AllocatorKind::QuickFit.build(&mut ctx).expect("build"),
        "Custom" => {
            let profile: SizeProfile = [8u32, 16, 24, 40, 100].into_iter().collect();
            Box::new(Custom::from_profile(&mut ctx, &profile).expect("build"))
        }
        "BestFit" => Box::new(BestFit::new(&mut ctx).expect("build")),
        "Buddy" => Box::new(Buddy::new(&mut ctx).expect("build")),
        "Predictive" => Box::new(Predictive::new(&mut ctx).expect("build")),
        other => panic!("unknown allocator {other}"),
    };

    // Live payload intervals, ordered by address: (start, size, granted-ok)
    let mut live: Vec<(Address, u32)> = Vec::new();
    for op in ops {
        match *op {
            Op::Malloc(size) => {
                let before_granted = alloc.stats().live_granted;
                let p = alloc.malloc(size, &mut ctx).expect("malloc within limit");
                let granted = alloc.stats().live_granted - before_granted;
                assert!(p.is_word_aligned(), "{kind}: unaligned payload {p}");
                assert!(
                    granted >= u64::from(size),
                    "{kind}: granted {granted} below request {size}"
                );
                assert!(
                    ctx.heap().contains(p, u64::from(size)),
                    "{kind}: payload {p}+{size} outside heap"
                );
                // No overlap with any live payload.
                for &(q, qsize) in &live {
                    let disjoint = p + u64::from(size) <= q || q + u64::from(qsize) <= p;
                    assert!(disjoint, "{kind}: {p}+{size} overlaps live {q}+{qsize}");
                }
                live.push((p, size));
            }
            Op::Free(idx) => {
                if live.is_empty() {
                    continue;
                }
                let (p, _) = live.swap_remove(idx % live.len());
                alloc.free(p, &mut ctx).expect("free of live payload");
            }
        }
    }
    // Balance check: free the rest and verify the books close.
    for (p, _) in live.drain(..) {
        alloc.free(p, &mut ctx).expect("final free");
    }
    assert_eq!(alloc.stats().live_objects(), 0, "{kind}: objects leak");
    assert_eq!(alloc.stats().live_granted, 0, "{kind}: granted bytes leak");
}

macro_rules! contract_tests {
    ($($test:ident => $kind:literal, $max:expr;)*) => {
        $(
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(64))]
                #[test]
                fn $test(ops in ops_strategy($max)) {
                    check_contract($kind, &ops);
                }
            }
        )*
    };
}

contract_tests! {
    first_fit_contract => "FirstFit", 4096;
    gnu_gxx_contract => "GNU G++", 4096;
    bsd_contract => "BSD", 4096;
    gnu_local_contract => "GNU local", 16384;
    quick_fit_contract => "QuickFit", 4096;
    custom_contract => "Custom", 16384;
    best_fit_contract => "BestFit", 4096;
    buddy_contract => "Buddy", 16384;
    predictive_contract => "Predictive", 16384;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tagged allocators' heap must walk cleanly (headers == footers,
    /// blocks tile, coalescing leaves no adjacent free pairs) after any
    /// script, under any FirstFit configuration.
    #[test]
    fn first_fit_heap_walks_clean(
        ops in ops_strategy(2048),
        split_threshold in 0u32..=128,
        roving in any::<bool>(),
        coalesce in any::<bool>(),
    ) {
        use allocators::verify::check_tagged_heap;
        use allocators::layout::{list, TAG};
        use allocators::first_fit::{FirstFit, FirstFitConfig};

        let mut heap = HeapImage::new();
        let mut sink = CountingSink::new();
        let mut instrs = InstrCounter::new();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        let config = FirstFitConfig { split_threshold, coalesce, roving };
        let mut ff = FirstFit::with_config(&mut ctx, config).expect("build");
        let mut live: Vec<Address> = Vec::new();
        for op in &ops {
            match *op {
                Op::Malloc(size) => live.push(ff.malloc(size, &mut ctx).expect("malloc")),
                Op::Free(idx) => {
                    if !live.is_empty() {
                        let p = live.swap_remove(idx % live.len());
                        ff.free(p, &mut ctx).expect("free");
                    }
                }
            }
        }
        let start = ff.freelist_head() + list::SENTINEL_BYTES + TAG;
        let walk = check_tagged_heap(&ctx, start).expect("consistent heap");
        if coalesce {
            prop_assert_eq!(walk.adjacent_free_pairs, 0, "coalescing missed work");
        }
        prop_assert_eq!(walk.allocated_blocks, live.len() as u64);
    }

    /// SizeMap invariants: rounding never shrinks, classes cover all
    /// mappable sizes, and the bounded-fragmentation policy honours its
    /// bound above the minimum class.
    #[test]
    fn size_map_rounding_is_sound(
        sizes in proptest::collection::vec(1u32..=2048, 1..50),
        bound in 0.05f64..0.9,
    ) {
        let m = SizeMap::from_classes(sizes.iter().copied());
        for &s in &sizes {
            let c = m.rounded(s).expect("mapped");
            prop_assert!(c >= s);
        }
        let b = SizeMap::bounded_fragmentation(bound);
        for s in (8u32..=2048).step_by(37) {
            let c = b.rounded(s).expect("mapped");
            prop_assert!(c >= s);
            // Waste is measured against the word-rounded request (no
            // word-aligned allocator can grant less than a whole word).
            let rounded = s.div_ceil(4) * 4;
            let waste = f64::from(c - rounded) / f64::from(c);
            prop_assert!(waste <= bound + 1e-9, "size {} wastes {} in class {}", s, waste, c);
        }
    }

    /// A profile-driven map gives every profiled size a zero-waste class.
    #[test]
    fn profiled_sizes_get_exact_classes(
        sizes in proptest::collection::vec(8u32..=2048, 1..10),
    ) {
        let mut profile = SizeProfile::new();
        for &s in &sizes {
            for _ in 0..100 {
                profile.record(s);
            }
        }
        let m = SizeMap::from_profile(&profile, sizes.len(), 0.25);
        for &s in &sizes {
            let rounded = s.div_ceil(4) * 4;
            prop_assert_eq!(m.rounded(s), Some(rounded.max(8)));
        }
    }
}

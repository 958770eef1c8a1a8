//! The verbatim port of FIRSTFIT from before its shadow-engine rebuild,
//! kept as the test oracle for the one allocator that still has two
//! implementations.
//!
//! [`crate::FirstFit`] serves its roving freelist walk from host-side
//! shadow state ([`crate::shadow`]): a cache-dense slab instead of
//! pointer chasing through the multi-megabyte heap image, a size-class
//! occupancy bitmap, and bulk replay of the walk's loads. That pays on
//! the long sequential-fit search, so FirstFit keeps it. This module
//! preserves the original — same heap layout, same traced reference
//! sequence, same instruction charges, same statistics — so the rebuild
//! stays regression-gated:
//!
//! * `perf --alloc` drives one captured workload through both and
//!   requires bit-identical reference streams, stats, heap images and
//!   `alloc.search_len` histograms, then gates the speedup;
//! * the `reference_equivalence` property tests do the same over
//!   randomized and deterministic alloc/free scripts.
//!
//! Every other policy has exactly one implementation, pinned by the
//! committed digests of `tests/golden_digests.rs`.

pub mod first_fit;

pub use first_fit::FirstFit;

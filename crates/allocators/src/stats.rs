//! Allocation statistics shared by all allocator implementations.

use serde::{Deserialize, Serialize};

/// Counters every [`crate::Allocator`] maintains.
///
/// `granted` bytes are what the allocator actually consumed for a request
/// (payload rounding plus per-object overhead such as boundary tags).
/// Because a C-style `free(ptr)` does not know the original request size,
/// requested-live accounting is done by the experiment engine, which does;
/// the allocator tracks granted bytes, which its own metadata encodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocStats {
    /// Number of successful `malloc` calls.
    pub mallocs: u64,
    /// Number of successful `free` calls.
    pub frees: u64,
    /// Sum of requested sizes over all `malloc`s.
    pub requested_bytes: u64,
    /// Granted (consumed) bytes currently live, including overhead.
    pub live_granted: u64,
    /// Peak of [`Self::live_granted`].
    pub peak_granted: u64,
    /// Free-block visits made while searching freelists (sequential-fit
    /// allocators only; zero for pure segregated storage).
    pub search_visits: u64,
    /// Number of block coalesce operations performed.
    pub coalesces: u64,
    /// Number of oversized blocks split during allocation.
    ///
    /// `#[serde(default)]` so results serialized before this counter
    /// existed still deserialize (schema-stable extension).
    #[serde(default)]
    pub splits: u64,
    /// Requests satisfied from a segregated fast list (QuickFit's
    /// quicklists); zero for allocators without one.
    #[serde(default)]
    pub quick_hits: u64,
    /// Requests routed to the general ("misc") allocator by a
    /// fast-list-capable allocator; zero for the rest.
    #[serde(default)]
    pub misc_hits: u64,
}

impl AllocStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a successful allocation of `requested` bytes that consumed
    /// `granted` bytes of heap.
    pub fn note_malloc(&mut self, requested: u32, granted: u32) {
        self.mallocs += 1;
        self.requested_bytes += u64::from(requested);
        self.live_granted += u64::from(granted);
        self.peak_granted = self.peak_granted.max(self.live_granted);
    }

    /// Records a successful free of a block that had been granted
    /// `granted` bytes.
    pub fn note_free(&mut self, granted: u32) {
        self.frees += 1;
        self.live_granted = self.live_granted.saturating_sub(u64::from(granted));
    }

    /// Live objects right now.
    pub fn live_objects(&self) -> u64 {
        self.mallocs - self.frees
    }

    /// Mean requested bytes per allocation so far (0.0 before the first).
    pub fn mean_request(&self) -> f64 {
        if self.mallocs == 0 {
            0.0
        } else {
            self.requested_bytes as f64 / self.mallocs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malloc_free_cycle_balances() {
        let mut s = AllocStats::new();
        s.note_malloc(24, 32);
        s.note_malloc(8, 16);
        assert_eq!(s.live_objects(), 2);
        assert_eq!(s.live_granted, 48);
        s.note_free(32);
        s.note_free(16);
        assert_eq!(s.live_objects(), 0);
        assert_eq!(s.live_granted, 0);
        assert_eq!(s.peak_granted, 48);
        assert_eq!(s.requested_bytes, 32);
    }

    #[test]
    fn peaks_survive_frees() {
        let mut s = AllocStats::new();
        s.note_malloc(100, 104);
        s.note_free(104);
        s.note_malloc(4, 16);
        assert_eq!(s.peak_granted, 104);
        assert_eq!(s.live_granted, 16);
    }
}

//! Host-side shadow state for FIRSTFIT's hot path.
//!
//! The allocators keep their metadata *in* the simulated heap, and every
//! metadata access is part of the measured phenomenon: it must emit a
//! reference and charge an instruction. A plain implementation also
//! *reads that metadata back* through the multi-megabyte heap image byte
//! vector. For FIRSTFIT's long roving freelist walk that is where the
//! host CPU time goes, so [`crate::FirstFit`] keeps the traced cost model
//! bit-identical to its verbatim port ([`crate::reference::first_fit`])
//! while serving the *values* from compact host-side structures:
//!
//! * [`WordMirror`] — a dense `u32` mirror of every metadata word the
//!   allocator has stored, indexed by heap offset. A mirrored load calls
//!   [`sim_mem::MemCtx::shadow_load`], which emits the same reference
//!   and charges the same instruction as a real load but returns the
//!   mirrored value (debug builds assert coherence against the image).
//! * [`ShadowList`] — a slab of freelist nodes `{addr, size, next,
//!   prev}` mirroring the in-heap circular doubly-linked lists. Walks
//!   iterate cache-dense slots with block sizes cached inline; unlink is
//!   O(1) by slot handle.
//! * [`ClassIndex`] — a `u64` occupancy bitmap over size classes with
//!   per-class counts, the "Fast Bitmap Fit" structure. It answers "is
//!   any class ≥ k occupied?" with one find-first-set *on the host*; it
//!   cannot remove any traced accesses (a failed walk must still emit its
//!   full reference sequence), but it lets the allocator decide up front
//!   whether a walk will succeed.
//!
//! The other policies measured faster without this machinery (their
//! segregated lists are already O(1)), so they read the heap image
//! directly. Stores always write through to the heap image, so the image stays the
//! byte-exact source of truth for `verify::check_tagged_heap`, the
//! equivalence property tests, and every debug assertion.

use sim_mem::heap::HEAP_BASE;
use sim_mem::{Address, MemCtx};

use crate::layout::{NEXT_OFF, PREV_OFF};

/// Dense host-side mirror of metadata words, indexed by word offset from
/// [`HEAP_BASE`]. Grows on store; loads of never-stored words return 0,
/// matching the zero-initialized heap image.
#[derive(Debug, Default)]
pub struct WordMirror {
    words: Vec<u32>,
}

impl WordMirror {
    /// An empty mirror.
    #[must_use]
    pub fn new() -> Self {
        WordMirror { words: Vec::new() }
    }

    #[inline]
    fn index(addr: Address) -> usize {
        let off = addr.raw().checked_sub(HEAP_BASE).expect("address below heap base");
        debug_assert_eq!(off % 4, 0, "unaligned metadata word at {addr}");
        (off / 4) as usize
    }

    /// The mirrored value at `addr` without touching the simulated heap.
    #[inline]
    #[must_use]
    pub fn get(&self, addr: Address) -> u32 {
        self.words.get(Self::index(addr)).copied().unwrap_or(0)
    }

    /// Records `value` as the mirror of `addr`, growing as needed.
    #[inline]
    pub fn set(&mut self, addr: Address, value: u32) {
        let i = Self::index(addr);
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
        }
        self.words[i] = value;
    }

    /// A traced metadata load served from the mirror: emits the same
    /// reference and charges the same instruction as [`MemCtx::load`].
    #[inline]
    pub fn load(&self, ctx: &mut MemCtx<'_>, addr: Address) -> u32 {
        ctx.shadow_load(addr, self.get(addr))
    }

    /// A traced write-through metadata store: updates the heap image via
    /// [`MemCtx::store`] *and* the mirror.
    #[inline]
    pub fn store(&mut self, ctx: &mut MemCtx<'_>, addr: Address, value: u32) {
        ctx.store(addr, value);
        self.set(addr, value);
    }
}

/// Slot handle into a [`ShadowList`] slab. `NIL` marks list ends inside
/// the slab; the in-heap structure it mirrors uses sentinel addresses.
pub type Slot = u32;
const NIL: Slot = u32::MAX;

/// Slab entry. The block address is stored as its raw heap word
/// (simulated addresses fit in `u32`, see [`word`]) so a node packs
/// into 16 bytes — walks touch half the slab cache lines they would
/// with a widened `Address`.
#[derive(Debug, Clone, Copy)]
struct Node {
    addr: u32,
    size: u32,
    next: Slot,
    prev: Slot,
}

/// Host-side mirror of one in-heap doubly-linked free list.
///
/// It mirrors the membership *and order* of the in-heap list whose
/// sentinel the allocator owns, with each node's block size cached
/// inline so a first-fit walk never touches the heap image.
/// The walk itself still emits every traced access (the caller replays
/// the reference pattern of the original walk); this structure only
/// removes the *host-side* pointer chasing.
///
/// Nodes are slab-allocated and recycled through an internal free list,
/// and a word-indexed `(addr → slot)` table gives O(1) handle lookup
/// when an unlink starts from a heap address rather than a walk
/// position. The table is indexed like [`WordMirror`] — one entry per
/// heap word, grown on demand — so its footprint tracks the heap image
/// the engine already holds, and no list operation pays more than a
/// few array stores.
#[derive(Debug)]
pub struct ShadowList {
    nodes: Vec<Node>,
    /// Head slot of the mirrored list (NIL when empty).
    head: Slot,
    /// Recycled slots.
    free: Vec<Slot>,
    /// Slot at word index `(addr - HEAP_BASE) / 4`, NIL when no node
    /// mirrors that address.
    slot_at: Vec<Slot>,
}

impl Default for ShadowList {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowList {
    /// A slab mirroring one empty in-heap list.
    #[must_use]
    pub fn new() -> Self {
        ShadowList { nodes: Vec::new(), head: NIL, free: Vec::new(), slot_at: Vec::new() }
    }

    fn alloc_slot(&mut self, node: Node) -> Slot {
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = node;
            slot
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as Slot
        }
    }

    #[inline]
    fn word_index(addr: Address) -> usize {
        let off = addr.raw().checked_sub(HEAP_BASE).expect("address below heap base");
        debug_assert_eq!(off % 4, 0, "unaligned shadow node at {addr}");
        (off / 4) as usize
    }

    #[inline]
    fn index_insert(&mut self, addr: Address, slot: Slot) {
        let i = Self::word_index(addr);
        if i >= self.slot_at.len() {
            self.slot_at.resize(i + 1, NIL);
        }
        debug_assert_eq!(self.slot_at[i], NIL, "duplicate shadow node for {addr}");
        self.slot_at[i] = slot;
    }

    #[inline]
    fn index_remove(&mut self, addr: Address) -> Slot {
        let i = Self::word_index(addr);
        let slot = self.slot_at[i];
        debug_assert_ne!(slot, NIL, "no shadow node for {addr}");
        self.slot_at[i] = NIL;
        slot
    }

    /// The slot mirroring block `addr`, if it is on any list.
    #[must_use]
    pub fn slot_of(&self, addr: Address) -> Option<Slot> {
        let slot = self.slot_at.get(Self::word_index(addr)).copied().unwrap_or(NIL);
        (slot != NIL).then_some(slot)
    }

    /// Pushes a node at the *front* of the list (the position
    /// `list::insert_after(sentinel, b)` produces in the heap).
    pub fn push_front(&mut self, addr: Address, size: u32) {
        let old = self.head;
        let slot = self.alloc_slot(Node { addr: word(addr), size, next: old, prev: NIL });
        if old != NIL {
            self.nodes[old as usize].prev = slot;
        }
        self.head = slot;
        self.index_insert(addr, slot);
    }

    /// Inserts `addr` immediately after the node mirrored by `after`
    /// (mirrors `list::insert_after(after_addr, b)` for a non-sentinel
    /// predecessor).
    pub fn insert_after(&mut self, after: Slot, addr: Address, size: u32) {
        let next = self.nodes[after as usize].next;
        let slot = self.alloc_slot(Node { addr: word(addr), size, next, prev: after });
        self.nodes[after as usize].next = slot;
        if next != NIL {
            self.nodes[next as usize].prev = slot;
        }
        self.index_insert(addr, slot);
    }

    /// Unlinks the node at `slot` in O(1) and returns its
    /// `(addr, size)`.
    pub fn unlink(&mut self, slot: Slot) -> (Address, u32) {
        let Node { addr, size, next, prev } = self.nodes[slot as usize];
        let addr = unword(addr);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        let removed = self.index_remove(addr);
        debug_assert_eq!(removed, slot);
        self.free.push(slot);
        (addr, size)
    }

    /// Updates the cached size of the node at `slot`.
    pub fn set_size(&mut self, slot: Slot, size: u32) {
        self.nodes[slot as usize].size = size;
    }

    /// Replaces the node at `slot` with a new block in the same list
    /// position (what splitting a free block does: the remainder
    /// inherits the original's links).
    pub fn replace(&mut self, slot: Slot, addr: Address, size: u32) {
        let old = self.nodes[slot as usize].addr;
        if old != word(addr) {
            let removed = self.index_remove(unword(old));
            debug_assert_eq!(removed, slot);
            self.index_insert(addr, slot);
            self.nodes[slot as usize].addr = word(addr);
        }
        self.nodes[slot as usize].size = size;
    }

    /// Slot preceding `slot` on its list, if any.
    #[must_use]
    pub fn prev(&self, slot: Slot) -> Option<Slot> {
        let p = self.nodes[slot as usize].prev;
        (p != NIL).then_some(p)
    }

    /// `(addr, size)` mirrored at `slot`.
    #[must_use]
    pub fn node(&self, slot: Slot) -> (Address, u32) {
        let n = self.nodes[slot as usize];
        (unword(n.addr), n.size)
    }

    /// First slot of the list, if any.
    #[must_use]
    pub fn head(&self) -> Option<Slot> {
        (self.head != NIL).then_some(self.head)
    }

    /// Slot following `slot` on its list, if any.
    #[must_use]
    pub fn next(&self, slot: Slot) -> Option<Slot> {
        let n = self.nodes[slot as usize].next;
        (n != NIL).then_some(n)
    }

    /// `(raw addr, size, next)` of the member at `slot` in one slab
    /// access, for walks that carry the whole node from step to step
    /// (raw word form, since walks emit raw-address pairs anyway).
    #[must_use]
    pub fn node_with_next(&self, slot: Slot) -> (u32, u32, Option<Slot>) {
        let n = self.nodes[slot as usize];
        (n.addr, n.size, (n.next != NIL).then_some(n.next))
    }
}

/// Occupancy index over up to 64 size classes: a `u64` bitmap plus
/// per-class counts, so a bit clears exactly when the *last* block of
/// its class leaves. FIRSTFIT keys it by floor-log2 block size and
/// probes it (`alloc.bitmap_probe`) before walking.
#[derive(Debug)]
pub struct ClassIndex {
    bits: u64,
    counts: Vec<u32>,
}

impl ClassIndex {
    /// An empty index over `classes` size classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` exceeds the 64 bits of the bitmap word.
    #[must_use]
    pub fn new(classes: usize) -> Self {
        assert!(classes <= 64, "{classes} size classes exceed the bitmap word");
        ClassIndex { bits: 0, counts: vec![0; classes] }
    }

    /// Records one more block of class `c`.
    #[inline]
    pub fn add(&mut self, c: usize) {
        self.counts[c] += 1;
        self.bits |= 1 << c;
    }

    /// Records one fewer block of class `c`.
    #[inline]
    pub fn remove(&mut self, c: usize) {
        debug_assert!(self.counts[c] > 0, "class {c} count underflow");
        self.counts[c] -= 1;
        if self.counts[c] == 0 {
            self.bits &= !(1 << c);
        }
    }

    /// The smallest occupied class `>= c`, if any: one find-first-set.
    #[inline]
    #[must_use]
    pub fn first_at_least(&self, c: usize) -> Option<usize> {
        let masked = self.bits & (!0u64 << c);
        (masked != 0).then(|| masked.trailing_zeros() as usize)
    }
}

/// A position on a sentinel-headed circular list: the sentinel itself,
/// or a member block's slab slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pos {
    /// The list's sentinel head.
    Head,
    /// A member node, by slab slot.
    Node(Slot),
}

/// Shadow of an in-heap circular doubly-linked freelist built by
/// [`crate::layout::list`]: a sentinel in the allocator's static area,
/// member links threaded through free-block payloads.
///
/// Every operation *emits exactly the reference sequence* of the
/// corresponding `layout::list` helper — same loads (served via
/// [`sim_mem::MemCtx::shadow_load`] from the slab instead of the heap
/// image), same write-through stores, same `ops` charges — while the
/// slab keeps membership, order, and block sizes host-side for
/// cache-dense walks and O(1) unlink.
#[derive(Debug)]
pub struct TaggedList {
    inner: ShadowList,
    sentinel: Address,
}

impl Default for TaggedList {
    fn default() -> Self {
        Self::new()
    }
}

impl TaggedList {
    /// A shadow over a not-yet-initialized sentinel list.
    #[must_use]
    pub fn new() -> Self {
        TaggedList { inner: ShadowList::new(), sentinel: Address::NULL }
    }

    /// Mirrors `layout::list::init_head`: registers `sentinel` as the
    /// list head and emits its two self-link stores (write-through via
    /// the allocator's shared metadata mirror `m`).
    pub fn init_head(&mut self, ctx: &mut MemCtx<'_>, m: &mut WordMirror, sentinel: Address) {
        self.sentinel = sentinel;
        let w = word(sentinel);
        m.store(ctx, sentinel + NEXT_OFF, w);
        m.store(ctx, sentinel + PREV_OFF, w);
    }

    /// The heap address a position denotes.
    #[must_use]
    pub fn addr(&self, pos: Pos) -> Address {
        match pos {
            Pos::Head => self.sentinel,
            Pos::Node(s) => self.inner.node(s).0,
        }
    }

    /// The position denoting heap address `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is neither the sentinel nor a current member.
    #[must_use]
    pub fn pos_of(&self, a: Address) -> Pos {
        if a == self.sentinel {
            Pos::Head
        } else {
            Pos::Node(self.inner.slot_of(a).expect("address is on the shadowed list"))
        }
    }

    /// `(addr, size)` of the member at `slot`.
    #[must_use]
    pub fn node(&self, slot: Slot) -> (Address, u32) {
        self.inner.node(slot)
    }

    /// Updates the cached size of the member at `slot`.
    pub fn set_size(&mut self, slot: Slot, size: u32) {
        self.inner.set_size(slot, size);
    }

    /// The slab slot of member block `a`, if it is on the list.
    #[must_use]
    pub fn slot_of(&self, a: Address) -> Option<Slot> {
        self.inner.slot_of(a)
    }

    /// Host-only successor of `pos`: the position
    /// [`Self::next`] would return, with no emission or charge. Walks
    /// that defer their trace to a [`sim_mem::MemCtx::shadow_load_burst`]
    /// step with this and collect the link loads via
    /// [`Self::link_load`].
    #[must_use]
    pub fn peek_next(&self, pos: Pos) -> Pos {
        match pos {
            Pos::Head => self.inner.head().map_or(Pos::Head, Pos::Node),
            Pos::Node(s) => self.inner.next(s).map_or(Pos::Head, Pos::Node),
        }
    }

    /// The `(address, value)` of the successor-link load [`Self::next`]
    /// emits stepping from `pos` to `succ`.
    #[must_use]
    pub fn link_load(&self, pos: Pos, succ: Pos) -> (Address, u32) {
        (self.addr(pos) + NEXT_OFF, word(self.addr(succ)))
    }

    /// Pass one of a two-pass first-fit walk: iterates the list
    /// host-only over the slab from `start`, appending to `out` exactly
    /// the loads the traced walk performs — `header(size)` at each
    /// visited member's address, the successor link word at each hop —
    /// as `(raw address, value)` pairs, until `fits(size)` accepts a
    /// member or the walk returns to `start`. Returns the accepting
    /// slot plus the `(visits, hops)` counts; the caller replays `out`
    /// through [`sim_mem::MemCtx::shadow_load_burst`] and charges the
    /// walk's `ops` in bulk. Each slab node is fetched once per step
    /// (carried, with its successor slot, into the next iteration),
    /// which is the entire point: the walk runs over the cache-dense
    /// slab instead of pointer-chasing the heap image.
    #[must_use]
    pub fn walk_first_fit(
        &self,
        start: Pos,
        out: &mut Vec<(u32, u32)>,
        header: impl Fn(u32) -> u32,
        mut fits: impl FnMut(u32) -> bool,
    ) -> (Option<Slot>, u64, u64) {
        let next_off = u32::try_from(NEXT_OFF).expect("link offset fits in a word");
        let load = |pos: Pos| match pos {
            Pos::Head => (word(self.sentinel), 0, self.inner.head().map_or(Pos::Head, Pos::Node)),
            Pos::Node(s) => {
                let (addr, size, next) = self.inner.node_with_next(s);
                (addr, size, next.map_or(Pos::Head, Pos::Node))
            }
        };
        let (mut visits, mut hops) = (0u64, 0u64);
        let mut pos = start;
        let (mut addr, mut size, mut succ) = load(start);
        let hit = loop {
            if let Pos::Node(slot) = pos {
                out.push((addr, header(size)));
                visits += 1;
                if fits(size) {
                    break Some(slot);
                }
            }
            let (succ_addr, succ_size, succ_next) = load(succ);
            out.push((addr + next_off, succ_addr));
            hops += 1;
            pos = succ;
            (addr, size, succ) = (succ_addr, succ_size, succ_next);
            if pos == start {
                break None;
            }
        };
        (hit, visits, hops)
    }

    /// Mirrors `layout::list::next`: emits the successor-link load and
    /// returns the successor position.
    pub fn next(&self, ctx: &mut MemCtx<'_>, pos: Pos) -> Pos {
        let succ = self.peek_next(pos);
        let (addr, value) = self.link_load(pos, succ);
        ctx.shadow_load(addr, value);
        succ
    }

    /// Mirrors `layout::list::insert_after`: emits one link load and
    /// four link stores plus `ops(2)`, and records the new member.
    pub fn insert_after(
        &mut self,
        ctx: &mut MemCtx<'_>,
        m: &mut WordMirror,
        pos: Pos,
        new: Address,
        size: u32,
    ) {
        let succ = self.next(ctx, pos);
        let succ_addr = self.addr(succ);
        let pos_addr = self.addr(pos);
        m.store(ctx, new + NEXT_OFF, word(succ_addr));
        m.store(ctx, new + PREV_OFF, word(pos_addr));
        m.store(ctx, pos_addr + NEXT_OFF, word(new));
        m.store(ctx, succ_addr + PREV_OFF, word(new));
        ctx.ops(2);
        match pos {
            Pos::Head => self.inner.push_front(new, size),
            Pos::Node(s) => self.inner.insert_after(s, new, size),
        }
    }

    /// Mirrors `layout::list::unlink`: emits both link loads and the
    /// two splice stores plus `ops(2)`, removes the member, and returns
    /// its `(addr, size)`.
    pub fn unlink(
        &mut self,
        ctx: &mut MemCtx<'_>,
        m: &mut WordMirror,
        slot: Slot,
    ) -> (Address, u32) {
        let node_addr = self.inner.node(slot).0;
        let succ = self.inner.next(slot).map_or(Pos::Head, Pos::Node);
        let pred = self.inner.prev(slot).map_or(Pos::Head, Pos::Node);
        let succ_addr = self.addr(succ);
        let pred_addr = self.addr(pred);
        ctx.shadow_load(node_addr + NEXT_OFF, word(succ_addr));
        ctx.shadow_load(node_addr + PREV_OFF, word(pred_addr));
        m.store(ctx, pred_addr + NEXT_OFF, word(succ_addr));
        m.store(ctx, succ_addr + PREV_OFF, word(pred_addr));
        ctx.ops(2);
        self.inner.unlink(slot)
    }

    /// Mirrors `layout::list::replace`: emits the old member's two link
    /// loads and four splice stores plus `ops(2)`, and re-keys the slab
    /// node to the new block in place.
    pub fn replace(
        &mut self,
        ctx: &mut MemCtx<'_>,
        m: &mut WordMirror,
        slot: Slot,
        new: Address,
        size: u32,
    ) {
        let old_addr = self.inner.node(slot).0;
        let succ = self.inner.next(slot).map_or(Pos::Head, Pos::Node);
        let pred = self.inner.prev(slot).map_or(Pos::Head, Pos::Node);
        let succ_addr = self.addr(succ);
        let pred_addr = self.addr(pred);
        ctx.shadow_load(old_addr + NEXT_OFF, word(succ_addr));
        ctx.shadow_load(old_addr + PREV_OFF, word(pred_addr));
        m.store(ctx, new + NEXT_OFF, word(succ_addr));
        m.store(ctx, new + PREV_OFF, word(pred_addr));
        m.store(ctx, pred_addr + NEXT_OFF, word(new));
        m.store(ctx, succ_addr + PREV_OFF, word(new));
        ctx.ops(2);
        self.inner.replace(slot, new, size);
    }
}

#[inline]
fn word(a: Address) -> u32 {
    u32::try_from(a.raw()).expect("simulated addresses fit in a word")
}

/// Inverse of [`word`]: widens a raw heap word back to an [`Address`].
#[inline]
fn unword(w: u32) -> Address {
    Address::new(u64::from(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::{HeapImage, InstrCounter, MemCtx, VecSink};

    #[test]
    fn word_mirror_tracks_stores_and_defaults_to_zero() {
        let mut heap = HeapImage::new();
        let mut sink = VecSink::new();
        let mut instrs = InstrCounter::new();
        let mut ctx = MemCtx::new(&mut heap, &mut sink, &mut instrs);
        let base = ctx.sbrk(64).unwrap();

        let mut mirror = WordMirror::new();
        assert_eq!(mirror.get(base), 0);
        mirror.store(&mut ctx, base + 8, 0xdead_beef);
        assert_eq!(mirror.get(base + 8), 0xdead_beef);
        // A traced load returns the mirror value; debug builds also
        // assert it matches the heap image (which store wrote through).
        assert_eq!(mirror.load(&mut ctx, base + 8), 0xdead_beef);
        assert_eq!(mirror.load(&mut ctx, base), 0);
    }

    #[test]
    fn shadow_list_mirrors_order_and_unlinks_in_place() {
        let a = |n: u64| Address::new(HEAP_BASE + n * 16);
        let mut l = ShadowList::new();
        assert!(l.head().is_none());
        l.push_front(a(3), 32);
        l.push_front(a(1), 16);
        l.push_front(a(2), 24);
        // Order: a2, a1, a3.
        let h = l.head().unwrap();
        assert_eq!(l.node(h), (a(2), 24));
        let s1 = l.next(h).unwrap();
        assert_eq!(l.node(s1), (a(1), 16));
        let s3 = l.next(s1).unwrap();
        assert_eq!(l.node(s3), (a(3), 32));
        assert!(l.next(s3).is_none());
        assert_eq!(l.prev(s3), Some(s1));

        // O(1) unlink from the middle, and from the head by address.
        assert_eq!(l.unlink(s1), (a(1), 16));
        let h = l.head().unwrap();
        assert_eq!(l.node(h).0, a(2));
        assert_eq!(l.node(l.next(h).unwrap()).0, a(3));
        assert_eq!(l.slot_of(a(1)), None);
        let s2 = l.slot_of(a(2)).unwrap();
        assert_eq!(l.unlink(s2), (a(2), 24));
        assert_eq!(l.prev(l.head().unwrap()), None);

        // insert_after keeps order; replace re-keys in place.
        let h = l.head().unwrap();
        l.insert_after(h, a(5), 64);
        let s5 = l.next(h).unwrap();
        assert_eq!(l.node(s5), (a(5), 64));
        l.set_size(s5, 72);
        assert_eq!(l.node(s5).1, 72);
        assert!(l.next(s5).is_none(), "inserted after the old tail");
        l.replace(s5, a(6), 80);
        assert_eq!(l.slot_of(a(5)), None);
        assert_eq!(l.slot_of(a(6)), Some(s5));
    }

    #[test]
    fn tagged_list_emits_exactly_what_layout_list_does() {
        use crate::layout::list;

        // Drive the same op sequence through layout::list on one heap
        // and TaggedList on another; streams, instruction counts, and
        // final heap bytes must match word for word. shadow_load's
        // debug assertions additionally check slab/heap coherence on
        // every load.
        fn setup(heap: &mut HeapImage) -> (Address, [Address; 3]) {
            let head = heap.sbrk(list::SENTINEL_BYTES).unwrap();
            let a = heap.sbrk(16).unwrap();
            let b = heap.sbrk(16).unwrap();
            let c = heap.sbrk(16).unwrap();
            (head, [a, b, c])
        }

        let mut heap_ref = HeapImage::new();
        let mut sink_ref = VecSink::new();
        let mut instr_ref = InstrCounter::new();
        let (head, [a, b, c]) = setup(&mut heap_ref);
        {
            let ctx = &mut MemCtx::new(&mut heap_ref, &mut sink_ref, &mut instr_ref);
            list::init_head(ctx, head);
            list::insert_after(ctx, head, a);
            list::insert_after(ctx, head, b);
            list::insert_after(ctx, b, c);
            assert_eq!(list::next(ctx, head), b);
            list::unlink(ctx, c);
            list::replace(ctx, b, c);
            assert_eq!(list::next(ctx, head), c);
            assert_eq!(list::next(ctx, c), a);
            list::unlink(ctx, a);
            list::unlink(ctx, c);
            assert!(list::is_empty(ctx, head));
        }

        let mut heap_new = HeapImage::new();
        let mut sink_new = VecSink::new();
        let mut instr_new = InstrCounter::new();
        let (head2, [a2, b2, c2]) = setup(&mut heap_new);
        assert_eq!((head, a, b, c), (head2, a2, b2, c2));
        {
            let ctx = &mut MemCtx::new(&mut heap_new, &mut sink_new, &mut instr_new);
            let m = &mut WordMirror::new();
            let mut l = TaggedList::new();
            l.init_head(ctx, m, head);
            l.insert_after(ctx, m, Pos::Head, a, 16);
            l.insert_after(ctx, m, Pos::Head, b, 16);
            let sb = l.slot_of(b).unwrap();
            l.insert_after(ctx, m, Pos::Node(sb), c, 16);
            assert_eq!(l.next(ctx, Pos::Head), Pos::Node(sb));
            let sc = l.slot_of(c).unwrap();
            l.unlink(ctx, m, sc);
            l.replace(ctx, m, sb, c, 16);
            let sc = l.slot_of(c).unwrap();
            assert_eq!(l.next(ctx, Pos::Head), Pos::Node(sc));
            let sa = l.slot_of(a).unwrap();
            assert_eq!(l.next(ctx, Pos::Node(sc)), Pos::Node(sa));
            l.unlink(ctx, m, sa);
            l.unlink(ctx, m, sc);
            // Mirror list::is_empty — one sentinel next-link load.
            assert_eq!(l.next(ctx, Pos::Head), Pos::Head);
        }

        assert_eq!(sink_new.refs, sink_ref.refs, "emitted streams diverge");
        assert_eq!(instr_new, instr_ref, "instruction charges diverge");
        let words = (heap_ref.brk() - heap_ref.base()) / 4;
        for i in 0..words {
            let at = heap_ref.base() + i * 4;
            assert_eq!(heap_new.read_u32(at), heap_ref.read_u32(at), "heap diverges at {at}");
        }
    }

    #[test]
    fn class_index_tracks_last_leaver() {
        let mut ix = ClassIndex::new(64);
        ix.add(5);
        ix.add(5);
        ix.add(63);
        assert_eq!(ix.first_at_least(0), Some(5));
        ix.remove(5);
        assert_eq!(ix.first_at_least(0), Some(5), "one block of class 5 remains");
        ix.remove(5);
        assert_eq!(ix.first_at_least(0), Some(63));
        assert_eq!(ix.first_at_least(63), Some(63));
        ix.remove(63);
        assert_eq!(ix.first_at_least(0), None);
    }
}

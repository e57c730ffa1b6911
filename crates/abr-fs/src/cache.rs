//! The buffer cache (§3.1).
//!
//! "All file I/O goes through the buffer cache. ... A read request is
//! forwarded to the disk only in case the block is not found in the
//! cache. ... the system does not immediately write modified blocks back
//! to the disk. Instead, the updated blocks simply remain in the buffer
//! cache. Periodically, all dirty blocks are copied back to the disk."
//!
//! The cache tracks block *presence* and *dirtiness*; actual bytes are
//! synthesized at flush time from the [`crate::payload::PayloadTag`]
//! recorded with each dirty entry. Eviction is LRU; evicting a dirty
//! block emits an immediate writeback.
//!
//! Internally the recency order is an intrusive doubly-linked list over a
//! slab of entries, with a dense block → slot index on the side (one
//! `u16` per block up to the highest block seen, 1/4096 of the blocks'
//! bytes): referencing a resident block unlinks and relinks one node
//! (O(1)) instead of reshuffling an ordered structure, and slots are
//! recycled through a free list so a warmed-up cache performs no
//! allocation at all.

use crate::payload::PayloadTag;

/// A block due to be written to disk: which block, what it holds, and how
/// many sectors of it are valid (fragment-tail writes are sub-block).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// File-system block number.
    pub block: u64,
    /// Payload synthesis tag.
    pub tag: PayloadTag,
    /// Sectors to transfer.
    pub n_sectors: u32,
}

const NIL: u32 = u32::MAX;

/// The most blocks a [`BufferCache`] holds (512 MiB of 8 KB blocks), so
/// its block → slot index needs two bytes a block.
pub const MAX_CAPACITY: usize = u16::MAX as usize - 1;

#[derive(Debug, Clone, Copy)]
struct Node {
    block: u64,
    /// Toward the LRU end.
    prev: u32,
    /// Toward the MRU end.
    next: u32,
    dirty: Option<(PayloadTag, u32)>,
}

/// An LRU buffer cache over file-system blocks.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    /// Per block, its slot + 1 (0 = not resident); grown on demand.
    /// Two bytes an entry: the capacity bound of [`Self::new`] keeps
    /// every slot + 1 below `u16::MAX`.
    index: Vec<u16>,
    /// Resident blocks.
    live: usize,
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Least-recently-used node (eviction victim), `NIL` when empty.
    head: u32,
    /// Most-recently-used node, `NIL` when empty.
    tail: u32,
    hits: u64,
    misses: u64,
    /// Blocks in the order they first became dirty since the last flush
    /// (the "buffer table walk" order of the update daemon). May contain
    /// blocks that were since cleaned (evicted/invalidated); flush skips
    /// them.
    dirty_seq: Vec<u64>,
}

impl BufferCache {
    /// A cache holding at most `capacity` blocks.
    ///
    /// # Panics
    /// Panics if capacity is zero or above [`MAX_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity cache");
        assert!(capacity <= MAX_CAPACITY, "cache of {capacity} blocks");
        BufferCache {
            capacity,
            index: Vec::new(),
            live: 0,
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            dirty_seq: Vec::new(),
        }
    }

    /// Blocks currently cached.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Lifetime (hit, miss) counts.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Whether a block is resident (does not affect LRU order).
    pub fn contains(&self, block: u64) -> bool {
        self.slot(block).is_some()
    }

    /// The slot holding `block`, if it is resident.
    fn slot(&self, block: u64) -> Option<u32> {
        u32::from(*self.index.get(block as usize)?).checked_sub(1)
    }

    /// Record `block`'s slot + 1 (0 = not resident).
    fn set_index(&mut self, block: u64, entry: u16) {
        let i = block as usize;
        if i >= self.index.len() {
            self.index.resize(i + 1, 0);
        }
        self.index[i] = entry;
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    fn link_mru(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = self.tail;
        self.nodes[idx as usize].next = NIL;
        if self.tail == NIL {
            self.head = idx;
        } else {
            self.nodes[self.tail as usize].next = idx;
        }
        self.tail = idx;
    }

    /// Reference a block for reading. Returns `(hit, evicted_writeback)`:
    /// on a miss the block becomes resident (clean) and the LRU block may
    /// be evicted — if it was dirty, its writeback is returned and must be
    /// issued immediately.
    pub fn reference(&mut self, block: u64) -> (bool, Option<Writeback>) {
        if let Some(idx) = self.slot(block) {
            self.hits += 1;
            self.unlink(idx);
            self.link_mru(idx);
            (true, None)
        } else {
            self.misses += 1;
            let evicted = self.insert(block, None);
            (false, evicted)
        }
    }

    /// Mark a block dirty (insert if absent), recording what to write at
    /// flush time. Returns an eviction writeback if inserting displaced a
    /// dirty block.
    pub fn mark_dirty(&mut self, block: u64, tag: PayloadTag, n_sectors: u32) -> Option<Writeback> {
        if let Some(idx) = self.slot(block) {
            self.unlink(idx);
            self.link_mru(idx);
            let n = &mut self.nodes[idx as usize];
            if n.dirty.is_none() {
                self.dirty_seq.push(block);
            }
            n.dirty = Some((tag, n_sectors));
            None
        } else {
            let evicted = self.insert(block, Some((tag, n_sectors)));
            self.dirty_seq.push(block);
            evicted
        }
    }

    fn insert(&mut self, block: u64, dirty: Option<(PayloadTag, u32)>) -> Option<Writeback> {
        let mut evicted = None;
        if self.live >= self.capacity {
            // Evict the least-recently-used block.
            let victim = self.head;
            self.unlink(victim);
            let n = self.nodes[victim as usize];
            self.set_index(n.block, 0);
            self.live -= 1;
            self.free.push(victim);
            if let Some((tag, n_sectors)) = n.dirty {
                evicted = Some(Writeback {
                    block: n.block,
                    tag,
                    n_sectors,
                });
            }
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = Node {
                    block,
                    prev: NIL,
                    next: NIL,
                    dirty,
                };
                i
            }
            None => {
                let i = u32::try_from(self.nodes.len()).expect("cache slots fit in u32");
                self.nodes.push(Node {
                    block,
                    prev: NIL,
                    next: NIL,
                    dirty,
                });
                i
            }
        };
        self.link_mru(idx);
        // Below `MAX_CAPACITY` + 1: a slot is only made while the cache
        // holds fewer than `capacity` blocks.
        self.set_index(block, idx as u16 + 1);
        self.live += 1;
        evicted
    }

    /// Drop a block from the cache without writeback (file deletion).
    pub fn invalidate(&mut self, block: u64) {
        if let Some(idx) = self.slot(block) {
            self.set_index(block, 0);
            self.live -= 1;
            self.unlink(idx);
            self.free.push(idx);
        }
    }

    /// The periodic update daemon: hand every dirty block to `emit`, in
    /// the order they first became dirty, and mark them clean. The real
    /// `update` daemon walks the kernel buffer table, whose order has
    /// nothing to do with disk position — so a flush burst hops all over
    /// the disk, which is exactly why the paper's write arrivals have
    /// long arrival-order seek distances.
    pub fn flush_all(&mut self, mut emit: impl FnMut(&Writeback)) {
        let mut order = std::mem::take(&mut self.dirty_seq);
        for &block in &order {
            let Some(idx) = self.slot(block) else {
                continue;
            };
            if let Some((tag, n_sectors)) = self.nodes[idx as usize].dirty.take() {
                emit(&Writeback {
                    block,
                    tag,
                    n_sectors,
                });
            }
        }
        // Keep the sequence's capacity for the next round of dirtying.
        order.clear();
        self.dirty_seq = order;
    }

    /// Number of dirty blocks awaiting flush.
    pub fn dirty_count(&self) -> usize {
        let mut count = 0;
        let mut idx = self.head;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            count += usize::from(n.dirty.is_some());
            idx = n.next;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a flush hands out, in order.
    fn flush(c: &mut BufferCache) -> Vec<Writeback> {
        let mut out = Vec::new();
        c.flush_all(|w| out.push(*w));
        out
    }

    fn tag(i: u64) -> PayloadTag {
        PayloadTag::FileData {
            ino: 1,
            index: i,
            generation: 0,
        }
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = BufferCache::new(4);
        let (hit, ev) = c.reference(10);
        assert!(!hit);
        assert!(ev.is_none());
        let (hit, _) = c.reference(10);
        assert!(hit);
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = BufferCache::new(2);
        c.reference(1);
        c.reference(2);
        c.reference(1); // 2 is now LRU
        c.reference(3); // evicts 2
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn dirty_eviction_emits_writeback() {
        let mut c = BufferCache::new(2);
        c.mark_dirty(1, tag(1), 16);
        c.reference(2);
        let (_, ev) = c.reference(3); // evicts dirty block 1
        let w = ev.expect("writeback");
        assert_eq!(w.block, 1);
        assert_eq!(w.n_sectors, 16);
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut c = BufferCache::new(1);
        c.reference(1);
        let (_, ev) = c.reference(2);
        assert!(ev.is_none());
    }

    #[test]
    fn flush_all_returns_dirtying_order_and_cleans() {
        let mut c = BufferCache::new(8);
        c.mark_dirty(5, tag(5), 16);
        c.mark_dirty(2, tag(2), 16);
        c.mark_dirty(9, tag(9), 2);
        assert_eq!(c.dirty_count(), 3);
        let flushed = flush(&mut c);
        assert_eq!(
            flushed.iter().map(|w| w.block).collect::<Vec<_>>(),
            vec![5, 2, 9]
        );
        assert_eq!(c.dirty_count(), 0);
        // Blocks stay resident after flush.
        assert!(c.contains(5));
        assert!(flush(&mut c).is_empty());
    }

    #[test]
    fn mark_dirty_overwrites_tag() {
        let mut c = BufferCache::new(4);
        c.mark_dirty(1, tag(1), 16);
        c.mark_dirty(1, tag(2), 16);
        let flushed = flush(&mut c);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].tag, tag(2));
    }

    #[test]
    fn invalidate_drops_without_writeback() {
        let mut c = BufferCache::new(4);
        c.mark_dirty(1, tag(1), 16);
        c.invalidate(1);
        assert!(!c.contains(1));
        assert!(flush(&mut c).is_empty());
    }

    #[test]
    fn dirty_read_hit_stays_dirty() {
        let mut c = BufferCache::new(4);
        c.mark_dirty(1, tag(1), 16);
        let (hit, _) = c.reference(1);
        assert!(hit);
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = BufferCache::new(3);
        for b in 0..100 {
            c.reference(b);
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn slots_recycle_without_growth() {
        let mut c = BufferCache::new(4);
        for b in 0..1000 {
            c.reference(b);
        }
        // The slab never grows past capacity: victims' slots are reused.
        assert_eq!(c.nodes.len(), 4);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn invalidated_slot_is_reused() {
        let mut c = BufferCache::new(8);
        c.reference(1);
        c.reference(2);
        c.invalidate(1);
        c.reference(3); // takes 1's slot
        assert_eq!(c.nodes.len(), 2);
        assert!(c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn mixed_workout_matches_naive_model() {
        // Cross-check list-based LRU and the dense index against a
        // simple vector model: a small cache over few blocks, and one
        // whose blocks lie far apart, so the index grows in steps.
        for (capacity, blocks, spread) in [(4, 12, 1), (32, 96, 1 << 13)] {
            let mut c = BufferCache::new(capacity);
            let mut model: Vec<u64> = Vec::new(); // front = LRU
            let mut x = 0x12345u64;
            for _ in 0..4000 {
                x = abr_sim::rng::splitmix64(x);
                let block = x % blocks * spread;
                if x.is_multiple_of(7) && !model.is_empty() {
                    let victim = model[(x % model.len() as u64) as usize];
                    c.invalidate(victim);
                    model.retain(|&b| b != victim);
                    continue;
                }
                let (hit, _) = c.reference(block);
                let modeled_hit = model.contains(&block);
                assert_eq!(hit, modeled_hit, "block {block}");
                model.retain(|&b| b != block);
                model.push(block);
                if model.len() > capacity {
                    model.remove(0);
                }
                assert_eq!(c.len(), model.len());
                assert!(model.iter().all(|&b| c.contains(b)));
            }
        }
    }
}

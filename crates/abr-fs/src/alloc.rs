//! Block and i-node allocation with FFS-style placement.
//!
//! Placement policy (after McKusick et al. 1984, as modelled for this
//! reproduction):
//!
//! * a new directory goes to the group with the most free blocks (spreads
//!   directories — and thus unrelated files — across the disk);
//! * a file's i-node goes in its directory's group;
//! * a file's first data block goes in its i-node's group; each successive
//!   block is placed `interleave + 1` blocks past the previous one when
//!   free ("interleaved by gaps"), falling back to the nearest free block
//!   in the group, then to subsequent groups.

use crate::layout::FsLayout;
use abr_sim::{jsn, FromJson, JsonError, JsonValue};

/// Free-space tracking and placement for one file system.
#[derive(Debug, Clone)]
pub struct Allocator {
    layout: FsLayout,
    /// Per-group free data-block bitmaps (true = free).
    free: Vec<Vec<bool>>,
    /// Per-group free block counts.
    free_count: Vec<u64>,
    /// Per-group i-node allocation state (next free index; i-nodes are
    /// never reused in this model, which is fine for day-length runs).
    next_inode: Vec<u64>,
    /// Directories placed in each group (for the FFS directory-placement
    /// policy).
    dirs_per_group: Vec<u32>,
}

impl Allocator {
    /// A fresh allocator with all data blocks free.
    pub fn new(layout: FsLayout) -> Self {
        let n_groups = layout.n_groups() as usize;
        let dbpg = layout.data_blocks_per_group() as usize;
        Allocator {
            layout,
            free: vec![vec![true; dbpg]; n_groups],
            free_count: vec![dbpg as u64; n_groups],
            next_inode: vec![0; n_groups],
            dirs_per_group: vec![0; n_groups],
        }
    }

    /// Total free data blocks.
    pub fn total_free(&self) -> u64 {
        self.free_count.iter().sum()
    }

    /// Free blocks in one group.
    pub fn group_free(&self, g: u64) -> u64 {
        self.free_count[g as usize]
    }

    /// The group with the most free blocks (for new directories).
    #[expect(clippy::expect_used, reason = "a file system has at least one group")]
    pub fn emptiest_group(&self) -> u64 {
        self.free_count
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .map(|(g, _)| g as u64)
            .expect("at least one group")
    }

    /// Choose a cylinder group for a *new directory*, per the FFS policy
    /// (McKusick 84): among groups with at least average free space, the
    /// one holding the fewest directories (lowest group number on ties).
    /// This spreads unrelated directories — and thus their files — across
    /// the whole disk surface, which is why hot blocks end up far apart.
    pub fn alloc_dir_group(&mut self) -> u64 {
        let avg = self.total_free() / self.free_count.len() as u64;
        let g = self
            .free_count
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= avg && c > 0)
            .min_by_key(|(g, _)| (self.dirs_per_group[*g], *g))
            .map(|(g, _)| g)
            .unwrap_or_else(|| {
                // Degenerate (nearly full): fall back to the emptiest.
                self.emptiest_group() as usize
            });
        self.dirs_per_group[g] += 1;
        g as u64
    }

    /// Allocate an i-node in (or near) group `g`. Returns the i-node
    /// number, or `None` if every group's i-node region is exhausted.
    pub fn alloc_inode(&mut self, g: u64) -> Option<u64> {
        let n = self.layout.n_groups();
        let ipg = self.layout.inodes_per_group();
        (0..n).map(|d| (g + d) % n).find_map(|cand| {
            let next = &mut self.next_inode[cand as usize];
            (*next < ipg).then(|| {
                let ino = cand * ipg + *next;
                *next += 1;
                ino
            })
        })
    }

    /// Absolute block number of data-block index `i` in group `g`.
    fn abs_block(&self, g: u64, i: usize) -> u64 {
        self.layout.group_data_start(g) + i as u64
    }

    /// Data-block index of an absolute block within its group, if it is a
    /// data block.
    fn data_index(&self, block: u64) -> Option<(u64, usize)> {
        let g = self.layout.group_of_block(block)?;
        let ds = self.layout.group_data_start(g);
        (block >= ds).then(|| (g, (block - ds) as usize))
    }

    /// Allocate a block for a file. `prev` is the file's previously
    /// allocated block (for rotational interleaving); `group_hint` is the
    /// i-node's group, used when `prev` is `None`.
    ///
    /// Returns `None` when the file system is full.
    pub fn alloc_block(&mut self, group_hint: u64, prev: Option<u64>) -> Option<u64> {
        // Rotationally optimal: interleave+1 past the previous block.
        if let Some(p) = prev {
            let want = p + self.layout.interleave + 1;
            if let Some((g, i)) = self.data_index(want) {
                if self.free[g as usize][i] {
                    return Some(self.take(g, i));
                }
            }
            // Fall back to the nearest free block after `prev` in its
            // group.
            if let Some((g, pi)) = self.data_index(p) {
                let bitmap = &self.free[g as usize];
                if let Some(i) = (pi + 1..bitmap.len()).find(|&i| bitmap[i]) {
                    return Some(self.take(g, i));
                }
            }
        }
        // First block (or group exhausted): first free block in the hint
        // group, then subsequent groups.
        let n = self.layout.n_groups();
        (0..n).map(|d| (group_hint + d) % n).find_map(|g| {
            let bitmap = &self.free[g as usize];
            bitmap.iter().position(|&f| f).map(|i| self.take(g, i))
        })
    }

    fn take(&mut self, g: u64, i: usize) -> u64 {
        debug_assert!(self.free[g as usize][i]);
        self.free[g as usize][i] = false;
        self.free_count[g as usize] -= 1;
        self.abs_block(g, i)
    }

    /// Free a previously allocated block.
    ///
    /// # Panics
    /// Panics if the block is not an allocated data block (double free or
    /// metadata block).
    pub fn free_block(&mut self, block: u64) {
        #[expect(clippy::expect_used, reason = "the documented `# Panics` contract")]
        let (g, i) = self.data_index(block).expect("freeing a non-data block");
        assert!(!self.free[g as usize][i], "double free of block {block}");
        self.free[g as usize][i] = true;
        self.free_count[g as usize] += 1;
    }

    /// Persisted form (inside a saved file system).
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "dirs_per_group": &self.dirs_per_group,
            "free": &self.free,
            "free_count": &self.free_count,
            "layout": self.layout.to_json(),
            "next_inode": &self.next_inode,
        })
    }
}

impl FromJson for Allocator {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(Allocator {
            layout: v.at("layout")?,
            free: v.at("free")?,
            free_count: v.at("free_count")?,
            next_inode: v.at("next_inode")?,
            dirs_per_group: v.at("dirs_per_group")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> FsLayout {
        FsLayout::new(120_000, 340, 8192, 1024, 16, 1)
    }

    #[test]
    fn fresh_allocator_all_free() {
        let a = Allocator::new(layout());
        let l = layout();
        assert_eq!(a.total_free(), l.n_groups() * l.data_blocks_per_group());
    }

    #[test]
    fn interleaved_allocation_leaves_gaps() {
        let mut a = Allocator::new(layout());
        let b0 = a.alloc_block(0, None).unwrap();
        let b1 = a.alloc_block(0, Some(b0)).unwrap();
        let b2 = a.alloc_block(0, Some(b1)).unwrap();
        // interleave = 1: successive blocks 2 apart.
        assert_eq!(b1, b0 + 2);
        assert_eq!(b2, b1 + 2);
    }

    #[test]
    fn fallback_fills_gaps_when_target_taken() {
        let mut a = Allocator::new(layout());
        let b0 = a.alloc_block(0, None).unwrap();
        let b1 = a.alloc_block(0, Some(b0)).unwrap();
        // A second file starting in the same group takes the gap block.
        let c0 = a.alloc_block(0, None).unwrap();
        assert_eq!(c0, b0 + 1);
        // Its next "interleaved" target (c0+2 = b1+1) is free.
        let c1 = a.alloc_block(0, Some(c0)).unwrap();
        assert_eq!(c1, b1 + 1);
    }

    #[test]
    fn allocation_respects_group_hint() {
        let mut a = Allocator::new(layout());
        let l = layout();
        let b = a.alloc_block(3, None).unwrap();
        assert_eq!(l.group_of_block(b), Some(3));
        assert!(b >= l.group_data_start(3));
    }

    #[test]
    fn spills_to_next_group_when_full() {
        let l = layout();
        let mut a = Allocator::new(l);
        let dbpg = l.data_blocks_per_group();
        for _ in 0..dbpg {
            a.alloc_block(0, None).unwrap();
        }
        assert_eq!(a.group_free(0), 0);
        let b = a.alloc_block(0, None).unwrap();
        assert_eq!(l.group_of_block(b), Some(1));
    }

    #[test]
    fn free_and_realloc() {
        let mut a = Allocator::new(layout());
        let b = a.alloc_block(0, None).unwrap();
        let before = a.total_free();
        a.free_block(b);
        assert_eq!(a.total_free(), before + 1);
        assert_eq!(a.alloc_block(0, None).unwrap(), b);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = Allocator::new(layout());
        let b = a.alloc_block(0, None).unwrap();
        a.free_block(b);
        a.free_block(b);
    }

    #[test]
    fn inode_allocation_by_group() {
        let l = layout();
        let mut a = Allocator::new(l);
        let i0 = a.alloc_inode(2).unwrap();
        assert_eq!(l.group_of_inode(i0), 2);
        let i1 = a.alloc_inode(2).unwrap();
        assert_eq!(i1, i0 + 1);
    }

    #[test]
    fn inode_spills_when_group_full() {
        let l = layout();
        let mut a = Allocator::new(l);
        for _ in 0..l.inodes_per_group() {
            a.alloc_inode(0).unwrap();
        }
        let spilled = a.alloc_inode(0).unwrap();
        assert_eq!(l.group_of_inode(spilled), 1);
    }

    #[test]
    fn emptiest_group_prefers_free_space() {
        let l = layout();
        let mut a = Allocator::new(l);
        // Drain most of group 0.
        for _ in 0..l.data_blocks_per_group() - 1 {
            a.alloc_block(0, None).unwrap();
        }
        assert_ne!(a.emptiest_group(), 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let l = FsLayout::new(1600, 64, 4096, 1024, 4, 0);
        let mut a = Allocator::new(l);
        while a.alloc_block(0, None).is_some() {}
        assert_eq!(a.total_free(), 0);
        assert!(a.alloc_block(0, None).is_none());
    }
}

//! On-partition layout: superblock, cylinder groups, i-node regions.
//!
//! The partition is an array of file-system blocks. Block 0 holds the
//! superblock. The rest is divided into cylinder groups; each group
//! starts with an i-node region followed by data blocks. This mirrors the
//! Berkeley FFS layout closely enough that the paper's placement
//! behaviour (hot data spread across groups, metadata interleaved with
//! data) emerges naturally.

#![deny(clippy::cast_possible_truncation)]

use abr_sim::{jsn, FromJson, JsonError, JsonValue};

/// Bytes per on-disk i-node (the classic UFS size).
pub const INODE_SIZE: u32 = 128;

/// Static layout parameters of a file system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsLayout {
    /// File-system block size in bytes (8192 in the paper).
    pub block_size: u32,
    /// Fragment size in bytes (1024 in the paper).
    pub fragment_size: u32,
    /// Total file-system blocks in the partition.
    pub n_blocks: u64,
    /// Blocks per cylinder group.
    pub blocks_per_group: u64,
    /// I-node blocks at the start of each group.
    pub inode_blocks_per_group: u64,
    /// Rotational interleave gap in blocks (0 = contiguous).
    pub interleave: u64,
}

impl FsLayout {
    /// Compute a layout for a partition of `n_sectors` sectors.
    ///
    /// `cylinders_per_group` and the disk's sectors-per-cylinder determine
    /// the group size, rounded to whole blocks.
    ///
    /// # Panics
    /// Panics on degenerate parameters (partition smaller than two
    /// groups' worth of blocks, fragment not dividing block, ...).
    pub fn new(
        n_sectors: u64,
        sectors_per_cylinder: u64,
        block_size: u32,
        fragment_size: u32,
        cylinders_per_group: u32,
        interleave: u64,
    ) -> Self {
        assert!(block_size > 0 && fragment_size > 0);
        assert_eq!(block_size % fragment_size, 0, "fragment must divide block");
        let spb = u64::from(block_size) / abr_disk::SECTOR_SIZE as u64;
        assert!(spb > 0, "block smaller than a sector");
        let n_blocks = n_sectors / spb;
        let blocks_per_group =
            (u64::from(cylinders_per_group) * sectors_per_cylinder / spb).max(16);
        assert!(
            n_blocks >= 2 * blocks_per_group,
            "partition too small for two cylinder groups"
        );
        // One i-node block per 32 data blocks, at least one.
        let inode_blocks_per_group = (blocks_per_group / 32).max(1);
        FsLayout {
            block_size,
            fragment_size,
            n_blocks,
            blocks_per_group,
            inode_blocks_per_group,
            interleave,
        }
    }

    /// Sectors per file-system block.
    pub fn sectors_per_block(&self) -> u32 {
        self.block_size / abr_disk::SECTOR_SIZE_U32
    }

    /// Sectors per fragment.
    pub fn sectors_per_fragment(&self) -> u32 {
        self.fragment_size / abr_disk::SECTOR_SIZE_U32
    }

    /// Fragments per block.
    pub fn fragments_per_block(&self) -> u32 {
        self.block_size / self.fragment_size
    }

    /// Number of cylinder groups (the trailing partial group, if any, is
    /// ignored, like `newfs` wasting tail cylinders).
    pub fn n_groups(&self) -> u64 {
        // Block 0 is the superblock; groups start at block 1.
        (self.n_blocks - 1) / self.blocks_per_group
    }

    /// First block of group `g` (its i-node region).
    pub fn group_start(&self, g: u64) -> u64 {
        debug_assert!(g < self.n_groups());
        1 + g * self.blocks_per_group
    }

    /// First *data* block of group `g`.
    pub fn group_data_start(&self, g: u64) -> u64 {
        self.group_start(g) + self.inode_blocks_per_group
    }

    /// Exclusive end block of group `g`.
    pub fn group_end(&self, g: u64) -> u64 {
        self.group_start(g) + self.blocks_per_group
    }

    /// Data blocks per group.
    pub fn data_blocks_per_group(&self) -> u64 {
        self.blocks_per_group - self.inode_blocks_per_group
    }

    /// I-nodes per group.
    pub fn inodes_per_group(&self) -> u64 {
        self.inode_blocks_per_group * u64::from(self.block_size / INODE_SIZE)
    }

    /// Size of the i-node number space.
    pub fn n_inodes(&self) -> u64 {
        self.n_groups() * self.inodes_per_group()
    }

    /// The group an i-node lives in.
    pub fn group_of_inode(&self, ino: u64) -> u64 {
        ino / self.inodes_per_group()
    }

    /// The file-system block holding i-node `ino`.
    pub fn inode_block(&self, ino: u64) -> u64 {
        let g = self.group_of_inode(ino);
        let within = ino % self.inodes_per_group();
        self.group_start(g) + within / u64::from(self.block_size / INODE_SIZE)
    }

    /// The group a data block belongs to, or `None` for the superblock.
    pub fn group_of_block(&self, block: u64) -> Option<u64> {
        if block == 0 {
            return None;
        }
        let g = (block - 1) / self.blocks_per_group;
        (g < self.n_groups()).then_some(g)
    }

    /// Persisted form (inside a saved file system).
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "block_size": self.block_size,
            "blocks_per_group": self.blocks_per_group,
            "fragment_size": self.fragment_size,
            "inode_blocks_per_group": self.inode_blocks_per_group,
            "interleave": self.interleave,
            "n_blocks": self.n_blocks,
        })
    }
}

impl FromJson for FsLayout {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(FsLayout {
            block_size: v.at("block_size")?,
            fragment_size: v.at("fragment_size")?,
            n_blocks: v.at("n_blocks")?,
            blocks_per_group: v.at("blocks_per_group")?,
            inode_blocks_per_group: v.at("inode_blocks_per_group")?,
            interleave: v.at("interleave")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Layout like the paper's Toshiba system partition: ~60 MB.
    fn paper_like() -> FsLayout {
        FsLayout::new(120_000, 340, 8192, 1024, 16, 1)
    }

    #[test]
    fn paper_parameters() {
        let l = paper_like();
        assert_eq!(l.sectors_per_block(), 16);
        assert_eq!(l.sectors_per_fragment(), 2);
        assert_eq!(l.fragments_per_block(), 8);
        assert_eq!(l.n_blocks, 7500);
        // 16 cylinders * 340 sectors / 16 spb = 340 blocks per group.
        assert_eq!(l.blocks_per_group, 340);
        assert!(l.n_groups() >= 20);
    }

    #[test]
    fn groups_tile_the_partition() {
        let l = paper_like();
        let mut prev_end = 1;
        for g in 0..l.n_groups() {
            assert_eq!(l.group_start(g), prev_end);
            assert!(l.group_data_start(g) > l.group_start(g));
            prev_end = l.group_end(g);
        }
        assert!(prev_end <= l.n_blocks);
    }

    #[test]
    fn inode_blocks_inside_group_metadata_region() {
        let l = paper_like();
        let ipg = l.inodes_per_group();
        for ino in [0, 1, ipg - 1, ipg, 2 * ipg + 5] {
            let b = l.inode_block(ino);
            let g = l.group_of_inode(ino);
            assert!(b >= l.group_start(g));
            assert!(b < l.group_data_start(g));
        }
    }

    #[test]
    fn inodes_per_block_is_64_for_8k() {
        let l = paper_like();
        // 8192 / 128 = 64 inodes per block.
        assert_eq!(l.inode_block(0), l.inode_block(63));
        assert_ne!(l.inode_block(63), l.inode_block(64));
    }

    #[test]
    fn group_of_block_roundtrip() {
        let l = paper_like();
        assert_eq!(l.group_of_block(0), None);
        for g in 0..l.n_groups() {
            assert_eq!(l.group_of_block(l.group_start(g)), Some(g));
            assert_eq!(l.group_of_block(l.group_end(g) - 1), Some(g));
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_partition_rejected() {
        FsLayout::new(100, 340, 8192, 1024, 16, 1);
    }

    #[test]
    #[should_panic(expected = "fragment must divide")]
    fn bad_fragment_rejected() {
        FsLayout::new(120_000, 340, 8192, 1000, 16, 1);
    }
}

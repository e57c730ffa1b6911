//! Deterministic synthetic block payloads.
//!
//! The reproduction does not keep file contents in memory; instead, the
//! bytes written for any block are a pure function of what the block is
//! (file data at an offset, an i-node block at a generation, ...). A read
//! can then verify end-to-end integrity — through the buffer cache, the
//! driver's remapping, rearrangement cycles, and crash recovery — by
//! recomputing the expected payload.

use std::sync::Arc;

/// What a block holds, for payload synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadTag {
    /// Data block `index` of file `ino`, written `generation` times.
    FileData {
        /// Owning i-node.
        ino: u64,
        /// Block index within the file.
        index: u64,
        /// Write generation (bumped on each overwrite).
        generation: u32,
    },
    /// An i-node region block, at an update generation.
    InodeBlock {
        /// Absolute file-system block number.
        block: u64,
        /// Update generation.
        generation: u32,
    },
    /// A directory block, at an update generation.
    DirBlock {
        /// Directory id.
        dir: u64,
        /// Update generation.
        generation: u32,
    },
    /// The superblock.
    Superblock,
    /// An indirect-pointer block of a file.
    Indirect {
        /// Owning i-node.
        ino: u64,
    },
}

impl PayloadTag {
    /// The generator seed for this tag: [`PayloadTag::bytes`] is exactly
    /// the [`abr_driver::IoRequest::write_seeded`] stream for this seed,
    /// so writes can carry the 8-byte seed instead of a materialized
    /// payload and stay byte-for-byte verifiable.
    pub fn seed(&self) -> u64 {
        match *self {
            PayloadTag::FileData {
                ino,
                index,
                generation,
            } => mix3(0x46, ino, index ^ (u64::from(generation) << 40)),
            PayloadTag::InodeBlock { block, generation } => {
                mix3(0x49, block, u64::from(generation))
            }
            PayloadTag::DirBlock { dir, generation } => mix3(0x44, dir, u64::from(generation)),
            PayloadTag::Superblock => mix3(0x53, 0, 0),
            PayloadTag::Indirect { ino } => mix3(0x58, ino, 0),
        }
    }

    /// Synthesize `len` bytes for this tag (`len` must be a multiple of 8
    /// for the generator's stride; block and fragment sizes always are).
    pub fn bytes(&self, len: usize) -> Arc<[u8]> {
        let mut out = vec![0u8; len];
        abr_disk::store::fill_seeded(self.seed(), 0, &mut out);
        Arc::from(out)
    }
}

use abr_sim::rng::splitmix64;

fn mix3(kind: u64, a: u64, b: u64) -> u64 {
    splitmix64(kind ^ splitmix64(a) ^ splitmix64(b).rotate_left(32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_same_bytes() {
        let t = PayloadTag::FileData {
            ino: 7,
            index: 3,
            generation: 1,
        };
        assert_eq!(t.bytes(8192), t.bytes(8192));
    }

    #[test]
    fn different_tags_differ() {
        let a = PayloadTag::FileData {
            ino: 7,
            index: 3,
            generation: 1,
        }
        .bytes(512);
        let b = PayloadTag::FileData {
            ino: 7,
            index: 4,
            generation: 1,
        }
        .bytes(512);
        let c = PayloadTag::FileData {
            ino: 7,
            index: 3,
            generation: 2,
        }
        .bytes(512);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn kinds_do_not_collide() {
        let d = PayloadTag::DirBlock {
            dir: 5,
            generation: 0,
        }
        .bytes(512);
        let i = PayloadTag::InodeBlock {
            block: 5,
            generation: 0,
        }
        .bytes(512);
        assert_ne!(d, i);
    }

    #[test]
    fn length_respected() {
        assert_eq!(PayloadTag::Superblock.bytes(1024).len(), 1024);
    }
}

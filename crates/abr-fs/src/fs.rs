//! The file system proper: files, directories, and the translation of
//! file-level operations into block-level driver requests.
//!
//! Operations do not perform I/O themselves; they append to the caller's
//! `out` buffer the [`IoRequest`]s the server would issue at that moment
//! (cache misses and dirty-eviction writebacks), and an operation that
//! fails appends nothing. The caller — the workload harness — submits
//! them to the driver. Each operation has one implementation, over `out`;
//! [`FileSystem::mkdir`], [`FileSystem::create`], [`FileSystem::read`],
//! [`FileSystem::delete`] and [`FileSystem::sync`] also return a fresh
//! `Vec`, for callers that hold none. The periodic update daemon is
//! modelled by [`FileSystem::sync_into`], which the harness calls on the
//! update period (classically every 30 s), producing the paper's bursty
//! write pattern.

use crate::alloc::Allocator;
use crate::cache::{BufferCache, Writeback};
use crate::layout::{FsLayout, INODE_SIZE};
use crate::payload::PayloadTag;
use abr_driver::request::IoRequest;
use abr_sim::{jsn, FromJson, JsonError, JsonValue};
use std::collections::BTreeMap;
use std::fmt;

/// Number of direct block pointers in an i-node (classic UFS: 12).
pub const DIRECT_POINTERS: usize = 12;

/// Mount mode (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountMode {
    /// Users may not create, delete or modify files; the OS still updates
    /// i-node bookkeeping (access times), so writes trickle out anyway.
    ReadOnly,
    /// Full access.
    ReadWrite,
}

/// File-system configuration.
#[derive(Debug, Clone, Copy)]
pub struct FsConfig {
    /// Partition index on the driver.
    pub partition: usize,
    /// Block size in bytes (paper: 8192).
    pub block_size: u32,
    /// Fragment size in bytes (paper: 1024).
    pub fragment_size: u32,
    /// Cylinders per cylinder group (classic FFS: 16).
    pub cylinders_per_group: u32,
    /// Rotational interleave gap in blocks.
    pub interleave: u64,
    /// Buffer cache capacity in blocks.
    pub cache_blocks: usize,
    /// Mount mode.
    pub mode: MountMode,
    /// Write *data* blocks through to disk at operation time instead of
    /// delaying them for the update daemon. NFS2 data writes are
    /// synchronous at the server, so a file server's user-data writes
    /// arrive paced with the RPC stream; only metadata bookkeeping
    /// (i-node timestamps, directory blocks) rides the periodic sync.
    pub write_through: bool,
}

impl Default for FsConfig {
    fn default() -> Self {
        FsConfig {
            partition: 0,
            block_size: 8192,
            fragment_size: 1024,
            cylinders_per_group: 16,
            interleave: 1,
            cache_blocks: 2048,
            mode: MountMode::ReadWrite,
            write_through: false,
        }
    }
}

/// File-system errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// Write-type operation on a read-only mount.
    ReadOnly,
    /// Out of data blocks.
    NoSpace,
    /// Out of i-nodes.
    NoInodes,
    /// Unknown file handle.
    NoSuchFile,
    /// Unknown directory.
    NoSuchDir,
    /// Read or write beyond end of file.
    BeyondEof,
    /// File too large for direct + single-indirect addressing.
    TooLarge,
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FsError::ReadOnly => "read-only file system",
            FsError::NoSpace => "no space left on device",
            FsError::NoInodes => "no free i-nodes",
            FsError::NoSuchFile => "no such file",
            FsError::NoSuchDir => "no such directory",
            FsError::BeyondEof => "beyond end of file",
            FsError::TooLarge => "file too large",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FsError {}

/// Handle to an open file (its i-node number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileHandle(pub u64);

/// Handle to a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirHandle(pub u64);

#[derive(Debug, Clone, Default)]
struct Inode {
    size: u64,
    /// Absolute FS block numbers of the file's data blocks, in file order.
    blocks: Vec<u64>,
    /// Indirect-pointer block, allocated once the file outgrows the
    /// direct pointers.
    indirect: Option<u64>,
    /// Per-file-block write generation (for payload synthesis).
    generations: Vec<u32>,
    /// Group the i-node lives in (allocation affinity).
    group: u64,
}

#[derive(Debug, Clone)]
struct Dir {
    /// The directory's single directory-contents block.
    block: u64,
    /// Cylinder group the directory claims.
    group: u64,
    /// Update generation of the directory block.
    generation: u32,
}

/// The i-node table: memory for the files that exist, not for the i-node
/// number space.
///
/// I-node lookups sit on the per-operation hot path (every read, write
/// and access-time touch), so they stay array reads with no hashing: a
/// 4-byte index over i-node numbers (1.0 MB on the Fujitsu partition,
/// allocated zeroed and so resident only where touched) leads to a
/// compact arena of live i-nodes whose freed slots are reused. A slot per
/// i-node *number* was 80 bytes each: 20.4 MB for the users file
/// system's ~1,000 files. Saved state lists i-nodes by number whatever
/// the arena order (see [`FileSystem::save_state`]).
#[derive(Debug, Default)]
struct InodeTable {
    /// i-node number → arena slot + 1, zero when the number is free.
    index: Vec<u32>,
    /// Live i-nodes under their numbers.
    arena: Vec<Option<(u64, Inode)>>,
    /// Vacated arena slots, reused before the arena grows.
    free: Vec<u32>,
}

impl InodeTable {
    /// An empty table over the i-node numbers `0..n_inodes`.
    fn new(n_inodes: u64) -> Self {
        InodeTable {
            index: vec![0; n_inodes as usize],
            ..InodeTable::default()
        }
    }

    /// The arena slot of `ino`; a free number wraps to a slot no arena has.
    fn slot(&self, ino: u64) -> Option<usize> {
        Some((*self.index.get(ino as usize)? as usize).wrapping_sub(1))
    }

    fn get(&self, ino: u64) -> Option<&Inode> {
        Some(&self.arena.get(self.slot(ino)?)?.as_ref()?.1)
    }

    fn get_mut(&mut self, ino: u64) -> Option<&mut Inode> {
        let slot = self.slot(ino)?;
        Some(&mut self.arena.get_mut(slot)?.as_mut()?.1)
    }

    fn insert(&mut self, ino: u64, inode: Inode) {
        if let Some(live) = self.get_mut(ino) {
            *live = inode;
            return;
        }
        let slot = self.free.pop().unwrap_or(self.arena.len() as u32);
        if slot as usize == self.arena.len() {
            self.arena.push(None);
        }
        self.arena[slot as usize] = Some((ino, inode));
        let i = ino as usize;
        if i >= self.index.len() {
            // A number beyond the layout's: only a foreign saved state.
            self.index.resize(i + 1, 0);
        }
        self.index[i] = slot + 1;
    }

    fn remove(&mut self, ino: u64) -> Option<Inode> {
        let slot = self.slot(ino)?;
        let (_, gone) = self.arena.get_mut(slot)?.take()?;
        self.index[ino as usize] = 0;
        self.free.push(slot as u32);
        Some(gone)
    }

    fn len(&self) -> usize {
        self.arena.len() - self.free.len()
    }

    /// Bytes of heap behind the table.
    fn heap_bytes(&self) -> usize {
        (self.index.capacity() + self.free.capacity()) * std::mem::size_of::<u32>()
            + self.arena.capacity() * std::mem::size_of::<Option<(u64, Inode)>>()
    }

    /// Live entries, in arena order.
    fn live(&self) -> impl Iterator<Item = &(u64, Inode)> {
        self.arena.iter().flatten()
    }

    fn from_ordered(map: BTreeMap<u64, Inode>, n_inodes: u64) -> Self {
        let mut t = InodeTable::new(n_inodes);
        for (ino, inode) in map {
            t.insert(ino, inode);
        }
        t
    }
}

impl std::ops::Index<u64> for InodeTable {
    type Output = Inode;
    fn index(&self, ino: u64) -> &Inode {
        self.get(ino).expect("live i-node")
    }
}

/// The file system.
pub struct FileSystem {
    cfg: FsConfig,
    layout: FsLayout,
    alloc: Allocator,
    cache: BufferCache,
    inodes: InodeTable,
    dirs: BTreeMap<u64, Dir>,
    next_dir_id: u64,
    /// Update generation per i-node region block (0 = never updated),
    /// indexed by the block's rank among the i-node blocks, which is
    /// `ino / inodes per block` for any i-node it holds. Touched on every
    /// operation (access-time updates), so dense: one entry per i-node
    /// block, 1/32 of the partition.
    inode_block_gen: Vec<u32>,
}

/// I-nodes per file-system block.
fn inodes_per_block(layout: &FsLayout) -> u64 {
    u64::from(layout.block_size / INODE_SIZE)
}

/// I-node blocks in the file system.
fn inode_blocks(layout: &FsLayout) -> usize {
    (layout.n_groups() * layout.inode_blocks_per_group) as usize
}

/// Where an i-node's timestamp lives: its block, and that block's rank
/// among the i-node blocks (its index in `inode_block_gen`).
#[derive(Debug, Clone, Copy)]
struct InodeAt {
    block: u64,
    rank: usize,
}

fn inode_at(layout: &FsLayout, ino: u64) -> InodeAt {
    InodeAt {
        block: layout.inode_block(ino),
        rank: (ino / inodes_per_block(layout)) as usize,
    }
}

impl FsConfig {
    /// Sectors per file-system block.
    fn spb(&self) -> u32 {
        self.block_size / abr_disk::SECTOR_SIZE_U32
    }

    fn read_req(&self, block: u64, n_sectors: u32) -> IoRequest {
        IoRequest::read(self.partition, block * u64::from(self.spb()), n_sectors)
    }

    fn write_req(&self, w: &Writeback) -> IoRequest {
        // Seeded: the request carries the 8-byte generator seed; the
        // driver synthesizes the identical payload stream at media-write
        // time (see `PayloadTag::seed`).
        IoRequest::write_seeded(
            self.partition,
            w.block * u64::from(self.spb()),
            w.n_sectors,
            w.tag.seed(),
        )
    }

    /// Sectors occupied by file block `idx` of a file of `size` bytes:
    /// full blocks transfer whole, the tail transfers only its fragments.
    fn block_sectors(&self, size: u64, idx: usize, n_blocks: usize) -> u32 {
        let bs = u64::from(self.block_size);
        if idx + 1 < n_blocks || size.is_multiple_of(bs) {
            self.spb()
        } else {
            let tail = size % bs;
            let frag = u64::from(self.fragment_size);
            (tail.div_ceil(frag) * frag / abr_disk::SECTOR_SIZE as u64) as u32
        }
    }
}

/// One operation's hold on the buffer cache and the i-node timestamps,
/// borrowed apart from the i-node it walks: each reference or dirtying
/// appends what it costs (a miss's read, an evicted dirty block's
/// writeback) to the operation's `out`.
struct Io<'a> {
    cfg: &'a FsConfig,
    cache: &'a mut BufferCache,
    inode_block_gen: &'a mut [u32],
    out: &'a mut Vec<IoRequest>,
}

impl Io<'_> {
    /// Reference a block for reading: emits a read on a miss and a
    /// writeback if a dirty block was evicted.
    fn read(&mut self, block: u64, n_sectors: u32) {
        let (hit, evicted) = self.cache.reference(block);
        if let Some(w) = evicted {
            self.out.push(self.cfg.write_req(&w));
        }
        if !hit {
            self.out.push(self.cfg.read_req(block, n_sectors));
        }
    }

    /// Dirty a block in the cache; emits a writeback if a dirty block was
    /// evicted to make room.
    fn dirty(&mut self, block: u64, tag: PayloadTag, n_sectors: u32) {
        if let Some(w) = self.cache.mark_dirty(block, tag, n_sectors) {
            self.out.push(self.cfg.write_req(&w));
        }
    }

    /// Dirty a whole metadata block (directory, indirect or i-node).
    fn dirty_meta(&mut self, block: u64, tag: PayloadTag) {
        self.dirty(block, tag, self.cfg.spb());
    }

    /// Write a *data* block: through the cache when delayed writes are
    /// configured, straight to disk (leaving the block clean-resident)
    /// when `write_through` is set.
    fn data_write(&mut self, block: u64, tag: PayloadTag, n_sectors: u32) {
        if self.cfg.write_through {
            let (_, evicted) = self.cache.reference(block);
            if let Some(w) = evicted {
                self.out.push(self.cfg.write_req(&w));
            }
            self.out.push(self.cfg.write_req(&Writeback {
                block,
                tag,
                n_sectors,
            }));
        } else {
            self.dirty(block, tag, n_sectors);
        }
    }

    /// Read an i-node's block (metadata fetch before using a cold file).
    fn fetch_inode(&mut self, at: InodeAt) {
        self.read(at.block, self.cfg.spb());
    }

    /// Touch an i-node's block as dirty (timestamp update). Allowed on
    /// read-only mounts — "the operating system itself may generate write
    /// requests to the logical device that holds a read-only file system"
    /// (§3.1).
    fn touch_inode(&mut self, at: InodeAt) {
        let g = &mut self.inode_block_gen[at.rank];
        *g += 1;
        let (block, generation) = (at.block, *g);
        self.dirty_meta(block, PayloadTag::InodeBlock { block, generation });
    }
}

impl fmt::Debug for FileSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileSystem")
            .field("files", &self.inodes.len())
            .field("dirs", &self.dirs.len())
            .field("free_blocks", &self.alloc.total_free())
            .finish_non_exhaustive()
    }
}

impl FileSystem {
    /// Create ("newfs") a file system on a partition of `n_sectors`
    /// sectors, on a disk with the given sectors-per-cylinder.
    pub fn newfs(cfg: FsConfig, n_sectors: u64, sectors_per_cylinder: u64) -> Self {
        let layout = FsLayout::new(
            n_sectors,
            sectors_per_cylinder,
            cfg.block_size,
            cfg.fragment_size,
            cfg.cylinders_per_group,
            cfg.interleave,
        );
        FileSystem {
            alloc: Allocator::new(layout),
            cache: BufferCache::new(cfg.cache_blocks),
            inodes: InodeTable::new(layout.n_inodes()),
            dirs: BTreeMap::new(),
            next_dir_id: 0,
            inode_block_gen: vec![0; inode_blocks(&layout)],
            layout,
            cfg,
        }
    }

    /// The static layout.
    pub fn layout(&self) -> &FsLayout {
        &self.layout
    }

    /// The configuration.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// Buffer cache statistics `(hits, misses)`.
    pub fn cache_hit_miss(&self) -> (u64, u64) {
        self.cache.hit_miss()
    }

    /// Bytes of heap behind the i-node table.
    pub fn inode_table_heap_bytes(&self) -> usize {
        self.inodes.heap_bytes()
    }

    /// Free data blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.alloc.total_free()
    }

    /// Total data blocks in the file system.
    pub fn total_data_blocks(&self) -> u64 {
        self.layout.n_groups() * self.layout.data_blocks_per_group()
    }

    /// Change the mount mode (e.g. build read-write, then serve
    /// read-only, as the paper's *system* file system was used).
    pub fn remount(&mut self, mode: MountMode) {
        self.cfg.mode = mode;
    }

    // ----- helpers ---------------------------------------------------

    /// The cache and the i-node timestamps, driven by one operation
    /// that holds no i-node.
    fn io<'a>(&'a mut self, out: &'a mut Vec<IoRequest>) -> Io<'a> {
        Io {
            cfg: &self.cfg,
            cache: &mut self.cache,
            inode_block_gen: &mut self.inode_block_gen,
            out,
        }
    }

    // ----- directory operations --------------------------------------

    /// Create a directory. FFS policy: new directories go to the group
    /// with the most free space, spreading unrelated files apart.
    pub fn mkdir_into(&mut self, out: &mut Vec<IoRequest>) -> Result<DirHandle, FsError> {
        if self.cfg.mode == MountMode::ReadOnly {
            return Err(FsError::ReadOnly);
        }
        let group = self.alloc.alloc_dir_group();
        let block = self
            .alloc
            .alloc_block(group, None)
            .ok_or(FsError::NoSpace)?;
        let id = self.next_dir_id;
        self.next_dir_id += 1;
        self.dirs.insert(
            id,
            Dir {
                block,
                group,
                generation: 0,
            },
        );
        let tag = PayloadTag::DirBlock {
            dir: id,
            generation: 0,
        };
        self.io(out).dirty_meta(block, tag);
        Ok(DirHandle(id))
    }

    /// [`Self::mkdir_into`] a fresh buffer.
    pub fn mkdir(&mut self) -> Result<(DirHandle, Vec<IoRequest>), FsError> {
        collected(|out| self.mkdir_into(out))
    }

    /// Number of directories.
    pub fn n_dirs(&self) -> usize {
        self.dirs.len()
    }

    fn dirty_dir(&mut self, dir: u64, out: &mut Vec<IoRequest>) -> Result<(), FsError> {
        let d = self.dirs.get_mut(&dir).ok_or(FsError::NoSuchDir)?;
        d.generation += 1;
        let (block, generation) = (d.block, d.generation);
        let tag = PayloadTag::DirBlock { dir, generation };
        self.io(out).dirty_meta(block, tag);
        Ok(())
    }

    // ----- file operations --------------------------------------------

    /// Create a file of `size` bytes in `dir`. Allocates the i-node in
    /// the directory's group and data blocks with rotational
    /// interleaving; all writes are delayed in the cache.
    pub fn create_into(
        &mut self,
        dir: DirHandle,
        size: u64,
        out: &mut Vec<IoRequest>,
    ) -> Result<FileHandle, FsError> {
        if self.cfg.mode == MountMode::ReadOnly {
            return Err(FsError::ReadOnly);
        }
        let group = self.dirs.get(&dir.0).ok_or(FsError::NoSuchDir)?.group;
        let ino = self.alloc.alloc_inode(group).ok_or(FsError::NoInodes)?;
        let bs = u64::from(self.cfg.block_size);
        let n_blocks = size.div_ceil(bs) as usize;
        if n_blocks > DIRECT_POINTERS + (self.cfg.block_size as usize / 8) {
            return Err(FsError::TooLarge);
        }
        let mut blocks = Vec::with_capacity(n_blocks);
        let mut prev = None;
        // Roll back everything allocated so far if space runs out
        // mid-file; a failed create must not leak blocks.
        let alloc_or_rollback = |alloc: &mut crate::alloc::Allocator,
                                 blocks: &mut Vec<u64>,
                                 prev: Option<u64>|
         -> Result<u64, FsError> {
            match alloc.alloc_block(group, prev) {
                Some(b) => Ok(b),
                None => {
                    for &b in blocks.iter() {
                        alloc.free_block(b);
                    }
                    blocks.clear();
                    Err(FsError::NoSpace)
                }
            }
        };
        for _ in 0..n_blocks {
            let b = alloc_or_rollback(&mut self.alloc, &mut blocks, prev)?;
            blocks.push(b);
            prev = Some(b);
        }
        // Indirect block if the file outgrows the direct pointers.
        let indirect = if n_blocks > DIRECT_POINTERS {
            Some(alloc_or_rollback(&mut self.alloc, &mut blocks, prev)?)
        } else {
            None
        };
        let at = inode_at(&self.layout, ino);
        let mut io = self.io(out);
        if let Some(b) = indirect {
            io.dirty_meta(b, PayloadTag::Indirect { ino });
        }
        // Data block writes.
        for (idx, &b) in blocks.iter().enumerate() {
            let tag = PayloadTag::FileData {
                ino,
                index: idx as u64,
                generation: 0,
            };
            io.data_write(b, tag, io.cfg.block_sectors(size, idx, n_blocks));
        }
        io.touch_inode(at);
        let generations = vec![0; n_blocks];
        self.inodes.insert(
            ino,
            Inode {
                size,
                blocks,
                indirect,
                generations,
                group,
            },
        );
        self.dirty_dir(dir.0, out)?;
        Ok(FileHandle(ino))
    }

    /// [`Self::create_into`] a fresh buffer.
    pub fn create(
        &mut self,
        dir: DirHandle,
        size: u64,
    ) -> Result<(FileHandle, Vec<IoRequest>), FsError> {
        collected(|out| self.create_into(dir, size, out))
    }

    /// Read `n_blocks` file blocks starting at block `start` of the file:
    /// metadata misses, data misses and dirty evictions go to `out`.
    /// Updates the access time (a delayed i-node write) even on read-only
    /// mounts.
    pub fn read_into(
        &mut self,
        file: FileHandle,
        start: usize,
        n_blocks: usize,
        out: &mut Vec<IoRequest>,
    ) -> Result<(), FsError> {
        let inode = self.inodes.get(file.0).ok_or(FsError::NoSuchFile)?;
        let blocks = (inode.blocks)
            .get(start..start + n_blocks)
            .ok_or(FsError::BeyondEof)?;
        let at = inode_at(&self.layout, file.0);
        let mut io = Io {
            cfg: &self.cfg,
            cache: &mut self.cache,
            inode_block_gen: &mut self.inode_block_gen,
            out,
        };
        io.fetch_inode(at);
        // Touching blocks beyond the direct pointers needs the indirect
        // block resident.
        if start + n_blocks > DIRECT_POINTERS {
            if let Some(ib) = inode.indirect {
                io.read(ib, io.cfg.spb());
            }
        }
        let (size, total) = (inode.size, inode.blocks.len());
        for (i, &b) in blocks.iter().enumerate() {
            io.read(b, io.cfg.block_sectors(size, start + i, total));
        }
        io.touch_inode(at);
        Ok(())
    }

    /// [`Self::read_into`] a fresh buffer.
    pub fn read(
        &mut self,
        file: FileHandle,
        start: usize,
        n_blocks: usize,
    ) -> Result<Vec<IoRequest>, FsError> {
        emitted(|out| self.read_into(file, start, n_blocks, out))
    }

    /// Read the whole file.
    pub fn read_file(&mut self, file: FileHandle, out: &mut Vec<IoRequest>) -> Result<(), FsError> {
        let n = self.n_file_blocks(file)?;
        self.read_into(file, 0, n, out)
    }

    /// Overwrite `n_blocks` file blocks starting at `start` (delayed
    /// writes; the data generation is bumped so payloads change).
    pub fn write(
        &mut self,
        file: FileHandle,
        start: usize,
        n_blocks: usize,
        out: &mut Vec<IoRequest>,
    ) -> Result<(), FsError> {
        if self.cfg.mode == MountMode::ReadOnly {
            return Err(FsError::ReadOnly);
        }
        let inode = self.inodes.get_mut(file.0).ok_or(FsError::NoSuchFile)?;
        if start + n_blocks > inode.blocks.len() {
            return Err(FsError::BeyondEof);
        }
        let at = inode_at(&self.layout, file.0);
        let mut io = Io {
            cfg: &self.cfg,
            cache: &mut self.cache,
            inode_block_gen: &mut self.inode_block_gen,
            out,
        };
        io.fetch_inode(at);
        for idx in start..start + n_blocks {
            inode.generations[idx] += 1;
            let tag = PayloadTag::FileData {
                ino: file.0,
                index: idx as u64,
                generation: inode.generations[idx],
            };
            let n_sectors = io.cfg.block_sectors(inode.size, idx, inode.blocks.len());
            io.data_write(inode.blocks[idx], tag, n_sectors);
        }
        io.touch_inode(at);
        Ok(())
    }

    /// Append `bytes` to a file, allocating new blocks as needed.
    pub fn append(
        &mut self,
        file: FileHandle,
        bytes: u64,
        out: &mut Vec<IoRequest>,
    ) -> Result<(), FsError> {
        if self.cfg.mode == MountMode::ReadOnly {
            return Err(FsError::ReadOnly);
        }
        let bs = u64::from(self.cfg.block_size);
        let inode = self.inodes.get_mut(file.0).ok_or(FsError::NoSuchFile)?;
        let (old_n, size) = (inode.blocks.len(), inode.size + bytes);
        let total = size.div_ceil(bs) as usize;
        if total > DIRECT_POINTERS + (self.cfg.block_size as usize / 8) {
            return Err(FsError::TooLarge);
        }
        // Allocate everything (including any new indirect block) before
        // touching anything else, rolling back on exhaustion so a failed
        // append leaks nothing and leaves the file unchanged.
        let mut prev = inode.blocks.last().copied();
        let needs_indirect = total > DIRECT_POINTERS;
        let new_indirect = needs_indirect && inode.indirect.is_none();
        for i in old_n..total + usize::from(new_indirect) {
            let Some(b) = self.alloc.alloc_block(inode.group, prev) else {
                for b in inode.blocks.drain(old_n..) {
                    self.alloc.free_block(b);
                }
                return Err(FsError::NoSpace);
            };
            if i < total {
                inode.blocks.push(b);
            } else {
                inode.indirect = Some(b);
            }
            prev = Some(b);
        }
        inode.generations.resize(total, 0);
        inode.size = size;
        let at = inode_at(&self.layout, file.0);
        let mut io = Io {
            cfg: &self.cfg,
            cache: &mut self.cache,
            inode_block_gen: &mut self.inode_block_gen,
            out,
        };
        if let Some(ib) = inode.indirect.filter(|_| needs_indirect) {
            io.dirty_meta(ib, PayloadTag::Indirect { ino: file.0 });
        }
        // Rewrite the old tail block (it grew), then write the new blocks.
        for idx in old_n.saturating_sub(1)..total {
            let tag = PayloadTag::FileData {
                ino: file.0,
                index: idx as u64,
                generation: inode.generations[idx],
            };
            io.data_write(
                inode.blocks[idx],
                tag,
                io.cfg.block_sectors(size, idx, total),
            );
        }
        io.touch_inode(at);
        Ok(())
    }

    /// Delete a file, freeing its blocks.
    pub fn delete_into(
        &mut self,
        dir: DirHandle,
        file: FileHandle,
        out: &mut Vec<IoRequest>,
    ) -> Result<(), FsError> {
        if self.cfg.mode == MountMode::ReadOnly {
            return Err(FsError::ReadOnly);
        }
        // Validate everything before any destructive step, so an error
        // leaves the file system unchanged.
        if !self.dirs.contains_key(&dir.0) {
            return Err(FsError::NoSuchDir);
        }
        let inode = self.inodes.remove(file.0).ok_or(FsError::NoSuchFile)?;
        for &b in inode.blocks.iter().chain(&inode.indirect) {
            self.cache.invalidate(b);
            self.alloc.free_block(b);
        }
        let at = inode_at(&self.layout, file.0);
        self.io(out).touch_inode(at);
        self.dirty_dir(dir.0, out)
    }

    /// [`Self::delete_into`] a fresh buffer.
    pub fn delete(&mut self, dir: DirHandle, file: FileHandle) -> Result<Vec<IoRequest>, FsError> {
        emitted(|out| self.delete_into(dir, file, out))
    }

    // ----- introspection ----------------------------------------------

    /// Number of data blocks in a file.
    pub fn n_file_blocks(&self, file: FileHandle) -> Result<usize, FsError> {
        Ok(self
            .inodes
            .get(file.0)
            .ok_or(FsError::NoSuchFile)?
            .blocks
            .len())
    }

    /// File size in bytes.
    pub fn file_size(&self, file: FileHandle) -> Result<u64, FsError> {
        Ok(self.inodes.get(file.0).ok_or(FsError::NoSuchFile)?.size)
    }

    /// Absolute FS block numbers of a file, in file order.
    pub fn file_blocks(&self, file: FileHandle) -> Result<&[u64], FsError> {
        Ok(&self.inodes.get(file.0).ok_or(FsError::NoSuchFile)?.blocks)
    }

    /// Expected payload of file block `idx`, for end-to-end verification.
    pub fn expected_payload(&self, file: FileHandle, idx: usize) -> Result<bytes::Bytes, FsError> {
        let inode = self.inodes.get(file.0).ok_or(FsError::NoSuchFile)?;
        if idx >= inode.blocks.len() {
            return Err(FsError::BeyondEof);
        }
        let n_sectors = (self.cfg).block_sectors(inode.size, idx, inode.blocks.len());
        Ok(PayloadTag::FileData {
            ino: file.0,
            index: idx as u64,
            generation: inode.generations[idx],
        }
        .bytes(n_sectors as usize * abr_disk::SECTOR_SIZE))
    }

    // ----- the update daemon -------------------------------------------

    /// Snapshot all persistent file-system state (metadata, allocation,
    /// generations — everything except the volatile buffer cache) for
    /// storage alongside a disk image, so control tools can resume a
    /// file system across process lifetimes.
    ///
    /// # Panics
    /// Panics if dirty buffers remain — `sync` (and flush the returned
    /// requests to the disk) before snapshotting, exactly like a clean
    /// unmount.
    pub fn save_state(&self) -> JsonValue {
        assert_eq!(
            self.cache.dirty_count(),
            0,
            "sync before saving file-system state (clean unmount)"
        );
        let inodes = self.inodes.live().map(|(ino, i)| (*ino, i.to_json()));
        let dirs = self.dirs.iter().map(|(&id, d)| (id, d.to_json()));
        let ipb = inodes_per_block(&self.layout);
        let gens = (self.inode_block_gen.iter().enumerate())
            .filter(|&(_, &g)| g > 0)
            .map(|(i, &g)| (self.layout.inode_block(i as u64 * ipb), g.into()));
        jsn!({
            "alloc": self.alloc.to_json(),
            "cfg": self.cfg.to_json(),
            "dirs": JsonValue::keyed_by_u64(dirs),
            "inode_block_gen": JsonValue::keyed_by_u64(gens),
            "inodes": JsonValue::keyed_by_u64(inodes),
            "layout": self.layout.to_json(),
            "next_dir_id": self.next_dir_id,
        })
    }

    /// Restore a file system from [`FileSystem::save_state`] output. The
    /// buffer cache starts cold.
    pub fn load_state(state: &JsonValue) -> Result<Self, JsonError> {
        let cfg: FsConfig = state.at("cfg")?;
        let layout: FsLayout = state.at("layout")?;
        let gens: BTreeMap<u64, u32> = state.at("inode_block_gen")?;
        let mut inode_block_gen = vec![0; inode_blocks(&layout)];
        for (block, g) in gens {
            let rank = layout.group_of_block(block).and_then(|group| {
                let within = block - layout.group_start(group);
                (within < layout.inode_blocks_per_group)
                    .then_some(group * layout.inode_blocks_per_group + within)
            });
            let rank = rank.ok_or_else(|| JsonError::new(format!("{block} is no i-node block")))?;
            inode_block_gen[rank as usize] = g;
        }
        Ok(FileSystem {
            cfg,
            layout,
            alloc: state.at("alloc")?,
            inodes: InodeTable::from_ordered(state.at("inodes")?, layout.n_inodes()),
            dirs: state.at("dirs")?,
            next_dir_id: state.at("next_dir_id")?,
            inode_block_gen,
            cache: BufferCache::new(cfg.cache_blocks),
        })
    }

    /// Flush all dirty buffers — the periodic `update` policy of §3.1:
    /// the burst of write requests goes to `out`.
    pub fn sync_into(&mut self, out: &mut Vec<IoRequest>) {
        self.cache.flush_all(|w| out.push(self.cfg.write_req(w)));
    }

    /// [`Self::sync_into`] a fresh buffer.
    pub fn sync(&mut self) -> Vec<IoRequest> {
        let mut out = Vec::new();
        self.sync_into(&mut out);
        out
    }

    /// Dirty blocks currently awaiting the next sync.
    pub fn dirty_blocks(&self) -> usize {
        self.cache.dirty_count()
    }
}

/// What `op` returns, and the requests it appended to a fresh buffer.
fn collected<T>(
    op: impl FnOnce(&mut Vec<IoRequest>) -> Result<T, FsError>,
) -> Result<(T, Vec<IoRequest>), FsError> {
    let mut out = Vec::new();
    Ok((op(&mut out)?, out))
}

/// The requests `op` appended to a fresh buffer.
fn emitted(
    op: impl FnOnce(&mut Vec<IoRequest>) -> Result<(), FsError>,
) -> Result<Vec<IoRequest>, FsError> {
    collected(op).map(|((), out)| out)
}

// ----- persisted forms (`FileSystem::save_state`, workload state) -----------

impl MountMode {
    /// Persisted form: the variant name.
    pub fn to_json(self) -> JsonValue {
        JsonValue::from(match self {
            MountMode::ReadOnly => "ReadOnly",
            MountMode::ReadWrite => "ReadWrite",
        })
    }
}

impl FromJson for MountMode {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("ReadOnly") => Ok(MountMode::ReadOnly),
            Some("ReadWrite") => Ok(MountMode::ReadWrite),
            _ => Err(JsonError::new("expected \"ReadOnly\" or \"ReadWrite\"")),
        }
    }
}

impl FsConfig {
    /// Persisted form.
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "block_size": self.block_size,
            "cache_blocks": self.cache_blocks,
            "cylinders_per_group": self.cylinders_per_group,
            "fragment_size": self.fragment_size,
            "interleave": self.interleave,
            "mode": self.mode.to_json(),
            "partition": self.partition,
            "write_through": self.write_through,
        })
    }
}

impl FromJson for FsConfig {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(FsConfig {
            partition: v.at("partition")?,
            block_size: v.at("block_size")?,
            fragment_size: v.at("fragment_size")?,
            cylinders_per_group: v.at("cylinders_per_group")?,
            interleave: v.at("interleave")?,
            cache_blocks: v.at("cache_blocks")?,
            mode: v.at("mode")?,
            write_through: v.at("write_through")?,
        })
    }
}

impl FileHandle {
    /// Persisted form: the i-node number.
    pub fn to_json(self) -> JsonValue {
        JsonValue::UInt(self.0)
    }
}

impl FromJson for FileHandle {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        u64::from_json(v).map(FileHandle)
    }
}

impl DirHandle {
    /// Persisted form: the directory id.
    pub fn to_json(self) -> JsonValue {
        JsonValue::UInt(self.0)
    }
}

impl FromJson for DirHandle {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        u64::from_json(v).map(DirHandle)
    }
}

impl Inode {
    fn to_json(&self) -> JsonValue {
        jsn!({
            "blocks": &self.blocks,
            "generations": &self.generations,
            "group": self.group,
            "indirect": self.indirect,
            "size": self.size,
        })
    }
}

impl FromJson for Inode {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(Inode {
            size: v.at("size")?,
            blocks: v.at("blocks")?,
            indirect: v.at("indirect")?,
            generations: v.at("generations")?,
            group: v.at("group")?,
        })
    }
}

impl Dir {
    fn to_json(&self) -> JsonValue {
        jsn!({
            "block": self.block,
            "generation": self.generation,
            "group": self.group,
        })
    }
}

impl FromJson for Dir {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(Dir {
            block: v.at("block")?,
            group: v.at("group")?,
            generation: v.at("generation")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_disk::disk::IoDir;

    fn small_fs(mode: MountMode) -> FileSystem {
        let cfg = FsConfig {
            cache_blocks: 64,
            mode,
            ..FsConfig::default()
        };
        // ~60 MB partition on Toshiba-like geometry.
        FileSystem::newfs(cfg, 120_000, 340)
    }

    fn rw() -> FileSystem {
        small_fs(MountMode::ReadWrite)
    }

    #[test]
    fn inode_table_matches_an_ordered_map() {
        // Number 0, a group's last and the next group's first, the
        // Fujitsu's highest, one beyond the sized index, and a spread.
        const SPECIAL: [u64; 5] = [0, 2_495, 2_496, 254_593, 254_600];
        let inode = |size| Inode {
            size,
            ..Inode::default()
        };
        let mut t = InodeTable::new(254_594);
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = abr_sim::SimRng::new(0x1_0de);
        let mut peak = 0;
        for step in 0..10_000u64 {
            let ino = match rng.below(4) {
                0 => SPECIAL[rng.index(SPECIAL.len())],
                _ => rng.below(96) * 2_651,
            };
            if rng.chance(0.55) {
                t.insert(ino, inode(step));
                oracle.insert(ino, step);
            } else {
                assert_eq!(t.remove(ino).map(|i| i.size), oracle.remove(&ino));
            }
            peak = peak.max(oracle.len());
            assert_eq!(t.len(), oracle.len());
            assert_eq!(t.get(ino).map(|i| i.size), oracle.get(&ino).copied());
            let live: BTreeMap<u64, u64> = t.live().map(|(n, i)| (*n, i.size)).collect();
            assert_eq!(live, oracle);
            assert!(t.arena.len() <= peak, "freed slots are reused");
        }
        assert!(peak > 50, "the stream keeps a population alive ({peak})");
    }

    #[test]
    fn create_defers_writes_to_sync() {
        let mut fs = rw();
        let (dir, reqs) = fs.mkdir().unwrap();
        assert!(reqs.is_empty(), "mkdir writes are delayed");
        let (_f, reqs) = fs.create(dir, 64 * 1024).unwrap();
        assert!(reqs.is_empty(), "file writes are delayed");
        assert!(fs.dirty_blocks() > 0);
        let burst = fs.sync();
        // 8 data blocks + inode block + dir block.
        assert_eq!(burst.len(), 10);
        assert!(burst.iter().all(|r| !r.dir.is_read()));
        assert_eq!(fs.dirty_blocks(), 0);
    }

    #[test]
    fn read_misses_then_hits() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 32 * 1024).unwrap();
        fs.sync();
        // Blocks are still cache-resident after creation, so first read is
        // all hits except nothing: actually creation left them resident.
        let reqs = emitted(|o| fs.read_file(f, o)).unwrap();
        assert!(reqs.iter().all(|r| !r.dir.is_read()) || reqs.is_empty());

        // Evict everything by touching many other blocks.
        let (dir2, _) = fs.mkdir().unwrap();
        for _ in 0..30 {
            fs.create(dir2, 32 * 1024).unwrap();
        }
        fs.sync();
        let reqs = emitted(|o| fs.read_file(f, o)).unwrap();
        let reads = reqs.iter().filter(|r| r.dir.is_read()).count();
        assert!(reads >= 4, "expected cold-cache reads, got {reads}");
    }

    #[test]
    fn tail_fragment_transfers_partial_block() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        // 8K + 3000 bytes: tail rounds up to 3 fragments = 3 KB = 6 sectors.
        let (_f, _) = fs.create(dir, 8192 + 3000).unwrap();
        let burst = fs.sync();
        let data_writes: Vec<u32> = burst
            .iter()
            .filter(|r| !r.dir.is_read())
            .map(|r| r.n_sectors)
            .collect();
        assert!(
            data_writes.contains(&6),
            "tail fragment write: {data_writes:?}"
        );
    }

    #[test]
    fn readonly_mount_rejects_mutation_but_updates_atime() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 8192).unwrap();
        fs.sync();
        fs.remount(MountMode::ReadOnly);
        assert_eq!(fs.create(dir, 100).unwrap_err(), FsError::ReadOnly);
        assert_eq!(
            emitted(|o| fs.write(f, 0, 1, o)).unwrap_err(),
            FsError::ReadOnly
        );
        assert_eq!(fs.mkdir().unwrap_err(), FsError::ReadOnly);
        // Reads still dirty the i-node block (atime).
        emitted(|o| fs.read_file(f, o)).unwrap();
        assert!(fs.dirty_blocks() > 0, "atime update should be pending");
        let burst = fs.sync();
        assert!(!burst.is_empty());
    }

    #[test]
    fn interleaved_file_blocks() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 4 * 8192).unwrap();
        let blocks = fs.file_blocks(f).unwrap();
        for w in blocks.windows(2) {
            assert_eq!(w[1] - w[0], 2, "interleave gap of 1 block");
        }
    }

    #[test]
    fn large_file_gets_indirect_block() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 20 * 8192).unwrap();
        assert_eq!(fs.n_file_blocks(f).unwrap(), 20);
        let burst = fs.sync();
        // 20 data + 1 indirect + inode + dir = 23.
        assert_eq!(burst.len(), 23);
    }

    #[test]
    fn append_grows_file() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 8192).unwrap();
        fs.sync();
        emitted(|o| fs.append(f, 2 * 8192, o)).unwrap();
        assert_eq!(fs.n_file_blocks(f).unwrap(), 3);
        assert_eq!(fs.file_size(f).unwrap(), 3 * 8192);
        let burst = fs.sync();
        assert!(burst.len() >= 3);
    }

    #[test]
    fn delete_frees_space() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 10 * 8192).unwrap();
        fs.sync();
        let free_before = fs.alloc.total_free();
        fs.delete(dir, f).unwrap();
        assert_eq!(fs.alloc.total_free(), free_before + 10);
        assert_eq!(
            emitted(|o| fs.read_file(f, o)).unwrap_err(),
            FsError::NoSuchFile
        );
    }

    #[test]
    fn overwrite_bumps_generation() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 8192).unwrap();
        let before = fs.expected_payload(f, 0).unwrap();
        emitted(|o| fs.write(f, 0, 1, o)).unwrap();
        let after = fs.expected_payload(f, 0).unwrap();
        assert_ne!(before, after);
    }

    #[test]
    fn files_in_different_dirs_spread_over_groups() {
        let mut fs = rw();
        let (d1, _) = fs.mkdir().unwrap();
        let (d2, _) = fs.mkdir().unwrap();
        let (f1, _) = fs.create(d1, 8192).unwrap();
        let (f2, _) = fs.create(d2, 8192).unwrap();
        let g1 = fs.layout().group_of_block(fs.file_blocks(f1).unwrap()[0]);
        let g2 = fs.layout().group_of_block(fs.file_blocks(f2).unwrap()[0]);
        assert_ne!(g1, g2, "directories should spread across groups");
    }

    #[test]
    fn eof_checks() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 2 * 8192).unwrap();
        assert_eq!(fs.read(f, 1, 2).unwrap_err(), FsError::BeyondEof);
        assert_eq!(
            emitted(|o| fs.write(f, 2, 1, o)).unwrap_err(),
            FsError::BeyondEof
        );
        assert!(fs.read(f, 1, 1).is_ok());
    }

    #[test]
    fn request_directions_are_correct() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 8192).unwrap();
        let burst = fs.sync();
        assert!(burst.iter().all(|r| matches!(r.dir, IoDir::Write)));
        // Evict by filling cache, then read.
        let (d2, _) = fs.mkdir().unwrap();
        for _ in 0..40 {
            fs.create(d2, 16 * 1024).unwrap();
        }
        fs.sync();
        let reqs = emitted(|o| fs.read_file(f, o)).unwrap();
        assert!(reqs.iter().any(|r| matches!(r.dir, IoDir::Read)));
    }

    #[test]
    fn write_through_emits_data_writes_immediately() {
        let cfg = FsConfig {
            cache_blocks: 64,
            write_through: true,
            ..FsConfig::default()
        };
        let mut fs = FileSystem::newfs(cfg, 120_000, 340);
        let (dir, _) = fs.mkdir().unwrap();
        let (f, reqs) = fs.create(dir, 3 * 8192).unwrap();
        // Data blocks go straight out; metadata stays delayed.
        let writes = reqs.iter().filter(|r| !r.dir.is_read()).count();
        assert_eq!(writes, 3, "three data blocks written through");
        assert!(fs.dirty_blocks() > 0, "inode/dir updates still pending");
        // Overwrites also write through.
        let reqs = emitted(|o| fs.write(f, 0, 2, o)).unwrap();
        assert_eq!(reqs.iter().filter(|r| !r.dir.is_read()).count(), 2);
        // Sync flushes only metadata.
        let burst = fs.sync();
        assert!(
            burst.len() <= 3,
            "sync burst {} should be metadata only",
            burst.len()
        );
    }

    #[test]
    fn cold_indirect_block_is_fetched_before_far_reads() {
        let mut fs = small_fs(MountMode::ReadWrite);
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 20 * 8192).unwrap(); // needs indirect
        fs.sync();
        // Evict everything.
        let (d2, _) = fs.mkdir().unwrap();
        for _ in 0..40 {
            fs.create(d2, 16 * 1024).unwrap();
        }
        fs.sync();
        // Reading block 15 (beyond the 12 direct pointers) must fetch
        // the indirect block too: at least inode + indirect + data reads.
        let reqs = fs.read(f, 15, 1).unwrap();
        let reads = reqs.iter().filter(|r| r.dir.is_read()).count();
        assert!(
            reads >= 3,
            "expected inode+indirect+data reads, got {reads}"
        );
    }

    #[test]
    fn exact_multiple_of_block_size_has_no_fragment() {
        let mut fs = small_fs(MountMode::ReadWrite);
        let (dir, _) = fs.mkdir().unwrap();
        fs.create(dir, 2 * 8192).unwrap();
        let burst = fs.sync();
        // All data writes are full blocks (16 sectors).
        let sizes: Vec<u32> = burst.iter().map(|r| r.n_sectors).collect();
        assert!(sizes.iter().all(|&n| n == 16), "{sizes:?}");
    }

    #[test]
    fn one_byte_file_occupies_one_fragment() {
        let mut fs = small_fs(MountMode::ReadWrite);
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 1).unwrap();
        assert_eq!(fs.n_file_blocks(f).unwrap(), 1);
        let burst = fs.sync();
        // The data write is a single fragment (2 sectors at 1 KB frags).
        assert!(
            burst.iter().any(|r| r.n_sectors == 2),
            "{:?}",
            burst.iter().map(|r| r.n_sectors).collect::<Vec<_>>()
        );
    }

    #[test]
    fn files_in_same_dir_share_inode_blocks() {
        let mut fs = small_fs(MountMode::ReadWrite);
        let (dir, _) = fs.mkdir().unwrap();
        let mut inode_writes = std::collections::HashSet::new();
        for _ in 0..8 {
            fs.create(dir, 1024).unwrap();
        }
        for r in fs.sync() {
            inode_writes.insert(r.sector_in_partition);
        }
        // 8 files + dir block + inode region: far fewer distinct blocks
        // than files, because consecutive inodes share an 8 KB block.
        assert!(
            inode_writes.len() <= 11,
            "{} distinct blocks written",
            inode_writes.len()
        );
    }

    #[test]
    fn free_space_accounting() {
        let mut fs = small_fs(MountMode::ReadWrite);
        let before = fs.free_blocks();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 10 * 8192).unwrap();
        assert_eq!(fs.free_blocks(), before - 11); // 10 data + 1 dir block
        fs.delete(dir, f).unwrap();
        assert_eq!(fs.free_blocks(), before - 1);
        assert!(fs.total_data_blocks() >= before);
    }

    #[test]
    fn state_roundtrip_resumes_cleanly() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 3 * 8192).unwrap();
        emitted(|o| fs.write(f, 1, 1, o)).unwrap();
        fs.sync();
        let free = fs.free_blocks();
        let expected = fs.expected_payload(f, 1).unwrap();

        let state = fs.save_state();
        let mut back = FileSystem::load_state(&state).unwrap();
        assert_eq!(back.free_blocks(), free);
        assert_eq!(back.n_file_blocks(f).unwrap(), 3);
        assert_eq!(back.expected_payload(f, 1).unwrap(), expected);
        // The restored fs keeps allocating without clobbering old files.
        let (g, _) = back.create(dir, 8192).unwrap();
        assert!(!back
            .file_blocks(g)
            .unwrap()
            .iter()
            .any(|b| fs.file_blocks(f).unwrap().contains(b)));
    }

    #[test]
    #[should_panic(expected = "sync before saving")]
    fn save_state_rejects_dirty_cache() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        fs.create(dir, 8192).unwrap();
        fs.save_state();
    }

    #[test]
    fn zero_byte_file() {
        let mut fs = rw();
        let (dir, _) = fs.mkdir().unwrap();
        let (f, _) = fs.create(dir, 0).unwrap();
        assert_eq!(fs.n_file_blocks(f).unwrap(), 0);
        // Reading it touches only metadata.
        let reqs = emitted(|o| fs.read_file(f, o)).unwrap();
        assert!(reqs.len() <= 2);
    }
}

//! The block table (§4.1.2).
//!
//! "When a block is copied into the reserved space, its old and new
//! physical block addresses are entered into the table. If an entry for
//! the requested block is found in the block table, its new physical
//! address is used to retrieve (or update) the data. A copy of the block
//! table is also stored on the disk (at the beginning of the reserved
//! area) ... the table also contains a dirty bit for each block entry ...
//! all blocks are marked as dirty when \[the\] memory-resident copy of the
//! table is recreated after a failure."
//!
//! The in-memory table is a pair of dense index arrays, sized by what
//! the disk can hold rather than by its address space. The forward array
//! has one cell per block-sized *bucket* of original physical sectors
//! (`orig_sector / sectors_per_block`), and each cell packs the slot, the
//! dirty bit and the start's offset within its bucket, so a lookup
//! matches the exact starting sector whatever the partition alignment:
//! one division and one array read on the request hot path. Blocks do not
//! overlap, so two starts share a bucket only in a corrupt-but-checksum-
//! valid on-disk table; the second one, like a start beyond the disk,
//! spills to an ordered map. The driver sizes the array once at attach
//! (`ceil(total_sectors / sectors_per_block)` cells: 139 KB on the
//! Toshiba MK156F, 1.06 MB on the Fujitsu M2266, where a cell per *sector*
//! grown by doubling had reached 10.4 MB). The reverse array is indexed
//! by reserved-area slot. The on-disk form is a compact binary record
//! with a checksum, written into the table region at the head of the
//! reserved area.

use crate::layout::ReservedLayout;
use std::collections::BTreeMap;

/// One block-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Reserved-area slot index holding the copy.
    pub slot: u32,
    /// Whether the copy has been written since it was placed (and so must
    /// be copied back before the slot is reused).
    pub dirty: bool,
}

/// Errors from decoding the on-disk table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// Magic mismatch — no table present.
    BadMagic,
    /// Checksum mismatch — torn or corrupt table write.
    BadChecksum,
    /// More entries than the table region can hold.
    TooLarge,
    /// Structurally valid but internally inconsistent (duplicate block or
    /// slot entries).
    Inconsistent,
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::BadMagic => write!(f, "no block table on disk (bad magic)"),
            TableError::BadChecksum => write!(f, "corrupt block table (bad checksum)"),
            TableError::TooLarge => write!(f, "block table too large for table region"),
            TableError::Inconsistent => write!(f, "inconsistent block table entries"),
        }
    }
}

impl std::error::Error for TableError {}

const TABLE_MAGIC: u64 = 0x4142_5254_4142_4c45; // "ABRTABLE"

/// Sectors per forward bucket of [`BlockTable::new`]: the 8 KB block of
/// every configuration in the tree.
const DEFAULT_BUCKET_SECTORS: u32 = 16;
/// Forward buckets a table that was not sized for a disk keeps in the
/// flat array (eight Fujitsus at 8 KB blocks); what a forged on-disk
/// table can make [`BlockTable::decode`] allocate is bounded by it.
const FWD_DENSE_BUCKETS: u64 = 1 << 20;
/// Reverse cells for slots below this index live in the flat array.
const REV_DENSE_SLOTS: u32 = 1 << 20;
/// Sentinel marking an empty cell of the reverse array; an original
/// sector of `u64::MAX` is rejected at decode time.
const ABSENT: u64 = u64::MAX;

/// Forward cell: `slot | dirty << 32 | offset in bucket << 33 | PRESENT`.
/// An empty cell is zero, so a fresh array is untouched zero pages.
const DIRTY: u64 = 1 << 32;
const OFFSET_SHIFT: u32 = 33;
const PRESENT: u64 = 1 << 63;

/// The block table: original physical block address → reserved slot.
#[derive(Debug, Clone)]
pub struct BlockTable {
    /// Sectors per forward bucket: the driver's block size.
    bucket_sectors: u64,
    /// Buckets below this index live in `fwd`; the rest spill.
    dense_buckets: u64,
    /// bucket → packed cell, zero when empty. Allocated whole by
    /// [`BlockTable::for_disk`], grown to the largest mapped bucket
    /// otherwise.
    fwd: Vec<u64>,
    /// orig sector → packed cell, for starts `fwd` cannot hold.
    fwd_spill: BTreeMap<u64, u64>,
    /// slot → orig sector, [`ABSENT`] when empty.
    rev: Vec<u64>,
    rev_spill: BTreeMap<u32, u64>,
    len: usize,
}

impl Default for BlockTable {
    fn default() -> Self {
        Self::new()
    }
}

fn pack(e: Entry) -> u64 {
    u64::from(e.slot) | if e.dirty { DIRTY } else { 0 }
}

fn unpack(cell: u64) -> Entry {
    Entry {
        slot: (cell & 0xFFFF_FFFF) as u32,
        dirty: cell & DIRTY != 0,
    }
}

impl BlockTable {
    /// An empty table over 16-sector (8 KB) buckets that allocates as it
    /// fills.
    pub fn new() -> Self {
        Self::with_buckets(DEFAULT_BUCKET_SECTORS, FWD_DENSE_BUCKETS, 0)
    }

    /// An empty table for a disk of `total_sectors` sectors rearranged in
    /// blocks of `sectors_per_block`: the forward index is allocated
    /// once, one cell per block the disk can hold.
    pub fn for_disk(sectors_per_block: u32, total_sectors: u64) -> Self {
        let buckets = total_sectors.div_ceil(u64::from(sectors_per_block));
        Self::with_buckets(sectors_per_block, buckets, buckets as usize)
    }

    fn with_buckets(bucket_sectors: u32, dense_buckets: u64, allocated: usize) -> Self {
        // A start's offset within its bucket has 30 bits of a cell.
        assert!((1..1 << 30).contains(&bucket_sectors));
        BlockTable {
            bucket_sectors: u64::from(bucket_sectors),
            dense_buckets,
            fwd: vec![0; allocated],
            fwd_spill: BTreeMap::new(),
            rev: Vec::new(),
            rev_spill: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of rearranged blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no blocks are rearranged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of heap behind the two index arrays.
    pub fn heap_bytes(&self) -> usize {
        (self.fwd.capacity() + self.rev.capacity()) * std::mem::size_of::<u64>()
    }

    /// The forward bucket of a starting sector, and what the high bits of
    /// its cell read when it is that sector's.
    fn bucket(&self, orig_sector: u64) -> (u64, u64) {
        let tag = (PRESENT >> OFFSET_SHIFT) | (orig_sector % self.bucket_sectors);
        (orig_sector / self.bucket_sectors, tag)
    }

    fn fwd_cell(&self, orig_sector: u64) -> Option<u64> {
        let (bucket, tag) = self.bucket(orig_sector);
        match self.fwd.get(bucket as usize) {
            Some(&c) if c >> OFFSET_SHIFT == tag => Some(c),
            _ => self.fwd_spill.get(&orig_sector).copied(),
        }
    }

    fn fwd_cell_mut(&mut self, orig_sector: u64) -> Option<&mut u64> {
        let (bucket, tag) = self.bucket(orig_sector);
        match self.fwd.get_mut(bucket as usize) {
            Some(c) if *c >> OFFSET_SHIFT == tag => Some(c),
            _ => self.fwd_spill.get_mut(&orig_sector),
        }
    }

    /// Store `cell` for a starting sector, returning the cell it had.
    fn fwd_put(&mut self, orig_sector: u64, cell: u64) -> Option<u64> {
        let (bucket, tag) = self.bucket(orig_sector);
        if bucket < self.dense_buckets && !self.fwd_spill.contains_key(&orig_sector) {
            let idx = bucket as usize;
            if idx >= self.fwd.len() {
                self.fwd.resize(idx + 1, 0);
            }
            let c = &mut self.fwd[idx];
            if *c == 0 || *c >> OFFSET_SHIFT == tag {
                let old = std::mem::replace(c, cell | (tag << OFFSET_SHIFT));
                return (old != 0).then_some(old);
            }
        }
        self.fwd_spill.insert(orig_sector, cell)
    }

    fn fwd_take(&mut self, orig_sector: u64) -> Option<u64> {
        let cell = std::mem::take(self.fwd_cell_mut(orig_sector)?);
        // A dense cell is empty now; a spilled one must also leave its map.
        self.fwd_spill.remove(&orig_sector);
        Some(cell)
    }

    fn rev_put(&mut self, slot: u32, orig_sector: u64) {
        if slot < REV_DENSE_SLOTS {
            let idx = slot as usize;
            if idx >= self.rev.len() {
                self.rev.resize(idx + 1, ABSENT);
            }
            self.rev[idx] = orig_sector;
        } else {
            self.rev_spill.insert(slot, orig_sector);
        }
    }

    fn rev_clear(&mut self, slot: u32) {
        if slot < REV_DENSE_SLOTS {
            if let Some(c) = self.rev.get_mut(slot as usize) {
                *c = ABSENT;
            }
        } else {
            self.rev_spill.remove(&slot);
        }
    }

    /// Look up a block by its original physical starting sector.
    pub fn lookup(&self, orig_sector: u64) -> Option<Entry> {
        self.fwd_cell(orig_sector).map(unpack)
    }

    /// The original block occupying `slot`, if any.
    pub fn occupant(&self, slot: u32) -> Option<u64> {
        if slot < REV_DENSE_SLOTS {
            match self.rev.get(slot as usize) {
                Some(&c) if c != ABSENT => Some(c),
                _ => None,
            }
        } else {
            self.rev_spill.get(&slot).copied()
        }
    }

    /// Insert a mapping (clean). Replaces any previous mapping for the
    /// same block.
    ///
    /// # Panics
    /// Panics if the slot is already occupied by a *different* block —
    /// the arranger must clean before re-copying.
    pub fn insert(&mut self, orig_sector: u64, slot: u32) {
        if let Some(occ) = self.occupant(slot) {
            assert_eq!(occ, orig_sector, "slot {slot} already occupied");
        }
        match self.fwd_put(orig_sector, pack(Entry { slot, dirty: false })) {
            Some(old) => self.rev_clear(unpack(old).slot),
            None => self.len += 1,
        }
        self.rev_put(slot, orig_sector);
    }

    /// Remove the mapping for a block, returning its entry.
    pub fn remove(&mut self, orig_sector: u64) -> Option<Entry> {
        let e = unpack(self.fwd_take(orig_sector)?);
        self.rev_clear(e.slot);
        self.len -= 1;
        Some(e)
    }

    /// Set the dirty bit for a block (called when a write is redirected
    /// into the reserved area).
    pub fn mark_dirty(&mut self, orig_sector: u64) {
        if let Some(c) = self.fwd_cell_mut(orig_sector) {
            *c |= DIRTY;
        }
    }

    /// Mark every entry dirty — the conservative recovery rule applied
    /// when the in-memory table is recreated after a failure (§4.1.2).
    pub fn mark_all_dirty(&mut self) {
        let dense = self.fwd.iter_mut().filter(|c| **c != 0);
        for c in dense.chain(self.fwd_spill.values_mut()) {
            *c |= DIRTY;
        }
    }

    /// Iterate `(orig_sector, entry)` in ascending sector order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Entry)> + '_ {
        let mut dense = self
            .fwd
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c != 0)
            .map(|(b, &c)| {
                let offset = (c & !PRESENT) >> OFFSET_SHIFT;
                (b as u64 * self.bucket_sectors + offset, unpack(c))
            })
            .peekable();
        let mut spill = self
            .fwd_spill
            .iter()
            .map(|(&s, &c)| (s, unpack(c)))
            .peekable();
        std::iter::from_fn(move || match (dense.peek(), spill.peek()) {
            (Some(d), Some(s)) if s.0 < d.0 => spill.next(),
            (None, _) => spill.next(),
            _ => dense.next(),
        })
    }

    /// All entries sorted by slot (deterministic order for cleaning).
    /// The reverse array is already slot-ordered, so this is a single
    /// in-order scan — no sort.
    pub fn entries_by_slot(&self) -> Vec<(u64, Entry)> {
        let mut v = Vec::with_capacity(self.len);
        v.extend(self.by_slot());
        v
    }

    /// The slot-ordered walk behind [`Self::entries_by_slot`] and the
    /// on-disk record, without the intermediate vector.
    fn by_slot(&self) -> impl Iterator<Item = (u64, Entry)> + '_ {
        self.rev
            .iter()
            .enumerate()
            .filter(|&(_, &orig)| orig != ABSENT)
            .map(|(slot, &orig)| (slot as u32, orig))
            .chain(self.rev_spill.iter().map(|(&s, &o)| (s, o)))
            .map(|(slot, orig)| {
                let dirty = self.fwd_cell(orig).is_some_and(|c| unpack(c).dirty);
                (orig, Entry { slot, dirty })
            })
    }

    /// Check that the forward (block → slot) and reverse (slot → block)
    /// maps are mutually inverse — the bijection the whole redirect
    /// path depends on. Sanitize builds only.
    #[cfg(feature = "sanitize")]
    pub fn check_bijection(&self) -> Result<(), String> {
        let reverse = self
            .rev
            .iter()
            .enumerate()
            .filter(|&(_, &orig)| orig != ABSENT)
            .map(|(slot, &orig)| (slot as u64, orig))
            .chain(self.rev_spill.iter().map(|(&s, &o)| (u64::from(s), o)));
        abr_sim::sanitize::check_bijection(
            self.iter().map(|(b, e)| (b, u64::from(e.slot))),
            reverse,
        )
    }

    /// Panic if the table is not a bijection. Sanitize builds only.
    #[cfg(feature = "sanitize")]
    #[track_caller]
    pub fn assert_bijection(&self) {
        if let Err(e) = self.check_bijection() {
            panic!("block table bijection violated: {e}");
        }
    }

    /// Deliberately desynchronize the reverse map — a test hook proving
    /// the sanitizer trips. Sanitize builds only.
    #[cfg(feature = "sanitize")]
    pub fn corrupt_slot_for_sanitizer_test(&mut self, slot: u32, orig_sector: u64) {
        self.rev_put(slot, orig_sector);
    }

    /// The raw on-disk record: magic, count, entries, checksum — no
    /// padding.
    fn encode_record(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.len * 17 + 8);
        buf.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        buf.extend_from_slice(&(self.len as u64).to_le_bytes());
        for (orig, e) in self.by_slot() {
            buf.extend_from_slice(&orig.to_le_bytes());
            buf.extend_from_slice(&e.slot.to_le_bytes());
            buf.extend_from_slice(&[0u8; 4]); // reserved/padding
            buf.push(u8::from(e.dirty));
        }
        let sum = fletcher64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Whether the on-disk record fits the table region of `layout`: the
    /// capacity check of [`BlockTable::encode`] and
    /// [`BlockTable::encode_region`], without the encoding.
    pub(crate) fn fits(&self, layout: &ReservedLayout) -> bool {
        16 + self.len * 17 + 8 <= layout.table_sectors as usize * abr_disk::SECTOR_SIZE
    }

    /// Serialize to the on-disk form. The result is padded to fill
    /// `layout.table_sectors` sectors exactly.
    ///
    /// Returns [`TableError::TooLarge`] if the entries do not fit.
    pub fn encode(&self, layout: &ReservedLayout) -> Result<Vec<u8>, TableError> {
        let capacity = layout.table_sectors as usize * abr_disk::SECTOR_SIZE;
        if !self.fits(layout) {
            return Err(TableError::TooLarge);
        }
        let mut buf = self.encode_record();
        buf.resize(capacity, 0);
        Ok(buf)
    }

    /// Serialize for the table region with **two redundant copies** when
    /// the region is big enough: the record is duplicated into the two
    /// sector-aligned halves of the region, so a torn write or a media
    /// error that destroys one copy still leaves the other decodable (see
    /// [`BlockTable::decode_region`]). Falls back to the single-copy
    /// [`BlockTable::encode`] layout when the record does not fit in half
    /// the region, so capacity semantics are unchanged.
    ///
    /// The output is always exactly `layout.table_sectors` sectors — the
    /// caller issues one region-sized write either way, keeping service
    /// timing identical to the single-copy format.
    pub fn encode_region(&self, layout: &ReservedLayout) -> Result<Vec<u8>, TableError> {
        let capacity = layout.table_sectors as usize * abr_disk::SECTOR_SIZE;
        let half = (layout.table_sectors as usize / 2) * abr_disk::SECTOR_SIZE;
        if !self.fits(layout) {
            return Err(TableError::TooLarge);
        }
        let record = self.encode_record();
        if layout.table_sectors < 2 || record.len() > half {
            let mut buf = record;
            buf.resize(capacity, 0);
            return Ok(buf);
        }
        let mut buf = record;
        buf.resize(half, 0);
        let copy_a = buf.clone();
        buf.extend_from_slice(&copy_a);
        buf.resize(capacity, 0);
        Ok(buf)
    }

    /// Decode a full table region, trying the redundant copies written by
    /// [`BlockTable::encode_region`]: copy A (first half), then copy B
    /// (second half), then the whole region as a legacy single-copy
    /// record. Returns the first copy that passes magic + checksum; if
    /// none does, returns the legacy decode's error.
    pub fn decode_region(bytes: &[u8]) -> Result<BlockTable, TableError> {
        let half = (bytes.len() / abr_disk::SECTOR_SIZE / 2) * abr_disk::SECTOR_SIZE;
        if half >= 24 {
            if let Ok(t) = BlockTable::decode(&bytes[..half]) {
                return Ok(t);
            }
            if let Ok(t) = BlockTable::decode(&bytes[half..]) {
                return Ok(t);
            }
        }
        BlockTable::decode(bytes)
    }

    /// Decode the on-disk form. Validates magic and checksum. Trailing
    /// bytes beyond the checksum are ignored (the region is zero-padded).
    pub fn decode(bytes: &[u8]) -> Result<BlockTable, TableError> {
        if bytes.len() < 24 {
            return Err(TableError::BadMagic);
        }
        let mut r = LeReader::new(bytes);
        if r.u64() != Some(TABLE_MAGIC) {
            return Err(TableError::BadMagic);
        }
        // The entry count is untrusted on-disk data: reject regions whose
        // claimed body would overflow or overrun the buffer *before* any
        // entry is read, so corruption surfaces as `TableError`, never a
        // panic.
        let n = r.u64().ok_or(TableError::BadMagic)?;
        let n = usize::try_from(n).map_err(|_| TableError::TooLarge)?;
        let body_end = n
            .checked_mul(17)
            .and_then(|b| b.checked_add(16))
            .ok_or(TableError::TooLarge)?;
        let (body, tail) = bytes
            .split_at_checked(body_end)
            .ok_or(TableError::TooLarge)?;
        let stored = LeReader::new(tail).u64().ok_or(TableError::TooLarge)?;
        if fletcher64(body) != stored {
            return Err(TableError::BadChecksum);
        }
        let mut t = BlockTable::new();
        for _ in 0..n {
            // An entry is the original sector, the slot, four bytes of
            // padding and the dirty flag.
            let (Some(orig), Some(slot), Some([.., dirty])) = (r.u64(), r.u32(), r.array::<5>())
            else {
                return Err(TableError::TooLarge);
            };
            // A checksum-valid table should never be inconsistent, but a
            // buggy writer must surface as an error, not a panic. An
            // original sector of u64::MAX is no real disk address and
            // collides with the reverse array's empty sentinel.
            if orig == ABSENT || t.lookup(orig).is_some() || t.occupant(slot).is_some() {
                return Err(TableError::Inconsistent);
            }
            t.insert(orig, slot);
            if dirty != 0 {
                t.mark_dirty(orig);
            }
        }
        Ok(t)
    }
}

use abr_disk::image::{fletcher64, LeReader};

#[cfg(test)]
mod tests {
    use super::*;
    use abr_disk::{models, DiskLabel};

    fn layout() -> ReservedLayout {
        let g = models::toshiba_mk156f().geometry;
        let label = DiskLabel::rearranged(g, 48);
        ReservedLayout::for_label(&label, 8192, 1020).unwrap()
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = BlockTable::new();
        t.insert(1000, 5);
        assert_eq!(
            t.lookup(1000),
            Some(Entry {
                slot: 5,
                dirty: false
            })
        );
        assert_eq!(t.occupant(5), Some(1000));
        assert_eq!(t.len(), 1);
        let e = t.remove(1000).unwrap();
        assert_eq!(e.slot, 5);
        assert!(t.is_empty());
        assert_eq!(t.occupant(5), None);
    }

    #[test]
    fn dirty_bit_lifecycle() {
        let mut t = BlockTable::new();
        t.insert(64, 0);
        assert!(!t.lookup(64).unwrap().dirty);
        t.mark_dirty(64);
        assert!(t.lookup(64).unwrap().dirty);
        // Marking an absent block is a no-op.
        t.mark_dirty(9999);
    }

    #[test]
    fn mark_all_dirty_for_recovery() {
        let mut t = BlockTable::new();
        t.insert(16, 0);
        t.insert(32, 1);
        t.mark_all_dirty();
        assert!(t.iter().all(|(_, e)| e.dirty));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn slot_conflict_panics() {
        let mut t = BlockTable::new();
        t.insert(16, 3);
        t.insert(32, 3);
    }

    #[test]
    fn reinsert_same_block_moves_slot() {
        let mut t = BlockTable::new();
        t.insert(16, 3);
        t.insert(16, 7);
        assert_eq!(t.lookup(16).unwrap().slot, 7);
        assert_eq!(t.occupant(3), None);
        assert_eq!(t.occupant(7), Some(16));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let l = layout();
        let mut t = BlockTable::new();
        for i in 0..500u64 {
            t.insert(i * 16, i as u32);
            if i % 3 == 0 {
                t.mark_dirty(i * 16);
            }
        }
        let bytes = t.encode(&l).unwrap();
        assert_eq!(bytes.len(), l.table_sectors as usize * 512);
        let back = BlockTable::decode(&bytes).unwrap();
        assert_eq!(back.len(), 500);
        for i in 0..500u64 {
            let e = back.lookup(i * 16).unwrap();
            assert_eq!(e.slot, i as u32);
            assert_eq!(e.dirty, i % 3 == 0);
        }
    }

    #[test]
    fn decode_empty_region_is_bad_magic() {
        let zeros = vec![0u8; 4096];
        assert_eq!(
            BlockTable::decode(&zeros).unwrap_err(),
            TableError::BadMagic
        );
    }

    #[test]
    fn decode_detects_corruption() {
        let l = layout();
        let mut t = BlockTable::new();
        t.insert(16, 0);
        let mut bytes = t.encode(&l).unwrap();
        bytes[20] ^= 1;
        assert_eq!(
            BlockTable::decode(&bytes).unwrap_err(),
            TableError::BadChecksum
        );
    }

    #[test]
    fn encode_rejects_overflow() {
        let g = models::toshiba_mk156f().geometry;
        let label = DiskLabel::rearranged(g, 48);
        // Deliberately tiny table region (max_entries = 1 -> 1 block).
        let l = ReservedLayout::for_label(&label, 8192, 1).unwrap();
        let mut t = BlockTable::new();
        for i in 0..1000u64 {
            t.insert(i * 16, i as u32);
        }
        assert_eq!(t.encode(&l).unwrap_err(), TableError::TooLarge);
    }

    fn tables_equal(a: &BlockTable, b: &BlockTable) -> bool {
        a.entries_by_slot() == b.entries_by_slot()
    }

    #[test]
    fn decode_rejects_truncated_entry_region() {
        let l = layout();
        let mut t = BlockTable::new();
        for i in 0..64u64 {
            t.insert(i * 16, i as u32);
        }
        let bytes = t.encode(&l).unwrap();
        // Cut the buffer inside the entry body: must be a TableError, not
        // a slice panic.
        for cut in [17usize, 24, 100, 16 + 64 * 17 + 7] {
            assert_eq!(
                BlockTable::decode(&bytes[..cut]).unwrap_err(),
                if cut < 24 {
                    TableError::BadMagic
                } else {
                    TableError::TooLarge
                },
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_absurd_entry_count() {
        // A header claiming u64::MAX entries must not overflow the length
        // arithmetic.
        let mut bytes = vec![0u8; 4096];
        bytes[0..8].copy_from_slice(&TABLE_MAGIC.to_le_bytes());
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            BlockTable::decode(&bytes).unwrap_err(),
            TableError::TooLarge
        );
    }

    #[test]
    fn bit_flip_fuzz_never_misdecodes() {
        let l = layout();
        let mut t = BlockTable::new();
        for i in 0..5u64 {
            t.insert(i * 16, i as u32);
            if i % 2 == 0 {
                t.mark_dirty(i * 16);
            }
        }
        let bytes = t.encode(&l).unwrap();
        let record_len = 16 + 5 * 17 + 8;
        // Flip every bit of the live record: decode must error or yield
        // the identical table (a flip can never silently change content).
        for byte in 0..record_len {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[byte] ^= 1 << bit;
                match BlockTable::decode(&m) {
                    Err(_) => {}
                    Ok(back) => assert!(
                        tables_equal(&t, &back),
                        "bit flip at {byte}:{bit} mis-decoded"
                    ),
                }
            }
        }
    }

    #[test]
    fn region_roundtrip_with_dual_copies() {
        let l = layout();
        let mut t = BlockTable::new();
        for i in 0..200u64 {
            t.insert(i * 16, i as u32);
        }
        let bytes = t.encode_region(&l).unwrap();
        assert_eq!(bytes.len(), l.table_sectors as usize * 512);
        let half = (l.table_sectors as usize / 2) * 512;
        assert_eq!(&bytes[..half], &bytes[half..2 * half], "copies differ");
        let back = BlockTable::decode_region(&bytes).unwrap();
        assert!(tables_equal(&t, &back));
    }

    #[test]
    fn region_survives_one_destroyed_copy() {
        let l = layout();
        let mut t = BlockTable::new();
        for i in 0..100u64 {
            t.insert(i * 16, i as u32);
        }
        let bytes = t.encode_region(&l).unwrap();
        let half = (l.table_sectors as usize / 2) * 512;

        let mut torn_a = bytes.clone();
        for b in &mut torn_a[..half] {
            *b = 0xAA;
        }
        let back = BlockTable::decode_region(&torn_a).unwrap();
        assert!(tables_equal(&t, &back), "copy B should rescue");

        let mut torn_b = bytes.clone();
        for b in &mut torn_b[half..] {
            *b = 0xAA;
        }
        let back = BlockTable::decode_region(&torn_b).unwrap();
        assert!(tables_equal(&t, &back), "copy A should rescue");

        let mut both = bytes;
        both.fill(0xAA);
        assert!(BlockTable::decode_region(&both).is_err());
    }

    #[test]
    fn legacy_single_copy_region_still_decodes() {
        let l = layout();
        let mut t = BlockTable::new();
        for i in 0..50u64 {
            t.insert(i * 16, i as u32);
        }
        let legacy = t.encode(&l).unwrap();
        let back = BlockTable::decode_region(&legacy).unwrap();
        assert!(tables_equal(&t, &back));
    }

    #[test]
    fn region_falls_back_to_single_copy_when_half_too_small() {
        let g = models::toshiba_mk156f().geometry;
        let label = DiskLabel::rearranged(g, 48);
        // max_entries = 1 -> a 1-block (16-sector) table region, so one
        // copy can use at most 8 sectors. 300 entries need ~5.1 KB: they
        // fit the full region but not half of it.
        let l = ReservedLayout::for_label(&label, 8192, 1).unwrap();
        let mut t = BlockTable::new();
        for i in 0..300u64 {
            t.insert(i * 16, i as u32);
        }
        let region = t.encode_region(&l).unwrap();
        let single = t.encode(&l).unwrap();
        assert_eq!(region, single, "must fall back to the legacy layout");
        assert!(tables_equal(
            &t,
            &BlockTable::decode_region(&region).unwrap()
        ));
    }

    #[test]
    fn paper_disks_answer_from_the_dense_index() {
        // The paper's block counts (§4.1.2), spread from sector 0 to the
        // last aligned block of each disk.
        for (model, n) in [
            (models::toshiba_mk156f(), 1_018u64),
            (models::fujitsu_m2266(), 3_500),
        ] {
            let total = model.geometry.total_sectors();
            let at = |i: u64| i * (total / 16 - 1) / (n - 1) * 16;
            assert!(at(n - 1) + 16 > total - 16, "reaches the last block");
            for mut t in [BlockTable::new(), BlockTable::for_disk(16, total)] {
                for i in 0..n {
                    t.insert(at(i), i as u32);
                    t.mark_dirty(at(i));
                }
                assert!(t.fwd_spill.is_empty(), "{}: spilled", model.name);
                for i in 0..n {
                    assert_eq!(t.lookup(at(i) + 1), None, "only the exact start");
                    let found = t.lookup(at(i));
                    assert_eq!(found.map(|e| (e.slot, e.dirty)), Some((i as u32, true)));
                    assert_eq!(t.remove(at(i)), found);
                }
                assert!(t.is_empty() && t.fwd.iter().all(|&c| c == 0));
            }
        }
    }

    #[test]
    fn two_starts_in_one_bucket_are_both_kept() {
        // Blocks do not overlap, so only a forged table holds these.
        let l = layout();
        let mut t = BlockTable::new();
        t.insert(40, 0);
        t.insert(32, 1);
        t.insert(64, 2);
        t.mark_dirty(32);
        assert_eq!(t.fwd_spill.len(), 1);
        let expect = [(32, 1, true), (40, 0, false), (64, 2, false)];
        let check = |t: &BlockTable| {
            let got: Vec<_> = t.iter().map(|(s, e)| (s, e.slot, e.dirty)).collect();
            assert_eq!(got, expect);
            for (s, slot, dirty) in expect {
                assert_eq!(t.lookup(s), Some(Entry { slot, dirty }));
            }
        };
        check(&t);
        let back = BlockTable::decode_region(&t.encode_region(&l).unwrap()).unwrap();
        check(&back);
    }

    #[test]
    fn entries_by_slot_sorted() {
        let mut t = BlockTable::new();
        t.insert(160, 9);
        t.insert(320, 2);
        t.insert(480, 5);
        let slots: Vec<u32> = t.entries_by_slot().iter().map(|(_, e)| e.slot).collect();
        assert_eq!(slots, vec![2, 5, 9]);
    }
}

//! Striping policies: how a volume's flat block address space is laid
//! out over N member disks.
//!
//! All three policies work in units of file-system *blocks* (the
//! adaptive driver rejects any request crossing a block boundary, so a
//! block is the largest unit a single request can touch). A *chunk* is
//! a run of consecutive volume blocks kept together on one disk;
//! sub-block offsets are preserved, so a request never straddles two
//! disks.
//!
//! On top of a policy, an optional [`Redundancy`] scheme carves the
//! member set into data and redundancy capacity: mirroring pairs each
//! data disk with a copy disk, and rotated parity interleaves one
//! parity chunk per stripe row across all members (the RAID-5 layout).
//!
//! The map is fully determined by `(policy, redundancy, n_disks,
//! per-disk size)` at construction — no state updates on the I/O path —
//! which is what makes array runs byte-identical across thread counts.

#![deny(clippy::cast_possible_truncation)]

use abr_sim::narrow::{u32_from_usize, usize_from_u64};
use std::ops::Deref;

/// How volume blocks are distributed over the member disks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripePolicy {
    /// Classic RAID-0: chunk `c` of the volume lives on disk
    /// `c mod N`, round-robin.
    Striped {
        /// Chunk size in file-system blocks (≥ 1).
        chunk_blocks: u64,
    },
    /// Concatenation (linear/JBOD): disk 0's blocks first, then disk
    /// 1's, and so on.
    Concat,
    /// Hash-sharded: each chunk's home disk is chosen by a fixed
    /// integer hash of its index, with linear probing onto the next
    /// disk once a disk is full. Spreads sequential runs like striping
    /// but without the rigid round-robin phase.
    HashShard {
        /// Chunk size in file-system blocks (≥ 1).
        chunk_blocks: u64,
    },
}

impl StripePolicy {
    /// Short policy name for reports and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            StripePolicy::Striped { .. } => "striped",
            StripePolicy::Concat => "concat",
            StripePolicy::HashShard { .. } => "hash",
        }
    }

    /// The chunk size in blocks (1 for concatenation, where the "chunk"
    /// is a whole disk).
    pub fn chunk_blocks(&self) -> u64 {
        match self {
            StripePolicy::Striped { chunk_blocks } | StripePolicy::HashShard { chunk_blocks } => {
                *chunk_blocks
            }
            StripePolicy::Concat => 1,
        }
    }
}

/// The redundancy scheme layered over a striping policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// No redundancy: every member disk is data, a lost block is lost.
    None,
    /// RAID-1-like mirroring: the member set splits into a data half
    /// (disks `0..N/2`, laid out by the stripe policy) and a copy half
    /// (disk `d`'s copy lives on disk `d + N/2`). Requires an even
    /// member count of at least 2.
    Mirror,
    /// RAID-5-like rotated parity: each stripe row of `N-1` data
    /// chunks carries one parity chunk, and the parity position
    /// rotates (row `r`'s parity lives on disk `r mod N`) so parity
    /// writes spread over all members. Requires 3 to 16 members and
    /// the `Striped` policy (parity rows need the rigid round-robin
    /// phase).
    RotParity,
}

impl Redundancy {
    /// Short scheme name for reports and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            Redundancy::None => "none",
            Redundancy::Mirror => "mirror",
            Redundancy::RotParity => "rotparity",
        }
    }

    /// Whether the scheme stores any redundant copies or parity.
    pub fn is_redundant(&self) -> bool {
        !matches!(self, Redundancy::None)
    }
}

/// Most members a redundancy group holds, and so a rotating-parity map.
const MAX_GROUP: usize = 16;

/// The members of a redundancy group, `(disk, disk block)` each, held
/// inline: a `Copy` value that reads as a slice, so asking for a group
/// allocates nothing. Slots past `len` stay `(0, 0)`, which keeps the
/// derived equality that of the slices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Group {
    len: usize,
    members: [(usize, u64); MAX_GROUP],
}

impl Deref for Group {
    type Target = [(usize, u64)];

    fn deref(&self) -> &[(usize, u64)] {
        &self.members[..self.len]
    }
}

impl<'a> IntoIterator for &'a Group {
    type Item = &'a (usize, u64);
    type IntoIter = std::slice::Iter<'a, (usize, u64)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl FromIterator<(usize, u64)> for Group {
    fn from_iter<I: IntoIterator<Item = (usize, u64)>>(members: I) -> Self {
        let mut group = Group::default();
        for member in members {
            group.members[group.len] = member;
            group.len += 1;
        }
        group
    }
}

impl Group {
    /// The group without `member`: the rest, whose XOR is what it holds.
    pub(crate) fn without(&self, member: (usize, u64)) -> Group {
        self.iter().copied().filter(|&m| m != member).collect()
    }
}

/// SplitMix64 finalizer — the same fixed integer hash `SimRng` uses for
/// substream derivation, reused here to shard chunks.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// A precomputed volume-to-disk address map.
///
/// For `n_disks == 1` every policy is the identity map and the volume
/// exposes the member's partition size *exactly* — including a trailing
/// partial block — so a one-disk volume is byte-identical to driving
/// the disk directly. For `n_disks > 1` the volume exposes only whole
/// chunks (each disk's tail blocks that don't fill a chunk are unused).
///
/// With redundancy the exposed capacity shrinks accordingly: mirroring
/// stripes over the data half only, and rotated parity gives up one
/// chunk per stripe row.
#[derive(Debug, Clone)]
pub struct StripeMap {
    policy: StripePolicy,
    redundancy: Redundancy,
    n_disks: usize,
    /// Disks the base stripe layout addresses: `n_disks` for
    /// `None`/`RotParity` (rotated parity touches every member), the
    /// data half for `Mirror`.
    n_data: usize,
    sectors_per_block: u64,
    per_disk_blocks: u64,
    vol_sectors: u64,
    chunk_blocks: u64,
    /// `HashShard` only: chunk index → home disk.
    shard_disk: Vec<u32>,
    /// `HashShard` only: chunk index → chunk slot on its home disk.
    shard_slot: Vec<u64>,
    /// `HashShard` only: `disk * chunks_per_disk + slot` → chunk index
    /// (the inverse of the two vectors above, for resilvering).
    shard_rev: Vec<u64>,
}

impl StripeMap {
    /// Build a redundancy-free map for `n_disks` identical members,
    /// each exposing `per_disk_sectors` sectors of partition 0.
    ///
    /// # Panics
    /// If `n_disks == 0`, the chunk size is 0, or a disk is too small
    /// to hold even one chunk.
    pub fn new(
        policy: StripePolicy,
        n_disks: usize,
        per_disk_sectors: u64,
        sectors_per_block: u32,
    ) -> Self {
        Self::new_redundant(
            policy,
            Redundancy::None,
            n_disks,
            per_disk_sectors,
            sectors_per_block,
        )
    }

    /// Build the map with an explicit redundancy scheme.
    ///
    /// # Panics
    /// On the constraints of [`Self::new`], plus: `Mirror` needs an
    /// even `n_disks >= 2`; `RotParity` needs 3 to 16 members and the
    /// `Striped` policy.
    pub fn new_redundant(
        policy: StripePolicy,
        redundancy: Redundancy,
        n_disks: usize,
        per_disk_sectors: u64,
        sectors_per_block: u32,
    ) -> Self {
        assert!(n_disks >= 1, "a volume needs at least one disk");
        let spb = u64::from(sectors_per_block);
        assert!(spb >= 1);
        let per_disk_blocks = per_disk_sectors / spb;
        let chunk_blocks = policy.chunk_blocks();
        assert!(chunk_blocks >= 1, "chunk size must be at least one block");
        let n_data = match redundancy {
            Redundancy::None | Redundancy::RotParity => n_disks,
            Redundancy::Mirror => {
                assert!(
                    n_disks >= 2 && n_disks.is_multiple_of(2),
                    "mirroring needs an even member count of at least 2, got {n_disks}"
                );
                n_disks / 2
            }
        };
        if redundancy == Redundancy::RotParity {
            assert!(
                (3..=MAX_GROUP).contains(&n_disks),
                "rotated parity needs 3 to {MAX_GROUP} members, got {n_disks}"
            );
            assert!(
                matches!(policy, StripePolicy::Striped { .. }),
                "rotated parity requires the striped policy"
            );
        }

        let mut map = StripeMap {
            policy,
            redundancy,
            n_disks,
            n_data,
            sectors_per_block: spb,
            per_disk_blocks,
            vol_sectors: 0,
            chunk_blocks,
            shard_disk: Vec::new(),
            shard_slot: Vec::new(),
            shard_rev: Vec::new(),
        };
        if redundancy == Redundancy::RotParity {
            // Each stripe row holds one chunk per member, N-1 data and
            // one parity; a row exists only if every disk has the slot.
            let rows = per_disk_blocks / chunk_blocks;
            assert!(
                rows >= 1,
                "chunk of {chunk_blocks} blocks does not fit a {per_disk_blocks}-block disk"
            );
            map.vol_sectors = rows * (n_disks as u64 - 1) * chunk_blocks * spb;
            return map;
        }
        if n_data == 1 {
            // Identity over the single data disk: expose the partition
            // exactly, trailing partial block included.
            map.vol_sectors = per_disk_sectors;
            return map;
        }
        match policy {
            StripePolicy::Concat => {
                map.vol_sectors = n_data as u64 * per_disk_blocks * spb;
            }
            StripePolicy::Striped { .. } | StripePolicy::HashShard { .. } => {
                let chunks_per_disk = per_disk_blocks / chunk_blocks;
                assert!(
                    chunks_per_disk >= 1,
                    "chunk of {chunk_blocks} blocks does not fit a {per_disk_blocks}-block disk"
                );
                let total_chunks = n_data as u64 * chunks_per_disk;
                map.vol_sectors = total_chunks * chunk_blocks * spb;
                if matches!(policy, StripePolicy::HashShard { .. }) {
                    let mut fill = vec![0u64; n_data];
                    map.shard_disk.reserve(usize_from_u64(total_chunks));
                    map.shard_slot.reserve(usize_from_u64(total_chunks));
                    map.shard_rev = vec![0u64; usize_from_u64(total_chunks)];
                    for chunk in 0..total_chunks {
                        let mut d = usize_from_u64(splitmix64(chunk) % n_data as u64);
                        while fill[d] == chunks_per_disk {
                            d = (d + 1) % n_data;
                        }
                        map.shard_disk.push(u32_from_usize(d));
                        map.shard_slot.push(fill[d]);
                        map.shard_rev
                            [d * usize_from_u64(chunks_per_disk) + usize_from_u64(fill[d])] = chunk;
                        fill[d] += 1;
                    }
                }
            }
        }
        map
    }

    /// The policy this map implements.
    pub fn policy(&self) -> StripePolicy {
        self.policy
    }

    /// The redundancy scheme layered over the policy.
    pub fn redundancy(&self) -> Redundancy {
        self.redundancy
    }

    /// Number of member disks.
    pub fn n_disks(&self) -> usize {
        self.n_disks
    }

    /// Disks the base stripe layout addresses: all members for
    /// `None`/`RotParity`, the data half for `Mirror`.
    pub fn data_disks(&self) -> usize {
        self.n_data
    }

    /// Total sectors the volume exposes.
    pub fn vol_sectors(&self) -> u64 {
        self.vol_sectors
    }

    /// Sectors per file-system block.
    pub fn sectors_per_block(&self) -> u64 {
        self.sectors_per_block
    }

    /// Mirroring only: the disk holding the other copy of everything on
    /// `disk` (an involution — data disk ↔ copy disk). The write path's
    /// view; everything that recovers asks for the [`Self::group_at`].
    ///
    /// # Panics
    /// If the map is not mirrored or `disk` is out of range.
    pub(crate) fn mirror_partner(&self, disk: usize) -> usize {
        assert_eq!(self.redundancy, Redundancy::Mirror, "not a mirrored map");
        assert!(disk < self.n_disks);
        (disk + self.n_disks / 2) % self.n_disks
    }

    /// Map a volume block index to `(disk index, disk block index)`.
    /// With mirroring this is the *primary* (data-half) location; with
    /// rotated parity it is the data chunk's home.
    pub fn map_block(&self, vblock: u64) -> (usize, u64) {
        if self.redundancy == Redundancy::RotParity {
            let chunk = vblock / self.chunk_blocks;
            let within = vblock % self.chunk_blocks;
            let data_per_row = self.n_disks as u64 - 1;
            let row = chunk / data_per_row;
            let pos = chunk % data_per_row;
            let parity = row % self.n_disks as u64;
            let disk = usize_from_u64(if pos < parity { pos } else { pos + 1 });
            return (disk, row * self.chunk_blocks + within);
        }
        if self.n_data == 1 {
            return (0, vblock);
        }
        match self.policy {
            StripePolicy::Striped { .. } => {
                let chunk = vblock / self.chunk_blocks;
                let within = vblock % self.chunk_blocks;
                let disk = usize_from_u64(chunk % self.n_data as u64);
                let slot = chunk / self.n_data as u64;
                (disk, slot * self.chunk_blocks + within)
            }
            StripePolicy::Concat => (
                usize_from_u64(vblock / self.per_disk_blocks),
                vblock % self.per_disk_blocks,
            ),
            StripePolicy::HashShard { .. } => {
                let chunk = vblock / self.chunk_blocks;
                let within = vblock % self.chunk_blocks;
                let disk = self.shard_disk[usize_from_u64(chunk)] as usize;
                let slot = self.shard_slot[usize_from_u64(chunk)];
                (disk, slot * self.chunk_blocks + within)
            }
        }
    }

    /// Rotated parity only: the `(disk, disk block)` holding the parity
    /// that covers volume block `vblock` (same within-chunk offset). The
    /// write path's view, like [`Self::mirror_partner`].
    ///
    /// # Panics
    /// If the map is not parity-redundant.
    pub(crate) fn parity_location(&self, vblock: u64) -> (usize, u64) {
        assert_eq!(self.redundancy, Redundancy::RotParity, "not a parity map");
        let within = vblock % self.chunk_blocks;
        let row = (vblock / self.chunk_blocks) / (self.n_disks as u64 - 1);
        let parity = usize_from_u64(row % self.n_disks as u64);
        (parity, row * self.chunk_blocks + within)
    }

    /// How many redundancy groups the volume has (0 without
    /// redundancy): the range of the scrub cursor.
    pub fn n_groups(&self) -> u64 {
        let vol_blocks = self.vol_sectors.div_ceil(self.sectors_per_block);
        match self.redundancy {
            Redundancy::None => 0,
            Redundancy::Mirror => vol_blocks,
            Redundancy::RotParity => vol_blocks / (self.n_disks as u64 - 1),
        }
    }

    /// Members of every redundancy group: 2 mirrored, `N` under rotated
    /// parity, 0 without redundancy. Restoring one member costs this
    /// many member operations (the others read, the one written).
    pub fn group_len(&self) -> usize {
        match self.redundancy {
            Redundancy::None => 0,
            Redundancy::Mirror => 2,
            Redundancy::RotParity => self.n_disks,
        }
    }

    /// Redundancy group `index < n_groups()`: the `(disk, disk block)`
    /// locations that protect one another. **The XOR over the members'
    /// bytes is zero** — any member is the XOR of the others — which is
    /// all that degraded reads, resilvering and scrubbing need to know
    /// about the scheme. Data members come first (a mirrored block's
    /// primary; a parity row's data blocks in volume order) and the
    /// *check* member — the copy, the parity block — is last: a
    /// mismatch is repaired by rewriting it from the data.
    ///
    /// # Panics
    /// If the map has no redundancy.
    pub fn group(&self, index: u64) -> Group {
        match self.redundancy {
            Redundancy::None => panic!("no redundancy groups"),
            Redundancy::Mirror => {
                let (disk, dblock) = self.map_block(index);
                Group::from_iter([(disk, dblock), (self.mirror_partner(disk), dblock)])
            }
            Redundancy::RotParity => {
                // One group per disk-block index: the row's data chunks
                // in position order, then its parity chunk.
                let parity = usize_from_u64(index / self.chunk_blocks % self.n_disks as u64);
                let data = (0..self.n_disks).filter(|&disk| disk != parity);
                data.chain([parity]).map(|disk| (disk, index)).collect()
            }
        }
    }

    /// The redundancy group that `(disk, dblock)` is a member of, or
    /// `None` when nothing protects it: a volume without redundancy, or
    /// a slot of the member's unused tail.
    pub fn group_at(&self, disk: usize, dblock: u64) -> Option<Group> {
        let index = match self.redundancy {
            Redundancy::None => return None,
            Redundancy::Mirror => self.vblock_at(disk % self.n_data, dblock)?,
            Redundancy::RotParity => dblock,
        };
        (index < self.n_groups()).then(|| self.group(index))
    }

    /// Inverse of [`Self::map_block`] over the base layout: the volume
    /// block whose *data* home is `(disk, dblock)`, or `None` when the
    /// slot is unused tail or holds parity. For mirrored maps the
    /// inverse is defined over the data half — pass the data disk (the
    /// copy disk's content is its partner's at the same `dblock`).
    pub fn vblock_at(&self, disk: usize, dblock: u64) -> Option<u64> {
        let spb = self.sectors_per_block;
        if self.redundancy == Redundancy::RotParity {
            let row = dblock / self.chunk_blocks;
            let within = dblock % self.chunk_blocks;
            let parity = usize_from_u64(row % self.n_disks as u64);
            if disk == parity {
                return None; // the row's parity chunk, not data
            }
            let pos = if disk < parity {
                disk as u64
            } else {
                disk as u64 - 1
            };
            let data_per_row = self.n_disks as u64 - 1;
            let vb = (row * data_per_row + pos) * self.chunk_blocks + within;
            return (vb * spb < self.vol_sectors).then_some(vb);
        }
        if disk >= self.n_data {
            return None; // a mirror copy disk — content lives at the partner
        }
        if self.n_data == 1 {
            return (dblock * spb < self.vol_sectors).then_some(dblock);
        }
        let vb = match self.policy {
            StripePolicy::Striped { .. } => {
                let slot = dblock / self.chunk_blocks;
                let within = dblock % self.chunk_blocks;
                let chunk = slot * self.n_data as u64 + disk as u64;
                chunk * self.chunk_blocks + within
            }
            StripePolicy::Concat => {
                if dblock >= self.per_disk_blocks {
                    return None;
                }
                disk as u64 * self.per_disk_blocks + dblock
            }
            StripePolicy::HashShard { .. } => {
                let chunks_per_disk = self.per_disk_blocks / self.chunk_blocks;
                let slot = dblock / self.chunk_blocks;
                let within = dblock % self.chunk_blocks;
                if slot >= chunks_per_disk {
                    return None;
                }
                let chunk =
                    self.shard_rev[disk * usize_from_u64(chunks_per_disk) + usize_from_u64(slot)];
                chunk * self.chunk_blocks + within
            }
        };
        (vb * spb < self.vol_sectors).then_some(vb)
    }

    /// Check that the map sends the volume's chunks onto the member
    /// disks' chunk slots as a permutation — every `(disk, slot)` pair
    /// hit exactly once, none out of bounds. With rotated parity the
    /// data chunks plus each row's parity chunk must jointly cover
    /// every member's rows. Sanitize builds only.
    #[cfg(feature = "sanitize")]
    pub fn check_chunk_permutation(&self) -> Result<(), String> {
        if self.redundancy == Redundancy::RotParity {
            let rows = self.per_disk_blocks / self.chunk_blocks;
            let data_per_row = self.n_disks as u64 - 1;
            let vol_chunks = rows * data_per_row;
            let data_ids = (0..vol_chunks).map(|chunk| {
                let (disk, dblock) = self.map_block(chunk * self.chunk_blocks);
                disk as u64 * rows + dblock / self.chunk_blocks
            });
            let parity_ids = (0..rows).map(|row| {
                let (disk, dblock) = self.parity_location(row * data_per_row * self.chunk_blocks);
                disk as u64 * rows + dblock / self.chunk_blocks
            });
            return abr_sim::sanitize::check_permutation(
                data_ids.chain(parity_ids),
                self.n_disks as u64 * rows,
            );
        }
        if self.n_data == 1 {
            return Ok(()); // identity by construction
        }
        let chunks_per_disk = match self.policy {
            StripePolicy::Concat => self.per_disk_blocks,
            _ => self.per_disk_blocks / self.chunk_blocks,
        };
        let vol_chunks = self.vol_sectors / (self.chunk_blocks * self.sectors_per_block);
        let ids = (0..vol_chunks).map(|chunk| {
            let (disk, dblock) = self.map_block(chunk * self.chunk_blocks);
            let slot = dblock / self.chunk_blocks;
            disk as u64 * chunks_per_disk + slot
        });
        abr_sim::sanitize::check_permutation(ids, self.n_data as u64 * chunks_per_disk)
    }

    /// Map a volume sector to `(disk index, disk sector)`. The
    /// sub-block offset is preserved, so a request that fits in one
    /// volume block lands wholly on one disk.
    pub fn map_sector(&self, vsector: u64) -> (usize, u64) {
        let (disk, dblock) = self.map_block(vsector / self.sectors_per_block);
        (
            disk,
            dblock * self.sectors_per_block + vsector % self.sectors_per_block,
        )
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "test code, not a simulated result")]
mod tests {
    use super::*;

    const SPB: u32 = 16;

    fn policies() -> Vec<StripePolicy> {
        vec![
            StripePolicy::Striped { chunk_blocks: 4 },
            StripePolicy::Striped { chunk_blocks: 1 },
            StripePolicy::Concat,
            StripePolicy::HashShard { chunk_blocks: 4 },
        ]
    }

    #[test]
    fn n1_is_the_identity_for_every_policy() {
        // 100 blocks plus a 7-sector partial tail; N=1 must expose it all.
        let per_disk = 100 * u64::from(SPB) + 7;
        for p in policies() {
            let m = StripeMap::new(p, 1, per_disk, SPB);
            assert_eq!(m.vol_sectors(), per_disk, "{p:?}");
            for v in [0, 1, 15, 16, 17, per_disk - 1] {
                assert_eq!(m.map_sector(v), (0, v), "{p:?} sector {v}");
            }
        }
    }

    #[test]
    fn every_policy_is_a_bijection_within_bounds() {
        let per_disk = 24 * u64::from(SPB);
        for p in policies() {
            for n in [2usize, 3, 4, 8] {
                let m = StripeMap::new(p, n, per_disk, SPB);
                let vol_blocks = m.vol_sectors() / u64::from(SPB);
                let mut seen = std::collections::HashSet::new();
                for vb in 0..vol_blocks {
                    let (d, db) = m.map_block(vb);
                    assert!(d < n, "{p:?} N={n}: disk {d} out of range");
                    assert!(
                        db < per_disk / u64::from(SPB),
                        "{p:?} N={n}: block {db} past end of disk"
                    );
                    assert!(seen.insert((d, db)), "{p:?} N={n}: ({d},{db}) mapped twice");
                }
            }
        }
    }

    #[test]
    fn chunks_stay_contiguous_on_one_disk() {
        let per_disk = 24 * u64::from(SPB);
        for p in policies() {
            let m = StripeMap::new(p, 4, per_disk, SPB);
            let cb = p.chunk_blocks();
            let vol_blocks = m.vol_sectors() / u64::from(SPB);
            for chunk in 0..vol_blocks / cb {
                let (d0, b0) = m.map_block(chunk * cb);
                for i in 1..cb {
                    let (d, b) = m.map_block(chunk * cb + i);
                    assert_eq!(d, d0, "{p:?}: chunk {chunk} split across disks");
                    assert_eq!(b, b0 + i, "{p:?}: chunk {chunk} not contiguous");
                }
            }
        }
    }

    #[test]
    fn striped_round_robins_across_disks() {
        let m = StripeMap::new(StripePolicy::Striped { chunk_blocks: 2 }, 3, 12 * 16, SPB);
        assert_eq!(m.map_block(0), (0, 0));
        assert_eq!(m.map_block(1), (0, 1));
        assert_eq!(m.map_block(2), (1, 0));
        assert_eq!(m.map_block(4), (2, 0));
        assert_eq!(m.map_block(6), (0, 2));
    }

    #[test]
    fn concat_fills_disks_in_order() {
        let m = StripeMap::new(StripePolicy::Concat, 2, 10 * 16, SPB);
        assert_eq!(m.map_block(0), (0, 0));
        assert_eq!(m.map_block(9), (0, 9));
        assert_eq!(m.map_block(10), (1, 0));
        assert_eq!(m.map_block(19), (1, 9));
    }

    #[test]
    fn hash_shard_balances_exactly() {
        let per_disk = 40 * u64::from(SPB);
        let m = StripeMap::new(
            StripePolicy::HashShard { chunk_blocks: 4 },
            4,
            per_disk,
            SPB,
        );
        let mut per = vec![0u64; 4];
        let vol_blocks = m.vol_sectors() / u64::from(SPB);
        for vb in (0..vol_blocks).step_by(4) {
            per[m.map_block(vb).0] += 1;
        }
        assert_eq!(per, vec![10, 10, 10, 10], "probing must fill every disk");
    }

    #[test]
    fn map_sector_preserves_sub_block_offsets() {
        let m = StripeMap::new(StripePolicy::Striped { chunk_blocks: 1 }, 2, 8 * 16, SPB);
        let (d, s) = m.map_sector(16 + 5);
        assert_eq!((d, s % u64::from(SPB)), (1, 5));
    }

    #[test]
    fn mirror_stripes_over_data_half_only() {
        let per_disk = 24 * u64::from(SPB);
        for p in policies() {
            let m = StripeMap::new_redundant(p, Redundancy::Mirror, 4, per_disk, SPB);
            assert_eq!(m.data_disks(), 2, "{p:?}");
            // Same exposed capacity as a 2-disk plain volume.
            let plain = StripeMap::new(p, 2, per_disk, SPB);
            assert_eq!(m.vol_sectors(), plain.vol_sectors(), "{p:?}");
            let vol_blocks = m.vol_sectors() / u64::from(SPB);
            for vb in 0..vol_blocks {
                let (d, db) = m.map_block(vb);
                assert!(d < 2, "{p:?}: primary on copy disk {d}");
                assert_eq!((d, db), plain.map_block(vb), "{p:?} block {vb}");
            }
        }
    }

    #[test]
    fn mirror_partner_is_an_involution() {
        let m = StripeMap::new_redundant(
            StripePolicy::Striped { chunk_blocks: 2 },
            Redundancy::Mirror,
            6,
            24 * u64::from(SPB),
            SPB,
        );
        for d in 0..6 {
            let p = m.mirror_partner(d);
            assert_ne!(p, d);
            assert_eq!(m.mirror_partner(p), d);
        }
        assert_eq!(m.mirror_partner(0), 3);
        assert_eq!(m.mirror_partner(5), 2);
    }

    #[test]
    fn mirror_of_two_is_one_data_disk_identity() {
        let per_disk = 10 * u64::from(SPB) + 3;
        let m =
            StripeMap::new_redundant(StripePolicy::Concat, Redundancy::Mirror, 2, per_disk, SPB);
        assert_eq!(m.vol_sectors(), per_disk);
        assert_eq!(m.map_sector(17), (0, 17));
        assert_eq!(m.mirror_partner(0), 1);
    }

    #[test]
    fn rotparity_rotates_parity_and_skips_it() {
        // N=3, chunk 1 block: row r parity on disk r%3, two data
        // chunks per row on the other disks in index order.
        let m = StripeMap::new_redundant(
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::RotParity,
            3,
            6 * u64::from(SPB),
            SPB,
        );
        assert_eq!(m.vol_sectors(), 12 * u64::from(SPB)); // 6 rows × 2 data
                                                          // Row 0: parity disk 0, data on 1 and 2.
        assert_eq!(m.map_block(0), (1, 0));
        assert_eq!(m.map_block(1), (2, 0));
        assert_eq!(m.parity_location(0), (0, 0));
        assert_eq!(m.parity_location(1), (0, 0));
        // Row 1: parity disk 1, data on 0 and 2.
        assert_eq!(m.map_block(2), (0, 1));
        assert_eq!(m.map_block(3), (2, 1));
        assert_eq!(m.parity_location(2), (1, 1));
        // Row 3 wraps: parity back on disk 0.
        assert_eq!(m.parity_location(6), (0, 3));
    }

    #[test]
    fn rotparity_peers_close_the_xor_group() {
        let m = StripeMap::new_redundant(
            StripePolicy::Striped { chunk_blocks: 2 },
            Redundancy::RotParity,
            4,
            16 * u64::from(SPB),
            SPB,
        );
        let vol_blocks = m.vol_sectors() / u64::from(SPB);
        for vb in 0..vol_blocks {
            let own = m.map_block(vb);
            let group = m.group_at(own.0, own.1).expect("data is protected");
            assert_eq!(group.len(), 4, "own + N-2 peers + parity");
            assert!(
                group[..3].contains(&own),
                "block {vb} missing from its group"
            );
            assert_eq!(group[3], m.parity_location(vb), "the check member is last");
            // One member per disk, all at the same row offset.
            let mut disks: Vec<usize> = group.iter().map(|&(d, _)| d).collect();
            disks.sort_unstable();
            assert_eq!(disks, vec![0, 1, 2, 3], "block {vb}");
            assert!(group.iter().all(|&(_, db)| db == own.1));
        }
    }

    #[test]
    fn rotparity_row_blocks_round_trip() {
        let m = StripeMap::new_redundant(
            StripePolicy::Striped { chunk_blocks: 2 },
            Redundancy::RotParity,
            4,
            16 * u64::from(SPB),
            SPB,
        );
        let vol_blocks = m.vol_sectors() / u64::from(SPB);
        for vb in 0..vol_blocks {
            let (d, db) = m.map_block(vb);
            let group = m.group_at(d, db).expect("data is protected");
            let (&(pd, pdb), data) = group.split_last().expect("non-empty");
            assert_eq!(m.vblock_at(pd, pdb), None, "parity slot is not data");
            let row: Vec<u64> = data
                .iter()
                .map(|&(d, db)| m.vblock_at(d, db).expect("data member"))
                .collect();
            assert!(row.is_sorted(), "data members come in volume order");
            assert!(row.contains(&vb), "block {vb} missing from its own row");
            for (&peer, &home) in row.iter().zip(data) {
                assert_eq!(m.map_block(peer), home, "row member mismatch");
            }
        }
    }

    #[test]
    fn groups_partition_the_protected_slots() {
        // 17 blocks plus a partial tail per disk: chunk 4 leaves an
        // unused tail block, and the N=2 mirror exposes the partial one.
        let per_disk = 17 * u64::from(SPB) + 5;
        let shapes = [
            (StripePolicy::Concat, Redundancy::Mirror, 2),
            (
                StripePolicy::Striped { chunk_blocks: 4 },
                Redundancy::Mirror,
                4,
            ),
            (
                StripePolicy::HashShard { chunk_blocks: 4 },
                Redundancy::Mirror,
                6,
            ),
            (
                StripePolicy::Striped { chunk_blocks: 4 },
                Redundancy::RotParity,
                3,
            ),
            (
                StripePolicy::Striped { chunk_blocks: 1 },
                Redundancy::RotParity,
                4,
            ),
        ];
        for (p, red, n) in shapes {
            let m = StripeMap::new_redundant(p, red, n, per_disk, SPB);
            let mut members = std::collections::HashSet::new();
            for index in 0..m.n_groups() {
                let group = m.group(index);
                assert_eq!(group.len(), m.group_len(), "{p:?} {red:?}");
                for &(d, db) in &group {
                    assert_eq!(m.group_at(d, db).as_ref(), Some(&group), "{red:?} N={n}");
                    assert!(
                        members.insert((d, db)),
                        "{red:?} N={n}: ({d},{db}) in two groups"
                    );
                }
                // Data first, in volume order; the check member holds none.
                let (&(cd, cdb), data) = group.split_last().expect("non-empty");
                assert!(m.vblock_at(cd, cdb).is_none());
                let vbs: Vec<_> = data.iter().map(|&(d, db)| m.vblock_at(d, db)).collect();
                assert!(vbs.iter().all(Option::is_some) && vbs.is_sorted());
            }
            // Every data block is protected; the unused tail is not.
            let protected = m.n_groups() * m.group_len() as u64;
            assert_eq!(members.len() as u64, protected);
            for vb in 0..m.vol_sectors().div_ceil(u64::from(SPB)) {
                assert!(
                    members.contains(&m.map_block(vb)),
                    "{red:?} N={n}: block {vb}"
                );
            }
            for d in 0..n {
                for db in 0..19 {
                    assert_eq!(m.group_at(d, db).is_some(), members.contains(&(d, db)));
                }
            }
        }
        let plain = StripeMap::new(StripePolicy::Concat, 2, per_disk, SPB);
        assert_eq!((plain.n_groups(), plain.group_len()), (0, 0));
        assert_eq!(plain.group_at(0, 0), None);
    }

    #[test]
    fn rotparity_is_a_bijection_over_all_members() {
        let per_disk = 24 * u64::from(SPB);
        for n in [3usize, 4, 5] {
            let m = StripeMap::new_redundant(
                StripePolicy::Striped { chunk_blocks: 4 },
                Redundancy::RotParity,
                n,
                per_disk,
                SPB,
            );
            let vol_blocks = m.vol_sectors() / u64::from(SPB);
            let mut seen = std::collections::HashSet::new();
            for vb in 0..vol_blocks {
                let (d, db) = m.map_block(vb);
                assert!(d < n);
                assert!(db < per_disk / u64::from(SPB));
                assert!(seen.insert((d, db)), "N={n}: ({d},{db}) mapped twice");
                let (pd, pdb) = m.parity_location(vb);
                assert!(pd < n);
                assert_ne!(pd, d, "parity on the data disk");
                assert_eq!(pdb, db, "parity at a different row offset");
            }
        }
    }

    #[test]
    fn vblock_at_inverts_map_block() {
        let per_disk = 24 * u64::from(SPB);
        for p in policies() {
            for n in [2usize, 3, 4] {
                let m = StripeMap::new(p, n, per_disk, SPB);
                let vol_blocks = m.vol_sectors() / u64::from(SPB);
                for vb in 0..vol_blocks {
                    let (d, db) = m.map_block(vb);
                    assert_eq!(m.vblock_at(d, db), Some(vb), "{p:?} N={n} vb={vb}");
                }
            }
        }
        // Redundant maps too; parity slots are not data.
        let m = StripeMap::new_redundant(
            StripePolicy::Striped { chunk_blocks: 2 },
            Redundancy::RotParity,
            4,
            16 * u64::from(SPB),
            SPB,
        );
        let vol_blocks = m.vol_sectors() / u64::from(SPB);
        for vb in 0..vol_blocks {
            let (d, db) = m.map_block(vb);
            assert_eq!(m.vblock_at(d, db), Some(vb));
            let (pd, pdb) = m.parity_location(vb);
            assert_eq!(m.vblock_at(pd, pdb), None, "parity slot is not data");
        }
        // Mirror: the inverse is over the data half; copy disks map to None.
        let m = StripeMap::new_redundant(
            StripePolicy::Striped { chunk_blocks: 2 },
            Redundancy::Mirror,
            4,
            per_disk,
            SPB,
        );
        let vol_blocks = m.vol_sectors() / u64::from(SPB);
        for vb in 0..vol_blocks {
            let (d, db) = m.map_block(vb);
            assert_eq!(m.vblock_at(d, db), Some(vb));
            assert_eq!(m.vblock_at(m.mirror_partner(d), db), None);
        }
    }

    #[test]
    #[should_panic(expected = "even member count")]
    fn mirror_rejects_odd_member_counts() {
        let _ = StripeMap::new_redundant(
            StripePolicy::Concat,
            Redundancy::Mirror,
            3,
            24 * u64::from(SPB),
            SPB,
        );
    }

    #[test]
    #[should_panic(expected = "striped policy")]
    fn rotparity_rejects_non_striped_policies() {
        let _ = StripeMap::new_redundant(
            StripePolicy::Concat,
            Redundancy::RotParity,
            3,
            24 * u64::from(SPB),
            SPB,
        );
    }

    #[test]
    #[should_panic(expected = "3 to 16 members")]
    fn rotparity_rejects_more_members_than_a_group_holds() {
        let _ = StripeMap::new_redundant(
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::RotParity,
            MAX_GROUP + 1,
            24 * u64::from(SPB),
            SPB,
        );
    }
}

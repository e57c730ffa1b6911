//! The UNIX-style disk label.
//!
//! §4.1.1 of the paper: "To make space for the rearranged blocks, the
//! target disk is made to look smaller than it really is by changing the
//! disk geometry information on the disk label. ... The hidden cylinders
//! implement the reserved space. ... When a target disk is initialized
//! for rearrangement, the number of the first sector and the length of
//! the reserved space are recorded in its label. During initialization a
//! special value is also recorded in the label to mark it as a
//! 'rearranged' disk."
//!
//! [`DiskLabel`] carries the physical geometry, the partition table (laid
//! out on the *virtual*, shrunken disk), and the optional [`ReservedArea`].
//! It serializes to exactly one sector with a checksum, and the driver's
//! attach routine reads it back at start-up.

use crate::geometry::Geometry;
use crate::image::LeReader;
use crate::SECTOR_SIZE;
use std::fmt;

/// Magic number identifying a valid label ("ABRL" + version).
const LABEL_MAGIC: u32 = 0x4142_524C;
/// The "special value ... to mark it as a rearranged disk".
const REARRANGED_MAGIC: u32 = 0x484F_545A; // "HOTZ"

/// Errors from label decoding and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelError {
    /// The magic number did not match — not a labelled disk.
    BadMagic,
    /// The checksum did not verify — corrupt label.
    BadChecksum,
    /// The label fields are internally inconsistent.
    Inconsistent(&'static str),
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelError::BadMagic => write!(f, "not a disk label (bad magic)"),
            LabelError::BadChecksum => write!(f, "corrupt disk label (bad checksum)"),
            LabelError::Inconsistent(what) => write!(f, "inconsistent label: {what}"),
        }
    }
}

impl std::error::Error for LabelError {}

/// A partition (logical device) on the virtual disk, in virtual sectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// First virtual sector of the partition.
    pub start_sector: u64,
    /// Length in sectors.
    pub n_sectors: u64,
}

impl Partition {
    /// Exclusive end sector.
    pub fn end_sector(&self) -> u64 {
        self.start_sector + self.n_sectors
    }

    /// Whether a virtual sector falls inside this partition.
    pub fn contains(&self, sector: u64) -> bool {
        sector >= self.start_sector && sector < self.end_sector()
    }
}

/// The reserved cylinder group hidden from the file system (§4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservedArea {
    /// First physical cylinder of the reserved region.
    pub start_cylinder: u32,
    /// Number of reserved cylinders.
    pub n_cylinders: u32,
}

impl ReservedArea {
    /// Whether a physical cylinder is inside the reserved region.
    pub fn contains_cylinder(&self, cyl: u32) -> bool {
        cyl >= self.start_cylinder && cyl < self.start_cylinder + self.n_cylinders
    }

    /// First physical sector of the reserved region.
    pub fn start_sector(&self, g: &Geometry) -> u64 {
        g.cylinder_start(self.start_cylinder)
    }

    /// Length of the reserved region in sectors.
    pub fn n_sectors(&self, g: &Geometry) -> u64 {
        u64::from(self.n_cylinders) * g.sectors_per_cylinder()
    }

    /// Centre the reserved region on the middle of a disk: `n_cylinders`
    /// reserved cylinders straddling the middle cylinder, like the paper's
    /// 48 (Toshiba) and 80 (Fujitsu) cylinder regions.
    ///
    /// # Panics
    /// Panics if the region would not fit on the disk.
    pub fn centered(g: &Geometry, n_cylinders: u32) -> ReservedArea {
        assert!(n_cylinders > 0 && n_cylinders < g.cylinders);
        let start = g.middle_cylinder().saturating_sub(n_cylinders / 2);
        let start = start.min(g.cylinders - n_cylinders);
        ReservedArea {
            start_cylinder: start,
            n_cylinders,
        }
    }

    /// Like [`ReservedArea::centered`], but nudges the start cylinder so
    /// the region's first sector is aligned to a file-system block of
    /// `sectors_per_block` sectors. This guarantees no file-system block
    /// straddles the virtual→physical mapping discontinuity at the front
    /// of the hidden region, so every block stays physically contiguous.
    ///
    /// Returns `None` if no aligned start exists (can only happen for
    /// pathological geometry/block-size combinations).
    pub fn centered_aligned(
        g: &Geometry,
        n_cylinders: u32,
        sectors_per_block: u32,
    ) -> Option<ReservedArea> {
        let centered = ReservedArea::centered(g, n_cylinders);
        let spb = u64::from(sectors_per_block);
        // Search outward from the centred start for an aligned cylinder.
        for delta in 0..g.cylinders {
            for cand in [
                centered.start_cylinder.checked_sub(delta),
                centered.start_cylinder.checked_add(delta),
            ]
            .into_iter()
            .flatten()
            {
                if cand + n_cylinders > g.cylinders {
                    continue;
                }
                if g.cylinder_start(cand).is_multiple_of(spb) {
                    return Some(ReservedArea {
                        start_cylinder: cand,
                        n_cylinders,
                    });
                }
            }
        }
        None
    }
}

/// The disk label: physical geometry, partition table, and (for a
/// rearranged disk) the reserved-area extent.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskLabel {
    /// True physical geometry of the drive.
    pub physical: Geometry,
    /// Partition table in *virtual* sectors.
    pub partitions: Vec<Partition>,
    /// Reserved area, if this disk is initialized for rearrangement.
    pub reserved: Option<ReservedArea>,
}

impl DiskLabel {
    /// A plain (non-rearranged) label with one partition covering the
    /// whole disk.
    pub fn whole_disk(physical: Geometry) -> DiskLabel {
        DiskLabel {
            physical,
            partitions: vec![Partition {
                start_sector: 0,
                n_sectors: physical.total_sectors(),
            }],
            reserved: None,
        }
    }

    /// Initialize a disk for rearrangement: hide `n_cylinders` in the
    /// middle of the disk and shrink the partition table onto the virtual
    /// disk (one partition covering all of it, which callers may re-slice).
    ///
    /// The reserved region start is block-aligned for 8 KB blocks (the
    /// paper's file-system block size); use
    /// [`DiskLabel::rearranged_aligned`] for other block sizes.
    pub fn rearranged(physical: Geometry, n_cylinders: u32) -> DiskLabel {
        DiskLabel::rearranged_aligned(physical, n_cylinders, 16)
    }

    /// [`DiskLabel::rearranged`] with an explicit file-system block size in
    /// sectors, so the reserved-region boundary lands on a block boundary.
    ///
    /// # Panics
    /// Panics if no aligned placement exists.
    pub fn rearranged_aligned(
        physical: Geometry,
        n_cylinders: u32,
        sectors_per_block: u32,
    ) -> DiskLabel {
        #[expect(clippy::expect_used, reason = "misaligned geometry is a caller error")]
        let reserved = ReservedArea::centered_aligned(&physical, n_cylinders, sectors_per_block)
            .expect("no block-aligned reserved placement exists");
        DiskLabel::with_reserved(physical, reserved)
    }

    /// Like [`DiskLabel::rearranged_aligned`] but with the reserved
    /// region at the *start* of the disk rather than the middle — for
    /// ablating the organ-pipe location choice. Cylinder 0's first
    /// sectors hold the label, so the region starts at the first
    /// block-aligned cylinder at or after cylinder 1.
    pub fn rearranged_at_edge(
        physical: Geometry,
        n_cylinders: u32,
        sectors_per_block: u32,
    ) -> DiskLabel {
        let spb = u64::from(sectors_per_block);
        #[expect(clippy::expect_used, reason = "misaligned geometry is a caller error")]
        let start = (1..physical.cylinders - n_cylinders)
            .find(|&c| physical.cylinder_start(c).is_multiple_of(spb))
            .expect("no aligned edge placement exists");
        let reserved = ReservedArea {
            start_cylinder: start,
            n_cylinders,
        };
        DiskLabel::with_reserved(physical, reserved)
    }

    /// A rearranged label hiding `reserved`, with one partition covering
    /// the whole virtual disk.
    fn with_reserved(physical: Geometry, reserved: ReservedArea) -> DiskLabel {
        let virtual_cylinders = physical.cylinders - reserved.n_cylinders;
        DiskLabel {
            physical,
            partitions: vec![Partition {
                start_sector: 0,
                n_sectors: physical.with_cylinders(virtual_cylinders).total_sectors(),
            }],
            reserved: Some(reserved),
        }
    }

    /// The geometry the file system sees: the physical disk minus any
    /// reserved cylinders.
    pub fn virtual_geometry(&self) -> Geometry {
        match self.reserved {
            Some(r) => self
                .physical
                .with_cylinders(self.physical.cylinders - r.n_cylinders),
            None => self.physical,
        }
    }

    /// Whether this label marks a rearranged disk.
    pub fn is_rearranged(&self) -> bool {
        self.reserved.is_some()
    }

    /// Map a *virtual* sector (file-system view) to the *physical*
    /// sector, skipping over the hidden reserved cylinders (Figure 2).
    ///
    /// # Panics
    /// Debug-asserts the sector is on the virtual disk.
    pub fn virtual_to_physical(&self, vsector: u64) -> u64 {
        match self.reserved {
            None => vsector,
            Some(r) => {
                debug_assert!(
                    vsector < self.virtual_geometry().total_sectors(),
                    "virtual sector off disk"
                );
                let spc = self.physical.sectors_per_cylinder();
                let boundary = u64::from(r.start_cylinder) * spc;
                if vsector < boundary {
                    vsector
                } else {
                    vsector + u64::from(r.n_cylinders) * spc
                }
            }
        }
    }

    /// Inverse of [`DiskLabel::virtual_to_physical`]; `None` if the
    /// physical sector lies inside the reserved region (it has no virtual
    /// address).
    pub fn physical_to_virtual(&self, psector: u64) -> Option<u64> {
        match self.reserved {
            None => Some(psector),
            Some(r) => {
                let spc = self.physical.sectors_per_cylinder();
                let res_start = u64::from(r.start_cylinder) * spc;
                let res_len = u64::from(r.n_cylinders) * spc;
                if psector < res_start {
                    Some(psector)
                } else if psector < res_start + res_len {
                    None
                } else {
                    Some(psector - res_len)
                }
            }
        }
    }

    /// Serialize the label into one 512-byte sector: magic, fields,
    /// checksum.
    pub fn encode(&self) -> [u8; SECTOR_SIZE] {
        let mut buf = [0u8; SECTOR_SIZE];
        let mut w = Writer::new(&mut buf);
        w.u32(LABEL_MAGIC);
        w.u32(self.physical.cylinders);
        w.u32(self.physical.tracks_per_cylinder);
        w.u32(self.physical.sectors_per_track);
        w.u32(self.physical.rpm);
        match self.reserved {
            Some(r) => {
                w.u32(REARRANGED_MAGIC);
                w.u32(r.start_cylinder);
                w.u32(r.n_cylinders);
            }
            None => {
                w.u32(0);
                w.u32(0);
                w.u32(0);
            }
        }
        w.u32(self.partitions.len() as u32);
        for p in &self.partitions {
            w.u64(p.start_sector);
            w.u64(p.n_sectors);
        }
        let end = w.pos;
        let sum = checksum(&buf[..end]);
        buf[SECTOR_SIZE - 4..].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decode and validate a label sector.
    pub fn decode(buf: &[u8; SECTOR_SIZE]) -> Result<DiskLabel, LabelError> {
        const OVERRUN: LabelError = LabelError::Inconsistent("fields overrun the sector");
        let mut r = LeReader::new(buf);
        if r.u32() != Some(LABEL_MAGIC) {
            return Err(LabelError::BadMagic);
        }
        let mut field = || r.u32().ok_or(OVERRUN);
        let physical = Geometry {
            cylinders: field()?,
            tracks_per_cylinder: field()?,
            sectors_per_track: field()?,
            rpm: field()?,
        };
        let marker = field()?;
        let start_cylinder = field()?;
        let n_cylinders = field()?;
        let reserved = if marker == REARRANGED_MAGIC {
            Some(ReservedArea {
                start_cylinder,
                n_cylinders,
            })
        } else if marker == 0 {
            None
        } else {
            return Err(LabelError::Inconsistent("unknown rearrangement marker"));
        };
        let n_parts = field()? as usize;
        if n_parts > 16 {
            return Err(LabelError::Inconsistent("too many partitions"));
        }
        let partitions = (0..n_parts)
            .map(|_| {
                Ok(Partition {
                    start_sector: r.u64().ok_or(OVERRUN)?,
                    n_sectors: r.u64().ok_or(OVERRUN)?,
                })
            })
            .collect::<Result<Vec<_>, LabelError>>()?;
        let stored = LeReader::new(&buf[SECTOR_SIZE - 4..]).u32();
        if stored != Some(checksum(&buf[..r.pos()])) {
            return Err(LabelError::BadChecksum);
        }
        let label = DiskLabel {
            physical,
            partitions,
            reserved,
        };
        label.validate()?;
        Ok(label)
    }

    /// Internal consistency checks.
    fn validate(&self) -> Result<(), LabelError> {
        if self.physical.cylinders == 0
            || self.physical.tracks_per_cylinder == 0
            || self.physical.sectors_per_track == 0
            || self.physical.rpm == 0
        {
            return Err(LabelError::Inconsistent("zero geometry field"));
        }
        if let Some(r) = self.reserved {
            if r.n_cylinders == 0 || r.start_cylinder + r.n_cylinders > self.physical.cylinders {
                return Err(LabelError::Inconsistent("reserved area off disk"));
            }
        }
        let vtotal = self.virtual_geometry().total_sectors();
        for p in &self.partitions {
            if p.end_sector() > vtotal {
                return Err(LabelError::Inconsistent("partition off virtual disk"));
            }
        }
        Ok(())
    }
}

/// Simple additive-rotate checksum (label integrity, not cryptography).
fn checksum(bytes: &[u8]) -> u32 {
    bytes
        .iter()
        .fold(0xdead_beefu32, |acc, &b| acc.rotate_left(5) ^ u32::from(b))
}

struct Writer<'a> {
    buf: &'a mut [u8],
    pos: usize,
}

impl<'a> Writer<'a> {
    fn new(buf: &'a mut [u8]) -> Self {
        Writer { buf, pos: 0 }
    }
    fn u32(&mut self, v: u32) {
        self.buf[self.pos..self.pos + 4].copy_from_slice(&v.to_le_bytes());
        self.pos += 4;
    }
    fn u64(&mut self, v: u64) {
        self.buf[self.pos..self.pos + 8].copy_from_slice(&v.to_le_bytes());
        self.pos += 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn toshiba_geom() -> Geometry {
        models::toshiba_mk156f().geometry
    }

    #[test]
    fn whole_disk_label_identity_mapping() {
        let l = DiskLabel::whole_disk(toshiba_geom());
        assert!(!l.is_rearranged());
        assert_eq!(l.virtual_to_physical(12345), 12345);
        assert_eq!(l.physical_to_virtual(12345), Some(12345));
        assert_eq!(l.virtual_geometry(), toshiba_geom());
    }

    #[test]
    fn rearranged_label_hides_cylinders() {
        // The paper's Toshiba setup: 48 reserved cylinders of 815.
        let l = DiskLabel::rearranged(toshiba_geom(), 48);
        let vg = l.virtual_geometry();
        assert_eq!(vg.cylinders, 815 - 48);
        let r = l.reserved.unwrap();
        // Centered near the middle.
        assert!(r.start_cylinder > 350 && r.start_cylinder < 420);
        // ~8 MB, ~6% of capacity (paper §5).
        let mb = r.n_sectors(&toshiba_geom()) as f64 * 512.0 / (1 << 20) as f64;
        assert!((mb - 8.0).abs() < 0.5, "reserved {mb} MB");
    }

    #[test]
    fn fujitsu_reserved_is_50mb() {
        let g = models::fujitsu_m2266().geometry;
        let l = DiskLabel::rearranged(g, 80);
        let r = l.reserved.unwrap();
        let mb = r.n_sectors(&g) as f64 * 512.0 / (1 << 20) as f64;
        assert!((mb - 50.0).abs() < 1.0, "reserved {mb} MB");
    }

    #[test]
    fn mapping_skips_reserved_region() {
        let g = toshiba_geom();
        let l = DiskLabel::rearranged(g, 48);
        let r = l.reserved.unwrap();
        let spc = g.sectors_per_cylinder();
        let boundary = u64::from(r.start_cylinder) * spc;

        // Below the reserved region: identity.
        assert_eq!(l.virtual_to_physical(boundary - 1), boundary - 1);
        // At the boundary: skips over the reserved cylinders.
        assert_eq!(l.virtual_to_physical(boundary), boundary + 48 * spc);
        // No virtual sector ever maps into the reserved region.
        let vtotal = l.virtual_geometry().total_sectors();
        for v in [0, boundary - 1, boundary, boundary + 1, vtotal - 1] {
            let p = l.virtual_to_physical(v);
            let cyl = g.cylinder_of(p);
            assert!(
                !r.contains_cylinder(cyl),
                "virtual {v} mapped into reserved"
            );
        }
    }

    #[test]
    fn physical_to_virtual_inverts() {
        let g = toshiba_geom();
        let l = DiskLabel::rearranged(g, 48);
        let vtotal = l.virtual_geometry().total_sectors();
        for v in [0u64, 1, 1000, vtotal / 2, vtotal - 1] {
            let p = l.virtual_to_physical(v);
            assert_eq!(l.physical_to_virtual(p), Some(v));
        }
        // Sectors inside the reserved region have no virtual address.
        let r = l.reserved.unwrap();
        let res_sector = r.start_sector(&g) + 5;
        assert_eq!(l.physical_to_virtual(res_sector), None);
    }

    #[test]
    fn encode_decode_roundtrip_plain() {
        let l = DiskLabel::whole_disk(toshiba_geom());
        let buf = l.encode();
        assert_eq!(DiskLabel::decode(&buf).unwrap(), l);
    }

    #[test]
    fn encode_decode_roundtrip_rearranged() {
        let mut l = DiskLabel::rearranged(models::fujitsu_m2266().geometry, 80);
        // Multiple partitions, like the paper's system + users split.
        let vtotal = l.virtual_geometry().total_sectors();
        l.partitions = vec![
            Partition {
                start_sector: 0,
                n_sectors: vtotal / 2,
            },
            Partition {
                start_sector: vtotal / 2,
                n_sectors: vtotal - vtotal / 2,
            },
        ];
        let buf = l.encode();
        assert_eq!(DiskLabel::decode(&buf).unwrap(), l);
    }

    #[test]
    fn decode_rejects_garbage() {
        let buf = [0u8; SECTOR_SIZE];
        assert_eq!(DiskLabel::decode(&buf), Err(LabelError::BadMagic));
    }

    #[test]
    fn decode_rejects_bitflip() {
        let l = DiskLabel::whole_disk(toshiba_geom());
        let mut buf = l.encode();
        buf[6] ^= 0x40;
        assert!(matches!(
            DiskLabel::decode(&buf),
            Err(LabelError::BadChecksum) | Err(LabelError::Inconsistent(_))
        ));
    }

    #[test]
    fn partition_contains() {
        let p = Partition {
            start_sector: 10,
            n_sectors: 5,
        };
        assert!(!p.contains(9));
        assert!(p.contains(10));
        assert!(p.contains(14));
        assert!(!p.contains(15));
    }

    #[test]
    fn reserved_area_centered_on_middle() {
        let g = toshiba_geom();
        let r = ReservedArea::centered(&g, 48);
        let mid = g.middle_cylinder();
        assert!(r.contains_cylinder(mid));
        // Roughly symmetric around the middle.
        let before = mid - r.start_cylinder;
        let after = (r.start_cylinder + r.n_cylinders) - mid;
        assert!(before.abs_diff(after) <= 1);
    }
}

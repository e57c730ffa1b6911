//! Disk geometry and address arithmetic.
//!
//! A SCSI disk presents itself as a flat sequence of logical sectors; the
//! paper (§4.1.1, footnote 2) relies on the standard assumption that SCSI
//! sector numbers map to physical positions in the obvious
//! cylinder-major / track-major order. [`Geometry`] owns that mapping.

#![deny(clippy::cast_possible_truncation)]

use abr_sim::{jsn, FromJson, JsonError, JsonValue};

/// Physical geometry of a disk: cylinders x tracks x sectors at a fixed
/// rotational speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of cylinders (seek positions).
    pub cylinders: u32,
    /// Tracks (recording surfaces / heads) per cylinder.
    pub tracks_per_cylinder: u32,
    /// Sectors per track.
    pub sectors_per_track: u32,
    /// Spindle speed in revolutions per minute.
    pub rpm: u32,
}

/// A decomposed sector address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorAddr {
    /// Cylinder number, `0..cylinders`.
    pub cylinder: u32,
    /// Track within the cylinder, `0..tracks_per_cylinder`.
    pub track: u32,
    /// Sector within the track, `0..sectors_per_track`.
    pub sector: u32,
}

impl Geometry {
    /// Sectors in one cylinder.
    #[inline]
    pub fn sectors_per_cylinder(&self) -> u64 {
        u64::from(self.tracks_per_cylinder) * u64::from(self.sectors_per_track)
    }

    /// Total sectors on the disk.
    #[inline]
    pub fn total_sectors(&self) -> u64 {
        u64::from(self.cylinders) * self.sectors_per_cylinder()
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_sectors() * crate::SECTOR_SIZE as u64
    }

    /// One full revolution, in microseconds.
    #[inline]
    pub fn revolution_us(&self) -> u64 {
        60_000_000 / u64::from(self.rpm)
    }

    /// Time for one sector to pass under the head, in microseconds
    /// (fractional, for accumulation).
    #[inline]
    pub fn sector_time_us(&self) -> f64 {
        self.revolution_us() as f64 / f64::from(self.sectors_per_track)
    }

    /// The cylinder containing a flat sector number.
    ///
    /// # Panics
    /// Debug-asserts the sector is on the disk.
    #[inline]
    pub fn cylinder_of(&self, sector: u64) -> u32 {
        debug_assert!(sector < self.total_sectors(), "sector off disk");
        abr_sim::narrow::u32_from_u64(sector / self.sectors_per_cylinder())
    }

    /// Decompose a flat sector number.
    #[inline]
    pub fn decompose(&self, sector: u64) -> SectorAddr {
        debug_assert!(sector < self.total_sectors(), "sector off disk");
        let spc = self.sectors_per_cylinder();
        let cylinder = abr_sim::narrow::u32_from_u64(sector / spc);
        let within = sector % spc;
        SectorAddr {
            cylinder,
            track: abr_sim::narrow::u32_from_u64(within / u64::from(self.sectors_per_track)),
            sector: abr_sim::narrow::u32_from_u64(within % u64::from(self.sectors_per_track)),
        }
    }

    /// Recompose a [`SectorAddr`] to a flat sector number.
    #[inline]
    pub fn compose(&self, addr: SectorAddr) -> u64 {
        debug_assert!(addr.cylinder < self.cylinders);
        debug_assert!(addr.track < self.tracks_per_cylinder);
        debug_assert!(addr.sector < self.sectors_per_track);
        u64::from(addr.cylinder) * self.sectors_per_cylinder()
            + u64::from(addr.track) * u64::from(self.sectors_per_track)
            + u64::from(addr.sector)
    }

    /// First sector of a cylinder.
    #[inline]
    pub fn cylinder_start(&self, cylinder: u32) -> u64 {
        u64::from(cylinder) * self.sectors_per_cylinder()
    }

    /// The middle cylinder of the disk (where the organ-pipe heuristic
    /// wants the hottest data, and where the reserved area lives).
    #[inline]
    pub fn middle_cylinder(&self) -> u32 {
        self.cylinders / 2
    }

    /// A copy of this geometry with a different cylinder count (used to
    /// present the *virtual*, smaller disk to the file system — §4.1.1).
    #[inline]
    pub fn with_cylinders(&self, cylinders: u32) -> Geometry {
        Geometry { cylinders, ..*self }
    }

    /// Persisted form (inside an image's embedded model).
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "cylinders": self.cylinders,
            "rpm": self.rpm,
            "sectors_per_track": self.sectors_per_track,
            "tracks_per_cylinder": self.tracks_per_cylinder,
        })
    }
}

impl FromJson for Geometry {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(Geometry {
            cylinders: v.at("cylinders")?,
            tracks_per_cylinder: v.at("tracks_per_cylinder")?,
            sectors_per_track: v.at("sectors_per_track")?,
            rpm: v.at("rpm")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toshiba() -> Geometry {
        Geometry {
            cylinders: 815,
            tracks_per_cylinder: 10,
            sectors_per_track: 34,
            rpm: 3600,
        }
    }

    fn fujitsu() -> Geometry {
        Geometry {
            cylinders: 1658,
            tracks_per_cylinder: 15,
            sectors_per_track: 85,
            rpm: 3600,
        }
    }

    #[test]
    fn capacities_match_table1() {
        // Table 1: Toshiba 135 MB, Fujitsu 1 GB.
        let t = toshiba().capacity_bytes() as f64 / (1 << 20) as f64;
        assert!((t - 135.0).abs() < 3.0, "Toshiba {t} MB");
        let f = fujitsu().capacity_bytes() as f64 / (1 << 30) as f64;
        assert!((f - 1.0).abs() < 0.02, "Fujitsu {f} GB");
    }

    #[test]
    fn revolution_time_at_3600_rpm() {
        assert_eq!(toshiba().revolution_us(), 16_666);
    }

    #[test]
    fn sector_time() {
        let g = toshiba();
        let t = g.sector_time_us();
        assert!((t - 16_666.0 / 34.0).abs() < 1e-9);
    }

    #[test]
    fn decompose_compose_roundtrip() {
        let g = toshiba();
        for sector in [0u64, 1, 33, 34, 339, 340, 815 * 340 - 1] {
            let addr = g.decompose(sector);
            assert_eq!(g.compose(addr), sector);
        }
    }

    #[test]
    fn decompose_known_values() {
        let g = toshiba(); // 340 sectors/cylinder
        let a = g.decompose(340 * 3 + 34 * 2 + 5);
        assert_eq!(
            a,
            SectorAddr {
                cylinder: 3,
                track: 2,
                sector: 5
            }
        );
        assert_eq!(g.cylinder_of(340 * 3), 3);
        assert_eq!(g.cylinder_start(3), 1020);
    }

    #[test]
    fn middle_cylinder_centered() {
        assert_eq!(toshiba().middle_cylinder(), 407);
        assert_eq!(fujitsu().middle_cylinder(), 829);
    }

    #[test]
    fn with_cylinders_shrinks_only_cylinders() {
        let g = toshiba().with_cylinders(767);
        assert_eq!(g.cylinders, 767);
        assert_eq!(g.sectors_per_track, 34);
        assert_eq!(g.total_sectors(), 767 * 340);
    }
}

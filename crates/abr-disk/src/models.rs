//! Disk model presets — Table 1 of the paper, verbatim.

use crate::geometry::Geometry;
use crate::seek::{LongSeek, SeekCurve, ShortSeek};
use abr_sim::{jsn, FromJson, JsonError, JsonValue, SimDuration};

/// Specification of a read-ahead track buffer (the Fujitsu M2266 has a
/// 256 KB one; the Toshiba MK156F has none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackBufferSpec {
    /// Buffer capacity in bytes.
    pub capacity_bytes: u32,
    /// Host transfer time per sector when a read hits the buffer, in
    /// microseconds. Models the SCSI bus transfer (no mechanical delay).
    pub hit_transfer_us_per_sector: u32,
}

/// A complete disk model: geometry, seek curve, fixed per-request
/// overhead, and optional track buffer.
#[derive(Debug, Clone)]
pub struct DiskModel {
    /// Human-readable model name.
    pub name: String,
    /// Physical geometry.
    pub geometry: Geometry,
    /// Measured seek-time curve (Table 1).
    pub seek: SeekCurve,
    /// Fixed per-request controller + bus overhead. Not in Table 1; chosen
    /// so that total service times land in the range the paper measures
    /// (SCSI command processing on a circa-1992 controller is 1–3 ms).
    pub overhead: SimDuration,
    /// Head/track switch time within a cylinder (settle of the active
    /// head), applied when a transfer crosses a track boundary.
    pub track_switch: SimDuration,
    /// Read-ahead track buffer, if the drive has one.
    pub track_buffer: Option<TrackBufferSpec>,
}

/// The Toshiba MK156F: 135 MB, 815 cylinders, 10 tracks/cylinder,
/// 34 sectors/track, 3600 RPM, no track buffer.
///
/// Seek curve (ms, d in cylinders):
/// `0` if `d = 0`; `6.248 + 1.393*sqrt(d) - 0.99*cbrt(d) + 0.813*ln(d)` if
/// `d < 315`; `17.503 + 0.03*d` if `d >= 315`.
pub fn toshiba_mk156f() -> DiskModel {
    DiskModel {
        name: "Toshiba MK156F".to_string(),
        geometry: Geometry {
            cylinders: 815,
            tracks_per_cylinder: 10,
            sectors_per_track: 34,
            rpm: 3600,
        },
        seek: SeekCurve {
            boundary: 315,
            short: ShortSeek {
                a: 6.248,
                b: 1.393,
                c: -0.99,
                e: 0.813,
            },
            long: LongSeek { f: 17.503, g: 0.03 },
        },
        overhead: SimDuration::from_micros(2_200),
        track_switch: SimDuration::from_micros(800),
        track_buffer: None,
    }
}

/// The Fujitsu M2266: 1 GB, 1658 cylinders, 15 tracks/cylinder,
/// 85 sectors/track, 3600 RPM, 256 KB track buffer with read-ahead.
///
/// Seek curve (ms, d in cylinders):
/// `0` if `d = 0`; `1.205 + 0.65*sqrt(d) - 0.734*cbrt(d) + 0.659*ln(d)` if
/// `d <= 225`; `7.44 + 0.0114*d` if `d > 225`.
pub fn fujitsu_m2266() -> DiskModel {
    DiskModel {
        name: "Fujitsu M2266".to_string(),
        geometry: Geometry {
            cylinders: 1658,
            tracks_per_cylinder: 15,
            sectors_per_track: 85,
            rpm: 3600,
        },
        seek: SeekCurve {
            boundary: 226,
            short: ShortSeek {
                a: 1.205,
                b: 0.65,
                c: -0.734,
                e: 0.659,
            },
            long: LongSeek { f: 7.44, g: 0.0114 },
        },
        overhead: SimDuration::from_micros(1_800),
        track_switch: SimDuration::from_micros(600),
        // 256 KB buffer; ~3 MB/s sustained SCSI-1 transfer -> ~170 us per
        // 512-byte sector.
        track_buffer: Some(TrackBufferSpec {
            capacity_bytes: 256 * 1024,
            hit_transfer_us_per_sector: 170,
        }),
    }
}

/// A tiny synthetic disk for fast unit tests: 100 cylinders, 4
/// tracks/cylinder, 16 sectors/track, 3600 RPM, no buffer, simple linear
/// seek curve (1 ms + 0.05 ms/cylinder).
pub fn tiny_test_disk() -> DiskModel {
    DiskModel {
        name: "TinyTest".to_string(),
        geometry: Geometry {
            cylinders: 100,
            tracks_per_cylinder: 4,
            sectors_per_track: 16,
            rpm: 3600,
        },
        seek: SeekCurve {
            boundary: 1, // all non-zero seeks use the linear regime
            short: ShortSeek {
                a: 0.0,
                b: 0.0,
                c: 0.0,
                e: 0.0,
            },
            long: LongSeek { f: 1.0, g: 0.05 },
        },
        overhead: SimDuration::from_micros(500),
        track_switch: SimDuration::from_micros(300),
        track_buffer: None,
    }
}

impl DiskModel {
    /// All preset models from the paper, for sweeping experiments.
    pub fn paper_models() -> Vec<DiskModel> {
        vec![toshiba_mk156f(), fujitsu_m2266()]
    }

    /// Persisted form: the model JSON embedded in a disk image.
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "geometry": self.geometry.to_json(),
            "name": self.name.as_str(),
            "overhead": self.overhead.to_json(),
            "seek": self.seek.to_json(),
            "track_buffer": self.track_buffer.map(|b| b.to_json()),
            "track_switch": self.track_switch.to_json(),
        })
    }
}

impl FromJson for DiskModel {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(DiskModel {
            name: v.at("name")?,
            geometry: v.at("geometry")?,
            seek: v.at("seek")?,
            overhead: v.at("overhead")?,
            track_switch: v.at("track_switch")?,
            track_buffer: v.at("track_buffer")?,
        })
    }
}

impl TrackBufferSpec {
    /// Persisted form.
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "capacity_bytes": self.capacity_bytes,
            "hit_transfer_us_per_sector": self.hit_transfer_us_per_sector,
        })
    }
}

impl FromJson for TrackBufferSpec {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(TrackBufferSpec {
            capacity_bytes: v.at("capacity_bytes")?,
            hit_transfer_us_per_sector: v.at("hit_transfer_us_per_sector")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1_geometry() {
        let t = toshiba_mk156f();
        assert_eq!(t.geometry.cylinders, 815);
        assert_eq!(t.geometry.tracks_per_cylinder, 10);
        assert_eq!(t.geometry.sectors_per_track, 34);
        assert_eq!(t.geometry.rpm, 3600);
        assert!(t.track_buffer.is_none());

        let f = fujitsu_m2266();
        assert_eq!(f.geometry.cylinders, 1658);
        assert_eq!(f.geometry.tracks_per_cylinder, 15);
        assert_eq!(f.geometry.sectors_per_track, 85);
        assert_eq!(f.geometry.rpm, 3600);
        assert_eq!(f.track_buffer.unwrap().capacity_bytes, 256 * 1024);
    }

    #[test]
    fn paper_models_are_both_presets() {
        let ms = DiskModel::paper_models();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].name, "Toshiba MK156F");
        assert_eq!(ms[1].name, "Fujitsu M2266");
    }

    #[test]
    fn tiny_disk_is_small() {
        let d = tiny_test_disk();
        assert_eq!(d.geometry.total_sectors(), 100 * 4 * 16);
        assert_eq!(d.seek.time_ms(10), 1.5);
    }
}

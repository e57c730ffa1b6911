//! Disk image persistence.
//!
//! Saves a [`Disk`]'s full state — model, head position, and every
//! written sector — to a single file, so the `abrctl` control programs
//! (and tests) can operate on a disk across process lifetimes, the way
//! the paper's user-level programs operated on a real drive across
//! reboots.
//!
//! Format (little-endian): magic, version, JSON-encoded model length +
//! bytes, head cylinder, sector count, then `(sector_index, 512 bytes)`
//! records, and a trailing Fletcher-64 checksum over everything before
//! it.

use crate::disk::Disk;
use crate::models::DiskModel;
use crate::SECTOR_SIZE;
use abr_sim::{FromJson, JsonError, JsonValue};
use std::io::{self, Read, Write};

const IMAGE_MAGIC: u64 = 0x4142_5244_4953_4b31; // "ABRDISK1"

/// Errors from image encoding/decoding.
#[derive(Debug)]
pub enum ImageError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not an image file (bad magic or version).
    BadFormat,
    /// Corrupt image (checksum mismatch).
    BadChecksum,
    /// The embedded model failed to parse.
    BadModel(JsonError),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Io(e) => write!(f, "i/o: {e}"),
            ImageError::BadFormat => write!(f, "not a disk image"),
            ImageError::BadChecksum => write!(f, "corrupt disk image"),
            ImageError::BadModel(e) => write!(f, "bad embedded disk model: {e}"),
        }
    }
}

impl std::error::Error for ImageError {}

impl From<io::Error> for ImageError {
    fn from(e: io::Error) -> Self {
        ImageError::Io(e)
    }
}

/// Serialize a disk to a writer.
pub fn save<W: Write>(disk: &Disk, mut w: W) -> Result<(), ImageError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&IMAGE_MAGIC.to_le_bytes());
    let model_json = disk.model().to_json().to_string();
    buf.extend_from_slice(&(model_json.len() as u64).to_le_bytes());
    buf.extend_from_slice(model_json.as_bytes());
    buf.extend_from_slice(&u64::from(disk.head_cylinder()).to_le_bytes());

    // Collect written sectors in ascending order for a canonical image.
    let total = disk.geometry().total_sectors();
    let mut sectors: Vec<u64> = Vec::new();
    // The store is sparse; walk it via its public probe (read each written
    // sector). To stay O(written) rather than O(disk), the store exposes
    // its indices.
    for idx in disk.store().written_indices() {
        sectors.push(idx);
    }
    sectors.sort_unstable();
    sectors.dedup();
    buf.extend_from_slice(&(sectors.len() as u64).to_le_bytes());
    for s in sectors {
        debug_assert!(s < total);
        buf.extend_from_slice(&s.to_le_bytes());
        buf.extend_from_slice(&disk.store().read_sector(s));
    }
    let sum = fletcher64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    w.write_all(&buf)?;
    Ok(())
}

/// Deserialize a disk from a reader.
pub fn load<R: Read>(mut r: R) -> Result<Disk, ImageError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    if buf.len() < 8 + 8 + 8 {
        return Err(ImageError::BadFormat);
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    if LeReader::new(tail).u64() != Some(fletcher64(body)) {
        return Err(ImageError::BadChecksum);
    }
    let mut r = LeReader::new(body);
    if r.u64() != Some(IMAGE_MAGIC) {
        return Err(ImageError::BadFormat);
    }
    let model_len = r.u64().ok_or(ImageError::BadFormat)?;
    let model_json = usize::try_from(model_len)
        .ok()
        .and_then(|len| r.take(len))
        .ok_or(ImageError::BadFormat)?;
    let model = std::str::from_utf8(model_json)
        .map_err(|_| JsonError::new("model is not UTF-8"))
        .and_then(JsonValue::parse)
        .and_then(|v| DiskModel::from_json(&v))
        .map_err(ImageError::BadModel)?;
    let head = r.u64().ok_or(ImageError::BadFormat)? as u32;
    let n_sectors = r.u64().ok_or(ImageError::BadFormat)? as usize;

    let mut disk = Disk::new(model);
    for _ in 0..n_sectors {
        let idx = r.u64().ok_or(ImageError::BadFormat)?;
        let sector = r.take(SECTOR_SIZE).ok_or(ImageError::BadFormat)?;
        disk.store_mut().write(idx, sector);
    }
    disk.set_head_cylinder(head.min(disk.geometry().cylinders - 1));
    Ok(disk)
}

/// A bounds-checked little-endian cursor over on-disk bytes, the one
/// reader of the three decoders (disk image, disk label, the driver's
/// block table). A read past the end returns `None` and leaves the
/// cursor where it was; the caller maps that to its own error.
#[derive(Debug)]
pub struct LeReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> LeReader<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        LeReader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let bytes = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(bytes)
    }

    /// The next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let array = *self.bytes.get(self.pos..)?.first_chunk::<N>()?;
        self.pos += N;
        Some(array)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }
}

/// Fletcher-style 64-bit checksum over a byte slice (used for the disk
/// image format and the on-disk block table).
pub fn fletcher64(bytes: &[u8]) -> u64 {
    let (mut a, mut b) = (0u64, 0u64);
    for chunk in bytes.chunks(4) {
        let mut w = [0u8; 4];
        w[..chunk.len()].copy_from_slice(chunk);
        a = a.wrapping_add(u64::from(u32::from_le_bytes(w)));
        b = b.wrapping_add(a);
    }
    (b << 32) | (a & 0xffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::IoDir;
    use crate::models;
    use abr_sim::SimTime;

    #[test]
    fn roundtrip_preserves_data_and_head() {
        let mut d = Disk::new(models::tiny_test_disk());
        d.store_mut().write(5, &[0xAA; SECTOR_SIZE]);
        d.store_mut().write(99, &[0xBB; SECTOR_SIZE * 2]);
        d.service(IoDir::Read, 640, 1, SimTime::ZERO); // moves head to cyl 10

        let mut img = Vec::new();
        save(&d, &mut img).unwrap();
        let back = load(&img[..]).unwrap();
        assert_eq!(back.head_cylinder(), 10);
        assert_eq!(back.store().read_sector(5), [0xAA; SECTOR_SIZE]);
        assert_eq!(back.store().read_sector(99), [0xBB; SECTOR_SIZE]);
        assert_eq!(back.store().read_sector(100), [0xBB; SECTOR_SIZE]);
        assert!(back.store().read_sector(7).iter().all(|&b| b == 0));
        assert_eq!(back.model().name, "TinyTest");
    }

    #[test]
    fn corruption_detected() {
        let d = Disk::new(models::tiny_test_disk());
        let mut img = Vec::new();
        save(&d, &mut img).unwrap();
        let mid = img.len() / 2;
        img[mid] ^= 0x01;
        assert!(matches!(
            load(&img[..]),
            Err(ImageError::BadChecksum) | Err(ImageError::BadFormat)
        ));
    }

    #[test]
    fn garbage_rejected() {
        assert!(matches!(
            load(&b"not an image"[..]),
            Err(ImageError::BadFormat)
        ));
    }

    /// A checksum-valid image holding `model` under a `model_len` header,
    /// head at cylinder 0 and no sectors.
    fn image_with_model(model: &str, model_len: u64) -> Vec<u8> {
        let mut buf = IMAGE_MAGIC.to_le_bytes().to_vec();
        buf.extend_from_slice(&model_len.to_le_bytes());
        buf.extend_from_slice(model.as_bytes());
        buf.extend_from_slice(&[0; 16]);
        let sum = fletcher64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    #[test]
    fn a_bad_embedded_model_is_an_error_not_a_panic() {
        let good = models::tiny_test_disk().to_json().to_string();
        assert!(load(&image_with_model(&good, good.len() as u64)[..]).is_ok());
        let missing = good.replace("\"rpm\":3600,", "");
        assert_ne!(missing, good);
        for model in [&good[..good.len() - 1], "{not json", &missing] {
            let img = image_with_model(model, model.len() as u64);
            assert!(
                matches!(load(&img[..]), Err(ImageError::BadModel(_))),
                "{model}"
            );
        }
        let Err(e) = load(&image_with_model(&missing, missing.len() as u64)[..]) else {
            panic!("a model without rpm loaded");
        };
        assert!(e.to_string().contains("`rpm`"), "{e}");
    }

    #[test]
    fn a_model_length_past_the_body_is_bad_format() {
        let good = models::tiny_test_disk().to_json().to_string();
        for len in [good.len() as u64 + 17, u64::MAX] {
            assert!(matches!(
                load(&image_with_model(&good, len)[..]),
                Err(ImageError::BadFormat)
            ));
        }
    }

    #[test]
    fn empty_disk_roundtrips() {
        let d = Disk::new(models::fujitsu_m2266());
        let mut img = Vec::new();
        save(&d, &mut img).unwrap();
        let back = load(&img[..]).unwrap();
        assert_eq!(back.store().written_sectors(), 0);
        assert_eq!(back.model().name, "Fujitsu M2266");
    }

    #[test]
    fn le_reader_refuses_reads_past_the_end_and_stays_put() {
        let bytes = [1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0];
        let mut r = LeReader::new(&bytes);
        assert_eq!(r.u32(), Some(1));
        assert_eq!(r.u64(), None);
        assert_eq!(r.take(usize::MAX), None);
        assert_eq!(r.pos(), 4);
        assert_eq!(r.u32(), Some(2));
        assert_eq!(r.array::<3>(), Some([0; 3]));
        assert_eq!((r.u32(), r.take(1), r.pos()), (None, None, 11));
        assert_eq!(r.take(0), Some(&[][..]));
    }
}

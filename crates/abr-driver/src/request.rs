//! I/O request types and block addressing.
//!
//! The file system calls the driver's strategy routine with a logical
//! device (partition) number and a logical block address within it
//! (§3.2). The driver translates that to a *virtual* disk sector, then to
//! a *physical* sector (skipping the hidden reserved cylinders), then —
//! if the block has been rearranged — to its reserved-area copy.

pub use abr_disk::disk::IoDir;
use abr_disk::store::{Form, Run};
use abr_disk::SECTOR_SIZE;
use abr_sim::SimTime;
use std::sync::Arc;

/// Opaque identifier of a submitted request, unique within one driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// What a write carries. A read carries [`Payload::Zeroes`].
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Zero-filled sectors: nothing to carry, nothing to store.
    Zeroes,
    /// The deterministic stream of this generator seed, synthesized
    /// only if something reads it back (see [`fill_seeded_payload`]):
    /// the request carries 8 bytes instead of a materialized block.
    Seeded(u64),
    /// Literal bytes, `n_sectors * SECTOR_SIZE` of them.
    Bytes(Arc<[u8]>),
    /// [`Run`]s of sector forms, `n_sectors` in all — what the array
    /// layer's computed payloads (parity, reconstruction) are.
    Runs(Arc<[Run]>),
}

/// A block-device request as the file system hands it to `strategy`.
#[derive(Debug, Clone, PartialEq)]
pub struct IoRequest {
    /// Read or write.
    pub dir: IoDir,
    /// Partition (logical device) index in the disk label.
    pub partition: usize,
    /// Starting sector *within the partition* (the FS addresses the
    /// partition as a flat array; fragments make sub-block offsets legal).
    pub sector_in_partition: u64,
    /// Transfer length in sectors. Must not cross a file-system block
    /// boundary (the FS never asks for more than one block per request;
    /// larger raw requests are split by [`crate::physio`]).
    pub n_sectors: u32,
    /// What a write stores, applied per sector at the moment it hits
    /// the media.
    pub payload: Payload,
}

/// Synthesize the deterministic payload stream for `seed` into `buf`
/// (the same stream for the same seed, regardless of buffer length).
///
/// The stream is counter-based ([`abr_disk::store::fill_seeded`]), so a
/// torn-write prefix of the buffer equals the same-length prefix of the
/// stream, and the store can hold seeded sectors lazily as `(seed, word)`
/// markers.
///
/// # Panics
/// Panics if `buf.len()` is not a multiple of 8.
pub fn fill_seeded_payload(seed: u64, buf: &mut [u8]) {
    abr_disk::store::fill_seeded(seed, 0, buf);
}

impl IoRequest {
    /// A read request.
    pub fn read(partition: usize, sector_in_partition: u64, n_sectors: u32) -> Self {
        IoRequest {
            dir: IoDir::Read,
            ..Self::write_zeroes(partition, sector_in_partition, n_sectors)
        }
    }

    fn write_of(
        partition: usize,
        sector_in_partition: u64,
        n_sectors: u32,
        payload: Payload,
    ) -> Self {
        IoRequest {
            dir: IoDir::Write,
            partition,
            sector_in_partition,
            n_sectors,
            payload,
        }
    }

    /// A write request carrying data.
    ///
    /// # Panics
    /// Panics if the payload length does not match `n_sectors`.
    pub fn write(
        partition: usize,
        sector_in_partition: u64,
        n_sectors: u32,
        data: Arc<[u8]>,
    ) -> Self {
        assert_eq!(
            data.len(),
            n_sectors as usize * SECTOR_SIZE,
            "write payload does not match transfer length"
        );
        let payload = Payload::Bytes(data);
        Self::write_of(partition, sector_in_partition, n_sectors, payload)
    }

    /// A write whose payload is synthesized from `seed` only when
    /// something reads it back: the hot submit→dispatch path carries no
    /// block-sized allocation at all.
    pub fn write_seeded(
        partition: usize,
        sector_in_partition: u64,
        n_sectors: u32,
        seed: u64,
    ) -> Self {
        let payload = Payload::Seeded(seed);
        Self::write_of(partition, sector_in_partition, n_sectors, payload)
    }

    /// A write of zero-filled sectors (raw transfers, trace replay,
    /// formatting).
    pub fn write_zeroes(partition: usize, sector_in_partition: u64, n_sectors: u32) -> Self {
        Self::write_of(partition, sector_in_partition, n_sectors, Payload::Zeroes)
    }

    /// A write of `runs`, back to back.
    pub fn write_runs(partition: usize, sector_in_partition: u64, runs: Arc<[Run]>) -> Self {
        let n_sectors = Run::sectors(&runs);
        let payload = Payload::Runs(runs);
        Self::write_of(partition, sector_in_partition, n_sectors, payload)
    }

    /// The payload as runs (raw bytes stay bytes, a run per sector;
    /// nothing is synthesized). A run payload is shared, not copied.
    #[expect(clippy::expect_used, reason = "length checked by IoRequest::write")]
    pub fn payload_runs(&self) -> Arc<[Run]> {
        let whole = |base| {
            Arc::from([Run {
                base,
                len: self.n_sectors,
            }])
        };
        match &self.payload {
            Payload::Zeroes => whole(Form::Zero),
            &Payload::Seeded(seed) => whole(Form::Seeded((seed, 0))),
            Payload::Bytes(data) => data
                .chunks(SECTOR_SIZE)
                .map(|c| Form::Raw(Box::new(c.try_into().expect("whole sectors"))))
                .map(|base| Run { base, len: 1 })
                .collect(),
            Payload::Runs(runs) => Arc::clone(runs),
        }
    }
}

/// The physical `(sector, n_sectors)` segments of one request, stored
/// inline. Requests are block-bounded and a block spans at most two
/// cylinder pieces under a cylinder map, so two fixed slots cover every
/// case — no heap allocation per request. Derefs to the slice of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segments {
    buf: [(u64, u32); 2],
    len: u8,
}

impl Segments {
    /// The common single-segment case.
    pub(crate) fn one(sector: u64, n_sectors: u32) -> Self {
        Segments {
            buf: [(sector, n_sectors), (0, 0)],
            len: 1,
        }
    }

    /// An empty list to push into.
    pub(crate) fn new() -> Self {
        Segments::default()
    }

    /// Append a segment.
    ///
    /// # Panics
    /// Panics on a third segment — a block-bounded request cannot
    /// straddle more than one cylinder boundary.
    pub(crate) fn push(&mut self, sector: u64, n_sectors: u32) {
        assert!(
            self.len < 2,
            "block-bounded request resolved to more than two segments"
        );
        self.buf[self.len as usize] = (sector, n_sectors);
        self.len += 1;
    }
}

impl std::ops::Deref for Segments {
    type Target = [(u64, u32)];

    fn deref(&self) -> &[(u64, u32)] {
        &self.buf[..self.len as usize]
    }
}

/// A request sitting in the driver's queue, carrying resolved addresses.
///
/// A request usually resolves to one contiguous physical segment; under a
/// cylinder map, a block straddling a cylinder boundary resolves to two.
#[derive(Debug, Clone)]
pub(crate) struct Queued {
    pub id: RequestId,
    pub req: IoRequest,
    /// Physical `(sector, n_sectors)` segments, in request order.
    pub segments: Segments,
    /// Cylinder of the first segment (for scheduling).
    pub target_cylinder: u32,
    /// When `strategy` received it.
    pub arrived: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_has_no_payload() {
        let r = IoRequest::read(0, 100, 16);
        assert!(matches!(r.payload, Payload::Zeroes));
        assert!(r.dir.is_read());
    }

    #[test]
    fn write_payload_length_checked() {
        let data = Arc::<[u8]>::from(vec![0xAB; 2 * abr_disk::SECTOR_SIZE]);
        let w = IoRequest::write(1, 50, 2, data);
        assert_eq!(w.n_sectors, 2);
        assert!(matches!(w.payload, Payload::Bytes(d) if d.len() == 1024));
    }

    #[test]
    #[should_panic(expected = "payload does not match")]
    fn write_payload_mismatch_panics() {
        let _ = IoRequest::write(0, 0, 3, Arc::<[u8]>::from(vec![0u8; 512]));
    }

    #[test]
    fn write_zeroes_helper() {
        let w = IoRequest::write_zeroes(0, 0, 4);
        assert!(!w.dir.is_read());
        let (base, len) = (Form::Zero, 4);
        assert_eq!(w.payload_runs()[..], [Run { base, len }]);
    }

    #[test]
    fn request_is_no_larger_than_bytes_plus_seed() {
        // `data: Arc<[u8]>` + `payload_seed: Option<u64>` made it 56 bytes.
        assert!(std::mem::size_of::<IoRequest>() <= 48);
    }
}

//! The disk mechanism: head movement, rotation, transfer, track buffer.
//!
//! [`Disk::service`] computes the full mechanical timing of one request —
//! the decomposition the paper's driver measures (§4.1.5, Table 10): fixed
//! controller overhead, seek (from the Table 1 curve), rotational latency
//! (the platter spins continuously at 3600 RPM; the model tracks absolute
//! rotational phase), and media transfer, with track-switch and
//! cylinder-crossing penalties for long transfers. Reads on a drive with a
//! track buffer (the Fujitsu) may hit the read-ahead buffer and skip the
//! mechanics entirely, exactly as footnote 4 of the paper describes.

use crate::fault::{DiskError, DiskFault, FaultInjector};
use crate::geometry::Geometry;
use crate::models::DiskModel;
use crate::store::SectorStore;
use abr_sim::{FromJson, JsonError, JsonValue, SimDuration, SimTime};

/// Direction of a disk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoDir {
    /// Data flows disk → host.
    Read,
    /// Data flows host → disk.
    Write,
}

impl IoDir {
    /// True for reads.
    pub fn is_read(self) -> bool {
        matches!(self, IoDir::Read)
    }

    /// Persisted form (a workload trace's `dir`): the variant name.
    pub fn to_json(self) -> JsonValue {
        JsonValue::from(if self.is_read() { "Read" } else { "Write" })
    }
}

impl FromJson for IoDir {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        match v.as_str() {
            Some("Read") => Ok(IoDir::Read),
            Some("Write") => Ok(IoDir::Write),
            _ => Err(JsonError::new("expected \"Read\" or \"Write\"")),
        }
    }
}

/// Mechanical timing decomposition of one serviced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceBreakdown {
    /// Fixed controller/bus overhead.
    pub overhead: SimDuration,
    /// Arm movement time.
    pub seek: SimDuration,
    /// Rotational latency waiting for the first sector.
    pub rotation: SimDuration,
    /// Media (or buffer) transfer time.
    pub transfer: SimDuration,
    /// Seek distance in cylinders actually travelled by the arm.
    pub seek_distance: u64,
    /// Whether the request was satisfied from the track buffer.
    pub buffer_hit: bool,
}

impl ServiceBreakdown {
    /// Total service time.
    pub fn total(&self) -> SimDuration {
        self.overhead + self.seek + self.rotation + self.transfer
    }
}

/// Read-ahead buffer contents: a contiguous run of sectors.
#[derive(Debug, Clone, Copy)]
struct BufferedRange {
    start: u64,
    /// Exclusive end.
    end: u64,
}

/// The disk mechanism: one arm, continuously spinning platters, optional
/// read-ahead buffer, and the data store.
#[derive(Debug)]
pub struct Disk {
    model: DiskModel,
    /// `model.seek.time(d)` for every distance `d` the arm can travel:
    /// the curve costs a `sqrt`, a `cbrt` and an `ln` per evaluation.
    seek_by_distance: Vec<SimDuration>,
    /// Microseconds a transfer pays to cross into the next cylinder (the
    /// one-cylinder seek, unrounded).
    crossing_us: f64,
    head_cylinder: u32,
    buffer: Option<BufferedRange>,
    store: SectorStore,
    requests_serviced: u64,
    /// Fault decision engine; `None` (the default) means a perfect disk
    /// following exactly the pre-fault code path.
    injector: Option<FaultInjector>,
}

impl Disk {
    /// A disk with the head parked at cylinder 0 and empty media.
    pub fn new(model: DiskModel) -> Self {
        Disk {
            seek_by_distance: (0..u64::from(model.geometry.cylinders))
                .map(|d| model.seek.time(d))
                .collect(),
            crossing_us: model.seek.time_ms(1) * 1_000.0,
            model,
            head_cylinder: 0,
            buffer: None,
            store: SectorStore::new(),
            requests_serviced: 0,
            injector: None,
        }
    }

    /// The model this disk was built from.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Geometry shorthand.
    pub fn geometry(&self) -> &Geometry {
        &self.model.geometry
    }

    /// Current arm position.
    pub fn head_cylinder(&self) -> u32 {
        self.head_cylinder
    }

    /// Number of requests serviced so far.
    pub fn requests_serviced(&self) -> u64 {
        self.requests_serviced
    }

    /// Access the data store (for I/O data and integrity checks).
    pub fn store(&self) -> &SectorStore {
        &self.store
    }

    /// Mutable access to the data store.
    pub fn store_mut(&mut self) -> &mut SectorStore {
        &mut self.store
    }

    /// Install (or remove) a fault injector.
    pub fn set_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// The installed fault injector, if any.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Mutable access to the installed fault injector, if any.
    pub fn injector_mut(&mut self) -> Option<&mut FaultInjector> {
        self.injector.as_mut()
    }

    /// Park the arm at a specific cylinder (used when restoring a
    /// persisted disk image).
    ///
    /// # Panics
    /// Panics if the cylinder is off the disk.
    pub fn set_head_cylinder(&mut self, cylinder: u32) {
        assert!(cylinder < self.model.geometry.cylinders);
        self.head_cylinder = cylinder;
    }

    /// Rotational phase in `[0, 1)` at absolute time `t` (fraction of a
    /// revolution past the index mark).
    fn phase_at(&self, t: SimTime) -> f64 {
        let rev = self.model.geometry.revolution_us();
        (t.as_micros() % rev) as f64 / rev as f64
    }

    /// Angular start position of a sector within its track, in `[0, 1)`.
    fn sector_phase(&self, sector: u64) -> f64 {
        let spt = u64::from(self.model.geometry.sectors_per_track);
        let within = sector % spt;
        within as f64 / spt as f64
    }

    /// Service one request starting (at the disk) at time `start`.
    /// Computes timing, moves the arm, and updates the read-ahead buffer.
    /// Data movement is separate (see [`Disk::store_mut`]); the driver
    /// performs it at completion time.
    ///
    /// # Panics
    /// Panics if the sector range runs off the disk or is empty.
    pub fn service(
        &mut self,
        dir: IoDir,
        sector: u64,
        n_sectors: u32,
        start: SimTime,
    ) -> ServiceBreakdown {
        assert!(n_sectors > 0, "empty transfer");
        let g = self.model.geometry;
        let last = sector + u64::from(n_sectors) - 1;
        assert!(last < g.total_sectors(), "transfer off the end of disk");
        self.requests_serviced += 1;

        // Track-buffer hit: data comes straight off the buffer.
        if dir.is_read() {
            if let (Some(buf), Some(spec)) = (self.buffer, self.model.track_buffer) {
                if sector >= buf.start && last < buf.end {
                    let transfer = SimDuration::from_micros(
                        u64::from(spec.hit_transfer_us_per_sector) * u64::from(n_sectors),
                    );
                    return ServiceBreakdown {
                        overhead: self.model.overhead,
                        seek: SimDuration::ZERO,
                        rotation: SimDuration::ZERO,
                        transfer,
                        seek_distance: 0,
                        buffer_hit: true,
                    };
                }
            }
        }

        // Mechanical path. 1: seek.
        let target_cyl = g.cylinder_of(sector);
        let distance = self.head_cylinder.abs_diff(target_cyl);
        let seek = self.seek_by_distance[distance as usize];

        // 2: rotational latency to the first sector, relative to the
        // platter phase when the head arrives.
        let arrive = start + self.model.overhead + seek;
        let now_phase = self.phase_at(arrive);
        let want_phase = self.sector_phase(sector);
        let mut frac = want_phase - now_phase;
        if frac < 0.0 {
            frac += 1.0;
        }
        let rotation = SimDuration::from_micros((frac * g.revolution_us() as f64).round() as u64);

        // 3: media transfer, with penalties at track and cylinder
        // boundaries.
        let spt = u64::from(g.sectors_per_track);
        let mut transfer_us = g.sector_time_us() * f64::from(n_sectors);
        let first_track = sector / spt;
        let last_track = last / spt;
        let first_cyl = u64::from(target_cyl);
        let last_cyl = u64::from(g.cylinder_of(last));
        let cyl_crossings = last_cyl - first_cyl;
        // A cylinder crossing is also a track-number crossing in the flat
        // numbering; charge it the 1-cylinder seek only, and the
        // remaining boundaries the head-switch time.
        let track_crossings = (last_track - first_track) - cyl_crossings;
        transfer_us += track_crossings as f64 * self.model.track_switch.as_micros() as f64;
        transfer_us += cyl_crossings as f64 * self.crossing_us;
        let transfer = SimDuration::from_micros(transfer_us.round() as u64);

        // Arm ends where the transfer ended.
        self.head_cylinder = g.cylinder_of(last);

        // Buffer maintenance.
        if let Some(spec) = self.model.track_buffer {
            let cap_sectors = u64::from(spec.capacity_bytes) / crate::SECTOR_SIZE as u64;
            match dir {
                IoDir::Read => {
                    // Read-ahead: after the read, the drive keeps reading
                    // into the buffer up to its capacity or the end of the
                    // current cylinder, whichever is first.
                    let cyl_end = g.cylinder_start(self.head_cylinder) + g.sectors_per_cylinder();
                    let end = (sector + cap_sectors).min(cyl_end);
                    self.buffer = Some(BufferedRange { start: sector, end });
                }
                IoDir::Write => {
                    // Conservative invalidation: drop the buffer if the
                    // write overlaps it.
                    if let Some(buf) = self.buffer {
                        if sector < buf.end && last + 1 > buf.start {
                            self.buffer = None;
                        }
                    }
                }
            }
        }

        ServiceBreakdown {
            overhead: self.model.overhead,
            seek,
            rotation,
            transfer,
            seek_distance: u64::from(distance),
            buffer_hit: false,
        }
    }

    /// Fallible variant of [`Disk::service`], consulting the installed
    /// [`FaultInjector`]. Without an injector this is exactly `service`
    /// wrapped in `Ok` — same timing, same mechanical state, no
    /// randomness consumed.
    ///
    /// On a fault the arm still travels (the mechanics ran before the
    /// drive reported the error), the op's time is charged through
    /// [`DiskError::elapsed`], and no data should be considered
    /// transferred — except a [`DiskFault::TornWrite`], where the first
    /// [`DiskError::persisted`] sectors of the payload did reach the
    /// media and the caller must apply exactly that prefix to the store.
    /// A [`DiskFault::PowerLoss`] consumes no time and moves nothing:
    /// the device is dead.
    ///
    /// # Panics
    /// Panics if the sector range runs off the disk or is empty.
    pub fn try_service(
        &mut self,
        dir: IoDir,
        sector: u64,
        n_sectors: u32,
        start: SimTime,
    ) -> Result<ServiceBreakdown, DiskError> {
        let Some(injector) = self.injector.as_mut() else {
            return Ok(self.service(dir, sector, n_sectors, start));
        };
        let Some(fault) = injector.decide(dir, sector, n_sectors, start) else {
            return Ok(self.service(dir, sector, n_sectors, start));
        };
        if fault == DiskFault::PowerLoss {
            return Err(DiskError {
                fault,
                sector,
                n_sectors,
                persisted: 0,
                elapsed: SimDuration::ZERO,
            });
        }
        #[expect(clippy::expect_used, reason = "a torn write implies an injector")]
        let persisted = if fault == DiskFault::TornWrite {
            self.injector
                .as_mut()
                .expect("injector checked above")
                .torn_persisted(n_sectors)
        } else {
            0
        };
        // The mechanics still ran before the drive reported the failure:
        // charge the op's full time and move the arm. Invalidate any
        // buffer overlap so a failed read can never be "fixed" by a
        // later buffer hit serving the same sectors.
        let breakdown = self.service(dir, sector, n_sectors, start);
        if dir.is_read() {
            if let Some(buf) = self.buffer {
                let last = sector + u64::from(n_sectors) - 1;
                if sector < buf.end && last + 1 > buf.start {
                    self.buffer = None;
                }
            }
        }
        Err(DiskError {
            fault,
            sector,
            n_sectors,
            persisted,
            elapsed: breakdown.total(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn zero_distance_seek_when_on_cylinder() {
        let mut d = Disk::new(models::tiny_test_disk());
        // Move to cylinder 5 (sector 5*64 = 320).
        d.service(IoDir::Read, 320, 1, at(0));
        assert_eq!(d.head_cylinder(), 5);
        let b = d.service(IoDir::Read, 321, 1, at(100_000));
        assert_eq!(b.seek_distance, 0);
        assert_eq!(b.seek, SimDuration::ZERO);
    }

    #[test]
    fn seek_time_follows_curve() {
        let mut d = Disk::new(models::tiny_test_disk());
        // From cylinder 0 to cylinder 10: 1.0 + 0.05*10 = 1.5 ms.
        let b = d.service(IoDir::Read, 640, 1, at(0));
        assert_eq!(b.seek_distance, 10);
        assert_eq!(b.seek, SimDuration::from_micros(1_500));
    }

    #[test]
    fn seek_table_is_the_curve_on_both_paper_disks() {
        for model in DiskModel::paper_models() {
            let d = Disk::new(model);
            let cylinders = d.geometry().cylinders as usize;
            assert_eq!(d.seek_by_distance.len(), cylinders);
            for (distance, &seek) in d.seek_by_distance.iter().enumerate() {
                assert_eq!(seek, d.model.seek.time(distance as u64), "{distance}");
            }
        }
    }

    #[test]
    fn rotation_bounded_by_one_revolution() {
        let mut d = Disk::new(models::toshiba_mk156f());
        for i in 0..50u64 {
            let b = d.service(IoDir::Read, i * 97 % 1000, 4, at(i * 40_000));
            assert!(b.rotation.as_micros() <= d.geometry().revolution_us());
        }
    }

    #[test]
    fn rotation_phase_is_deterministic() {
        // Requesting the sector under the head right when it passes gives
        // different latency than just after it passed.
        let mut d1 = Disk::new(models::tiny_test_disk());
        let mut d2 = Disk::new(models::tiny_test_disk());
        let b1 = d1.service(IoDir::Read, 0, 1, at(0));
        let b2 = d2.service(IoDir::Read, 0, 1, at(1_000));
        assert_ne!(b1.rotation, b2.rotation);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let mut d = Disk::new(models::toshiba_mk156f());
        let small = d.service(IoDir::Read, 0, 2, at(0));
        let big = d.service(IoDir::Read, 0, 16, at(1_000_000));
        // 16 sectors take ~8x the media time of 2.
        let ratio = big.transfer.as_micros() as f64 / small.transfer.as_micros() as f64;
        assert!((ratio - 8.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn eight_k_block_transfer_near_half_track_on_toshiba() {
        // 8 KB = 16 sectors; a Toshiba track is 34 sectors, so media
        // transfer is about half a revolution (~7.8 ms).
        let mut d = Disk::new(models::toshiba_mk156f());
        let b = d.service(IoDir::Read, 0, 16, at(0));
        let ms = b.transfer.as_millis_f64();
        assert!((ms - 7.84).abs() < 0.1, "transfer {ms} ms");
    }

    #[test]
    fn track_crossing_adds_switch_time() {
        let d_model = models::tiny_test_disk(); // 16 sectors/track
        let mut d = Disk::new(d_model);
        let same_track = d.service(IoDir::Read, 0, 8, at(0));
        let crossing = d.service(IoDir::Read, 12, 8, at(1_000_000)); // spans sectors 12..20
        let extra = crossing.transfer.as_micros() as i64 - same_track.transfer.as_micros() as i64;
        assert_eq!(extra, 300); // track_switch of the tiny disk
    }

    #[test]
    fn head_moves_to_final_cylinder() {
        let mut d = Disk::new(models::tiny_test_disk());
        // 64 sectors/cylinder; a 10-sector read starting at sector 60
        // ends on cylinder 1.
        let b = d.service(IoDir::Read, 60, 10, at(0));
        assert_eq!(d.head_cylinder(), 1);
        assert_eq!(b.seek_distance, 0); // started on cylinder 0
    }

    #[test]
    fn fujitsu_buffer_hit_on_reread() {
        let mut d = Disk::new(models::fujitsu_m2266());
        let first = d.service(IoDir::Read, 1000, 16, at(0));
        assert!(!first.buffer_hit);
        // Re-read the same range: buffer hit, no mechanics.
        let second = d.service(IoDir::Read, 1000, 16, at(1_000_000));
        assert!(second.buffer_hit);
        assert_eq!(second.seek, SimDuration::ZERO);
        assert_eq!(second.rotation, SimDuration::ZERO);
        assert_eq!(second.transfer, SimDuration::from_micros(170 * 16));
        assert!(second.total() < first.total());
    }

    #[test]
    fn buffer_readahead_covers_following_sectors() {
        let mut d = Disk::new(models::fujitsu_m2266());
        d.service(IoDir::Read, 1000, 16, at(0));
        // The next sequential block should also hit (read-ahead).
        let next = d.service(IoDir::Read, 1016, 16, at(1_000_000));
        assert!(next.buffer_hit, "read-ahead should cover 1016..1032");
    }

    #[test]
    fn write_invalidates_overlapping_buffer() {
        let mut d = Disk::new(models::fujitsu_m2266());
        d.service(IoDir::Read, 1000, 16, at(0));
        d.service(IoDir::Write, 1008, 4, at(1_000_000));
        let reread = d.service(IoDir::Read, 1000, 16, at(2_000_000));
        assert!(!reread.buffer_hit, "buffer must be invalidated by write");
    }

    #[test]
    fn toshiba_never_buffer_hits() {
        let mut d = Disk::new(models::toshiba_mk156f());
        d.service(IoDir::Read, 100, 16, at(0));
        let again = d.service(IoDir::Read, 100, 16, at(1_000_000));
        assert!(!again.buffer_hit);
    }

    #[test]
    fn writes_never_buffer_hit() {
        let mut d = Disk::new(models::fujitsu_m2266());
        d.service(IoDir::Read, 1000, 16, at(0));
        let w = d.service(IoDir::Write, 1000, 16, at(1_000_000));
        assert!(!w.buffer_hit);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let mut d = Disk::new(models::toshiba_mk156f());
        let b = d.service(IoDir::Read, 5000, 16, at(12_345));
        assert_eq!(b.total(), b.overhead + b.seek + b.rotation + b.transfer);
    }

    #[test]
    #[should_panic(expected = "off the end")]
    fn off_disk_transfer_panics() {
        let mut d = Disk::new(models::tiny_test_disk());
        let total = d.geometry().total_sectors();
        d.service(IoDir::Read, total - 1, 2, at(0));
    }

    #[test]
    fn service_counts_requests() {
        let mut d = Disk::new(models::tiny_test_disk());
        d.service(IoDir::Read, 0, 1, at(0));
        d.service(IoDir::Write, 1, 1, at(1_000));
        assert_eq!(d.requests_serviced(), 2);
    }

    #[test]
    fn try_service_without_injector_matches_service() {
        let mut a = Disk::new(models::fujitsu_m2266());
        let mut b = Disk::new(models::fujitsu_m2266());
        for i in 0..200u64 {
            let dir = if i % 4 == 0 {
                IoDir::Write
            } else {
                IoDir::Read
            };
            let sector = i * 97 % 10_000;
            let plain = a.service(dir, sector, 8, at(i * 30_000));
            let fallible = b.try_service(dir, sector, 8, at(i * 30_000)).unwrap();
            assert_eq!(plain, fallible);
        }
        assert_eq!(a.head_cylinder(), b.head_cylinder());
    }

    #[test]
    fn try_service_with_zero_plan_matches_service() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut a = Disk::new(models::fujitsu_m2266());
        let mut b = Disk::new(models::fujitsu_m2266());
        b.set_injector(Some(FaultInjector::new(
            FaultPlan::none(),
            abr_sim::SimRng::new(1).substream("faults"),
        )));
        for i in 0..200u64 {
            let dir = if i % 4 == 0 {
                IoDir::Write
            } else {
                IoDir::Read
            };
            let sector = i * 97 % 10_000;
            let plain = a.service(dir, sector, 8, at(i * 30_000));
            let fallible = b.try_service(dir, sector, 8, at(i * 30_000)).unwrap();
            assert_eq!(plain, fallible);
        }
    }

    #[test]
    fn defective_sector_fails_and_charges_time() {
        use crate::fault::{DiskFault, FaultInjector, FaultPlan};
        let mut d = Disk::new(models::toshiba_mk156f());
        let mut inj = FaultInjector::new(FaultPlan::none(), abr_sim::SimRng::new(2));
        inj.add_defect(500);
        d.set_injector(Some(inj));
        let err = d.try_service(IoDir::Read, 496, 16, at(0)).unwrap_err();
        assert_eq!(err.fault, DiskFault::Media);
        assert!(
            err.elapsed > SimDuration::ZERO,
            "failed op still takes time"
        );
        // Outside the defect: fine.
        assert!(d.try_service(IoDir::Read, 5_000, 16, at(1_000_000)).is_ok());
    }

    #[test]
    fn failed_read_does_not_leave_a_covering_buffer() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut d = Disk::new(models::fujitsu_m2266());
        // Warm the buffer over 1000..1256ish.
        d.service(IoDir::Read, 1000, 16, at(0));
        let mut inj = FaultInjector::new(FaultPlan::none(), abr_sim::SimRng::new(3));
        inj.add_defect(1020);
        d.set_injector(Some(inj));
        // A failed read overlapping the buffer drops it...
        assert!(d.try_service(IoDir::Read, 1016, 16, at(1_000_000)).is_err());
        // ...and keeps failing rather than ever "hitting" stale data.
        assert!(d.try_service(IoDir::Read, 1016, 16, at(2_000_000)).is_err());
    }

    #[test]
    fn power_loss_consumes_no_time_and_freezes_arm() {
        use crate::fault::{DiskFault, FaultInjector, FaultPlan};
        let mut d = Disk::new(models::toshiba_mk156f());
        d.service(IoDir::Read, 5_000, 16, at(0));
        let head = d.head_cylinder();
        let plan = FaultPlan {
            power_cut_after_ops: Some(0),
            ..FaultPlan::default()
        };
        d.set_injector(Some(FaultInjector::new(plan, abr_sim::SimRng::new(4))));
        let err = d
            .try_service(IoDir::Write, 0, 16, at(1_000_000))
            .unwrap_err();
        assert_eq!(err.fault, DiskFault::PowerLoss);
        assert_eq!(err.elapsed, SimDuration::ZERO);
        assert_eq!(d.head_cylinder(), head);
    }
}

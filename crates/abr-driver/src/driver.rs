//! The adaptive device driver (§4).
//!
//! [`AdaptiveDriver`] models the modified SunOS SCSI driver:
//!
//! * **attach** — reads the disk label from sector 0; if the label marks a
//!   rearranged disk, reads the block table from the head of the reserved
//!   area and conservatively marks every entry dirty (the recovery rule of
//!   §4.1.2).
//! * **strategy** — translates (partition, sector) to a physical address,
//!   redirects through the block table, records the request in the
//!   monitors, and enqueues it. If the disk is idle the request is
//!   dispatched immediately.
//! * **interrupt/completion engine** — [`AdaptiveDriver::next_completion`]
//!   and [`AdaptiveDriver::complete_next`] drive the queue: each
//!   completion dispatches the next request chosen by the configured
//!   queueing policy.
//! * **ioctl** — `DKIOCBCOPY` / `DKIOCCLEAN` block movement (§4.1.3) plus
//!   the monitor read-and-clear calls (§4.1.4–4.1.5).

use crate::blocktable::{BlockTable, TableError};
use crate::cylmap::CylinderMap;
use crate::layout::ReservedLayout;
use crate::monitor::{PerfMonitor, PerfSnapshot, RequestMonitor, RequestRecord};
use crate::queue::RequestQueue;
use crate::request::{IoDir, IoRequest, Payload, Queued, RequestId, Segments};
use crate::sched::SchedulerKind;
use abr_disk::disk::ServiceBreakdown;
use abr_disk::fault::{DiskError, DiskFault};
use abr_disk::label::LabelError;
use abr_disk::store::Run;
use abr_disk::{Disk, DiskLabel, DiskModel, SECTOR_SIZE};
use abr_obs::{record_with, MoveKind, ObsEvent, RequestSpan};
use abr_sim::{SimDuration, SimTime};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// File-system block size in bytes (8192 in the paper).
    pub block_size: u32,
    /// Queueing policy (SCAN in the measured system).
    pub scheduler: SchedulerKind,
    /// Capacity of the request monitor table.
    pub monitor_capacity: usize,
    /// Maximum block-table entries (sizes the on-disk table region).
    pub table_max_entries: u32,
    /// Queue age (strategy receipt → dispatch) at or above which a
    /// dispatch counts as starved, feeding the `driver.starved_total`
    /// counter and `driver.queue_age_max_us` gauge (aging/fairness
    /// instrumentation for scheduler work).
    pub starvation_age: SimDuration,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            block_size: 8192,
            scheduler: SchedulerKind::Scan,
            monitor_capacity: 65_536,
            table_max_entries: 4096,
            starvation_age: crate::monitor::DEFAULT_STARVATION_AGE,
        }
    }
}

/// Driver errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The disk label failed to decode.
    Label(LabelError),
    /// The on-disk block table failed to decode.
    Table(TableError),
    /// Block movement requested on a disk not initialized for
    /// rearrangement.
    NotRearranged,
    /// Partition index out of range.
    BadPartition,
    /// Request outside its partition.
    OutOfPartition,
    /// A block-interface request crossed a file-system block boundary.
    CrossesBlockBoundary,
    /// Block movement attempted while requests are outstanding.
    Busy,
    /// Reserved-area slot index out of range.
    BadSlot,
    /// Slot already holds a different block.
    SlotOccupied,
    /// Partition not aligned to the file-system block grid.
    UnalignedPartition,
    /// Reserved-area boundary not aligned to the block grid.
    UnalignedReservedArea,
    /// Eviction requested for a block that is not in the reserved area.
    NotResident,
    /// Cylinder shuffling requested on a disk with a reserved area (the
    /// two remapping modes are mutually exclusive).
    IncompatibleMode,
    /// The cylinder map does not cover the disk's cylinders, or moves
    /// the label cylinder.
    BadCylinderMap,
    /// A request with zero sectors.
    EmptyTransfer,
    /// A disk operation failed (after the driver's bounded retries).
    Disk {
        /// The fault class the disk reported.
        fault: DiskFault,
        /// First sector of the failed operation.
        sector: u64,
    },
    /// Block movement into a quarantined (blacklisted) reserved slot.
    SlotQuarantined,
    /// The most recent data for this block was lost to a hard error (its
    /// dirty reserved copy became unreadable before it was copied home).
    DataLoss,
    /// The driver is in degraded pass-through mode (the on-disk block
    /// table was unreadable); block movement is disabled.
    Degraded,
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::Label(e) => write!(f, "label: {e}"),
            DriverError::Table(e) => write!(f, "block table: {e}"),
            DriverError::NotRearranged => write!(f, "disk not initialized for rearrangement"),
            DriverError::BadPartition => write!(f, "no such partition"),
            DriverError::OutOfPartition => write!(f, "request outside partition"),
            DriverError::CrossesBlockBoundary => {
                write!(f, "request crosses a file-system block boundary")
            }
            DriverError::Busy => write!(f, "driver busy; block movement needs an idle device"),
            DriverError::BadSlot => write!(f, "reserved slot out of range"),
            DriverError::SlotOccupied => write!(f, "reserved slot occupied"),
            DriverError::UnalignedPartition => write!(f, "partition not block-aligned"),
            DriverError::UnalignedReservedArea => {
                write!(f, "reserved area not block-aligned")
            }
            DriverError::NotResident => write!(f, "block not in the reserved area"),
            DriverError::IncompatibleMode => {
                write!(
                    f,
                    "cylinder shuffling and a reserved area are mutually exclusive"
                )
            }
            DriverError::BadCylinderMap => write!(f, "cylinder map does not match the disk"),
            DriverError::EmptyTransfer => write!(f, "zero-length transfer"),
            DriverError::Disk { fault, sector } => {
                write!(f, "disk error ({fault:?}) at sector {sector}")
            }
            DriverError::SlotQuarantined => {
                write!(f, "reserved slot quarantined after a media error")
            }
            DriverError::DataLoss => {
                write!(f, "block data lost to a hard error (no valid copy remains)")
            }
            DriverError::Degraded => {
                write!(
                    f,
                    "driver degraded to pass-through mode; remapping disabled"
                )
            }
        }
    }
}

impl std::error::Error for DriverError {}

impl From<DiskError> for DriverError {
    fn from(e: DiskError) -> Self {
        DriverError::Disk {
            fault: e.fault,
            sector: e.sector,
        }
    }
}

impl From<LabelError> for DriverError {
    fn from(e: LabelError) -> Self {
        DriverError::Label(e)
    }
}

impl From<TableError> for DriverError {
    fn from(e: TableError) -> Self {
        DriverError::Table(e)
    }
}

/// A finished request, as returned to the caller at interrupt time.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The request's id.
    pub id: RequestId,
    /// Direction.
    pub dir: IoDir,
    /// Data read from disk (empty for writes).
    pub data: Arc<[u8]>,
    /// When strategy received the request.
    pub arrived: SimTime,
    /// When it was dispatched to the disk.
    pub dispatched: SimTime,
    /// When the disk completed it.
    pub completed: SimTime,
    /// Mechanical timing decomposition.
    pub breakdown: ServiceBreakdown,
    /// Why the request failed, if it did. `None` for a successful
    /// transfer; on failure, reads carry no data and writes may have
    /// partially persisted (torn).
    pub error: Option<DriverError>,
}

impl Completion {
    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
    /// Queueing time (strategy receipt → dispatch).
    pub fn queueing(&self) -> SimDuration {
        self.dispatched - self.arrived
    }

    /// Service time (dispatch → completion).
    pub fn service(&self) -> SimDuration {
        self.completed - self.dispatched
    }

    /// Response time (receipt → completion).
    pub fn response(&self) -> SimDuration {
        self.completed - self.arrived
    }
}

/// The driver's special-purpose entry points (§4.1.3–4.1.5).
#[derive(Debug, Clone)]
pub enum Ioctl {
    /// `DKIOCBCOPY`: copy virtual block `block` into reserved slot `slot`.
    BCopy {
        /// Virtual block number (virtual sector / sectors-per-block).
        block: u64,
        /// Destination slot in the reserved area.
        slot: u32,
    },
    /// `DKIOCCLEAN`: empty the reserved area, copying dirty blocks home.
    Clean,
    /// `DKIOCBEVICT` (extension): move a single block out of the reserved
    /// area, identified by its original physical sector. Enables
    /// incremental rearrangement without a full clean.
    BEvict {
        /// Original physical sector of the block (the table key).
        orig: u64,
    },
    /// Install a whole-disk cylinder permutation, physically relocating
    /// every cylinder whose home changes (the Vongsathorn & Carson
    /// baseline; see [`crate::cylmap`]). Only valid on a disk without a
    /// reserved area. The map lives in driver memory for the session (a
    /// production shuffler would persist it in the label); cylinder 0 is
    /// pinned so the label never moves.
    ShuffleCylinders {
        /// The new virtual→physical cylinder permutation.
        map: CylinderMap,
    },
    /// Read and clear the request monitor table.
    ReadRequestTable,
    /// Read and clear the performance monitor.
    ReadStats,
    /// Read performance statistics without clearing.
    PeekStats,
}

/// Replies from [`AdaptiveDriver::ioctl`].
#[derive(Debug, Clone)]
pub enum IoctlReply {
    /// Block movement done: I/O operations issued and time consumed.
    Moved {
        /// Number of disk operations performed.
        ops: u32,
        /// Total simulated time the operations took.
        busy: SimDuration,
    },
    /// Request-table contents and the count of dropped (unrecorded)
    /// requests.
    RequestTable {
        /// Recorded requests since the last read.
        records: Vec<RequestRecord>,
        /// Requests that arrived while the table was full.
        dropped: u64,
    },
    /// Performance statistics snapshot.
    Stats(Box<PerfSnapshot>),
}

struct Active {
    queued: Queued,
    dispatched: SimTime,
    breakdown: ServiceBreakdown,
    completes: SimTime,
    error: Option<DriverError>,
    /// Span scratch carried from dispatch to completion so the trace
    /// layer can emit one complete lifecycle record per request.
    seek_cylinders: u32,
    queue_depth: u32,
    in_reserved: bool,
    retries: u32,
}

/// The adaptive disk device driver.
///
/// ```
/// use abr_disk::{models, Disk, DiskLabel};
/// use abr_driver::{AdaptiveDriver, DriverConfig, Ioctl};
/// use abr_driver::request::IoRequest;
/// use abr_sim::SimTime;
///
/// // Format a disk with a reserved region and attach.
/// let model = models::tiny_test_disk();
/// let label = DiskLabel::rearranged_aligned(model.geometry, 10, 8);
/// let config = DriverConfig { block_size: 4096, ..DriverConfig::default() };
/// let mut disk = Disk::new(model);
/// AdaptiveDriver::format(&mut disk, &label, &config);
/// let mut driver = AdaptiveDriver::attach(disk, config).unwrap();
///
/// // Copy virtual block 3 into reserved slot 0, then read through the
/// // remapping.
/// driver.ioctl(Ioctl::BCopy { block: 3, slot: 0 }, SimTime::ZERO).unwrap();
/// driver.submit(IoRequest::read(0, 3 * 8, 8), SimTime::from_micros(10_000_000)).unwrap();
/// let done = driver.drain();
/// assert_eq!(done.len(), 1);
/// ```
pub struct AdaptiveDriver {
    // NOTE: not Debug because the queue's policy is a trait object; see
    // the manual impl below.
    disk: Disk,
    label: DiskLabel,
    layout: Option<ReservedLayout>,
    config: DriverConfig,
    table: BlockTable,
    /// A table write has been serviced whose bytes are not in the store
    /// yet. Invariant: `table_unwritten` ⇒ `encode_region(self.table)` is
    /// exactly what a driver that stored the image on every table write
    /// would hold in the table region — so [`Self::materialize_table`]
    /// runs before anything can read the region or let the table drift
    /// from the persisted one (DESIGN §8 lists the places).
    table_unwritten: bool,
    /// Submitted requests waiting behind `active`. Every path that
    /// clears `active` dispatches the next request, so a non-empty queue
    /// always has a request in service.
    queue: RequestQueue,
    active: Option<Active>,
    req_mon: RequestMonitor,
    perf: PerfMonitor,
    /// Whole-disk cylinder permutation (the Vongsathorn & Carson
    /// baseline). Mutually exclusive with a reserved area.
    cyl_map: Option<CylinderMap>,
    /// Pre-remap cylinder of the last *arrived* request (FCFS baseline).
    last_arrival_cyl: Option<u32>,
    /// Target cylinder of the last *dispatched* request (the driver's
    /// address-based view of head position; footnote 4 of the paper —
    /// the driver cannot see track-buffer hits).
    last_dispatch_cyl: Option<u32>,
    next_id: u64,
    /// Pass-through mode: set at attach when the on-disk block table is
    /// unreadable. Remapping is disabled and every request is served at
    /// its original address (no silent corruption from a guessed table).
    degraded: bool,
    /// Reserved slots blacklisted after hard media errors.
    quarantined: BTreeSet<u32>,
    /// Original sectors of blocks whose latest data was lost (dirty
    /// reserved copy destroyed). Reads fail with [`DriverError::DataLoss`]
    /// until a full-block write refreshes the block.
    lost: BTreeSet<u64>,
    /// Retries absorbed while servicing the current foreground request
    /// (zeroed at dispatch; copied into the span at completion).
    retry_scratch: u32,
    /// Whether [`AdaptiveDriver::complete_next`] copies read data out of
    /// the store into the [`Completion`]. Simulation loops that discard
    /// completions turn this off to skip a block-sized allocation and
    /// copy per read.
    deliver_read_data: bool,
    /// Position of this driver within a multi-disk array (0 for a
    /// standalone disk). Stamped onto every emitted request span so
    /// array traces carry a per-disk label dimension.
    disk_index: u32,
}

impl fmt::Debug for AdaptiveDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptiveDriver")
            .field("disk", &self.disk.model().name)
            .field("rearranged", &self.label.is_rearranged())
            .field("table_entries", &self.table.len())
            .field("queued", &self.queue.len())
            .field("active", &self.active.is_some())
            .finish_non_exhaustive()
    }
}

impl AdaptiveDriver {
    /// Write a label (and, for rearranged disks, an empty block table)
    /// onto a fresh disk — the `newfs`-time initialization of §4.1.1.
    pub fn format(disk: &mut Disk, label: &DiskLabel, config: &DriverConfig) {
        let enc = label.encode();
        disk.store_mut().write(0, &enc);
        if let Some(layout) =
            ReservedLayout::for_label(label, config.block_size, config.table_max_entries)
        {
            let table = BlockTable::new();
            #[expect(clippy::expect_used, reason = "an empty table fits any table region")]
            let bytes = table.encode_region(&layout).expect("empty table fits");
            disk.store_mut().write(layout.start_sector, &bytes);
        }
    }

    /// Attach to a disk: read the label from sector 0 and, for a
    /// rearranged disk, the block table from the reserved area. Every
    /// table entry is conservatively marked dirty ("all blocks are marked
    /// as dirty when \[the\] memory-resident copy of the table is recreated"
    /// — §4.1.2), so no update can be lost to a crash.
    pub fn attach(disk: Disk, config: DriverConfig) -> Result<Self, DriverError> {
        assert!(
            config.block_size > 0 && config.block_size.is_multiple_of(SECTOR_SIZE as u32),
            "block size must be a positive multiple of the sector size"
        );
        let label_sector = disk.store().read_sector(0);
        let label = DiskLabel::decode(&label_sector)?;
        let layout = ReservedLayout::for_label(&label, config.block_size, config.table_max_entries);
        let sectors_per_block = config.block_size / SECTOR_SIZE as u32;
        let spb = u64::from(sectors_per_block);
        if let Some(l) = &layout {
            // The mapping discontinuity at the front of the reserved area
            // must fall on a block boundary (see ReservedArea::centered_aligned).
            if l.start_sector % spb != 0 {
                return Err(DriverError::UnalignedReservedArea);
            }
        }
        for p in &label.partitions {
            if p.start_sector % spb != 0 {
                return Err(DriverError::UnalignedPartition);
            }
        }
        // A disk without a reserved area never maps a block: its table
        // allocates nothing. One with it gets its index whole, now.
        let mut table = BlockTable::new();
        let mut degraded = false;
        if let Some(l) = &layout {
            table = BlockTable::for_disk(sectors_per_block, disk.geometry().total_sectors());
            let mut buf = vec![0u8; l.table_sectors as usize * SECTOR_SIZE];
            disk.store().read(l.start_sector, &mut buf);
            // Both redundant copies (and the legacy layout) are tried; if
            // none decodes, fall into pass-through mode rather than
            // refusing to attach or guessing a mapping: every request is
            // served at its original address, which is always correct for
            // clean blocks and never silently wrong for dirty ones (their
            // reserved copies are unreachable either way).
            match BlockTable::decode_region(&buf) {
                Ok(t) => {
                    for (orig, entry) in t.entries_by_slot() {
                        table.insert(orig, entry.slot);
                    }
                    table.mark_all_dirty();
                }
                Err(_) => degraded = true,
            }
        }
        Ok(AdaptiveDriver {
            disk,
            queue: RequestQueue::new(config.scheduler, label.physical.cylinders),
            label,
            layout,
            table,
            table_unwritten: false,
            active: None,
            req_mon: RequestMonitor::new(config.monitor_capacity),
            perf: PerfMonitor::with_starvation_age(config.starvation_age),
            cyl_map: None,
            last_arrival_cyl: None,
            last_dispatch_cyl: None,
            next_id: 0,
            degraded,
            quarantined: BTreeSet::new(),
            lost: BTreeSet::new(),
            retry_scratch: 0,
            deliver_read_data: true,
            disk_index: 0,
            config,
        })
    }

    /// Format a blank disk of `model` and attach to it: how every
    /// experiment member and hot spare comes into being.
    #[expect(
        clippy::expect_used,
        reason = "attach only rejects a label the caller built misaligned"
    )]
    pub fn on_blank_disk(model: DiskModel, label: &DiskLabel, config: DriverConfig) -> Self {
        let mut disk = Disk::new(model);
        Self::format(&mut disk, label, &config);
        Self::attach(disk, config).expect("fresh format attaches")
    }

    /// A blank drive of the same model, formatted and configured exactly
    /// like this one — the hot spare that replaces it when it dies.
    pub fn blank_twin(&self) -> Self {
        let mut twin = Self::on_blank_disk(self.disk.model().clone(), &self.label, self.config);
        twin.deliver_read_data = self.deliver_read_data;
        twin
    }

    /// Label this driver with its position in a multi-disk array; the
    /// index is stamped onto every request span it emits. Standalone
    /// drivers keep the default of 0 (omitted from serialized spans).
    pub fn set_disk_index(&mut self, index: u32) {
        self.disk_index = index;
    }

    /// This driver's position within its array (0 when standalone).
    pub fn disk_index(&self) -> u32 {
        self.disk_index
    }

    /// The request monitor (diagnostics like `abrctl monitor-dump`; the
    /// ioctl path reads and clears it instead).
    pub fn request_monitor(&self) -> &RequestMonitor {
        &self.req_mon
    }

    /// Whether the driver attached in degraded pass-through mode (the
    /// on-disk block table was unreadable; remapping is disabled).
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Reserved slots blacklisted after hard media errors.
    pub fn quarantined_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.quarantined.iter().copied()
    }

    /// Blocks (by original physical sector) whose latest data was lost.
    pub fn lost_blocks(&self) -> impl Iterator<Item = u64> + '_ {
        self.lost.iter().copied()
    }

    /// Mutable access to the underlying disk (to install a fault
    /// injector or revive a powered-off disk). The caller may read or
    /// overwrite the table region, so a pending table image is produced
    /// first.
    pub fn disk_mut(&mut self) -> &mut Disk {
        self.materialize_table();
        &mut self.disk
    }

    /// The disk label read at attach time.
    pub fn label(&self) -> &DiskLabel {
        &self.label
    }

    /// The reserved-area layout, if the disk is rearranged.
    pub fn layout(&self) -> Option<&ReservedLayout> {
        self.layout.as_ref()
    }

    /// Sectors per file-system block.
    pub fn sectors_per_block(&self) -> u32 {
        self.config.block_size / SECTOR_SIZE as u32
    }

    /// The block table (the current rearrangement state).
    pub fn block_table(&self) -> &BlockTable {
        &self.table
    }

    /// Immutable access to the underlying disk. A shared borrow cannot
    /// produce a pending table image: the table region seen through
    /// `disk().store()` is as of the last materialisation (every other
    /// sector, and the written-sector count, are current). Read the
    /// region through [`Self::disk_mut`] or [`Self::crash`].
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Number of queued (not yet dispatched) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the driver has no queued or active request.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_none()
    }

    /// Validate a transfer as the strategy routine does — not empty,
    /// inside its partition, inside one file-system block — and resolve
    /// it to an absolute virtual sector.
    fn to_virtual(&self, partition: usize, sector: u64, n: u32) -> Result<u64, DriverError> {
        if n == 0 {
            return Err(DriverError::EmptyTransfer);
        }
        let p = self
            .label
            .partitions
            .get(partition)
            .ok_or(DriverError::BadPartition)?;
        if sector + u64::from(n) > p.n_sectors {
            return Err(DriverError::OutOfPartition);
        }
        let spb = u64::from(self.sectors_per_block());
        if (p.start_sector + sector) % spb + u64::from(n) > spb {
            return Err(DriverError::CrossesBlockBoundary);
        }
        Ok(p.start_sector + sector)
    }

    /// Translate an absolute virtual sector range to its final physical
    /// segments, consulting the block table and the cylinder map, and
    /// note write-dirtying. Usually one segment; a cylinder map can split
    /// a boundary-straddling block into two.
    fn resolve(&mut self, vsector: u64, n: u32, dir: IoDir) -> Segments {
        if !dir.is_read() {
            let spb = u64::from(self.sectors_per_block());
            let orig_phys = self.label.virtual_to_physical(vsector - (vsector % spb));
            if self.layout.is_some() && self.table.lookup(orig_phys).is_some() {
                // The persisted image carries the dirty bits as of the
                // last table write, not this one.
                self.materialize_table();
                self.table.mark_dirty(orig_phys);
            }
        }
        self.resolve_at(vsector, n)
    }

    /// Side-effect-free translation of an absolute virtual sector range
    /// to physical segments — the same mapping [`Self::resolve`]
    /// applies, minus the write-dirtying. Maintenance readers (array
    /// scrub and rebuild) use this to locate a block's current bytes
    /// without perturbing the block table.
    fn resolve_at(&self, vsector: u64, n: u32) -> Segments {
        let spb = u64::from(self.sectors_per_block());
        let vblock_start = vsector - (vsector % spb);
        let offset = vsector - vblock_start;
        let orig_phys = self.label.virtual_to_physical(vblock_start);
        if let (Some(layout), Some(entry)) = (&self.layout, self.table.lookup(orig_phys)) {
            let target = layout.slot_sector(entry.slot) + offset;
            return Segments::one(target, n);
        }
        let p = orig_phys + offset;
        match &self.cyl_map {
            None => Segments::one(p, n),
            Some(map) => {
                // Split at physical cylinder boundaries and map each
                // piece through the permutation.
                let g = self.label.physical;
                let spc = g.sectors_per_cylinder();
                let mut out = Segments::new();
                let mut cur = p;
                let end = p + u64::from(n);
                while cur < end {
                    let cyl = g.cylinder_of(cur);
                    let cyl_end = g.cylinder_start(cyl) + spc;
                    let piece_end = cyl_end.min(end);
                    let within = cur - g.cylinder_start(cyl);
                    let mapped = g.cylinder_start(map.physical(cyl)) + within;
                    out.push(mapped, (piece_end - cur) as u32);
                    cur = piece_end;
                }
                out
            }
        }
    }

    /// The strategy routine: validate, translate, monitor, enqueue, and
    /// dispatch if the disk is idle. Returns the request id.
    ///
    /// Like the real SunOS block interface, nothing stops a caller from
    /// writing over the disk label at the front of partition 0 — that is
    /// how disks were relabelled. The file system never allocates block 0
    /// (it is the superblock's home), so well-behaved stacks are safe.
    pub fn submit(&mut self, req: IoRequest, now: SimTime) -> Result<RequestId, DriverError> {
        let spb = u64::from(self.sectors_per_block());
        let vsector = self.to_virtual(req.partition, req.sector_in_partition, req.n_sectors)?;

        // FCFS/no-rearrangement baseline distance, from pre-remap
        // addresses in arrival order.
        let pre_remap_phys = self.label.virtual_to_physical(vsector - (vsector % spb));
        let pre_cyl = self.label.physical.cylinder_of(pre_remap_phys);
        if let Some(prev) = self.last_arrival_cyl {
            self.perf
                .record_arrival_seek(req.dir, u64::from(pre_cyl.abs_diff(prev)));
        }
        self.last_arrival_cyl = Some(pre_cyl);

        self.perf.record_submit();

        // Request monitor sees the stable virtual block number.
        self.req_mon.record(RequestRecord {
            block: vsector / spb,
            n_sectors: req.n_sectors,
            dir: req.dir,
        });

        let segments = self.resolve(vsector, req.n_sectors, req.dir);
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let q = Queued {
            id,
            target_cylinder: self.label.physical.cylinder_of(segments[0].0),
            segments,
            arrived: now,
            req,
        };
        if self.active.is_some() {
            self.queue.push(q);
        } else {
            // An idle drive has nothing queued: start service without
            // paying for an index insert and remove.
            let head = self.head_cylinder();
            self.queue.bypass(q.target_cylinder, now, head);
            self.start(q, now, head);
        }
        #[cfg(feature = "sanitize")]
        self.assert_queue();
        Ok(id)
    }

    /// Raw (character-device) interface: a request of any size and
    /// alignment, split by physio into block-bounded subrequests
    /// (§4.1.2). Returns the ids of all subrequests.
    pub fn submit_raw(
        &mut self,
        dir: IoDir,
        partition: usize,
        sector: u64,
        n_sectors: u32,
        now: SimTime,
    ) -> Result<Vec<RequestId>, DriverError> {
        let pieces = crate::physio::split(sector, n_sectors, self.sectors_per_block());
        pieces
            .into_iter()
            .map(|(s, n)| {
                let req = match dir {
                    IoDir::Read => IoRequest::read(partition, s, n),
                    IoDir::Write => IoRequest::write_zeroes(partition, s, n),
                };
                self.submit(req, now)
            })
            .collect()
    }

    /// The physical `(sector, n_sectors)` segments a request at
    /// `sector_in_partition` of `partition` would be serviced from
    /// right now, under the current block table and cylinder map.
    /// Validates like [`Self::submit`] but queues nothing and dirties
    /// nothing — maintenance code (array scrub) uses it to test whether
    /// a block's current home overlaps an injected defect.
    pub fn physical_segments(
        &self,
        partition: usize,
        sector_in_partition: u64,
        n_sectors: u32,
    ) -> Result<Segments, DriverError> {
        let vsector = self.to_virtual(partition, sector_in_partition, n_sectors)?;
        Ok(self.resolve_at(vsector, n_sectors))
    }

    /// What a range currently holds, straight from the backing store as
    /// maximal [`Run`]s, bypassing the queue and the simulated clock (no
    /// time passes, no head movement, no bytes are produced). A lost
    /// block fails with [`DriverError::DataLoss`] exactly like a queued
    /// read would.
    ///
    /// The array layer uses this to compute mirror and parity payloads
    /// at submit time and to fetch survivor data during rebuild — the
    /// simulator's stand-in for data already resident in the buffer
    /// cache (the timed disk reads are issued separately as real
    /// requests).
    pub fn peek_runs(
        &self,
        partition: usize,
        sector_in_partition: u64,
        n_sectors: u32,
    ) -> Result<Vec<Run>, DriverError> {
        let vsector = self.to_virtual(partition, sector_in_partition, n_sectors)?;
        let spb = u64::from(self.sectors_per_block());
        let home_phys = self.label.virtual_to_physical(vsector - (vsector % spb));
        if self.lost.contains(&home_phys) {
            return Err(DriverError::DataLoss);
        }
        let mut runs = Vec::with_capacity(1);
        for &(sector, n) in self.resolve_at(vsector, n_sectors).iter() {
            self.disk.store().read_runs(sector, n, &mut runs);
        }
        Ok(runs)
    }

    /// [`Self::peek_runs`], materialized.
    pub fn peek(
        &self,
        partition: usize,
        sector_in_partition: u64,
        n_sectors: u32,
    ) -> Result<Arc<[u8]>, DriverError> {
        let runs = self.peek_runs(partition, sector_in_partition, n_sectors)?;
        let mut buf = vec![0u8; n_sectors as usize * SECTOR_SIZE];
        Run::fill_all(&runs, &mut buf);
        Ok(Arc::from(buf))
    }

    /// Whether the block containing `sector_in_partition` has lost its
    /// freshest copy to a hard error (a timed read of it would fail
    /// with [`DriverError::DataLoss`]). Out-of-range addresses report
    /// `false`.
    pub fn block_is_lost(&self, partition: usize, sector_in_partition: u64) -> bool {
        let spb = u64::from(self.sectors_per_block());
        match self.to_virtual(partition, sector_in_partition, 1) {
            Ok(vsector) => {
                let home = self.label.virtual_to_physical(vsector - (vsector % spb));
                self.lost.contains(&home)
            }
            Err(_) => false,
        }
    }

    /// The driver's address-based head position: the cylinder of the
    /// last dispatched target (what a real driver uses for scheduling).
    fn head_cylinder(&self) -> u32 {
        self.last_dispatch_cyl
            .unwrap_or_else(|| self.disk.head_cylinder())
    }

    /// Pick and dispatch the next queued request.
    ///
    /// Only requests that have already arrived (`arrived <= now`) are
    /// candidates; callers that enqueue future-dated requests in a batch
    /// (tests, trace replay) would otherwise let the scheduler dispatch a
    /// request before it exists. If every queued request is still in the
    /// future, the earliest one is dispatched *at its arrival time* —
    /// the disk was idle until then.
    fn dispatch_next(&mut self, now: SimTime) {
        debug_assert!(self.active.is_none());
        let head = self.head_cylinder();
        if let Some((q, at)) = self.queue.pop(now, head) {
            self.start(q, at, head);
        }
        #[cfg(feature = "sanitize")]
        self.assert_queue();
    }

    /// Check the request queue's invariants (see `queue.rs`) and that
    /// nothing waits behind an idle drive. Sanitize builds check after
    /// every submit and dispatch. Sanitize builds only.
    #[cfg(feature = "sanitize")]
    pub fn check_queue(&self) -> Result<(), String> {
        if self.active.is_none() && !self.queue.is_empty() {
            return Err(format!("{} queued behind an idle drive", self.queue.len()));
        }
        self.queue.check()
    }

    #[cfg(feature = "sanitize")]
    #[track_caller]
    fn assert_queue(&self) {
        if let Err(e) = self.check_queue() {
            panic!("request queue invariant violated: {e}");
        }
    }

    /// Deliberately break the request queue — a test hook proving the
    /// sanitizer trips. Sanitize builds only.
    #[cfg(feature = "sanitize")]
    pub fn corrupt_queue_for_sanitizer_test(&mut self, how: crate::queue::QueueCorruption) {
        self.queue.corrupt_for_sanitizer_test(how);
    }

    /// Start servicing `q` at `now` with the head at cylinder `head`.
    fn start(&mut self, q: Queued, now: SimTime, head: u32) {
        let queue_depth = abr_sim::narrow::u32_from_usize(self.queue.len());

        // Address-based scheduled seek distance (what the paper's monitor
        // records; it cannot see track-buffer hits).
        let seek_cylinders = q.target_cylinder.abs_diff(head);
        let addr_dist = u64::from(seek_cylinders);
        let in_reserved = self
            .label
            .reserved
            .map(|r| r.contains_cylinder(q.target_cylinder))
            .unwrap_or(false);
        self.perf
            .record_dispatch(q.req.dir, addr_dist, now - q.arrived, in_reserved);
        self.last_dispatch_cyl = Some(q.target_cylinder);

        // Reads of a lost block (dirty reserved copy destroyed by a hard
        // error) must fail loudly, never fall back to the stale home copy.
        let spb = u64::from(self.sectors_per_block());
        let vsector =
            self.label.partitions[q.req.partition].start_sector + q.req.sector_in_partition;
        let home_phys = self.label.virtual_to_physical(vsector - (vsector % spb));
        if q.req.dir.is_read() && self.lost.contains(&home_phys) {
            self.perf.record_failure(q.req.dir);
            self.active = Some(Active {
                queued: q,
                dispatched: now,
                breakdown: zero_breakdown(),
                completes: now,
                error: Some(DriverError::DataLoss),
                seek_cylinders,
                queue_depth,
                in_reserved,
                retries: 0,
            });
            return;
        }

        // Service each segment back to back, applying each write to the
        // store only once its transfer succeeds; the combined breakdown
        // keeps a single overhead charge. `wasted` accumulates time lost
        // to failed attempts and retry backoffs, so on a fault-free run
        // every segment starts at `now + acc.total()` exactly as before.
        // A segment failure (after the bounded retries inside `serviced`)
        // fails the whole request but still charges the time it took.
        self.retry_scratch = 0;
        // Apply `n_sectors` of the payload, from byte offset `off`, to
        // the store at `sector`: a whole segment or a torn prefix. Only
        // literal bytes are copied; every other kind is recorded as what
        // it is and synthesized if something reads it. The seeded stream
        // is counter-based, so a segment at byte offset `off` starts at
        // word `off / 8` and a torn-write prefix is just a shorter marker
        // run; of a payload of runs both are translated sub-runs.
        let store_write = |disk: &mut Disk, sector: u64, n_sectors: u32, off: usize| {
            let (store, n) = (disk.store_mut(), n_sectors as usize);
            match &q.req.payload {
                Payload::Seeded(seed) => {
                    store.write_seeded(sector, n_sectors, *seed, (off / 8) as u64)
                }
                Payload::Zeroes => store.write_zeroes(sector, n_sectors),
                Payload::Bytes(data) => store.write(sector, &data[off..off + n * SECTOR_SIZE]),
                Payload::Runs(runs) => {
                    let part = Run::slice_of(runs, (off / SECTOR_SIZE) as u32, n_sectors);
                    store.write_runs(sector, part);
                }
            }
        };
        let mut wasted = SimDuration::ZERO;
        let mut acc: Option<ServiceBreakdown> = None;
        let mut error = None;
        let mut off = 0usize;
        for &(sector, n) in q.segments.iter() {
            let bytes = n as usize * SECTOR_SIZE;
            let done = acc.map_or(SimDuration::ZERO, |a: ServiceBreakdown| a.total());
            let (elapsed, res) = self.serviced(q.req.dir, sector, n, now + wasted + done);
            match res {
                Ok(b) => {
                    wasted += elapsed - b.total();
                    if !q.req.dir.is_read() {
                        store_write(&mut self.disk, sector, n, off);
                    }
                    acc = Some(match acc {
                        None => b,
                        Some(mut a) => {
                            a.seek += b.seek;
                            a.rotation += b.rotation;
                            a.transfer += b.transfer;
                            a.seek_distance += b.seek_distance;
                            a
                        }
                    });
                }
                Err(e) => {
                    wasted += elapsed;
                    // A torn write persisted a prefix of this segment.
                    if e.fault == DiskFault::TornWrite && e.persisted > 0 {
                        store_write(&mut self.disk, sector, e.persisted, off);
                    }
                    self.perf.record_failure(q.req.dir);
                    error = Some(DriverError::from(e));
                    break;
                }
            }
            off += bytes;
        }
        // A successful full-block write refreshes a lost block.
        if error.is_none()
            && !q.req.dir.is_read()
            && vsector.is_multiple_of(spb)
            && u64::from(q.req.n_sectors) == spb
        {
            self.lost.remove(&home_phys);
        }
        let breakdown = acc.unwrap_or_else(zero_breakdown);
        let completes = now + wasted + breakdown.total();
        self.active = Some(Active {
            queued: q,
            dispatched: now,
            breakdown,
            completes,
            error,
            seek_cylinders,
            queue_depth,
            in_reserved,
            retries: self.retry_scratch,
        });
    }

    /// Control whether completions of reads carry the data read from the
    /// store (the default). Simulation loops that only consume timing
    /// turn this off; integrity-checking callers leave it on.
    pub fn set_deliver_read_data(&mut self, on: bool) {
        self.deliver_read_data = on;
    }

    /// Read and clear the performance statistics — the `ReadStats`
    /// ioctl, typed: it has no error path and needs no clock.
    pub fn read_stats(&mut self) -> Box<PerfSnapshot> {
        Box::new(self.perf.read_and_clear())
    }

    /// When the in-flight request will complete, if any. A future-dated
    /// request (batch submission) left at the head of the queue is
    /// already in flight, started at its own arrival time.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.active.as_ref().map(|a| a.completes)
    }

    /// Complete the in-flight request (the interrupt routine). `now` must
    /// equal [`AdaptiveDriver::next_completion`]. Dispatches the next
    /// queued request before returning.
    ///
    /// # Panics
    /// Panics if there is no active request or `now` does not match its
    /// completion time.
    pub fn complete_next(&mut self, now: SimTime) -> Completion {
        #[expect(clippy::expect_used, reason = "the documented `# Panics` contract")]
        let a = self.active.take().expect("no active request");
        assert_eq!(a.completes, now, "completion at the wrong time");
        let data = if a.queued.req.dir.is_read() && a.error.is_none() && self.deliver_read_data {
            let mut buf = vec![0u8; a.queued.req.n_sectors as usize * SECTOR_SIZE];
            let mut off = 0usize;
            for &(sector, n) in a.queued.segments.iter() {
                let bytes = n as usize * SECTOR_SIZE;
                self.disk.store().read(sector, &mut buf[off..off + bytes]);
                off += bytes;
            }
            Arc::from(buf)
        } else {
            Arc::default()
        };
        if a.error.is_none() {
            // Failed requests are counted by the fault counters instead;
            // keeping them out of the service-time statistics means the
            // paper's timing figures still describe successful transfers.
            self.perf.record_completion(
                a.queued.req.dir,
                now - a.dispatched,
                a.breakdown.rotation,
                a.breakdown.transfer + a.breakdown.overhead,
            );
        } else {
            self.perf.record_failed_completion();
        }
        record_with(|| {
            let spb = u64::from(self.sectors_per_block());
            let vsector = self.label.partitions[a.queued.req.partition].start_sector
                + a.queued.req.sector_in_partition;
            ObsEvent::Request(RequestSpan {
                id: a.queued.id.0,
                read: a.queued.req.dir.is_read(),
                block: vsector / spb,
                n_sectors: a.queued.req.n_sectors,
                arrived_us: a.queued.arrived.as_micros(),
                dispatched_us: a.dispatched.as_micros(),
                completed_us: now.as_micros(),
                seek_us: a.breakdown.seek.as_micros(),
                rotation_us: a.breakdown.rotation.as_micros(),
                transfer_us: (a.breakdown.transfer + a.breakdown.overhead).as_micros(),
                seek_cylinders: a.seek_cylinders,
                queue_depth: a.queue_depth,
                in_reserved: a.in_reserved,
                retries: a.retries,
                error: a.error.as_ref().map(|e| e.to_string()),
                disk: self.disk_index,
            })
        });
        let completion = Completion {
            id: a.queued.id,
            dir: a.queued.req.dir,
            data,
            arrived: a.queued.arrived,
            dispatched: a.dispatched,
            completed: now,
            breakdown: a.breakdown,
            error: a.error,
        };
        self.dispatch_next(now);
        completion
    }

    /// Run the device until idle, returning all completions (useful for
    /// synchronous callers like mkfs and tests).
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(t) = self.next_completion() {
            out.push(self.complete_next(t));
        }
        out
    }

    /// The ioctl entry point (§4.1.3–4.1.5). Block-movement calls require
    /// an idle device ("requests for a block that is being moved are
    /// delayed" — we model the daily arranger running in a quiet period).
    pub fn ioctl(&mut self, op: Ioctl, now: SimTime) -> Result<IoctlReply, DriverError> {
        #[cfg(feature = "sanitize")]
        let is_move = matches!(
            op,
            Ioctl::BCopy { .. }
                | Ioctl::Clean
                | Ioctl::BEvict { .. }
                | Ioctl::ShuffleCylinders { .. }
        );
        let reply = match op {
            Ioctl::BCopy { block, slot } => {
                let res = self.bcopy(block, slot, now);
                self.note_move(MoveKind::BCopy, now, block, u64::from(slot), &res);
                res
            }
            Ioctl::Clean => {
                let res = self.clean(now);
                self.note_move(MoveKind::Clean, now, 0, 0, &res);
                res
            }
            Ioctl::BEvict { orig } => {
                let slot = self
                    .table
                    .lookup(orig)
                    .map(|e| u64::from(e.slot))
                    .unwrap_or(0);
                let block = orig / u64::from(self.sectors_per_block());
                let res = self.bevict(orig, now);
                self.note_move(MoveKind::BEvict, now, block, slot, &res);
                res
            }
            Ioctl::ShuffleCylinders { map } => {
                let res = self.shuffle_cylinders(map, now);
                self.note_move(MoveKind::Shuffle, now, 0, 0, &res);
                res
            }
            Ioctl::ReadRequestTable => {
                let (records, dropped) = self.req_mon.read_and_clear();
                Ok(IoctlReply::RequestTable { records, dropped })
            }
            Ioctl::ReadStats => Ok(IoctlReply::Stats(self.read_stats())),
            Ioctl::PeekStats => Ok(IoctlReply::Stats(Box::new(self.perf.snapshot()))),
        };
        // Sanitize builds re-verify the redirect map after every block
        // movement: any rollback or error path that left the forward and
        // reverse maps out of sync aborts here, not wherever the stale
        // entry is eventually dereferenced.
        #[cfg(feature = "sanitize")]
        if is_move {
            self.table.assert_bijection();
        }
        reply
    }

    /// Publish one block-movement outcome to the trace and the registry.
    /// `block`/`slot` identify what moved (zero for whole-area calls).
    fn note_move(
        &mut self,
        kind: MoveKind,
        now: SimTime,
        block: u64,
        slot: u64,
        res: &Result<IoctlReply, DriverError>,
    ) {
        let (ops, busy_us, ok) = match res {
            Ok(IoctlReply::Moved { ops, busy }) => (*ops, busy.as_micros(), true),
            _ => (0, 0, false),
        };
        self.perf.record_move(ops, busy_us);
        record_with(|| ObsEvent::Move {
            kind,
            at_us: now.as_micros(),
            block,
            slot,
            ops,
            busy_us,
            ok,
        });
    }

    /// `DKIOCBCOPY` (§4.1.3): copy a block into the reserved area —
    /// "three I/O operations": read the block, write the copy, write the
    /// block table.
    fn bcopy(&mut self, block: u64, slot: u32, now: SimTime) -> Result<IoctlReply, DriverError> {
        if !self.is_idle() {
            return Err(DriverError::Busy);
        }
        if self.degraded {
            return Err(DriverError::Degraded);
        }
        let layout = *self.layout.as_ref().ok_or(DriverError::NotRearranged)?;
        if slot >= layout.n_slots {
            return Err(DriverError::BadSlot);
        }
        if self.quarantined.contains(&slot) {
            return Err(DriverError::SlotQuarantined);
        }
        let spb = u64::from(self.sectors_per_block());
        let vsector = block * spb;
        if vsector + spb > self.label.virtual_geometry().total_sectors() {
            return Err(DriverError::OutOfPartition);
        }
        let orig_phys = self.label.virtual_to_physical(vsector);
        if let Some(entry) = self.table.lookup(orig_phys) {
            // Already resident. Re-copying from the original home would
            // clobber a dirty reserved copy with stale data; treat the
            // call as a no-op when the slot matches, an error otherwise.
            return if entry.slot == slot {
                Ok(IoctlReply::Moved {
                    ops: 0,
                    busy: SimDuration::ZERO,
                })
            } else {
                Err(DriverError::SlotOccupied)
            };
        }
        if self.table.occupant(slot).is_some() {
            return Err(DriverError::SlotOccupied);
        }
        let dst = layout.slot_sector(slot);
        let n = self.sectors_per_block();

        let mut busy = SimDuration::ZERO;
        // 1: read the block from its original position.
        let (elapsed, res) = self.serviced(IoDir::Read, orig_phys, n, now + busy);
        busy += elapsed;
        res?;
        // 2: write it into the reserved slot. A hard media error here
        // blacklists the slot; the home copy is untouched either way.
        let (elapsed, res) = self.serviced(IoDir::Write, dst, n, now + busy);
        busy += elapsed;
        if let Err(e) = res {
            if e.fault == DiskFault::Media {
                self.quarantined.insert(slot);
                self.perf.record_quarantine();
            }
            return Err(e.into());
        }
        self.disk.store_mut().copy(orig_phys, dst, n);
        // Table entry, then 3: force the table to disk. Data before
        // metadata: the entry goes in only after the copy is durable, and
        // `write_table` takes it back out if the table cannot be persisted.
        self.table.insert(orig_phys, slot);
        busy += self.write_table(&layout, now + busy, TableChange::Inserted(orig_phys))?;
        Ok(IoctlReply::Moved { ops: 3, busy })
    }

    /// `DKIOCCLEAN` (§4.1.3): empty the reserved area. Dirty blocks cost
    /// a read plus a write home; clean blocks just leave. "After each
    /// block is moved out, the block table is updated and the updated
    /// version is written to the disk."
    fn clean(&mut self, now: SimTime) -> Result<IoctlReply, DriverError> {
        if !self.is_idle() {
            return Err(DriverError::Busy);
        }
        if self.degraded {
            return Err(DriverError::Degraded);
        }
        let layout = *self.layout.as_ref().ok_or(DriverError::NotRearranged)?;
        let n = self.sectors_per_block();
        let mut busy = SimDuration::ZERO;
        let mut ops = 0u32;
        for (orig_phys, entry) in self.table.entries_by_slot() {
            match self.clean_one(&layout, orig_phys, entry, n, now + busy) {
                Ok((d, o)) => {
                    busy += d;
                    ops += o;
                }
                // A power cut (or a failed table persist) aborts the
                // whole pass: per-block commit order keeps everything
                // already moved consistent. Skippable per-block failures
                // were already absorbed by `clean_one`.
                Err((d, e)) => {
                    busy += d;
                    return Err(e);
                }
            }
        }
        Ok(IoctlReply::Moved { ops, busy })
    }

    /// Move one block out of the reserved area for [`Self::clean`] /
    /// [`Self::bevict`]: copy dirty data home, then commit the entry's
    /// removal (memory + on-disk table). The reserved copy is never
    /// destroyed, so every intermediate state recovers cleanly.
    ///
    /// Per-block failure policy:
    /// * dirty slot unreadable (hard) → quarantine the slot, mark the
    ///   block lost, and commit the removal — continuing costs nothing
    ///   further and the loss is surfaced via [`DriverError::DataLoss`]
    ///   on subsequent reads;
    /// * home write fails → keep the entry (the slot copy remains the
    ///   canonical data) and skip the block;
    /// * table persist fails → `write_table` rolls the entry back in
    ///   memory; abort.
    ///
    /// Returns `(busy, ops)` on a handled outcome, or the accumulated
    /// busy time plus the error when the caller must abort.
    fn clean_one(
        &mut self,
        layout: &ReservedLayout,
        orig_phys: u64,
        entry: crate::blocktable::Entry,
        n: u32,
        now: SimTime,
    ) -> Result<(SimDuration, u32), (SimDuration, DriverError)> {
        let mut busy = SimDuration::ZERO;
        let mut ops = 0u32;
        let mut lost = false;
        if entry.dirty {
            let src = layout.slot_sector(entry.slot);
            let (elapsed, res) = self.serviced(IoDir::Read, src, n, now + busy);
            busy += elapsed;
            match res {
                Ok(_) => {
                    let (elapsed, res) = self.serviced(IoDir::Write, orig_phys, n, now + busy);
                    busy += elapsed;
                    match res {
                        Ok(_) => {
                            self.disk.store_mut().copy(src, orig_phys, n);
                            ops += 2;
                        }
                        Err(e) if e.fault == DiskFault::PowerLoss => {
                            return Err((busy, e.into()));
                        }
                        Err(e) => {
                            // Torn home writes persisted a prefix of the
                            // slot data; harmless while the entry remains.
                            if e.fault == DiskFault::TornWrite && e.persisted > 0 {
                                self.disk.store_mut().copy(src, orig_phys, e.persisted);
                            }
                            // Keep the entry: the slot copy stays canonical.
                            return Ok((busy, ops));
                        }
                    }
                }
                Err(e) if e.fault == DiskFault::PowerLoss => {
                    return Err((busy, e.into()));
                }
                Err(_) => {
                    // The dirty reserved copy is gone for good: quarantine
                    // the slot and surface the loss on future reads rather
                    // than silently reviving the stale home copy.
                    self.quarantined.insert(entry.slot);
                    self.perf.record_quarantine();
                    lost = true;
                }
            }
        }
        self.table.remove(orig_phys);
        match self.write_table(layout, now + busy, TableChange::Removed(orig_phys, entry)) {
            Ok(d) => {
                busy += d;
                ops += 1;
            }
            Err(e) => return Err((busy, e)),
        }
        if lost {
            self.lost.insert(orig_phys);
            self.perf.record_lost_block();
        }
        Ok((busy, ops))
    }

    /// `DKIOCBEVICT` (extension): move one block home. Dirty blocks cost
    /// a read plus a write; clean blocks just leave the table. The table
    /// is persisted afterwards, like `DKIOCCLEAN` does per block.
    ///
    /// Shares [`Self::clean_one`]'s failure policy; a skipped home write
    /// reports `Moved { ops: 0, .. }` with the entry still resident, so
    /// callers can retry later without having lost anything.
    fn bevict(&mut self, orig: u64, now: SimTime) -> Result<IoctlReply, DriverError> {
        if !self.is_idle() {
            return Err(DriverError::Busy);
        }
        if self.degraded {
            return Err(DriverError::Degraded);
        }
        let layout = *self.layout.as_ref().ok_or(DriverError::NotRearranged)?;
        let Some(entry) = self.table.lookup(orig) else {
            return Err(DriverError::NotResident);
        };
        let n = self.sectors_per_block();
        match self.clean_one(&layout, orig, entry, n, now) {
            Ok((busy, ops)) => Ok(IoctlReply::Moved { ops, busy }),
            Err((_, e)) => Err(e),
        }
    }

    /// Install a cylinder permutation (see [`Ioctl::ShuffleCylinders`]).
    /// Cylinders whose physical home changes are read into host memory
    /// and rewritten at their new homes — one full-cylinder read plus one
    /// full-cylinder write each, the movement cost of the Vongsathorn &
    /// Carson shuffler.
    fn shuffle_cylinders(
        &mut self,
        map: CylinderMap,
        now: SimTime,
    ) -> Result<IoctlReply, DriverError> {
        if !self.is_idle() {
            return Err(DriverError::Busy);
        }
        if self.layout.is_some() {
            return Err(DriverError::IncompatibleMode);
        }
        let g = self.label.physical;
        if map.len() != g.cylinders {
            return Err(DriverError::BadCylinderMap);
        }
        if map.physical(0) != 0 {
            // Cylinder 0 holds the disk label; a shuffler must leave it in
            // place or the disk becomes unbootable.
            return Err(DriverError::BadCylinderMap);
        }
        let current = self
            .cyl_map
            .clone()
            .unwrap_or_else(|| CylinderMap::identity(g.cylinders));
        let moved = current.moved_cylinders(&map);
        let spc = g.sectors_per_cylinder() as u32;
        let mut busy = SimDuration::ZERO;
        let mut ops = 0u32;
        // Read every moving cylinder from its current home into host
        // memory, as the runs of sector forms it holds (a seeded or zero
        // sector stays a marker, not 512 raw bytes)...
        let mut staged: Vec<(u32, Vec<Run>)> = Vec::with_capacity(moved.len());
        for &v in &moved {
            let src = g.cylinder_start(current.physical(v));
            let mut runs = Vec::new();
            self.disk.store().read_runs(src, spc, &mut runs);
            busy += self.disk.service(IoDir::Read, src, spc, now + busy).total();
            ops += 1;
            staged.push((v, runs));
        }
        // ...then write each to its new home.
        for (v, runs) in staged {
            let dst = g.cylinder_start(map.physical(v));
            self.disk.store_mut().write_runs(dst, runs);
            busy += self
                .disk
                .service(IoDir::Write, dst, spc, now + busy)
                .total();
            ops += 1;
        }
        self.cyl_map = Some(map);
        Ok(IoctlReply::Moved { ops, busy })
    }

    /// Persist the block table into the table region (dual-copy format)
    /// to commit `change`, returning the time the write took.
    ///
    /// Only the simulated write happens here; the image itself is
    /// produced by [`Self::materialize_table`] when it can be observed.
    /// A failed write is rolled back here, for every caller: `change` is
    /// undone so memory keeps matching the on-disk table, and the store
    /// ends up holding the old image under the persisted prefix of the
    /// new one (torn writes). The failure is counted.
    fn write_table(
        &mut self,
        layout: &ReservedLayout,
        now: SimTime,
        change: TableChange,
    ) -> Result<SimDuration, DriverError> {
        assert!(
            self.table.fits(layout),
            "table sized by config.table_max_entries"
        );
        let (elapsed, res) = self.serviced(
            IoDir::Write,
            layout.start_sector,
            layout.table_sectors as u32,
            now,
        );
        let Err(e) = res else {
            self.table_unwritten = true;
            return Ok(elapsed);
        };
        // What a torn write leaves behind is a prefix of the image WITH
        // the change, on top of the image without it.
        let torn =
            (e.fault == DiskFault::TornWrite && e.persisted > 0).then(|| self.table_image(layout));
        match change {
            TableChange::Inserted(orig) => {
                self.table.remove(orig);
            }
            TableChange::Removed(orig, entry) => {
                self.table.insert(orig, entry.slot);
                if entry.dirty {
                    self.table.mark_dirty(orig);
                }
            }
        }
        self.materialize_table();
        if let Some(new) = torn {
            let end = (e.persisted as usize * SECTOR_SIZE).min(new.len());
            self.disk
                .store_mut()
                .write(layout.start_sector, &new[..end]);
        }
        self.perf.record_table_write_failure();
        Err(e.into())
    }

    /// The table region's bytes for the table as it is now.
    #[expect(clippy::expect_used, reason = "the table is capped at the region size")]
    fn table_image(&self, layout: &ReservedLayout) -> Vec<u8> {
        self.table
            .encode_region(layout)
            .expect("table sized by config.table_max_entries")
    }

    /// Put the image of the last serviced table write into the store, if
    /// it is not there yet (see `table_unwritten`).
    fn materialize_table(&mut self) {
        if !std::mem::take(&mut self.table_unwritten) {
            return;
        }
        if let Some(layout) = self.layout {
            let bytes = self.table_image(&layout);
            self.disk.store_mut().write(layout.start_sector, &bytes);
        }
    }

    /// Issue one disk operation through the fault layer, retrying
    /// transient and torn failures with a short exponential backoff in
    /// simulated time. Returns the total elapsed time alongside the
    /// final outcome; on success the breakdown describes the successful
    /// attempt only, so `elapsed - breakdown.total()` is retry overhead.
    fn serviced(
        &mut self,
        dir: IoDir,
        sector: u64,
        n_sectors: u32,
        start: SimTime,
    ) -> (SimDuration, Result<ServiceBreakdown, DiskError>) {
        const MAX_ATTEMPTS: u32 = 4;
        let mut elapsed = SimDuration::ZERO;
        for attempt in 1..=MAX_ATTEMPTS {
            match self
                .disk
                .try_service(dir, sector, n_sectors, start + elapsed)
            {
                Ok(b) => {
                    elapsed += b.total();
                    return (elapsed, Ok(b));
                }
                Err(e) => {
                    elapsed += e.elapsed;
                    if e.fault.is_retryable() && attempt < MAX_ATTEMPTS {
                        self.perf.record_retry();
                        self.retry_scratch += 1;
                        elapsed += SimDuration::from_millis(1 << (attempt - 1));
                    } else {
                        return (elapsed, Err(e));
                    }
                }
            }
        }
        unreachable!("loop returns on success or on the final attempt")
    }

    /// Detach without any cleanup, modelling a crash: returns the raw
    /// disk so a new driver can re-attach and exercise recovery.
    pub fn crash(mut self) -> Disk {
        self.materialize_table();
        self.disk
    }
}

/// The in-memory table change a [`AdaptiveDriver::write_table`] call
/// commits, and undoes if the write fails.
#[derive(Debug, Clone, Copy)]
enum TableChange {
    /// An entry for this original sector went in.
    Inserted(u64),
    /// This original sector's entry came out.
    Removed(u64, crate::blocktable::Entry),
}

/// An all-zero [`ServiceBreakdown`] for requests that never reached the
/// device (e.g. reads failed fast against the lost-block set).
fn zero_breakdown() -> ServiceBreakdown {
    ServiceBreakdown {
        overhead: SimDuration::ZERO,
        seek: SimDuration::ZERO,
        rotation: SimDuration::ZERO,
        transfer: SimDuration::ZERO,
        seek_distance: 0,
        buffer_hit: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_disk::models;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn tiny_config() -> DriverConfig {
        DriverConfig {
            block_size: 4096, // 8 sectors
            scheduler: SchedulerKind::Scan,
            monitor_capacity: 1000,
            table_max_entries: 64,
            ..DriverConfig::default()
        }
    }

    fn tiny_rearranged_driver() -> AdaptiveDriver {
        let model = models::tiny_test_disk();
        let label = DiskLabel::rearranged_aligned(model.geometry, 10, 8);
        AdaptiveDriver::on_blank_disk(model, &label, tiny_config())
    }

    fn tiny_plain_driver() -> AdaptiveDriver {
        let model = models::tiny_test_disk();
        let label = DiskLabel::whole_disk(model.geometry);
        AdaptiveDriver::on_blank_disk(model, &label, tiny_config())
    }

    #[test]
    fn attach_reads_label() {
        let d = tiny_rearranged_driver();
        assert!(d.label().is_rearranged());
        assert!(d.layout().is_some());
        assert!(d.block_table().is_empty());
        assert_eq!(d.sectors_per_block(), 8);
    }

    #[test]
    fn attach_rejects_unformatted_disk() {
        let disk = Disk::new(models::tiny_test_disk());
        let err = AdaptiveDriver::attach(disk, tiny_config()).unwrap_err();
        assert_eq!(err, DriverError::Label(LabelError::BadMagic));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = tiny_plain_driver();
        let payload = Arc::<[u8]>::from(vec![0x5A; 4096]);
        d.submit(IoRequest::write(0, 64, 8, payload.clone()), t(0))
            .unwrap();
        d.drain();
        let id = d.submit(IoRequest::read(0, 64, 8), t(10_000_000)).unwrap();
        let done = d.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].data, payload);
    }

    #[test]
    fn submit_validates_bounds() {
        let mut d = tiny_plain_driver();
        assert_eq!(
            d.submit(IoRequest::read(7, 0, 1), t(0)).unwrap_err(),
            DriverError::BadPartition
        );
        let total = d.label().virtual_geometry().total_sectors();
        assert_eq!(
            d.submit(IoRequest::read(0, total, 1), t(0)).unwrap_err(),
            DriverError::OutOfPartition
        );
        // Crossing a block boundary (block = 8 sectors).
        assert_eq!(
            d.submit(IoRequest::read(0, 6, 4), t(0)).unwrap_err(),
            DriverError::CrossesBlockBoundary
        );
    }

    #[test]
    fn completions_progress_in_time() {
        let mut d = tiny_plain_driver();
        for i in 0..5u64 {
            d.submit(IoRequest::read(0, i * 8, 8), t(0)).unwrap();
        }
        let done = d.drain();
        assert_eq!(done.len(), 5);
        for w in done.windows(2) {
            assert!(w[1].completed > w[0].completed);
        }
        // First request dispatched immediately: zero queueing.
        assert_eq!(done[0].queueing(), SimDuration::ZERO);
        // Later ones queued.
        assert!(done[4].queueing() > SimDuration::ZERO);
    }

    #[test]
    fn bcopy_redirects_requests() {
        let mut d = tiny_rearranged_driver();
        // Write recognizable data to virtual block 3 (sectors 24..32).
        let payload = Arc::<[u8]>::from(vec![0x77; 4096]);
        d.submit(IoRequest::write(0, 24, 8, payload.clone()), t(0))
            .unwrap();
        d.drain();

        let reply = d
            .ioctl(Ioctl::BCopy { block: 3, slot: 0 }, t(1_000_000))
            .unwrap();
        match reply {
            IoctlReply::Moved { ops, busy } => {
                assert_eq!(ops, 3);
                assert!(busy > SimDuration::ZERO);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(d.block_table().len(), 1);

        // A read of block 3 must land in the reserved area and return the
        // same data.
        let layout = *d.layout().unwrap();
        d.submit(IoRequest::read(0, 24, 8), t(2_000_000)).unwrap();
        let done = d.drain();
        assert_eq!(done[0].data, payload);
        let slot_cyl = d.label().physical.cylinder_of(layout.slot_sector(0));
        // The slot lives inside the reserved region.
        assert!(d
            .label()
            .reserved
            .map(|r| r.contains_cylinder(slot_cyl))
            .unwrap_or(false));
    }

    #[test]
    fn write_to_rearranged_block_sets_dirty_and_clean_copies_home() {
        let mut d = tiny_rearranged_driver();
        let before = Arc::<[u8]>::from(vec![0x11; 4096]);
        let after = Arc::<[u8]>::from(vec![0x22; 4096]);
        d.submit(IoRequest::write(0, 40, 8, before), t(0)).unwrap();
        d.drain();
        d.ioctl(Ioctl::BCopy { block: 5, slot: 2 }, t(1_000_000))
            .unwrap();

        // Update the block through the driver: goes to the reserved copy.
        d.submit(IoRequest::write(0, 40, 8, after.clone()), t(2_000_000))
            .unwrap();
        d.drain();
        let spb = u64::from(d.sectors_per_block());
        let orig_phys = d.label().virtual_to_physical(40 - (40 % spb));
        assert!(d.block_table().lookup(orig_phys).unwrap().dirty);

        // Clean: the updated data must come home.
        d.ioctl(Ioctl::Clean, t(3_000_000)).unwrap();
        assert!(d.block_table().is_empty());
        d.submit(IoRequest::read(0, 40, 8), t(4_000_000)).unwrap();
        let done = d.drain();
        assert_eq!(done[0].data, after);
    }

    #[test]
    fn clean_costs_less_for_clean_blocks() {
        let mut d = tiny_rearranged_driver();
        d.ioctl(Ioctl::BCopy { block: 1, slot: 0 }, t(0)).unwrap();
        // Never written: clean-out should only update the table.
        let reply = d.ioctl(Ioctl::Clean, t(1_000_000)).unwrap();
        match reply {
            IoctlReply::Moved { ops, .. } => assert_eq!(ops, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bcopy_busy_when_requests_outstanding() {
        let mut d = tiny_rearranged_driver();
        d.submit(IoRequest::read(0, 0, 8), t(0)).unwrap();
        let err = d
            .ioctl(Ioctl::BCopy { block: 1, slot: 0 }, t(1))
            .unwrap_err();
        assert_eq!(err, DriverError::Busy);
    }

    #[test]
    fn bcopy_rejects_bad_slot_and_occupied_slot() {
        let mut d = tiny_rearranged_driver();
        let n_slots = d.layout().unwrap().n_slots;
        assert_eq!(
            d.ioctl(
                Ioctl::BCopy {
                    block: 1,
                    slot: n_slots
                },
                t(0)
            )
            .unwrap_err(),
            DriverError::BadSlot
        );
        d.ioctl(Ioctl::BCopy { block: 1, slot: 0 }, t(0)).unwrap();
        assert_eq!(
            d.ioctl(Ioctl::BCopy { block: 2, slot: 0 }, t(1_000_000))
                .unwrap_err(),
            DriverError::SlotOccupied
        );
    }

    #[test]
    fn plain_disk_rejects_block_movement() {
        let mut d = tiny_plain_driver();
        assert_eq!(
            d.ioctl(Ioctl::BCopy { block: 1, slot: 0 }, t(0))
                .unwrap_err(),
            DriverError::NotRearranged
        );
        assert_eq!(
            d.ioctl(Ioctl::Clean, t(0)).unwrap_err(),
            DriverError::NotRearranged
        );
    }

    #[test]
    fn request_monitor_via_ioctl() {
        let mut d = tiny_plain_driver();
        d.submit(IoRequest::read(0, 16, 8), t(0)).unwrap();
        d.submit(IoRequest::read(0, 16, 8), t(1000)).unwrap();
        d.drain();
        match d.ioctl(Ioctl::ReadRequestTable, t(1_000_000)).unwrap() {
            IoctlReply::RequestTable { records, dropped } => {
                assert_eq!(records.len(), 2);
                assert_eq!(dropped, 0);
                assert_eq!(records[0].block, 2); // sector 16 / 8 per block
            }
            other => panic!("unexpected {other:?}"),
        }
        // Cleared after read.
        match d.ioctl(Ioctl::ReadRequestTable, t(2_000_000)).unwrap() {
            IoctlReply::RequestTable { records, .. } => assert!(records.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn perf_stats_via_ioctl() {
        let mut d = tiny_plain_driver();
        for i in 0..10u64 {
            d.submit(IoRequest::read(0, (i % 4) * 8, 8), t(i * 50_000))
                .unwrap();
            d.drain();
        }
        match d.ioctl(Ioctl::ReadStats, t(10_000_000)).unwrap() {
            IoctlReply::Stats(s) => {
                assert_eq!(s.reads.service.count(), 10);
                assert_eq!(s.writes.service.count(), 0);
                assert!(s.reads.service.mean_ms() > 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn crash_recovery_preserves_dirty_data() {
        // Write data, rearrange the block, update it (dirty), then crash
        // WITHOUT cleaning. On re-attach all entries are marked dirty, so
        // a clean must copy the updated data home.
        let mut d = tiny_rearranged_driver();
        let v2 = Arc::<[u8]>::from(vec![0xEE; 4096]);
        d.submit(IoRequest::write_zeroes(0, 16, 8), t(0)).unwrap();
        d.drain();
        d.ioctl(Ioctl::BCopy { block: 2, slot: 1 }, t(1_000_000))
            .unwrap();
        d.submit(IoRequest::write(0, 16, 8, v2.clone()), t(2_000_000))
            .unwrap();
        d.drain();

        let disk = d.crash();
        let mut d2 = AdaptiveDriver::attach(disk, tiny_config()).unwrap();
        assert_eq!(d2.block_table().len(), 1);
        assert!(d2.block_table().iter().all(|(_, e)| e.dirty));
        d2.ioctl(Ioctl::Clean, t(10_000_000)).unwrap();
        d2.submit(IoRequest::read(0, 16, 8), t(11_000_000)).unwrap();
        let done = d2.drain();
        assert_eq!(done[0].data, v2);
    }

    #[test]
    fn raw_interface_splits_large_requests() {
        let mut d = tiny_plain_driver();
        // 20 sectors starting at sector 5 with 8-sector blocks:
        // [5..8) [8..16) [16..24) [24..25) -> 4 subrequests.
        let ids = d.submit_raw(IoDir::Read, 0, 5, 20, t(0)).unwrap();
        assert_eq!(ids.len(), 4);
        let done = d.drain();
        assert_eq!(done.len(), 4);
    }

    #[test]
    fn peek_stats_does_not_clear() {
        let mut d = tiny_plain_driver();
        d.submit(IoRequest::read(0, 0, 8), t(0)).unwrap();
        d.drain();
        match d.ioctl(Ioctl::PeekStats, t(1_000_000)).unwrap() {
            IoctlReply::Stats(s) => assert_eq!(s.reads.service.count(), 1),
            other => panic!("unexpected {other:?}"),
        }
        // Still there after the peek.
        match d.ioctl(Ioctl::PeekStats, t(2_000_000)).unwrap() {
            IoctlReply::Stats(s) => assert_eq!(s.reads.service.count(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arrival_distance_uses_pre_remap_addresses() {
        // The FCFS baseline must reflect original positions even for
        // remapped blocks (Table 3's "FCFS, no rearrangement" column).
        let mut d = tiny_rearranged_driver();
        // Alternate between two far-apart blocks.
        let far = (d.label().virtual_geometry().total_sectors() / 8) - 1;
        d.ioctl(Ioctl::BCopy { block: 0, slot: 0 }, t(0)).unwrap();
        d.ioctl(
            Ioctl::BCopy {
                block: far,
                slot: 1,
            },
            t(50_000_000),
        )
        .unwrap();
        let mut clk = 100_000_000u64;
        for _ in 0..10 {
            d.submit(IoRequest::read(0, 0, 8), t(clk)).unwrap();
            d.drain();
            clk += 1_000_000;
            d.submit(IoRequest::read(0, far * 8, 8), t(clk)).unwrap();
            d.drain();
            clk += 1_000_000;
        }
        match d.ioctl(Ioctl::ReadStats, t(clk)).unwrap() {
            IoctlReply::Stats(s) => {
                // Scheduled distances are tiny (both blocks in reserved);
                // arrival-order distances stay near full-stroke.
                assert!(s.reads.sched_seek.mean() < 3.0);
                assert!(
                    s.reads.arrival_seek.mean() > 50.0,
                    "arrival mean {}",
                    s.reads.arrival_seek.mean()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bevict_on_clean_block_is_table_only() {
        let mut d = tiny_rearranged_driver();
        d.ioctl(Ioctl::BCopy { block: 4, slot: 2 }, t(0)).unwrap();
        let spb = u64::from(d.sectors_per_block());
        let orig = d.label().virtual_to_physical(4 * spb);
        match d.ioctl(Ioctl::BEvict { orig }, t(60_000_000)).unwrap() {
            IoctlReply::Moved { ops, .. } => assert_eq!(ops, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(d.block_table().is_empty());
        // Evicting again errors.
        assert_eq!(
            d.ioctl(Ioctl::BEvict { orig }, t(120_000_000)).unwrap_err(),
            DriverError::NotResident
        );
    }

    #[test]
    fn raw_write_roundtrips_through_remap() {
        let mut d = tiny_rearranged_driver();
        d.ioctl(Ioctl::BCopy { block: 2, slot: 0 }, t(0)).unwrap();
        // Raw write of zeroes across blocks 1..3 (24 sectors from 8).
        d.submit_raw(IoDir::Write, 0, 8, 24, t(60_000_000)).unwrap();
        d.drain();
        // The remapped block's reserved copy went dirty.
        let spb = u64::from(d.sectors_per_block());
        let orig = d.label().virtual_to_physical(2 * spb);
        assert!(d.block_table().lookup(orig).unwrap().dirty);
        d.submit(IoRequest::read(0, 16, 8), t(120_000_000)).unwrap();
        assert!(d.drain()[0].data.iter().all(|&b| b == 0));
    }

    #[test]
    fn batch_submission_stays_causal() {
        // Submitting several future-dated requests before draining (the
        // batch pattern tests and replay use) must never dispatch a
        // request before it arrived: queueing times are non-negative and
        // dispatch order respects arrival availability.
        let mut d = tiny_plain_driver();
        // First request at t=0 occupies the disk; the rest arrive long
        // after it completes.
        d.submit(IoRequest::read(0, 0, 8), t(0)).unwrap();
        for i in 1..6u64 {
            d.submit(IoRequest::read(0, i * 8, 8), t(i * 1_000_000)) // 1 s apart
                .unwrap();
        }
        let done = d.drain();
        assert_eq!(done.len(), 6);
        for c in &done {
            assert!(
                c.dispatched >= c.arrived,
                "request dispatched before it arrived"
            );
            // The disk idles between these widely-spaced arrivals, so
            // each later request starts service the moment it arrives.
            assert_eq!(c.queueing(), SimDuration::ZERO);
        }
        // Completions are in arrival order here (no overlap).
        for w in done.windows(2) {
            assert!(w[1].completed > w[0].completed);
        }
    }

    #[test]
    fn cylinder_shuffle_preserves_data() {
        use crate::cylmap::CylinderMap;
        let mut d = tiny_plain_driver();
        let g = d.label().physical;
        // Distinct data in several cylinders (blocks 8 apart = 1 block
        // per cylinder region; 64 sectors/cyl = 8 blocks per cylinder).
        for c in 1..6u64 {
            let payload = Arc::<[u8]>::from(vec![c as u8; 4096]);
            d.submit(IoRequest::write(0, c * 64, 8, payload), t(c * 100_000))
                .unwrap();
            d.drain();
        }
        // Reverse the disk (cylinder 0, holding the label, stays pinned).
        let mut perm: Vec<u32> = vec![0];
        perm.extend((1..g.cylinders).rev());
        let map = CylinderMap::new(perm);
        let reply = d
            .ioctl(Ioctl::ShuffleCylinders { map }, t(10_000_000))
            .unwrap();
        match reply {
            IoctlReply::Moved { ops, busy } => {
                // Every written cylinder moved (plus cylinder 0 with the
                // label and whatever else): 2 ops per moved cylinder.
                assert!(ops >= 10);
                assert!(busy > SimDuration::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Reads through the map return the original data.
        for c in 1..6u64 {
            d.submit(IoRequest::read(0, c * 64, 8), t(100_000_000 + c * 100_000))
                .unwrap();
            let done = d.drain();
            assert!(
                done[0].data.iter().all(|&b| b == c as u8),
                "cylinder {c} data lost"
            );
        }
    }

    #[test]
    fn cylinder_shuffle_keeps_seeded_sectors_as_markers() {
        use crate::cylmap::CylinderMap;
        let mut d = tiny_plain_driver();
        for c in 1..6u64 {
            d.submit(IoRequest::write_seeded(0, c * 64, 8, c), t(c * 100_000))
                .unwrap();
            d.drain();
        }
        let g = d.label().physical;
        let cylinder = |d: &AdaptiveDriver, c: u32| {
            let mut buf = vec![0u8; g.sectors_per_cylinder() as usize * SECTOR_SIZE];
            d.disk().store().read(g.cylinder_start(c), &mut buf);
            buf
        };
        let before: Vec<_> = (0..g.cylinders).map(|c| cylinder(&d, c)).collect();
        let raw_pages = d.disk().store().raw_pages();
        let map = CylinderMap::new(std::iter::once(0).chain((1..g.cylinders).rev()).collect());
        d.ioctl(Ioctl::ShuffleCylinders { map: map.clone() }, t(10_000_000))
            .unwrap();
        assert_eq!(
            d.disk().store().raw_pages(),
            raw_pages,
            "moved sectors became raw"
        );
        for (v, bytes) in (0..).zip(&before) {
            assert!(
                cylinder(&d, map.physical(v)) == *bytes,
                "cylinder {v} changed"
            );
        }
    }

    #[test]
    fn cylinder_shuffle_straddling_block_reads_back() {
        use crate::cylmap::CylinderMap;
        // 4 KB blocks (8 sectors) tile 64-sector cylinders evenly on the
        // tiny disk, so force a straddle via the raw interface instead:
        // a 8-sector read at sector 60 spans cylinders 0 and 1.
        let mut d = tiny_plain_driver();
        let payload = Arc::<[u8]>::from(vec![0x3C; 4096]);
        // Write sectors 56..64 and 64..72 with distinct halves first.
        d.submit(IoRequest::write(0, 56, 8, payload), t(0)).unwrap();
        d.drain();
        let payload2 = Arc::<[u8]>::from(vec![0x4D; 4096]);
        d.submit(IoRequest::write(0, 64, 8, payload2), t(100_000))
            .unwrap();
        d.drain();
        let g = d.label().physical;
        let mut perm: Vec<u32> = vec![0];
        perm.extend((1..g.cylinders).rev());
        d.ioctl(
            Ioctl::ShuffleCylinders {
                map: CylinderMap::new(perm),
            },
            t(10_000_000),
        )
        .unwrap();
        // Raw read spanning the cylinder boundary (sectors 60..68): the
        // two halves live on opposite ends of the disk now.
        let ids = d.submit_raw(IoDir::Read, 0, 60, 8, t(100_000_000)).unwrap();
        let done = d.drain();
        assert_eq!(ids.len(), 2); // physio split at the 8-sector block grid
        assert!(done[0].data.iter().all(|&b| b == 0x3C));
        assert!(done[1].data.iter().all(|&b| b == 0x4D));
        let _ = g;
    }

    #[test]
    fn cylinder_shuffle_rejected_on_rearranged_disk() {
        use crate::cylmap::CylinderMap;
        let mut d = tiny_rearranged_driver();
        let g = d.label().physical;
        let err = d
            .ioctl(
                Ioctl::ShuffleCylinders {
                    map: CylinderMap::identity(g.cylinders),
                },
                t(0),
            )
            .unwrap_err();
        assert_eq!(err, DriverError::IncompatibleMode);
    }

    #[test]
    fn cylinder_shuffle_identity_is_free() {
        use crate::cylmap::CylinderMap;
        let mut d = tiny_plain_driver();
        let g = d.label().physical;
        match d
            .ioctl(
                Ioctl::ShuffleCylinders {
                    map: CylinderMap::identity(g.cylinders),
                },
                t(0),
            )
            .unwrap()
        {
            IoctlReply::Moved { ops, busy } => {
                assert_eq!(ops, 0);
                assert_eq!(busy, SimDuration::ZERO);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reshuffling_composes_correctly() {
        use crate::cylmap::CylinderMap;
        let mut d = tiny_plain_driver();
        let g = d.label().physical;
        let payload = Arc::<[u8]>::from(vec![0x99; 4096]);
        d.submit(IoRequest::write(0, 3 * 64, 8, payload), t(0))
            .unwrap();
        d.drain();
        // Shuffle twice with different permutations (cylinder 0 pinned);
        // data must follow.
        let mut rev: Vec<u32> = vec![0];
        rev.extend((1..g.cylinders).rev());
        d.ioctl(
            Ioctl::ShuffleCylinders {
                map: CylinderMap::new(rev),
            },
            t(10_000_000),
        )
        .unwrap();
        let mut rot: Vec<u32> = (1..g.cylinders).collect();
        rot.rotate_left(7);
        rot.insert(0, 0);
        d.ioctl(
            Ioctl::ShuffleCylinders {
                map: CylinderMap::new(rot),
            },
            t(400_000_000),
        )
        .unwrap();
        d.submit(IoRequest::read(0, 3 * 64, 8), t(800_000_000))
            .unwrap();
        assert!(d.drain()[0].data.iter().all(|&b| b == 0x99));
    }

    #[test]
    fn rearrangement_reduces_seek_distance() {
        // The headline mechanism: requests alternating between two distant
        // blocks become same-cylinder requests once both are rearranged.
        let mut d = tiny_rearranged_driver();
        let g = d.label().physical;
        // Two blocks at opposite ends of the virtual disk.
        let far_block = (d.label().virtual_geometry().total_sectors() / 8) - 1;
        let near = 0u64;
        let mut clk = 0u64;
        let run = |d: &mut AdaptiveDriver, clk: &mut u64| {
            for _ in 0..20 {
                d.submit(IoRequest::read(0, near * 8, 8), t(*clk)).unwrap();
                d.drain();
                *clk += 100_000;
                d.submit(IoRequest::read(0, far_block * 8, 8), t(*clk))
                    .unwrap();
                d.drain();
                *clk += 100_000;
            }
        };
        run(&mut d, &mut clk);
        let before = match d.ioctl(Ioctl::ReadStats, t(clk)).unwrap() {
            IoctlReply::Stats(s) => s.reads.sched_seek.mean(),
            _ => unreachable!(),
        };
        d.ioctl(
            Ioctl::BCopy {
                block: near,
                slot: 0,
            },
            t(clk),
        )
        .unwrap();
        clk += 1_000_000;
        d.ioctl(
            Ioctl::BCopy {
                block: far_block,
                slot: 1,
            },
            t(clk),
        )
        .unwrap();
        clk += 1_000_000;
        run(&mut d, &mut clk);
        let after = match d.ioctl(Ioctl::ReadStats, t(clk)).unwrap() {
            IoctlReply::Stats(s) => s.reads.sched_seek.mean(),
            _ => unreachable!(),
        };
        assert!(
            after < before / 10.0,
            "seek distance {after} not <<{before}"
        );
        let _ = g;
    }

    // ---- fault-path tests -------------------------------------------

    use abr_disk::fault::{FaultInjector, FaultPlan};
    use abr_sim::SimRng;

    fn injector(plan: FaultPlan, seed: u64) -> FaultInjector {
        FaultInjector::new(plan, SimRng::new(seed))
    }

    #[test]
    fn zero_fault_injector_is_bit_identical() {
        let mut plain = tiny_plain_driver();
        let mut faulty = tiny_plain_driver();
        faulty
            .disk_mut()
            .set_injector(Some(injector(FaultPlan::none(), 42)));
        let payload = Arc::<[u8]>::from(vec![0xAB; 4096]);
        for d in [&mut plain, &mut faulty] {
            d.submit(IoRequest::write(0, 8, 8, payload.clone()), t(0))
                .unwrap();
            for i in 0..6u64 {
                d.submit(IoRequest::read(0, (i * 24) % 96, 8), t(i * 400))
                    .unwrap();
            }
        }
        let a = plain.drain();
        let b = faulty.drain();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.breakdown, y.breakdown);
            assert_eq!(x.data, y.data);
            assert!(x.is_ok() && y.is_ok());
        }
    }

    #[test]
    fn transient_faults_are_retried_and_absorbed() {
        let mut d = tiny_plain_driver();
        let plan = FaultPlan {
            transient_read: 0.2,
            ..FaultPlan::none()
        };
        d.disk_mut().set_injector(Some(injector(plan, 7)));
        for i in 0..30u64 {
            d.submit(IoRequest::read(0, (i % 12) * 8, 8), t(i * 1_000))
                .unwrap();
        }
        let done = d.drain();
        assert!(done.iter().all(Completion::is_ok), "retries should absorb");
        let snap = match d.ioctl(Ioctl::ReadStats, t(1_000_000_000)).unwrap() {
            IoctlReply::Stats(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert!(snap.faults.retries > 0, "seeded run must draw transients");
        assert_eq!(snap.faults.read_failures, 0);
        assert_eq!(snap.reads.service.count(), 30);
    }

    #[test]
    fn media_error_fails_request_and_skips_service_stats() {
        let mut d = tiny_plain_driver();
        let bad = d.label().partitions[0].start_sector + 16;
        let phys = d.label().virtual_to_physical(bad);
        let mut inj = injector(FaultPlan::none(), 1);
        inj.add_defect(phys);
        d.disk_mut().set_injector(Some(inj));

        d.submit(IoRequest::read(0, 0, 8), t(0)).unwrap();
        d.submit(IoRequest::read(0, 16, 8), t(0)).unwrap();
        let done = d.drain();
        let failed: Vec<_> = done.iter().filter(|c| !c.is_ok()).collect();
        assert_eq!(failed.len(), 1);
        assert!(matches!(
            failed[0].error,
            Some(DriverError::Disk {
                fault: DiskFault::Media,
                ..
            })
        ));
        assert!(failed[0].data.is_empty(), "failed reads carry no data");
        let snap = match d.ioctl(Ioctl::ReadStats, t(1_000_000)).unwrap() {
            IoctlReply::Stats(s) => s,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(snap.faults.read_failures, 1);
        // Only the successful read contributes to service-time stats.
        assert_eq!(snap.reads.service.count(), 1);
    }

    #[test]
    fn media_error_on_slot_write_quarantines_slot() {
        let mut d = tiny_rearranged_driver();
        let layout = *d.layout().unwrap();
        let mut inj = injector(FaultPlan::none(), 1);
        inj.add_defect(layout.slot_sector(0));
        d.disk_mut().set_injector(Some(inj));

        let err = d
            .ioctl(Ioctl::BCopy { block: 1, slot: 0 }, t(0))
            .unwrap_err();
        assert!(matches!(
            err,
            DriverError::Disk {
                fault: DiskFault::Media,
                ..
            }
        ));
        assert!(d.block_table().is_empty(), "failed copy leaves no entry");
        assert!(d.quarantined_slots().any(|s| s == 0));
        // The bad slot is refused outright from now on.
        assert_eq!(
            d.ioctl(Ioctl::BCopy { block: 1, slot: 0 }, t(1_000_000))
                .unwrap_err(),
            DriverError::SlotQuarantined
        );
        // Healthy slots still work.
        d.ioctl(Ioctl::BCopy { block: 1, slot: 1 }, t(2_000_000))
            .unwrap();
        assert_eq!(d.block_table().len(), 1);
    }

    #[test]
    fn degraded_attach_serves_pass_through() {
        let mut d = tiny_rearranged_driver();
        let layout = *d.layout().unwrap();
        let payload = Arc::<[u8]>::from(vec![0x3C; 4096]);
        d.submit(IoRequest::write(0, 24, 8, payload.clone()), t(0))
            .unwrap();
        d.drain();
        // Clean copy in slot 0: home stays canonical.
        d.ioctl(Ioctl::BCopy { block: 3, slot: 0 }, t(1_000_000))
            .unwrap();

        // Clobber the whole table region (both copies) and re-attach.
        let mut disk = d.crash();
        let garbage = vec![0xFF; layout.table_sectors as usize * SECTOR_SIZE];
        disk.store_mut().write(layout.start_sector, &garbage);
        let mut d = AdaptiveDriver::attach(disk, tiny_config()).unwrap();
        assert!(d.is_degraded());
        assert!(d.block_table().is_empty());

        // Requests are served correctly at their original addresses.
        d.submit(IoRequest::read(0, 24, 8), t(2_000_000)).unwrap();
        let done = d.drain();
        assert!(done[0].is_ok());
        assert_eq!(done[0].data, payload);
        // Block movement is refused until reformatted.
        assert_eq!(
            d.ioctl(Ioctl::BCopy { block: 1, slot: 1 }, t(3_000_000))
                .unwrap_err(),
            DriverError::Degraded
        );
        assert_eq!(
            d.ioctl(Ioctl::Clean, t(3_000_000)).unwrap_err(),
            DriverError::Degraded
        );
    }

    #[test]
    fn lost_block_reads_fail_until_rewritten() {
        let mut d = tiny_rearranged_driver();
        let layout = *d.layout().unwrap();
        let old = Arc::<[u8]>::from(vec![0x11; 4096]);
        let new = Arc::<[u8]>::from(vec![0x22; 4096]);
        d.submit(IoRequest::write(0, 8, 8, old), t(0)).unwrap();
        d.drain();
        d.ioctl(Ioctl::BCopy { block: 1, slot: 0 }, t(1_000_000))
            .unwrap();
        // Dirty the reserved copy, then destroy it.
        d.submit(IoRequest::write(0, 8, 8, new.clone()), t(2_000_000))
            .unwrap();
        d.drain();
        let mut inj = injector(FaultPlan::none(), 1);
        inj.add_defect(layout.slot_sector(0));
        d.disk_mut().set_injector(Some(inj));

        // Clean-out hits the defect: the dirty copy is gone for good, the
        // slot is quarantined, and the pass still completes.
        d.ioctl(Ioctl::Clean, t(3_000_000)).unwrap();
        assert!(d.block_table().is_empty());
        assert!(d.quarantined_slots().any(|s| s == 0));
        assert_eq!(d.lost_blocks().count(), 1);

        // Reads of the lost block fail loudly rather than serving the
        // stale home copy...
        d.submit(IoRequest::read(0, 8, 8), t(4_000_000)).unwrap();
        let done = d.drain();
        assert_eq!(done[0].error, Some(DriverError::DataLoss));
        // ...until a full-block write refreshes it.
        d.submit(IoRequest::write(0, 8, 8, new.clone()), t(5_000_000))
            .unwrap();
        d.drain();
        assert_eq!(d.lost_blocks().count(), 0);
        d.submit(IoRequest::read(0, 8, 8), t(6_000_000)).unwrap();
        let done = d.drain();
        assert!(done[0].is_ok());
        assert_eq!(done[0].data, new);
    }

    #[test]
    fn failed_table_write_rolls_back_and_recovers() {
        let mut d = tiny_rearranged_driver();
        d.ioctl(Ioctl::BCopy { block: 1, slot: 0 }, t(0)).unwrap();
        // Cut power on the third device op of the next bcopy: the block
        // read and the slot write succeed, the table persist does not.
        let plan = FaultPlan {
            power_cut_after_ops: Some(2),
            ..FaultPlan::none()
        };
        d.disk_mut().set_injector(Some(injector(plan, 1)));
        let err = d
            .ioctl(Ioctl::BCopy { block: 2, slot: 1 }, t(1_000_000))
            .unwrap_err();
        assert!(matches!(
            err,
            DriverError::Disk {
                fault: DiskFault::PowerLoss,
                ..
            }
        ));
        // In-memory table rolled back to match the on-disk one.
        assert_eq!(d.block_table().len(), 1);

        // Power-cycle: recovery sees exactly the committed entry.
        let mut disk = d.crash();
        if let Some(inj) = disk.injector_mut() {
            inj.revive();
        }
        let d = AdaptiveDriver::attach(disk, tiny_config()).unwrap();
        assert!(!d.is_degraded());
        assert_eq!(d.block_table().len(), 1);
    }
}

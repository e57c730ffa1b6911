//! The volume: N adaptive drivers behind one block address space.
//!
//! [`ArrayVolume`] mirrors the `AdaptiveDriver` submit/complete surface
//! so the experiment loop drives a volume exactly like a single disk.
//! Incoming requests are mapped through the [`StripeMap`]
//! (single-block requests land wholly on one disk; the raw path splits
//! multi-block transfers into per-disk sub-requests), and completions
//! are merged back in simulated-time order.
//!
//! # Redundancy
//!
//! With a [`Redundancy`] scheme the volume also maintains copies
//! (mirror) or rotated parity (rotparity) and survives one whole-disk
//! failure without losing a block:
//!
//! * **Writes** fan out at submit time with *computed payloads*: the
//!   mirror copy carries the same payload, the parity update carries
//!   `parity ⊕ old ⊕ new` (old data and old parity come from
//!   [`AdaptiveDriver::peek_runs`], the simulator's stand-in for
//!   cache-resident data). Payloads are computed on what a write
//!   request carries, an `Arc<[Run]>` of sector forms (the run algebra
//!   is `abr_disk::store`'s), never on bytes or sector by sector: a
//!   seeded write stays a marker on its home member and its parity is
//!   one short list of markers per run. The data write
//!   is issued first, then the copy/parity write — on a crash the scrub
//!   repairs toward the data copy, so the ordering is the
//!   crash-consistency contract.
//! * **Reads** route around unavailable members at submit time (dead
//!   or failed disk, un-resilvered block, lost block, latent defect)
//!   and fail over at completion time if the member died with the read
//!   in flight: the read is re-issued on the rest of the block's
//!   redundancy group ([`StripeMap::group_at`]) — the mirror copy, or
//!   the surviving row of a parity group.
//! * **Resilvering** is tracked per disk as a `stale` set of disk
//!   blocks whose on-disk bytes no longer match the volume's logical
//!   contents (writes redirected while the member was down, or a blank
//!   replacement drive). The rebuild engine drains stale sets under a
//!   windowed [`IoBudget`], lowest disk first, lowest block first.
//! * **Scrubbing** sweeps redundancy groups during idle maintenance
//!   windows, remaps latent media defects, rewrites lost blocks from
//!   the surviving copy, and repairs mirror/parity mismatches.
//!
//! Determinism invariant: when several disks complete at the same
//! simulated instant, [`ArrayVolume::complete_next`] always retires the
//! lowest disk index first. Combined with the stateless stripe map and
//! pure sim-time maintenance scheduling this keeps every array run
//! byte-identical regardless of host threading. A volume with
//! `Redundancy::None` takes exactly the pre-redundancy code paths.

use crate::stripe::{Group, Redundancy, StripeMap, StripePolicy};
use abr_core::recovery::{IoBudget, MaintenanceConfig};
use abr_disk::store::{Form, Run, Term};
use abr_driver::request::IoDir;
use abr_driver::{AdaptiveDriver, BlockDevice, Completion, DriverError, IoRequest, RequestId};
use abr_obs::{with_registry, CounterId, GaugeId, HiresId};
use abr_sim::hash::FastMap;
use abr_sim::SimTime;
use std::cell::Cell;
use std::collections::{hash_map, BTreeSet, VecDeque};
use std::sync::Arc;

// The maintenance half (resilver, scrub, health): a second
// `impl ArrayVolume` over the same private state.
#[path = "maint.rs"]
mod maint;

/// Opaque identifier of a volume-level request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VolRequestId(pub u64);

/// A finished volume request: all of its per-disk sub-requests have
/// completed, merged in sim time.
#[derive(Debug, Clone)]
pub struct VolCompletion {
    /// The volume request's id.
    pub id: VolRequestId,
    /// When the volume accepted the request.
    pub arrived: SimTime,
    /// When the *last* sub-request completed.
    pub completed: SimTime,
    /// How many per-disk sub-requests the request was split into.
    pub n_subs: u32,
    /// The logical outcome. For redundant volumes a request only
    /// reports an error when the data itself was unserveable: a failed
    /// copy/parity write (or a failed-over read that a survivor
    /// served) completes clean and is repaired in the background.
    pub error: Option<DriverError>,
}

/// Health of one member disk, as reported by [`ArrayVolume::health`].
#[derive(Debug, Clone)]
pub struct DiskHealth {
    /// Disk index within the array.
    pub disk: u32,
    /// The disk is powered off (a `FaultPlan` power cut fired).
    pub dead: bool,
    /// The spindle died for good (whole-disk death); only replacement
    /// brings the slot back.
    pub failed: bool,
    /// The driver is in degraded pass-through mode (block table
    /// unreadable); rearrangement is disabled but I/O still flows.
    pub degraded: bool,
    /// The disk is serving but still re-silvering: redundancy has not
    /// yet been restored for `stale` of its blocks.
    pub rebuilding: bool,
    /// Quarantined reserved-area slots.
    pub quarantined: u32,
    /// Blocks whose freshest copy was lost to a hard error.
    pub lost: u32,
    /// Blocks currently placed in this disk's reserved area.
    pub placed: u32,
    /// Blocks whose on-disk bytes await re-silvering.
    pub stale: u32,
}

impl DiskHealth {
    /// A disk that needs operator attention: dead, failed, degraded,
    /// mid-rebuild, or with data loss.
    pub fn impaired(&self) -> bool {
        self.dead || self.failed || self.degraded || self.rebuilding || self.lost > 0
    }
}

/// Array-level health summary.
#[derive(Debug, Clone)]
pub struct ArrayHealth {
    /// Per-disk state, indexed by disk.
    pub disks: Vec<DiskHealth>,
}

impl ArrayHealth {
    /// Disks currently serving normally (not dead, not degraded).
    pub fn n_healthy(&self) -> usize {
        self.disks.iter().filter(|d| !d.dead && !d.degraded).count()
    }

    /// Disks that are powered off.
    pub fn n_dead(&self) -> usize {
        self.disks.iter().filter(|d| d.dead).count()
    }

    /// Disks whose spindle died for good (replacement required).
    pub fn n_failed(&self) -> usize {
        self.disks.iter().filter(|d| d.failed).count()
    }

    /// Disks serving but still re-silvering.
    pub fn n_rebuilding(&self) -> usize {
        self.disks.iter().filter(|d| d.rebuilding).count()
    }

    /// Disks in degraded pass-through mode.
    pub fn n_degraded(&self) -> usize {
        self.disks.iter().filter(|d| d.degraded).count()
    }

    /// Total lost blocks across the array.
    pub fn total_lost(&self) -> u64 {
        self.disks.iter().map(|d| u64::from(d.lost)).sum()
    }

    /// Total blocks awaiting re-silvering across the array.
    pub fn total_stale(&self) -> u64 {
        self.disks.iter().map(|d| u64::from(d.stale)).sum()
    }

    /// Whether every disk is serving normally with no data loss.
    pub fn is_fully_healthy(&self) -> bool {
        self.disks.iter().all(|d| !d.impaired())
    }
}

/// Redundancy bookkeeping carried by each user sub-request.
#[derive(Debug, Clone, Copy)]
enum RedSub {
    /// A read of `n_sectors` serving the piece at volume sector
    /// `vsector` (for completion-time failover). `retried`: no further
    /// failover — already the second attempt, or a reconstruction read.
    Read {
        vsector: u64,
        n_sectors: u32,
        retried: bool,
    },
    /// A data, copy or parity write of disk block `dblock` of its
    /// member.
    Write { dblock: u64 },
}

/// Why a background-maintenance sub-request was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MaintRole {
    /// Survivor read feeding a re-silver write.
    RebuildRead,
    /// Re-silver write of the named disk block.
    RebuildWrite(u64),
    /// Scrub verification read.
    ScrubRead,
    /// Scrub repair write of the named disk block.
    ScrubWrite(u64),
}

/// One outstanding member sub-request.
#[derive(Debug, Clone, Copy)]
enum Sub {
    /// Serves volume request `parent`, which is `None` for the orphans
    /// of a request a member rejected (see [`ArrayVolume::place`]).
    /// `red` is its redundancy bookkeeping (`None` on plain volumes).
    User {
        parent: Option<u64>,
        red: Option<RedSub>,
    },
    /// Background maintenance (rebuild/scrub) I/O; never surfaces to
    /// the user.
    Maint(MaintRole),
}

/// What a drained volume keeps of its bookkeeping tables, in entries:
/// room for a day's usual depth, not for a deeper burst.
const KEEP_ENTRIES: usize = 64;

/// Entries keyed by ids that a counter hands out in increasing order
/// and never reuses (a member's `RequestId`s, the volume's own): slot
/// `i` holds id `base + i`, from the oldest live id on, so a lookup is
/// an index and retiring the oldest entry trims the front.
#[derive(Debug)]
struct IdWindow<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
}

impl<T> IdWindow<T> {
    fn new() -> Self {
        let slots = VecDeque::new();
        IdWindow { base: 0, slots }
    }

    /// Record `id`, newer than every id recorded so far; the ids skipped
    /// on the way (issued to someone else) are empty slots.
    fn insert(&mut self, id: u64, entry: T) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let end = self.base + self.slots.len() as u64;
        assert!(id >= end, "id {id} recorded out of issue order");
        self.slots.resize_with((id - self.base) as usize, || None);
        self.slots.push_back(Some(entry));
    }

    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    #[cfg(any(test, feature = "sanitize"))]
    fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(self.index(id)?)?.as_ref()
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.index(id)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Take `id`'s entry out, trimming the empty slots at the front.
    fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.index(id)?;
        let entry = self.slots.get_mut(i)?.take();
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        entry
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Live entries, oldest first.
    #[cfg(any(test, feature = "sanitize"))]
    fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..)
            .zip(&self.slots)
            .filter_map(|(id, e)| Some((id, e.as_ref()?)))
    }

    /// Give back what a drained window holds beyond [`KEEP_ENTRIES`].
    fn shrink(&mut self) {
        self.slots.shrink_to(KEEP_ENTRIES);
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<T>>()
    }
}

/// One sub-request's routing decision, ready to submit.
struct Routed {
    disk: usize,
    req: IoRequest,
    red: Option<RedSub>,
    /// Full-block image to record as in-flight once submitted.
    pending_img: Option<Runs>,
}

/// What a block (or a span of one) holds: its runs of sector forms,
/// shared, as a write request carries them.
type Runs = Arc<[Run]>;

/// Reusable space for the volume's run arithmetic: a result is built
/// here and copied once into the list it becomes, so reading or XORing
/// a block allocates that list and nothing else.
#[derive(Debug, Default)]
struct Scratch {
    /// The result being built.
    runs: Vec<Run>,
    /// The term lists [`Form::xor_all`] merges.
    terms: Vec<Term>,
    /// One list per member of a group being read. Each member is read
    /// into its own: a read appends through [`Run::push_onto`], which
    /// would merge a member's first run into the last run of the one
    /// before.
    operands: Vec<Vec<Run>>,
}

/// Per-request bookkeeping while sub-requests are outstanding.
#[derive(Debug)]
struct Inflight {
    remaining: u32,
    n_subs: u32,
    arrived: SimTime,
    /// The first error among the request's subs. A request's subs all
    /// go one way, so for a redundant write it is the first failed
    /// replica/parity write, surfaced only if none `durable`.
    error: Option<DriverError>,
    /// Redundant writes: at least one replica/parity write landed, so
    /// the data is durable even if the primary write failed.
    durable: bool,
}

/// Registry handles for the `array.*` metric family.
struct ArrayObs {
    requests: CounterId,
    subrequests: CounterId,
    dead: GaugeId,
    degraded: GaugeId,
    lost: GaugeId,
    /// Volume-level request latency (accept → last sub-request done),
    /// the array's roll-up counterpart of `driver.service_us`.
    request_us: HiresId,
    per_disk: Vec<DiskObs>,
}

struct DiskObs {
    submitted: CounterId,
    completed: CounterId,
    failed: CounterId,
}

impl ArrayObs {
    fn resolve(n_disks: usize) -> Self {
        with_registry(|r| {
            let disks = r.gauge("array.disks");
            r.set_gauge(disks, n_disks as i64);
            ArrayObs {
                requests: r.counter("array.requests"),
                subrequests: r.counter("array.subrequests"),
                dead: r.gauge("array.disks.dead"),
                degraded: r.gauge("array.disks.degraded"),
                lost: r.gauge("array.blocks.lost"),
                request_us: r.hires("array.request_us"),
                per_disk: (0..n_disks)
                    .map(|i| DiskObs {
                        submitted: r.counter(&format!("array.disk.{i}.submitted")),
                        completed: r.counter(&format!("array.disk.{i}.completed")),
                        failed: r.counter(&format!("array.disk.{i}.failed")),
                    })
                    .collect(),
            }
        })
    }
}

/// Registry handles for the redundancy metric families
/// (`array.rebuild.*`, `array.scrub.*`); resolved only for redundant
/// volumes so plain arrays register exactly the pre-redundancy ids.
struct RedObs {
    reads_degraded: CounterId,
    read_failovers: CounterId,
    writes_redirected: CounterId,
    rebuild_blocks: CounterId,
    rebuild_ops: CounterId,
    rebuild_errors: CounterId,
    rebuild_pending: GaugeId,
    disks_rebuilding: GaugeId,
    scrub_groups: CounterId,
    scrub_repairs: CounterId,
    scrub_defects: CounterId,
    scrub_mismatches: CounterId,
}

impl RedObs {
    fn resolve() -> Self {
        with_registry(|r| RedObs {
            reads_degraded: r.counter("array.reads.degraded"),
            read_failovers: r.counter("array.reads.failover"),
            writes_redirected: r.counter("array.writes.redirected"),
            rebuild_blocks: r.counter("array.rebuild.blocks"),
            rebuild_ops: r.counter("array.rebuild.ops"),
            rebuild_errors: r.counter("array.rebuild.errors"),
            rebuild_pending: r.gauge("array.rebuild.pending"),
            disks_rebuilding: r.gauge("array.disks.rebuilding"),
            scrub_groups: r.counter("array.scrub.groups"),
            scrub_repairs: r.counter("array.scrub.repairs"),
            scrub_defects: r.counter("array.scrub.defects"),
            scrub_mismatches: r.counter("array.scrub.mismatches"),
        })
    }
}

/// Background-maintenance state for a redundant volume.
struct MaintState {
    cfg: MaintenanceConfig,
    budget: IoBudget,
    /// Scrub sweep position (group index, wraps).
    scrub_cursor: u64,
    obs: RedObs,
}

/// Plain per-disk I/O tallies, independent of the registry, for tests
/// and reports that need exact counts from a specific volume instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskIoCounts {
    /// Sub-requests submitted to this disk.
    pub submitted: u64,
    /// Sub-requests that completed successfully.
    pub completed: u64,
    /// Sub-requests that completed with an error.
    pub failed: u64,
}

/// N adaptive drivers behind one block address space.
pub struct ArrayVolume {
    disks: Vec<AdaptiveDriver>,
    map: StripeMap,
    next_id: u64,
    /// Per member: every outstanding sub-request, user and maintenance.
    /// These windows, `inflight` and `pending` are keyed lookups only
    /// (completion order is driven by the sorted member queues), and
    /// shrink to [`KEEP_ENTRIES`] whenever the volume drains.
    subs: Vec<IdWindow<Sub>>,
    /// Admitted volume requests with sub-requests outstanding.
    inflight: IdWindow<Inflight>,
    /// Per disk: blocks whose on-disk bytes await re-silvering.
    stale: Vec<BTreeSet<u64>>,
    /// Submitted-but-not-yet-dispatched write images, keyed by
    /// `(disk, dblock)`: what the block will hold once the tagged
    /// request dispatches. Parity math and scrubbing read through this
    /// so queued writes are never double-counted.
    pending: FastMap<(usize, u64), (RequestId, Runs)>,
    /// Taken and put back around each use, so `&self` readers can build
    /// images in it.
    scratch: Cell<Scratch>,
    maint: Option<MaintState>,
    io_counts: Vec<DiskIoCounts>,
    /// Volume-level requests that finished clean / with an error.
    req_ok: u64,
    req_failed: u64,
    obs: ArrayObs,
}

impl std::fmt::Debug for ArrayVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrayVolume")
            .field("n_disks", &self.disks.len())
            .field("policy", &self.map.policy())
            .field("redundancy", &self.map.redundancy())
            .field("vol_sectors", &self.map.vol_sectors())
            .finish_non_exhaustive()
    }
}

impl ArrayVolume {
    /// Assemble a redundancy-free volume from identically-formatted
    /// member drivers.
    ///
    /// Each driver's disk index is stamped so its request spans and
    /// metrics carry the per-disk label dimension.
    ///
    /// # Panics
    /// If `disks` is empty or the members disagree on partition size or
    /// block size (heterogeneous arrays are out of scope).
    pub fn new(disks: Vec<AdaptiveDriver>, policy: StripePolicy) -> Self {
        Self::with_redundancy(
            disks,
            policy,
            Redundancy::None,
            MaintenanceConfig::default(),
        )
    }

    /// Assemble a volume with an explicit redundancy scheme and
    /// maintenance knobs (ignored for `Redundancy::None`).
    ///
    /// # Panics
    /// On the constraints of [`Self::new`] plus the scheme's member
    /// count requirements (see [`StripeMap::new_redundant`]).
    pub fn with_redundancy(
        mut disks: Vec<AdaptiveDriver>,
        policy: StripePolicy,
        redundancy: Redundancy,
        maint_cfg: MaintenanceConfig,
    ) -> Self {
        assert!(!disks.is_empty(), "a volume needs at least one disk");
        let per_disk_sectors = disks[0].label().partitions[0].n_sectors;
        let spb = disks[0].sectors_per_block();
        for (i, d) in disks.iter_mut().enumerate() {
            assert_eq!(
                d.label().partitions[0].n_sectors,
                per_disk_sectors,
                "disk {i} partition size differs"
            );
            assert_eq!(d.sectors_per_block(), spb, "disk {i} block size differs");
            d.set_disk_index(i as u32);
        }
        let map = StripeMap::new_redundant(policy, redundancy, disks.len(), per_disk_sectors, spb);
        #[cfg(feature = "sanitize")]
        if let Err(e) = map.check_chunk_permutation() {
            panic!("stripe map is not a chunk permutation: {e}");
        }
        let obs = ArrayObs::resolve(disks.len());
        let n = disks.len();
        let maint = redundancy.is_redundant().then(|| MaintState {
            cfg: maint_cfg,
            budget: IoBudget::new(maint_cfg.period, maint_cfg.rebuild_ops_per_window),
            scrub_cursor: 0,
            obs: RedObs::resolve(),
        });
        let mut vol = ArrayVolume {
            disks,
            map,
            next_id: 0,
            subs: (0..n).map(|_| IdWindow::new()).collect(),
            inflight: IdWindow::new(),
            stale: vec![BTreeSet::new(); n],
            pending: FastMap::default(),
            scratch: Cell::default(),
            maint,
            io_counts: vec![DiskIoCounts::default(); n],
            req_ok: 0,
            req_failed: 0,
            obs,
        };
        vol.init_parity();
        vol
    }

    /// Array creation: consistent parity for every row — the
    /// simulator's stand-in for the parity build a real array does at
    /// `mkraid` time. Untimed store writes, exactly like formatting;
    /// freshly formatted members carry identical metadata in their
    /// content blocks, so without this step the parity identity would
    /// start out violated. A row of blank blocks has blank parity:
    /// nothing is written for it.
    fn init_parity(&mut self) {
        if self.redundancy() != Redundancy::RotParity {
            return;
        }
        let spb = self.map.sectors_per_block();
        for index in 0..self.map.n_groups() {
            let group = self.map.group(index);
            let Some((&(pd, pdb), data)) = group.split_last() else {
                continue;
            };
            #[expect(clippy::expect_used, reason = "a fresh member has no lost blocks")]
            let parity = self.xor_of(data).expect("fresh member has no lost blocks");
            if parity.iter().all(|run| run.base == Form::Zero) {
                continue;
            }
            #[expect(clippy::expect_used, reason = "every parity block is in range")]
            let segs = self.disks[pd]
                .physical_segments(0, pdb * spb, spb as u32)
                .expect("parity block in range");
            let store = self.disks[pd].disk_mut().store_mut();
            let mut at = 0;
            for &(s, len) in segs.iter() {
                store.write_runs(s, Run::slice_of(&parity, at, len));
                at += len;
            }
        }
    }

    /// The stripe map in force.
    pub fn map(&self) -> &StripeMap {
        &self.map
    }

    /// The redundancy scheme in force.
    pub fn redundancy(&self) -> Redundancy {
        self.map.redundancy()
    }

    /// Number of member disks.
    pub fn n_disks(&self) -> usize {
        self.disks.len()
    }

    /// Total sectors the volume exposes (partition 0 of the array).
    pub fn vol_sectors(&self) -> u64 {
        self.map.vol_sectors()
    }

    /// A member driver.
    pub fn disk(&self, i: usize) -> &AdaptiveDriver {
        &self.disks[i]
    }

    /// A member driver, mutably — for the per-disk rearrangement
    /// daemons and fault-plan installation.
    pub fn disk_mut(&mut self, i: usize) -> &mut AdaptiveDriver {
        &mut self.disks[i]
    }

    /// Exact per-disk sub-request tallies for this volume instance.
    pub fn io_counts(&self, i: usize) -> DiskIoCounts {
        self.io_counts[i]
    }

    /// Whether member `i` cannot serve timed I/O at `now`: its spindle
    /// failed, its power is cut, or a scheduled death/cut time has
    /// passed (the injector flag flips lazily on the next op, so the
    /// schedule is consulted directly to keep routing deterministic).
    pub fn disk_down(&self, i: usize, now: SimTime) -> bool {
        self.disks[i].disk().injector().is_some_and(|inj| {
            inj.is_dead()
                || inj.is_failed()
                || inj.plan().disk_death_at.is_some_and(|t| now >= t)
                || inj.plan().power_cut_at.is_some_and(|t| now >= t)
        })
    }

    /// Blocks still awaiting re-silvering on member `i`.
    pub fn stale_blocks(&self, i: usize) -> usize {
        self.stale[i].len()
    }

    /// Total blocks awaiting re-silvering across the array.
    pub fn rebuild_pending(&self) -> usize {
        self.stale.iter().map(|s| s.len()).sum()
    }

    /// Lifetime `(completed_clean, completed_with_error)` volume
    /// request tallies — the user-visible availability figure.
    pub fn request_outcomes(&self) -> (u64, u64) {
        (self.req_ok, self.req_failed)
    }

    /// The transfer length of disk block `dblock` (a full block, or
    /// the partition's partial tail on an identity-mapped member).
    fn block_span(&self, disk: usize, dblock: u64) -> u32 {
        let spb = self.map.sectors_per_block();
        let part = self.disks[disk].label().partitions[0].n_sectors;
        ((part - dblock * spb).min(spb)) as u32
    }

    /// What the block currently holds on one member: the queued write
    /// image if one is in flight, else the backing store (`None` for a
    /// lost block). *Not* redundancy-aware — see [`Self::logical_block`].
    fn block_image(&self, disk: usize, dblock: u64) -> Option<Runs> {
        if let Some((_, img)) = self.pending.get(&(disk, dblock)) {
            return Some(Arc::clone(img));
        }
        self.with_scratch(|s| {
            s.runs.clear();
            self.read_block(disk, dblock, &mut s.runs).ok()?;
            Some(s.runs.drain(..).collect())
        })
    }

    /// [`Self::block_image`], appended to `runs`.
    fn read_block(&self, disk: usize, dblock: u64, runs: &mut Vec<Run>) -> Result<(), DriverError> {
        if let Some((_, img)) = self.pending.get(&(disk, dblock)) {
            runs.extend_from_slice(img);
            return Ok(());
        }
        let spb = self.map.sectors_per_block();
        let span = self.block_span(disk, dblock);
        self.disks[disk].peek_runs_into(0, dblock * spb, span, runs)
    }

    /// Run `f` on the volume's scratch space.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        let mut scratch = self.scratch.take();
        let out = f(&mut scratch);
        self.scratch.set(scratch);
        out
    }

    /// The other members of the redundancy group of `(disk, dblock)`:
    /// by the group invariant their XOR is what the block holds, or
    /// should hold. `None` when nothing protects the slot.
    fn rest_of_group(&self, disk: usize, dblock: u64) -> Option<Group> {
        Some(self.map.group_at(disk, dblock)?.without((disk, dblock)))
    }

    /// XOR of what `members` currently hold — the content of the one
    /// member missing from their group. `None` when a member is stale or
    /// unreadable: a second failure, beyond single redundancy.
    fn xor_of(&self, members: &[(usize, u64)]) -> Option<Runs> {
        self.on_group(members, Run::xor_into).ok()
    }

    /// Whether `xor_of(members)` is zero, judged on the runs without
    /// building it and at the first stretch that is not. `Err` names the
    /// member that cannot be read (stale or lost) when it is the only
    /// one, and is `Err(None)` when two or more cannot.
    fn group_cancels(&self, members: &[(usize, u64)]) -> Result<bool, Option<(usize, u64)>> {
        self.on_group(members, |operands, terms, _| {
            Run::xor_stretches(operands, terms, |run| run.is_zero())
        })
    }

    /// `f` of what `members` hold, each read into its own operand list,
    /// and of the scratch's term and run lists; see
    /// [`Self::group_cancels`] for the error.
    fn on_group<R>(
        &self,
        members: &[(usize, u64)],
        f: impl FnOnce(&[Vec<Run>], &mut Vec<Term>, &mut Vec<Run>) -> R,
    ) -> Result<R, Option<(usize, u64)>> {
        self.with_scratch(|s| {
            if s.operands.len() < members.len() {
                s.operands.resize_with(members.len(), Vec::new);
            }
            let operands = &mut s.operands[..members.len()];
            let unread = |(&(d, db), list): (&(usize, u64), &mut Vec<Run>)| {
                list.clear();
                let read = !self.stale[d].contains(&db) && self.read_block(d, db, list).is_ok();
                (!read).then_some((d, db))
            };
            let mut unread = members.iter().zip(operands.iter_mut()).filter_map(unread);
            match (unread.next(), unread.next()) {
                (None, _) => Ok(f(operands, &mut s.terms, &mut s.runs)),
                (lost, None) => Err(lost),
                _ => Err(None),
            }
        })
    }

    /// The *logical* contents of volume block `vblock`: its home copy
    /// when current, else the XOR of the rest of its redundancy group
    /// (the mirror copy; the parity reconstruction). `None` only when
    /// redundancy cannot cover the block (multiple failures).
    fn logical_block(&self, vblock: u64) -> Option<Runs> {
        let (d, db) = self.map.map_block(vblock);
        if !self.stale[d].contains(&db) {
            if let Some(b) = self.block_image(d, db) {
                return Some(b);
            }
        }
        self.xor_of(&self.rest_of_group(d, db)?)
    }

    /// Whether a timed read of `[sector, sector+n)` on member `disk`
    /// would serve the volume's current data: the member is up, the
    /// block is resilvered, not lost, and its physical home has no
    /// latent defect.
    fn read_usable(&self, disk: usize, sector: u64, n: u32, now: SimTime) -> bool {
        if self.disk_down(disk, now) {
            return false;
        }
        let dblock = sector / self.map.sectors_per_block();
        if self.stale[disk].contains(&dblock) {
            return false;
        }
        let drv = &self.disks[disk];
        if drv.block_is_lost(0, sector) {
            return false;
        }
        if let (Ok(segs), Some(inj)) = (drv.physical_segments(0, sector, n), drv.disk().injector())
        {
            if segs.iter().any(|&(s, len)| inj.overlaps_defect(s, len)) {
                return false;
            }
        }
        true
    }

    /// Route one block-contained piece into member sub-requests.
    /// Plain volumes produce exactly the historical single sub.
    fn route_piece(&mut self, req: &IoRequest, now: SimTime) -> Vec<Routed> {
        let (disk, sector) = self.map.map_sector(req.sector_in_partition);
        if !self.redundancy().is_redundant() {
            return vec![Routed {
                disk,
                req: IoRequest {
                    sector_in_partition: sector,
                    ..req.clone()
                },
                red: None,
                pending_img: None,
            }];
        }
        match req.dir {
            IoDir::Read => self.route_read(req, disk, sector, now),
            IoDir::Write => self.route_write(req, disk, sector, now),
        }
    }

    /// A read sub of `n` sectors at `sector` of member `disk`, serving
    /// the piece at volume sector `vsector`.
    fn read_sub(&self, disk: usize, sector: u64, vsector: u64, n: u32, retried: bool) -> Routed {
        Routed {
            disk,
            req: IoRequest::read(0, sector, n),
            red: Some(RedSub::Read {
                vsector,
                n_sectors: n,
                retried,
            }),
            pending_img: None,
        }
    }

    /// The survivor route of the piece at `vsector`: one read per other
    /// member of its home's redundancy group (their XOR is the data; the
    /// request completes when all are in). Empty when a survivor cannot
    /// serve its share — the caller decides what that means.
    fn survivor_route(&self, vsector: u64, n: u32, now: SimTime) -> Vec<Routed> {
        let spb = self.map.sectors_per_block();
        let (disk, sector) = self.map.map_sector(vsector);
        let off = sector % spb;
        let rest = self.rest_of_group(disk, sector / spb).unwrap_or_default();
        if !rest
            .iter()
            .all(|&(d, db)| self.read_usable(d, db * spb + off, n, now))
        {
            return Vec::new();
        }
        rest.iter()
            .map(|&(d, db)| self.read_sub(d, db * spb + off, vsector, n, true))
            .collect()
    }

    fn route_read(
        &mut self,
        req: &IoRequest,
        disk: usize,
        sector: u64,
        now: SimTime,
    ) -> Vec<Routed> {
        let (vsector, n) = (req.sector_in_partition, req.n_sectors);
        if self.read_usable(disk, sector, n, now) {
            return vec![self.read_sub(disk, sector, vsector, n, false)];
        }
        if let Some(m) = &self.maint {
            with_registry(|r| r.inc(m.obs.reads_degraded, 1));
        }
        let route = self.survivor_route(vsector, n, now);
        if route.is_empty() {
            // No survivor: surface the failure on the primary.
            return vec![self.read_sub(disk, sector, vsector, n, true)];
        }
        route
    }

    fn route_write(
        &mut self,
        req: &IoRequest,
        disk: usize,
        sector: u64,
        now: SimTime,
    ) -> Vec<Routed> {
        // What the write stores (parity deltas, pending write images);
        // no bytes are produced for it.
        let new = req.payload_runs();
        let spb = self.map.sectors_per_block();
        let dblock = sector / spb;
        let off = (sector % spb) as u32;
        let n = req.n_sectors;
        let vblock = req.sector_in_partition / spb;
        let span = self.block_span(disk, dblock);
        let full = off == 0 && n == span;
        let mut out = Vec::new();
        let mut redirected = 0u64;

        // Write targets: the data home plus the scheme's redundancy
        // location, each with its payload computed up front.
        match self.redundancy() {
            Redundancy::Mirror => {
                let partner = self.map.mirror_partner(disk);
                for target in [disk, partner] {
                    if self.disk_down(target, now) {
                        self.stale[target].insert(dblock);
                        redirected += 1;
                        continue;
                    }
                    if let Some(r) = self.data_write_sub(target, dblock, off, full, &new, req) {
                        out.push(r);
                    } else {
                        redirected += 1;
                    }
                }
            }
            Redundancy::RotParity => {
                // Old data *logical* span, captured before any state
                // changes (a redirected write below marks the block
                // stale, which would flip this to the reconstruction
                // path and double-apply the parity delta).
                let old_block = self.logical_block(vblock);
                if self.disk_down(disk, now) {
                    self.stale[disk].insert(dblock);
                    redirected += 1;
                } else if let Some(r) = self.data_write_sub(disk, dblock, off, full, &new, req) {
                    out.push(r);
                } else {
                    redirected += 1;
                }
                match self.parity_write_sub(vblock, off, &new, old_block, now) {
                    Some(r) => out.push(r),
                    None => redirected += 1,
                }
            }
            Redundancy::None => unreachable!("routed earlier"),
        }
        if let (Some(m), true) = (&self.maint, redirected > 0) {
            with_registry(|r| r.inc(m.obs.writes_redirected, redirected));
        }
        if out.is_empty() {
            // Every target is down: submit to the data home anyway so
            // the failure surfaces instead of silently vanishing.
            out.push(Routed {
                disk,
                req: IoRequest {
                    sector_in_partition: sector,
                    ..req.clone()
                },
                red: Some(RedSub::Write { dblock }),
                pending_img: None,
            });
        }
        out
    }

    /// A data or mirror-copy write sub for `payload` at block `dblock`
    /// of an *up* member. A partial write to a stale block is promoted
    /// to a full-block write of the logical image (re-silvering it in
    /// passing); returns `None` when the promotion source is
    /// unavailable (block stays stale).
    fn data_write_sub(
        &mut self,
        target: usize,
        dblock: u64,
        off: u32,
        full: bool,
        payload: &Runs,
        req: &IoRequest,
    ) -> Option<Routed> {
        let spb = self.map.sectors_per_block();
        let vblock = req.sector_in_partition / spb;
        let red = RedSub::Write { dblock };
        if self.stale[target].contains(&dblock) && !full {
            // Promote: overlay the payload on the logical image and
            // rewrite the whole block.
            let img = Run::overlay(&self.logical_block(vblock)?, off, payload);
            self.stale[target].remove(&dblock);
            return Some(Routed {
                disk: target,
                req: IoRequest::write_runs(0, dblock * spb, Arc::clone(&img)),
                red: Some(red),
                pending_img: Some(img),
            });
        }
        if full {
            self.stale[target].remove(&dblock);
        }
        // In-flight image: the block's current contents with the payload
        // overlaid (whole payload for a full write).
        let pending_img = if full {
            Some(Arc::clone(payload))
        } else {
            // A partial write over a lost block: image unknowable.
            let held = self.block_image(target, dblock);
            held.map(|img| Run::overlay(&img, off, payload))
        };
        Some(Routed {
            disk: target,
            req: IoRequest {
                sector_in_partition: dblock * spb + u64::from(off),
                ..req.clone()
            },
            red: Some(red),
            pending_img,
        })
    }

    /// The parity-update write for a data write to `vblock`:
    /// `parity_new = parity_old ⊕ data_old ⊕ data_new` over the written
    /// span, or a full parity rebuild when the old parity is stale or
    /// unreadable. Returns `None` (parity marked stale) when the parity
    /// member is down or the sources are unavailable.
    fn parity_write_sub(
        &mut self,
        vblock: u64,
        off: u32,
        payload: &Runs,
        old_block: Option<Runs>,
        now: SimTime,
    ) -> Option<Routed> {
        let spb = self.map.sectors_per_block();
        let n = Run::sectors(payload);
        let (pd, pdb) = self.map.parity_location(vblock);
        if self.disk_down(pd, now) {
            self.stale[pd].insert(pdb);
            return None;
        }
        let red = RedSub::Write { dblock: pdb };
        let delta = (|| {
            if self.stale[pd].contains(&pdb) {
                return None;
            }
            let old = old_block.as_ref()?;
            let parity_old = self.block_image(pd, pdb)?;
            let operands = [
                Run::slice(&parity_old, off, n),
                Run::slice(old, off, n),
                Arc::clone(payload),
            ];
            let span = self.with_scratch(|s| Run::xor_into(&operands, &mut s.terms, &mut s.runs));
            // In-flight image of the whole parity block.
            let img = Run::overlay(&parity_old, off, &span);
            Some((span, img))
        })();
        if let Some((span, img)) = delta {
            return Some(Routed {
                disk: pd,
                req: IoRequest::write_runs(0, pdb * spb + u64::from(off), span),
                red: Some(red),
                pending_img: Some(img),
            });
        }
        // Full parity rebuild: XOR the whole row's logical data, with
        // the new payload overlaid on its own block.
        let own = match self.logical_block(vblock) {
            Some(img) => Run::overlay(&img, off, payload),
            None if off == 0 && u64::from(n) == spb => Arc::clone(payload),
            None => {
                self.stale[pd].insert(pdb);
                return None;
            }
        };
        let mut images = vec![own];
        let home = self.map.map_block(vblock);
        let row = self.rest_of_group(pd, pdb).unwrap_or_default();
        for &(peer_d, peer_db) in row.iter().filter(|&&m| m != home) {
            let peer = self.map.vblock_at(peer_d, peer_db);
            match peer.and_then(|vb| self.logical_block(vb)) {
                Some(b) => images.push(b),
                None => {
                    self.stale[pd].insert(pdb);
                    return None;
                }
            }
        }
        let parity = self.with_scratch(|s| Run::xor_into(&images, &mut s.terms, &mut s.runs));
        self.stale[pd].remove(&pdb);
        Some(Routed {
            disk: pd,
            req: IoRequest::write_runs(0, pdb * spb, Arc::clone(&parity)),
            red: Some(red),
            pending_img: Some(parity),
        })
    }

    /// Submit a block-interface request against the volume's address
    /// space. Like the single-disk driver, the request must not cross a
    /// file-system block boundary — which guarantees it maps onto
    /// exactly one member disk (its redundancy fan-out may touch more).
    pub fn submit(&mut self, req: IoRequest, now: SimTime) -> Result<VolRequestId, DriverError> {
        if req.partition != 0 {
            return Err(DriverError::BadPartition);
        }
        if req.n_sectors == 0 {
            return Err(DriverError::EmptyTransfer);
        }
        let end = req
            .sector_in_partition
            .checked_add(u64::from(req.n_sectors))
            .ok_or(DriverError::OutOfPartition)?;
        if end > self.map.vol_sectors() {
            return Err(DriverError::OutOfPartition);
        }
        let routed = self.route_piece(&req, now);
        let mut placed = Vec::with_capacity(routed.len());
        self.place(routed, self.next_id, now, &mut placed)?;
        Ok(self.admit(now, &placed))
    }

    /// Submit routed subs to their members for volume request `vol`,
    /// recording each with its pending write image and appending it to
    /// `placed`. When a member rejects a sub up front (it never reached
    /// a queue), every sub in `placed` is orphaned: it keeps its
    /// redundancy bookkeeping until it completes (image retired, block
    /// marked stale on failure) but has no parent.
    fn place(
        &mut self,
        routed: Vec<Routed>,
        vol: u64,
        now: SimTime,
        placed: &mut Vec<(usize, RequestId)>,
    ) -> Result<(), DriverError> {
        let mut rejected = None;
        for r in routed {
            let id = match self.disks[r.disk].submit(r.req, now) {
                Ok(id) => id,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            };
            let parent = Some(vol);
            self.subs[r.disk].insert(id.0, Sub::User { parent, red: r.red });
            if let (Some(RedSub::Write { dblock }), Some(img)) = (r.red, r.pending_img) {
                self.pending.insert((r.disk, dblock), (id, img));
            }
            placed.push((r.disk, id));
        }
        let Some(e) = rejected else { return Ok(()) };
        for &(disk, id) in placed.iter() {
            if let Some(Sub::User { parent, .. }) = self.subs[disk].get_mut(id.0) {
                *parent = None;
            }
        }
        Err(e)
    }

    /// Submit a raw transfer of `n_sectors` starting at `sector`,
    /// splitting it into one sub-request per file-system block (the
    /// same split the single-disk driver's raw path performs) and
    /// fanning the pieces out to their home disks.
    pub fn submit_raw(
        &mut self,
        dir: IoDir,
        sector: u64,
        n_sectors: u32,
        now: SimTime,
    ) -> Result<VolRequestId, DriverError> {
        if n_sectors == 0 {
            return Err(DriverError::EmptyTransfer);
        }
        let end = sector
            .checked_add(u64::from(n_sectors))
            .ok_or(DriverError::OutOfPartition)?;
        if end > self.map.vol_sectors() {
            return Err(DriverError::OutOfPartition);
        }
        let spb = self.map.sectors_per_block() as u32;
        let mut placed = Vec::new();
        for (s, n) in abr_driver::physio::split(sector, n_sectors, spb) {
            let piece = match dir {
                IoDir::Read => IoRequest::read(0, s, n),
                IoDir::Write => IoRequest::write_zeroes(0, s, n),
            };
            let routed = self.route_piece(&piece, now);
            // A rejected piece orphans the accepted ones (see `place`).
            self.place(routed, self.next_id, now, &mut placed)?;
        }
        Ok(self.admit(now, &placed))
    }

    /// Record an accepted request and its sub-requests.
    fn admit(&mut self, now: SimTime, placed: &[(usize, RequestId)]) -> VolRequestId {
        let vol = self.next_id;
        self.next_id += 1;
        let n_subs = placed.len() as u32;
        for &(disk, _) in placed {
            self.io_counts[disk].submitted += 1;
            with_registry(|r| {
                r.inc(self.obs.per_disk[disk].submitted, 1);
                r.inc(self.obs.subrequests, 1);
            });
        }
        with_registry(|r| r.inc(self.obs.requests, 1));
        self.inflight.insert(
            vol,
            Inflight {
                remaining: n_subs,
                n_subs,
                arrived: now,
                error: None,
                durable: false,
            },
        );
        VolRequestId(vol)
    }

    /// When the next sub-request anywhere in the array will complete.
    /// Idle disks with queued work dispatch here, exactly like the
    /// single-disk driver's `next_completion`.
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.disks
            .iter_mut()
            .filter_map(|d| d.next_completion())
            .min()
    }

    /// Retire the sub-request completing at `now` (ties broken by
    /// lowest disk index). Returns the volume-level completion if this
    /// was its request's last outstanding piece (maintenance I/O and
    /// failed-over reads never surface here).
    ///
    /// # Panics
    /// If no disk has a completion at exactly `now` — same contract as
    /// the single-disk driver.
    pub fn complete_next(&mut self, now: SimTime) -> Option<VolCompletion> {
        #[expect(clippy::expect_used, reason = "the documented `# Panics` contract")]
        let disk = (0..self.disks.len())
            .find(|&i| self.disks[i].next_completion() == Some(now))
            .expect("no completion at this time");
        let c = self.disks[disk].complete_next(now);
        if c.error.is_none() {
            self.io_counts[disk].completed += 1;
            with_registry(|r| r.inc(self.obs.per_disk[disk].completed, 1));
        } else {
            self.io_counts[disk].failed += 1;
            with_registry(|r| r.inc(self.obs.per_disk[disk].failed, 1));
        }
        let done = match self.subs[disk].remove(c.id.0) {
            Some(Sub::User { parent, red }) => self.finish_user(disk, c, parent, red, now),
            Some(Sub::Maint(role)) => {
                self.finish_maint(disk, role, c.id, c.error);
                None
            }
            None => None,
        };
        if self.subs.iter().all(IdWindow::is_empty) {
            // Drained: every image and request retired with its subs.
            self.subs.iter_mut().for_each(IdWindow::shrink);
            self.inflight.shrink();
            self.pending.shrink_to(KEEP_ENTRIES);
        }
        #[cfg(feature = "sanitize")]
        if let Err(e) = self.check_tables() {
            panic!("volume bookkeeping corrupted: {e}");
        }
        done
    }

    /// The bookkeeping invariants: every live sub's parent is in flight,
    /// and every pending image belongs to a live write of its block.
    #[cfg(feature = "sanitize")]
    fn check_tables(&self) -> Result<(), String> {
        for (d, window) in self.subs.iter().enumerate() {
            for (id, sub) in window.iter() {
                if let Sub::User {
                    parent: Some(vol), ..
                } = *sub
                {
                    if self.inflight.get(vol).is_none() {
                        return Err(format!("sub {id} of disk {d}: request {vol} not in flight"));
                    }
                }
            }
        }
        for (&(d, db), (id, _)) in &self.pending {
            let writes = |sub: &Sub| match *sub {
                Sub::User {
                    red: Some(RedSub::Write { dblock }),
                    ..
                } => dblock == db,
                Sub::Maint(MaintRole::RebuildWrite(b) | MaintRole::ScrubWrite(b)) => b == db,
                _ => false,
            };
            if !self.subs[d].get(id.0).is_some_and(writes) {
                return Err(format!(
                    "pending image of disk {d} block {db}: no live write {id:?}"
                ));
            }
        }
        Ok(())
    }

    /// Account a finished user sub-request; the volume completion if it
    /// was its request's last outstanding piece.
    fn finish_user(
        &mut self,
        disk: usize,
        c: Completion,
        parent: Option<u64>,
        red: Option<RedSub>,
        now: SimTime,
    ) -> Option<VolCompletion> {
        if let Some(RedSub::Write { dblock }) = red {
            self.retire_pending(disk, dblock, c.id);
            // A write replica failed: the block's on-disk bytes diverge
            // from the volume's logical contents — mark it for
            // re-silvering instead of failing the request (another
            // replica may have landed).
            if c.error.is_some() {
                self.stale[disk].insert(dblock);
            }
        }
        // No parent: the orphan of a request rejected in `place`.
        let vol = parent?;
        // Completion-time failover: the member died with the read in
        // flight — re-issue it on the rest of the group (once; a
        // survivor's failure is the request's).
        let mut failover = 0u32;
        if let (
            Some(RedSub::Read {
                vsector,
                n_sectors,
                retried,
            }),
            Some(_),
        ) = (red, &c.error)
        {
            if !retried {
                let route = self.survivor_route(vsector, n_sectors, now);
                let mut placed = Vec::with_capacity(route.len());
                if self.place(route, vol, now, &mut placed).is_ok() {
                    failover = placed.len() as u32;
                }
                if let (Some(m), true) = (&self.maint, failover > 0) {
                    with_registry(|r| r.inc(m.obs.read_failovers, 1));
                }
            }
        }
        let Some(p) = self.inflight.get_mut(vol) else {
            unreachable!("sub completion implies a live parent request");
        };
        match c.error {
            // A failed-over read is served by its survivors.
            Some(_) if failover > 0 => {
                p.remaining += failover;
                p.n_subs += failover;
            }
            Some(err) => {
                p.error.get_or_insert(err);
            }
            None => p.durable |= matches!(red, Some(RedSub::Write { .. })),
        }
        p.remaining -= 1;
        if p.remaining > 0 {
            return None;
        }
        let Some(done) = self.inflight.remove(vol) else {
            unreachable!("looked up above");
        };
        let error = if done.durable { None } else { done.error };
        if error.is_none() {
            self.req_ok += 1;
        } else {
            self.req_failed += 1;
        }
        with_registry(|r| r.observe_hires(self.obs.request_us, (now - done.arrived).as_micros()));
        Some(VolCompletion {
            id: VolRequestId(vol),
            arrived: done.arrived,
            completed: now,
            n_subs: done.n_subs,
            error,
        })
    }

    /// Retire the pending write image of finished write `id` (unless a
    /// newer write to the same block superseded it).
    fn retire_pending(&mut self, disk: usize, dblock: u64, id: RequestId) {
        if let hash_map::Entry::Occupied(p) = self.pending.entry((disk, dblock)) {
            if p.get().0 == id {
                p.remove();
            }
        }
    }

    /// Account a finished maintenance sub-request.
    fn finish_maint(
        &mut self,
        disk: usize,
        role: MaintRole,
        id: RequestId,
        err: Option<DriverError>,
    ) {
        let (MaintRole::RebuildWrite(db) | MaintRole::ScrubWrite(db)) = role else {
            return;
        };
        self.retire_pending(disk, db, id);
        let (Some(m), MaintRole::RebuildWrite(_)) = (&self.maint, role) else {
            return;
        };
        if err.is_some() {
            // The re-silver write itself failed: the block is still
            // stale; retry next window.
            self.stale[disk].insert(db);
            with_registry(|r| r.inc(m.obs.rebuild_errors, 1));
        } else {
            with_registry(|r| r.inc(m.obs.rebuild_blocks, 1));
        }
    }

    /// Run every member to completion, returning merged volume
    /// completions in sim-time order.
    pub fn drain(&mut self) -> Vec<VolCompletion> {
        let mut out = Vec::new();
        while let Some(t) = self.next_completion() {
            if let Some(vc) = self.complete_next(t) {
                out.push(vc);
            }
        }
        out
    }

    /// Bytes of heap behind the in-flight bookkeeping (sub-requests,
    /// requests, pending write images): capacity × entry size. Not
    /// counted: what the pending images themselves point to.
    pub fn bookkeeping_heap_bytes(&self) -> usize {
        let pending = std::mem::size_of::<((usize, u64), (RequestId, Runs))>();
        self.subs.iter().map(IdWindow::heap_bytes).sum::<usize>()
            + self.inflight.heap_bytes()
            + self.pending.capacity() * pending
    }

    /// Outstanding sub-requests across all member queues.
    pub fn queue_len(&self) -> usize {
        self.disks.iter().map(|d| d.queue_len()).sum()
    }

    /// Whether every member is idle.
    pub fn is_idle(&self) -> bool {
        self.disks.iter().all(|d| d.is_idle())
    }
}

impl BlockDevice for ArrayVolume {
    type RequestId = VolRequestId;
    type Completion = Option<VolCompletion>;

    fn submit(&mut self, req: IoRequest, now: SimTime) -> Result<VolRequestId, DriverError> {
        ArrayVolume::submit(self, req, now)
    }
    fn next_completion(&mut self) -> Option<SimTime> {
        ArrayVolume::next_completion(self)
    }
    fn complete_next(&mut self, now: SimTime) -> Option<VolCompletion> {
        ArrayVolume::complete_next(self, now)
    }
    fn queue_len(&self) -> usize {
        ArrayVolume::queue_len(self)
    }
    fn n_members(&self) -> usize {
        self.disks.len()
    }
    fn member_mut(&mut self, i: usize) -> &mut AdaptiveDriver {
        &mut self.disks[i]
    }
    fn next_maintenance(&self, after: SimTime) -> Option<SimTime> {
        self.maint.as_ref().map(|m| after + m.cfg.period)
    }
    fn maintenance_tick(&mut self, now: SimTime) {
        ArrayVolume::maintenance_tick(self, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_disk::fault::{FaultInjector, FaultPlan};
    use abr_disk::{models, DiskLabel, SECTOR_SIZE};
    use abr_driver::request::fill_seeded_payload;
    use abr_driver::{DriverConfig, Ioctl, SchedulerKind};
    use abr_sim::{SimDuration, SimRng};

    fn member(spb: u32) -> AdaptiveDriver {
        let model = models::toshiba_mk156f();
        let label = DiskLabel::rearranged_aligned(model.geometry, 8, spb);
        let cfg = DriverConfig {
            block_size: 8192,
            scheduler: SchedulerKind::Scan,
            monitor_capacity: 1 << 16,
            table_max_entries: 1024,
            ..DriverConfig::default()
        };
        AdaptiveDriver::on_blank_disk(model, &label, cfg)
    }

    fn volume(n: usize, policy: StripePolicy) -> ArrayVolume {
        ArrayVolume::new((0..n).map(|_| member(16)).collect(), policy)
    }

    fn red_volume(n: usize, policy: StripePolicy, red: Redundancy) -> ArrayVolume {
        ArrayVolume::with_redundancy(
            (0..n).map(|_| member(16)).collect(),
            policy,
            red,
            MaintenanceConfig::default(),
        )
    }

    fn block_payload(tag: u8) -> Arc<[u8]> {
        Arc::from(vec![tag; 16 * SECTOR_SIZE])
    }

    /// The materialized bytes of an image.
    fn bytes_of(img: &[Run]) -> Vec<u8> {
        let mut buf = vec![0u8; Run::sectors(img) as usize * SECTOR_SIZE];
        Run::fill_all(img, &mut buf);
        buf
    }

    #[test]
    fn single_block_requests_route_to_one_disk() {
        let mut v = volume(4, StripePolicy::Striped { chunk_blocks: 1 });
        let t = SimTime::ZERO;
        // Block 0 → disk 0, block 1 → disk 1, ...
        for b in 0..4u64 {
            v.submit(IoRequest::read(0, b * 16, 16), t).unwrap();
        }
        for i in 0..4 {
            assert!(!v.disk(i).is_idle(), "disk {i} should hold one request");
        }
        let done = v.drain();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| c.error.is_none() && c.n_subs == 1));
        assert!(v.is_idle());
    }

    #[test]
    fn raw_requests_split_and_merge() {
        let mut v = volume(2, StripePolicy::Striped { chunk_blocks: 1 });
        // 4 blocks starting mid-block: 5 pieces over both disks, one
        // volume completion when the last piece lands.
        let id = v
            .submit_raw(IoDir::Write, 8, 4 * 16, SimTime::ZERO)
            .unwrap();
        let done = v.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].n_subs, 5);
        assert!(done[0].error.is_none());
        assert_eq!(v.io_counts(0).submitted + v.io_counts(1).submitted, 5);
    }

    #[test]
    fn out_of_range_requests_are_rejected() {
        let mut v = volume(2, StripePolicy::Concat);
        let end = v.vol_sectors();
        assert_eq!(
            v.submit(IoRequest::read(0, end, 16), SimTime::ZERO),
            Err(DriverError::OutOfPartition)
        );
        assert_eq!(
            v.submit(IoRequest::read(1, 0, 16), SimTime::ZERO),
            Err(DriverError::BadPartition)
        );
        assert_eq!(
            v.submit(IoRequest::read(0, 0, 0), SimTime::ZERO),
            Err(DriverError::EmptyTransfer)
        );
    }

    #[test]
    fn completions_merge_in_time_order() {
        let mut v = volume(2, StripePolicy::Striped { chunk_blocks: 1 });
        let a = v.submit(IoRequest::read(0, 0, 16), SimTime::ZERO).unwrap();
        let b = v.submit(IoRequest::read(0, 16, 16), SimTime::ZERO).unwrap();
        let done = v.drain();
        assert_eq!(done.len(), 2);
        assert!(done[0].completed <= done[1].completed);
        let ids: Vec<VolRequestId> = done.iter().map(|c| c.id).collect();
        assert!(ids.contains(&a) && ids.contains(&b));
    }

    #[test]
    fn health_reports_every_disk() {
        let mut v = volume(3, StripePolicy::Concat);
        let h = v.health();
        assert_eq!(h.disks.len(), 3);
        assert!(h.is_fully_healthy());
        assert_eq!(h.n_healthy(), 3);
        assert_eq!(h.n_dead(), 0);
        assert_eq!(h.n_failed(), 0);
        assert_eq!(h.n_rebuilding(), 0);
        assert_eq!(h.total_lost(), 0);
    }

    #[test]
    fn disk_indices_are_stamped_on_members() {
        let v = volume(3, StripePolicy::Concat);
        for i in 0..3 {
            assert_eq!(v.disk(i).disk_index(), i as u32);
        }
    }

    #[test]
    fn mirror_write_duplicates_to_partner() {
        let mut v = red_volume(
            4,
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::Mirror,
        );
        let id = v
            .submit(
                IoRequest::write(0, 0, 16, block_payload(0xAB)),
                SimTime::ZERO,
            )
            .unwrap();
        let done = v.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].n_subs, 2, "primary + copy");
        assert!(done[0].error.is_none());
        let (d, db) = v.map().map_block(0);
        let p = v.map().mirror_partner(d);
        let a = v.disk(d).peek(0, db * 16, 16).unwrap();
        let b = v.disk(p).peek(0, db * 16, 16).unwrap();
        assert_eq!(a, b);
        assert!(a.iter().all(|&x| x == 0xAB));
    }

    #[test]
    fn rotparity_write_maintains_parity_identity() {
        let mut v = red_volume(
            3,
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::RotParity,
        );
        // Seed both data blocks of row 0, then overwrite block 0 with
        // raw bytes (raw ⊕ seeded) and a fragment of block 1 with another
        // stream (overlay) — all queued at once, so the parity math also
        // runs through the pending images.
        let writes = [
            IoRequest::write_seeded(0, 0, 16, 0x5EED),
            IoRequest::write_seeded(0, 16, 16, 0xFEED),
            IoRequest::write(0, 0, 16, block_payload(0x11)),
            IoRequest::write_seeded(0, 16 + 8, 4, 0xF00D),
        ];
        for w in writes {
            v.submit(w, SimTime::ZERO).unwrap();
        }
        let done = v.drain();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|c| c.error.is_none() && c.n_subs == 2));
        // XOR(all 3 members) == 0, byte for byte.
        let mut acc = vec![0u8; 16 * SECTOR_SIZE];
        for disk in 0..3 {
            let img = v.disk(disk).peek(0, 0, 16).unwrap();
            acc.iter_mut().zip(img.iter()).for_each(|(a, b)| *a ^= b);
        }
        assert!(acc.iter().all(|&b| b == 0), "parity identity violated");
        // And the data is what was written.
        assert_eq!(
            bytes_of(&v.logical_block(0).unwrap()),
            block_payload(0x11)[..]
        );
        let mut want = vec![0u8; 16 * SECTOR_SIZE];
        fill_seeded_payload(0xFEED, &mut want);
        fill_seeded_payload(0xF00D, &mut want[8 * SECTOR_SIZE..12 * SECTOR_SIZE]);
        assert_eq!(bytes_of(&v.logical_block(1).unwrap()), want);
        // The seeded block stayed markers: no page beyond formatting's.
        let formatted = member(16).disk().store().raw_pages();
        assert!(v.disk(2).disk().store().raw_pages() <= formatted);
    }

    #[test]
    fn rejected_sub_leaves_an_orphan_that_is_still_accounted() {
        let mut v = red_volume(
            3,
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::RotParity,
        );
        // The data member dies at 1 s; at 2 s a two-sub write is placed
        // whose parity sub the member rejects (out of its partition).
        let plan =
            FaultPlan::disk_death(SimTime::from_micros(1_000_000), SimDuration::from_secs(60));
        let injector = FaultInjector::new(plan, SimRng::new(4).substream("faults"));
        v.disk_mut(1).disk_mut().set_injector(Some(injector));
        let red = RedSub::Write { dblock: 0 };
        let beyond = v.disk(0).label().partitions[0].n_sectors;
        let sub = |disk, sector| Routed {
            disk,
            req: IoRequest::write_seeded(0, sector, 16, 7),
            red: Some(red),
            pending_img: Some(IoRequest::write_zeroes(0, 0, 16).payload_runs()),
        };
        let now = SimTime::from_micros(2_000_000);
        let rejected = v.place(vec![sub(1, 0), sub(0, beyond)], 0, now, &mut Vec::new());
        assert_eq!(rejected, Err(DriverError::OutOfPartition));
        assert!(v.pending.contains_key(&(1, 0)), "orphan is in flight");
        // The orphaned data sub fails on the dead member: no volume
        // completion, its image is retired and the block goes stale.
        assert!(v.drain().is_empty());
        assert!(v.pending.is_empty(), "orphan's image was never retired");
        assert_eq!(v.stale_blocks(1), 1, "failed orphan left no stale mark");
    }

    #[test]
    fn mirror_read_survives_whole_disk_death() {
        let mut v = red_volume(
            2,
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::Mirror,
        );
        v.submit(
            IoRequest::write(0, 0, 16, block_payload(0x7E)),
            SimTime::ZERO,
        )
        .unwrap();
        v.drain();
        // Kill disk 0 (the data half) at t=1s.
        let death = SimTime::from_micros(1_000_000);
        let plan = FaultPlan::disk_death(death, SimDuration::from_secs(60));
        v.disk_mut(0)
            .disk_mut()
            .set_injector(Some(FaultInjector::new(
                plan,
                SimRng::new(9).substream("faults"),
            )));
        // A read submitted after the death routes to the partner and
        // completes clean.
        let after = SimTime::from_micros(2_000_000);
        let id = v.submit(IoRequest::read(0, 0, 16), after).unwrap();
        let done = v.drain();
        let c = done.iter().find(|c| c.id == id).expect("read completed");
        assert!(c.error.is_none(), "degraded read failed: {:?}", c.error);
        assert_eq!(v.io_counts(1).submitted, 2, "copy write + degraded read");
    }

    #[test]
    fn rotparity_read_reconstructs_after_death() {
        let mut v = red_volume(
            3,
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::RotParity,
        );
        for (vb, tag) in [(0u64, 0x0F), (1, 0xF0)] {
            v.submit(
                IoRequest::write(0, vb * 16, 16, block_payload(tag)),
                SimTime::ZERO,
            )
            .unwrap();
        }
        v.drain();
        // Block 0 lives on disk 1 (row 0 parity is disk 0). Kill disk 1.
        let death = SimTime::from_micros(1_000_000);
        let plan = FaultPlan::disk_death(death, SimDuration::from_secs(60));
        v.disk_mut(1)
            .disk_mut()
            .set_injector(Some(FaultInjector::new(
                plan,
                SimRng::new(3).substream("faults"),
            )));
        let after = SimTime::from_micros(2_000_000);
        let id = v.submit(IoRequest::read(0, 0, 16), after).unwrap();
        let done = v.drain();
        let c = done.iter().find(|c| c.id == id).expect("read completed");
        assert!(c.error.is_none(), "reconstruction failed: {:?}", c.error);
        assert_eq!(c.n_subs, 2, "peer + parity reconstruction reads");
        // The logical bytes are still reconstructable and correct.
        let img = bytes_of(&v.logical_block(0).unwrap());
        assert!(img.iter().all(|&b| b == 0x0F));
    }

    #[test]
    fn writes_during_outage_go_stale_and_resilver() {
        let mut v = red_volume(
            2,
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::Mirror,
        );
        v.submit(
            IoRequest::write(0, 0, 16, block_payload(0x01)),
            SimTime::ZERO,
        )
        .unwrap();
        v.drain();
        let death = SimTime::from_micros(1_000_000);
        let plan = FaultPlan::disk_death(death, SimDuration::from_secs(1));
        v.disk_mut(0)
            .disk_mut()
            .set_injector(Some(FaultInjector::new(
                plan,
                SimRng::new(5).substream("faults"),
            )));
        // Write after the death: only the partner gets it; disk 0 goes
        // stale.
        let after = SimTime::from_micros(2_000_000);
        let id = v
            .submit(IoRequest::write(0, 0, 16, block_payload(0x02)), after)
            .unwrap();
        let done = v.drain();
        let c = done.iter().find(|c| c.id == id).expect("write completed");
        assert!(c.error.is_none());
        assert_eq!(v.stale_blocks(0), 1);
        // Replace the dead disk; the whole data half re-silvers.
        v.replace_disk(0, member(16));
        assert!(v.stale_blocks(0) > 1, "full replacement content is stale");
        let mut t = SimTime::from_micros(3_000_000);
        for _ in 0..10_000 {
            if v.rebuild_pending() == 0 && v.is_idle() {
                break;
            }
            v.maintenance_tick(t);
            while let Some(ct) = v.next_completion() {
                v.complete_next(ct);
            }
            t += SimDuration::from_secs(10);
        }
        assert_eq!(v.rebuild_pending(), 0, "rebuild drained");
        // The resilvered copy matches the survivor.
        let a = v.disk(0).peek(0, 0, 16).unwrap();
        assert!(a.iter().all(|&x| x == 0x02), "replacement has fresh data");
        let h = v.health();
        assert!(h.n_rebuilding() == 0);
    }

    #[test]
    fn plain_volume_has_no_redundancy_metrics_or_maintenance() {
        let mut v = volume(2, StripePolicy::Concat);
        assert!(v.next_maintenance(SimTime::ZERO).is_none());
        assert_eq!(v.rebuild_pending(), 0);
        // Maintenance tick is a no-op.
        v.maintenance_tick(SimTime::from_micros(1));
        assert!(v.is_idle());
    }

    #[test]
    fn id_window_retires_out_of_order_and_across_gaps() {
        let mut w = IdWindow::new();
        // Ids 5 and 6 went to someone else.
        for id in [3, 4, 7] {
            w.insert(id, id);
        }
        assert_eq!((w.base, w.slots.len()), (3, 5));
        assert_eq!((w.get(5), w.get(7), w.get(9)), (None, Some(&7), None));
        assert_eq!(w.remove(4), Some(4));
        assert_eq!((w.base, w.slots.len()), (3, 5), "a live id holds the front");
        assert_eq!(w.remove(3), Some(3));
        assert_eq!((w.base, w.slots.len()), (7, 1), "the front skips the gap");
        assert_eq!((w.remove(3), w.remove(7)), (None, Some(7)));
        assert!(w.is_empty());
    }

    #[test]
    fn windows_outlive_a_rejected_placement_a_replacement_and_a_drain() {
        let mut v = red_volume(
            3,
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::RotParity,
        );
        let beyond = v.disk(0).label().partitions[0].n_sectors;
        let sub = |disk, sector| Routed {
            disk,
            req: IoRequest::write_seeded(0, sector, 16, 7),
            red: None,
            pending_img: None,
        };
        assert!(v
            .place(
                vec![sub(1, 0), sub(0, beyond)],
                0,
                SimTime::ZERO,
                &mut Vec::new()
            )
            .is_err());
        let orphan = v.subs[1].iter().next().map(|(_, sub)| *sub);
        assert!(matches!(orphan, Some(Sub::User { parent: None, .. })));
        // The rejected request took no id.
        for b in 0..300 {
            let read = v.submit(IoRequest::read(0, b * 16, 16), SimTime::ZERO);
            assert_eq!(read, Ok(VolRequestId(b)));
        }
        let busy = v.bookkeeping_heap_bytes();
        assert_eq!(v.drain().len(), 300);
        assert!(v.subs.iter().all(IdWindow::is_empty) && v.inflight.is_empty());
        assert!(v.subs.iter().all(|w| w.slots.capacity() <= KEEP_ENTRIES));
        assert!(
            v.bookkeeping_heap_bytes() < busy / 2,
            "drained windows shrink"
        );
        // A fresh member issues ids from zero: its window starts over.
        v.replace_disk(1, member(16));
        assert_eq!((v.subs[1].base, v.subs[1].slots.len()), (0, 0));
        let vb = (0..).find(|&vb| v.map().map_block(vb).0 == 1).unwrap();
        let write = IoRequest::write_seeded(0, vb * 16, 16, 9);
        v.submit(write, SimTime::ZERO).unwrap();
        assert_eq!(v.subs[1].iter().next().map(|(id, _)| id), Some(0));
        assert!(v.pending.contains_key(&(1, v.map().map_block(vb).1)));
        v.drain();
    }

    #[cfg(feature = "sanitize")]
    #[test]
    #[should_panic(expected = "not in flight")]
    fn sanitizer_trips_on_a_sub_whose_request_is_gone() {
        let mut v = volume(2, StripePolicy::Striped { chunk_blocks: 1 });
        // Both reads queue on disk 0; the second loses its request.
        for b in [0, 2] {
            v.submit(IoRequest::read(0, b * 16, 16), SimTime::ZERO)
                .unwrap();
        }
        v.inflight.remove(1);
        v.drain();
    }

    /// The scrub's verdict on runs is whether `xor_of(..)` is zero, on
    /// random groups: raw sectors, multi-term runs that cancel, pending
    /// images, and a lost member, for which both must fail and the
    /// verdict name it.
    #[test]
    fn run_verdict_equals_the_built_xor() {
        let mut v = red_volume(
            4,
            StripePolicy::Striped { chunk_blocks: 1 },
            Redundancy::RotParity,
        );
        let (now, lost) = (SimTime::ZERO, v.map().group(5)[0]);
        // Lose it: park it, dirty the parked copy, put a defect under
        // the slot and clean.
        let drv = v.disk_mut(lost.0);
        let block = drv.label().partitions[0].start_sector / 16 + lost.1;
        drv.ioctl(Ioctl::BCopy { block, slot: 0 }, now).unwrap();
        drv.submit(IoRequest::write_seeded(0, lost.1 * 16, 16, 1), now)
            .unwrap();
        drv.drain();
        let mut inj = FaultInjector::new(FaultPlan::none(), SimRng::new(7).substream("faults"));
        inj.add_defect(drv.layout().unwrap().slot_sector(0));
        drv.disk_mut().set_injector(Some(inj));
        drv.ioctl(Ioctl::Clean, now + SimDuration::from_secs(1))
            .unwrap();
        // Sector `at` of a run: zero, raw, or an XOR of few streams.
        let form = |rng: &mut SimRng, at: u32| match rng.below(6) {
            0 => Form::Zero,
            1 => Form::Raw(Box::new([rng.below(2) as u8; SECTOR_SIZE])),
            _ => {
                let streams: Vec<Form> = (0..1 + rng.below(3))
                    .map(|_| Form::Seeded((rng.below(3), 0)).translate(at))
                    .collect();
                Form::xor_all(streams.iter().map(|f| (f, 0)), &mut Vec::new())
            }
        };
        let (mut rng, mut seen) = (SimRng::new(0x5C2B), [0; 3]);
        for round in 0..400 {
            let group = v.map().group(round % 8);
            let mut images: Vec<Runs> = (1..group.len())
                .map(|_| {
                    let (mut runs, mut at) = (Vec::new(), 0);
                    while at < 16 {
                        let base = form(&mut rng, at);
                        let raw = matches!(base, Form::Raw(_));
                        let len = if raw {
                            1
                        } else {
                            1 + rng.below(u64::from(16 - at)) as u32
                        };
                        runs.push(Run { base, len });
                        at += len;
                    }
                    runs.into()
                })
                .collect();
            // The check member cancels the rest, or all but one sector.
            let mut check = Run::xor_into(&images, &mut Vec::new(), &mut Vec::new());
            if rng.below(3) == 0 {
                let base = form(&mut rng, 0);
                let off = rng.below(16) as u32;
                check = Run::overlay(&check, off, &vec![Run { base, len: 1 }].into());
            }
            images.push(check);
            for (&(d, db), img) in group.iter().zip(&images) {
                if rng.below(4) == 0 {
                    v.pending.insert((d, db), (RequestId(0), img.clone()));
                    continue;
                }
                let segs = v.disk(d).physical_segments(0, db * 16, 16).unwrap();
                let mut at = 0;
                for &(s, len) in segs.iter() {
                    let store = v.disk_mut(d).disk_mut().store_mut();
                    store.write_runs(s, Run::slice_of(img, at, len));
                    at += len;
                }
            }
            let verdict = v.group_cancels(&group);
            let built = v.xor_of(&group).map(|sum| sum.iter().all(Run::is_zero));
            assert_eq!(verdict.ok(), built, "round {round}");
            if let Err(unread) = verdict {
                assert_eq!(unread, Some(lost), "round {round}");
            }
            seen[verdict.map_or(2, |zero| usize::from(!zero))] += 1;
            v.pending.clear();
        }
        assert!(seen.iter().all(|&n| n > 20), "zero, not, lost: {seen:?}");
    }
}

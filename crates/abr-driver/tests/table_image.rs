//! The on-disk block-table image, certified from outside.
//!
//! The driver services a table write when the paper's arranger would
//! (§4.1.3: after every moved block) but produces the region's bytes only
//! when they can be observed. Nothing observable may tell the difference:
//! this file drives seeded block movement, redirected writes and reads
//! under every fault class through the public API only, crashes the driver
//! after every prefix of every sequence, and pins
//!
//! * the `abr_disk::image::save` bytes of the crashed disk,
//! * the table and the degraded flag a fresh attach recovers from it,
//! * every reply, completion and mid-run peek at the table region
//!
//! to fingerprints recorded by running this same file against the driver
//! that re-encoded and stored the whole region on every table write (the
//! commit before this file). It needs nothing private, so it runs there
//! unchanged.

use abr_disk::fault::{DiskFault, FaultInjector, FaultPlan};
use abr_disk::image::{self, fletcher64};
use abr_disk::{models, DiskLabel, SECTOR_SIZE};
use abr_driver::{AdaptiveDriver, DriverConfig, DriverError, IoRequest, Ioctl, IoctlReply};
use abr_sim::rng::splitmix64;
use abr_sim::{SimDuration, SimRng, SimTime};

/// Sectors per block on the tiny disk (4 KB blocks).
const SPB: u64 = 8;
/// Virtual blocks the sequences move and touch.
const POOL: u64 = 60;
/// Slots they place into. More than 29 entries make the record span
/// sectors, so a torn write can break a copy in the middle.
const SLOTS: u64 = 60;
/// Operations per sequence: a placement-heavy first part, then a mix.
const FILL: usize = 44;
const OPS: usize = 80;
const SEEDS: u64 = 12;

fn config() -> DriverConfig {
    DriverConfig {
        block_size: 4096,
        monitor_capacity: 1000,
        table_max_entries: 64,
        ..DriverConfig::default()
    }
}

/// The fault classes, one plan each; `Defect` damages copy A of the table
/// region part-way through instead of drawing faults at random.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Faults {
    None,
    Torn,
    Transient,
    Media,
    Defect,
    PowerCutAfter(u64),
}

impl Faults {
    fn plan(self) -> FaultPlan {
        match self {
            Faults::None | Faults::Defect => FaultPlan::none(),
            Faults::Torn => FaultPlan {
                torn_write: 0.6,
                ..FaultPlan::none()
            },
            Faults::Transient => FaultPlan {
                transient_read: 0.45,
                transient_write: 0.55,
                ..FaultPlan::none()
            },
            Faults::Media => FaultPlan {
                media_rate: 0.02,
                ..FaultPlan::none()
            },
            Faults::PowerCutAfter(k) => FaultPlan {
                power_cut_after_ops: Some(k),
                ..FaultPlan::none()
            },
        }
    }
}

fn fold(fp: &mut u64, x: u64) {
    *fp = splitmix64(*fp ^ x);
}

fn fold_str(fp: &mut u64, s: &str) {
    fold(fp, fletcher64(s.as_bytes()));
}

/// One seeded sequence against one driver.
struct Run {
    d: AdaptiveDriver,
    rng: SimRng,
    /// Where the first part's walk over the pool starts.
    first: u64,
    faults: Faults,
    /// Whether this sequence looks at the table region while it runs.
    peeks: bool,
    now: SimTime,
    fp: u64,
    reached: Reached,
}

/// What a run met on its way, so that the record can be shown to cover
/// the cases it is for.
#[derive(Debug, Default)]
struct Reached {
    /// Table writes that failed for good, by fault.
    torn: u32,
    exhausted: u32,
    media: u32,
    power: u32,
    /// Table writes, failed or not, of a record longer than a sector.
    multi_sector: u32,
    /// Redirected writes (each dirties a resident entry).
    redirected: u32,
}

impl Run {
    fn new(seed: u64, faults: Faults) -> Self {
        let model = models::tiny_test_disk();
        let label = DiskLabel::rearranged_aligned(model.geometry, 10, SPB as u32);
        let mut d = AdaptiveDriver::on_blank_disk(model, &label, config());
        // Installed before anything moves, so that no later call hands
        // the disk out: what the store holds is the driver's doing alone.
        d.disk_mut().set_injector(Some(FaultInjector::new(
            faults.plan(),
            SimRng::new(seed).substream("faults"),
        )));
        let mut rng = SimRng::new(seed).substream("ops");
        Run {
            d,
            first: rng.below(POOL),
            rng,
            faults,
            peeks: seed % 2 == 1,
            now: SimTime::ZERO,
            fp: seed,
            reached: Reached::default(),
        }
    }

    fn orig(&self, block: u64) -> u64 {
        self.d.label().virtual_to_physical(block * SPB)
    }

    fn ioctl(&mut self, op: Ioctl) {
        let entries = self.d.block_table().len();
        let res = self.d.ioctl(op, self.now);
        fold_str(&mut self.fp, &format!("{res:?}"));
        let table_start = self.d.layout().expect("rearranged").start_sector;
        match res {
            Ok(IoctlReply::Moved { busy, ops }) => {
                self.now += busy;
                self.reached.multi_sector += u32::from(ops > 0 && entries > 29);
            }
            // Only the table write of a move addresses the region's start.
            Err(DriverError::Disk { fault, sector }) if sector == table_start => {
                self.reached.multi_sector += u32::from(entries > 29);
                match fault {
                    DiskFault::TornWrite => self.reached.torn += 1,
                    DiskFault::Media => self.reached.media += 1,
                    DiskFault::PowerLoss => self.reached.power += 1,
                    _ => self.reached.exhausted += 1,
                }
            }
            _ => {}
        }
    }

    fn io(&mut self, req: IoRequest) {
        self.d.submit(req, self.now).expect("valid request");
        for c in self.d.drain() {
            fold_str(&mut self.fp, &format!("{:?}", c.error));
            fold(&mut self.fp, c.completed.as_micros());
            fold(&mut self.fp, fletcher64(&c.data));
            self.now = self.now.max(c.completed);
        }
    }

    /// The `i`-th operation of the sequence.
    fn step(&mut self, i: usize) {
        self.now += SimDuration::from_micros(self.rng.below(40_000));
        if self.faults == Faults::Defect && i == FILL {
            // Copy A of the table goes bad for good: every later table
            // write fails whole, and nothing of it may reach the store.
            let start = self.d.layout().expect("rearranged").start_sector;
            let inj = self.d.disk_mut().injector_mut().expect("installed");
            inj.add_defect(start);
        }
        // Block 0 holds the label.
        let block = 1 + self.rng.below(POOL);
        let slot = self.rng.below(SLOTS) as u32;
        // Foreground traffic sticks to a few blocks (the image holds
        // every sector ever written) that placement favours too.
        let near = 1 + self.rng.below(10);
        let kind = if i < FILL { 0 } else { 1 + self.rng.index(16) };
        match kind {
            // The first part fills slot after slot with distinct blocks.
            0 => self.ioctl(Ioctl::BCopy {
                block: 1 + (self.first + 7 * i as u64) % POOL,
                slot: i as u32,
            }),
            1..=3 => {
                let block = if self.rng.chance(0.3) { near } else { block };
                self.ioctl(Ioctl::BCopy { block, slot });
            }
            4..=6 => {
                // A resident block when there is one, else a miss.
                let resident = self.d.block_table().entries_by_slot();
                let orig = if resident.is_empty() {
                    self.orig(block)
                } else {
                    resident[self.rng.index(resident.len())].0
                };
                self.ioctl(Ioctl::BEvict { orig });
            }
            7 => self.ioctl(Ioctl::Clean),
            // Writes: redirected into the reserved area (and dirtying the
            // entry) whenever the block is resident.
            8..=11 => {
                let seed = self.rng.below(u64::MAX);
                let resident = self.d.block_table().lookup(self.orig(near)).is_some();
                self.reached.redirected += u32::from(resident);
                self.io(IoRequest::write_seeded(0, near * SPB, SPB as u32, seed));
            }
            12..=13 => self.io(IoRequest::read(0, near * SPB, SPB as u32)),
            _ if self.peeks => {
                let layout = *self.d.layout().expect("rearranged");
                let mut buf = vec![0u8; layout.table_sectors as usize * SECTOR_SIZE];
                let store = self.d.disk_mut().store();
                store.read(layout.start_sector, &mut buf);
                fold(&mut self.fp, fletcher64(&buf));
            }
            _ => self.io(IoRequest::read(0, block * SPB, SPB as u32)),
        }
    }

    /// Crash, fold the image the disk is left with, reboot, and fold
    /// what a fresh attach makes of it.
    fn crash(self) -> u64 {
        let mut fp = self.fp;
        let mut disk = self.d.crash();
        let mut bytes = Vec::new();
        image::save(&disk, &mut bytes).expect("save to memory");
        fold(&mut fp, fletcher64(&bytes));
        if let Some(inj) = disk.injector_mut() {
            inj.revive();
        }
        let d = AdaptiveDriver::attach(disk, config()).expect("label intact");
        fold(&mut fp, u64::from(d.is_degraded()));
        for (orig, e) in d.block_table().entries_by_slot() {
            fold(&mut fp, orig);
            fold(&mut fp, u64::from(e.slot) << 1 | u64::from(e.dirty));
        }
        fp
    }
}

/// The fingerprint of crashing sequence `(seed, faults)` after `n` of its
/// operations, and how many disk operations those took.
fn crashed_after(seed: u64, faults: Faults, n: usize) -> (u64, u64) {
    let mut run = Run::new(seed, faults);
    for i in 0..n {
        run.step(i);
    }
    let disk_ops = run.d.disk().injector().expect("installed").ops();
    (run.crash(), disk_ops)
}

/// Every prefix of every sequence of one fault class.
fn sweep(faults: Faults) -> u64 {
    let mut fp = 0;
    for seed in 0..SEEDS {
        for n in 0..=OPS {
            fold(&mut fp, crashed_after(seed, faults, n).0);
        }
    }
    fp
}

#[test]
fn fault_free_crashes_leave_the_eager_image() {
    assert_eq!(
        sweep(Faults::None),
        10_419_986_601_400_591_387,
        "differs from the eager record"
    );
}

#[test]
fn torn_table_writes_leave_the_eager_image() {
    assert_eq!(
        sweep(Faults::Torn),
        10_800_110_919_862_600_080,
        "differs from the eager record"
    );
}

#[test]
fn exhausted_retries_leave_the_eager_image() {
    assert_eq!(
        sweep(Faults::Transient),
        17_977_023_517_633_574_787,
        "differs from the eager record"
    );
}

#[test]
fn random_media_errors_leave_the_eager_image() {
    assert_eq!(
        sweep(Faults::Media),
        8_891_844_329_774_034_257,
        "differs from the eager record"
    );
}

#[test]
fn a_defect_under_copy_a_leaves_the_eager_image() {
    assert_eq!(
        sweep(Faults::Defect),
        6_128_714_474_110_278_568,
        "differs from the eager record"
    );
}

/// Power dies after disk operation 0, 1, 2, … of a whole sequence: a cut
/// lands between the copy and the table write of a move, and between a
/// serviced table write and the next time its bytes matter.
#[test]
fn a_power_cut_at_every_operation_boundary_leaves_the_eager_image() {
    let mut fp = 0;
    let mut boundaries = 0;
    for seed in [3, 8] {
        let (_, disk_ops) = crashed_after(seed, Faults::None, OPS);
        for k in 0..=disk_ops {
            fold(
                &mut fp,
                crashed_after(seed, Faults::PowerCutAfter(k), OPS).0,
            );
            boundaries += 1;
        }
    }
    assert_eq!(
        (boundaries, fp),
        (419, 13_823_082_301_102_524_164),
        "(boundaries, fingerprint) differ from the eager record"
    );
}

/// The sweeps are only as good as what their sequences reach.
#[test]
fn the_sequences_reach_the_cases_they_are_for() {
    let reached = |faults| {
        let mut sum = Reached::default();
        for seed in 0..SEEDS {
            let mut run = Run::new(seed, faults);
            for i in 0..OPS {
                run.step(i);
            }
            let r = run.reached;
            sum.torn += r.torn;
            sum.exhausted += r.exhausted;
            sum.media += r.media;
            sum.power += r.power;
            sum.multi_sector += r.multi_sector;
            sum.redirected += r.redirected;
        }
        sum
    };
    let clean = reached(Faults::None);
    assert!(clean.multi_sector > 100, "{clean:?}");
    assert!(clean.redirected > 20, "{clean:?}");
    assert_eq!(clean.torn + clean.exhausted + clean.media, 0, "{clean:?}");
    // A torn write persists 0..8 of the region's 8 sectors, so a dozen
    // failures tear before, inside and after copy A.
    let torn = reached(Faults::Torn);
    assert!(torn.torn > 40 && torn.multi_sector > 50, "{torn:?}");
    assert!(reached(Faults::Transient).exhausted > 20);
    assert!(reached(Faults::Media).media > 5);
    assert!(reached(Faults::Defect).media > 50);
    assert!(reached(Faults::PowerCutAfter(150)).power > 0);
}

//! Redundant-array survival: whole-disk death under mirror and rotated
//! parity must not lose a block or fail a user request; the hot-spare
//! replacement re-silvers under the windowed I/O budget; no sequence of
//! failures, rebuild, and scrub may ever leave one logical block
//! readable at two different values; and the recover paths the
//! committed runs never enter (completion-time fail-over, scrub repair,
//! double loss) behave alike under every scheme and member count.

use abr_array::{ArrayConfig, ArrayExperiment, ArrayVolume, Redundancy, StripePolicy};
use abr_core::recovery::MaintenanceConfig;
use abr_core::ExperimentConfig;
use abr_disk::fault::{FaultInjector, FaultPlan};
use abr_disk::{models, Disk, DiskLabel, SECTOR_SIZE};
use abr_driver::{AdaptiveDriver, DriverConfig, IoRequest, Ioctl, SchedulerKind};
use abr_obs::with_registry;
use abr_sim::{SimDuration, SimRng, SimTime};
use abr_workload::WorkloadProfile;
use std::sync::Arc;

fn tiny_config(seed: u64) -> ExperimentConfig {
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(20);
    let mut cfg = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    cfg.cache_blocks = 192;
    cfg.seed = seed;
    cfg
}

/// Run one scheme through a mid-day whole-disk death with a hot-spare
/// replacement; return `(served_ok, failed, lost, n_failed_members)`.
fn death_run(n: usize, redundancy: Redundancy) -> (u64, u64, u64, usize) {
    let cfg = ArrayConfig::redundant(
        tiny_config(777),
        n,
        StripePolicy::Striped { chunk_blocks: 8 },
        redundancy,
    );
    let mut e = ArrayExperiment::new(cfg);
    let death = e.clock() + SimDuration::from_mins(10);
    e.install_fault_plan(1, FaultPlan::disk_death(death, SimDuration::from_mins(5)));
    e.run_on_off(1, 40);
    let (ok, failed) = e.volume().request_outcomes();
    let health = e.health();
    (ok, failed, health.total_lost(), health.n_failed())
}

#[test]
fn mirror_serves_every_request_through_disk_death() {
    let (ok, failed, lost, still_failed) = death_run(2, Redundancy::Mirror);
    assert!(ok > 100, "mirror array barely served anything ({ok})");
    assert_eq!(failed, 0, "mirror array failed user requests");
    assert_eq!(lost, 0, "mirror array lost blocks");
    assert_eq!(still_failed, 0, "hot-spare replacement never installed");
}

#[test]
fn rotparity_serves_every_request_through_disk_death() {
    let (ok, failed, lost, still_failed) = death_run(3, Redundancy::RotParity);
    assert!(ok > 100, "rotparity array barely served anything ({ok})");
    assert_eq!(failed, 0, "rotparity array failed user requests");
    assert_eq!(lost, 0, "rotparity array lost blocks");
    assert_eq!(still_failed, 0, "hot-spare replacement never installed");
}

#[test]
fn unprotected_array_fails_requests_when_a_disk_dies() {
    // The control: with no redundancy the same death strands every
    // request that maps to the dead member — proving the mirror and
    // parity runs above actually exercised the failure.
    let cfg = ArrayConfig::new(
        tiny_config(777),
        2,
        StripePolicy::Striped { chunk_blocks: 8 },
    );
    let mut e = ArrayExperiment::new(cfg);
    let death = e.clock() + SimDuration::from_mins(10);
    e.install_fault_plan(1, FaultPlan::disk_death(death, SimDuration::from_mins(5)));
    e.run_on_off(1, 40);
    let (_, failed) = e.volume().request_outcomes();
    assert!(failed > 0, "the unprotected control must fail requests");
}

#[test]
fn rebuild_stays_within_its_io_budget() {
    let cfg = ArrayConfig::redundant(
        tiny_config(31),
        2,
        StripePolicy::Striped { chunk_blocks: 8 },
        Redundancy::Mirror,
    );
    let budget = cfg.maintenance.rebuild_ops_per_window;
    let mut e = ArrayExperiment::new(cfg);
    let death = e.clock() + SimDuration::from_mins(5);
    e.install_fault_plan(1, FaultPlan::disk_death(death, SimDuration::from_mins(5)));
    e.run_on_off(1, 40);
    let peak = e.volume().rebuild_peak_window_ops();
    assert!(peak > 0, "rebuild never ran");
    assert!(
        peak <= budget,
        "rebuild exceeded its per-window budget: {peak} > {budget}"
    );
    // Health distinguishes "rebuilding" from "failed": the replacement
    // is in and serving, not dead.
    let h = e.health();
    assert_eq!(h.n_failed(), 0);
    assert_eq!(h.n_dead(), 0);
    if e.volume().rebuild_pending() > 0 {
        assert!(h.disks[1].rebuilding, "stale member must report rebuilding");
        assert!(h.disks[1].impaired());
        assert_eq!(h.n_rebuilding(), 1);
    }
}

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
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &cfg);
    AdaptiveDriver::attach(disk, cfg).expect("fresh format attaches")
}

const SPB: u64 = 16;

/// The redundancy group protecting volume block `vb`: locations whose
/// XOR is zero, the check member (copy / parity) last.
fn group_of(v: &ArrayVolume, vb: u64) -> Vec<(usize, u64)> {
    let (d, db) = v.map().map_block(vb);
    v.map().group_at(d, db).expect("redundant volume").to_vec()
}

fn peek(v: &ArrayVolume, (d, db): (usize, u64)) -> Option<Vec<u8>> {
    v.disk(d)
        .peek(0, db * SPB, SPB as u32)
        .ok()
        .map(|b| b.to_vec())
}

/// XOR of the members' current bytes; `None` if any is unreadable.
fn xor_of(v: &ArrayVolume, members: &[(usize, u64)]) -> Option<Vec<u8>> {
    let mut acc = vec![0u8; SPB as usize * SECTOR_SIZE];
    for &m in members {
        for (a, b) in acc.iter_mut().zip(peek(v, m)?) {
            *a ^= b;
        }
    }
    Some(acc)
}

fn without(group: &[(usize, u64)], m: (usize, u64)) -> Vec<(usize, u64)> {
    group.iter().copied().filter(|&x| x != m).collect()
}

/// Every way of reading a tracked block must agree — its home copy,
/// and the XOR of the rest of its redundancy group (the mirror copy;
/// the parity reconstruction). A block readable at two different
/// values means rebuild or scrub forked the volume's contents.
fn assert_no_forked_blocks(v: &ArrayVolume, tracked: &[(u64, u8)]) {
    let fresh = |members: &[(usize, u64)]| members.iter().all(|&(d, _)| v.stale_blocks(d) == 0);
    for &(vb, tag) in tracked {
        let home = v.map().map_block(vb);
        let rest = without(&group_of(v, vb), home);
        let views = [
            ("home", fresh(&[home]).then(|| peek(v, home)).flatten()),
            ("rest", fresh(&rest).then(|| xor_of(v, &rest)).flatten()),
        ];
        assert!(
            views.iter().any(|(_, b)| b.is_some()),
            "block {vb} unreadable everywhere"
        );
        for (view, bytes) in views {
            assert!(
                bytes.is_none_or(|b| b.iter().all(|&x| x == tag)),
                "block {vb} read through its {view} holds stale bytes (expected {tag:#x})"
            );
        }
    }
}

#[test]
fn scrub_and_rebuild_never_fork_a_block() {
    torture(Redundancy::Mirror, 2);
    torture(Redundancy::RotParity, 3);
}

/// Randomized torture: seeded writes, a whole-disk death mid-stream,
/// more writes while degraded, hot-spare replacement, rebuild under
/// budget, then scrub sweeps — at every checkpoint, no tracked block
/// may be readable at two different values.
fn torture(redundancy: Redundancy, n: usize) {
    let maint = MaintenanceConfig {
        rebuild_ops_per_window: 4096, // drain the resilver quickly
        ..MaintenanceConfig::default()
    };
    let mut v = ArrayVolume::with_redundancy(
        (0..n).map(|_| member(16)).collect(),
        StripePolicy::Striped { chunk_blocks: 4 },
        redundancy,
        maint,
    );
    let spb = 16u64;
    let mut rng = SimRng::new(0xF0C5).substream("torture");
    let n_blocks = 48u64;
    let mut tracked: Vec<(u64, u8)> = Vec::new();
    let mut now = SimTime::ZERO;
    let write =
        |v: &mut ArrayVolume, tracked: &mut Vec<(u64, u8)>, rng: &mut SimRng, now: SimTime| {
            let vb = rng.below(n_blocks);
            let tag = rng.below(251) as u8;
            let req = IoRequest::write(
                0,
                vb * spb,
                spb as u32,
                Arc::from(vec![tag; 16 * SECTOR_SIZE]),
            );
            v.submit(req, now).expect("write accepted");
            tracked.retain(|&(b, _)| b != vb);
            tracked.push((vb, tag));
        };

    // Phase 1: healthy writes.
    for _ in 0..64 {
        write(&mut v, &mut tracked, &mut rng, now);
    }
    v.drain();
    assert_no_forked_blocks(&v, &tracked);

    // Phase 2: disk 0 dies; keep writing while degraded.
    let death = SimTime::from_micros(1_000_000);
    v.disk_mut(0)
        .disk_mut()
        .set_injector(Some(FaultInjector::new(
            FaultPlan::disk_death(death, SimDuration::from_secs(30)),
            SimRng::new(1).substream("faults"),
        )));
    now = SimTime::from_micros(2_000_000);
    for _ in 0..48 {
        write(&mut v, &mut tracked, &mut rng, now);
    }
    v.drain();
    let (_, failed) = v.request_outcomes();
    assert_eq!(failed, 0, "degraded {redundancy:?} array failed writes");

    // Phase 3: hot-spare replacement + rebuild, with writes racing the
    // resilver.
    v.replace_disk(0, member(16));
    let mut t = SimTime::from_micros(60_000_000);
    for round in 0..2_000 {
        v.maintenance_tick(t);
        if round % 7 == 0 {
            write(&mut v, &mut tracked, &mut rng, t);
        }
        v.drain();
        if v.rebuild_pending() == 0 {
            break;
        }
        t += SimDuration::from_secs(10);
    }
    assert_eq!(v.rebuild_pending(), 0, "rebuild never drained");
    assert_no_forked_blocks(&v, &tracked);

    // Phase 4: scrub sweeps repair nothing new and fork nothing.
    for _ in 0..16 {
        t += SimDuration::from_secs(10);
        v.maintenance_tick(t);
        v.drain();
    }
    assert_no_forked_blocks(&v, &tracked);
    assert_eq!(v.health().total_lost(), 0);
}

/// Fragment (sub-block) writes leave a parity block in several runs —
/// the delta covers only the written span, so the block reads as runs
/// of different term lists — and the parity identity must hold on the
/// *materialized* bytes of every touched group all the same: after the
/// writes, after more of them with a member dead, and after its hot
/// spare has been re-silvered from those multi-run images.
#[test]
fn fragment_writes_make_multi_run_parity_that_survives_death_and_rebuild() {
    let maint = MaintenanceConfig {
        rebuild_ops_per_window: 4096,
        ..MaintenanceConfig::default()
    };
    let mut v = ArrayVolume::with_redundancy(
        (0..4).map(|_| member(16)).collect(),
        StripePolicy::Striped { chunk_blocks: 2 },
        Redundancy::RotParity,
        maint,
    );
    let n_blocks = 36u64;
    let mut rng = SimRng::new(0xF4A6).substream("fragments");
    // What every block must read as, byte for byte.
    let mut model = vec![vec![0u8; SPB as usize * SECTOR_SIZE]; n_blocks as usize];
    let write = |v: &mut ArrayVolume, model: &mut [Vec<u8>], vb, off: u64, n: u64, seed, now| {
        let req = IoRequest::write_seeded(0, vb * SPB + off, n as u32, seed);
        v.submit(req, now).expect("write accepted");
        let block: &mut Vec<u8> = &mut model[vb as usize];
        let bytes = &mut block[off as usize * SECTOR_SIZE..][..n as usize * SECTOR_SIZE];
        abr_disk::store::fill_seeded(seed, 0, bytes);
    };
    let mut fragments = |v: &mut ArrayVolume, model: &mut [Vec<u8>], count: u32, now: SimTime| {
        for _ in 0..count {
            let off = rng.below(SPB - 1);
            let n = 1 + rng.below(SPB - off - 1);
            let (vb, seed) = (rng.below(n_blocks), 1 + rng.below(1 << 30));
            write(v, model, vb, off, n, seed, now);
        }
    };
    let check = |v: &ArrayVolume, model: &[Vec<u8>], when: &str| {
        for vb in 0..n_blocks {
            let group = group_of(v, vb);
            let sum = xor_of(v, &group).expect("group readable");
            assert!(sum.iter().all(|&b| b == 0), "{when}: group of block {vb}");
            let home = peek(v, v.map().map_block(vb)).expect("home readable");
            assert_eq!(home, model[vb as usize], "{when}: block {vb}");
        }
    };
    let runs_of = |v: &ArrayVolume, (d, db): (usize, u64)| {
        let runs = v.disk(d).peek_runs(0, db * SPB, SPB as u32);
        runs.expect("parity readable")
    };

    for vb in 0..n_blocks {
        write(
            &mut v,
            &mut model,
            vb,
            0,
            SPB,
            0x5EED_0000 + vb,
            SimTime::ZERO,
        );
    }
    fragments(&mut v, &mut model, 96, SimTime::ZERO);
    v.drain();
    let parity = |v: &ArrayVolume, vb| *group_of(v, vb).last().expect("check member");
    let multi_run = (0..n_blocks)
        .filter(|&vb| runs_of(&v, parity(&v, vb)).len() > 1)
        .count();
    assert!(
        multi_run > n_blocks as usize / 2,
        "{multi_run} multi-run parity blocks"
    );
    check(&v, &model, "healthy");

    // Member 1 dies; fragments keep coming (redirected, reconstructed).
    let death = FaultPlan::disk_death(SimTime::from_micros(1_000_000), SimDuration::from_secs(30));
    let injector = FaultInjector::new(death, SimRng::new(1).substream("faults"));
    v.disk_mut(1).disk_mut().set_injector(Some(injector));
    fragments(&mut v, &mut model, 64, SimTime::from_micros(2_000_000));
    v.drain();
    assert_eq!(v.request_outcomes().1, 0, "degraded fragment writes failed");

    // Hot spare, rebuild with fragments racing it, then scrub sweeps.
    v.replace_disk(1, member(16));
    let mut t = SimTime::from_micros(60_000_000);
    for round in 0..2_000 {
        v.maintenance_tick(t);
        if round % 5 == 0 {
            fragments(&mut v, &mut model, 1, t);
        }
        v.drain();
        if v.rebuild_pending() == 0 {
            break;
        }
        t += SimDuration::from_secs(10);
    }
    assert_eq!(v.rebuild_pending(), 0, "rebuild never drained");
    check(&v, &model, "rebuilt");
    let repairs = counter("array.scrub.repairs");
    for _ in 0..32 {
        t += SimDuration::from_secs(10);
        v.maintenance_tick(t);
        v.drain();
    }
    assert_eq!(
        counter("array.scrub.repairs"),
        repairs,
        "scrub found a mismatch"
    );
    check(&v, &model, "scrubbed");
    assert_eq!(v.health().total_lost(), 0);
}

/// The shapes the recover side must treat alike.
const SHAPES: [(Redundancy, usize); 4] = [
    (Redundancy::Mirror, 2),
    (Redundancy::Mirror, 4),
    (Redundancy::RotParity, 3),
    (Redundancy::RotParity, 4),
];

fn tagged(tag: u8) -> Vec<u8> {
    vec![tag; SPB as usize * SECTOR_SIZE]
}

fn counter(name: &str) -> u64 {
    with_registry(|r| {
        let id = r.counter(name);
        r.counter_value(id)
    })
}

/// One volume per shape, driven through the recover paths one
/// redundancy group at a time. The scrub cursor starts at group 0 and
/// sweeps `STAGE_GROUPS` groups per stage (in `STAGE_WINDOWS` idle
/// windows), so stage `s` works on group `s * STAGE_GROUPS` and the
/// sweep that follows it covers that group.
struct Rig {
    v: ArrayVolume,
    what: String,
    now: SimTime,
    stage: u32,
}

const STAGE_WINDOWS: u32 = 2;
const STAGE_GROUPS: u32 = 16;

impl Rig {
    fn new(redundancy: Redundancy, n: usize) -> Rig {
        let v = ArrayVolume::with_redundancy(
            (0..n).map(|_| member(16)).collect(),
            StripePolicy::Striped { chunk_blocks: 2 },
            redundancy,
            MaintenanceConfig {
                scrub_groups_per_window: STAGE_GROUPS / STAGE_WINDOWS,
                ..MaintenanceConfig::default()
            },
        );
        Rig {
            v,
            what: format!("{redundancy:?} N={n}"),
            now: SimTime::from_micros(1_000_000),
            stage: 0,
        }
    }

    /// The next stage's group (first data member first, check member
    /// last), written so data member `i` holds `0x10 + i` in every byte.
    fn next_group(&mut self) -> Vec<(usize, u64)> {
        let group = self
            .v
            .map()
            .group(u64::from(self.stage * STAGE_GROUPS))
            .to_vec();
        self.stage += 1;
        for (i, &(d, db)) in group[..group.len() - 1].iter().enumerate() {
            let vb = self.v.map().vblock_at(d, db).expect("data member");
            let bytes = Arc::<[u8]>::from(tagged(0x10 + i as u8));
            let w = IoRequest::write(0, vb * SPB, SPB as u32, bytes);
            self.v.submit(w, self.now).expect("write accepted");
        }
        assert!(self.v.drain().iter().all(|c| c.error.is_none()));
        let sum = xor_of(&self.v, &group).expect("readable");
        assert!(
            sum.iter().all(|&b| b == 0),
            "{}: XOR over a group",
            self.what
        );
        self.tick(1);
        group
    }

    fn tick(&mut self, secs: u64) {
        self.now += SimDuration::from_secs(secs);
    }

    /// Read the block homed at `home` and run the volume dry; the
    /// read's `(error-free, sub-request count)`.
    fn read(&mut self, (d, db): (usize, u64)) -> (bool, u32) {
        let vb = self.v.map().vblock_at(d, db).expect("data member");
        let r = IoRequest::read(0, vb * SPB, SPB as u32);
        let id = self.v.submit(r, self.now).expect("read accepted");
        let done = self.v.drain();
        self.tick(1);
        let c = done.iter().find(|c| c.id == id).expect("read completed");
        (c.error.is_none(), c.n_subs)
    }

    /// Destroy a member's only copy of a disk block: park it in a
    /// reserved slot, dirty the parked copy (same bytes, so the group
    /// stays consistent), put a defect under the slot and clean.
    fn lose(&mut self, (disk, db): (usize, u64), slot: u32) {
        let now = self.now;
        let drv = self.v.disk_mut(disk);
        let block = drv.label().partitions[0].start_sector / SPB + db;
        drv.ioctl(Ioctl::BCopy { block, slot }, now).expect("bcopy");
        let same = drv.peek(0, db * SPB, SPB as u32).expect("readable");
        let w = IoRequest::write(0, db * SPB, SPB as u32, same);
        drv.submit(w, now).expect("write accepted");
        drv.drain();
        let slot_sector = drv.layout().expect("rearranged member").slot_sector(slot);
        let mut inj = FaultInjector::new(FaultPlan::none(), SimRng::new(7).substream("faults"));
        inj.add_defect(slot_sector);
        drv.disk_mut().set_injector(Some(inj));
        drv.ioctl(Ioctl::Clean, now + SimDuration::from_secs(1))
            .expect("clean");
        assert!(
            drv.block_is_lost(0, db * SPB),
            "block {db} of disk {disk} not lost"
        );
        self.tick(2);
    }

    /// The stage's scrub sweep.
    fn scrub(&mut self) {
        for _ in 0..STAGE_WINDOWS {
            self.v.maintenance_tick(self.now);
            self.v.drain();
            self.tick(10);
        }
    }

    /// A silently divergent check member is rewritten from the data.
    fn scrub_repairs_divergence(&mut self) {
        let group = self.next_group();
        let &(cd, cdb) = group.last().expect("non-empty group");
        let segs = self.v.disk(cd).physical_segments(0, cdb * SPB, SPB as u32);
        let sector = segs.expect("in range")[0].0;
        let store = self.v.disk_mut(cd).disk_mut().store_mut();
        store.write(sector, &tagged(0xEE));
        let sum = xor_of(&self.v, &group).expect("readable");
        assert!(sum.iter().any(|&b| b != 0));
        let mismatches = counter("array.scrub.mismatches");
        let repairs = counter("array.scrub.repairs");
        self.scrub();
        let what = &self.what;
        let sum = xor_of(&self.v, &group).expect("readable");
        assert!(sum.iter().all(|&b| b == 0), "{what}: still divergent");
        for (i, &m) in group[..group.len() - 1].iter().enumerate() {
            let expect = Some(tagged(0x10 + i as u8));
            assert_eq!(peek(&self.v, m), expect, "{what}: scrub touched the data");
        }
        assert_eq!(counter("array.scrub.mismatches") - mismatches, 1, "{what}");
        assert_eq!(counter("array.scrub.repairs") - repairs, 1, "{what}");
    }

    /// One lost member is served from the rest of its group, then
    /// rebuilt from it by the scrub.
    fn one_loss_is_served_and_rebuilt(&mut self) {
        let group = self.next_group();
        let rest = without(&group, group[0]);
        self.lose(group[0], 0);
        let degraded = counter("array.reads.degraded");
        let (clean, n_subs) = self.read(group[0]);
        let what = &self.what;
        assert!(clean, "{what}: degraded read failed");
        assert_eq!(n_subs as usize, rest.len(), "{what}: one read per survivor");
        assert_eq!(counter("array.reads.degraded") - degraded, 1, "{what}");
        assert_eq!(
            xor_of(&self.v, &rest),
            Some(tagged(0x10)),
            "{what}: survivor bytes"
        );
        self.scrub();
        let what = &self.what;
        assert_eq!(
            peek(&self.v, group[0]),
            Some(tagged(0x10)),
            "{what}: lost member not rebuilt"
        );
        assert_eq!(self.v.health().total_lost(), 0, "{what}");
    }

    /// Two lost members are beyond single redundancy: the read fails,
    /// the scrub invents nothing, and the read keeps failing.
    fn double_loss_fails_the_request(&mut self) {
        let group = self.next_group();
        self.lose(group[0], 1);
        self.lose(group[1], 1);
        let (ok, failed) = self.v.request_outcomes();
        let (clean, _) = self.read(group[0]);
        assert!(!clean, "{}: a doubly lost block read clean", self.what);
        assert_eq!(self.v.request_outcomes(), (ok, failed + 1), "{}", self.what);
        let repairs = counter("array.scrub.repairs");
        self.scrub();
        let what = &self.what;
        assert_eq!(
            counter("array.scrub.repairs"),
            repairs,
            "{what}: repaired from nothing"
        );
        assert_eq!(self.v.health().total_lost(), 2, "{what}");
        let (clean, _) = self.read(group[0]);
        assert!(
            !clean,
            "{}: a doubly lost block read clean after the scrub",
            self.what
        );
    }

    /// The member dies with the read queued behind another: the read
    /// fails at completion and is re-issued on the rest of the group.
    fn failover_serves_the_survivors_bytes(&mut self) {
        let group = self.next_group();
        let home = group[0];
        let rest = without(&group, home);
        let n = self.v.n_disks();
        let death = self.now + SimDuration::from_micros(1);
        let plan = FaultPlan::disk_death(death, SimDuration::from_secs(3600));
        let inj = FaultInjector::new(plan, SimRng::new(7).substream("faults"));
        self.v.disk_mut(home.0).disk_mut().set_injector(Some(inj));
        // A filler read on the same member dispatches before the death;
        // the target queues behind it and dispatches after.
        let filler = (0..)
            .find(|&vb| self.v.map().map_block(vb) == (home.0, home.1 + 1))
            .expect("the next block of the member");
        let before: Vec<u64> = (0..n).map(|i| self.v.io_counts(i).completed).collect();
        let failovers = counter("array.reads.failover");
        let r = IoRequest::read(0, filler * SPB, SPB as u32);
        self.v.submit(r, self.now).expect("filler accepted");
        let (clean, n_subs) = self.read(home);
        let what = &self.what;
        assert!(clean, "{what}: fail-over read failed");
        assert_eq!(
            n_subs as usize,
            group.len(),
            "{what}: failed primary + the rest"
        );
        assert_eq!(counter("array.reads.failover") - failovers, 1, "{what}");
        for i in (0..n).filter(|&i| i != home.0) {
            let expect = u64::from(rest.iter().any(|&(d, _)| d == i));
            let reads = self.v.io_counts(i).completed - before[i];
            assert_eq!(reads, expect, "{what}: fail-over reads on disk {i}");
        }
        assert_eq!(
            xor_of(&self.v, &rest),
            Some(tagged(0x10)),
            "{what}: survivor bytes"
        );
    }
}

#[test]
fn recover_paths_agree_across_schemes() {
    for (redundancy, n) in SHAPES {
        let mut rig = Rig::new(redundancy, n);
        rig.scrub_repairs_divergence();
        rig.one_loss_is_served_and_rebuilt();
        rig.double_loss_fails_the_request();
        rig.failover_serves_the_survivors_bytes();
    }
}

/// The two edges where the schemes used to disagree, pinned to the
/// stricter rule (DESIGN §12). Survivors are vetted like primaries, so
/// a read whose group has lost two members issues no reconstruction
/// reads (rotated parity used to issue them and fail at completion);
/// and the scrub leaves such a group alone — no repairs, no reads
/// (mirroring used to read both lost copies).
#[test]
fn a_doubly_lost_group_gets_no_io() {
    for (redundancy, n) in [(Redundancy::Mirror, 2), (Redundancy::RotParity, 3)] {
        let mut rig = Rig::new(redundancy, n);
        let group = rig.next_group();
        rig.lose(group[0], 0);
        rig.lose(group[1], 0);
        let (clean, n_subs) = rig.read(group[0]);
        assert!(!clean, "{}: a doubly lost block read clean", rig.what);
        assert_eq!(n_subs, 1, "{}: only the failing primary is read", rig.what);
        let ios = |v: &ArrayVolume| -> u64 {
            let per_disk = (0..n).map(|i| v.io_counts(i));
            per_disk.map(|c| c.completed + c.failed).sum()
        };
        let before = ios(&rig.v);
        rig.scrub();
        let healthy_groups = u64::from(STAGE_GROUPS - 1);
        let swept = healthy_groups * group.len() as u64;
        assert_eq!(
            ios(&rig.v) - before,
            swept,
            "{}: one read per healthy member",
            rig.what
        );
    }
}

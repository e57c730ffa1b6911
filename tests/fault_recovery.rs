//! Fault injection end to end: power-cut recovery, degraded pass-through,
//! and the data-integrity property — under any fault schedule, every
//! successful read returns data the application actually wrote, never a
//! silently corrupted block.

#![allow(clippy::disallowed_types, reason = "test code, not a simulated result")]

use abr::core::analyzer::HotBlock;
use abr::core::arranger::BlockArranger;
use abr::core::placement::PolicyKind;
use abr::disk::fault::{FaultInjector, FaultPlan};
use abr::disk::{models, Disk, DiskLabel, SECTOR_SIZE};
use abr::driver::request::IoRequest;
use abr::driver::{AdaptiveDriver, DriverConfig, SchedulerKind};
use abr::sim::{SimRng, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

const BLOCK: usize = 4096;
const SPB: u64 = (BLOCK / SECTOR_SIZE) as u64;

fn t(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

fn config() -> DriverConfig {
    DriverConfig {
        block_size: BLOCK as u32,
        scheduler: SchedulerKind::Scan,
        monitor_capacity: 4096,
        table_max_entries: 64,
        ..DriverConfig::default()
    }
}

/// A formatted tiny rearranged disk, attached.
fn fresh_driver() -> AdaptiveDriver {
    let model = models::tiny_test_disk();
    let label = DiskLabel::rearranged_aligned(model.geometry, 10, SPB as u32);
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &config());
    AdaptiveDriver::attach(disk, config()).expect("attach")
}

fn arranger() -> BlockArranger {
    BlockArranger::new(PolicyKind::OrganPipe.make(1))
}

/// Per-block recognizable content, distinct per (block, version) at
/// sector granularity so torn writes are detectable sector by sector.
fn pattern(block: u64, version: u64) -> Arc<[u8]> {
    let mut buf = vec![0u8; BLOCK];
    for (s, chunk) in buf.chunks_mut(SECTOR_SIZE).enumerate() {
        chunk.fill((block.wrapping_mul(31) ^ version.wrapping_mul(7) ^ s as u64) as u8);
    }
    Arc::from(buf)
}

/// Write `n` distinct blocks (fault-free) and return their hot list.
fn seed_blocks(driver: &mut AdaptiveDriver, n: u64) -> Vec<HotBlock> {
    let mut hot = Vec::new();
    for i in 0..n {
        let block = 10 + i * 7;
        driver
            .submit(
                IoRequest::write(0, block * SPB, SPB as u32, pattern(block, 0)),
                t(i),
            )
            .expect("submit");
        let done = driver.drain();
        assert!(done[0].error.is_none(), "fault-free seed write failed");
        hot.push(HotBlock {
            block,
            count: 100 - i,
        });
    }
    hot
}

/// Acceptance sweep: cut power after op 0, 1, 2, … of one rearrangement
/// pass. Whatever boundary the cut lands on, the morning re-attach must
/// find a consistent table and every acknowledged write intact — and a
/// follow-up clean must copy everything home correctly.
#[test]
fn power_cut_at_every_op_boundary_recovers() {
    let mut boundaries = 0u64;
    for k in 0..200 {
        let mut driver = fresh_driver();
        let hot = seed_blocks(&mut driver, 6);
        driver.disk_mut().set_injector(Some(FaultInjector::new(
            FaultPlan {
                power_cut_after_ops: Some(k),
                ..FaultPlan::none()
            },
            SimRng::new(k),
        )));
        let result = arranger().rearrange(&mut driver, &hot, hot.len(), t(100));
        let fired = driver.disk().injector().expect("injector").is_dead();

        // Overnight power-cycle: detach at whatever state the cut left,
        // restore power, re-attach from the on-disk table.
        let mut disk = driver.crash();
        if let Some(inj) = disk.injector_mut() {
            inj.revive();
        }
        let mut driver =
            AdaptiveDriver::attach(disk, config()).expect("recovery attach after power cut");
        assert!(
            !driver.is_degraded(),
            "cut after {k} ops left the table region unreadable"
        );
        for (i, h) in hot.iter().enumerate() {
            driver
                .submit(
                    IoRequest::read(0, h.block * SPB, SPB as u32),
                    t(200 + i as u64),
                )
                .expect("submit");
            let done = driver.drain();
            assert!(done[0].error.is_none(), "read failed after cut at op {k}");
            assert_eq!(
                done[0].data,
                pattern(h.block, 0),
                "acked write to block {} lost or corrupted by cut at op {k}",
                h.block
            );
        }
        // The recovered (conservatively all-dirty) table must clean.
        arranger()
            .clean(&mut driver, t(300))
            .expect("clean after recovery");
        for (i, h) in hot.iter().enumerate() {
            driver
                .submit(
                    IoRequest::read(0, h.block * SPB, SPB as u32),
                    t(400 + i as u64),
                )
                .expect("submit");
            assert_eq!(
                driver.drain()[0].data,
                pattern(h.block, 0),
                "clean after cut at op {k} corrupted block {}",
                h.block
            );
        }
        if result.is_ok() && !fired {
            boundaries = k;
            break;
        }
    }
    // The sweep must actually have exercised a multi-op pass.
    assert!(
        boundaries >= 6,
        "sweep covered only {boundaries} boundaries"
    );
}

/// Acceptance: with the table region hard-failed (both redundant copies),
/// the driver attaches in pass-through mode and serves every request
/// correctly at its original address; block movement is refused.
#[test]
fn degraded_mode_serves_all_requests_at_original_addresses() {
    let mut driver = fresh_driver();
    let hot = seed_blocks(&mut driver, 12);
    arranger()
        .rearrange(&mut driver, &hot, 8, t(100))
        .expect("rearrange");
    assert_eq!(driver.block_table().len(), 8);
    let layout = *driver.layout().expect("layout");

    // Scribble over the whole table region — magic, both copies, all gone.
    let mut disk = driver.crash();
    disk.store_mut().write(
        layout.start_sector,
        &vec![0xFF; layout.table_sectors as usize * SECTOR_SIZE],
    );
    let mut driver = AdaptiveDriver::attach(disk, config()).expect("degraded attach");
    assert!(driver.is_degraded());
    assert!(driver.block_table().is_empty());

    // 100 % of reads are served with the correct data, at home addresses.
    for (i, h) in hot.iter().enumerate() {
        driver
            .submit(
                IoRequest::read(0, h.block * SPB, SPB as u32),
                t(200 + i as u64),
            )
            .expect("submit");
        let done = driver.drain();
        assert!(done[0].error.is_none(), "degraded read failed");
        assert_eq!(done[0].data, pattern(h.block, 0), "block {}", h.block);
    }
    // Writes keep working (at home), and read back.
    let b = hot[0].block;
    driver
        .submit(
            IoRequest::write(0, b * SPB, SPB as u32, pattern(b, 1)),
            t(300),
        )
        .expect("submit");
    assert!(driver.drain()[0].error.is_none());
    driver
        .submit(IoRequest::read(0, b * SPB, SPB as u32), t(301))
        .expect("submit");
    assert_eq!(driver.drain()[0].data, pattern(b, 1));
    // Block movement is disabled rather than risking mis-directed copies.
    assert!(arranger().clean(&mut driver, t(400)).is_err());
    assert!(arranger().rearrange(&mut driver, &hot, 4, t(500)).is_err());
}

/// The integrity property: run a random request mix under a fault
/// schedule, tracking a shadow model. Every *successful* read must
/// return, sector for sector, data from the last acknowledged write —
/// or, where a *reported-failed* write intervened, from that failed
/// attempt (a torn prefix is allowed precisely because the failure was
/// surfaced). Nothing else may ever appear: no silent corruption.
fn integrity_schedule(seed: u64, plan: FaultPlan) {
    let mut driver = fresh_driver();
    let blocks: Vec<u64> = (0..24u64).map(|i| 8 + i * 5).collect();

    // Acked baseline for every block, then arm the injector.
    let mut shadow: HashMap<u64, Arc<[u8]>> = HashMap::new();
    let mut version: HashMap<u64, u64> = HashMap::new();
    // Content of writes that *failed* since the last acked write; a torn
    // prefix of any of these may legitimately be on the medium.
    let mut tainted: HashMap<u64, Vec<Arc<[u8]>>> = HashMap::new();
    for (i, &b) in blocks.iter().enumerate() {
        driver
            .submit(
                IoRequest::write(0, b * SPB, SPB as u32, pattern(b, 0)),
                t(i as u64),
            )
            .expect("submit");
        assert!(driver.drain()[0].error.is_none());
        shadow.insert(b, pattern(b, 0));
        version.insert(b, 0);
    }
    driver
        .disk_mut()
        .set_injector(Some(FaultInjector::new(plan, SimRng::new(seed))));

    let mut rng = SimRng::new(seed ^ 0x51ED);
    let mut now = t(1_000);
    for step in 0..400u64 {
        now += abr::sim::SimDuration::from_secs(10);
        // Periodically restore power so a scheduled cut doesn't reduce
        // the rest of the run to guaranteed failures.
        if step % 50 == 49 {
            if let Some(inj) = driver.disk_mut().injector_mut() {
                if inj.is_dead() {
                    inj.revive();
                }
            }
        }
        // Occasionally run a (possibly failing) rearrangement pass: block
        // movement under faults must preserve the property too.
        if step == 150 || step == 300 {
            let hot: Vec<HotBlock> = blocks
                .iter()
                .enumerate()
                .map(|(i, &b)| HotBlock {
                    block: b,
                    count: 100 - i as u64,
                })
                .collect();
            let _ = arranger().rearrange(&mut driver, &hot, 8, now);
            now += abr::sim::SimDuration::from_secs(100);
            continue;
        }
        let b = blocks[rng.index(blocks.len())];
        if rng.chance(0.35) {
            let v = version[&b] + 1;
            let data = pattern(b, v);
            driver
                .submit(IoRequest::write(0, b * SPB, SPB as u32, data.clone()), now)
                .expect("submit");
            let done = driver.drain();
            if done[0].error.is_none() {
                shadow.insert(b, data);
                version.insert(b, v);
                tainted.remove(&b);
            } else {
                version.insert(b, v);
                tainted.entry(b).or_default().push(data);
            }
        } else {
            driver
                .submit(IoRequest::read(0, b * SPB, SPB as u32), now)
                .expect("submit");
            let done = driver.drain();
            if done[0].error.is_some() {
                continue; // failed reads carry no data and make no claim
            }
            let got = &done[0].data;
            let acked = &shadow[&b];
            let candidates = tainted.get(&b);
            for s in 0..SPB as usize {
                let range = s * SECTOR_SIZE..(s + 1) * SECTOR_SIZE;
                let sector = &got[range.clone()];
                let ok = sector == &acked[range.clone()]
                    || candidates.is_some_and(|c| c.iter().any(|d| sector == &d[range.clone()]));
                assert!(
                    ok,
                    "seed {seed}, step {step}: block {b} sector {s} returned bytes \
                     that were never written (silent corruption)"
                );
            }
        }
    }
}

#[test]
fn no_silent_corruption_under_fault_schedules() {
    for seed in 0..4 {
        integrity_schedule(seed, FaultPlan::with_error_rate(0.05));
    }
    integrity_schedule(
        99,
        FaultPlan {
            power_cut_after_ops: Some(120),
            ..FaultPlan::with_error_rate(0.02)
        },
    );
}

#[test]
fn zero_fault_plan_changes_nothing_end_to_end() {
    // Same request sequence with no injector vs. a `none()` plan: the
    // completion stream must be bit-identical.
    let run = |inject: bool| {
        let mut driver = fresh_driver();
        if inject {
            driver
                .disk_mut()
                .set_injector(Some(FaultInjector::new(FaultPlan::none(), SimRng::new(42))));
        }
        let hot = seed_blocks(&mut driver, 6);
        arranger()
            .rearrange(&mut driver, &hot, 6, t(100))
            .expect("rearrange");
        let mut out = Vec::new();
        for (i, h) in hot.iter().enumerate() {
            driver
                .submit(
                    IoRequest::read(0, h.block * SPB, SPB as u32),
                    t(200 + i as u64),
                )
                .expect("submit");
            let c = driver.drain().remove(0);
            out.push((c.completed, c.data, c.breakdown.total()));
        }
        out
    };
    assert_eq!(run(false), run(true));
}

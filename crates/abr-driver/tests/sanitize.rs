//! Sanitize-feature tests: prove the invariant checks actually trip on
//! corrupted state (a sanitizer that never fires is worse than none).
//!
//! Run with `cargo test -p abr-driver --features sanitize`; the whole
//! file compiles away otherwise.

#![cfg(feature = "sanitize")]

use abr_disk::{models, Disk, DiskLabel};
use abr_driver::blocktable::BlockTable;
use abr_driver::{AdaptiveDriver, DriverConfig, IoRequest, QueueCorruption, SchedulerKind};
use abr_sim::SimTime;

fn table() -> BlockTable {
    let mut t = BlockTable::new();
    t.insert(100, 0);
    t.insert(200, 1);
    t.insert(300, 2);
    t
}

#[test]
fn intact_table_passes() {
    let t = table();
    assert!(t.check_bijection().is_ok());
    t.assert_bijection(); // must not panic
    assert!(
        BlockTable::new().check_bijection().is_ok(),
        "empty table is a (trivial) bijection"
    );
}

#[test]
fn dangling_reverse_entry_is_caught() {
    // Reverse map claims slot 3 holds sector 400, but the forward map
    // has no entry for sector 400.
    let mut t = table();
    t.corrupt_slot_for_sanitizer_test(3, 400);
    assert!(t.check_bijection().is_err());
}

#[test]
fn two_slots_claiming_one_sector_is_caught() {
    // Reverse map says slots 1 and 3 both hold sector 200.
    let mut t = table();
    t.corrupt_slot_for_sanitizer_test(3, 200);
    assert!(t.check_bijection().is_err());
}

#[test]
fn mismatched_forward_and_reverse_is_caught() {
    // Slot 1's occupant overwritten: forward says 200 -> slot 1, reverse
    // now says slot 1 -> 999.
    let mut t = table();
    t.corrupt_slot_for_sanitizer_test(1, 999);
    assert!(t.check_bijection().is_err());
}

#[test]
#[should_panic(expected = "block table bijection")]
fn assert_bijection_panics_on_corruption() {
    let mut t = table();
    t.corrupt_slot_for_sanitizer_test(3, 400);
    t.assert_bijection();
}

#[test]
fn normal_operations_preserve_the_invariant() {
    let mut t = table();
    t.mark_dirty(200);
    t.assert_bijection();
    t.remove(100);
    t.assert_bijection();
    t.insert(400, 0);
    t.assert_bijection();
}

/// A tiny-disk driver with one request in service, three ready behind
/// it (two on one cylinder) and two still in the future.
fn queued_driver(scheduler: SchedulerKind) -> AdaptiveDriver {
    let model = models::tiny_test_disk();
    let label = DiskLabel::whole_disk(model.geometry);
    let config = DriverConfig {
        block_size: 4096,
        scheduler,
        ..DriverConfig::default()
    };
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &config);
    let mut d = AdaptiveDriver::attach(disk, config).expect("fresh format attaches");
    let at = SimTime::from_micros;
    for (block, arrived) in [
        (8, 50),
        (200, 50),
        (201, 40),
        (90, 50),
        (300, 9_000),
        (40, 7_000),
    ] {
        d.submit(IoRequest::read(0, block * 8, 8), at(arrived))
            .expect("valid request");
    }
    assert_eq!(d.queue_len(), 5);
    d
}

#[test]
fn intact_queue_passes_through_a_whole_drain() {
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::Scan,
        SchedulerKind::CScan,
        SchedulerKind::Sstf,
    ] {
        let mut d = queued_driver(kind);
        assert_eq!(d.check_queue(), Ok(()));
        // Every submit and dispatch re-checks; a drain must not trip.
        assert_eq!(d.drain().len(), 6);
        assert_eq!(d.check_queue(), Ok(()));
    }
}

#[test]
fn each_queue_corruption_is_caught() {
    for (how, expect) in [
        (QueueCorruption::Lost, "4 requests indexed, 5 counted"),
        (QueueCorruption::WrongCylinder, "misfiled"),
        (QueueCorruption::ArrivedButFuture, "misfiled"),
        (QueueCorruption::Twice, "queued twice"),
        (QueueCorruption::StaleBit, "bit true, list"),
    ] {
        // FCFS indexes by age alone, SCAN by cylinder: both key rules.
        for kind in [SchedulerKind::Fcfs, SchedulerKind::Scan] {
            let mut d = queued_driver(kind);
            d.corrupt_queue_for_sanitizer_test(how);
            let err = d.check_queue().expect_err("corruption must be caught");
            assert!(err.contains(expect), "{how:?} under {kind:?}: {err}");
        }
    }
}

#[test]
#[should_panic(expected = "request queue invariant violated")]
fn corrupted_queue_panics_at_the_next_submit() {
    let mut d = queued_driver(SchedulerKind::Scan);
    d.corrupt_queue_for_sanitizer_test(QueueCorruption::WrongCylinder);
    let _ = d.submit(IoRequest::read(0, 64, 8), SimTime::from_micros(60));
}

#[test]
#[should_panic(expected = "request queue invariant violated")]
fn corrupted_queue_panics_at_the_next_dispatch() {
    let mut d = queued_driver(SchedulerKind::Scan);
    d.corrupt_queue_for_sanitizer_test(QueueCorruption::Lost);
    d.drain();
}

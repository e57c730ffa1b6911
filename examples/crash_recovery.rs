//! Crash recovery of the rearranged disk (§4.1.2).
//!
//! The block table's on-disk copy "always correctly reflects the
//! rearranged blocks", but its dirty bits may be stale; the driver
//! therefore marks every entry dirty when it rebuilds the in-memory table
//! after a failure, so no update to a repositioned block can be lost.
//! This example demonstrates the full cycle: rearrange, update a
//! rearranged block, crash without cleaning, re-attach, clean — and show
//! the update survived.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use abr::core::analyzer::HotBlock;
use abr::core::arranger::BlockArranger;
use abr::core::placement::PolicyKind;
use abr::disk::{models, Disk, DiskLabel};
use abr::driver::request::IoRequest;
use abr::driver::{AdaptiveDriver, DriverConfig};
use abr::sim::SimTime;
use std::sync::Arc;

fn t(s: u64) -> SimTime {
    SimTime::from_micros(s * 1_000_000)
}

fn main() {
    let model = models::toshiba_mk156f();
    let label = DiskLabel::rearranged(model.geometry, 48);
    let config = DriverConfig::default();
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &config);
    let mut driver = AdaptiveDriver::attach(disk, config).expect("attach");

    // Write version 1 of block 7, then rearrange it into the reserved
    // area.
    let v1 = Arc::<[u8]>::from(vec![0x11u8; 8192]);
    driver
        .submit(IoRequest::write(0, 7 * 16, 16, v1), t(0))
        .expect("write v1");
    driver.drain();
    let arranger = BlockArranger::new(PolicyKind::OrganPipe.make(1));
    arranger
        .rearrange(
            &mut driver,
            &[HotBlock {
                block: 7,
                count: 99,
            }],
            1,
            t(10),
        )
        .expect("rearrange");
    println!("block 7 copied into the reserved area (3 disk ops incl. table write)");

    // Update the block *through* the driver: the write is redirected to
    // the reserved copy and the table entry goes dirty.
    let v2 = Arc::<[u8]>::from(vec![0x22u8; 8192]);
    driver
        .submit(IoRequest::write(0, 7 * 16, 16, v2.clone()), t(20))
        .expect("write v2");
    driver.drain();
    println!("block 7 updated; the new data lives only in the reserved copy");

    // CRASH. No clean shutdown, no DKIOCCLEAN. The in-memory table (and
    // its dirty bits) are gone; only the on-disk table copy survives.
    let surviving_disk = driver.crash();
    println!("crash! re-attaching a fresh driver from the surviving media...");

    let mut driver2 = AdaptiveDriver::attach(surviving_disk, config).expect("re-attach");
    println!(
        "recovered block table: {} entries, all conservatively marked dirty: {}",
        driver2.block_table().len(),
        driver2.block_table().iter().all(|(_, e)| e.dirty)
    );

    // Clean the reserved area: because the entry is dirty, the (updated)
    // copy is written back to block 7's home location.
    arranger.clean(&mut driver2, t(100)).expect("clean");
    driver2
        .submit(IoRequest::read(0, 7 * 16, 16), t(200))
        .expect("read back");
    let done = driver2.drain();
    assert_eq!(done[0].data, v2, "update lost!");
    println!("after clean-out, block 7 at its home location holds the post-crash update.");
    println!("no data was lost: the conservative all-dirty rule did its job.");
}

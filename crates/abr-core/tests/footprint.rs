//! Footprint of the two per-disk indexes that every single-disk run
//! holds: memory follows what exists, not the address space.
//!
//! On the paper's larger configuration (Fujitsu M2266, *users* file
//! system) the i-node table was a slot per i-node *number* (some 250,000 x
//! 80 B = 20 MB for ~1,000 files) and the block table's forward index a
//! cell per *sector* (doubled to 10.4 MB for 3,500 blocks). No day is
//! run, so this is cheap in a debug build.

use abr_core::experiment_member;
use abr_disk::models;
use abr_driver::{Ioctl, IoctlReply, SchedulerKind};
use abr_fs::fs::{FileSystem, FsConfig};
use abr_sim::{SimRng, SimTime};
use abr_workload::{WorkloadProfile, WorkloadState};

const BOUND: usize = 3 << 19; // 1.5 MB

#[test]
fn inode_table_is_sized_by_the_files_that_exist() {
    let member = experiment_member(&models::fujitsu_m2266(), 80, false, SchedulerKind::Scan);
    let label = member.label();
    let spc = label.physical.sectors_per_cylinder();
    let mut fs = FileSystem::newfs(FsConfig::default(), label.partitions[0].n_sectors, spc);
    assert!(
        fs.layout().n_inodes() > 240_000,
        "the Fujitsu's number space"
    );
    let profile = WorkloadProfile::users_fs();
    let (workload, _) = WorkloadState::setup(profile, &mut fs, &mut SimRng::new(0x5eed)).unwrap();
    assert!(workload.n_files() >= 1_000);
    let heap = fs.inode_table_heap_bytes();
    assert!(heap <= BOUND, "i-node table holds {heap} bytes");
}

#[test]
fn block_table_is_sized_by_the_blocks_a_disk_holds() {
    let mut d = experiment_member(&models::fujitsu_m2266(), 80, false, SchedulerKind::Scan);
    let blocks = d.label().virtual_geometry().total_sectors() / 16;
    let mut now = SimTime::ZERO;
    // The paper's 3,500 blocks, from block 0 to the disk's last.
    for slot in 0..3_500u64 {
        let block = slot * (blocks - 1) / 3_499;
        match d.ioctl(
            Ioctl::BCopy {
                block,
                slot: slot as u32,
            },
            now,
        ) {
            Ok(IoctlReply::Moved { busy, .. }) => now += busy,
            other => panic!("block movement failed: {other:?}"),
        }
    }
    assert_eq!(d.block_table().len(), 3_500);
    let last = d.block_table().iter().last().unwrap().0;
    let cylinders = d.label().physical.cylinders;
    assert_eq!(d.label().physical.cylinder_of(last), cylinders - 1);
    let heap = d.block_table().heap_bytes();
    assert!(heap <= BOUND, "block table holds {heap} bytes");
}

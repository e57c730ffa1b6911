//! Footprint and identity of a redundant array: redundancy is computed
//! on runs of forms, so a rotating-parity array fed seeded writes holds
//! markers like any single disk — no member store grows a 32 KB raw page
//! beyond the ones formatting wrote, and its slab holds a term list per
//! *run* of a parity block, a few per block rather than one per sector
//! — while the bytes those markers stand for still satisfy the parity
//! identity, through a disk death, a hot spare and its rebuild. What the
//! run keeps besides is small: the volume's bookkeeping gives back what
//! set-up's writes grew once it drains, and a returned day holds its
//! block count distributions as runs.
//!
//! The configuration is the benchmark's `array_redundant`: the paper
//! profile under `--release` (CI's `bench-smoke` job), `tiny_test`
//! otherwise (tier-1).

use abr_array::{ArrayConfig, ArrayExperiment, ArrayVolume, Redundancy, StripePolicy};
use abr_core::ExperimentConfig;
use abr_disk::fault::FaultPlan;
use abr_disk::store::Form;
use abr_disk::{models, SECTOR_SIZE};
use abr_sim::SimDuration;
use abr_workload::WorkloadProfile;

const N_DISKS: usize = 4;
const VICTIM: usize = 1;

fn config() -> ArrayConfig {
    let mut profile = if cfg!(debug_assertions) {
        WorkloadProfile::tiny_test()
    } else {
        WorkloadProfile::users_fs()
    };
    // Long enough for the budgeted rebuild of a whole member to finish.
    profile.day_length = SimDuration::from_hours(4);
    let mut base = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    base.seed = 0xA77A_5AFE;
    let stripe = StripePolicy::Striped { chunk_blocks: 8 };
    ArrayConfig::redundant(base, N_DISKS, stripe, Redundancy::RotParity)
}

fn raw_pages(v: &ArrayVolume, i: usize) -> usize {
    v.disk(i).disk().store().raw_pages()
}

/// Term lists a parity block may hold on average: a block written whole
/// is one run, and fragment writes cut it into a few more (one list per
/// sector would be 16).
const RUNS_PER_PARITY_BLOCK: usize = 3;

/// What a drained volume's bookkeeping and one returned day's block
/// count distributions may each take.
const KEPT_BYTES: usize = 64 << 10;

/// Every member's slab is bounded by the parity blocks it holds that
/// are an XOR of streams at all — nothing else ever is one.
#[track_caller]
fn assert_slabs_are_per_run(v: &ArrayVolume, when: &str) {
    let spb = v.map().sectors_per_block();
    let mut xor_blocks = [0usize; N_DISKS];
    for index in 0..v.map().n_groups() {
        let &(d, db) = v.map().group(index).last().expect("check member");
        let runs = v
            .disk(d)
            .peek_runs(0, db * spb, spb as u32)
            .expect("parity readable");
        xor_blocks[d] += runs.iter().any(|run| matches!(run.base, Form::Xor(_))) as usize;
    }
    for (i, blocks) in xor_blocks.into_iter().enumerate() {
        let lists = v.disk(i).disk().store().slab_len();
        assert!(
            blocks > 0 && lists >= blocks,
            "member {i} {when}: no parity?"
        );
        let bound = RUNS_PER_PARITY_BLOCK * blocks;
        assert!(
            lists <= bound,
            "member {i} {when}: {lists} term lists, {blocks} parity blocks"
        );
    }
}

/// Groups whose members' *materialized* XOR is not zero. A group whose
/// members all hold the zero form needs no bytes to be judged.
fn broken_groups(v: &ArrayVolume) -> Vec<u64> {
    let spb = v.map().sectors_per_block();
    let broken = |index: &u64| {
        let group = v.map().group(*index);
        let runs = |&(d, db): &(usize, u64)| v.disk(d).peek_runs(0, db * spb, spb as u32);
        if (group.iter()).all(|m| runs(m).is_ok_and(|img| img.iter().all(|r| r.base == Form::Zero)))
        {
            return false;
        }
        let mut acc = vec![0u8; spb as usize * SECTOR_SIZE];
        for &(d, db) in &group {
            let img = v.disk(d).peek(0, db * spb, spb as u32).expect("readable");
            acc.iter_mut().zip(img.iter()).for_each(|(a, b)| *a ^= b);
        }
        acc.iter().any(|&b| b != 0)
    };
    (0..v.map().n_groups()).filter(broken).collect()
}

#[test]
fn redundant_array_holds_markers_and_keeps_the_parity_identity() {
    abr_obs::registry_clear();
    let mut e = ArrayExperiment::new(config());
    // What formatting itself writes raw: label and block table.
    let formatted = e.volume().disk(0).blank_twin().disk().store().raw_pages();
    for i in 0..N_DISKS {
        let raw = raw_pages(e.volume(), i);
        assert!(raw <= formatted, "member {i} after set-up: {raw} raw pages");
    }
    assert_eq!(broken_groups(e.volume()), Vec::<u64>::new(), "after set-up");
    assert_slabs_are_per_run(e.volume(), "after set-up");
    let kept = e.volume().bookkeeping_heap_bytes();
    assert!(
        kept <= KEPT_BYTES,
        "bookkeeping keeps {kept} B after set-up"
    );

    // The victim dies 30 minutes into the measured day; its hot spare
    // arrives 10 minutes later and is re-silvered under the budget.
    let death = e.clock() + SimDuration::from_mins(30);
    let spare_after = SimDuration::from_mins(10);
    e.install_fault_plan(VICTIM, FaultPlan::disk_death(death, spare_after));
    let day = e.run_day();
    assert!(day.volume.all.n > 100, "volume served {}", day.volume.all.n);
    let counts: usize = std::iter::once(&day.volume)
        .chain(&day.per_disk)
        .map(|d| d.block_counts.heap_bytes() + d.block_counts_reads.heap_bytes())
        .sum();
    assert!(
        counts <= KEPT_BYTES,
        "the day's distributions take {counts} B"
    );
    let v = e.volume();
    assert!(!v.disk_down(VICTIM, e.clock()), "the spare is in");
    assert_eq!(v.rebuild_pending(), 0, "the spare is re-silvered");
    assert_eq!(broken_groups(v), Vec::<u64>::new(), "after the rebuild");
    for i in 0..N_DISKS {
        let raw = raw_pages(v, i);
        assert!(
            raw <= formatted,
            "member {i} after the day: {raw} raw pages"
        );
    }
    assert_slabs_are_per_run(v, "after the day");
}

//! Model test for the block table's index arrays: every answer must be
//! that of an ordered map from original sector to entry and its inverse
//! from slot to sector.
//!
//! The stream mixes what the driver does (insert into a free slot,
//! re-insert into a new one, dirty, remove, the recovery sweep) over
//! starts that are block-aligned, shifted by a partition offset, beyond
//! the sized array and — as only a forged on-disk table can — two to a
//! bucket, on a table sized for a disk and on one that grows as it
//! fills. With `--features sanitize` the bijection is asserted at every
//! step.

use abr_disk::{models, DiskLabel};
use abr_driver::blocktable::{BlockTable, Entry};
use abr_driver::layout::ReservedLayout;
use abr_sim::SimRng;
use std::collections::BTreeMap;

const STEPS: usize = 10_000;
const SLOTS: u32 = 1_020;

/// A starting sector: mostly aligned blocks of a Toshiba-sized disk, some
/// shifted off the bucket grid, a few past the end of the disk.
fn start(rng: &mut SimRng, total: u64) -> u64 {
    let block = rng.below(total / 16 + 64) * 16;
    match rng.below(8) {
        0 => block + rng.below(16),
        1 => block + 5,
        _ => block,
    }
}

fn run(mut t: BlockTable, seed: u64) {
    let g = models::toshiba_mk156f().geometry;
    let layout = ReservedLayout::for_label(&DiskLabel::rearranged(g, 48), 8192, SLOTS).unwrap();
    let total = g.total_sectors();
    let mut rng = SimRng::new(seed);
    let mut fwd: BTreeMap<u64, Entry> = BTreeMap::new();
    let mut rev: BTreeMap<u32, u64> = BTreeMap::new();
    let mut peak = 0;
    for step in 0..STEPS {
        let live: Option<u64> =
            (!fwd.is_empty()).then(|| *fwd.keys().nth(rng.index(fwd.len())).unwrap());
        match (rng.below(10), live) {
            (0..=4, _) | (_, None) => {
                // Insert (or move) into a free slot; stay under the
                // on-disk capacity so the round trip below encodes.
                let orig = match live {
                    Some(orig) if rng.chance(0.2) => orig,
                    _ => start(&mut rng, total),
                };
                let slot = rng.below(u64::from(SLOTS)) as u32;
                if rev.contains_key(&slot) || fwd.len() as u32 == SLOTS - 1 {
                    continue;
                }
                t.insert(orig, slot);
                let entry = Entry { slot, dirty: false };
                if let Some(old) = fwd.insert(orig, entry) {
                    rev.remove(&old.slot);
                }
                rev.insert(slot, orig);
            }
            (5..=6, Some(orig)) => {
                t.mark_dirty(orig);
                fwd.get_mut(&orig).unwrap().dirty = true;
            }
            (7..=8, Some(orig)) => {
                let gone = fwd.remove(&orig);
                assert_eq!(t.remove(orig), gone);
                rev.remove(&gone.unwrap().slot);
            }
            (_, Some(_)) => {
                if rng.chance(0.02) {
                    t.mark_all_dirty();
                    fwd.values_mut().for_each(|e| e.dirty = true);
                } else {
                    // Dirtying or removing an absent start is a no-op.
                    let absent = start(&mut rng, total) + 3;
                    if !fwd.contains_key(&absent) {
                        t.mark_dirty(absent);
                        assert_eq!(t.remove(absent), None);
                    }
                }
            }
        }
        peak = peak.max(fwd.len());
        assert_eq!(t.len(), fwd.len());
        let probe = start(&mut rng, total);
        assert_eq!(t.lookup(probe), fwd.get(&probe).copied());
        let slot = rng.below(u64::from(SLOTS)) as u32;
        assert_eq!(t.occupant(slot), rev.get(&slot).copied());
        #[cfg(feature = "sanitize")]
        t.assert_bijection();
        if step % 50 == 0 {
            let want: Vec<(u64, Entry)> = fwd.iter().map(|(&s, &e)| (s, e)).collect();
            assert_eq!(
                t.iter().collect::<Vec<_>>(),
                want,
                "iter: ascending sectors"
            );
            let by_slot: Vec<(u64, Entry)> = rev.iter().map(|(_, &s)| (s, fwd[&s])).collect();
            assert_eq!(t.entries_by_slot(), by_slot);
        }
        if step % 500 == 0 {
            let back = BlockTable::decode_region(&t.encode_region(&layout).unwrap()).unwrap();
            assert_eq!(back.entries_by_slot(), t.entries_by_slot());
            assert_eq!(
                back.iter().collect::<Vec<_>>(),
                t.iter().collect::<Vec<_>>()
            );
        }
    }
    assert!(peak > 300, "the stream fills the table ({peak})");
}

#[test]
fn sized_table_matches_the_ordered_maps() {
    let total = models::toshiba_mk156f().geometry.total_sectors();
    for seed in 0..2 {
        run(BlockTable::for_disk(16, total), seed);
    }
}

#[test]
fn growing_table_matches_the_ordered_maps() {
    for seed in 0..2 {
        run(BlockTable::new(), 100 + seed);
    }
}

#[test]
fn other_block_sizes_bucket_by_their_own_block() {
    // 4 KB blocks: starts 8 sectors apart are distinct buckets, and the
    // forward array is one cell per block (the reverse one doubles).
    let total = models::tiny_test_disk().geometry.total_sectors();
    let mut t = BlockTable::for_disk(8, total);
    for (slot, orig) in (0..total / 8).map(|b| b * 8).enumerate() {
        t.insert(orig, slot as u32);
    }
    assert_eq!(t.len() as u64, total / 8);
    assert!(t.heap_bytes() as u64 <= 3 * 8 * (total / 8));
    assert!(t.iter().map(|(s, _)| s).eq((0..total / 8).map(|b| b * 8)));
}

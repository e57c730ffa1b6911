//! Property tests on core invariants: each runs a fixed number of cases
//! drawn from its own seeded [`SimRng`], so a failure reproduces on rerun.

#![allow(clippy::disallowed_types, reason = "test code, not a simulated result")]

use abr::core::analyzer::{BoundedAnalyzer, FullAnalyzer, HotBlock, ReferenceAnalyzer};
use abr::core::placement::{PolicyKind, SlotMap};
use abr::disk::{models, DiskLabel, Geometry};
use abr::driver::blocktable::BlockTable;
use abr::driver::{physio, ReservedLayout};
use abr::sim::{DistTable, Histogram, SimDuration, SimRng};
use std::collections::HashSet;

/// Uniform in `lo..hi`.
fn between(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// A length uniform in `lo..hi`.
fn len_between(rng: &mut SimRng, lo: usize, hi: usize) -> usize {
    lo + rng.index(hi - lo)
}

fn arb_geometry(rng: &mut SimRng) -> Geometry {
    Geometry {
        cylinders: between(rng, 64, 2048) as u32,
        tracks_per_cylinder: between(rng, 1, 20) as u32,
        sectors_per_track: between(rng, 16, 120) as u32,
        rpm: 3600,
    }
}

#[test]
fn label_mapping_is_bijective_outside_reserved() {
    let mut rng = SimRng::new(1);
    for _ in 0..256 {
        let g = arb_geometry(&mut rng);
        let frac = 0.02 + 0.28 * rng.f64();
        let samples: Vec<u64> = (0..20).map(|_| rng.below(u64::MAX)).collect();
        let n_res = ((g.cylinders as f64 * frac) as u32)
            .max(1)
            .min(g.cylinders - 2);
        let Some(reserved) = abr::disk::ReservedArea::centered_aligned(&g, n_res, 16) else {
            continue;
        };
        let label = DiskLabel {
            physical: g,
            partitions: vec![],
            reserved: Some(reserved),
        };
        let vtotal = label.virtual_geometry().total_sectors();
        for s in samples {
            let v = s % vtotal;
            let p = label.virtual_to_physical(v);
            // Round-trips exactly.
            assert_eq!(label.physical_to_virtual(p), Some(v), "{g:?}");
            // Never lands in the reserved region.
            let cyl = g.cylinder_of(p);
            assert!(!reserved.contains_cylinder(cyl), "{g:?}: {v} -> {p}");
        }
        // Reserved sectors have no virtual address.
        let res_start = reserved.start_sector(&g);
        assert_eq!(label.physical_to_virtual(res_start), None, "{g:?}");
    }
}

#[test]
fn label_encode_decode_roundtrip() {
    let mut rng = SimRng::new(2);
    for _ in 0..256 {
        let g = arb_geometry(&mut rng);
        let n_parts = rng.index(5);
        let mut label = DiskLabel::whole_disk(g);
        let total = g.total_sectors();
        label.partitions = (0..n_parts)
            .map(|i| abr::disk::Partition {
                start_sector: (total / (n_parts as u64 + 1)) * i as u64,
                n_sectors: total / (n_parts as u64 + 1),
            })
            .collect();
        let bytes = label.encode();
        assert_eq!(DiskLabel::decode(&bytes).unwrap(), label);
    }
}

#[test]
fn block_table_roundtrip_arbitrary() {
    let g = models::toshiba_mk156f().geometry;
    let label = DiskLabel::rearranged(g, 48);
    let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
    let mut rng = SimRng::new(3);
    for _ in 0..16 {
        let n = len_between(&mut rng, 0, 200);
        let entries: Vec<(u64, bool)> = (0..n)
            .map(|_| (rng.below(1_000_000), rng.chance(0.5)))
            .collect();
        let mut t = BlockTable::new();
        let mut used = HashSet::new();
        let mut slot = 0u32;
        for (block, dirty) in entries {
            let orig = block * 16;
            if !used.insert(orig) || slot >= layout.n_slots {
                continue;
            }
            t.insert(orig, slot);
            if dirty {
                t.mark_dirty(orig);
            }
            slot += 1;
        }
        let bytes = t.encode(&layout).unwrap();
        let back = BlockTable::decode(&bytes).unwrap();
        assert_eq!(back.len(), t.len());
        for (orig, e) in t.iter() {
            assert_eq!(back.lookup(orig), Some(e));
        }
    }
}

#[test]
fn physio_split_partitions_exactly() {
    let mut rng = SimRng::new(4);
    for _ in 0..256 {
        let sector = rng.below(100_000);
        let n = between(&mut rng, 1, 500) as u32;
        let spb = between(&mut rng, 1, 64) as u32;
        let pieces = physio::split(sector, n, spb);
        let mut cur = sector;
        for (s, len) in &pieces {
            assert_eq!(*s, cur);
            assert!(*len > 0);
            assert!(s % u64::from(spb) + u64::from(*len) <= u64::from(spb));
            cur += u64::from(*len);
        }
        assert_eq!(cur, sector + u64::from(n), "split({sector}, {n}, {spb})");
    }
}

#[test]
fn placement_policies_never_double_book() {
    let g = models::toshiba_mk156f().geometry;
    let label = DiskLabel::rearranged(g, 48);
    let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
    let slots = SlotMap::new(&layout, &g);
    let mut rng = SimRng::new(5);
    for _ in 0..64 {
        let n = len_between(&mut rng, 1, 300);
        // Deduplicate blocks, then rank by descending synthetic counts.
        let uniq: Vec<u64> = (0..n)
            .map(|_| rng.below(50_000))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let hot: Vec<HotBlock> = uniq
            .iter()
            .enumerate()
            .map(|(i, &b)| HotBlock {
                block: b,
                count: (uniq.len() - i) as u64,
            })
            .collect();
        for kind in PolicyKind::all() {
            let placed = kind.make(1).place(&hot, &slots);
            // Every hot block placed (up to capacity), no slot reused.
            assert_eq!(placed.len(), hot.len().min(slots.n_slots() as usize));
            let slots_used: HashSet<u32> = placed.iter().map(|&(_, s)| s).collect();
            assert_eq!(slots_used.len(), placed.len());
            let blocks_used: HashSet<u64> = placed.iter().map(|&(b, _)| b).collect();
            assert_eq!(blocks_used.len(), placed.len());
            for &(_, s) in &placed {
                assert!(s < slots.n_slots());
            }
        }
    }
}

#[test]
fn bounded_analyzer_overestimates_but_bounds_error() {
    let mut rng = SimRng::new(6);
    for _ in 0..64 {
        let n = len_between(&mut rng, 1, 2000);
        let stream: Vec<u64> = (0..n).map(|_| rng.below(50)).collect();
        // Space-Saving invariants: estimated count >= true count, and
        // error <= total / capacity.
        let capacity = 10usize;
        let mut exact = FullAnalyzer::new();
        let mut bounded = BoundedAnalyzer::new(capacity);
        for &b in &stream {
            exact.observe(b, 1);
            bounded.observe(b, 1);
        }
        let bound = stream.len() as u64 / capacity as u64;
        for h in bounded.hot_list(capacity) {
            let truth = exact.count_of(h.block);
            assert!(h.count >= truth, "estimate below truth");
            assert!(
                h.count - truth <= bound,
                "error {} exceeds bound {}",
                h.count - truth,
                bound
            );
        }
    }
}

#[test]
fn histogram_mean_matches_reference() {
    let mut rng = SimRng::new(7);
    for _ in 0..256 {
        let n = len_between(&mut rng, 1, 300);
        let samples: Vec<u64> = (0..n).map(|_| rng.below(500_000)).collect();
        let mut h = Histogram::millis(100);
        for &s in &samples {
            h.record(SimDuration::from_micros(s));
        }
        let expect = samples.iter().sum::<u64>() / samples.len() as u64;
        assert_eq!(h.mean().unwrap().as_micros(), expect);
        assert_eq!(h.count(), samples.len() as u64);
        // CDF monotone, ends at 1.
        let cdf = h.cdf_points();
        for w in cdf.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }
}

#[test]
fn dist_table_mean_by_is_linear() {
    let mut rng = SimRng::new(8);
    for _ in 0..256 {
        let n = len_between(&mut rng, 1, 200);
        let mut d = DistTable::new();
        for _ in 0..n {
            d.record(rng.below(1000));
        }
        // mean_by(identity) == mean()
        assert!((d.mean_by(|v| v as f64) - d.mean()).abs() < 1e-9);
        // mean_by(2x) == 2 * mean()
        assert!((d.mean_by(|v| 2.0 * v as f64) - 2.0 * d.mean()).abs() < 1e-9);
    }
}

#[test]
fn seek_curves_nonnegative_and_zero_at_zero() {
    let mut rng = SimRng::new(9);
    // Distance 0 is one draw in 4,096: check it outright.
    for d in std::iter::once(0).chain((0..256).map(|_| rng.below(4096))) {
        for m in [models::toshiba_mk156f(), models::fujitsu_m2266()] {
            let t = m.seek.time_ms(d);
            assert!(t >= 0.0);
            if d == 0 {
                assert_eq!(t, 0.0);
            } else {
                assert!(t > 0.0, "seek of {d} cylinders took {t} ms");
            }
        }
    }
}

#[test]
fn reserved_layout_slots_disjoint() {
    let g = models::fujitsu_m2266().geometry;
    let mut rng = SimRng::new(10);
    for _ in 0..256 {
        let n_cyl = between(&mut rng, 4, 120) as u32;
        let block_kb = between(&mut rng, 1, 5) as u32;
        let block = block_kb * 2048; // 2,4,6,8 KB
        let spb = block / 512;
        let Some(reserved) = abr::disk::ReservedArea::centered_aligned(&g, n_cyl, spb) else {
            continue;
        };
        let layout = ReservedLayout::new(&g, reserved, block, 1024);
        let end = layout.start_sector + layout.total_sectors;
        let mut prev = layout.start_sector + layout.table_sectors;
        for i in 0..layout.n_slots {
            let s = layout.slot_sector(i);
            assert_eq!(s, prev);
            prev = s + u64::from(spb);
            assert!(prev <= end);
            assert_eq!(layout.slot_of_sector(s), Some(i));
        }
    }
}

/// `n` random bit flips (byte index, bit in the byte).
fn flips(rng: &mut SimRng, n: usize) -> Vec<(usize, u32)> {
    (0..n)
        .map(|_| (rng.next_u64() as usize, rng.below(8) as u32))
        .collect()
}

// Corruption robustness: decoding an encoded table with arbitrary bit
// damage must surface as `TableError` (or decode to the *original* table
// when the damage lands in ignored padding or a redundant copy) — never
// as a silently different table.
#[test]
fn block_table_bit_flips_never_mis_decode() {
    let g = models::toshiba_mk156f().geometry;
    let label = DiskLabel::rearranged(g, 48);
    let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
    let mut rng = SimRng::new(11);
    for _ in 0..64 {
        let n = len_between(&mut rng, 1, 60);
        let blocks: Vec<u64> = (0..n).map(|_| rng.below(100_000)).collect();
        let n_flips = len_between(&mut rng, 1, 10);
        let t = table_of(&blocks, &layout);
        let mut bytes = t.encode(&layout).unwrap();
        for (pos, bit) in flips(&mut rng, n_flips) {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        check_decode_is_error_or_original(BlockTable::decode(&bytes), &t);
    }
}

#[test]
fn table_region_survives_corruption_of_one_half() {
    let g = models::toshiba_mk156f().geometry;
    let label = DiskLabel::rearranged(g, 48);
    let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
    let mut rng = SimRng::new(12);
    for _ in 0..64 {
        let n = len_between(&mut rng, 1, 60);
        let blocks: Vec<u64> = (0..n).map(|_| rng.below(100_000)).collect();
        let n_flips = len_between(&mut rng, 1, 32);
        let flips = flips(&mut rng, n_flips);
        let hit_second_half = rng.chance(0.5);
        let t = table_of(&blocks, &layout);
        let mut bytes = t.encode_region(&layout).unwrap();
        let half = bytes.len() / 2;
        for (pos, bit) in flips {
            let i = pos % half + if hit_second_half { half } else { 0 };
            bytes[i] ^= 1 << bit;
        }
        // Damage confined to one redundant copy: the other must carry it.
        let back = BlockTable::decode_region(&bytes);
        assert!(back.is_ok(), "one-half corruption lost the table");
        check_decode_is_error_or_original(back, &t);
    }
}

fn table_of(blocks: &[u64], layout: &ReservedLayout) -> BlockTable {
    let mut t = BlockTable::new();
    let mut used = HashSet::new();
    let mut slot = 0u32;
    for &block in blocks {
        let orig = block * 16;
        if !used.insert(orig) || slot >= layout.n_slots {
            continue;
        }
        t.insert(orig, slot);
        if block % 2 == 0 {
            t.mark_dirty(orig);
        }
        slot += 1;
    }
    t
}

fn check_decode_is_error_or_original(
    back: Result<BlockTable, abr::driver::blocktable::TableError>,
    original: &BlockTable,
) {
    if let Ok(back) = back {
        assert_eq!(back.len(), original.len(), "mis-decoded table");
        for (orig, e) in original.iter() {
            assert_eq!(back.lookup(orig), Some(e), "mis-decoded entry");
        }
    }
}

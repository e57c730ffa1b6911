//! Property-based tests on core invariants, with `proptest`.

#![allow(clippy::disallowed_types, reason = "test code, not a simulated result")]

use abr::core::analyzer::{BoundedAnalyzer, FullAnalyzer, HotBlock, ReferenceAnalyzer};
use abr::core::placement::{PolicyKind, SlotMap};
use abr::disk::{models, DiskLabel, Geometry};
use abr::driver::blocktable::BlockTable;
use abr::driver::{physio, ReservedLayout};
use abr::sim::{DistTable, Histogram, SimDuration};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    (64u32..2048, 1u32..20, 16u32..120).prop_map(|(cyl, trk, sect)| Geometry {
        cylinders: cyl,
        tracks_per_cylinder: trk,
        sectors_per_track: sect,
        rpm: 3600,
    })
}

proptest! {
    #[test]
    fn label_mapping_is_bijective_outside_reserved(
        g in arb_geometry(),
        frac in 0.02f64..0.3,
        samples in proptest::collection::vec(0u64..u64::MAX, 20),
    ) {
        let n_res = ((g.cylinders as f64 * frac) as u32).max(1).min(g.cylinders - 2);
        let Some(reserved) = abr::disk::ReservedArea::centered_aligned(&g, n_res, 16) else {
            return Ok(());
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
            prop_assert_eq!(label.physical_to_virtual(p), Some(v));
            // Never lands in the reserved region.
            let cyl = g.cylinder_of(p);
            prop_assert!(!reserved.contains_cylinder(cyl));
        }
        // Reserved sectors have no virtual address.
        let res_start = reserved.start_sector(&g);
        prop_assert_eq!(label.physical_to_virtual(res_start), None);
    }

    #[test]
    fn label_encode_decode_roundtrip(
        g in arb_geometry(),
        n_parts in 0usize..5,
    ) {
        let mut label = DiskLabel::whole_disk(g);
        let total = g.total_sectors();
        label.partitions = (0..n_parts)
            .map(|i| abr::disk::Partition {
                start_sector: (total / (n_parts as u64 + 1)) * i as u64,
                n_sectors: total / (n_parts as u64 + 1),
            })
            .collect();
        let bytes = label.encode();
        prop_assert_eq!(DiskLabel::decode(&bytes).unwrap(), label);
    }

    #[test]
    fn block_table_roundtrip_arbitrary(
        entries in proptest::collection::vec((0u64..1_000_000, any::<bool>()), 0..200),
    ) {
        let g = models::toshiba_mk156f().geometry;
        let label = DiskLabel::rearranged(g, 48);
        let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
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
        prop_assert_eq!(back.len(), t.len());
        for (orig, e) in t.iter() {
            prop_assert_eq!(back.lookup(orig), Some(e));
        }
    }

    #[test]
    fn physio_split_partitions_exactly(
        sector in 0u64..100_000,
        n in 1u32..500,
        spb in 1u32..64,
    ) {
        let pieces = physio::split(sector, n, spb);
        let mut cur = sector;
        for (s, len) in &pieces {
            prop_assert_eq!(*s, cur);
            prop_assert!(*len > 0);
            prop_assert!(s % u64::from(spb) + u64::from(*len) <= u64::from(spb));
            cur += u64::from(*len);
        }
        prop_assert_eq!(cur, sector + u64::from(n));
    }

    #[test]
    fn placement_policies_never_double_book(
        seed_blocks in proptest::collection::vec(0u64..50_000, 1..300),
    ) {
        let g = models::toshiba_mk156f().geometry;
        let label = DiskLabel::rearranged(g, 48);
        let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
        let slots = SlotMap::new(&layout, &g);
        // Deduplicate blocks, then rank by descending synthetic counts.
        let uniq: Vec<u64> = seed_blocks
            .into_iter()
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
            prop_assert_eq!(placed.len(), hot.len().min(slots.n_slots() as usize));
            let slots_used: HashSet<u32> = placed.iter().map(|&(_, s)| s).collect();
            prop_assert_eq!(slots_used.len(), placed.len());
            let blocks_used: HashSet<u64> = placed.iter().map(|&(b, _)| b).collect();
            prop_assert_eq!(blocks_used.len(), placed.len());
            for &(_, s) in &placed {
                prop_assert!(s < slots.n_slots());
            }
        }
    }

    #[test]
    fn bounded_analyzer_overestimates_but_bounds_error(
        stream in proptest::collection::vec(0u64..50, 1..2000),
    ) {
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
            prop_assert!(h.count >= truth, "estimate below truth");
            prop_assert!(
                h.count - truth <= bound,
                "error {} exceeds bound {}",
                h.count - truth,
                bound
            );
        }
    }

    #[test]
    fn histogram_mean_matches_reference(
        samples in proptest::collection::vec(0u64..500_000u64, 1..300),
    ) {
        let mut h = Histogram::millis(100);
        for &s in &samples {
            h.record(SimDuration::from_micros(s));
        }
        let expect = samples.iter().sum::<u64>() / samples.len() as u64;
        prop_assert_eq!(h.mean().unwrap().as_micros(), expect);
        prop_assert_eq!(h.count(), samples.len() as u64);
        // CDF monotone, ends at 1.
        let cdf = h.cdf_points();
        for w in cdf.windows(2) {
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dist_table_mean_by_is_linear(
        values in proptest::collection::vec(0u64..1000, 1..200),
    ) {
        let mut d = DistTable::new();
        for &v in &values {
            d.record(v);
        }
        // mean_by(identity) == mean()
        prop_assert!((d.mean_by(|v| v as f64) - d.mean()).abs() < 1e-9);
        // mean_by(2x) == 2 * mean()
        prop_assert!((d.mean_by(|v| 2.0 * v as f64) - 2.0 * d.mean()).abs() < 1e-9);
    }

    #[test]
    fn seek_curves_nonnegative_and_zero_at_zero(d in 0u64..4096) {
        for m in [models::toshiba_mk156f(), models::fujitsu_m2266()] {
            let t = m.seek.time_ms(d);
            prop_assert!(t >= 0.0);
            if d == 0 {
                prop_assert_eq!(t, 0.0);
            } else {
                prop_assert!(t > 0.0);
            }
        }
    }

    #[test]
    fn reserved_layout_slots_disjoint(
        n_cyl in 4u32..120,
        block_kb in 1u32..5,
    ) {
        let g = models::fujitsu_m2266().geometry;
        let block = block_kb * 2048; // 2,4,6,8 KB
        let spb = block / 512;
        let Some(reserved) = abr::disk::ReservedArea::centered_aligned(&g, n_cyl, spb) else {
            return Ok(());
        };
        let layout = ReservedLayout::new(&g, reserved, block, 1024);
        let end = layout.start_sector + layout.total_sectors;
        let mut prev = layout.start_sector + layout.table_sectors;
        for i in 0..layout.n_slots {
            let s = layout.slot_sector(i);
            prop_assert_eq!(s, prev);
            prev = s + u64::from(spb);
            prop_assert!(prev <= end);
            prop_assert_eq!(layout.slot_of_sector(s), Some(i));
        }
    }
}

// Corruption robustness: decoding an encoded table with arbitrary bit
// damage must surface as `TableError` (or decode to the *original* table
// when the damage lands in ignored padding or a redundant copy) — never
// as a silently different table.
proptest! {
    #[test]
    fn block_table_bit_flips_never_mis_decode(
        blocks in proptest::collection::vec(0u64..100_000, 1..60),
        flips in proptest::collection::vec((any::<usize>(), 0u32..8), 1..10),
    ) {
        let g = models::toshiba_mk156f().geometry;
        let label = DiskLabel::rearranged(g, 48);
        let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
        let t = table_of(&blocks, &layout);
        let mut bytes = t.encode(&layout).unwrap();
        for (pos, bit) in flips {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        check_decode_is_error_or_original(BlockTable::decode(&bytes), &t);
    }

    #[test]
    fn table_region_survives_corruption_of_one_half(
        blocks in proptest::collection::vec(0u64..100_000, 1..60),
        flips in proptest::collection::vec((any::<usize>(), 0u32..8), 1..32),
        hit_second_half in any::<bool>(),
    ) {
        let g = models::toshiba_mk156f().geometry;
        let label = DiskLabel::rearranged(g, 48);
        let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
        let t = table_of(&blocks, &layout);
        let mut bytes = t.encode_region(&layout).unwrap();
        let half = bytes.len() / 2;
        for (pos, bit) in flips {
            let i = pos % half + if hit_second_half { half } else { 0 };
            bytes[i] ^= 1 << bit;
        }
        // Damage confined to one redundant copy: the other must carry it.
        let back = BlockTable::decode_region(&bytes);
        prop_assert!(back.is_ok(), "one-half corruption lost the table");
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

//! Placement policies for the reserved region (§4.2, Figure 3).
//!
//! Given the hot list (blocks ranked by estimated reference frequency)
//! and the reserved area's slot geometry, a policy decides which slot
//! each block occupies:
//!
//! * [`OrganPipe`] — hottest blocks on the centre cylinder of the
//!   reserved region, next-hottest on the adjacent cylinders, alternating
//!   outward.
//! * [`Interleaved`] — like organ-pipe at the cylinder level, but chains
//!   of file-successive blocks are placed with the file system's
//!   interleave gap preserved, to keep the rotational optimization.
//! * [`Serial`] — the hot *set* is chosen by frequency, but blocks are
//!   laid out in ascending block-number order; frequencies do not affect
//!   position.

use crate::analyzer::HotBlock;
use abr_disk::Geometry;
use abr_driver::ReservedLayout;
use std::collections::BTreeMap;

/// Selectable policy kinds (for configs and reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Organ-pipe placement.
    OrganPipe,
    /// Interleave-preserving placement.
    Interleaved,
    /// Ascending block-number placement.
    Serial,
}

impl PolicyKind {
    /// Instantiate the policy. `interleave` is the file system's gap in
    /// blocks (used by [`Interleaved`] only).
    pub fn make(self, interleave: u64) -> Box<dyn PlacementPolicy> {
        match self {
            PolicyKind::OrganPipe => Box::new(OrganPipe),
            PolicyKind::Interleaved => Box::new(Interleaved::new(interleave)),
            PolicyKind::Serial => Box::new(Serial),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::OrganPipe => "Organ-pipe",
            PolicyKind::Interleaved => "Interleaved",
            PolicyKind::Serial => "Serial",
        }
    }

    /// All three, in the paper's comparison order.
    pub fn all() -> [PolicyKind; 3] {
        [
            PolicyKind::OrganPipe,
            PolicyKind::Interleaved,
            PolicyKind::Serial,
        ]
    }
}

/// The reserved area's slots, organized for placement decisions:
/// cylinders in organ-pipe fill order (centre cylinder first, then
/// alternating adjacent cylinders outward), each cylinder's slots in
/// ascending sector order.
#[derive(Debug, Clone)]
pub struct SlotMap {
    /// `cylinders[i]` = slots of the i-th cylinder in fill order.
    cylinders: Vec<Vec<u32>>,
    n_slots: u32,
}

impl SlotMap {
    /// Build from the driver's reserved layout and the disk geometry.
    pub fn new(layout: &ReservedLayout, geometry: &Geometry) -> Self {
        let mut by_cyl: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        for slot in 0..layout.n_slots {
            by_cyl
                .entry(layout.slot_cylinder(geometry, slot))
                .or_default()
                .push(slot);
        }
        let center = geometry.cylinder_of(layout.start_sector + layout.total_sectors / 2);
        let mut cyls: Vec<u32> = by_cyl.keys().copied().collect();
        // Organ-pipe cylinder order: by distance from centre, lower
        // cylinder first on ties.
        cyls.sort_by_key(|&c| (c.abs_diff(center), c));
        let cylinders = cyls
            .into_iter()
            .map(|c| {
                let mut slots = by_cyl.remove(&c).expect("present");
                slots.sort_unstable();
                slots
            })
            .collect();
        SlotMap {
            cylinders,
            n_slots: layout.n_slots,
        }
    }

    /// Total slots.
    pub fn n_slots(&self) -> u32 {
        self.n_slots
    }

    /// Cylinders in fill order.
    pub fn cylinders(&self) -> &[Vec<u32>] {
        &self.cylinders
    }

    /// All slots in organ-pipe fill order (flattened).
    pub fn fill_order(&self) -> impl Iterator<Item = u32> + '_ {
        self.cylinders.iter().flatten().copied()
    }
}

/// A placement policy: assign hot blocks to reserved slots.
///
/// Policies are `Send` so a whole [`crate::Experiment`] can run on a
/// worker thread of the parallel benchmark engine.
pub trait PlacementPolicy: Send {
    /// Display name.
    fn name(&self) -> &'static str;

    /// Assign blocks to slots. `hot` is ranked descending by count; at
    /// most `slots.n_slots()` entries are placed. Returns
    /// `(virtual block, slot)` pairs; every slot appears at most once.
    fn place(&self, hot: &[HotBlock], slots: &SlotMap) -> Vec<(u64, u32)>;
}

/// Organ-pipe placement: rank order straight into organ-pipe slot order.
#[derive(Debug, Clone, Copy, Default)]
pub struct OrganPipe;

impl PlacementPolicy for OrganPipe {
    fn name(&self) -> &'static str {
        "Organ-pipe"
    }

    fn place(&self, hot: &[HotBlock], slots: &SlotMap) -> Vec<(u64, u32)> {
        hot.iter()
            .map(|h| h.block)
            .zip(slots.fill_order())
            .collect()
    }
}

/// Serial placement: the hottest `n_slots` blocks, in ascending block
/// order, into slots in ascending slot order (i.e. ascending sector
/// order, ignoring frequencies).
#[derive(Debug, Clone, Copy, Default)]
pub struct Serial;

impl PlacementPolicy for Serial {
    fn name(&self) -> &'static str {
        "Serial"
    }

    fn place(&self, hot: &[HotBlock], slots: &SlotMap) -> Vec<(u64, u32)> {
        let take = (slots.n_slots() as usize).min(hot.len());
        let mut blocks: Vec<u64> = hot[..take].iter().map(|h| h.block).collect();
        blocks.sort_unstable();
        let mut slot_ids: Vec<u32> = slots.fill_order().collect();
        slot_ids.sort_unstable();
        blocks.into_iter().zip(slot_ids).collect()
    }
}

/// Interleave-preserving placement (§4.2):
///
/// "The block arranger starts by choosing the hottest block and placing
/// it in the center cylinder. It then determines whether the hottest
/// block has a successor in the hot block list. If so, that block is
/// placed in the center cylinder, separated from the first block by the
/// interleaving factor. ... A chain of successors is followed either
/// until a successor cannot be placed or until a block is found to have
/// no successor. At that point, the block arranger selects the hottest
/// remaining block and attempts to begin a new chain. Cylinders are
/// filled in the same order used by the organ-pipe policy."
///
/// Block `Y` is the *successor* of `X` if `Y = X + interleave + 1` (the
/// file system places consecutive file blocks that far apart) and `Y`'s
/// frequency is *close* to `X`'s — at least 50 % of it ("the 50% figure
/// was chosen arbitrarily", says the paper, and we keep it).
#[derive(Debug, Clone, Copy)]
pub struct Interleaved {
    gap: u64,
}

impl Interleaved {
    /// Policy preserving a file-system interleave gap of `interleave`
    /// blocks (successive file blocks are `interleave + 1` apart).
    pub fn new(interleave: u64) -> Self {
        Interleaved {
            gap: interleave + 1,
        }
    }
}

impl PlacementPolicy for Interleaved {
    fn name(&self) -> &'static str {
        "Interleaved"
    }

    fn place(&self, hot: &[HotBlock], slots: &SlotMap) -> Vec<(u64, u32)> {
        // The hot list's distinct blocks in ascending order, each with the
        // count of its last entry; `of_rank[r]` is where `hot[r]`'s is.
        let mut order: Vec<(u64, usize)> = hot.iter().map(|h| h.block).zip(0..).collect();
        order.sort_unstable();
        let mut blocks: Vec<HotBlock> = Vec::with_capacity(hot.len());
        let mut of_rank = vec![0; hot.len()];
        for (_, r) in order {
            match blocks.last_mut() {
                Some(last) if last.block == hot[r].block => *last = hot[r],
                _ => blocks.push(hot[r]),
            }
            of_rank[r] = blocks.len() - 1;
        }
        let mut slot_of: Vec<Option<u32>> = vec![None; blocks.len()];
        // The hottest rank not yet tried as a chain head.
        let mut next = 0;
        let mut free = Vec::new();
        'cylinders: for cyl_slots in slots.cylinders() {
            // Free positions within this cylinder (index into cyl_slots),
            // and the first of them.
            free.clear();
            free.resize(cyl_slots.len(), true);
            let mut first_free = 0;
            while let Some(mut at) = (first_free..free.len()).find(|&p| free[p]) {
                first_free = at;
                // Hottest unplaced block starts a chain, at the first free
                // position.
                let (mut cur, mut count) = loop {
                    let Some(h) = hot.get(next) else {
                        break 'cylinders;
                    };
                    let i = of_rank[next];
                    next += 1;
                    if slot_of[i].is_none() {
                        break (i, h.count);
                    }
                };
                slot_of[cur] = Some(cyl_slots[at]);
                free[at] = false;
                // Follow the successor chain with the interleave gap.
                loop {
                    let succ_block = blocks[cur].block + self.gap;
                    let Ok(succ) = blocks.binary_search_by_key(&succ_block, |h| h.block) else {
                        break; // no successor in the hot list
                    };
                    // "Close" frequency: at least 50% of the predecessor's.
                    if blocks[succ].count * 2 < count || slot_of[succ].is_some() {
                        break;
                    }
                    let want = at + self.gap as usize;
                    if want >= cyl_slots.len() || !free[want] {
                        break; // successor cannot be placed
                    }
                    slot_of[succ] = Some(cyl_slots[want]);
                    free[want] = false;
                    (at, cur, count) = (want, succ, blocks[succ].count);
                }
            }
        }
        // Deterministic output order: by original rank.
        hot.iter()
            .zip(of_rank)
            .filter_map(|(h, i)| Some((h.block, slot_of[i]?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_disk::{models, DiskLabel};

    fn slot_map() -> (SlotMap, Geometry) {
        let g = models::toshiba_mk156f().geometry;
        let label = DiskLabel::rearranged(g, 48);
        let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
        (SlotMap::new(&layout, &g), g)
    }

    fn hot(n: usize) -> Vec<HotBlock> {
        // Descending counts; block numbers deliberately scattered.
        (0..n)
            .map(|i| HotBlock {
                block: (i as u64 * 37) % 5000,
                count: (n - i) as u64 * 10,
            })
            .collect()
    }

    fn assert_valid(assign: &[(u64, u32)], slots: &SlotMap) {
        let mut seen_slots = std::collections::HashSet::new();
        let mut seen_blocks = std::collections::HashSet::new();
        for &(b, s) in assign {
            assert!(s < slots.n_slots());
            assert!(seen_slots.insert(s), "slot {s} assigned twice");
            assert!(seen_blocks.insert(b), "block {b} placed twice");
        }
    }

    #[test]
    fn slot_map_covers_all_slots() {
        let (sm, _) = slot_map();
        let total: usize = sm.cylinders().iter().map(|c| c.len()).sum();
        assert_eq!(total, sm.n_slots() as usize);
        let mut all: Vec<u32> = sm.fill_order().collect();
        all.sort_unstable();
        assert_eq!(all, (0..sm.n_slots()).collect::<Vec<_>>());
    }

    #[test]
    fn slot_map_cylinder_order_is_center_out() {
        let (sm, g) = slot_map();
        let label = DiskLabel::rearranged(g, 48);
        let layout = ReservedLayout::for_label(&label, 8192, 1020).unwrap();
        let center = g.cylinder_of(layout.start_sector + layout.total_sectors / 2);
        let mut prev_dist = 0;
        for cyl_slots in sm.cylinders() {
            let cyl = layout.slot_cylinder(&g, cyl_slots[0]);
            let d = cyl.abs_diff(center);
            assert!(d >= prev_dist);
            prev_dist = d;
        }
    }

    #[test]
    fn organ_pipe_hottest_in_center() {
        let (sm, _) = slot_map();
        let hot = hot(100);
        let assign = OrganPipe.place(&hot, &sm);
        assert_eq!(assign.len(), 100);
        assert_valid(&assign, &sm);
        // The hottest block got the first fill-order slot (centre
        // cylinder).
        let first_slot = sm.fill_order().next().unwrap();
        assert_eq!(assign[0], (hot[0].block, first_slot));
    }

    #[test]
    fn organ_pipe_truncates_to_slots() {
        let (sm, _) = slot_map();
        let n = sm.n_slots() as usize + 500;
        let hot: Vec<HotBlock> = (0..n)
            .map(|i| HotBlock {
                block: i as u64,
                count: (n - i) as u64,
            })
            .collect();
        let assign = OrganPipe.place(&hot, &sm);
        assert_eq!(assign.len(), sm.n_slots() as usize);
        assert_valid(&assign, &sm);
    }

    #[test]
    fn serial_orders_by_block_number() {
        let (sm, _) = slot_map();
        let hot = hot(50);
        let assign = Serial.place(&hot, &sm);
        assert_eq!(assign.len(), 50);
        assert_valid(&assign, &sm);
        let mut sorted = assign.clone();
        sorted.sort_by_key(|&(b, _)| b);
        // Ascending block -> ascending slot.
        for w in sorted.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn interleaved_places_chains_with_gap() {
        let (sm, _) = slot_map();
        // Gap = 2 (interleave 1). A chain: blocks 100, 102, 104 with
        // close frequencies, plus unrelated hot blocks.
        let hot = vec![
            HotBlock {
                block: 100,
                count: 100,
            },
            HotBlock {
                block: 102,
                count: 90,
            },
            HotBlock {
                block: 104,
                count: 80,
            },
            HotBlock {
                block: 9000,
                count: 70,
            },
        ];
        let assign = Interleaved::new(1).place(&hot, &sm);
        assert_valid(&assign, &sm);
        let find = |b: u64| assign.iter().find(|&&(x, _)| x == b).map(|&(_, s)| s);
        let (s100, s102, s104) = (find(100).unwrap(), find(102).unwrap(), find(104).unwrap());
        // Chain members are gap slots apart in the same cylinder's
        // ascending slot order.
        assert_eq!(s102, s100 + 2);
        assert_eq!(s104, s102 + 2);
        // The unrelated block filled one of the gap holes.
        let s9000 = find(9000).unwrap();
        assert!(s9000 == s100 + 1 || s9000 == s100 + 3);
    }

    #[test]
    fn interleaved_breaks_chain_on_cold_successor() {
        let (sm, _) = slot_map();
        // 102's count (40) is less than half of 100's (100): not "close",
        // chain must break.
        let hot = vec![
            HotBlock {
                block: 100,
                count: 100,
            },
            HotBlock {
                block: 102,
                count: 40,
            },
        ];
        let assign = Interleaved::new(1).place(&hot, &sm);
        let find = |b: u64| assign.iter().find(|&&(x, _)| x == b).map(|&(_, s)| s);
        // 102 starts its own chain at the next free position, not at
        // head+2.
        assert_eq!(find(102).unwrap(), find(100).unwrap() + 1);
    }

    #[test]
    fn interleaved_places_everything_organ_pipe_would() {
        let (sm, _) = slot_map();
        let hot = hot(300);
        let assign = Interleaved::new(1).place(&hot, &sm);
        assert_eq!(assign.len(), 300, "no hot block may be dropped");
        assert_valid(&assign, &sm);
    }

    #[test]
    fn paper_figure_3_example() {
        // Figure 3: reserved area of 3 cylinders x 4 blocks, interleave
        // factor 1. We mimic with a synthetic slot map.
        let g = models::tiny_test_disk().geometry; // 64 sectors/cylinder
        let label = DiskLabel::rearranged_aligned(g, 3, 8);
        // block size 4096 (8 sectors): 8 slots/cylinder; close enough to
        // exercise the structure. Use a layout with table=1 block.
        let layout = ReservedLayout::for_label(&label, 4096, 8).unwrap();
        let sm = SlotMap::new(&layout, &g);
        assert!(sm.cylinders().len() >= 3);

        let hot = vec![
            HotBlock {
                block: 10,
                count: 20,
            },
            HotBlock {
                block: 12,
                count: 15,
            }, // successor of 10 (gap 2)
            HotBlock {
                block: 40,
                count: 12,
            },
            HotBlock {
                block: 42,
                count: 3,
            }, // NOT close to 40 (3 < 6)
        ];
        let op = OrganPipe.place(&hot, &sm);
        let il = Interleaved::new(1).place(&hot, &sm);
        let se = Serial.place(&hot, &sm);
        assert_eq!(op.len(), 4);
        assert_eq!(il.len(), 4);
        assert_eq!(se.len(), 4);
        // Serial: ascending block order = ascending slots.
        let se_map: std::collections::HashMap<u64, u32> = se.into_iter().collect();
        assert!(se_map[&10] < se_map[&12]);
        assert!(se_map[&12] < se_map[&40]);
        assert!(se_map[&40] < se_map[&42]);
        // Interleaved: the chain 10 -> 12 keeps the gap; 40 is not close
        // to 42 (3 < 12/2), so 40 starts a fresh chain in the first gap
        // hole and 42 independently takes the next free position.
        let il_map: std::collections::HashMap<u64, u32> = il.into_iter().collect();
        assert_eq!(il_map[&12], il_map[&10] + 2);
        assert_eq!(il_map[&40], il_map[&10] + 1);
        assert_eq!(il_map[&42], il_map[&10] + 3);
    }

    #[test]
    fn interleaved_chain_breaks_at_cylinder_edge() {
        // A long chain cannot spill past the end of a cylinder: the rest
        // of the chain restarts as new heads in later cylinders.
        let (sm, _) = slot_map();
        let per_cyl = sm.cylinders()[0].len(); // 21 on the Toshiba
        let chain_len = per_cyl; // gap 2 -> needs 2*per_cyl slots: must break
        let hot: Vec<HotBlock> = (0..chain_len as u64)
            .map(|i| HotBlock {
                block: 100 + i * 2,
                count: 1000 - i, // every successor is "close"
            })
            .collect();
        let assign = Interleaved::new(1).place(&hot, &sm);
        assert_eq!(assign.len(), chain_len, "all blocks still placed");
        assert_valid(&assign, &sm);
        // The chain's gap-2 spacing holds only while it fits: the first
        // few placed blocks are 2 apart.
        let find = |b: u64| assign.iter().find(|&&(x, _)| x == b).map(|&(_, s)| s);
        assert_eq!(find(102).unwrap(), find(100).unwrap() + 2);
        // But not every pair can be (the cylinder ran out): at least one
        // successor had to start fresh.
        let broken = (0..chain_len as u64 - 1)
            .any(|i| find(100 + (i + 1) * 2).unwrap() != find(100 + i * 2).unwrap() + 2);
        assert!(
            broken,
            "a {chain_len}-block chain cannot fit one cylinder at gap 2"
        );
    }

    #[test]
    fn interleaved_equals_organ_pipe_without_successors() {
        // With no successor relationships in the hot list, the
        // interleaved policy degenerates to rank-order filling.
        let (sm, _) = slot_map();
        let hot: Vec<HotBlock> = (0..50u64)
            .map(|i| HotBlock {
                block: i * 101, // no two blocks are gap-2 apart
                count: 500 - i,
            })
            .collect();
        let il = Interleaved::new(1).place(&hot, &sm);
        let op = OrganPipe.place(&hot, &sm);
        assert_eq!(il, op);
    }

    /// The interleaved policy as it was first written, over ordered maps
    /// and a rescan for each chain head's free position.
    fn interleaved_by_maps(gap: u64, hot: &[HotBlock], slots: &SlotMap) -> Vec<(u64, u32)> {
        let counts: BTreeMap<u64, u64> = hot.iter().map(|h| (h.block, h.count)).collect();
        let mut placed: BTreeMap<u64, u32> = BTreeMap::new();
        let mut todo: std::collections::VecDeque<HotBlock> = hot.iter().copied().collect();
        for cyl_slots in slots.cylinders() {
            let mut free: Vec<bool> = vec![true; cyl_slots.len()];
            let mut n_free = cyl_slots.len();
            'fill: while n_free > 0 {
                let head = loop {
                    match todo.pop_front() {
                        Some(h) if !placed.contains_key(&h.block) => break h,
                        Some(_) => continue,
                        None => break 'fill,
                    }
                };
                let mut pos = free.iter().position(|&f| f).unwrap();
                placed.insert(head.block, cyl_slots[pos]);
                free[pos] = false;
                n_free -= 1;
                let mut cur = head;
                loop {
                    let succ_block = cur.block + gap;
                    let Some(&succ_count) = counts.get(&succ_block) else {
                        break;
                    };
                    if succ_count * 2 < cur.count || placed.contains_key(&succ_block) {
                        break;
                    }
                    let want = pos + gap as usize;
                    if want >= cyl_slots.len() || !free[want] {
                        break;
                    }
                    placed.insert(succ_block, cyl_slots[want]);
                    free[want] = false;
                    n_free -= 1;
                    pos = want;
                    cur = HotBlock {
                        block: succ_block,
                        count: succ_count,
                    };
                }
            }
        }
        hot.iter()
            .filter_map(|h| placed.get(&h.block).map(|&s| (h.block, s)))
            .collect()
    }

    #[test]
    fn interleaved_matches_the_map_version_on_random_chains() {
        let (big, _) = slot_map();
        let g = models::tiny_test_disk().geometry;
        let label = DiskLabel::rearranged_aligned(g, 3, 8);
        let small = SlotMap::new(&ReservedLayout::for_label(&label, 4096, 8).unwrap(), &g);
        let mut rng = abr_sim::SimRng::new(0x1EAF);
        for round in 0..400 {
            let interleave = rng.below(4);
            let gap = interleave + 1;
            let n = 1 + rng.index(if round % 4 == 0 { 1_500 } else { 60 });
            // Chains of file-successive blocks with counts that stay
            // "close" or fall off, scattered over a span small enough
            // that chains touch and blocks repeat now and then.
            let span = 1 + rng.below(20 * n as u64);
            let mut hot = Vec::with_capacity(n);
            while hot.len() < n {
                let (mut block, mut count) = (rng.below(span), 1 + rng.below(1_000));
                for _ in 0..1 + rng.index(8) {
                    hot.push(HotBlock { block, count });
                    block += gap;
                    count = count * (40 + rng.below(80)) / 100;
                }
            }
            hot.truncate(n);
            hot.sort_by_key(|h| std::cmp::Reverse(h.count));
            for slots in [&big, &small] {
                assert_eq!(
                    Interleaved::new(interleave).place(&hot, slots),
                    interleaved_by_maps(gap, &hot, slots),
                    "round {round}, gap {gap}, {n} hot blocks"
                );
            }
        }
    }

    #[test]
    fn policy_kind_factory() {
        let (sm, _) = slot_map();
        let hot = hot(10);
        for kind in PolicyKind::all() {
            let p = kind.make(1);
            assert_eq!(p.name(), kind.name());
            let a = p.place(&hot, &sm);
            assert_eq!(a.len(), 10);
            assert_valid(&a, &sm);
        }
    }

    #[test]
    fn empty_hot_list_places_nothing() {
        let (sm, _) = slot_map();
        for kind in PolicyKind::all() {
            assert!(kind.make(1).place(&[], &sm).is_empty());
        }
    }
}

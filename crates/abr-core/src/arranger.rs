//! The block arranger (§4.2).
//!
//! "Another process, which is called the block arranger, selects the most
//! frequently requested blocks for rearrangement and controls their
//! placement in the reserved area."
//!
//! The arranger takes a hot list and a placement policy, and drives the
//! driver's block-movement ioctls: `DKIOCCLEAN` to empty the reserved
//! area (copying dirty blocks home), then one `DKIOCBCOPY` per selected
//! block.

use crate::analyzer::HotBlock;
use crate::placement::{PlacementPolicy, SlotMap};
use abr_disk::fault::DiskFault;
use abr_driver::{AdaptiveDriver, DriverError, Ioctl, IoctlReply};
use abr_obs::time_scope;
use abr_sim::{SimDuration, SimTime};

/// Outcome of one rearrangement cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RearrangeReport {
    /// Blocks copied into the reserved area.
    pub blocks_placed: u32,
    /// Blocks skipped because their placement failed (bad media, a
    /// quarantined slot, ...). The pass as a whole still succeeds; the
    /// block simply stays at its original address for another day.
    pub blocks_failed: u32,
    /// Disk operations issued (clean + copies + table writes).
    pub io_ops: u32,
    /// Total simulated time the movement took.
    pub busy: SimDuration,
}

impl RearrangeReport {
    /// Fold the reply to one block-movement ioctl into the report: the
    /// disk operations and busy time of a move that happened (`true`),
    /// or one more failed block for a failure that is local to it
    /// (`false`). Any other failure ends the pass.
    fn absorb(&mut self, reply: Result<IoctlReply, DriverError>) -> Result<bool, DriverError> {
        match reply {
            Ok(IoctlReply::Moved { ops, busy }) => {
                self.io_ops += ops;
                self.busy += busy;
                Ok(true)
            }
            Ok(_) => unreachable!("block-movement ioctls reply Moved"),
            Err(e) if skippable(&e) => {
                self.blocks_failed += 1;
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// What every placing pass ends with. Sanitize builds verify the
    /// whole pass left the redirect map a bijection, including after
    /// partially failed placements.
    #[cfg_attr(
        not(feature = "sanitize"),
        allow(unused_variables, reason = "only the sanitize check reads the driver")
    )]
    fn checked(self, driver: &AdaptiveDriver) -> RearrangeReport {
        #[cfg(feature = "sanitize")]
        driver.block_table().assert_bijection();
        self
    }
}

/// Whether a block-movement failure is local to that block (skip it and
/// carry on) rather than fatal to the whole pass. Power loss kills the
/// device; everything else — bad media, quarantined or occupied slots,
/// an exhausted retry budget — only affects the block being moved.
fn skippable(e: &DriverError) -> bool {
    match e {
        DriverError::SlotQuarantined | DriverError::SlotOccupied => true,
        DriverError::Disk { fault, .. } => *fault != DiskFault::PowerLoss,
        _ => false,
    }
}

/// Drives block movement against a driver.
pub struct BlockArranger {
    policy: Box<dyn PlacementPolicy>,
}

impl std::fmt::Debug for BlockArranger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockArranger")
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl BlockArranger {
    /// An arranger using `policy`.
    pub fn new(policy: Box<dyn PlacementPolicy>) -> Self {
        BlockArranger { policy }
    }

    /// The policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Empty the reserved area only (an "off" day, or shutdown).
    pub fn clean(
        &self,
        driver: &mut AdaptiveDriver,
        now: SimTime,
    ) -> Result<RearrangeReport, DriverError> {
        // A clean that fails fails the pass, whatever the reason.
        let reply = driver.ioctl(Ioctl::Clean, now)?;
        let mut report = RearrangeReport::default();
        report.absorb(Ok(reply))?;
        Ok(report)
    }

    /// One full rearrangement cycle: clean the reserved area, then place
    /// the hottest `n_blocks` blocks of `hot` according to the policy.
    ///
    /// Requires an idle driver (the paper's arranger ran once a day, in
    /// quiet hours).
    pub fn rearrange(
        &self,
        driver: &mut AdaptiveDriver,
        hot: &[HotBlock],
        n_blocks: usize,
        now: SimTime,
    ) -> Result<RearrangeReport, DriverError> {
        // Where the blocks go depends on the layout only, not on what
        // the reserved area holds now, so it is settled (and timed) first.
        let assignment = {
            let _t = time_scope("placement.policy");
            let layout = *driver.layout().ok_or(DriverError::NotRearranged)?;
            let slots = SlotMap::new(&layout, &driver.label().physical);
            let take = n_blocks.min(hot.len());
            self.policy.place(&hot[..take], &slots)
        };
        let _t = time_scope("placement.move");
        let mut report = self.clean(driver, now)?;
        for (block, slot) in assignment {
            let at = now + report.busy;
            if report.absorb(driver.ioctl(Ioctl::BCopy { block, slot }, at))? {
                report.blocks_placed += 1;
            }
        }
        Ok(report.checked(driver))
    }

    /// Incremental rearrangement — the extension the paper's §1.1 points
    /// at ("smaller granularity also facilitates incremental
    /// rearrangement"). Instead of emptying the reserved area and
    /// recopying everything, compute the new assignment, keep blocks that
    /// are already in their target slot, evict only the rest, then copy
    /// in only the newcomers/movers. When consecutive days' hot sets
    /// overlap heavily (the common case — that is why the technique works
    /// at all), this cuts the overnight I/O severalfold.
    pub fn rearrange_incremental(
        &self,
        driver: &mut AdaptiveDriver,
        hot: &[HotBlock],
        n_blocks: usize,
        now: SimTime,
    ) -> Result<RearrangeReport, DriverError> {
        let policy_timer = time_scope("placement.policy");
        let layout = *driver.layout().ok_or(DriverError::NotRearranged)?;
        let slots = SlotMap::new(&layout, &driver.label().physical);
        let take = n_blocks.min(hot.len()).min(slots.n_slots() as usize);

        // Blocks we want resident, in rank order, keyed by original
        // physical sector (the block table's key space).
        let spb = u64::from(driver.sectors_per_block());
        let label = driver.label();
        let wanted: Vec<(u64, u64)> = hot[..take]
            .iter()
            .map(|h| (h.block, label.virtual_to_physical(h.block * spb)))
            .collect();
        let wanted_set: std::collections::BTreeSet<u64> =
            wanted.iter().map(|&(_, orig)| orig).collect();
        drop(policy_timer);

        let mut report = RearrangeReport::default();
        // Evict residents that cooled off. Residents that are still hot
        // stay exactly where they are — a slot anywhere in the reserved
        // region is already within a few cylinders of ideal, so we trade
        // a slightly imperfect organ-pipe shape for most of the overnight
        // I/O.
        // (Picking the free slots between the two loops is a scan of the
        // slot array; it is timed with the moves around it.)
        let _t = time_scope("placement.move");
        for (orig, _) in driver.block_table().entries_by_slot() {
            if wanted_set.contains(&orig) {
                continue;
            }
            // A failed eviction leaves the entry resident and its slot
            // unavailable; the newcomer that wanted the slot will be
            // skipped below.
            let at = now + report.busy;
            report.absorb(driver.ioctl(Ioctl::BEvict { orig }, at))?;
        }
        // Newcomers take the freed slots in organ-pipe fill order
        // (hottest newcomer gets the most central free slot).
        let quarantined: std::collections::BTreeSet<u32> = driver.quarantined_slots().collect();
        let free_slots: Vec<u32> = slots
            .fill_order()
            .filter(|&s| driver.block_table().occupant(s).is_none() && !quarantined.contains(&s))
            .collect();
        let mut free_slots = free_slots.into_iter();
        for (block, orig) in wanted {
            if driver.block_table().lookup(orig).is_some() {
                report.blocks_placed += 1; // already resident, untouched
                continue;
            }
            // Failed evictions (above) or quarantined slots can leave
            // fewer free slots than newcomers; the leftovers just stay
            // at their original addresses.
            let Some(slot) = free_slots.next() else {
                report.blocks_failed += 1;
                continue;
            };
            let at = now + report.busy;
            if report.absorb(driver.ioctl(Ioctl::BCopy { block, slot }, at))? {
                report.blocks_placed += 1;
            }
        }
        Ok(report.checked(driver))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PolicyKind;
    use abr_disk::{models, DiskLabel};
    use abr_driver::request::IoRequest;
    use abr_driver::{DriverConfig, SchedulerKind};
    use std::sync::Arc;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn config() -> DriverConfig {
        DriverConfig {
            block_size: 4096,
            scheduler: SchedulerKind::Scan,
            monitor_capacity: 1000,
            table_max_entries: 64,
            ..DriverConfig::default()
        }
    }

    fn driver() -> AdaptiveDriver {
        let model = models::tiny_test_disk();
        let label = DiskLabel::rearranged_aligned(model.geometry, 10, 8);
        AdaptiveDriver::on_blank_disk(model, &label, config())
    }

    fn hot(n: u64) -> Vec<HotBlock> {
        (0..n)
            .map(|i| HotBlock {
                block: i * 3,
                count: (n - i) * 10,
            })
            .collect()
    }

    #[test]
    fn rearrange_places_requested_count() {
        let mut d = driver();
        let a = BlockArranger::new(PolicyKind::OrganPipe.make(1));
        let report = a.rearrange(&mut d, &hot(20), 10, t(0)).unwrap();
        assert_eq!(report.blocks_placed, 10);
        assert_eq!(d.block_table().len(), 10);
        // 3 ops per copy + nothing to clean.
        assert_eq!(report.io_ops, 30);
        assert!(report.busy > SimDuration::ZERO);
    }

    #[test]
    fn rearrange_replaces_previous_day() {
        let mut d = driver();
        let a = BlockArranger::new(PolicyKind::OrganPipe.make(1));
        a.rearrange(&mut d, &hot(20), 10, t(0)).unwrap();
        // Next day: a different hot set.
        let new_hot: Vec<HotBlock> = (100..105)
            .map(|b| HotBlock {
                block: b,
                count: 50,
            })
            .collect();
        let report = a.rearrange(&mut d, &new_hot, 5, t(100_000_000)).unwrap();
        assert_eq!(report.blocks_placed, 5);
        assert_eq!(d.block_table().len(), 5);
        // All old entries were cleaned out.
        for h in hot(20) {
            let spb = u64::from(d.sectors_per_block());
            let phys = d.label().virtual_to_physical(h.block * spb);
            assert!(d.block_table().lookup(phys).is_none());
        }
    }

    #[test]
    fn clean_empties_table() {
        let mut d = driver();
        let a = BlockArranger::new(PolicyKind::Serial.make(1));
        a.rearrange(&mut d, &hot(8), 8, t(0)).unwrap();
        let report = a.clean(&mut d, t(50_000_000)).unwrap();
        assert!(d.block_table().is_empty());
        // One table write per block cleaned (all clean, never written).
        assert_eq!(report.io_ops, 8);
    }

    #[test]
    fn rearrange_preserves_data() {
        let mut d = driver();
        // Write known data to the blocks that will move.
        let payload = Arc::<[u8]>::from(vec![0xAB; 4096]);
        d.submit(IoRequest::write(0, 0, 8, payload.clone()), t(0))
            .unwrap();
        d.drain();
        let a = BlockArranger::new(PolicyKind::OrganPipe.make(1));
        a.rearrange(&mut d, &[HotBlock { block: 0, count: 9 }], 1, t(1_000_000))
            .unwrap();
        d.submit(IoRequest::read(0, 0, 8), t(60_000_000)).unwrap();
        assert_eq!(d.drain()[0].data, payload);
        // And after moving home again.
        a.clean(&mut d, t(120_000_000)).unwrap();
        d.submit(IoRequest::read(0, 0, 8), t(180_000_000)).unwrap();
        assert_eq!(d.drain()[0].data, payload);
    }

    #[test]
    fn hot_list_shorter_than_request_is_fine() {
        let mut d = driver();
        let a = BlockArranger::new(PolicyKind::OrganPipe.make(1));
        let report = a.rearrange(&mut d, &hot(3), 100, t(0)).unwrap();
        assert_eq!(report.blocks_placed, 3);
    }

    #[test]
    fn incremental_skips_unchanged_blocks() {
        let mut d = driver();
        let a = BlockArranger::new(PolicyKind::OrganPipe.make(1));
        let day1 = hot(12);
        a.rearrange(&mut d, &day1, 12, t(0)).unwrap();

        // Day 2: same hot set, reordered ranks, one block swapped out.
        let mut day2 = day1.clone();
        day2.swap(0, 11);
        day2[5] = HotBlock {
            block: 500,
            count: day2[5].count,
        };
        let report = a
            .rearrange_incremental(&mut d, &day2, 12, t(100_000_000))
            .unwrap();
        assert_eq!(report.blocks_placed, 12);
        // Only the swapped-out block is evicted (1 table write, clean)
        // and the newcomer copied in (3 ops): 4 ops total, vs ~48 for a
        // full cycle.
        assert_eq!(report.io_ops, 4, "io_ops {}", report.io_ops);
        assert_eq!(d.block_table().len(), 12);
    }

    #[test]
    fn incremental_identical_hot_list_is_nearly_free() {
        let mut d = driver();
        let a = BlockArranger::new(PolicyKind::OrganPipe.make(1));
        let day = hot(10);
        a.rearrange(&mut d, &day, 10, t(0)).unwrap();
        let report = a
            .rearrange_incremental(&mut d, &day, 10, t(100_000_000))
            .unwrap();
        assert_eq!(report.blocks_placed, 10);
        assert_eq!(report.io_ops, 0, "no movement needed");
        assert_eq!(report.busy, SimDuration::ZERO);
    }

    #[test]
    fn incremental_from_empty_equals_full_placement() {
        let mut d = driver();
        let a = BlockArranger::new(PolicyKind::OrganPipe.make(1));
        let report = a.rearrange_incremental(&mut d, &hot(8), 8, t(0)).unwrap();
        assert_eq!(report.blocks_placed, 8);
        assert_eq!(d.block_table().len(), 8);
    }

    #[test]
    fn incremental_preserves_dirty_data() {
        use abr_driver::request::IoRequest;
        let mut d = driver();
        let a = BlockArranger::new(PolicyKind::OrganPipe.make(1));
        // Place block 3 (rank it hottest), write through the remap.
        let day1 = vec![
            HotBlock { block: 3, count: 9 },
            HotBlock { block: 6, count: 8 },
        ];
        a.rearrange(&mut d, &day1, 2, t(0)).unwrap();
        let v2 = Arc::<[u8]>::from(vec![0x77; 4096]);
        d.submit(IoRequest::write(0, 3 * 8, 8, v2.clone()), t(60_000_000))
            .unwrap();
        d.drain();
        // Day 2 drops block 3 from the hot set: incremental rearrangement
        // must write its dirty copy home.
        let day2 = vec![
            HotBlock { block: 6, count: 9 },
            HotBlock { block: 9, count: 8 },
        ];
        a.rearrange_incremental(&mut d, &day2, 2, t(120_000_000))
            .unwrap();
        d.submit(IoRequest::read(0, 3 * 8, 8), t(240_000_000))
            .unwrap();
        assert_eq!(d.drain()[0].data, v2);
    }

    #[test]
    fn rearrange_skips_bad_slots_and_places_the_rest() {
        use abr_disk::fault::{FaultInjector, FaultPlan};
        let mut d = driver();
        let layout = *d.layout().unwrap();
        let mut inj = FaultInjector::new(FaultPlan::none(), abr_sim::SimRng::new(1));
        inj.add_defect(layout.slot_sector(0));
        d.disk_mut().set_injector(Some(inj));

        let a = BlockArranger::new(PolicyKind::Serial.make(1));
        let report = a.rearrange(&mut d, &hot(5), 5, t(0)).unwrap();
        assert_eq!(report.blocks_placed + report.blocks_failed, 5);
        assert_eq!(report.blocks_failed, 1, "exactly the bad slot's block");
        assert_eq!(d.block_table().len(), 4);

        // An incremental pass routes around the quarantined slot and
        // places the block that failed, in a healthy slot.
        let report = a
            .rearrange_incremental(&mut d, &hot(5), 5, t(100_000_000))
            .unwrap();
        assert_eq!(report.blocks_placed, 5);
        assert_eq!(report.blocks_failed, 0);
        assert_eq!(d.block_table().len(), 5);
        assert!(d.block_table().occupant(0).is_none(), "slot 0 stays empty");
    }

    #[test]
    fn all_policies_work_through_arranger() {
        for kind in PolicyKind::all() {
            let mut d = driver();
            let a = BlockArranger::new(kind.make(1));
            let report = a.rearrange(&mut d, &hot(12), 12, t(0)).unwrap();
            assert_eq!(report.blocks_placed, 12, "{}", kind.name());
        }
    }
}

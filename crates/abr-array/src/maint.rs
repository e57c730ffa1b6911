//! The maintenance half of [`ArrayVolume`]: what runs in background
//! windows rather than on a request — hot-spare installation,
//! resilvering under the I/O budget, scrubbing, and the health roll-up.
//! All of it works on redundancy groups ([`StripeMap::group_at`]: a set
//! of locations whose XOR is zero), never on a scheme. A child module
//! of `volume` because it works on the volume's private state; the
//! request path and the `BlockDevice` impl stay in `volume.rs`.
//!
//! [`StripeMap::group_at`]: crate::stripe::StripeMap::group_at

use super::{ArrayHealth, ArrayVolume, DiskHealth, IdWindow, MaintRole, Runs, Sub};
use crate::stripe::Group;
use abr_driver::{AdaptiveDriver, IoRequest};
use abr_obs::with_registry;
use abr_sim::SimTime;
use std::sync::Arc;

impl ArrayVolume {
    /// Swap a failed member for a freshly formatted replacement drive
    /// and queue its entire contents for re-silvering. The caller
    /// formats the replacement exactly like the original members and
    /// waits until the failed member has no in-flight sub-requests.
    ///
    /// # Panics
    /// If the volume is not redundant, the member still has queued or
    /// active requests, or the replacement's geometry differs.
    pub fn replace_disk(&mut self, i: usize, mut fresh: AdaptiveDriver) {
        assert!(
            self.redundancy().is_redundant(),
            "replacement without redundancy cannot be re-silvered"
        );
        assert!(
            self.disks[i].is_idle(),
            "drain the failed member before replacing it"
        );
        assert_eq!(
            fresh.label().partitions[0].n_sectors,
            self.disks[i].label().partitions[0].n_sectors,
            "replacement partition size differs"
        );
        assert_eq!(
            fresh.sectors_per_block(),
            self.disks[i].sectors_per_block(),
            "replacement block size differs"
        );
        fresh.set_disk_index(i as u32);
        self.disks[i] = fresh;
        // The fresh member issues its ids from zero again.
        self.subs[i] = IdWindow::new();
        // Queued write images aimed at the dead drive are void.
        self.pending.retain(|&(d, _), _| d != i);
        // Every block of this member that a group protects is now stale.
        let spb = self.map.sectors_per_block();
        let blocks = self.disks[i].label().partitions[0].n_sectors.div_ceil(spb);
        self.stale[i] = (0..blocks)
            .filter(|&db| self.map.group_at(i, db).is_some())
            .collect();
    }

    /// Peak rebuild ops consumed in any single budget window (the
    /// "rebuild stayed within its budget" figure).
    pub fn rebuild_peak_window_ops(&self) -> u32 {
        self.maint.as_ref().map_or(0, |m| m.budget.peak_used())
    }

    /// Swap in every hot spare that is due: a member whose spindle has
    /// died, whose replacement (scheduled by its own fault plan) has
    /// arrived and whose queue has drained is replaced by a blank drive
    /// formatted like it, and its contents queued for re-silvering.
    fn install_replacements(&mut self, now: SimTime) {
        for i in 0..self.disks.len() {
            let due = self.disks[i].is_idle()
                && self.disks[i].disk().injector().is_some_and(|inj| {
                    let plan = inj.plan();
                    plan.replacement_at().is_some_and(|at| now >= at)
                        && (inj.is_failed() || plan.disk_death_at.is_some_and(|t| now >= t))
                });
            if due {
                let spare = self.disks[i].blank_twin();
                self.replace_disk(i, spare);
            }
        }
    }

    /// One background-maintenance window: install due hot spares,
    /// re-silver stale blocks under the I/O budget, then (when the
    /// array is idle and fully re-silvered) scrub the next few
    /// redundancy groups. Pure sim-time work — byte-identical across
    /// host thread counts.
    pub fn maintenance_tick(&mut self, now: SimTime) {
        if self.maint.is_none() {
            return;
        }
        self.install_replacements(now);
        self.rebuild_tick(now);
        self.scrub_tick(now);
        if let Some(m) = &self.maint {
            let pending = self.stale.iter().map(|s| s.len() as i64).sum::<i64>();
            let rebuilding = self
                .stale
                .iter()
                .enumerate()
                .filter(|(i, s)| !s.is_empty() && !self.disk_down(*i, now))
                .count() as i64;
            with_registry(|r| {
                r.set_gauge(m.obs.rebuild_pending, pending);
                r.set_gauge(m.obs.disks_rebuilding, rebuilding);
            });
        }
    }

    /// Re-silver plan for one stale block: the rest of its group to
    /// read and their XOR to write. `Ok(None)` = nothing stored there
    /// (drop the stale entry); `Err(())` = sources unavailable right now.
    fn resilver_plan(&self, i: usize, db: u64, now: SimTime) -> Result<Option<(Group, Runs)>, ()> {
        let Some(rest) = self.rest_of_group(i, db) else {
            return Ok(None);
        };
        if rest.iter().any(|&(d, _)| self.disk_down(d, now)) {
            return Err(());
        }
        let image = self.xor_of(&rest).ok_or(())?;
        Ok(Some((rest, image)))
    }

    /// Drain stale sets under the windowed budget, lowest serving disk
    /// first, lowest block first.
    fn rebuild_tick(&mut self, now: SimTime) {
        let spb = self.map.sectors_per_block();
        let Some(i) =
            (0..self.disks.len()).find(|&i| !self.stale[i].is_empty() && !self.disk_down(i, now))
        else {
            return;
        };
        // Restoring one member reads the rest of its group and writes it.
        let ops_per_item = self.map.group_len() as u32;
        let mut skipped: Vec<u64> = Vec::new();
        while let Some(m) = &mut self.maint {
            if m.budget.available(now) < ops_per_item {
                break;
            }
            let Some(db) = self.stale[i].pop_first() else {
                break;
            };
            match self.resilver_plan(i, db, now) {
                Ok(None) => continue, // unused slot: nothing to restore
                Err(()) => {
                    skipped.push(db);
                    continue;
                }
                Ok(Some((reads, image))) => {
                    let mut issued = 0u32;
                    for &(rd, rdb) in &reads {
                        let r = IoRequest::read(0, rdb * spb, self.block_span(rd, rdb));
                        if let Ok(id) = self.disks[rd].submit(r, now) {
                            self.subs[rd].insert(id.0, Sub::Maint(MaintRole::RebuildRead));
                            issued += 1;
                        }
                    }
                    let w = IoRequest::write_runs(0, db * spb, Arc::clone(&image));
                    match self.disks[i].submit(w, now) {
                        Ok(id) => {
                            self.pending.insert((i, db), (id, image));
                            self.subs[i].insert(id.0, Sub::Maint(MaintRole::RebuildWrite(db)));
                            issued += 1;
                        }
                        Err(_) => {
                            skipped.push(db);
                        }
                    }
                    if let Some(m) = &mut self.maint {
                        m.budget.consume(now, issued.max(1).min(ops_per_item));
                        with_registry(|r| r.inc(m.obs.rebuild_ops, u64::from(issued)));
                    }
                }
            }
        }
        for db in skipped {
            self.stale[i].insert(db);
        }
    }

    /// Scrub the next few redundancy groups when the array is idle and
    /// fully re-silvered: verify copies/parity, remap latent defects,
    /// rewrite lost or divergent blocks from the surviving redundancy.
    fn scrub_tick(&mut self, now: SimTime) {
        if !self.is_idle() || self.stale.iter().any(|s| !s.is_empty()) {
            return;
        }
        let total = self.map.n_groups();
        let Some(m) = self.maint.as_mut().filter(|_| total > 0) else {
            return;
        };
        let (first, groups) = (m.scrub_cursor, u64::from(m.cfg.scrub_groups_per_window));
        m.scrub_cursor = (first + groups) % total;
        for k in 0..groups {
            let group = self.map.group((first + k) % total);
            self.scrub_group(&group, now);
        }
    }

    /// Remap any latent defects under block `db` of member `loc` and
    /// report whether the block needs rewriting (defective or lost).
    fn scrub_check_location(&mut self, loc: usize, db: u64) -> bool {
        let spb = self.map.sectors_per_block();
        let span = self.block_span(loc, db);
        let mut needs = false;
        if let Ok(segs) = self.disks[loc].physical_segments(0, db * spb, span) {
            let mut cleared = 0u32;
            for &(s, n) in segs.iter() {
                if let Some(inj) = self.disks[loc].disk_mut().injector_mut() {
                    cleared += inj.remap(s, n);
                }
            }
            if cleared > 0 {
                needs = true;
                if let Some(m) = &self.maint {
                    with_registry(|r| r.inc(m.obs.scrub_defects, u64::from(cleared)));
                }
            }
        }
        if self.disks[loc].block_is_lost(0, db * spb) {
            needs = true;
        }
        needs
    }

    /// Issue a scrub repair write of `image` to block `db` of `loc`.
    fn scrub_repair(&mut self, loc: usize, db: u64, image: Runs, now: SimTime) {
        let spb = self.map.sectors_per_block();
        let w = IoRequest::write_runs(0, db * spb, Arc::clone(&image));
        if let Ok(id) = self.disks[loc].submit(w, now) {
            self.pending.insert((loc, db), (id, image));
            self.subs[loc].insert(id.0, Sub::Maint(MaintRole::ScrubWrite(db)));
            if let Some(m) = &self.maint {
                with_registry(|r| r.inc(m.obs.scrub_repairs, 1));
            }
        }
    }

    /// Issue the scrub verification read for block `db` of `loc`.
    fn scrub_read(&mut self, loc: usize, db: u64, now: SimTime) {
        let spb = self.map.sectors_per_block();
        let span = self.block_span(loc, db);
        if let Ok(id) = self.disks[loc].submit(IoRequest::read(0, db * spb, span), now) {
            self.subs[loc].insert(id.0, Sub::Maint(MaintRole::ScrubRead));
        }
    }

    /// Scrub one redundancy group: remap latent defects, verify that
    /// the XOR over the members is zero, rebuild a lost or defective
    /// member from the rest, and repair a mismatch toward the data by
    /// rewriting the check (last) member. Two unreadable members are
    /// beyond single redundancy: the group is left for `health`.
    fn scrub_group(&mut self, group: &Group, now: SimTime) {
        if group.iter().any(|&(d, _)| self.disk_down(d, now)) {
            return;
        }
        if let Some(m) = &self.maint {
            with_registry(|r| r.inc(m.obs.scrub_groups, 1));
        }
        let mut needs = Vec::new();
        for &(loc, db) in group {
            if self.scrub_check_location(loc, db) {
                needs.push((loc, db));
            }
        }
        // Through the pending-aware images; the verdict is exact (see
        // `Run::is_zero`).
        let suspect = match self.group_cancels(group) {
            Ok(true) => None,
            Ok(false) => {
                if let Some(m) = &self.maint {
                    with_registry(|r| r.inc(m.obs.scrub_mismatches, 1));
                }
                group.last().copied()
            }
            Err(Some(lost)) => Some(lost),
            Err(None) => return,
        };
        needs.extend(suspect.filter(|m| !needs.contains(m)));
        for member in needs {
            if let Some(image) = self.xor_of(&group.without(member)) {
                self.scrub_repair(member.0, member.1, image, now);
            }
        }
        for &(loc, db) in group {
            self.scrub_read(loc, db, now);
        }
    }

    /// Snapshot array health and publish it to the `array.*` gauges.
    pub fn health(&mut self) -> ArrayHealth {
        let disks: Vec<DiskHealth> = self
            .disks
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let failed = d.disk().injector().is_some_and(|inj| inj.is_failed());
                DiskHealth {
                    disk: i as u32,
                    dead: d.disk().injector().is_some_and(|inj| inj.is_dead()),
                    failed,
                    degraded: d.is_degraded(),
                    rebuilding: !failed && !self.stale[i].is_empty(),
                    quarantined: d.quarantined_slots().count() as u32,
                    lost: d.lost_blocks().count() as u32,
                    placed: d.block_table().len() as u32,
                    stale: self.stale[i].len() as u32,
                }
            })
            .collect();
        let health = ArrayHealth { disks };
        with_registry(|r| {
            r.set_gauge(self.obs.dead, health.n_dead() as i64);
            r.set_gauge(self.obs.degraded, health.n_degraded() as i64);
            r.set_gauge(self.obs.lost, health.total_lost() as i64);
        });
        if let Some(m) = &self.maint {
            with_registry(|r| {
                r.set_gauge(m.obs.rebuild_pending, health.total_stale() as i64);
                r.set_gauge(m.obs.disks_rebuilding, health.n_rebuilding() as i64);
            });
        }
        health
    }
}

//! Device-level conformance of the `BlockDevice` seam: the same seeded
//! request stream, driven through the trait alone, must come back from
//! a bare `AdaptiveDriver` and from a one-disk striped `ArrayVolume`
//! as the same `(completion time, sector, ok)` sequence. The day loop
//! above the trait is shared code; this is the half of the N=1 identity
//! that is *not* true by construction.

use abr_array::{ArrayVolume, StripePolicy};
use abr_core::experiment_member;
use abr_disk::fault::{FaultInjector, FaultPlan};
use abr_disk::models;
use abr_driver::{AdaptiveDriver, BlockDevice, IoRequest, SchedulerKind};
use abr_sim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;

const SECTORS_PER_BLOCK: u64 = 16;
const REQUESTS: usize = 4_000;

/// A member with a reserved region and a flaky medium, so the stream
/// also exercises retries and failed completions.
fn member() -> AdaptiveDriver {
    let mut d = experiment_member(&models::toshiba_mk156f(), 48, false, SchedulerKind::Scan);
    let rng = SimRng::new(7).substream("faults");
    d.disk_mut().set_injector(Some(FaultInjector::new(
        FaultPlan::with_error_rate(2e-2),
        rng,
    )));
    d
}

/// Drive `REQUESTS` seeded single-block requests over the first
/// `blocks` blocks into `dev`, in bursts so queues form, retiring
/// completions before arrivals on ties (the day loop's order).
/// `outcome` reads a completion: the finished request and whether it
/// succeeded, or `None` when the device retired nothing user-visible.
fn drive<D: BlockDevice>(
    mut dev: D,
    blocks: u64,
    outcome: impl Fn(D::Completion) -> Option<(D::RequestId, bool)>,
) -> Vec<(SimTime, u64, bool)>
where
    D::RequestId: Ord + Copy,
{
    let mut rng = SimRng::new(0xC0F0);
    let mut sector_of: BTreeMap<D::RequestId, u64> = BTreeMap::new();
    let mut done = Vec::with_capacity(REQUESTS);
    let mut next_arrival = SimTime::ZERO;
    let mut submitted = 0;
    loop {
        let next_completion = dev.next_completion().unwrap_or(SimTime::MAX);
        let arrival = if submitted < REQUESTS {
            next_arrival
        } else {
            SimTime::MAX
        };
        let t = next_completion.min(arrival);
        if t == SimTime::MAX {
            break;
        }
        if t == next_completion {
            if let Some((id, ok)) = outcome(dev.complete_next(t)) {
                done.push((t, sector_of[&id], ok));
            }
        } else {
            let sector = rng.below(blocks) * SECTORS_PER_BLOCK;
            let req = if rng.chance(0.7) {
                IoRequest::read(0, sector, SECTORS_PER_BLOCK as u32)
            } else {
                IoRequest::write_zeroes(0, sector, SECTORS_PER_BLOCK as u32)
            };
            let id = dev.submit(req, t).expect("in-range request");
            sector_of.insert(id, sector);
            submitted += 1;
            // Mostly back-to-back arrivals, now and then a long gap.
            let gap_us = if rng.chance(0.05) { 400_000 } else { 2_000 };
            next_arrival = t + SimDuration::from_micros(rng.below(gap_us));
        }
    }
    assert_eq!(dev.queue_len(), 0);
    done
}

#[test]
fn one_disk_striped_volume_completes_like_a_bare_driver() {
    let volume = ArrayVolume::new(vec![member()], StripePolicy::Striped { chunk_blocks: 8 });
    // Striping rounds the volume down to whole chunks; stay inside it.
    let blocks = volume.vol_sectors() / SECTORS_PER_BLOCK;

    let bare = drive(member(), blocks, |c| Some((c.id, c.is_ok())));
    let striped = drive(volume, blocks, |c| c.map(|c| (c.id, c.error.is_none())));

    assert_eq!(bare.len(), REQUESTS, "every request completes exactly once");
    assert!(
        bare.iter().any(|&(_, _, ok)| !ok),
        "the fault plan must fire"
    );
    assert_eq!(bare, striped);
}

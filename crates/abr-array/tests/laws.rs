//! Laws every redundant array keeps, over 32 seeded configurations. A
//! seed picks a scheme (mirror over 2 or 4 members, rotating parity over
//! 3, 4 or 5), a chunk of 1 or 8 blocks, and a fault plan (none, or one
//! member's death followed by a hot spare), then runs set-up and an
//! on/off pair of short `tiny_test` days. Afterwards:
//!
//! 1. every admitted request finished: `array.requests` counts what the
//!    volume completed, clean or not, and the volume is idle;
//! 2. under a single fault nothing failed and nothing was lost;
//! 3. once nothing awaits re-silvering, every redundancy group XORs to
//!    zero, judged on the members' runs by the store's own stretch walk.
//!
//! The rebuild budget is raised so that a whole member re-silvers within
//! the short days: law 3 then also holds after every rebuild.

use abr_array::{ArrayConfig, ArrayExperiment, ArrayVolume, Redundancy, StripePolicy};
use abr_core::ExperimentConfig;
use abr_disk::fault::FaultPlan;
use abr_disk::models;
use abr_disk::store::Run;
use abr_sim::{SimDuration, SimRng};
use abr_workload::WorkloadProfile;

const SEEDS: u64 = 32;

/// The first group, if any, whose members do not XOR to zero or cannot
/// be read.
fn broken_group(v: &ArrayVolume) -> Option<u64> {
    let spb = v.map().sectors_per_block();
    // A member's partial tail block is a group of its own when one data
    // disk is the whole volume.
    let span = |d: usize, db: u64| {
        let part = v.disk(d).label().partitions[0].n_sectors;
        (part - db * spb).min(spb) as u32
    };
    let mut terms = Vec::new();
    (0..v.map().n_groups()).find(|&index| {
        let members: Result<Vec<Vec<Run>>, _> = (v.map().group(index).iter())
            .map(|&(d, db)| v.disk(d).peek_runs(0, db * spb, span(d, db)))
            .collect();
        members.map_or(true, |m| {
            !Run::xor_stretches(&m, &mut terms, |run| run.is_zero())
        })
    })
}

/// Run seed `seed` and check the three laws; whether a member died and
/// was re-silvered.
fn laws_hold(seed: u64) -> bool {
    abr_obs::registry_clear();
    let mut rng = SimRng::new(seed).substream("laws");
    let (redundancy, n) = match rng.below(5) {
        0 => (Redundancy::Mirror, 2),
        1 => (Redundancy::Mirror, 4),
        k => (Redundancy::RotParity, k as usize + 1),
    };
    let chunk_blocks = [1, 8][rng.below(2) as usize];
    let death = rng.chance(0.5);
    let mut profile = WorkloadProfile::tiny_test();
    profile.day_length = SimDuration::from_mins(20);
    let mut base = ExperimentConfig::new(models::toshiba_mk156f(), profile);
    base.seed = seed;
    let stripe = StripePolicy::Striped { chunk_blocks };
    let mut cfg = ArrayConfig::redundant(base, n, stripe, redundancy);
    cfg.maintenance.rebuild_ops_per_window = 1 << 9;
    let mut e = ArrayExperiment::new(cfg);
    if death {
        let at = e.clock() + SimDuration::from_mins(1 + rng.below(5));
        let victim = rng.below(n as u64) as usize;
        e.install_fault_plan(victim, FaultPlan::disk_death(at, SimDuration::from_mins(1)));
    }
    e.run_on_off(1, 40);
    let what = format!("seed {seed}: {redundancy:?} N={n} chunk {chunk_blocks}, death {death}");

    let v = e.volume();
    let (ok, failed) = v.request_outcomes();
    let admitted = abr_obs::with_registry(|r| {
        let id = r.counter("array.requests");
        r.counter_value(id)
    });
    assert!(ok > 100, "{what}: {ok} requests served");
    assert_eq!(admitted, ok + failed, "{what}: admitted against finished");
    assert!(v.is_idle(), "{what}: work left queued");

    assert_eq!(failed, 0, "{what}: failed requests");
    assert_eq!(e.health().total_lost(), 0, "{what}: lost blocks");

    let v = e.volume();
    if v.rebuild_pending() > 0 {
        return false;
    }
    assert_eq!(broken_group(v), None, "{what}: a group does not cancel");
    death
}

/// The laws over seeds `first..first + SEEDS / 4` (four tests, so that
/// they run side by side), at least two of which re-silver a member.
fn quarter(first: u64) {
    let rebuilt = (first..first + SEEDS / 4).filter(|&seed| laws_hold(seed));
    assert!(rebuilt.count() >= 2, "seeds {first}..: too few rebuilds");
}

#[test]
fn laws_hold_for_seeds_0_to_7() {
    quarter(0);
}

#[test]
fn laws_hold_for_seeds_8_to_15() {
    quarter(8);
}

#[test]
fn laws_hold_for_seeds_16_to_23() {
    quarter(16);
}

#[test]
fn laws_hold_for_seeds_24_to_31() {
    quarter(24);
}

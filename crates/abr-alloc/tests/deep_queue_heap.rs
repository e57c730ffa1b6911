//! Heap gate on a `deep_queue`-shaped bare driver: a formatted Toshiba
//! behind SCAN takes bursts of one-block requests, every fourth a
//! seeded write, and drains them. The live-heap peak may not exceed the
//! committed number. The only test in its binary, because live bytes
//! are process-wide; `-- --show-output` prints the peak.

use abr_alloc::{Counting, Phase};
use abr_disk::{models, Disk, DiskLabel};
use abr_driver::{AdaptiveDriver, DriverConfig, IoRequest, SchedulerKind};
use abr_sim::{SimDuration, SimRng, SimTime};

#[global_allocator]
static ALLOC: Counting = Counting;

/// Live-heap peak in bytes, set-up and bursts together.
const PEAK: usize = 941_084;

/// Sectors per 8 KB block.
const SPB: u32 = 16;

#[test]
fn deep_queue_live_heap_peak_stays_at_its_committed_number() {
    let phase = Phase::start();
    let model = models::toshiba_mk156f();
    let label = DiskLabel::whole_disk(model.geometry);
    let cfg = DriverConfig {
        block_size: 8192,
        scheduler: SchedulerKind::Scan,
        ..DriverConfig::default()
    };
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &cfg);
    let mut d = AdaptiveDriver::attach(disk, cfg).expect("fresh format attaches");
    d.set_deliver_read_data(false);

    let n_blocks = d.label().partitions[0].n_sectors / u64::from(SPB);
    let mut rng = SimRng::new(7);
    let mut now = SimTime::ZERO;
    let mut completed = 0;
    for _ in 0..4 {
        for i in 0..1024 {
            let sector = (1 + rng.below(n_blocks - 1)) * u64::from(SPB);
            let req = if i % 4 == 3 {
                IoRequest::write_seeded(0, sector, SPB, rng.below(u64::MAX))
            } else {
                IoRequest::read(0, sector, SPB)
            };
            d.submit(req, now).expect("generated request is valid");
        }
        while let Some(at) = d.next_completion() {
            now = at;
            completed += usize::from(d.complete_next(at).is_ok());
        }
        now += SimDuration::from_secs(1);
    }
    assert_eq!(completed, 4 * 1024);
    let peak = phase.peak_bytes();
    eprintln!("peak {peak} B");
    assert!(
        peak <= PEAK + PEAK / 100,
        "live-heap peak {peak} B, {PEAK} B committed (+1 %)"
    );
}

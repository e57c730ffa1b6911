//! Footprint of an adaptive server: every client write is zeroes, the
//! nightly block copies move those blocks in and out of the reserved
//! cylinders, and a copy holds what its source held — so no member store
//! grows a 32 KB raw page beyond the ones formatting wrote (label and
//! block table), night after night, even where a zero block sits in or
//! lands in a page that holds raw bytes.

use abr_disk::models;
use abr_serve::{ArrivalKind, ServeConfig, ServeExperiment};
use abr_sim::SimDuration;

/// A small `serve_open`: bursty clients over four adaptive members.
fn config() -> ServeConfig {
    let mut c = ServeConfig::new(models::toshiba_mk156f());
    c.n_disks = 4;
    c.reserved_cylinders = 48;
    c.place_blocks = 512;
    c.n_clients = 64;
    c.aggregate_rate_per_sec = 60.0;
    c.arrivals = ArrivalKind::Bursty {
        burst: 4.0,
        mean_on: SimDuration::from_secs(2),
    };
    c.epoch = SimDuration::from_mins(2);
    c.epochs = 4;
    c
}

#[test]
fn nightly_copies_grow_no_raw_page_beyond_formatting() {
    let mut e = ServeExperiment::new(config());
    let v = e.volume();
    let formatted: Vec<usize> = (0..v.n_disks())
        .map(|i| v.disk(i).blank_twin().disk().store().raw_pages())
        .collect();
    for night in 0..e.config().epochs {
        e.run_epoch();
        let placed = e.rearrange().blocks_placed;
        assert!(placed > 0, "night {night} placed nothing");
        let v = e.volume();
        for (i, &twin) in formatted.iter().enumerate() {
            let raw = v.disk(i).disk().store().raw_pages();
            assert!(
                raw <= twin,
                "member {i} after night {night}: {raw} raw pages, {twin} formatted"
            );
        }
    }
}

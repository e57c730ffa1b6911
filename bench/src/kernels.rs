//! Kernels: the pieces a replica cannot separate because they are
//! nested — the disk model inside `submit`/`complete_next`, the file
//! system inside `WorkloadState::apply`, the queue inside the driver.
//!
//! Each kernel times a public function in its own loop: one warm-up
//! batch, then the median of a few timed batches, in host nanoseconds
//! per call. They do not depend on the workload being traced; every
//! traced run measures all of them.

use crate::replica::DiskOp;
use crate::stats::median;
use crate::workloads::{deep_queue, Size};
use abr_array::{ArrayVolume, Redundancy, StripeMap, StripePolicy};
use abr_core::analyzer::{FullAnalyzer, HotBlock, ReferenceAnalyzer};
use abr_core::placement::{PolicyKind, SlotMap};
use abr_core::recovery::MaintenanceConfig;
use abr_disk::store::SectorStore;
use abr_disk::{models, Disk, DiskLabel};
use abr_driver::{AdaptiveDriver, BlockTable, DriverConfig, IoRequest, SchedulerKind};
use abr_fs::{FileSystem, FsConfig};
use abr_obs::LogHistogram;
use abr_serve::{Drr, TokenBucket};
use abr_sim::{jsn, EventQueue, JsonValue, SimRng, SimTime};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per kernel (after one warm-up batch).
const BATCHES: usize = 5;

/// How the kernels are timed. The schema self-test needs every name,
/// not a steady number: it times one batch of each kernel and a
/// shallower deepest queue.
#[derive(Clone, Copy)]
struct Bench {
    quick: bool,
}

impl Bench {
    /// Median nanoseconds per call: `f` makes `calls` calls per batch.
    fn per_call(self, batches: usize, calls: u64, mut f: impl FnMut()) -> f64 {
        f();
        let batches = if self.quick { 1 } else { batches };
        let times: Vec<f64> = (0..batches)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_nanos() as f64 / calls as f64
            })
            .collect();
        median(&times)
    }
}

/// Every kernel, as `(metric name, value)`. `disk_ops` is the request
/// sequence a `paper_system` replica recorded at its disk.
pub fn all(disk_ops: &[DiskOp], size: Size) -> Vec<(&'static str, f64)> {
    let b = Bench {
        quick: size == Size::Quick,
    };
    let mut out = Vec::new();
    sim(b, &mut out);
    disk(b, disk_ops, &mut out);
    driver(b, &mut out);
    fs(b, &mut out);
    core(b, &mut out);
    array(b, &mut out);
    serve(b, &mut out);
    obs(b, &mut out);
    out
}

fn sim(b: Bench, out: &mut Vec<(&'static str, f64)>) {
    // Schedule + pop with a thousand events resident, the shape of the
    // serve front end's arrival queue.
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut rng = SimRng::new(1);
    let mut now = 0u64;
    for i in 0..1_000 {
        q.schedule(SimTime::from_micros(rng.below(1_000_000)), i);
    }
    const N: u64 = 100_000;
    out.push((
        "abr-sim.event_queue_ns",
        b.per_call(BATCHES, N, || {
            for _ in 0..N {
                let (at, e) = q.pop().expect("resident events");
                now = at.as_micros();
                q.schedule(SimTime::from_micros(now + 1 + rng.below(1_000_000)), e);
            }
        }),
    ));

    // Pretty-printing a result-file-shaped document.
    let rows: Vec<JsonValue> = (0..400)
        .map(|i| {
            jsn!({
                "disk": "Toshiba",
                "on": i % 2 == 0,
                "seek_ms": vec![18.089672963880513 + f64::from(i); 5],
                "service_ms": vec![36.81085420527756 / f64::from(i + 1); 5],
                "requests": vec![10_219u64 + i as u64; 5],
            })
        })
        .collect();
    let doc = jsn!({ "rows": rows });
    let kb = doc.pretty().len() as f64 / 1024.0;
    out.push((
        "abr-sim.json_pretty_ns_per_kb",
        b.per_call(BATCHES, 1, || {
            black_box(doc.pretty());
        }) / kb,
    ));
}

fn disk(b: Bench, ops: &[DiskOp], out: &mut Vec<(&'static str, f64)>) {
    // The exact (direction, sector, length, start time) sequence the
    // disk of `paper_system` served, replayed on a bare disk model.
    let mut disk = Disk::new(models::toshiba_mk156f());
    let service = if ops.is_empty() {
        0.0
    } else {
        b.per_call(BATCHES, ops.len() as u64, || {
            for op in ops {
                black_box(disk.service(op.dir, op.sector, op.n_sectors, op.start));
            }
        })
    };
    out.push(("abr-disk.service_ns", service));

    // Seeded block writes into a fresh store: what population, parity
    // initialisation and every simulated write cost at the media.
    const BLOCKS: u64 = 16_384;
    out.push((
        "abr-disk.store_seeded_write_ns",
        b.per_call(BATCHES, BLOCKS, || {
            let mut store = SectorStore::new();
            for b in 0..BLOCKS {
                store.write_seeded(b * 16, 16, b ^ 0x5eed, 0);
            }
            black_box(store.written_sectors());
        }),
    ));
}

/// SCAN burst-drain: `depth` random one-block reads submitted at one
/// instant, drained dry; nanoseconds per request. At depth 1 this is
/// the bare submit + dispatch + complete path.
fn dispatch_ns(b: Bench, depth: usize, bursts: usize, batches: usize) -> f64 {
    let mut d = deep_queue::driver();
    let n_blocks = d.label().partitions[0].n_sectors / 16;
    let mut rng = SimRng::new(depth as u64);
    let mut now = SimTime::ZERO;
    b.per_call(batches, (depth * bursts) as u64, || {
        for _ in 0..bursts {
            for _ in 0..depth {
                let sector = (1 + rng.below(n_blocks - 1)) * 16;
                d.submit(IoRequest::read(0, sector, 16), now)
                    .expect("valid request");
            }
            while let Some(at) = d.next_completion() {
                now = at;
                black_box(d.complete_next(at));
            }
        }
    })
}

fn driver(b: Bench, out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "abr-driver.dispatch_ns.d1",
        dispatch_ns(b, 1, 8_192, BATCHES),
    ));
    out.push((
        "abr-driver.dispatch_ns.d32",
        dispatch_ns(b, 32, 256, BATCHES),
    ));
    out.push(("abr-driver.dispatch_ns.d1k", dispatch_ns(b, 1_024, 4, 3)));
    out.push(("abr-driver.dispatch_ns.d4k", dispatch_ns(b, 4_096, 1, 3)));
    // One burst costs over a second while dispatch is O(queue): no
    // warm-up batch of its own would fit, so the 4k run above is it.
    out.push(("abr-driver.dispatch_ns.d16k", {
        let depth = if b.quick { 1_024 } else { 16_384 };
        let mut d = deep_queue::driver();
        let n_blocks = d.label().partitions[0].n_sectors / 16;
        let mut rng = SimRng::new(16_384);
        let t = Instant::now();
        for _ in 0..depth {
            let sector = (1 + rng.below(n_blocks - 1)) * 16;
            d.submit(IoRequest::read(0, sector, 16), SimTime::ZERO)
                .expect("valid request");
        }
        while let Some(at) = d.next_completion() {
            black_box(d.complete_next(at));
        }
        t.elapsed().as_nanos() as f64 / depth as f64
    }));

    // Block-table lookups at the paper's table size.
    let mut table = BlockTable::new();
    for i in 0..1_018u64 {
        table.insert(i * 7 * 16, i as u32);
    }
    const N: u64 = 200_000;
    out.push((
        "abr-driver.blocktable_hit_ns",
        b.per_call(BATCHES, N, || {
            for i in 0..N {
                black_box(table.lookup((i % 1_018) * 7 * 16));
            }
        }),
    ));
    out.push((
        "abr-driver.blocktable_miss_ns",
        b.per_call(BATCHES, N, || {
            for i in 0..N {
                black_box(table.lookup((i % 1_018) * 7 * 16 + 16));
            }
        }),
    ));
}

fn fs(b: Bench, out: &mut Vec<(&'static str, f64)>) {
    // A Toshiba-sized file system with the system profile's 48-block
    // cache and 64 files of 16 blocks.
    let model = models::toshiba_mk156f();
    let label = DiskLabel::rearranged_aligned(model.geometry, 48, 16);
    let cfg = FsConfig {
        cache_blocks: 48,
        ..FsConfig::default()
    };
    let mut fs = FileSystem::newfs(
        cfg,
        label.partitions[0].n_sectors,
        model.geometry.sectors_per_cylinder(),
    );
    let (dir, _) = fs.mkdir().expect("fresh file system has room");
    let files: Vec<_> = (0..64)
        .map(|_| fs.create(dir, 16 * 8192).expect("room for 64 files").0)
        .collect();
    fs.sync();

    const N: u64 = 50_000;
    // The same block again and again: served from the cache.
    out.push((
        "abr-fs.read_hit_ns",
        b.per_call(BATCHES, N, || {
            for _ in 0..N {
                black_box(fs.read(files[0], 3, 1).expect("file exists"));
            }
        }),
    ));
    // 1,024 distinct blocks in turn through a 48-block cache: every
    // read misses and evicts.
    let mut i = 0usize;
    out.push((
        "abr-fs.read_miss_ns",
        b.per_call(BATCHES, N, || {
            for _ in 0..N {
                black_box(
                    fs.read(files[i % 64], (i / 64) % 16, 1)
                        .expect("file exists"),
                );
                i += 1;
            }
        }),
    ));
    const PAIRS: u64 = 2_000;
    out.push((
        "abr-fs.create_delete_ns",
        b.per_call(BATCHES, PAIRS, || {
            for _ in 0..PAIRS {
                let (f, _) = fs.create(dir, 4 * 8192).expect("room for one more file");
                black_box(fs.delete(dir, f).expect("just created"));
            }
            fs.sync();
        }),
    ));
}

/// A hot list of `n` blocks with Zipf-like counts.
fn hot_list(n: u64) -> Vec<HotBlock> {
    (0..n)
        .map(|i| HotBlock {
            block: i * 37 % 16_000,
            count: 1_000_000 / (i + 1),
        })
        .collect()
}

fn core(b: Bench, out: &mut Vec<(&'static str, f64)>) {
    // The analyzer's batched observation over a skewed block stream.
    let mut rng = SimRng::new(2);
    let blocks: Vec<u64> = (0..100_000)
        .map(|_| {
            let r = rng.f64();
            (r * r * r * 16_000.0) as u64
        })
        .collect();
    let mut analyzer = FullAnalyzer::new();
    out.push((
        "abr-core.analyzer_observe_ns",
        b.per_call(BATCHES, blocks.len() as u64, || {
            analyzer.reset();
            for window in blocks.chunks(500) {
                analyzer.observe_each(window);
            }
            black_box(analyzer.tracked());
        }),
    ));

    // Each placement policy on the paper's 1,018 blocks and the
    // Toshiba's reserved area; nanoseconds per whole placement.
    let d = placement_driver();
    let layout = d.layout().expect("formatted with a reserved area");
    let slots = SlotMap::new(layout, &d.label().physical);
    let hot = hot_list(1_018);
    for (name, kind) in [
        ("abr-core.policy_place_ns.organ_pipe", PolicyKind::OrganPipe),
        (
            "abr-core.policy_place_ns.interleaved",
            PolicyKind::Interleaved,
        ),
        ("abr-core.policy_place_ns.serial", PolicyKind::Serial),
    ] {
        let policy = kind.make(2);
        out.push((
            name,
            b.per_call(BATCHES, 1, || {
                for _ in 0..20 {
                    black_box(policy.place(&hot, &slots));
                }
            }) / 20.0,
        ));
    }
}

/// A Toshiba formatted the way `Experiment` formats it.
fn placement_driver() -> AdaptiveDriver {
    let model = models::toshiba_mk156f();
    let label = DiskLabel::rearranged_aligned(model.geometry, 48, 16);
    let cfg = DriverConfig {
        block_size: 8192,
        scheduler: SchedulerKind::Scan,
        monitor_capacity: 1 << 20,
        table_max_entries: 8192,
        ..DriverConfig::default()
    };
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &cfg);
    AdaptiveDriver::attach(disk, cfg).expect("fresh format attaches")
}

fn array(b: Bench, out: &mut Vec<(&'static str, f64)>) {
    // A bare rotating-parity volume over four small disks, eight
    // requests in flight: reads fan out to one member, writes to the
    // data member and the row's parity member.
    let members: Vec<AdaptiveDriver> = (0..4)
        .map(|_| {
            let model = models::tiny_test_disk();
            let label = DiskLabel::whole_disk(model.geometry);
            let cfg = DriverConfig::default();
            let mut disk = Disk::new(model);
            AdaptiveDriver::format(&mut disk, &label, &cfg);
            let mut d = AdaptiveDriver::attach(disk, cfg).expect("fresh format attaches");
            d.set_deliver_read_data(false);
            d
        })
        .collect();
    let mut vol = ArrayVolume::with_redundancy(
        members,
        StripePolicy::Striped { chunk_blocks: 8 },
        Redundancy::RotParity,
        MaintenanceConfig::default(),
    );
    let n_blocks = vol.vol_sectors() / 16;
    let mut rng = SimRng::new(3);
    let mut now = SimTime::ZERO;
    const N: u64 = 8_192;
    for (name, write) in [
        ("abr-array.volume_read_ns", false),
        ("abr-array.volume_write_ns", true),
    ] {
        out.push((
            name,
            b.per_call(BATCHES, N, || {
                for i in 0..N {
                    let sector = (1 + rng.below(n_blocks - 1)) * 16;
                    let req = if write {
                        IoRequest::write_seeded(0, sector, 16, i)
                    } else {
                        IoRequest::read(0, sector, 16)
                    };
                    vol.submit(req, now).expect("valid request");
                    while vol.queue_len() >= 8 {
                        let at = vol.next_completion().expect("work outstanding");
                        now = at;
                        black_box(vol.complete_next(at));
                    }
                }
                while let Some(at) = vol.next_completion() {
                    now = at;
                    black_box(vol.complete_next(at));
                }
            }),
        ));
    }

    let toshiba = models::toshiba_mk156f().geometry.total_sectors();
    let map = StripeMap::new_redundant(
        StripePolicy::Striped { chunk_blocks: 8 },
        Redundancy::RotParity,
        4,
        toshiba,
        16,
    );
    let blocks = map.vol_sectors() / 16;
    const M: u64 = 500_000;
    out.push((
        "abr-array.stripe_map_ns",
        b.per_call(BATCHES, M, || {
            for i in 0..M {
                black_box(map.map_block(i * 7919 % blocks));
            }
        }),
    ));
}

fn serve(b: Bench, out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 500_000;
    // A bucket that is taken from faster than it refills: both the
    // grant and the refusal path.
    let mut bucket = TokenBucket::new(4.0, 16);
    let mut now = 0u64;
    out.push((
        "abr-serve.token_bucket_ns",
        b.per_call(BATCHES, N, || {
            for _ in 0..N {
                now += 125_000;
                black_box(bucket.try_take(SimTime::from_micros(now)));
            }
        }),
    ));
    // 1,024 permanently backlogged clients with one-block requests.
    let mut drr = Drr::new(1_024, 16);
    for c in 0..1_024 {
        drr.activate(c);
    }
    out.push((
        "abr-serve.drr_ns",
        b.per_call(BATCHES, N, || {
            for _ in 0..N {
                black_box(drr.next(|_| Some(16)));
            }
        }),
    ));
}

fn obs(b: Bench, out: &mut Vec<(&'static str, f64)>) {
    const N: u64 = 1_000_000;
    let mut h = LogHistogram::new();
    let mut rng = SimRng::new(4);
    let values: Vec<u64> = (0..4_096).map(|_| 500 + rng.below(60_000)).collect();
    out.push((
        "abr-obs.loghist_observe_ns",
        b.per_call(BATCHES, N, || {
            for i in 0..N as usize {
                h.observe(values[i & 4_095]);
            }
            black_box(h.count());
        }),
    ));
    // Snapshot and day-series cost on whatever the traced workload left
    // in this thread's registry, topped up so it is never empty.
    abr_obs::with_registry(|r| {
        let id = r.hires("driver.service_us");
        r.merge_hires(id, &h);
    });
    out.push((
        "abr-obs.snapshot_ns",
        b.per_call(BATCHES, 20, || {
            for _ in 0..20 {
                black_box(abr_obs::registry_snapshot());
            }
        }),
    ));
    out.push((
        "abr-obs.day_series_ns_per_day",
        b.per_call(BATCHES, 20, || {
            for _ in 0..20 {
                abr_obs::day_series_record();
            }
            abr_obs::day_series_reset();
        }),
    ));
}

//! `abrctl` — the user-level control programs of the paper's Figure 1,
//! operating on persistent disk images.
//!
//! The paper's system is a modified kernel driver steered by user-level
//! processes (the reference stream analyzer and the block arranger) via
//! ioctls. `abrctl` plays those processes against a disk image file:
//!
//! ```text
//! abrctl create  disk.img [--disk toshiba|fujitsu] [--reserved N]
//! abrctl info    disk.img
//! abrctl workload disk.img [--profile system|users|tiny] [--minutes N]
//!                          [--seed S] [--trace out.jsonl]
//! abrctl analyze disk.img [--top N]
//! abrctl rearrange disk.img [--blocks N] [--policy organ|interleaved|serial]
//!                           [--incremental]
//! abrctl clean   disk.img
//! abrctl stats   disk.img
//! abrctl monitor-dump disk.img
//! abrctl replay  disk.img trace.jsonl [--blocks N]
//! abrctl trace   spans.jsonl [--top N]
//! abrctl array   disk0.img disk1.img ... [--redundancy none|mirror|rotparity]
//! abrctl report  BENCH_experiments.json [--json] [--folded out.folded]
//! ```
//!
//! Two different "traces" exist: `workload --trace` writes a *workload*
//! trace (submitted requests, replayable with `abrctl replay`), while
//! `abrctl trace` summarizes a *span* trace produced by
//! `experiments --trace` — per-request lifecycle events from the
//! flight recorder (see `abr-obs`).
//!
//! State carried between invocations: the disk image itself (label, block
//! table, all sector data), `<image>.counts.json` (the analyzer's
//! reference counts from the last workload run — the request-monitor
//! contents a real analyzer process would have accumulated) and
//! `<image>.stats.json` (the last run's day metrics).
//!
//! `workload` persists the file system and workload-generator state in
//! `<image>.fs.json` / `<image>.wl.json`: a second invocation resumes
//! the same population (with the configured day-to-day drift applied)
//! instead of rebuilding it, so consecutive runs model consecutive days.
//! Pass `--fresh` to rebuild from scratch.

use abr_core::analyzer::HotBlock;
use abr_core::arranger::BlockArranger;
use abr_core::placement::PolicyKind;
use abr_core::replay::{replay, ReplayConfig};
use abr_core::{
    paper_reserved_cylinders, BlockCounts, DayLoop, DayMetrics, DaySource, FsProducer, FsTraffic,
    TraceTraffic,
};
use abr_disk::{image, models, Disk, DiskLabel, DiskModel};
use abr_driver::{AdaptiveDriver, DriverConfig, Ioctl, IoctlReply, RequestMonitor};
use abr_fs::{FileSystem, FsConfig, MountMode};
use abr_obs::{ObsEvent, RequestSpan};
use abr_sim::{jsn, FromJson, JsonValue, SimDuration, SimRng, SimTime};
use abr_workload::{TraceLog, WorkloadProfile, WorkloadState};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("abrctl: {e}");
            ExitCode::FAILURE
        }
    }
}

type Error = Box<dyn std::error::Error>;

fn run(args: &[String]) -> Result<(), Error> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "create" => create(rest),
        "info" => info(rest),
        "workload" => workload(rest),
        "analyze" => analyze(rest),
        "rearrange" => rearrange(rest),
        "clean" => clean(rest),
        "stats" => stats(rest),
        "monitor-dump" => monitor_dump(rest),
        "replay" => replay_cmd(rest),
        "trace" => trace_summary(rest),
        "array" => array_status(rest),
        "report" => report_cmd(rest),
        "help" | "--help" | "-h" => {
            eprintln!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage()).into()),
    }
}

fn usage() -> Box<dyn std::error::Error> {
    "usage: abrctl <create|info|workload|analyze|rearrange|clean|stats|monitor-dump|replay|trace|array|report|help> <image|file>... [options]"
        .into()
}

/// Pull `--flag value` out of an argument list.
fn opt(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn image_path(args: &[String]) -> Result<PathBuf, Error> {
    args.iter()
        .find(|a| !a.starts_with("--"))
        .map(PathBuf::from)
        .ok_or_else(|| "missing disk image path".into())
}

fn driver_config() -> DriverConfig {
    DriverConfig {
        block_size: 8192,
        scheduler: abr_driver::SchedulerKind::Scan,
        monitor_capacity: 1 << 21,
        table_max_entries: 8192,
        ..DriverConfig::default()
    }
}

fn load_driver(path: &Path) -> Result<AdaptiveDriver, Error> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let disk = image::load(std::io::BufReader::new(file))?;
    Ok(AdaptiveDriver::attach(disk, driver_config())?)
}

fn save_driver(driver: AdaptiveDriver, path: &Path) -> Result<(), Error> {
    let disk = driver.crash(); // detach; all persistent state is on-disk
    let file = std::fs::File::create(path)?;
    image::save(&disk, std::io::BufWriter::new(file))?;
    Ok(())
}

fn disk_model(args: &[String]) -> Result<DiskModel, Error> {
    match opt(args, "--disk").as_deref() {
        None | Some("toshiba") => Ok(models::toshiba_mk156f()),
        Some("fujitsu") => Ok(models::fujitsu_m2266()),
        Some("tiny") => Ok(models::tiny_test_disk()),
        Some(other) => Err(format!("unknown disk `{other}` (toshiba|fujitsu|tiny)").into()),
    }
}

/// Dump the raw request-monitor table next to the image so
/// `monitor-dump` can show exactly what the analyzer's clearing ioctl
/// is about to consume.
fn write_reqtable_sidecar(img: &Path, mon: &RequestMonitor) -> Result<(), Error> {
    let mut records = JsonValue::Array(Vec::new());
    for r in mon.records() {
        records.push(jsn!({
            "block": r.block,
            "sectors": r.n_sectors,
            "dir": if r.dir.is_read() { "r" } else { "w" },
        }));
    }
    let dump = jsn!({
        "records": records,
        "dropped": mon.dropped(),
        "suspension_episodes": mon.suspension_episodes(),
    });
    std::fs::write(img.with_extension("reqtable.json"), dump.pretty())?;
    Ok(())
}

// ----- commands --------------------------------------------------------

fn create(args: &[String]) -> Result<(), Error> {
    let path = image_path(args)?;
    let model = disk_model(args)?;
    let reserved: u32 = match opt(args, "--reserved") {
        Some(s) => s.parse()?,
        None if model.geometry.cylinders >= 500 => paper_reserved_cylinders(&model),
        None => 10,
    };
    let label = if reserved > 0 {
        DiskLabel::rearranged_aligned(model.geometry, reserved, 16)
    } else {
        DiskLabel::whole_disk(model.geometry)
    };
    let mut disk = Disk::new(model);
    AdaptiveDriver::format(&mut disk, &label, &driver_config());
    let file = std::fs::File::create(&path)?;
    image::save(&disk, std::io::BufWriter::new(file))?;
    // A fresh image invalidates any sidecar state from a previous image
    // at the same path.
    for side in [
        path.with_extension("counts.json"),
        path.with_extension("stats.json"),
        path.with_extension("fs.json"),
        path.with_extension("wl.json"),
        path.with_extension("reqtable.json"),
    ] {
        let _ = std::fs::remove_file(side);
    }
    println!(
        "created {}: {} with {} reserved cylinders",
        path.display(),
        disk.model().name,
        reserved
    );
    Ok(())
}

fn info(args: &[String]) -> Result<(), Error> {
    let path = image_path(args)?;
    let driver = load_driver(&path)?;
    let label = driver.label();
    let g = label.physical;
    println!("image     : {}", path.display());
    println!(
        "disk      : {} ({} cyl x {} trk x {} sect, {:.0} MB)",
        driver.disk().model().name,
        g.cylinders,
        g.tracks_per_cylinder,
        g.sectors_per_track,
        g.capacity_bytes() as f64 / (1 << 20) as f64
    );
    match (label.reserved, driver.layout()) {
        (Some(r), Some(layout)) => {
            println!(
                "reserved  : cylinders {}..{} ({} slots of 8 KB)",
                r.start_cylinder,
                r.start_cylinder + r.n_cylinders,
                layout.n_slots
            );
        }
        (Some(r), None) => println!(
            "reserved  : cylinders {}..{} (layout unavailable)",
            r.start_cylinder,
            r.start_cylinder + r.n_cylinders
        ),
        (None, _) => println!("reserved  : none (plain disk)"),
    }
    println!(
        "block tbl : {} entries ({} dirty)",
        driver.block_table().len(),
        driver.block_table().iter().filter(|(_, e)| e.dirty).count()
    );
    if driver.is_degraded() {
        println!("health    : DEGRADED — table region unreadable, serving pass-through");
    }
    let quarantined: Vec<u32> = driver.quarantined_slots().collect();
    if !quarantined.is_empty() {
        println!(
            "health    : {} quarantined slot(s): {quarantined:?}",
            quarantined.len()
        );
    }
    let lost = driver.lost_blocks().count();
    if lost > 0 {
        println!("health    : {lost} block(s) LOST (reads will fail until rewritten)");
    }
    println!(
        "written   : {} sectors ({:.1} MB)",
        driver.disk().store().written_sectors(),
        driver.disk().store().written_sectors() as f64 * 512.0 / (1 << 20) as f64
    );
    Ok(())
}

fn workload(args: &[String]) -> Result<(), Error> {
    let path = image_path(args)?;
    let mut driver = load_driver(&path)?;
    let profile = match opt(args, "--profile").as_deref() {
        None | Some("system") => WorkloadProfile::system_fs(),
        Some("users") => WorkloadProfile::users_fs(),
        Some("tiny") => WorkloadProfile::tiny_test(),
        Some(other) => Err(format!("unknown profile `{other}`"))?,
    };
    let minutes: u64 = opt(args, "--minutes").map_or(Ok(30), |s| s.parse())?;
    let seed: u64 = opt(args, "--seed").map_or(Ok(1), |s| s.parse())?;
    let trace_out = opt(args, "--trace");

    // Resume the persisted file system + population if present (and not
    // --fresh); otherwise build it from scratch on the image's partition.
    let mut clock = SimTime::ZERO;
    let resumable = !has_flag(args, "--fresh")
        && path.with_extension("fs.json").exists()
        && path.with_extension("wl.json").exists();
    let (mut fs, mut state) = if resumable {
        let fs_state = JsonValue::parse(&std::fs::read_to_string(path.with_extension("fs.json"))?)?;
        let wl_state = JsonValue::parse(&std::fs::read_to_string(path.with_extension("wl.json"))?)?;
        let fs = FileSystem::load_state(&fs_state)?;
        let mut state = WorkloadState::load_state(&wl_state, seed)?;
        if state.profile().name != profile.name {
            eprintln!(
                "note: resuming the persisted `{}` population; --profile {} is ignored (use --fresh to rebuild)",
                state.profile().name,
                profile.name
            );
        }
        state.advance_day(); // consecutive invocations model consecutive days
        eprintln!("resumed day {} of the persisted population", state.day());
        (fs, state)
    } else {
        let part_sectors = driver.label().partitions[0].n_sectors;
        let spc = driver.label().physical.sectors_per_cylinder();
        let fs_cfg = FsConfig {
            cache_blocks: profile.cache_blocks,
            write_through: profile.nfs_write_through,
            ..FsConfig::default()
        };
        let mut fs = FileSystem::newfs(fs_cfg, part_sectors, spc);
        let mut rng = SimRng::new(seed);
        let (state, setup) = WorkloadState::setup(profile.clone(), &mut fs, &mut rng)
            .map_err(|e| format!("workload setup: {e}"))?;
        for req in setup {
            driver.submit(req, clock)?;
            while driver.queue_len() > 32 {
                let t = driver
                    .next_completion()
                    .ok_or("driver reports queued requests but no next completion")?;
                clock = t;
                driver.complete_next(t);
            }
        }
        (fs, state)
    };
    while let Some(t) = driver.next_completion() {
        clock = t;
        driver.complete_next(t);
    }
    if !profile.is_mutating() {
        fs.remount(MountMode::ReadOnly);
    }

    // One measured day of `minutes`: the update daemon syncs every 30 s,
    // and the requests of one file-level op are paced like NFS RPC trains
    // (see ExperimentConfig::request_pacing). No daemon reads the request
    // table during the day; the whole of it is read below.
    state.set_day_length(SimDuration::from_mins(minutes));
    let start = clock + SimDuration::from_mins(1);
    let mut producer = FsProducer::spawn(FsTraffic::new(
        fs,
        state,
        SimDuration::from_secs(30),
        SimDuration::from_millis(150),
        start,
    ));
    // Exactly one day, so the state persisted below is that day's.
    producer.plan(1);
    let mut traffic = TraceTraffic::new(producer);
    if trace_out.is_some() {
        traffic.trace();
    }
    let mut day = DayLoop::new(driver, traffic, vec![], None, start);
    let curve = day.device.disk().model().seek;
    // The member's metrics, not the roll-up: `placed` there counts what
    // this loop's nights placed, and the image may arrive rearranged.
    let mut metrics = day
        .run_day()
        .per_member(&curve)
        .pop()
        .ok_or("a driver is one member")?;
    let now = day.clock();
    let trace = day.traffic.take_trace();
    let (mut driver, traffic) = (day.device, day.traffic);

    // Persist: reference counts (analyze/rearrange read these), stats,
    // optional trace, and the image itself. The raw table goes into a
    // sidecar first — the ioctl below clears it.
    write_reqtable_sidecar(&path, driver.request_monitor())?;
    let (records, dropped) = match driver.ioctl(Ioctl::ReadRequestTable, now)? {
        IoctlReply::RequestTable { records, dropped } => (records, dropped),
        other => return Err(format!("unexpected reply to ReadRequestTable: {other:?}").into()),
    };
    let mut analyzer = abr_core::FullAnalyzer::new();
    for r in &records {
        analyzer.observe(r.block, 1);
    }
    use abr_core::ReferenceAnalyzer as _;
    let counts = analyzer.hot_list(analyzer.tracked());
    let counts_json = JsonValue::Array(counts.iter().map(HotBlock::to_json).collect());
    std::fs::write(
        path.with_extension("counts.json"),
        sidecar_text(&counts_json),
    )?;

    metrics.block_counts = BlockCounts::from_hot(&counts);
    std::fs::write(
        path.with_extension("stats.json"),
        sidecar_text(&metrics.to_json()),
    )?;
    if let (Some(out), Some(trace)) = (trace_out, trace) {
        let f = std::fs::File::create(&out)?;
        trace.write_jsonl(std::io::BufWriter::new(f))?;
        println!("trace     : {} events -> {out}", trace.len());
    }
    println!(
        "ran {minutes} min of `{}`: {} requests ({} unrecorded), {} distinct blocks",
        profile.name,
        records.len(),
        dropped,
        counts.len()
    );
    println!(
        "mean seek {:.2} ms | mean service {:.2} ms | mean wait {:.2} ms",
        metrics.all.seek_ms, metrics.all.service_ms, metrics.all.waiting_ms
    );
    // Persist the file system (the day ended with a final flush) and the
    // generator.
    let (fs, state) = traffic.into_source().into_parts();
    std::fs::write(path.with_extension("fs.json"), fs.save_state().to_string())?;
    std::fs::write(
        path.with_extension("wl.json"),
        state.save_state().to_string(),
    )?;
    save_driver(driver, &path)?;
    Ok(())
}

/// A pretty sidecar without a final newline, as these files have
/// always been written.
fn sidecar_text(v: &JsonValue) -> String {
    let mut text = v.pretty();
    text.pop();
    text
}

fn read_counts(img: &Path) -> Result<Vec<HotBlock>, Error> {
    let text = std::fs::read_to_string(img.with_extension("counts.json")).map_err(|_| {
        format!(
            "no reference counts next to {} — run `abrctl workload` first",
            img.display()
        )
    })?;
    Ok(Vec::from_json(&JsonValue::parse(&text)?)?)
}

fn analyze(args: &[String]) -> Result<(), Error> {
    let path = image_path(args)?;
    let top: usize = opt(args, "--top").map_or(Ok(20), |s| s.parse())?;
    let counts = read_counts(&path)?;
    let total: u64 = counts.iter().map(|h| h.count).sum();
    println!(
        "{} distinct blocks, {} references; top {top}:",
        counts.len(),
        total
    );
    for (i, h) in counts.iter().take(top).enumerate() {
        println!(
            "{:4}. block {:8}  {:6} refs ({:4.1}%)",
            i + 1,
            h.block,
            h.count,
            h.count as f64 / total as f64 * 100.0
        );
    }
    let top100: u64 = counts.iter().take(100).map(|h| h.count).sum();
    println!(
        "top-100 blocks absorb {:.1}% of references",
        top100 as f64 / total as f64 * 100.0
    );
    Ok(())
}

fn rearrange(args: &[String]) -> Result<(), Error> {
    let path = image_path(args)?;
    let mut driver = load_driver(&path)?;
    let counts = read_counts(&path)?;
    let n_blocks: usize = opt(args, "--blocks").map_or(Ok(1000), |s| s.parse())?;
    let policy = match opt(args, "--policy").as_deref() {
        None | Some("organ") => PolicyKind::OrganPipe,
        Some("interleaved") => PolicyKind::Interleaved,
        Some("serial") => PolicyKind::Serial,
        Some(other) => Err(format!("unknown policy `{other}`"))?,
    };
    let arranger = BlockArranger::new(policy.make(1));
    let report = if has_flag(args, "--incremental") {
        arranger.rearrange_incremental(&mut driver, &counts, n_blocks, SimTime::ZERO)?
    } else {
        arranger.rearrange(&mut driver, &counts, n_blocks, SimTime::ZERO)?
    };
    println!(
        "placed {} blocks with {} ({} disk ops, {:.1} s of disk time)",
        report.blocks_placed,
        policy.name(),
        report.io_ops,
        report.busy.as_secs_f64()
    );
    save_driver(driver, &path)?;
    Ok(())
}

fn clean(args: &[String]) -> Result<(), Error> {
    let path = image_path(args)?;
    let mut driver = load_driver(&path)?;
    let before = driver.block_table().len();
    let arranger = BlockArranger::new(PolicyKind::OrganPipe.make(1));
    let report = arranger.clean(&mut driver, SimTime::ZERO)?;
    println!(
        "cleaned {} blocks out of the reserved area ({} disk ops)",
        before, report.io_ops
    );
    save_driver(driver, &path)?;
    Ok(())
}

fn stats(args: &[String]) -> Result<(), Error> {
    let path = image_path(args)?;
    let text = std::fs::read_to_string(path.with_extension("stats.json")).map_err(|_| {
        format!(
            "no stats next to {} — run `abrctl workload` first",
            path.display()
        )
    })?;
    let m = DayMetrics::from_json(&JsonValue::parse(&text)?)?;
    println!(
        "last workload run ({} requests, rearranged: {}):",
        m.all.n, m.rearranged
    );
    println!(
        "  all   : fcfs_dist {:6.1} | dist {:6.1} | zero {:4.1}% | seek {:5.2} ms | svc {:5.2} ms | wait {:6.2} ms",
        m.all.fcfs_seek_dist, m.all.seek_dist, m.all.zero_seek_pct,
        m.all.seek_ms, m.all.service_ms, m.all.waiting_ms
    );
    println!(
        "  reads : dist {:6.1} | zero {:4.1}% | seek {:5.2} ms | svc {:5.2} ms | wait {:6.2} ms",
        m.reads.seek_dist,
        m.reads.zero_seek_pct,
        m.reads.seek_ms,
        m.reads.service_ms,
        m.reads.waiting_ms
    );
    if m.faults.any() {
        println!(
            "  faults: retries {} | failed reads {} | failed writes {} | quarantined {} | lost {} | table write errs {}",
            m.faults.retries, m.faults.read_failures, m.faults.write_failures,
            m.faults.quarantines, m.faults.lost_blocks, m.faults.table_write_failures
        );
    }
    Ok(())
}

fn monitor_dump(args: &[String]) -> Result<(), Error> {
    let path = image_path(args)?;
    let side = path.with_extension("reqtable.json");
    let text = std::fs::read_to_string(&side).map_err(|_| {
        format!(
            "no request-table dump next to {} — run `abrctl workload` first",
            path.display()
        )
    })?;
    println!("{text}");
    // Mirror the ioctl's read-and-clear semantics: a second dump finds
    // nothing until the next workload run refills the table.
    std::fs::remove_file(&side)?;
    Ok(())
}

/// Per-run aggregates accumulated while scanning a span-trace file.
#[derive(Default)]
struct RunTrace {
    name: String,
    dropped: u64,
    spans: Vec<RequestSpan>,
    moves: u64,
    move_ops: u64,
    rearranges: u64,
}

fn trace_summary(args: &[String]) -> Result<(), Error> {
    let file = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("missing trace file (produce one with `experiments --trace FILE`)")?;
    let top: usize = opt(args, "--top").map_or(Ok(10), |s| s.parse())?;
    let text = std::fs::read_to_string(file)?;

    let mut runs: Vec<RunTrace> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = JsonValue::parse(line).map_err(|e| format!("{file}:{}: {e}", i + 1))?;
        if let Some(name) = v["run"].as_str() {
            runs.push(RunTrace {
                name: name.to_string(),
                dropped: v["dropped"].as_u64().unwrap_or(0),
                ..RunTrace::default()
            });
            continue;
        }
        let Some(ev) = ObsEvent::from_json(&v) else {
            continue; // foreign line; readers skip rather than fail
        };
        if runs.is_empty() {
            // Headerless file (e.g. a hand-cut excerpt): one anonymous run.
            runs.push(RunTrace {
                name: "(trace)".to_string(),
                ..RunTrace::default()
            });
        }
        let run = runs.last_mut().expect("pushed above");
        match ev {
            ObsEvent::Request(s) => run.spans.push(s),
            ObsEvent::Move { ops, .. } => {
                run.moves += 1;
                run.move_ops += u64::from(ops);
            }
            ObsEvent::Rearrange { .. } => run.rearranges += 1,
        }
    }
    if runs
        .iter()
        .all(|r| r.spans.is_empty() && r.moves == 0 && r.rearranges == 0)
    {
        return Err(format!("{file}: no events — empty or not a span trace").into());
    }

    let ms = |us: u64| us as f64 / 1_000.0;
    for run in &runs {
        println!(
            "run {}: {} requests, {} moves ({} ops), {} rearrange marks, {} dropped",
            run.name,
            run.spans.len(),
            run.moves,
            run.move_ops,
            run.rearranges,
            run.dropped
        );
        if run.spans.is_empty() {
            continue;
        }
        let n = run.spans.len() as f64;
        let sum = |f: fn(&RequestSpan) -> u64| run.spans.iter().map(f).sum::<u64>() as f64;
        println!(
            "  phase means: wait {:.2} ms | seek {:.2} ms | rotation {:.2} ms | transfer {:.2} ms | service {:.2} ms | response {:.2} ms",
            sum(RequestSpan::waiting_us) / n / 1_000.0,
            sum(|s| s.seek_us) / n / 1_000.0,
            sum(|s| s.rotation_us) / n / 1_000.0,
            sum(|s| s.transfer_us) / n / 1_000.0,
            sum(RequestSpan::service_us) / n / 1_000.0,
            sum(RequestSpan::response_us) / n / 1_000.0,
        );
        // Reserved-area hit timeline: the run split into 10 equal
        // sim-time bins, each showing what share of completions landed
        // in the reserved (rearranged) area — adaptation visible as the
        // share climbing day over day.
        let first = run.spans.iter().map(|s| s.completed_us).min().unwrap_or(0);
        let last = run.spans.iter().map(|s| s.completed_us).max().unwrap_or(0);
        let width = (last - first).max(1);
        const BINS: usize = 10;
        let mut hits = [0u64; BINS];
        let mut totals = [0u64; BINS];
        for s in &run.spans {
            let bin =
                ((s.completed_us - first) as u128 * BINS as u128 / (width as u128 + 1)) as usize;
            totals[bin] += 1;
            if s.in_reserved {
                hits[bin] += 1;
            }
        }
        let cells: Vec<String> = hits
            .iter()
            .zip(&totals)
            .map(|(h, t)| {
                if *t == 0 {
                    "   - ".to_string()
                } else {
                    format!("{:4.0}%", *h as f64 / *t as f64 * 100.0)
                }
            })
            .collect();
        println!("  reserved hits: [{}]", cells.join(" "));
        let retried = run.spans.iter().filter(|s| s.retries > 0).count();
        let failed = run.spans.iter().filter(|s| s.error.is_some()).count();
        if retried > 0 || failed > 0 {
            println!("  faults: {retried} retried, {failed} failed");
        }
    }

    // Slowest requests across the whole file, by response time.
    let mut slowest: Vec<(&str, &RequestSpan)> = runs
        .iter()
        .flat_map(|r| r.spans.iter().map(move |s| (r.name.as_str(), s)))
        .collect();
    slowest.sort_by(|a, b| {
        b.1.response_us()
            .cmp(&a.1.response_us())
            .then(a.1.id.cmp(&b.1.id))
    });
    println!("slowest {} requests:", top.min(slowest.len()));
    for (run, s) in slowest.iter().take(top) {
        println!(
            "  {run} id {:>6} {} block {:>8}: response {:8.2} ms (wait {:.2}, seek {:.2}, rot {:.2}, xfer {:.2}, qdepth {}{}{})",
            s.id,
            if s.read { "r" } else { "w" },
            s.block,
            ms(s.response_us()),
            ms(s.waiting_us()),
            ms(s.seek_us),
            ms(s.rotation_us),
            ms(s.transfer_us),
            s.queue_depth,
            if s.retries > 0 {
                format!(", {} retries", s.retries)
            } else {
                String::new()
            },
            if let Some(e) = &s.error {
                format!(", FAILED: {e}")
            } else {
                String::new()
            },
        );
    }
    Ok(())
}

/// Array-level health roll-up over a set of member images — the view a
/// volume manager would print for an `abr-array` volume whose members
/// are these disks. A member that cannot be loaded at all is reported
/// as FAILED rather than aborting the whole report: that is exactly the
/// degraded-array situation the roll-up exists for.
///
/// `--redundancy none|mirror|rotparity` tells the roll-up which scheme
/// the volume runs, which changes the verdict: a redundant volume with
/// one impaired member is *rebuilding-eligible* (reads keep flowing
/// from the surviving copy or parity reconstruction, and lost blocks
/// are scrub-repairable), not failed; only a second impairment takes
/// data offline.
fn array_status(args: &[String]) -> Result<(), Error> {
    // Positional member images: everything that is neither a flag nor
    // the value of the (only) value-taking flag.
    let images: Vec<&String> = args
        .iter()
        .enumerate()
        .filter(|&(i, a)| !(a.starts_with("--") || i > 0 && args[i - 1] == "--redundancy"))
        .map(|(_, a)| a)
        .collect();
    if images.is_empty() {
        return Err("array needs at least one member disk image".into());
    }
    let redundancy = opt(args, "--redundancy").unwrap_or_else(|| "none".to_string());
    let redundant = match redundancy.as_str() {
        "none" => false,
        "mirror" | "rotparity" => true,
        other => return Err(format!("unknown redundancy scheme {other:?}").into()),
    };
    let n = images.len();
    let mut healthy = 0usize;
    let mut total_lost = 0usize;
    let mut total_placed = 0usize;
    for (i, img) in images.iter().enumerate() {
        match load_driver(Path::new(img.as_str())) {
            Ok(driver) => {
                let degraded = driver.is_degraded();
                let quarantined = driver.quarantined_slots().count();
                let lost = driver.lost_blocks().count();
                let placed = driver.block_table().len();
                total_lost += lost;
                total_placed += placed;
                let ok = !degraded && lost == 0;
                if ok {
                    healthy += 1;
                }
                println!(
                    "disk {i:2} {}: {} | {} placed | {} quarantined | {} lost{}{}",
                    img,
                    if ok { "healthy" } else { "DEGRADED" },
                    placed,
                    quarantined,
                    lost,
                    if degraded {
                        " | table unreadable, pass-through"
                    } else {
                        ""
                    },
                    if !ok && redundant {
                        " | repairable from redundancy"
                    } else {
                        ""
                    }
                );
            }
            Err(e) => {
                println!(
                    "disk {i:2} {img}: FAILED to load ({e}){}",
                    if redundant {
                        " | repairable from redundancy"
                    } else {
                        ""
                    }
                );
            }
        }
    }
    println!(
        "array: {healthy}/{n} disks healthy | {total_placed} blocks placed | {total_lost} blocks lost | redundancy {redundancy}"
    );
    let impaired = n - healthy;
    match (redundant, impaired) {
        (_, 0) => {}
        (false, _) => {
            println!("array: DEGRADED — requests mapping to impaired members may fail");
        }
        (true, 1) => {
            println!(
                "array: REBUILDING-ELIGIBLE — one impaired member; reads are served from the \
                 surviving copy/parity, lost blocks scrub-repair, and a replacement re-silvers \
                 online"
            );
        }
        (true, _) => {
            println!(
                "array: FAILED — {impaired} impaired members exceed single-{redundancy} \
                 protection; data mapping to them is offline"
            );
        }
    }
    Ok(())
}

/// Render a deterministic tail-latency report from a
/// `BENCH_experiments.json` record (see `abr_bench::runreport`): per-day
/// p50/p99/p999 latency tables, SLO verdicts, starvation counts. The
/// default markdown (and `--json`) contain simulation-time data only and
/// are byte-identical for any `--jobs` value; `--folded FILE`
/// additionally exports the nondeterministic `wall.*` timers as folded
/// stacks for flamegraph tools.
fn report_cmd(args: &[String]) -> Result<(), Error> {
    let file = args.iter().find(|a| !a.starts_with("--")).ok_or(
        "missing BENCH_experiments.json path (the `experiments` binary writes one per suite run)",
    )?;
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let bench = JsonValue::parse(&text).map_err(|e| format!("{file}: {e}"))?;
    if let Some(out) = opt(args, "--folded") {
        let folded = abr_bench::runreport::folded_profile(&bench);
        std::fs::write(&out, &folded)?;
        eprintln!(
            "folded wall profile: {} frame(s) -> {out}",
            folded.lines().count()
        );
    }
    if has_flag(args, "--json") {
        println!("{}", abr_bench::runreport::render_json(&bench)?.pretty());
    } else {
        print!("{}", abr_bench::runreport::render_markdown(&bench)?);
    }
    Ok(())
}

fn replay_cmd(args: &[String]) -> Result<(), Error> {
    let path = image_path(args)?;
    let trace_file = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .nth(1)
        .ok_or("missing trace file")?;
    let f = std::fs::File::open(trace_file)?;
    let trace = TraceLog::read_jsonl(std::io::BufReader::new(f))?;
    let driver = load_driver(&path)?;
    let mut cfg = ReplayConfig::new(driver.disk().model().clone());
    cfg.reserved_cylinders = driver.label().reserved.map(|r| r.n_cylinders).unwrap_or(0);
    cfg.n_blocks = opt(args, "--blocks").map_or(Ok(0), |s| s.parse::<usize>())?;
    let m = replay(&trace, &cfg).map_err(|e| {
        format!(
            "{trace_file} does not replay against {}: {e}",
            path.display()
        )
    })?;
    println!(
        "replayed {} requests ({} blocks pre-placed):",
        m.all.n, cfg.n_blocks
    );
    println!(
        "  seek {:5.2} ms | service {:5.2} ms | wait {:6.2} ms | zero-seeks {:4.1}%",
        m.all.seek_ms, m.all.service_ms, m.all.waiting_ms, m.all.zero_seek_pct
    );
    Ok(())
}

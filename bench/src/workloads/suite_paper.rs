//! `suite_paper`: the journey a user actually takes.
//!
//! Runs the release `experiments --jobs 1` CLI (the 16 paper ids) in a
//! fresh working directory and compares every file it writes under
//! `results/` with the committed canon, byte for byte. The only
//! workload through `abr-bench` — engine, `DayCache`, report rendering,
//! JSON/CSV writing, process start — and the one that ties the
//! benchmark to the repo's fixed point. The CLI's seeds are fixed, so
//! `--seed` changes nothing here.
//!
//! Everything below reads only what the CLI leaves behind: its exit
//! code, its files, and the `BENCH_experiments.json` record it writes
//! about itself.

use super::{Sample, Size};
use crate::fingerprint::Fingerprint;
use crate::host::{peak_rss_mb, Paths};
use abr_sim::JsonValue;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The record the CLI writes about its own run; never part of the canon.
const RECORD: &str = "BENCH_experiments.json";

pub fn sample(size: Size, paths: &Paths) -> Result<Sample, String> {
    let cwd = paths.out().join(format!("suite-{}", std::process::id()));
    let _ = fs::remove_dir_all(&cwd);
    fs::create_dir_all(&cwd).map_err(|e| format!("cannot create {}: {e}", cwd.display()))?;
    let result = run_in(&cwd, size, paths);
    let _ = fs::remove_dir_all(&cwd);
    result
}

fn run_in(cwd: &Path, size: Size, paths: &Paths) -> Result<Sample, String> {
    let log = |name: &str| {
        fs::File::create(cwd.join(name)).map_err(|e| format!("cannot create {name}: {e}"))
    };
    let mut cmd = Command::new(&paths.experiments);
    cmd.args(["--jobs", "1"]);
    if size == Size::Quick {
        cmd.args(["table1", "fig8"]);
    }
    cmd.current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(log("stdout.txt")?)
        .stderr(log("stderr.txt")?);

    let t0 = Instant::now();
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", paths.experiments.display()))?;
    // VmHWM only grows, so the last reading before the exit is the peak
    // unless the peak falls in the final two milliseconds.
    let mut peak = None;
    let status = loop {
        if let Some(mb) = peak_rss_mb(Some(child.id())) {
            peak = Some(mb);
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for the CLI failed: {e}"));
            }
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();

    let mut s = Sample {
        wall_s,
        child_peak_rss_mb: peak,
        ..Sample::default()
    };
    s.check(status.success(), || {
        format!("experiments exited with {status}")
    });
    compare_with_canon(&cwd.join("results"), &paths.root.join("results"), &mut s)?;
    read_record(&cwd.join("results").join(RECORD), wall_s, &mut s)?;
    Ok(s)
}

/// Byte-compare every written result file with the canon. A file that
/// differs (or has no canon) is a failed operation.
pub fn compare_with_canon(written: &Path, canon: &Path, s: &mut Sample) -> Result<(), String> {
    let mut names: Vec<String> = fs::read_dir(written)
        .map_err(|e| format!("the CLI wrote no results directory: {e}"))?
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != RECORD)
        .collect();
    names.sort();
    let mut fp = Fingerprint::new();
    for name in &names {
        let got = fs::read(written.join(name)).map_err(|e| format!("cannot read {name}: {e}"))?;
        fp.bytes(name.as_bytes());
        fp.u64(got.len() as u64);
        fp.bytes(&got);
        s.attempted += 1;
        if fs::read(canon.join(name)).ok().as_deref() != Some(&got[..]) {
            s.failed += 1;
            s.problems
                .push(format!("results/{name} differs from the committed canon"));
        }
    }
    s.check(!names.is_empty(), || {
        "the CLI wrote no result file".to_string()
    });
    s.fingerprint = fp.finish();
    Ok(())
}

/// Requests, set-up time and simulated device statistics, summed over
/// the runs of the CLI's own record.
fn read_record(path: &Path, cli_wall_s: f64, s: &mut Sample) -> Result<(), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("no {RECORD}: {e}"))?;
    let record = JsonValue::parse(&text).map_err(|e| format!("{RECORD} does not parse: {e}"))?;
    let runs = record
        .get("runs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{RECORD} has no runs"))?;
    let mut setup_ns = 0u64;
    let mut runs_wall_s = 0.0f64;
    let mut slowest_s = 0.0f64;
    let mut submitted = 0u64;
    let mut failed = 0u64;
    let mut service = RecordedHistogram::default();
    let mut queueing = RecordedHistogram::default();
    for run in runs {
        s.check(
            run.get("ok").and_then(JsonValue::as_bool) == Some(true),
            || format!("run {} is not ok", run["id"]),
        );
        let wall = run.get("wall_s").and_then(JsonValue::as_f64).unwrap_or(0.0);
        runs_wall_s += wall;
        slowest_s = slowest_s.max(wall);
        let counter = |name: &str| run["metrics"]["counters"][name].as_u64().unwrap_or(0);
        setup_ns += counter("wall.setup.ns");
        s.requests += counter("driver.completed");
        submitted += counter("driver.submitted");
        failed += counter("driver.failed") + counter("driver.faults.lost_blocks");
        service.add(&run["metrics"]["hires"]["driver.service_us"])?;
        queueing.add(&run["metrics"]["hires"]["driver.queueing_us"])?;
    }
    s.setup_s = setup_ns as f64 / 1e9;
    let completed = s.requests;
    s.check(submitted == completed + failed, || {
        format!("record: submitted {submitted} != completed {completed} + failed {failed}")
    });
    s.check(failed == 0, || format!("record: {failed} failed or lost"));
    s.sim.push(("sim_service_ms", service.mean_ms()));
    s.sim.push(("sim_wait_ms", queueing.mean_ms()));
    s.sim
        .push(("sim_latency_ms", service.mean_ms() + queueing.mean_ms()));
    s.sim
        .push(("sim_p50_service_ms", service.quantile_ms(0.50)));
    s.sim
        .push(("sim_p99_service_ms", service.quantile_ms(0.99)));
    s.sim.push(("sim_p50_wait_ms", queueing.quantile_ms(0.50)));
    s.sim.push(("sim_p99_wait_ms", queueing.quantile_ms(0.99)));
    s.layer
        .push(("abr-bench.overhead_s", cli_wall_s - runs_wall_s));
    s.layer.push(("abr-bench.slowest_run_s", slowest_s));
    Ok(())
}

/// Histograms of several runs merged from their recorded form
/// (`"scheme": "log2m32"`, sparse `[bucket, count]` pairs).
#[derive(Debug, Default)]
struct RecordedHistogram {
    buckets: std::collections::BTreeMap<u64, u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl RecordedHistogram {
    fn add(&mut self, h: &JsonValue) -> Result<(), String> {
        if h.is_null() {
            return Ok(()); // a run without a device, e.g. table1
        }
        if h["scheme"].as_str() != Some("log2m32") {
            return Err(format!("unknown histogram scheme {}", h["scheme"]));
        }
        self.count += h["count"].as_u64().unwrap_or(0);
        self.sum += h["sum"].as_u64().unwrap_or(0);
        self.max = self.max.max(h["max"].as_u64().unwrap_or(0));
        for pair in h["buckets"].as_array().map(Vec::as_slice).unwrap_or(&[]) {
            let (Some(i), Some(n)) = (pair[0].as_u64(), pair[1].as_u64()) else {
                return Err("malformed histogram bucket".to_string());
            };
            *self.buckets.entry(i).or_insert(0) += n;
        }
        Ok(())
    }

    fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64 / 1_000.0
        }
    }

    /// Same convention as `LogHistogram::quantile`: rank `ceil(q·n)`,
    /// inclusive upper edge of its bucket, capped at the exact maximum.
    fn quantile_ms(&self, q: f64) -> f64 {
        let target = (q * self.count as f64).ceil() as u64;
        let mut acc = 0;
        for (&i, &n) in &self.buckets {
            acc += n;
            if acc >= target {
                return log2m32_upper_edge(i).min(self.max) as f64 / 1_000.0;
            }
        }
        self.max as f64 / 1_000.0
    }
}

/// Inclusive upper edge of bucket `i` of the `log2m32` scheme: values
/// below 32 are exact, above that every octave has 32 linear buckets.
fn log2m32_upper_edge(i: u64) -> u64 {
    if i < 32 {
        return i;
    }
    let shift = i / 32 - 1;
    ((32 + i % 32 + 1) << shift) - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_obs::LogHistogram;

    #[test]
    fn recorded_histogram_agrees_with_the_live_one() {
        // Round-trip a live histogram through its recorded form; means
        // and quantiles must come back the same, across two "runs".
        let mut live = LogHistogram::new();
        let mut merged = RecordedHistogram::default();
        for part in [0u64..700, 700..1500] {
            let mut h = LogHistogram::new();
            for k in part {
                let v = k * k % 90_001 + k;
                h.observe(v);
                live.observe(v);
            }
            merged.add(&h.to_json()).expect("well-formed");
        }
        merged
            .add(&JsonValue::Null)
            .expect("absent histogram is empty");
        assert_eq!(merged.count, live.count());
        assert_eq!(
            merged.mean_ms(),
            live.sum() as f64 / live.count() as f64 / 1e3
        );
        for q in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                merged.quantile_ms(q),
                live.quantile(q) as f64 / 1e3,
                "q={q}"
            );
        }
    }

    #[test]
    fn a_corrupted_result_file_is_a_failed_operation() {
        let dir = std::env::temp_dir().join(format!("abr-perf-canon-{}", std::process::id()));
        let (written, canon) = (dir.join("written"), dir.join("canon"));
        fs::create_dir_all(&written).unwrap();
        fs::create_dir_all(&canon).unwrap();
        for (name, text) in [("a.txt", "alpha\n"), ("b.json", "{}\n")] {
            fs::write(written.join(name), text).unwrap();
            fs::write(canon.join(name), text).unwrap();
        }
        fs::write(written.join(RECORD), "not compared").unwrap();

        let mut clean = Sample::default();
        compare_with_canon(&written, &canon, &mut clean).unwrap();
        assert_eq!((clean.attempted, clean.failed), (2, 0));
        assert!(clean.problems.is_empty());

        // Flip one byte of one copy.
        fs::write(written.join("b.json"), "{ }\n").unwrap();
        let mut bad = Sample::default();
        compare_with_canon(&written, &canon, &mut bad).unwrap();
        assert_eq!((bad.attempted, bad.failed), (2, 1));
        assert!(bad.problems[0].contains("b.json"));
        assert_ne!(bad.fingerprint, clean.fingerprint);
        fs::remove_dir_all(&dir).unwrap();
    }
}

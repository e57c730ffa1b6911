//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments                        # run everything, write results/
//! experiments table2 fig8            # run selected ids
//! experiments --jobs 4 table2 fig8   # run them on 4 workers
//! experiments --jobs 1 table2        # force the serial path
//! experiments --trace out.jsonl fig8 # also record per-request traces
//! experiments --list                 # list ids
//! experiments --ablations            # the ablation suite
//! ```
//!
//! Every suite invocation writes `results/<id>.{txt,json}` plus a
//! machine-readable `results/BENCH_experiments.json` — the run record
//! `abrctl report` and `bench/` read: per-run wall times, sim-time
//! throughput, metrics and per-day series.
//! Results are bit-identical for any `--jobs` value: runs are seeded
//! independently, and shared day-vectors come from a compute-once cache.
//!
//! `--trace FILE` turns on the flight recorder for every run and writes
//! one JSONL document (per-run header line, then one event per line) in
//! spec order — byte-identical for any `--jobs` value. An empty trace or
//! a nonzero drop count is an error, so CI can gate on the exit code.
//! Inspect the file with `abrctl trace FILE`.

use abr_bench::engine::{detected_parallelism, Family, RunBatch, RUNS};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: experiments [--jobs N] [--trace FILE] [--list | --ablations | <id>...]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.iter().any(|a| a == "--list") {
        for run in RUNS {
            println!("{}", run.id);
        }
        return ExitCode::SUCCESS;
    }

    let mut jobs: usize = 0; // 0 = autodetect
    let mut ablations_only = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let Some(n) = it.next().and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("error: --jobs needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                };
                if n == 0 {
                    eprintln!("error: --jobs must be at least 1\n{}", usage());
                    return ExitCode::FAILURE;
                }
                jobs = n;
            }
            "--trace" => {
                let Some(path) = it.next() else {
                    eprintln!("error: --trace needs an output file\n{}", usage());
                    return ExitCode::FAILURE;
                };
                trace_path = Some(PathBuf::from(path));
            }
            "--ablations" => ablations_only = true,
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
            id => ids.push(id.to_string()),
        }
    }

    let ids: Vec<&str> = if ablations_only {
        Family::Ablation.ids()
    } else if ids.is_empty() {
        Family::Experiment.ids()
    } else {
        ids.iter().map(String::as_str).collect()
    };

    let mut batch = match RunBatch::new(&ids, jobs) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    batch.set_trace(trace_path.is_some());

    eprintln!(
        "[{} runs on {} worker(s); host parallelism {}]",
        batch.specs().len(),
        batch.jobs(),
        detected_parallelism()
    );
    let result = batch.execute();

    // Print and save in spec order, on the main thread, so output is
    // deterministic no matter how the workers interleaved.
    let results_dir = PathBuf::from("results");
    let mut failed = false;
    for outcome in &result.outcomes {
        match &outcome.report {
            Ok(report) => {
                eprintln!(
                    "[{} took {:.1?}; {:.0}x real time]",
                    outcome.spec.id,
                    outcome.wall,
                    outcome.sim_per_real()
                );
                println!("{}", report.text);
                if let Err(e) = report.save(&results_dir) {
                    eprintln!("warning: could not save {}: {e}", outcome.spec.id);
                }
            }
            Err(message) => {
                eprintln!("error: run {} failed: {message}", outcome.spec.id);
                failed = true;
            }
        }
    }

    eprintln!("[batch: {:.1?} wall]", result.wall);
    if let Err(e) = result.write_bench(&results_dir) {
        eprintln!("warning: could not write BENCH_experiments.json: {e}");
    }

    if let Some(path) = &trace_path {
        match result.write_trace(path) {
            Ok((events, dropped)) => {
                eprintln!(
                    "[trace: {events} events, {dropped} dropped -> {}]",
                    path.display()
                );
                // A trace you asked for but cannot use is an error: CI
                // gates on this exit code.
                if events == 0 {
                    eprintln!("error: trace is empty");
                    failed = true;
                }
                if dropped > 0 {
                    eprintln!("error: trace dropped {dropped} events (flight recorder overflow)");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("error: could not write trace {}: {e}", path.display());
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

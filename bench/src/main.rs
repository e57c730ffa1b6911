//! `abr-perf`: the repo benchmark. Started by `bench/run.sh`, which
//! builds it and the `experiments` CLI first; see `bench/README.md`.
//!
//! ```text
//! run.sh                      six workloads, tracing off: the ten end-to-end metrics
//! run.sh --layers             the traced run: per-layer metrics and span files
//! run.sh --aa                 the end-to-end set twice on one build, compared
//! run.sh --quick              schema self-test on one tiny sample per workload
//! run.sh --workload W --seed N --seconds S --trace 0|1
//!                             one workload in this process; the last line of
//!                             standard output is the result as one JSON object
//! ```

mod fingerprint;
mod host;
mod kernels;
mod layers;
mod probe;
mod replica;
mod report;
mod run;
mod schema;
mod span;
mod stats;
mod workloads;

use host::Paths;
use std::process::ExitCode;
use workloads::Size;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    /// Seconds of timed samples per workload; `None` = `run_seconds`
    /// of `BENCHMARK.json`.
    pub seconds: Option<f64>,
    pub trace: bool,
    pub layers: bool,
    pub aa: bool,
    pub quick: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: None,
        trace: false,
        layers: false,
        aa: false,
        quick: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.to_string()),
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--layers" => a.layers = true,
            "--aa" => a.aa = true,
            "--quick" => a.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; known: {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("abr-perf: refusing to report from a debug build; use bench/run.sh");
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("abr-perf: {e}");
            return ExitCode::from(2);
        }
    };
    let paths = Paths::from_env();
    match dispatch(&args, &paths) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("abr-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `Ok(false)` = ran, but a correctness or agreement check failed.
fn dispatch(args: &Args, paths: &Paths) -> Result<bool, String> {
    let manifest = schema::Manifest::load(&paths.manifest())?;
    std::fs::create_dir_all(paths.out())
        .map_err(|e| format!("cannot create {}: {e}", paths.out().display()))?;
    let size = if args.quick { Size::Quick } else { Size::Full };
    let seconds = args.seconds.unwrap_or(manifest.run_seconds as f64);
    match &args.workload {
        Some(w) if args.trace => layers::single(w, args.seed, seconds, size, paths),
        Some(w) => report::single(w, args.seed, seconds, size, paths),
        None if args.quick => report::selftest(args, &manifest, paths),
        None if args.aa => report::aa(args, &manifest, paths),
        None => report::all(args, args.layers, &manifest, paths).map(|r| r.correct),
    }
}

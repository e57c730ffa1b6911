//! CLI for the workspace analyzer: `cargo run -p abr-lint -- --workspace`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage error.

#![forbid(unsafe_code)]

use abr_lint::{find_root, run_lint};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
abr-lint: workspace determinism & panic-safety analyzer

USAGE:
    abr-lint [--workspace] [--root <dir>] [--json] [--write-baseline]
             [--list-rules]

OPTIONS:
    --workspace        Lint the enclosing workspace (default; kept for
                       symmetry with cargo's flag)
    --root <dir>       Lint the workspace rooted at <dir> instead of
                       searching upward from the current directory
    --json             Emit the machine-readable JSON report instead of
                       one-line-per-finding text
    --write-baseline   Rewrite crates/abr-lint/baselines.txt to the
                       current P001/D004/D005/M001/M002 reality,
                       keeping its comments; refused if any count rose
    --list-rules       Print the rule catalogue and exit
";

const RULES: &str = "\
D001  no HashMap/HashSet in result-path crates (abr-core, abr-driver,
      abr-disk, abr-array, abr-workload, abr-fs)
D002  no Instant::now / SystemTime / env reads outside the allowlist
      (abr-bench engine.rs, abr-obs timer.rs)
D003  no unseeded randomness (thread_rng, rand::random, OsRng,
      from_entropy) anywhere
D004  interprocedural: no wall-clock/env/FS-order/thread-id sink
      reachable from a result-path entry point (RunBatch::execute,
      RunSpec::dispatch, ServeExperiment::run/run_epoch,
      DayLoop::run_day) through the workspace call graph
D005  interprocedural: no HashMap/HashSet/RandomState or unseeded-rng
      sink reachable from a result-path entry point
P001  unwrap()/expect() in non-test library code must stay within the
      file's ratcheted `P001 <file> <count>` baseline entry
C001  no narrowing `as` casts (u8/u16/u32/i8/i16/i32) in geometry.rs,
      layout.rs, cylmap.rs, stripe.rs
M001  every registered metric name (counter/gauge/hires in a producer
      crate) must have a consumer: a report column or an SLO
M002  every consumed metric name must be registered by a producer
L001  abr-lint annotations must name a known rule and give a reason;
      baseline entries must carry a justifying comment

Escape hatch: `// abr-lint: allow(RULE, reason)` — trailing on the
offending line, or alone on the line above it. For D004/D005 an allow
on a *call-site* line cuts taint propagation through that edge; an
allow on the sink line (D002/D003/D001 ids work there too) suppresses
the seed. Surviving P001/D004/D005/M001/M002 findings go in
crates/abr-lint/baselines.txt as `RULE KEY COUNT` under a justifying
comment block, and only ratchet down.
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut write_baseline = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workspace" => {}
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a directory\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--write-baseline" => write_baseline = true,
            "--list-rules" => {
                print!("{RULES}");
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root.or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d))) {
        Some(r) => r,
        None => {
            eprintln!("abr-lint: could not find a workspace root (Cargo.toml + crates/)");
            return ExitCode::from(2);
        }
    };

    let report = match run_lint(&root, write_baseline) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("abr-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render());
    }
    if report.diags.is_empty() {
        if !json {
            println!("abr-lint: clean");
        }
        ExitCode::SUCCESS
    } else {
        if !json {
            println!("abr-lint: {} violation(s)", report.diags.len());
        }
        ExitCode::FAILURE
    }
}

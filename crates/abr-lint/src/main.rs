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
    abr-lint [--workspace] [--root <dir>] [--write-baseline] [--list-rules]

OPTIONS:
    --workspace        Lint the enclosing workspace (default; kept for
                       symmetry with cargo's flag)
    --root <dir>       Lint the workspace rooted at <dir> instead of
                       searching upward from the current directory
    --write-baseline   Rewrite crates/abr-lint/baselines.txt to the
                       current P001 reality, keeping its comments;
                       refused if any count rose
    --list-rules       Print the rule catalogue and exit
";

const RULES: &str = "\
D001  no HashMap/HashSet in any workspace crate
P001  unwrap()/expect() in non-test library code must stay within the
      file's ratcheted `P001 <file> <count>` baseline entry
C001  no narrowing `as` casts (u8/u16/u32/i8/i16/i32) in geometry.rs,
      layout.rs, cylmap.rs, stripe.rs
L001  abr-lint annotations must name a known rule and give a reason;
      baseline entries must carry a justifying comment

Escape hatch: `// abr-lint: allow(RULE, reason)` — trailing on the
offending line, or alone on the line above it. Surviving P001 findings
go in crates/abr-lint/baselines.txt as `P001 <file> <count>` under a
justifying comment block, and only ratchet down.

Owned elsewhere: wall-clock, environment, directory-order and
unseeded-randomness calls are banned by clippy's `disallowed-methods`
(clippy.toml; escape hatch `#[allow(clippy::disallowed_methods)]`), and
every registered metric is joined against its report/SLO consumers by
the abr-bench test `registry_and_consumers_name_the_same_metrics`.
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut write_baseline = false;
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

    print!("{}", report.render());
    if report.diags.is_empty() {
        println!("abr-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("abr-lint: {} violation(s)", report.diags.len());
        ExitCode::FAILURE
    }
}

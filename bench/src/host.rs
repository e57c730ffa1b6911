//! What the benchmark reads from the host: memory high-water marks from
//! `/proc` (the sandbox has no `/usr/bin/time` and no libc crate), the
//! checkout's layout, and the provenance `run.sh` hands over.

use std::path::{Path, PathBuf};

/// Peak resident set (`VmHWM`) in MB of `pid`, or of this process when
/// `None`. `None` once the process has gone (a zombie has no `VmHWM`).
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where things are in the checkout. `run.sh` exports both variables;
/// without them the current directory is taken for the repo root.
#[derive(Debug, Clone)]
pub struct Paths {
    /// Root of the checkout (holds `BENCHMARK.json`, `crates/`, `results/`).
    pub root: PathBuf,
    /// The release `experiments` binary `run.sh` built.
    pub experiments: PathBuf,
}

impl Paths {
    pub fn from_env() -> Paths {
        let root = std::env::var_os("ABR_PERF_ROOT")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        let experiments = std::env::var_os("ABR_PERF_EXPERIMENTS")
            .map(PathBuf::from)
            .unwrap_or_else(|| root.join("target/release/experiments"));
        Paths { root, experiments }
    }

    /// Scratch and output directory (`bench/out`, git-ignored).
    pub fn out(&self) -> PathBuf {
        self.root.join("bench/out")
    }

    pub fn manifest(&self) -> PathBuf {
        self.root.join("BENCHMARK.json")
    }
}

/// Provenance of a report: `run.sh` gathers these before it starts the
/// binary, so every output says what produced it.
pub fn provenance(seed: u64) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    vec![
        ("rustc", env("ABR_PERF_RUSTC")),
        ("nproc", env("ABR_PERF_NPROC")),
        ("cpu", env("ABR_PERF_CPU")),
        ("commit", env("ABR_PERF_COMMIT")),
        ("seed", seed.to_string()),
    ]
}

/// Non-blank, non-comment lines of every `.rs` file under `dir`
/// (`//` line comments only, doc comments included: the count tracks
/// code, and a crate that loses comments has not got simpler).
pub fn loc(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += loc(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = std::fs::read_to_string(&path) {
                total += count_code_lines(&text);
            }
        }
    }
    total
}

fn count_code_lines(text: &str) -> u64 {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_skip_blanks_and_comments() {
        let src = "//! doc\n\nfn main() {\n    // note\n    let x = 1; // trailing\n}\n";
        assert_eq!(count_code_lines(src), 3);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb(None).expect("/proc/self/status has VmHWM") > 0.0);
        assert_eq!(peak_rss_mb(Some(u32::MAX)), None);
    }
}

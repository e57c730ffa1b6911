//! The modes of `run.sh`: one workload in this process, every workload
//! each in a process of its own, the A/A agreement check and the schema
//! self-test — and the text they print.

use crate::host::{self, Paths};
use crate::run::{self, Run};
use crate::schema::{self, Manifest};
use crate::stats::median;
use crate::workloads::{self, Size};
use crate::Args;
use abr_sim::{jsn, JsonValue};
use std::process::{Command, Stdio};

/// Workloads that model something the paper did not measure.
const UNVALIDATED: [&str; 3] = ["array_redundant", "serve_open", "deep_queue"];

/// Run one workload here, print its table, write its detail file and
/// end with the contract line.
pub fn single(
    workload: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    paths: &Paths,
) -> Result<bool, String> {
    let run = run::run(workload, seed, seconds, size, paths)?;
    print_run(&run);
    let path = paths.out().join(format!("e2e-{workload}.json"));
    std::fs::write(&path, run.to_json().pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", run.contract_line());
    Ok(run.correct())
}

fn print_run(run: &Run) {
    let seed = if workloads::honours_seed(&run.workload) {
        format!("seed {}", run.seed)
    } else {
        "fixed seed".to_string()
    };
    println!(
        "== {}: {seed}, {} timed + {} warm-up samples, {} requests each, fingerprint {}",
        run.workload,
        run.samples.len(),
        run.warmups,
        run.samples[0].requests,
        crate::fingerprint::hex(run.fingerprint()),
    );
    println!(
        "   {:<22} {:<6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3} {:>7}  time",
        "metric", "unit", "median", "q1", "q3", "min", "max", "n", "spread"
    );
    for m in run.metrics() {
        let s = m.summary;
        println!(
            "   {:<22} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3} {:>6.2}%  {}",
            m.name,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n,
            s.spread() * 100.0,
            if m.simulated { "simulated" } else { "host" },
        );
    }
    println!(
        "   failed_share {} ({} of {} operations)",
        run.failed() as f64 / run.attempted().max(1) as f64,
        run.failed(),
        run.attempted()
    );
    let reported: Vec<String> = run.samples[0]
        .sim
        .iter()
        .filter(|(name, _)| !run::SIM_METRICS.contains(name))
        .map(|(name, v)| format!("{name} {v:.4}"))
        .collect();
    if !reported.is_empty() {
        println!("   also (simulated): {}", reported.join(", "));
    }
    if UNVALIDATED.contains(&run.workload.as_str()) {
        println!("   unvalidated model: the paper has no reference for it, so no error figure");
    }
    let series = |f: fn(&workloads::Sample) -> f64| {
        run.samples
            .iter()
            .map(|s| format!("{:.4}", f(s)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "   host times are stated at {} ns memory latency; as the clock read them: wall_s {:.6}, setup_s {:.6}, at {:.1} ns (medians)",
        crate::probe::NOMINAL_NS,
        median(&run.series(|s| s.wall_s)),
        median(&run.series(|s| s.setup_s)),
        median(&run.series(|s| s.probe_ns)),
    );
    println!(
        "   wall_s by sample:       {}",
        series(workloads::Sample::wall_at_nominal)
    );
    println!("   raw wall_s by sample:   {}", series(|s| s.wall_s));
    println!("   memory probe by sample: {}", series(|s| s.probe_ns));
    println!(
        "   setup_s by sample:      {}",
        series(workloads::Sample::setup_at_nominal)
    );
    for p in &run.problems {
        println!("   INCORRECT: {p}");
    }
}

/// The detail files of one pass over the workloads.
#[derive(Debug)]
pub struct Pass {
    pub correct: bool,
    /// `(workload, detail)` in run order.
    pub details: Vec<(String, JsonValue)>,
}

/// Run every workload, one after another, each in a process of its own
/// (so `peak_rss_mb` is that workload's alone), and print the summary.
pub fn all(args: &Args, traced: bool, manifest: &Manifest, paths: &Paths) -> Result<Pass, String> {
    let pass = run_children(args, traced, manifest, paths)?;
    let summary = summary(args, traced, &pass);
    let name = if traced {
        "summary-layers.json"
    } else {
        "summary-e2e.json"
    };
    let path = paths.out().join(name);
    std::fs::write(&path, summary.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", summary.pretty());
    Ok(pass)
}

fn run_children(
    args: &Args,
    traced: bool,
    manifest: &Manifest,
    paths: &Paths,
) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut pass = Pass {
        correct: true,
        details: Vec::new(),
    };
    for workload in &manifest.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if let Some(s) = args.seconds {
            cmd.args(["--seconds", &s.to_string()]);
        }
        if args.quick {
            cmd.arg("--quick");
        }
        // A detail file left by an earlier run must not pass for this one's.
        let file = format!("{}-{workload}.json", if traced { "layers" } else { "e2e" });
        let _ = std::fs::remove_file(paths.out().join(&file));
        let out = cmd
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start the {workload} process: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        let ok = JsonValue::parse(last)
            .ok()
            .and_then(|j| j.get("correct").and_then(JsonValue::as_bool));
        if ok != Some(true) || !out.status.success() {
            println!("   {workload}: FAILED ({}), last line: {last}", out.status);
            pass.correct = false;
        }
        if let Ok(text) = std::fs::read_to_string(paths.out().join(file)) {
            if let Ok(detail) = JsonValue::parse(&text) {
                pass.details.push((workload.clone(), detail));
            }
        }
    }
    Ok(pass)
}

/// Provenance, every workload's detail, and no claim: the benchmark
/// measures, it does not argue.
fn summary(args: &Args, traced: bool, pass: &Pass) -> JsonValue {
    let mut provenance = JsonValue::object();
    for (k, v) in host::provenance(args.seed) {
        provenance.insert(k, v);
    }
    let mut workloads = JsonValue::object();
    for (name, detail) in &pass.details {
        // The series and layer tables are in the detail files; the
        // summary keeps what a later issue cites.
        let mut brief = JsonValue::object();
        for key in [
            "samples",
            "correct",
            "failed_share",
            "requests",
            "fingerprint",
            "metrics",
            "reported",
        ] {
            if let Some(v) = detail.get(key) {
                brief.insert(key, v.clone());
            }
        }
        workloads.insert(name.as_str(), brief);
    }
    jsn!({
        "benchmark": if traced { "layers" } else { "end_to_end" },
        "provenance": provenance,
        "correct": pass.correct,
        "workloads": workloads,
        "claim": jsn!(null),
    })
}

/// How one metric of one workload compares between the two passes.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Simulated, and bit-identical.
    Exact,
    /// Simulated, and not identical: the build is not deterministic.
    Differs,
    /// Host time within its bound.
    Within,
    /// Host time whose own quartile spread exceeds the bound, so the
    /// comparison cannot tell "unchanged" from "changed".
    Unresolved,
    /// Host time worse by more than the bound.
    Beyond,
}

/// Run the whole end-to-end set twice on the same build and hold the
/// two passes against each other: every host metric pair against its
/// bound, every simulated metric and fingerprint for exact equality.
/// A simulated difference or a host metric beyond its bound fails the
/// check; an unresolved pair is reported and counted, not failed: it
/// says the host was too noisy during those samples to tell.
pub fn aa(args: &Args, manifest: &Manifest, paths: &Paths) -> Result<bool, String> {
    println!("# A/A pass 1 of 2");
    let a = run_children(args, false, manifest, paths)?;
    println!("# A/A pass 2 of 2");
    let b = run_children(args, false, manifest, paths)?;
    let mut ok = a.correct && b.correct;
    let mut unresolved = 0u64;
    let mut rows = JsonValue::array();
    println!("# A/A agreement (same build, same seed; B against A)");
    println!(
        "   {:<16} {:<22} {:>14} {:>9} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "spread A", "median B", "spread B", "B vs A", "bound"
    );
    for ((workload, da), (_, db)) in a.details.iter().zip(&b.details) {
        if da["fingerprint"].as_str() != db["fingerprint"].as_str() {
            println!(
                "   {workload:<16} fingerprint {} != {}",
                da["fingerprint"], db["fingerprint"]
            );
            ok = false;
        }
        for decl in &manifest.end_to_end {
            let (ma, mb) = (
                &da["metrics"][decl.name.as_str()],
                &db["metrics"][decl.name.as_str()],
            );
            let num = |m: &JsonValue, k: &str| m[k].as_f64().unwrap_or(f64::NAN);
            let (med_a, med_b) = (num(ma, "median"), num(mb, "median"));
            let spread = |m: &JsonValue| (num(m, "q3") - num(m, "q1")) / num(m, "median").abs();
            let bound = decl.bound.unwrap_or(0.0);
            let worse = match decl.better.as_str() {
                "higher" => (med_a - med_b) / med_a,
                _ => (med_b - med_a) / med_a,
            };
            let verdict = if ma["time"].as_str() == Some("simulated") {
                if med_a.to_bits() == med_b.to_bits() {
                    Verdict::Exact
                } else {
                    Verdict::Differs
                }
            } else if spread(ma) > bound || spread(mb) > bound {
                Verdict::Unresolved
            } else if worse > bound {
                Verdict::Beyond
            } else {
                Verdict::Within
            };
            println!(
                "   {:<16} {:<22} {:>14.6} {:>8.2}% {:>14.6} {:>8.2}% {:>+7.2}% {:>5.0}%  {}",
                workload,
                decl.name,
                med_a,
                spread(ma) * 100.0,
                med_b,
                spread(mb) * 100.0,
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Exact => "exact",
                    Verdict::Differs => "DIFFERS (simulated results must repeat exactly)",
                    Verdict::Within => "within bound",
                    Verdict::Unresolved => "UNRESOLVED (spread exceeds bound)",
                    Verdict::Beyond => "BEYOND BOUND",
                },
            );
            ok &= !matches!(verdict, Verdict::Differs | Verdict::Beyond);
            unresolved += u64::from(verdict == Verdict::Unresolved);
            rows.push(jsn!({
                "workload": workload.as_str(),
                "metric": decl.name.as_str(),
                "median_a": med_a,
                "median_b": med_b,
                "worse_by": worse,
                "bound": bound,
                "verdict": format!("{verdict:?}"),
            }));
        }
    }
    let result = jsn!({
        "benchmark": "aa",
        "agree": ok,
        "unresolved": unresolved,
        "rows": rows,
        "claim": jsn!(null),
    });
    let path = paths.out().join("summary-aa.json");
    std::fs::write(&path, result.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "A/A: {}; {unresolved} host metrics unresolved",
        if ok {
            "no metric of the second pass disagrees with the first"
        } else {
            "the two passes DISAGREE"
        }
    );
    Ok(ok)
}

/// One tiny sample per workload, untraced and traced, held against
/// `BENCHMARK.json`: every declared name emitted, every emitted name
/// declared, units equal, names within the naming limits.
pub fn selftest(args: &Args, manifest: &Manifest, paths: &Paths) -> Result<bool, String> {
    let mut problems = manifest.violations();
    let mut ok = true;
    for (traced, declared) in [(false, &manifest.end_to_end), (true, &manifest.per_layer)] {
        let pass = run_children(args, traced, manifest, paths)?;
        ok &= pass.correct;
        if pass.details.len() != manifest.workloads.len() {
            problems.push("a workload left no detail file".to_string());
        }
        for (workload, detail) in &pass.details {
            let emitted: Vec<(String, String)> = detail["metrics"]
                .as_object()
                .map(Vec::as_slice)
                .unwrap_or(&[])
                .iter()
                .map(|(name, m)| (name.clone(), m["unit"].as_str().unwrap_or("").to_string()))
                .collect();
            for m in schema::mismatches(declared, &emitted) {
                problems.push(format!("{workload} (trace {}): {m}", u8::from(traced)));
            }
        }
    }
    for p in &problems {
        println!("SCHEMA: {p}");
    }
    ok &= problems.is_empty();
    println!(
        "schema self-test: {} workloads, {} end-to-end and {} per-layer metrics: {}",
        manifest.workloads.len(),
        manifest.end_to_end.len(),
        manifest.per_layer.len(),
        if ok { "ok" } else { "FAILED" }
    );
    Ok(ok)
}

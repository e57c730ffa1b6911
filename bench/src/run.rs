//! One end-to-end run of one workload: warm up, take timed samples for
//! the asked number of seconds, and turn them into the ten end-to-end
//! metrics.

use crate::fingerprint;
use crate::host::{self, Paths};
use crate::probe::{self, ProbeLog};
use crate::stats::Summary;
use crate::workloads::{self, Sample, Size};
use abr_sim::{jsn, JsonValue};
use std::time::Instant;

/// The simulated end-to-end metrics: exact for a fixed seed, taken from
/// the first timed sample (every sample must agree, see `problems`).
pub const SIM_METRICS: [&str; 6] = [
    "sim_service_ms",
    "sim_p50_service_ms",
    "sim_p99_service_ms",
    "sim_wait_ms",
    "sim_p99_wait_ms",
    "sim_latency_ms",
];

/// Timed samples of one workload in one process.
#[derive(Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub warmups: usize,
    pub samples: Vec<Sample>,
    pub peak_rss_mb: f64,
    /// Everything that makes the run incorrect.
    pub problems: Vec<String>,
}

/// Run `workload` for about `seconds` of timed samples.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    size: Size,
    paths: &Paths,
) -> Result<Run, String> {
    let plan = workloads::plan(workload, size);
    let mut probes = ProbeLog::new();
    probes.take();
    for _ in 0..plan.warmup {
        workloads::sample(workload, seed, size, paths)?;
        probes.take();
    }

    let mut samples = Vec::new();
    let mut spans = Vec::new();
    let started = Instant::now();
    loop {
        let begun = probes.now();
        samples.push(workloads::sample(workload, seed, size, paths)?);
        spans.push((begun, probes.now()));
        probes.take();
        let n = samples.len();
        if n >= plan.max || (n >= plan.min && started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    for (sample, (begun, ended)) in samples.iter_mut().zip(spans) {
        sample.probe_ns = probes.around(begun, ended);
    }

    let child_peak = samples
        .iter()
        .filter_map(|s| s.child_peak_rss_mb)
        .reduce(f64::max);
    let peak_rss_mb = match child_peak {
        Some(mb) => mb,
        // This process also holds the memory probe's array.
        None => {
            host::peak_rss_mb(None).ok_or("cannot read VmHWM from /proc/self/status")?
                - probe::RESIDENT_MB
        }
    };

    Ok(Run {
        workload: workload.to_string(),
        seed,
        warmups: plan.warmup,
        problems: find_problems(&samples),
        samples,
        peak_rss_mb,
    })
}

/// Failed checks of every sample, plus the cross-sample ones: simulated
/// results repeat exactly, so every sample must carry the same
/// fingerprint, request count and simulated statistics.
pub fn find_problems(samples: &[Sample]) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &samples[0];
    for (i, s) in samples.iter().enumerate() {
        for p in &s.problems {
            problems.push(format!("sample {i}: {p}"));
        }
        if s.fingerprint != first.fingerprint {
            problems.push(format!(
                "sample {i}: fingerprint {} differs from sample 0's {}",
                fingerprint::hex(s.fingerprint),
                fingerprint::hex(first.fingerprint)
            ));
        }
        if s.requests != first.requests {
            problems.push(format!(
                "sample {i}: {} requests, sample 0 had {}",
                s.requests, first.requests
            ));
        }
        let same_sim = s.sim.len() == first.sim.len()
            && s.sim
                .iter()
                .zip(&first.sim)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
        if !same_sim {
            problems.push(format!(
                "sample {i}: simulated statistics differ from sample 0's"
            ));
        }
        if s.requests == 0 {
            problems.push(format!("sample {i}: no request completed"));
        }
    }
    problems
}

/// One reported metric: its unit, whether it is host time (noisy) or
/// simulated (exact), and its summary over the timed samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub simulated: bool,
    pub summary: Summary,
}

impl Run {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn attempted(&self) -> u64 {
        self.samples.iter().map(|s| s.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().map(|s| s.failed).sum()
    }

    pub fn fingerprint(&self) -> u64 {
        self.samples[0].fingerprint
    }

    pub fn series(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    /// The ten end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let host = |name, unit, values: Vec<f64>| Metric {
            name,
            unit,
            simulated: false,
            summary: Summary::of(&values),
        };
        let mut out = vec![
            host("wall_s", "s", self.series(Sample::wall_at_nominal)),
            host(
                "requests_per_wall_s",
                "req/s",
                self.series(|s| s.requests as f64 / s.wall_at_nominal()),
            ),
            host("setup_s", "s", self.series(Sample::setup_at_nominal)),
            host("peak_rss_mb", "MB", vec![self.peak_rss_mb]),
        ];
        for name in SIM_METRICS {
            let values = self.series(|s| {
                s.sim_value(name)
                    .expect("every workload states every simulated metric")
            });
            out.push(Metric {
                name,
                unit: "sim_ms",
                simulated: true,
                summary: Summary::of(&values),
            });
        }
        out
    }

    /// The detailed report of this run (what `bench/out/e2e-*.json`
    /// holds and the A/A check compares).
    pub fn to_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for m in self.metrics() {
            let mut j = m.summary.to_json();
            j.insert("unit", m.unit);
            j.insert("time", if m.simulated { "simulated" } else { "host" });
            metrics.insert(m.name, j);
        }
        let mut reported = JsonValue::object();
        for (name, value) in &self.samples[0].sim {
            if !SIM_METRICS.contains(name) {
                reported.insert(*name, *value);
            }
        }
        jsn!({
            "workload": self.workload.as_str(),
            "seed": self.seed,
            "honours_seed": workloads::honours_seed(&self.workload),
            "warmups": self.warmups as u64,
            "samples": self.samples.len() as u64,
            "correct": self.correct(),
            "problems": self.problems.clone(),
            "attempted": self.attempted(),
            "failed": self.failed(),
            "failed_share": self.failed() as f64 / self.attempted().max(1) as f64,
            "requests": self.samples[0].requests,
            "fingerprint": fingerprint::hex(self.fingerprint()),
            "metrics": metrics,
            "reported": reported,
            "series": jsn!({
                "wall_s": self.series(Sample::wall_at_nominal),
                "setup_s": self.series(Sample::setup_at_nominal),
                "raw_wall_s": self.series(|s| s.wall_s),
                "raw_setup_s": self.series(|s| s.setup_s),
                "mem_probe_ns": self.series(|s| s.probe_ns),
            }),
        })
    }

    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let mut metrics = JsonValue::object();
        for m in self.metrics() {
            metrics.insert(m.name, jsn!({ "value": m.summary.median, "unit": m.unit }));
        }
        contract_line(self.correct(), self.attempted(), self.failed(), metrics)
    }
}

pub fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: JsonValue) -> String {
    jsn!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": metrics,
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(fp: u64) -> Sample {
        Sample {
            wall_s: 1.0,
            requests: 10,
            attempted: 10,
            fingerprint: fp,
            sim: vec![("sim_service_ms", 2.0)],
            ..Sample::default()
        }
    }

    #[test]
    fn agreeing_samples_are_correct() {
        assert!(find_problems(&[sample(7), sample(7), sample(7)]).is_empty());
    }

    #[test]
    fn a_corrupted_fingerprint_is_a_problem() {
        let problems = find_problems(&[sample(7), sample(8)]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("fingerprint"), "{problems:?}");
    }

    #[test]
    fn one_ulp_of_simulated_drift_is_a_problem() {
        let mut drifted = sample(7);
        drifted.sim[0].1 = f64::from_bits(2.0f64.to_bits() + 1);
        let problems = find_problems(&[sample(7), drifted]);
        assert!(problems.iter().any(|p| p.contains("simulated statistics")));
    }

    #[test]
    fn a_failed_check_in_any_sample_is_reported() {
        let mut bad = sample(7);
        bad.check(false, || "lost a block".to_string());
        let problems = find_problems(&[sample(7), bad]);
        assert_eq!(problems, vec!["sample 1: lost a block".to_string()]);
    }
}

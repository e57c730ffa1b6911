//! The six workloads. Each one drives the system from outside only —
//! the `experiments` CLI or public functions of the `abr-*` crates —
//! and hands back one [`Sample`]: host timings of a freshly built
//! stack, the exact simulated statistics, and the outcome of its
//! correctness checks.

pub mod array_redundant;
pub mod deep_queue;
pub mod paper;
pub mod serve_open;
pub mod suite_paper;

use crate::host::Paths;
use abr_obs::{with_registry, LogHistogram};
use abr_sim::SimRng;

/// Names in the order they are listed in `BENCHMARK.json` and run.
pub const NAMES: [&str; 6] = [
    "suite_paper",
    "paper_system",
    "paper_users",
    "array_redundant",
    "serve_open",
    "deep_queue",
];

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1993;

/// One full protocol run on a freshly built stack.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Host seconds spent building the stack before the measured
    /// section, as the clock read them.
    pub setup_s: f64,
    /// Host seconds of the measured section, as the clock read them.
    pub wall_s: f64,
    /// Host memory latency around the sample, ns per dependent load
    /// (see `probe`); 0 until the run has filled it in.
    pub probe_ns: f64,
    /// Simulated device requests completed in the measured section.
    pub requests: u64,
    /// Operations offered to the system (the base of `failed`).
    pub attempted: u64,
    /// Operations that failed, were refused, stranded or lost.
    pub failed: u64,
    /// Hash over every numeric simulated result (see `fingerprint`).
    pub fingerprint: u64,
    /// Exact simulated statistics by metric name.
    pub sim: Vec<(&'static str, f64)>,
    /// Correctness checks that did not hold; empty when all did.
    pub problems: Vec<String>,
    /// Per-layer metrics the sample can state itself: exact counts and
    /// ratios of one layer (and, for the CLI, its own record's times).
    pub layer: Vec<(&'static str, f64)>,
    /// Peak RSS of a child process the sample ran in, if it ran in one.
    pub child_peak_rss_mb: Option<f64>,
}

impl Sample {
    /// Record a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The measured section's wall time at the nominal memory latency.
    pub fn wall_at_nominal(&self) -> f64 {
        at_nominal(self.wall_s, self.probe_ns)
    }

    /// The set-up time at the nominal memory latency.
    pub fn setup_at_nominal(&self) -> f64 {
        at_nominal(self.setup_s, self.probe_ns)
    }

    pub fn sim_value(&self, name: &str) -> Option<f64> {
        self.sim.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

fn at_nominal(seconds: f64, probe_ns: f64) -> f64 {
    if probe_ns > 0.0 {
        seconds * crate::probe::NOMINAL_NS / probe_ns
    } else {
        seconds
    }
}

/// How big a sample is: the full protocol, or the few-second miniature
/// the schema self-test (`--quick`) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Quick,
}

/// Sampling plan of a workload: warm-up samples that are thrown away
/// (the first samples of a process run 25–30 % slow), the fewest timed
/// samples a report may rest on, and the most it takes.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub warmup: usize,
    pub min: usize,
    pub max: usize,
}

pub fn plan(workload: &str, size: Size) -> Plan {
    let (warmup, min, max) = match (size, workload) {
        (Size::Quick, _) => (0, 1, 1),
        (_, "suite_paper" | "array_redundant") => (1, 4, 8),
        (_, "paper_system") => (2, 6, 40),
        _ => (1, 6, 24),
    };
    Plan { warmup, min, max }
}

/// Which workloads make their inputs from `--seed`.
///
/// `serve_open` and `deep_queue` generate their own traffic and do: a
/// seed moves their request count by under 0.2 % and no simulated
/// statistic by more than 3 %. The four workloads whose traffic comes
/// from `abr-workload` run on the seeds their configurations fix,
/// whatever `--seed` says. That generator draws a heavy-tailed file
/// population and drifts it every night, and today a large file landing
/// on a top popularity rank multiplies a day's traffic (ROADMAP item 2):
/// over 40 seeds `paper_system` issued 92 k to 1.8 M requests and
/// `paper_users` 233 k to 679 k, and even among seeds screened to within
/// 7 % of one request count the mean queue wait still spread by 24 %.
/// No bound of at most 25 % can be held across such inputs, so they are
/// held fixed until drift preserves load.
pub fn honours_seed(workload: &str) -> bool {
    matches!(workload, "serve_open" | "deep_queue")
}

/// The configuration seed of a seed-honouring workload: derived from
/// the run's seed and the workload's name, so that workloads do not
/// share random streams.
pub fn derive_seed(seed: u64, workload: &str) -> u64 {
    SimRng::new(seed).substream(workload).seed()
}

/// Run one sample of `workload`.
pub fn sample(workload: &str, seed: u64, size: Size, paths: &Paths) -> Result<Sample, String> {
    reset_thread_state();
    let s = derive_seed(seed, workload);
    match workload {
        "suite_paper" => suite_paper::sample(size, paths),
        "paper_system" => Ok(paper::sample(&paper::SYSTEM, size)),
        "paper_users" => Ok(paper::sample(&paper::USERS, size)),
        "array_redundant" => Ok(array_redundant::sample(size, None)),
        "serve_open" => Ok(serve_open::sample(s, size, None)),
        "deep_queue" => Ok(deep_queue::sample(s, size, None)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// State hygiene between samples: the registry, the day series and the
/// run meter are thread-local and grow with every day simulated, so
/// without this, time and memory would drift with the sample index.
pub fn reset_thread_state() {
    abr_obs::registry_clear();
    abr_obs::day_series_reset();
    abr_core::run_meter_reset();
}

/// The device-level registry figures at one instant. Two marks bracket
/// the measured section; set-up and warm-up traffic fall outside.
#[derive(Debug, Clone)]
pub struct DeviceMark {
    service: LogHistogram,
    queueing: LogHistogram,
    submitted: u64,
    completed: u64,
    failed: u64,
    lost: u64,
}

impl DeviceMark {
    pub fn take() -> DeviceMark {
        with_registry(|r| {
            let service = r.hires("driver.service_us");
            let queueing = r.hires("driver.queueing_us");
            let submitted = r.counter("driver.submitted");
            let completed = r.counter("driver.completed");
            let failed = r.counter("driver.failed");
            let lost = r.counter("driver.faults.lost_blocks");
            DeviceMark {
                service: r.hires_value(service).clone(),
                queueing: r.hires_value(queueing).clone(),
                submitted: r.counter_value(submitted),
                completed: r.counter_value(completed),
                failed: r.counter_value(failed),
                lost: r.counter_value(lost),
            }
        })
    }

    /// What the device did between `self` and now.
    pub fn since(&self) -> DeviceDelta {
        let now = DeviceMark::take();
        DeviceDelta {
            service: now.service.diff(&self.service),
            queueing: now.queueing.diff(&self.queueing),
            submitted: now.submitted - self.submitted,
            completed: now.completed - self.completed,
            failed: now.failed - self.failed,
            lost: now.lost - self.lost,
        }
    }
}

/// Device activity of a measured section.
#[derive(Debug, Clone)]
pub struct DeviceDelta {
    pub service: LogHistogram,
    pub queueing: LogHistogram,
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub lost: u64,
}

impl DeviceDelta {
    /// The checks every in-process workload makes on its devices, and
    /// the simulated device statistics every workload reports.
    pub fn apply(&self, s: &mut Sample) {
        s.requests = self.completed;
        s.check(self.submitted == self.completed + self.failed, || {
            format!(
                "driver.submitted {} != completed {} + failed {}",
                self.submitted, self.completed, self.failed
            )
        });
        s.check(self.lost == 0, || format!("{} lost blocks", self.lost));
        s.check(self.service.count() == self.completed + self.failed, || {
            format!(
                "driver.service_us has {} observations for {} requests",
                self.service.count(),
                self.completed + self.failed
            )
        });
        s.sim.push(("sim_service_ms", mean_ms(&self.service)));
        s.sim.push(("sim_wait_ms", mean_ms(&self.queueing)));
        s.sim
            .push(("sim_p50_service_ms", quantile_ms(&self.service, 0.50)));
        s.sim
            .push(("sim_p99_service_ms", quantile_ms(&self.service, 0.99)));
        s.sim
            .push(("sim_p50_wait_ms", quantile_ms(&self.queueing, 0.50)));
        s.sim
            .push(("sim_p99_wait_ms", quantile_ms(&self.queueing, 0.99)));
    }
}

/// Mean of a microsecond histogram, in milliseconds (exact: the
/// histogram keeps the exact sum and count beside its buckets).
pub fn mean_ms(h: &LogHistogram) -> f64 {
    if h.count() == 0 {
        0.0
    } else {
        h.sum() as f64 / h.count() as f64 / 1_000.0
    }
}

/// Quantile of a microsecond histogram, in milliseconds (upper edge of
/// the bucket holding the rank; buckets are ≤ 3.1 % wide).
pub fn quantile_ms(h: &LogHistogram, q: f64) -> f64 {
    h.quantile(q) as f64 / 1_000.0
}

/// A registry histogram by name (empty if nothing registered it).
pub fn registry_hires(name: &str) -> LogHistogram {
    with_registry(|r| {
        let id = r.hires(name);
        r.hires_value(id).clone()
    })
}

/// A registry counter by name (0 if nothing registered it).
pub fn registry_counter(name: &str) -> u64 {
    with_registry(|r| {
        let id = r.counter(name);
        r.counter_value(id)
    })
}

/// `(1 − on ÷ off) × 100`: the paper's headline reduction.
pub fn cut_pct(off: f64, on: f64) -> f64 {
    (1.0 - on / off) * 100.0
}

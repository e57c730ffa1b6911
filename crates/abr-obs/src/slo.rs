//! Declarative service-level objectives over registry metrics.
//!
//! An SLO is a one-line tail-latency objective evaluated once per
//! simulated day against that day's metric deltas (see
//! [`crate::series`]):
//!
//! ```text
//! p99(driver.service_us) < 150ms
//! ```
//!
//! Grammar: `<quantile> '(' <metric> ')' '<' <number><unit>` with
//! `quantile ∈ {p50, p90, p99, p999}`, `metric` a registry histogram
//! name, and `unit ∈ {us, ms, s}`.
//! Whitespace around tokens is ignored. Metrics are always in
//! microseconds, so thresholds normalize to µs at parse time.
//!
//! The objective set lives in the thread's observability context beside
//! the registry: the bench engine installs it per run ([`slo_install`])
//! and the day recorder evaluates it at each boundary. Every evaluation
//! appends per-objective verdicts to the day point; failures also bump
//! the `slo.violations` registry counter so end-of-run snapshots carry
//! a cumulative violation count.

use crate::with_obs;
use abr_sim::jsn;
use abr_sim::json::JsonValue;

/// The quantiles an SLO may target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloQuantile {
    /// Median.
    P50,
    /// 90th percentile.
    P90,
    /// 99th percentile.
    P99,
    /// 99.9th percentile.
    P999,
}

impl SloQuantile {
    /// The quantile as a fraction in `[0, 1]`.
    pub fn as_f64(self) -> f64 {
        match self {
            SloQuantile::P50 => 0.50,
            SloQuantile::P90 => 0.90,
            SloQuantile::P99 => 0.99,
            SloQuantile::P999 => 0.999,
        }
    }

    fn parse(s: &str) -> Option<SloQuantile> {
        match s {
            "p50" => Some(SloQuantile::P50),
            "p90" => Some(SloQuantile::P90),
            "p99" => Some(SloQuantile::P99),
            "p999" => Some(SloQuantile::P999),
            _ => None,
        }
    }
}

/// One parsed objective: `quantile(metric) < threshold_us`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slo {
    /// The objective as written (trimmed) — the stable key used in
    /// verdicts and reports.
    pub text: String,
    /// Registry histogram the objective targets.
    pub metric: String,
    /// Which tail quantile to evaluate.
    pub quantile: SloQuantile,
    /// Upper bound in microseconds (exclusive: `value < threshold`).
    pub threshold_us: u64,
}

impl Slo {
    /// Parse an objective from the grammar in the module docs.
    pub fn parse(input: &str) -> Result<Slo, String> {
        let text = input.trim().to_string();
        let err = |what: &str| format!("bad SLO `{text}`: {what}");
        let open = text.find('(').ok_or_else(|| err("missing `(`"))?;
        let close = text.find(')').ok_or_else(|| err("missing `)`"))?;
        if close < open {
            return Err(err("`)` before `(`"));
        }
        let quantile = SloQuantile::parse(text[..open].trim())
            .ok_or_else(|| err("quantile must be p50, p90, p99, or p999"))?;
        let metric = text[open + 1..close].trim().to_string();
        if metric.is_empty() {
            return Err(err("empty metric name"));
        }
        let rest = text[close + 1..].trim_start();
        let rest = rest
            .strip_prefix('<')
            .ok_or_else(|| err("expected `<` after `)`"))?
            .trim();
        let digits_end = rest
            .find(|c: char| !c.is_ascii_digit())
            .ok_or_else(|| err("threshold missing a unit (us, ms, or s)"))?;
        if digits_end == 0 {
            return Err(err("threshold missing a number"));
        }
        let number: u64 = rest[..digits_end]
            .parse()
            .map_err(|_| err("threshold number does not fit in u64"))?;
        let scale = match rest[digits_end..].trim() {
            "us" => 1,
            "ms" => 1_000,
            "s" => 1_000_000,
            other => return Err(err(&format!("unknown unit `{other}`"))),
        };
        let threshold_us = number
            .checked_mul(scale)
            .ok_or_else(|| err("threshold overflows u64 microseconds"))?;
        Ok(Slo {
            text,
            metric,
            quantile,
            threshold_us,
        })
    }
}

/// Install the objective set for this thread's current run, replacing
/// any previous set.
pub fn slo_install(slos: Vec<Slo>) {
    with_obs(|o| o.slos = slos);
}

/// Remove all installed objectives (run boundaries).
pub fn slo_clear() {
    slo_install(Vec::new());
}

/// Evaluate `slos` against one day's metric deltas. `lookup(metric, q)`
/// returns the day's quantile value for a metric, or `None` if the
/// metric saw no observations that day (the objective then passes
/// vacuously with a `null` value). Returns `None` when `slos` is empty;
/// otherwise the per-objective verdict array for the day point and the
/// number of objectives that failed.
pub(crate) fn evaluate_day(
    slos: &[Slo],
    lookup: impl Fn(&str, f64) -> Option<u64>,
) -> Option<(JsonValue, u64)> {
    if slos.is_empty() {
        return None;
    }
    let mut verdicts = JsonValue::array();
    let mut violations = 0u64;
    for slo in slos {
        let value = lookup(&slo.metric, slo.quantile.as_f64());
        let ok = value.is_none_or(|v| v < slo.threshold_us);
        if !ok {
            violations += 1;
        }
        verdicts.push(jsn!({
            "slo": slo.text.clone(),
            "value": value,
            "ok": ok,
        }));
    }
    Some((verdicts, violations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_canonical_form() {
        let slo = Slo::parse("p99(driver.service_us) < 150ms").unwrap();
        assert_eq!(slo.quantile, SloQuantile::P99);
        assert_eq!(slo.metric, "driver.service_us");
        assert_eq!(slo.threshold_us, 150_000);
        assert_eq!(slo.text, "p99(driver.service_us) < 150ms");
    }

    #[test]
    fn parses_all_units_and_quantiles() {
        assert_eq!(Slo::parse("p50(m) < 5us").unwrap().threshold_us, 5);
        assert_eq!(Slo::parse("p90(m) < 2ms").unwrap().threshold_us, 2_000);
        assert_eq!(Slo::parse("p999(m) < 1s").unwrap().threshold_us, 1_000_000);
        assert_eq!(Slo::parse("  p999( a.b ) <  3 ms ").unwrap().metric, "a.b");
    }

    #[test]
    fn rejects_malformed_objectives() {
        for bad in [
            "p98(m) < 1ms",
            "p99 m < 1ms",
            "p99() < 1ms",
            "p99(m) > 1ms",
            "p99(m) < ms",
            "p99(m) < 10",
            "p99(m) < 10h",
        ] {
            assert!(Slo::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn evaluates_pass_fail_and_vacuous() {
        let slos = [
            Slo::parse("p99(fast_us) < 100ms").unwrap(),
            Slo::parse("p99(slow_us) < 1ms").unwrap(),
            Slo::parse("p99(absent_us) < 1ms").unwrap(),
        ];
        let lookup = |metric: &str, _q: f64| -> Option<u64> {
            match metric {
                "fast_us" => Some(5_000),
                "slow_us" => Some(60_000),
                _ => None,
            }
        };
        let (verdicts, violations) = evaluate_day(&slos, lookup).unwrap();
        assert_eq!(verdicts[0]["ok"], true);
        assert_eq!(verdicts[0]["value"], 5_000);
        assert_eq!(verdicts[1]["ok"], false);
        assert_eq!(verdicts[2]["ok"], true);
        assert!(verdicts[2]["value"].is_null());
        assert_eq!(violations, 1);
        assert!(evaluate_day(&[], lookup).is_none());
    }
}

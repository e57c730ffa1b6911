//! `BENCHMARK.json` as the benchmark itself reads it: the bounds the
//! A/A check applies, and the names the schema self-test holds every
//! emitted metric against.

use abr_sim::JsonValue;
use std::path::Path;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the median by which it may worsen (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Manifest::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let j = JsonValue::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let list = |key: &str| {
            j.get(key)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no {key} list"))
        };
        let text_of = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: entry without {key}: {v}"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: text_of(m, "better")?,
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: j
                .get("run_seconds")
                .and_then(JsonValue::as_u64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// Everything in the file that breaks the naming limits.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let names = self
            .workloads
            .iter()
            .chain(self.end_to_end.iter().map(|m| &m.name))
            .chain(self.per_layer.iter().map(|m| &m.name));
        for name in names {
            if !valid_name(name) {
                out.push(format!("{name:?} is not a valid name"));
            }
            if !seen.insert(name.clone()) {
                out.push(format!("{name:?} is used twice"));
            }
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            if !valid_unit(&m.unit) {
                out.push(format!("{}: {:?} is not a valid unit", m.name, m.unit));
            }
            if m.better != "lower" && m.better != "higher" {
                out.push(format!("{}: better is {:?}", m.name, m.better));
            }
        }
        for m in &self.end_to_end {
            if !m.bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
                out.push(format!("{}: bound {:?} outside (0, 0.25]", m.name, m.bound));
            }
        }
        if !self
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s")
        {
            out.push("no setup_s in seconds".to_string());
        }
        out
    }
}

/// Starts with a letter or digit; at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// At most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Hold what a run emitted against what the manifest declares: every
/// declared name emitted, every emitted name declared, units equal.
pub fn mismatches(declared: &[Declared], emitted: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for d in declared {
        match emitted.iter().find(|(n, _)| *n == d.name) {
            None => out.push(format!("{} is declared but was not emitted", d.name)),
            Some((_, unit)) if *unit != d.unit => out.push(format!(
                "{} is declared in {} but was emitted in {unit}",
                d.name, d.unit
            )),
            Some(_) => {}
        }
    }
    for (name, _) in emitted {
        if !declared.iter().any(|d| d.name == *name) {
            out.push(format!("{name} was emitted but is not declared"));
        }
        if !valid_name(name) {
            out.push(format!("{name:?} is not a valid name"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units() {
        for ok in ["wall_s", "abr-driver.dispatch_ns.d4k", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "req/s", "%", "ns/req", "sim_ms", "1/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "µs", &"x".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    /// The committed manifest against the tables the binary emits from:
    /// a name added on one side only fails here, before any run.
    #[test]
    fn committed_manifest_matches_the_emitters() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let m = Manifest::load(Path::new(path)).expect("BENCHMARK.json parses");
        assert_eq!(m.violations(), Vec::<String>::new());
        assert_eq!(m.workloads, crate::workloads::NAMES);
        assert!((1..=60).contains(&m.run_seconds));

        let layers: Vec<(String, String)> = crate::layers::METRICS
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(mismatches(&m.per_layer, &layers), Vec::<String>::new());
        assert!(m.per_layer.len() <= 128);

        let host = [
            ("wall_s", "s"),
            ("requests_per_wall_s", "req/s"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
        ];
        let end_to_end: Vec<(String, String)> = host
            .iter()
            .copied()
            .chain(crate::run::SIM_METRICS.iter().map(|&n| (n, "sim_ms")))
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(mismatches(&m.end_to_end, &end_to_end), Vec::<String>::new());
    }

    #[test]
    fn mismatches_are_found_both_ways() {
        let declared = vec![
            Declared {
                name: "a".into(),
                unit: "s".into(),
                better: "lower".into(),
                bound: Some(0.1),
            },
            Declared {
                name: "b".into(),
                unit: "ms".into(),
                better: "lower".into(),
                bound: Some(0.1),
            },
        ];
        let emitted = vec![
            ("a".to_string(), "ms".to_string()),
            ("c".to_string(), "s".to_string()),
        ];
        let m = mismatches(&declared, &emitted);
        assert_eq!(m.len(), 3, "{m:?}");
        assert!(mismatches(&declared[..1], &[("a".to_string(), "s".to_string())]).is_empty());
    }
}

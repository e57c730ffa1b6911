//! Experiment report collection and formatting.

use abr_sim::JsonValue;
use std::fmt::Write as _;
use std::path::Path;

/// The output of one experiment regenerator: human-readable text plus a
/// JSON value for machine use.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (`table2`, `fig8`, ...).
    pub id: &'static str,
    /// One-line title.
    pub title: &'static str,
    /// The formatted report body.
    pub text: String,
    /// Machine-readable results.
    pub json: JsonValue,
    /// Plot-ready CSV companions: `(file name, contents)` pairs saved
    /// next to the report (for the paper's figures).
    pub csv: Vec<(String, String)>,
}

impl Report {
    /// Start a report.
    pub fn new(id: &'static str, title: &'static str) -> Self {
        let mut text = String::new();
        let _ = writeln!(text, "== {id}: {title} ==");
        Report {
            id,
            title,
            text,
            json: JsonValue::Null,
            csv: Vec::new(),
        }
    }

    /// Attach a CSV companion file.
    pub fn attach_csv(&mut self, name: impl Into<String>, contents: String) {
        self.csv.push((name.into(), contents));
    }

    /// Append a line to the body.
    pub fn line(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    /// Append a blank line.
    pub fn blank(&mut self) {
        self.text.push('\n');
    }

    /// The files [`Report::save`] writes, as `(file name, contents)`:
    /// `<id>.txt`, `<id>.json` and the CSV companions.
    pub fn files(&self) -> Vec<(String, String)> {
        let mut files = vec![
            (format!("{}.txt", self.id), self.text.clone()),
            (format!("{}.json", self.id), self.json.pretty()),
        ];
        files.extend(self.csv.iter().cloned());
        files
    }

    /// Write [`Report::files`] under `dir`.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (name, contents) in self.files() {
            std::fs::write(dir.join(name), contents)?;
        }
        Ok(())
    }
}

/// Format a `min avg max` triple of daily means (the shape of the
/// paper's summary rows), via [`abr_sim::Summary`].
pub fn triple(values: &[f64]) -> String {
    let s: abr_sim::Summary = values.iter().copied().collect();
    s.triple()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_lines() {
        let mut r = Report::new("t", "title");
        r.line("a");
        r.blank();
        r.line("b");
        assert_eq!(r.text, "== t: title ==\na\n\nb\n");
    }

    #[test]
    fn triple_formats_min_avg_max() {
        assert_eq!(triple(&[3.0, 1.0, 2.0]), "  1.00   2.00   3.00");
    }

    #[test]
    fn save_writes_files() {
        let dir = std::env::temp_dir().join("abr-report-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut r = Report::new("x", "y");
        r.json = abr_sim::jsn!({"k": 1});
        r.attach_csv("x_points.csv", "a,b\n1,2\n".to_string());
        r.save(&dir).unwrap();
        assert!(dir.join("x.txt").exists());
        assert_eq!(
            std::fs::read_to_string(dir.join("x_points.csv")).unwrap(),
            "a,b\n1,2\n"
        );
        let j = JsonValue::parse(&std::fs::read_to_string(dir.join("x.json")).unwrap()).unwrap();
        assert_eq!(j["k"], 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

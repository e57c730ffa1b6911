//! Workload profiles: tunable parameters and the paper-calibrated presets.

use abr_sim::arrival::OnOffParams;
use abr_sim::{jsn, FromJson, JsonError, JsonValue, SimDuration};

/// Relative frequencies of the file-level operation kinds. Normalized at
/// draw time; entries may be zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Read a whole file (executable load, library page-in).
    pub read_whole: f64,
    /// Read a sub-range of a file.
    pub read_range: f64,
    /// Overwrite a sub-range of an existing file.
    pub write_range: f64,
    /// Create a new file.
    pub create: f64,
    /// Append to an existing file (file extension).
    pub append: f64,
    /// Delete a file.
    pub delete: f64,
}

impl OpMix {
    /// Sum of the weights.
    pub fn total(&self) -> f64 {
        self.read_whole
            + self.read_range
            + self.write_range
            + self.create
            + self.append
            + self.delete
    }

    /// Persisted form (inside a saved profile).
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "append": self.append,
            "create": self.create,
            "delete": self.delete,
            "read_range": self.read_range,
            "read_whole": self.read_whole,
            "write_range": self.write_range,
        })
    }
}

impl FromJson for OpMix {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(OpMix {
            read_whole: v.at("read_whole")?,
            read_range: v.at("read_range")?,
            write_range: v.at("write_range")?,
            create: v.at("create")?,
            append: v.at("append")?,
            delete: v.at("delete")?,
        })
    }
}

/// Parameters of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Profile name for reports.
    pub name: String,
    /// Number of directories the files spread over.
    pub n_dirs: usize,
    /// Number of files created at setup.
    pub n_files: usize,
    /// Smallest file, bytes.
    pub file_min: u64,
    /// Largest file, bytes.
    pub file_max: u64,
    /// File-size tail exponent (bigger = more small files).
    pub size_alpha: f64,
    /// File-popularity Zipf exponent. Popularity is by *rank*: the rank-0
    /// file is hottest.
    pub popularity_s: f64,
    /// Operation mix.
    pub mix: OpMix,
    /// Bursty arrival process parameters.
    pub arrivals: OnOffParams,
    /// Fraction of the popularity ranks reshuffled between days (0 =
    /// perfectly stable day to day, 1 = a fresh workload every day).
    pub daily_drift: f64,
    /// Mean blocks in a partial (range) read/write, geometric.
    pub mean_range_blocks: f64,
    /// Working day length (the paper measured 7am–10pm).
    pub day_length: SimDuration,
    /// File-system aging: churn rounds run at setup. Each round deletes
    /// `aging_churn` of the files and recreates as many, fragmenting the
    /// free lists the way months of production use would. A fresh FFS
    /// lays files out contiguously; the paper measured a *production*
    /// file system, where file blocks are scattered — which is exactly
    /// what makes its off-day seek distances long.
    pub aging_rounds: u32,
    /// Fraction of files churned per aging round.
    pub aging_churn: f64,
    /// Whether user *data* writes go through to disk at operation time
    /// (NFS2 synchronous writes) rather than riding the periodic sync.
    pub nfs_write_through: bool,
    /// Effective server buffer-cache share for this file system, in
    /// blocks. The paper's server ran several file systems, local users
    /// and 14 NFS clients against one dynamically-sized buffer cache, so
    /// the effective share per file system was far below physical memory.
    /// Calibrated per profile to reproduce the measured disk-level
    /// request distributions.
    pub cache_blocks: usize,
}

impl WorkloadProfile {
    /// The *system* file system: shared executables and libraries,
    /// mounted read-only by clients. Reads dominate; the only writes the
    /// disk sees are i-node timestamp updates flushed by the periodic
    /// update daemon. Popularity is pinned so the disk-level request
    /// distribution matches §5.4 (top-100 blocks absorb ~90 % of
    /// requests over < 2000 active blocks).
    pub fn system_fs() -> Self {
        WorkloadProfile {
            name: "system".to_string(),
            // A real /usr tree has hundreds of directories; FFS spreads
            // them round-robin over every cylinder group, which is what
            // scatters hot files across the whole disk surface.
            n_dirs: 160,
            n_files: 850,
            file_min: 2 * 1024,
            file_max: 1 << 20, // 1 MB (large binaries)
            size_alpha: 1.3,
            popularity_s: 2.4,
            // Executables and libraries are demand-paged: most server
            // reads are single-block page-ins at essentially random file
            // offsets, interleaved across binaries — not sequential
            // whole-file reads. Whole-file reads (cp, grep over sources)
            // are the minority.
            mix: OpMix {
                read_whole: 0.30,
                read_range: 0.70,
                write_range: 0.0,
                create: 0.0,
                append: 0.0,
                delete: 0.0,
            },
            arrivals: OnOffParams {
                mean_on: SimDuration::from_secs(2),
                mean_off: SimDuration::from_secs(26),
                on_rate_per_sec: 25.0,
            },
            daily_drift: 0.04,
            mean_range_blocks: 2.0,
            day_length: SimDuration::from_hours(15),
            aging_rounds: 4,
            aging_churn: 0.4,
            nfs_write_through: true,
            cache_blocks: 48,
        }
    }

    /// The *users* file system: 10–20 home directories, read/write.
    /// Less skew, writes from new-file creation and file extension, more
    /// day-to-day variation (§5.3).
    pub fn users_fs() -> Self {
        WorkloadProfile {
            name: "users".to_string(),
            n_dirs: 80, // 20 home directories plus user subdirectories
            n_files: 1000,
            file_min: 512,
            file_max: 1 << 20,
            size_alpha: 1.2,
            popularity_s: 1.7,
            mix: OpMix {
                read_whole: 0.32,
                read_range: 0.40,
                write_range: 0.12,
                create: 0.04,
                append: 0.08,
                delete: 0.04,
            },
            arrivals: OnOffParams {
                mean_on: SimDuration::from_millis(800),
                mean_off: SimDuration::from_secs(12),
                on_rate_per_sec: 6.0,
            },
            daily_drift: 0.12,
            mean_range_blocks: 2.0,
            day_length: SimDuration::from_hours(15),
            aging_rounds: 3,
            aging_churn: 0.4,
            nfs_write_through: true,
            cache_blocks: 150,
        }
    }

    /// A scaled-down profile for fast unit and integration tests.
    pub fn tiny_test() -> Self {
        WorkloadProfile {
            name: "tiny".to_string(),
            n_dirs: 60,
            n_files: 150,
            file_min: 1024,
            file_max: 64 * 1024,
            size_alpha: 1.1,
            popularity_s: 1.8,
            mix: OpMix {
                read_whole: 0.5,
                read_range: 0.3,
                write_range: 0.1,
                create: 0.03,
                append: 0.04,
                delete: 0.03,
            },
            arrivals: OnOffParams {
                mean_on: SimDuration::from_millis(300),
                mean_off: SimDuration::from_secs(2),
                on_rate_per_sec: 40.0,
            },
            daily_drift: 0.1,
            mean_range_blocks: 2.0,
            day_length: SimDuration::from_mins(10),
            aging_rounds: 2,
            aging_churn: 0.35,
            nfs_write_through: false,
            cache_blocks: 192,
        }
    }

    /// Whether the profile ever mutates files (needs a read-write mount).
    pub fn is_mutating(&self) -> bool {
        self.mix.write_range > 0.0
            || self.mix.create > 0.0
            || self.mix.append > 0.0
            || self.mix.delete > 0.0
    }

    /// Persisted form (inside saved workload state).
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "aging_churn": self.aging_churn,
            "aging_rounds": self.aging_rounds,
            "arrivals": self.arrivals.to_json(),
            "cache_blocks": self.cache_blocks,
            "daily_drift": self.daily_drift,
            "day_length": self.day_length.to_json(),
            "file_max": self.file_max,
            "file_min": self.file_min,
            "mean_range_blocks": self.mean_range_blocks,
            "mix": self.mix.to_json(),
            "n_dirs": self.n_dirs,
            "n_files": self.n_files,
            "name": self.name.as_str(),
            "nfs_write_through": self.nfs_write_through,
            "popularity_s": self.popularity_s,
            "size_alpha": self.size_alpha,
        })
    }
}

impl FromJson for WorkloadProfile {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(WorkloadProfile {
            name: v.at("name")?,
            n_dirs: v.at("n_dirs")?,
            n_files: v.at("n_files")?,
            file_min: v.at("file_min")?,
            file_max: v.at("file_max")?,
            size_alpha: v.at("size_alpha")?,
            popularity_s: v.at("popularity_s")?,
            mix: v.at("mix")?,
            arrivals: v.at("arrivals")?,
            daily_drift: v.at("daily_drift")?,
            mean_range_blocks: v.at("mean_range_blocks")?,
            day_length: v.at("day_length")?,
            aging_rounds: v.at("aging_rounds")?,
            aging_churn: v.at("aging_churn")?,
            nfs_write_through: v.at("nfs_write_through")?,
            cache_blocks: v.at("cache_blocks")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_sane() {
        for p in [
            WorkloadProfile::system_fs(),
            WorkloadProfile::users_fs(),
            WorkloadProfile::tiny_test(),
        ] {
            assert!(p.n_files > 0);
            assert!(p.file_min < p.file_max);
            assert!(p.mix.total() > 0.99);
            assert!(p.daily_drift >= 0.0 && p.daily_drift <= 1.0);
            assert!(p.arrivals.mean_rate_per_sec() > 0.0);
        }
    }

    #[test]
    fn system_fs_is_read_only_workload() {
        let p = WorkloadProfile::system_fs();
        assert!(!p.is_mutating());
        assert_eq!(p.mix.create, 0.0);
    }

    #[test]
    fn users_fs_mutates() {
        assert!(WorkloadProfile::users_fs().is_mutating());
    }

    #[test]
    fn users_fs_drifts_more_than_system_fs() {
        assert!(WorkloadProfile::users_fs().daily_drift > WorkloadProfile::system_fs().daily_drift);
    }

    #[test]
    fn users_fs_less_skewed() {
        assert!(
            WorkloadProfile::users_fs().popularity_s < WorkloadProfile::system_fs().popularity_s
        );
    }

    #[test]
    fn serde_roundtrip() {
        let p = WorkloadProfile::system_fs();
        let json = JsonValue::parse(&p.to_json().to_string()).unwrap();
        let back = WorkloadProfile::from_json(&json).unwrap();
        assert_eq!(back.name, "system");
        assert_eq!(back.n_files, p.n_files);
        assert_eq!(back.to_json(), p.to_json());
    }
}

//! The stateful workload generator.
//!
//! [`WorkloadState`] owns the file population, the popularity assignment
//! (rank → file), and the bursty arrival process. The experiment harness
//! drives it: [`WorkloadState::next_op`] draws the next timed operation,
//! [`WorkloadState::apply_into`] executes it against the file system and
//! appends the disk requests it triggers to the caller's buffer. Between
//! measured days, [`WorkloadState::advance_day`] applies popularity drift.

use crate::profile::{OpMix, WorkloadProfile};
use abr_driver::request::IoRequest;
use abr_fs::fs::{DirHandle, FileHandle, FileSystem, FsError};
use abr_sim::arrival::OnOff;
use abr_sim::dist::{FileSizes, Weighted, Zipf};
use abr_sim::hash::FastMap;
use abr_sim::{jsn, FromJson, JsonError, JsonValue, SimDuration, SimRng, SimTime};

/// A file-level operation, resolved to concrete handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read an entire file.
    ReadWhole(FileHandle),
    /// Read `n_blocks` starting at block `start`.
    ReadRange {
        /// Target file.
        file: FileHandle,
        /// First block index.
        start: usize,
        /// Blocks to read.
        n_blocks: usize,
    },
    /// Overwrite `n_blocks` starting at block `start`.
    WriteRange {
        /// Target file.
        file: FileHandle,
        /// First block index.
        start: usize,
        /// Blocks to write.
        n_blocks: usize,
    },
    /// Create a file of `size` bytes in `dir`.
    Create {
        /// Parent directory.
        dir: DirHandle,
        /// Size in bytes.
        size: u64,
    },
    /// Append `bytes` to a file.
    Append {
        /// Target file.
        file: FileHandle,
        /// Bytes to append.
        bytes: u64,
    },
    /// Delete a file from its directory.
    Delete {
        /// Parent directory.
        dir: DirHandle,
        /// File to delete.
        file: FileHandle,
    },
}

/// The generator's per-file record.
#[derive(Debug, Clone, Copy)]
struct FileRec {
    handle: FileHandle,
    dir: DirHandle,
}

impl FileRec {
    fn to_json(self) -> JsonValue {
        jsn!({ "dir": self.dir.to_json(), "handle": self.handle.to_json() })
    }
}

impl FromJson for FileRec {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(FileRec {
            handle: v.at("handle")?,
            dir: v.at("dir")?,
        })
    }
}

/// No rank, in [`Ranks`]' lists.
const NIL: u32 = u32::MAX;

/// The popularity assignment, rank → file record, with its inverse: the
/// ranks pointing at each record, as a doubly linked list threaded
/// through the ranks, so a deletion finds its record's ranks without
/// scanning them all.
#[derive(Debug)]
struct Ranks {
    /// `to_file[rank]` = index into `files`. Rank 0 is hottest.
    to_file: Vec<usize>,
    /// Per record, the first rank pointing at it.
    head: Vec<u32>,
    /// Per rank, the next and the previous rank on its record's list.
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl Ranks {
    fn new(to_file: Vec<usize>, n_files: usize) -> Self {
        let n = to_file.len();
        let mut ranks = Ranks {
            to_file,
            head: vec![NIL; n_files],
            next: vec![NIL; n],
            prev: vec![NIL; n],
        };
        for rank in 0..n {
            ranks.link(rank, ranks.to_file[rank]);
        }
        ranks
    }

    fn len(&self) -> usize {
        self.to_file.len()
    }

    /// Make room for one more record, pointed at by no rank yet.
    fn push_file(&mut self) {
        self.head.push(NIL);
    }

    fn link(&mut self, rank: usize, file: usize) {
        let first = self.head[file];
        (self.next[rank], self.prev[rank]) = (first, NIL);
        if first != NIL {
            self.prev[first as usize] = rank as u32;
        }
        self.head[file] = rank as u32;
    }

    fn unlink(&mut self, rank: usize) {
        let (next, prev) = (self.next[rank], self.prev[rank]);
        if next != NIL {
            self.prev[next as usize] = prev;
        }
        match prev {
            NIL => self.head[self.to_file[rank]] = next,
            _ => self.next[prev as usize] = next,
        }
    }

    /// Point `rank` at `file`.
    fn set(&mut self, rank: usize, file: usize) {
        self.unlink(rank);
        self.to_file[rank] = file;
        self.link(rank, file);
    }

    fn swap(&mut self, a: usize, b: usize) {
        let (fa, fb) = (self.to_file[a], self.to_file[b]);
        self.set(a, fb);
        self.set(b, fa);
    }

    /// Point every rank that points at `from` at `to` instead.
    fn move_all(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        while self.head[from] != NIL {
            self.set(self.head[from] as usize, to);
        }
    }
}

/// Stateful workload generator. See the module docs.
pub struct WorkloadState {
    profile: WorkloadProfile,
    files: Vec<FileRec>,
    /// The index into `files` of the first record with each handle.
    first_record: FastMap<u64, u32>,
    ranks: Ranks,
    popularity: Zipf,
    sizes: FileSizes,
    mix: Weighted,
    arrivals: OnOff,
    dirs: Vec<DirHandle>,
    rng: SimRng,
    day: u64,
    /// Per-file-size Zipf over block indices, indexed by the file's block
    /// count (lazily built): page-in offsets within a file are skewed and
    /// *stable* across days (a binary faults the same startup/hot-path
    /// pages every day).
    offset_zipf: Vec<Option<Zipf>>,
    /// Success probability of the geometric block count of range ops.
    range_p: f64,
}

impl std::fmt::Debug for WorkloadState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadState")
            .field("profile", &self.profile.name)
            .field("files", &self.files.len())
            .field("day", &self.day)
            .finish_non_exhaustive()
    }
}

/// The sampler over the six operation kinds, in the order
/// `WorkloadState::draw_op` numbers them.
fn op_mix(m: &OpMix) -> Weighted {
    Weighted::new(&[
        m.read_whole,
        m.read_range,
        m.write_range,
        m.create,
        m.append,
        m.delete,
    ])
}

impl WorkloadState {
    /// Build the file population on `fs` (directories spread across
    /// cylinder groups, then files), flush the resulting writes, and
    /// return the generator. The flush requests from setup are returned
    /// so the caller can push them through the driver before measurement
    /// begins (or discard them; setup is not part of any measured day).
    pub fn setup(
        profile: WorkloadProfile,
        fs: &mut FileSystem,
        rng: &mut SimRng,
    ) -> Result<(Self, Vec<IoRequest>), FsError> {
        let mut setup_reqs = Vec::new();
        let mut dirs = Vec::with_capacity(profile.n_dirs);
        for _ in 0..profile.n_dirs {
            dirs.push(fs.mkdir_into(&mut setup_reqs)?);
        }
        let sizes = FileSizes::new(profile.file_min, profile.file_max, profile.size_alpha);
        let mut size_rng = rng.substream("file-sizes");
        let mut dir_rng = rng.substream("file-dirs");
        let mut files = Vec::with_capacity(profile.n_files);
        for _ in 0..profile.n_files {
            let dir = dirs[dir_rng.index(dirs.len())];
            let size = sizes.sample(&mut size_rng);
            let handle = fs.create_into(dir, size, &mut setup_reqs)?;
            files.push(FileRec { handle, dir });
        }
        fs.sync_into(&mut setup_reqs);

        // Age the file system: rounds of delete/recreate churn fragment
        // the free lists so block placement looks like months of
        // production use rather than a fresh `newfs` (see
        // `WorkloadProfile::aging_rounds`).
        let mut age_rng = rng.substream("aging");
        for _ in 0..profile.aging_rounds {
            let n_churn = ((files.len() as f64) * profile.aging_churn) as usize;
            for _ in 0..n_churn {
                let victim = age_rng.index(files.len());
                let rec = files.swap_remove(victim);
                fs.delete_into(rec.dir, rec.handle, &mut setup_reqs)?;
            }
            for _ in 0..n_churn {
                let dir = dirs[age_rng.index(dirs.len())];
                let size = sizes.sample(&mut age_rng);
                let handle = fs.create_into(dir, size, &mut setup_reqs)?;
                files.push(FileRec { handle, dir });
            }
            fs.sync_into(&mut setup_reqs);
        }

        // Popularity: hot ranks go preferentially to *small* files (the
        // most-executed binaries — shells, core utilities, libc stubs —
        // are small), with random jitter so the correlation is loose.
        // Creation order already scattered files over the disk, so hot
        // files end up far apart — the paper's starting condition.
        let mut perm_rng = rng.substream("popularity-perm");
        let mut keyed: Vec<(u64, usize)> = files
            .iter()
            .enumerate()
            .map(|(i, rec)| {
                let sz = fs.file_size(rec.handle).unwrap_or(0);
                // Log-uniform jitter over [1, 2048): a loose correlation —
                // small files are usually hotter, but plenty of mid-size
                // binaries rank high too, so the hot set spans hundreds
                // of blocks rather than collapsing into the cache.
                let jitter = (perm_rng.f64() * 2048f64.ln()).exp();
                ((sz as f64 * jitter) as u64, i)
            })
            .collect();
        keyed.sort_unstable();
        let ranks = Ranks::new(keyed.into_iter().map(|(_, i)| i).collect(), files.len());

        let popularity = Zipf::new(files.len(), profile.popularity_s);
        let mix = op_mix(&profile.mix);
        let mut arrival_rng = rng.substream("arrivals");
        let arrivals = OnOff::new(profile.arrivals, &mut arrival_rng);
        Ok((
            WorkloadState {
                range_p: range_p(&profile),
                profile,
                first_record: first_records(&files),
                files,
                ranks,
                popularity,
                sizes,
                mix,
                arrivals,
                dirs,
                rng: arrival_rng,
                day: 0,
                offset_zipf: Vec::new(),
            },
            setup_reqs,
        ))
    }

    /// The profile this generator runs.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Measure days of `day_length` from now on (a resumed session may
    /// run a shorter or longer day than the one it was saved after).
    pub fn set_day_length(&mut self, day_length: SimDuration) {
        self.profile.day_length = day_length;
    }

    /// Current day index (starts at 0, advanced by
    /// [`WorkloadState::advance_day`]).
    pub fn day(&self) -> u64 {
        self.day
    }

    /// Number of live files.
    pub fn n_files(&self) -> usize {
        self.files.len()
    }

    /// Draw the next operation strictly after `now`.
    pub fn next_op(&mut self, now: SimTime, fs: &FileSystem) -> (SimTime, Op) {
        let at = self.arrivals.next_after(now, &mut self.rng);
        let op = self.draw_op(fs);
        (at, op)
    }

    /// Pick a file by popularity rank.
    fn pick_file(&mut self) -> usize {
        let rank = self.popularity.sample(&mut self.rng);
        self.ranks.to_file[rank.min(self.ranks.len() - 1)]
    }

    /// Pick a file from the cold tail (victims for deletion).
    fn pick_cold_file(&mut self) -> usize {
        let n = self.ranks.len();
        let tail_start = n - (n / 4).max(1);
        let rank = tail_start + self.rng.index(n - tail_start);
        self.ranks.to_file[rank]
    }

    /// A stable, skewed block offset within a file: rank drawn from a
    /// Zipf over the file's blocks, mapped through a per-file permutation
    /// so each file has its own fixed set of hot pages.
    fn hot_offset(&mut self, file: FileHandle, total: usize) -> usize {
        if self.offset_zipf.len() <= total {
            self.offset_zipf.resize_with(total + 1, || None);
        }
        let z = self.offset_zipf[total].get_or_insert_with(|| Zipf::new(total, 1.6));
        let rank = z.sample(&mut self.rng) as u64;
        // Stateless mix of (ino, rank): stable across days.
        abr_sim::rng::splitmix64(file.0 ^ rank.rotate_left(32)) as usize % total
    }

    fn draw_op(&mut self, fs: &FileSystem) -> Op {
        // Geometric number of blocks for range ops.
        fn geometric(rng: &mut SimRng, p: f64) -> usize {
            let mut n = 1;
            while !rng.chance(p) && n < 64 {
                n += 1;
            }
            n
        }

        match self.mix.sample(&mut self.rng) {
            0 => {
                let i = self.pick_file();
                Op::ReadWhole(self.files[i].handle)
            }
            1 => {
                let i = self.pick_file();
                let f = self.files[i].handle;
                let total = fs.n_file_blocks(f).unwrap_or(0);
                if total == 0 {
                    return Op::ReadWhole(f);
                }
                let n = geometric(&mut self.rng, self.range_p).min(total);
                let start = self.hot_offset(f, total).min(total - n);
                Op::ReadRange {
                    file: f,
                    start,
                    n_blocks: n,
                }
            }
            2 => {
                let i = self.pick_file();
                let f = self.files[i].handle;
                let total = fs.n_file_blocks(f).unwrap_or(0);
                if total == 0 {
                    return Op::ReadWhole(f);
                }
                let n = geometric(&mut self.rng, self.range_p).min(total);
                let start = self.rng.index(total - n + 1);
                Op::WriteRange {
                    file: f,
                    start,
                    n_blocks: n,
                }
            }
            3 => {
                let dir = self.dirs[self.rng.index(self.dirs.len())];
                // New files are small (mail, objects, dotfiles): cap the
                // size so one create cannot dump a huge burst into the
                // next sync — consistent with the paper's low users-fs
                // waiting times.
                let size = self.sizes.sample(&mut self.rng).min(32 * 1024);
                Op::Create { dir, size }
            }
            4 => {
                let i = self.pick_file();
                let f = self.files[i].handle;
                // Cap growth: endlessly appending to hot files would make
                // the working set balloon across days and make on/off days
                // incomparable. Past the cap the op degrades to an
                // overwrite of the file's tail (log rotation, in effect).
                let total = fs.n_file_blocks(f).unwrap_or(0);
                if total >= 32 {
                    return Op::WriteRange {
                        file: f,
                        start: total - 1,
                        n_blocks: 1,
                    };
                }
                let bytes = (self.rng.below(4) + 1) * 1024;
                Op::Append { file: f, bytes }
            }
            _ => {
                let idx = self.pick_cold_file();
                let rec = self.files[idx];
                Op::Delete {
                    dir: rec.dir,
                    file: rec.handle,
                }
            }
        }
    }

    /// Execute an operation against the file system, appending the disk
    /// requests it triggers to `out`. Failed mutations on full/read-only
    /// file systems degrade to no-ops (a failed file-system operation
    /// emits nothing), so a generator never wedges an experiment.
    pub fn apply_into(&mut self, op: Op, fs: &mut FileSystem, out: &mut Vec<IoRequest>) {
        let emitted = out.len();
        let done = match op {
            Op::ReadWhole(f) => fs.read_file(f, out),
            Op::ReadRange {
                file,
                start,
                n_blocks,
            } => fs.read_into(file, start, n_blocks, out),
            Op::WriteRange {
                file,
                start,
                n_blocks,
            } => fs.write(file, start, n_blocks, out),
            Op::Create { dir, size } => fs.create_into(dir, size, out).map(|handle| {
                // The new file takes over a random cold rank so the
                // popularity law is preserved. The rank's previous
                // holder may become unreachable by future operations —
                // modelling a file the users stop touching; it stays
                // on disk (and in `files`) like any forgotten file.
                let idx = self.files.len();
                self.files.push(FileRec { handle, dir });
                note_record(&mut self.first_record, handle, idx);
                self.ranks.push_file();
                let n = self.ranks.len();
                let tail = n - (n / 4).max(1);
                let victim_rank = tail + self.rng.index(n - tail);
                self.ranks.set(victim_rank, idx);
            }),
            Op::Append { file, bytes } => fs.append(file, bytes, out),
            Op::Delete { dir, file } => fs.delete_into(dir, file, out).map(|()| {
                // Remap any ranks pointing at the deleted file to a
                // random survivor. The dead FileRec stays in `files`
                // (indices are stable identifiers); operations that still
                // land on it degrade to NoSuchFile no-ops by design. The
                // record remapped is the first with the handle, dead or
                // not.
                if let Some(pos) = self.first_record_of(file) {
                    let replacement = self.rng.index(self.files.len());
                    self.ranks.move_all(pos, replacement);
                }
            }),
        };
        debug_assert!(
            done.is_ok() || out.len() == emitted,
            "{op:?} failed mid-way"
        );
    }

    /// [`Self::apply_into`] a fresh buffer.
    pub fn apply(&mut self, op: Op, fs: &mut FileSystem) -> Vec<IoRequest> {
        let mut out = Vec::new();
        self.apply_into(op, fs, &mut out);
        out
    }

    /// Advance to the next day: reshuffle `daily_drift` of the popularity
    /// ranks ("day-to-day access patterns that change only slowly" for the
    /// system fs; faster for users — §5.3).
    pub fn advance_day(&mut self) {
        self.day += 1;
        let n = self.ranks.len();
        let swaps = ((n as f64) * self.profile.daily_drift / 2.0).round() as usize;
        let mut r = self.rng.substream_idx("drift", self.day);
        for _ in 0..swaps {
            let a = r.index(n);
            let b = r.index(n);
            self.ranks.swap(a, b);
        }
    }

    /// Snapshot the generator's persistent state (population, popularity
    /// assignment, day counter) for suspend/resume alongside a saved file
    /// system. The arrival process and RNG restart from a seed derived
    /// from `seed` and the day counter, so a resumed run is deterministic
    /// (though not bit-identical to an uninterrupted one).
    pub fn save_state(&self) -> JsonValue {
        jsn!({
            "day": self.day,
            "dirs": JsonValue::Array(self.dirs.iter().map(|d| d.to_json()).collect()),
            "files": JsonValue::Array(self.files.iter().map(|f| f.to_json()).collect()),
            "profile": self.profile.to_json(),
            "rank_to_file": &self.ranks.to_file,
        })
    }

    /// Restore a generator from [`WorkloadState::save_state`] output.
    pub fn load_state(state: &JsonValue, seed: u64) -> Result<Self, JsonError> {
        let profile: WorkloadProfile = state.at("profile")?;
        let files: Vec<FileRec> = state.at("files")?;
        let day: u64 = state.at("day")?;
        let rank_to_file: Vec<usize> = state.at("rank_to_file")?;
        let mix = op_mix(&profile.mix);
        let sizes = FileSizes::new(profile.file_min, profile.file_max, profile.size_alpha);
        let root = SimRng::new(seed);
        let mut arrival_rng = root.substream_idx("resume", day);
        let arrivals = OnOff::new(profile.arrivals, &mut arrival_rng);
        Ok(WorkloadState {
            popularity: Zipf::new(rank_to_file.len(), profile.popularity_s),
            range_p: range_p(&profile),
            profile,
            first_record: first_records(&files),
            ranks: Ranks::new(rank_to_file, files.len()),
            files,
            sizes,
            mix,
            arrivals,
            dirs: state.at("dirs")?,
            rng: arrival_rng,
            day,
            offset_zipf: Vec::new(),
        })
    }

    /// The hottest `k` files (by current rank), for assertions and
    /// debugging.
    pub fn hottest_files(&self, k: usize) -> Vec<FileHandle> {
        self.ranks
            .to_file
            .iter()
            .take(k)
            .map(|&i| self.files[i].handle)
            .collect()
    }

    /// The index of the first record of `file`, as
    /// `files.iter().position(..)` would find it.
    fn first_record_of(&self, file: FileHandle) -> Option<usize> {
        self.first_record.get(&file.0).map(|&i| i as usize)
    }
}

/// The success probability of the geometric block count of range ops.
fn range_p(profile: &WorkloadProfile) -> f64 {
    1.0 / profile.mean_range_blocks.max(1.0)
}

/// Note that `files[idx]` has `handle`, unless an earlier record has.
fn note_record(first_record: &mut FastMap<u64, u32>, handle: FileHandle, idx: usize) {
    first_record.entry(handle.0).or_insert(idx as u32);
}

/// [`note_record`] over every record of `files`, in order.
fn first_records(files: &[FileRec]) -> FastMap<u64, u32> {
    let mut first_record = FastMap::default();
    for (idx, rec) in files.iter().enumerate() {
        note_record(&mut first_record, rec.handle, idx);
    }
    first_record
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_fs::fs::{FsConfig, MountMode};

    fn test_fs() -> FileSystem {
        let cfg = FsConfig {
            cache_blocks: 128,
            mode: MountMode::ReadWrite,
            ..FsConfig::default()
        };
        FileSystem::newfs(cfg, 240_000, 340)
    }

    fn setup() -> (WorkloadState, FileSystem) {
        let mut fs = test_fs();
        let mut rng = SimRng::new(42);
        let (ws, _setup_reqs) =
            WorkloadState::setup(WorkloadProfile::tiny_test(), &mut fs, &mut rng).unwrap();
        (ws, fs)
    }

    #[test]
    fn setup_creates_population() {
        let (ws, fs) = setup();
        assert_eq!(ws.n_files(), 150);
        assert_eq!(fs.n_dirs(), 60);
        assert_eq!(fs.dirty_blocks(), 0, "setup must leave the cache clean");
    }

    #[test]
    fn ops_advance_time_monotonically() {
        let (mut ws, fs) = setup();
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let (at, _op) = ws.next_op(now, &fs);
            assert!(at > now);
            now = at;
        }
    }

    #[test]
    fn apply_never_panics_over_long_runs() {
        let (mut ws, mut fs) = setup();
        let mut now = SimTime::ZERO;
        let mut total_reqs = 0usize;
        for _ in 0..3000 {
            let (at, op) = ws.next_op(now, &fs);
            now = at;
            total_reqs += ws.apply(op, &mut fs).len();
        }
        assert!(total_reqs > 0, "workload should generate disk traffic");
    }

    #[test]
    fn popularity_is_skewed() {
        // Count per-file read ops; the hottest file must dominate.
        let (mut ws, mut fs) = setup();
        let mut counts = std::collections::HashMap::new();
        let mut now = SimTime::ZERO;
        for _ in 0..5000 {
            let (at, op) = ws.next_op(now, &fs);
            now = at;
            if let Op::ReadWhole(f) | Op::ReadRange { file: f, .. } = op {
                *counts.entry(f).or_insert(0u32) += 1;
            }
            ws.apply(op, &mut fs);
        }
        let mut sorted: Vec<u32> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let total: u32 = sorted.iter().sum();
        let top5: u32 = sorted.iter().take(5).sum();
        assert!(
            f64::from(top5) / f64::from(total) > 0.3,
            "top-5 files carry only {}/{}",
            top5,
            total
        );
    }

    #[test]
    fn drift_changes_hot_set_gradually() {
        let (mut ws, _fs) = setup();
        let before = ws.hottest_files(10);
        ws.advance_day();
        let after = ws.hottest_files(10);
        let kept = before.iter().filter(|f| after.contains(f)).count();
        assert!(kept >= 7, "drift too violent: kept {kept}/10");
        assert_eq!(ws.day(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut fs = test_fs();
            let mut rng = SimRng::new(7);
            let (mut ws, _) =
                WorkloadState::setup(WorkloadProfile::tiny_test(), &mut fs, &mut rng).unwrap();
            let mut now = SimTime::ZERO;
            let mut log = Vec::new();
            for _ in 0..100 {
                let (at, op) = ws.next_op(now, &fs);
                now = at;
                log.push((at.as_micros(), format!("{op:?}")));
                ws.apply(op, &mut fs);
            }
            log
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn aging_fragments_file_layout() {
        // Without aging a fresh FFS lays file blocks out at the exact
        // interleave gap; after churn rounds, allocations land in holes
        // and gaps widen — the production-disk layout the paper measured.
        let gap_stats = |rounds: u32| {
            let mut fs = test_fs();
            let mut rng = SimRng::new(11);
            let mut profile = WorkloadProfile::tiny_test();
            profile.aging_rounds = rounds;
            profile.n_files = 120;
            let (ws, _) = WorkloadState::setup(profile, &mut fs, &mut rng).unwrap();
            let mut irregular = 0u32;
            let mut total = 0u32;
            for f in ws.hottest_files(120) {
                if let Ok(blocks) = fs.file_blocks(f) {
                    for w in blocks.windows(2) {
                        total += 1;
                        if w[1] as i64 - w[0] as i64 != 2 {
                            irregular += 1;
                        }
                    }
                }
            }
            if total == 0 {
                0.0
            } else {
                f64::from(irregular) / f64::from(total)
            }
        };
        let fresh = gap_stats(0);
        let aged = gap_stats(4);
        // At tiny-profile scale the disk is mostly empty, so churn holes
        // are often refilled at the interleave spot; the fragmentation is
        // directional rather than dramatic (full-scale profiles churn
        // 4 rounds at 40% over a much fuller disk).
        assert!(
            aged > fresh + 0.03,
            "aging should fragment layout: fresh {fresh:.2}, aged {aged:.2}"
        );
    }

    #[test]
    fn hot_offsets_are_stable_across_days() {
        // The same file's page-in offsets concentrate on the same blocks
        // day after day (demand-paged binaries fault the same pages).
        let (mut ws, fs) = setup();
        let f = ws.hottest_files(1)[0];
        let total = fs.n_file_blocks(f).unwrap().max(4);
        // The rank->offset mapping is deterministic per file; empirical
        // sampling only needs enough draws that the top page is
        // unambiguous.
        let sample = |ws: &mut WorkloadState| {
            let mut counts = std::collections::HashMap::new();
            for _ in 0..3000 {
                let off = ws.hot_offset(f, total);
                *counts.entry(off).or_insert(0u32) += 1;
            }
            let mut v: Vec<(usize, u32)> = counts.into_iter().collect();
            v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
            v[0].0
        };
        let before = sample(&mut ws);
        ws.advance_day();
        let after = sample(&mut ws);
        assert_eq!(before, after, "the hottest page must be stable across days");
    }

    #[test]
    fn suspend_resume_preserves_population_and_popularity() {
        let (mut ws, mut fs) = setup();
        // Run a little so state diverges from setup.
        let mut now = SimTime::ZERO;
        for _ in 0..300 {
            let (at, op) = ws.next_op(now, &fs);
            now = at;
            ws.apply(op, &mut fs);
        }
        ws.advance_day();
        let hot_before = ws.hottest_files(10);

        let state = ws.save_state();
        let mut back = WorkloadState::load_state(&state, 123).unwrap();
        assert_eq!(back.n_files(), ws.n_files());
        assert_eq!(back.day(), ws.day());
        assert_eq!(back.hottest_files(10), hot_before);
        // The resumed generator keeps producing valid operations.
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let (at, op) = back.next_op(now, &fs);
            now = at;
            back.apply(op, &mut fs);
        }
    }

    #[test]
    fn delete_remaps_ranks_like_a_scan() {
        // The inverse rank index against the scan it replaced: the first
        // record with the handle (dead or not) loses its ranks to one
        // random record, drawn once.
        let mut fs = test_fs();
        let mut profile = WorkloadProfile::tiny_test();
        profile.mix = WorkloadProfile::users_fs().mix;
        let (mut ws, _) = WorkloadState::setup(profile, &mut fs, &mut SimRng::new(5)).unwrap();
        let mut expected = ws.ranks.to_file.clone();
        let (mut now, mut remaps) = (SimTime::ZERO, 0);
        for i in 0..20_000 {
            if i % 2_000 == 1_999 {
                ws.advance_day();
                let n = expected.len();
                let swaps = ((n as f64) * ws.profile.daily_drift / 2.0).round() as usize;
                let mut r = ws.rng.substream_idx("drift", ws.day);
                for _ in 0..swaps {
                    expected.swap(r.index(n), r.index(n));
                }
            }
            let (at, op) = ws.next_op(now, &fs);
            now = at;
            let mut rng = ws.rng.clone();
            let n_files = ws.files.len();
            let existed = matches!(op, Op::Delete { file, .. } if fs.file_size(file).is_ok());
            ws.apply(op, &mut fs);
            match op {
                Op::Create { .. } if ws.files.len() > n_files => {
                    let n = expected.len();
                    let tail = n - (n / 4).max(1);
                    expected[tail + rng.index(n - tail)] = n_files;
                }
                Op::Delete { file, .. } if existed && fs.file_size(file).is_err() => {
                    if let Some(pos) = ws.files.iter().position(|r| r.handle == file) {
                        let replacement = rng.index(ws.files.len());
                        for r in &mut expected {
                            if *r == pos {
                                *r = replacement;
                            }
                        }
                        remaps += 1;
                    }
                }
                _ => {}
            }
            assert_eq!(ws.ranks.to_file, expected, "op {i}: {op:?}");
        }
        assert!(remaps > 100, "only {remaps} deletions remapped ranks");
    }

    #[test]
    fn create_and_delete_keep_state_consistent() {
        let (mut ws, mut fs) = setup();
        let mut now = SimTime::ZERO;
        for _ in 0..2000 {
            let (at, op) = ws.next_op(now, &fs);
            now = at;
            ws.apply(op, &mut fs);
            // Every rank must point at a valid file index.
            for &i in &ws.ranks.to_file {
                assert!(i < ws.files.len());
            }
        }
    }
}

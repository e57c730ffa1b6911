//! The file-system workload, made on a thread of its own.
//!
//! The file-system source is open loop (see [`crate::stream`]): its whole
//! stream is a function of the [`crate::StreamKey`]. So [`FsTraffic`]
//! makes it with no device at all — [`FsTraffic::produce_day`] runs the
//! source's event logic over its own clock and packs the day into
//! [`DayStream`] pieces — and [`FsProducer`] runs it on a thread while
//! the device, through a [`TraceTraffic`](crate::TraceTraffic), replays
//! the pieces as they arrive. A live run is a replay of its stream as it
//! is made, so its wall time is the slower of the two halves, not their
//! sum.
//!
//! * **Threads.** The producer thread owns the [`FileSystem`] and the
//!   [`WorkloadState`] and nothing else. The device, the daemons and
//!   every metric, span and wall-clock scope stay on the caller's
//!   thread, whose thread-local registries see what a single-threaded
//!   run would.
//! * **Lookahead.** The producer makes at most one day past the day in
//!   use, and none past the days the caller said it will take
//!   ([`DaySource::plan`]), so a run that knows its length leaves the
//!   file system and the generator in exactly the state of the days it
//!   took. It hands a day out in pieces of [`PIECE_REQUESTS`] and runs
//!   at most [`PIECES_AHEAD`] pieces ahead: the pipeline holds a few
//!   pieces, not whole days.
//! * **Lifecycle.** Dropping the [`FsProducer`] stops the thread between
//!   two operations and joins it. A panic on the thread is raised again
//!   on the caller, with its message, when the caller next waits for it.

use crate::experiment::{ExperimentConfig, OVERNIGHT};
use crate::stream::{DaySource, DayStream, Requests};
use abr_driver::request::IoRequest;
use abr_fs::{FileSystem, FsConfig, MountMode};
use abr_sim::{EventQueue, SimDuration, SimRng, SimTime};
use abr_workload::WorkloadState;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Requests in a piece of a day, but for the day's last.
pub const PIECE_REQUESTS: usize = 1024;

/// Pieces the producer may have made that the device has not begun.
pub const PIECES_AHEAD: usize = 4;

/// The file-system traffic source: a synthetic workload issuing
/// file-level operations against an FFS-lite file system, whose block
/// requests reach the device paced like NFS RPC trains, plus the update
/// daemon's periodic sync. It makes one day at a time on its own clock:
/// each day starts [`OVERNIGHT`] after the previous one ended.
pub struct FsTraffic {
    fs: FileSystem,
    workload: WorkloadState,
    sync_period: SimDuration,
    request_pacing: SimDuration,
    /// When the next day starts on the source's clock.
    next_start: SimTime,
    /// Days made; the workload drifts before each one after the first.
    made: u64,
    /// The requests of the operation or sync under way.
    reqs: Vec<IoRequest>,
}

impl FsTraffic {
    /// A source over an existing file system and the generator whose
    /// population lives on it — freshly set up or resumed from saved
    /// state — whose first day starts at `first_day`. A day's length is
    /// the generator profile's `day_length`.
    pub fn new(
        fs: FileSystem,
        workload: WorkloadState,
        sync_period: SimDuration,
        request_pacing: SimDuration,
        first_day: SimTime,
    ) -> Self {
        FsTraffic {
            fs,
            workload,
            sync_period,
            request_pacing,
            next_start: first_day,
            made: 0,
            reqs: Vec::new(),
        }
    }

    /// Make the file system on a volume of `vol_sectors` sectors in
    /// cylinders of `spc`, and build `config`'s workload population on
    /// it. Returns the source and the population's set-up writes, which
    /// must reach the device before the first day. The first day starts
    /// [`OVERNIGHT`] after time zero, as if the population had been
    /// built the evening before.
    pub(crate) fn set_up(
        vol_sectors: u64,
        spc: u64,
        config: &ExperimentConfig,
    ) -> (Self, Requests) {
        let fs_cfg = FsConfig {
            partition: 0,
            cache_blocks: config.cache_blocks,
            mode: MountMode::ReadWrite,
            write_through: config.profile.nfs_write_through,
            ..FsConfig::default()
        };
        let mut fs = FileSystem::newfs(fs_cfg, vol_sectors, spc);
        let mut rng = SimRng::new(config.seed);
        #[expect(
            clippy::expect_used,
            reason = "a population that does not fit is a configuration error"
        )]
        let (workload, setup) = WorkloadState::setup(config.profile.clone(), &mut fs, &mut rng)
            .expect("workload population fits the file system");

        // The paper's *system* file system is served read-only.
        if !config.profile.is_mutating() {
            fs.remount(MountMode::ReadOnly);
        }
        let mut requests = Requests::default();
        for r in &setup {
            requests.push(0, r, false);
        }
        requests.shrink_to_fit();
        let first_day = SimTime::ZERO + OVERNIGHT;
        let traffic = FsTraffic::new(
            fs,
            workload,
            config.sync_period,
            config.request_pacing,
            first_day,
        );
        (traffic, requests)
    }

    /// The file system's rotational interleave, in blocks.
    pub fn interleave(&self) -> u64 {
        self.fs.layout().interleave
    }

    /// Give back the file system and the generator, to persist them.
    pub fn into_parts(self) -> (FileSystem, WorkloadState) {
        (self.fs, self.workload)
    }

    /// Make the next day: drift the workload (every day but the first),
    /// then issue operations until the day's end, letting request trains
    /// already under way finish past it — the day stops once the next
    /// event is past its end and no paced request waits — and end with
    /// the update daemon's flush. Ties go to a paced request, then the
    /// next operation, then the periodic sync.
    ///
    /// The day is packed into `day`'s buffers. Whenever they hold
    /// [`PIECE_REQUESTS`] at a step boundary, `cut` hands them out as a
    /// piece (see [`DayStream::cut`]); the last piece, with the flush, is
    /// returned. `None` if `cancel` was set or `cut` failed before the
    /// day was complete.
    pub fn produce_day(
        &mut self,
        mut day: DayStream,
        cancel: &AtomicBool,
        cut: &mut impl FnMut(&mut DayStream) -> Option<()>,
    ) -> Option<DayStream> {
        if self.made > 0 {
            self.workload.advance_day();
        }
        self.made += 1;
        let start = self.next_start;
        let length = self.workload.profile().day_length;
        let day_end = start + length;
        day.clear();
        day.length = length;
        // Requests from file-level ops, paced out like NFS read/write RPC
        // trains (see `ExperimentConfig::request_pacing`). Trains from
        // different operations overlap, so a time-ordered queue merges
        // them.
        let mut pending = EventQueue::new();
        let mut next_op = Some(self.workload.next_op(start, &self.fs));
        let mut next_sync = start + self.sync_period;
        let mut last = start;
        loop {
            let op_at = next_op.map_or(SimTime::MAX, |(at, _)| at);
            let next_pending = pending.peek_time().unwrap_or(SimTime::MAX);
            let t = next_pending.min(op_at).min(next_sync);
            if t > day_end && pending.is_empty() {
                break;
            }
            if cancel.load(Ordering::Relaxed) {
                return None;
            }
            if day.timed.len() >= PIECE_REQUESTS {
                cut(&mut day)?;
            }
            last = t;
            let offset = (t - start).as_micros();
            if next_pending == t {
                if let Some((_, r)) = pending.pop() {
                    day.timed.push(offset, &r, false);
                }
            } else if let Some((_, op)) = next_op.filter(|&(at, _)| at == t) {
                self.workload.apply_into(op, &mut self.fs, &mut self.reqs);
                for (i, r) in self.reqs.drain(..).enumerate() {
                    pending.schedule(t + self.request_pacing * i as u64, r);
                }
                // New operations stop at the day boundary; only already-
                // issued request trains drain past it.
                let next = self.workload.next_op(t, &self.fs);
                next_op = (next.0 <= day_end).then_some(next);
            } else {
                // The periodic sync: one source event however many
                // buffers it flushes.
                self.fs.sync_into(&mut self.reqs);
                for (i, r) in self.reqs.drain(..).enumerate() {
                    day.timed.push(offset, &r, i > 0);
                }
                next_sync = t + self.sync_period;
            }
        }
        self.fs.sync_into(&mut self.reqs);
        for r in self.reqs.drain(..) {
            day.flush.push(0, &r, false);
        }
        self.next_start = last.max(day_end) + OVERNIGHT;
        Some(day)
    }
}

/// The name of every producer thread.
pub const THREAD_NAME: &str = "abr-producer";

/// An [`FsTraffic`] running on a thread of its own (see the module
/// docs): a [`DaySource`] whose days are made ahead of use.
pub struct FsProducer {
    /// `None` once the producer is being stopped.
    link: Option<Link>,
    cancel: Arc<AtomicBool>,
    thread: Option<JoinHandle<FsTraffic>>,
    /// Days begun.
    taken: usize,
    /// Whether the last piece taken left its day unfinished.
    mid_day: bool,
    /// Days the producer may make in all: at most one past those begun,
    /// and none past the plan.
    allowed: usize,
    /// Days, counted from the first, that a plan covers.
    planned: usize,
}

/// The channels to the producer thread.
struct Link {
    /// Made pieces; holds at most [`PIECES_AHEAD`].
    pieces: Receiver<DayStream>,
    /// Raises of the number of days the producer may make.
    horizon: Sender<usize>,
    /// Pieces the caller is done with, for the producer to refill: a few
    /// sets of buffers serve a whole run, and no piece's memory is freed
    /// and allocated again.
    spent: Sender<DayStream>,
}

impl FsProducer {
    /// Run `traffic` on a producer thread. It may make its first day at
    /// once. (Build `traffic` on the caller's thread: the file system
    /// and population then live in the caller's allocator arena, and
    /// only what the days add lives in the producer's. Built on the
    /// producer, they cost `paper_system` 1 MB more peak RSS.)
    pub fn spawn(mut traffic: FsTraffic) -> Self {
        let (pieces_tx, pieces) = mpsc::sync_channel(PIECES_AHEAD);
        let (horizon, horizon_rx) = mpsc::channel();
        let (spent, spent_rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&cancel);
        let thread = std::thread::Builder::new().name(THREAD_NAME.into());
        let thread = thread.spawn(move || {
            let spare = || spent_rx.try_recv().unwrap_or_default();
            let mut cut = |day: &mut DayStream| pieces_tx.send(day.cut(spare())).ok();
            let (mut made, mut allowed) = (0, 0);
            loop {
                while made == allowed {
                    match horizon_rx.recv() {
                        Ok(n) => allowed = n,
                        Err(_) => return traffic,
                    }
                }
                let Some(last) = traffic.produce_day(spare(), &stop, &mut cut) else {
                    return traffic;
                };
                made += 1;
                if pieces_tx.send(last).is_err() {
                    return traffic;
                }
            }
        });
        #[expect(
            clippy::expect_used,
            reason = "a host that cannot start one thread cannot run the simulation"
        )]
        let thread = thread.expect("a thread for the workload producer");
        let mut producer = FsProducer {
            link: Some(Link {
                pieces,
                horizon,
                spent,
            }),
            cancel,
            thread: Some(thread),
            taken: 0,
            mid_day: false,
            allowed: 0,
            planned: 0,
        };
        producer.allow(1);
        producer
    }

    /// Let the producer make `days` days in all.
    fn allow(&mut self, days: usize) {
        if days > self.allowed {
            self.allowed = days;
            if let Some(link) = &self.link {
                // A thread that has gone is reported by the next wait.
                let _ = link.horizon.send(days);
            }
        }
    }

    /// The producer thread ended without a piece for the caller: raise
    /// its panic here.
    fn raise(&mut self) -> ! {
        self.link = None;
        match self.thread.take().map(JoinHandle::join) {
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            _ => panic!("the workload producer stopped"),
        }
    }

    /// Stop the producer and give back the file system and the
    /// generator, in the state of the days taken.
    ///
    /// # Panics
    /// Panics if the producer was allowed to make a day that was not
    /// taken whole: plan the days before taking them.
    pub fn into_parts(mut self) -> (FileSystem, WorkloadState) {
        assert!(
            self.allowed == self.taken && !self.mid_day,
            "the producer may have made days nobody took"
        );
        self.link = None;
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(traffic)) => traffic.into_parts(),
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => panic!("the workload producer stopped"),
        }
    }
}

impl Iterator for FsProducer {
    type Item = Arc<DayStream>;

    fn next(&mut self) -> Option<Arc<DayStream>> {
        if !self.mid_day {
            // A day begins: the producer may go on to the next one, but
            // not past the plan.
            self.taken += 1;
            let ahead = self.taken + 1;
            if self.taken <= self.planned {
                self.allow(ahead.min(self.planned));
            } else {
                self.allow(ahead);
            }
        }
        match self.link.as_ref().map(|link| link.pieces.recv()) {
            Some(Ok(piece)) => {
                self.mid_day = piece.more;
                Some(Arc::new(piece))
            }
            _ => self.raise(),
        }
    }
}

impl DaySource for FsProducer {
    fn plan(&mut self, days: usize) {
        self.planned = self.taken + days;
        self.allow(self.planned.min(self.taken + 1));
    }

    fn recycle(&mut self, piece: Arc<DayStream>) {
        if let (Some(link), Ok(piece)) = (&self.link, Arc::try_unwrap(piece)) {
            // A thread that has gone is reported by the next wait.
            let _ = link.spent.send(piece);
        }
    }
}

impl Drop for FsProducer {
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Relaxed);
        self.link = None;
        if let Some(thread) = self.thread.take() {
            // Its panic, if any, belongs to a run that is being dropped.
            let _ = thread.join();
        }
    }
}

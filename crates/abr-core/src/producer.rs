//! Open-loop sources, made on a thread of their own.
//!
//! A source is open loop when what it offers never depends on what
//! consumes it (see [`crate::stream`]). Two are: the file-system
//! workload, whose whole stream is a function of the
//! [`crate::StreamKey`], and the serving harness's clients
//! (`abr_serve`), whose arrivals and token-bucket verdicts depend only
//! on their seeds and their own clocks. Such a source needs no device
//! to make its output, so a [`Producer`] runs it ([`OpenLoop`]) on a
//! thread while the caller's device consumes the pieces as they arrive:
//! a live run's wall time is the slower of the two halves, not their
//! sum. [`FsTraffic`] makes the file-system days, and [`FsProducer`]
//! hands them to a [`TraceTraffic`](crate::TraceTraffic) for replay.
//!
//! * **Threads.** The producer thread owns the source and nothing else.
//!   The device, the daemons and every metric, span and wall-clock scope
//!   stay on the caller's thread, whose thread-local registries see what
//!   a single-threaded run would.
//! * **Horizon.** The producer makes a day only once the caller has
//!   ordered it ([`Producer::order`]), with whatever the source needs to
//!   know about it. [`FsProducer`] orders at most one day past the day in
//!   use, and none past the days the caller said it will take
//!   ([`DaySource::plan`]), so a run that knows its length leaves the
//!   file system and the generator in exactly the state of the days it
//!   took. A day is handed out in pieces of about [`PIECE_REQUESTS`], at
//!   most [`PIECES_AHEAD`] pieces ahead: the pipeline holds a few pieces,
//!   not whole days, and the caller's spent pieces come back to be
//!   refilled.
//! * **Lifecycle.** Dropping the [`Producer`] stops the thread between
//!   two steps and joins it. A panic on the thread is raised again on
//!   the caller, with its message, when the caller next waits for it.

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

/// Pieces the producer may have made that the caller has not begun.
pub const PIECES_AHEAD: usize = 4;

/// What an [`OpenLoop`] source hands out: a day, or a piece of one.
pub trait Piece: Default + Send + 'static {
    /// More of the day follows this piece.
    fn more(&self) -> bool;

    /// Hand out what was made so far as a piece with [`Self::more`] set,
    /// and go on in `next`'s buffers.
    fn cut(&mut self, next: Self) -> Self;
}

/// A source that makes its output a day at a time with no device at all,
/// so that a [`Producer`] can run it on a thread of its own.
pub trait OpenLoop: Send + 'static {
    /// What the source hands out.
    type Piece: Piece;
    /// What the caller tells the source about a day before it is made.
    type Order: Send + 'static;

    /// Make the day `order` describes in `piece`'s buffers. Whenever it
    /// holds about [`PIECE_REQUESTS`] at a step boundary, `cut` hands it
    /// out (see [`Piece::cut`]); the last piece is returned. `None` if
    /// `cancel` was set or `cut` failed before the day was complete.
    fn produce(
        &mut self,
        order: Self::Order,
        piece: Self::Piece,
        cancel: &AtomicBool,
        cut: &mut impl FnMut(&mut Self::Piece) -> Option<()>,
    ) -> Option<Self::Piece>;
}

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
    /// piece (see [`Piece::cut`]); the last piece, with the flush, is
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

impl OpenLoop for FsTraffic {
    type Piece = DayStream;
    type Order = ();

    fn produce(
        &mut self,
        (): (),
        day: DayStream,
        cancel: &AtomicBool,
        cut: &mut impl FnMut(&mut DayStream) -> Option<()>,
    ) -> Option<DayStream> {
        self.produce_day(day, cancel, cut)
    }
}

/// The name of every producer thread.
pub const THREAD_NAME: &str = "abr-producer";

/// An [`OpenLoop`] source running on a thread of its own (see the module
/// docs), making the days it is ordered to, in order.
pub struct Producer<S: OpenLoop> {
    /// `None` once the producer is being stopped.
    link: Option<Link<S>>,
    cancel: Arc<AtomicBool>,
    thread: Option<JoinHandle<S>>,
    /// Days ordered.
    ordered: usize,
    /// Days begun.
    taken: usize,
    /// Whether the last piece taken left its day unfinished.
    mid_day: bool,
}

/// The channels to the producer thread.
struct Link<S: OpenLoop> {
    /// Made pieces; holds at most [`PIECES_AHEAD`].
    pieces: Receiver<S::Piece>,
    /// One order per day the producer may make.
    orders: Sender<S::Order>,
    /// Pieces the caller is done with, for the producer to refill: a few
    /// sets of buffers serve a whole run, and no piece's memory is freed
    /// and allocated again.
    spent: Sender<S::Piece>,
}

impl<S: OpenLoop> Producer<S> {
    /// Run `source` on a producer thread; it makes nothing until a day is
    /// ordered. (Build `source` on the caller's thread: what it holds then
    /// lives in the caller's allocator arena, and only what the days add
    /// lives in the producer's. A file system and population built on the
    /// producer cost `paper_system` 1 MB more peak RSS.)
    pub fn spawn(mut source: S) -> Self {
        let (pieces_tx, pieces) = mpsc::sync_channel(PIECES_AHEAD);
        let (orders, orders_rx) = mpsc::channel();
        let (spent, spent_rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&cancel);
        let thread = std::thread::Builder::new().name(THREAD_NAME.into());
        let thread = thread.spawn(move || {
            let spare = || spent_rx.try_recv().unwrap_or_default();
            let mut cut = |piece: &mut S::Piece| pieces_tx.send(piece.cut(spare())).ok();
            while let Ok(order) = orders_rx.recv() {
                let Some(last) = source.produce(order, spare(), &stop, &mut cut) else {
                    break;
                };
                if pieces_tx.send(last).is_err() {
                    break;
                }
            }
            source
        });
        #[expect(
            clippy::expect_used,
            reason = "a host that cannot start one thread cannot run the simulation"
        )]
        let thread = thread.expect("a thread for the producer");
        Producer {
            link: Some(Link {
                pieces,
                orders,
                spent,
            }),
            cancel,
            thread: Some(thread),
            ordered: 0,
            taken: 0,
            mid_day: false,
        }
    }

    /// Let the producer make one more day, as `order` describes it.
    pub fn order(&mut self, order: S::Order) {
        self.ordered += 1;
        if let Some(link) = &self.link {
            // A thread that has gone is reported by the next wait.
            let _ = link.orders.send(order);
        }
    }

    /// Days ordered so far.
    pub fn ordered(&self) -> usize {
        self.ordered
    }

    /// Days begun so far: the one in use counts.
    pub fn taken(&self) -> usize {
        self.taken
    }

    /// Whether the day in use has pieces still to come.
    pub fn mid_day(&self) -> bool {
        self.mid_day
    }

    /// Wait for the next piece.
    ///
    /// # Panics
    /// Raises the producer's panic, if it had one, and panics if no day
    /// it may make has a piece left.
    pub fn next_piece(&mut self) -> S::Piece {
        assert!(
            self.mid_day || self.taken < self.ordered,
            "a piece of a day nobody ordered"
        );
        match self.link.as_ref().map(|link| link.pieces.recv()) {
            Some(Ok(piece)) => {
                self.taken += usize::from(!self.mid_day);
                self.mid_day = piece.more();
                piece
            }
            _ => {
                // The thread ended without a piece for the caller: raise
                // its panic here.
                self.join();
                panic!("the producer stopped")
            }
        }
    }

    /// The caller is done with `piece`: the producer refills its buffers.
    pub fn recycle(&mut self, piece: S::Piece) {
        if let Some(link) = &self.link {
            // A thread that has gone is reported by the next wait.
            let _ = link.spent.send(piece);
        }
    }

    /// Stop the producer and give back the source, in the state of the
    /// days taken.
    ///
    /// # Panics
    /// Panics if the producer was ordered a day that was not taken
    /// whole, and raises the producer's panic, if it had one.
    pub fn into_source(mut self) -> S {
        assert!(
            self.ordered == self.taken && !self.mid_day,
            "the producer may have made days nobody took"
        );
        self.join()
    }

    /// Close the channels, wait for the thread to end and raise its
    /// panic here, if it had one.
    fn join(&mut self) -> S {
        self.link = None;
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(source)) => source,
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => panic!("the producer stopped"),
        }
    }
}

impl<S: OpenLoop> Drop for Producer<S> {
    fn drop(&mut self) {
        self.cancel.store(true, Ordering::Relaxed);
        self.link = None;
        if let Some(thread) = self.thread.take() {
            // Its panic, if any, belongs to a run that is being dropped.
            let _ = thread.join();
        }
    }
}

/// An [`FsTraffic`] running on a [`Producer`]: a [`DaySource`] whose days
/// are made ahead of use.
pub struct FsProducer {
    producer: Producer<FsTraffic>,
    /// Days, counted from the first, that a plan covers.
    planned: usize,
}

impl FsProducer {
    /// Run `traffic` on a producer thread. It may make its first day at
    /// once. (Build `traffic` on the caller's thread; see
    /// [`Producer::spawn`].)
    pub fn spawn(traffic: FsTraffic) -> Self {
        let mut producer = FsProducer {
            producer: Producer::spawn(traffic),
            planned: 0,
        };
        producer.allow(1);
        producer
    }

    /// Let the producer make `days` days in all.
    fn allow(&mut self, days: usize) {
        while self.producer.ordered() < days {
            self.producer.order(());
        }
    }

    /// Stop the producer and give back the file system and the
    /// generator, in the state of the days taken.
    ///
    /// # Panics
    /// Panics if the producer was allowed to make a day that was not
    /// taken whole: plan the days before taking them.
    pub fn into_parts(self) -> (FileSystem, WorkloadState) {
        self.producer.into_source().into_parts()
    }
}

impl Iterator for FsProducer {
    type Item = Arc<DayStream>;

    fn next(&mut self) -> Option<Arc<DayStream>> {
        if !self.producer.mid_day() {
            // A day begins: the producer may go on to the next one, but
            // not past the plan.
            let begun = self.producer.taken() + 1;
            let ahead = begun + 1;
            if begun <= self.planned {
                self.allow(ahead.min(self.planned));
            } else {
                self.allow(ahead);
            }
        }
        Some(Arc::new(self.producer.next_piece()))
    }
}

impl DaySource for FsProducer {
    fn plan(&mut self, days: usize) {
        self.planned = self.producer.taken() + days;
        self.allow(self.planned.min(self.producer.taken() + 1));
    }

    fn recycle(&mut self, piece: Arc<DayStream>) {
        if let Ok(piece) = Arc::try_unwrap(piece) {
            self.producer.recycle(piece);
        }
    }
}

//! Recorded workload streams: a workload's disk-level requests, produced
//! once and replayed into any number of devices.
//!
//! A [`Traffic`] source is *open loop* when what it submits, timed from
//! the start of each day, never depends on the device under it: it reads
//! no completion, no device state and no absolute time. The file-system
//! source is one — its workload draws operations, its buffer cache
//! decides hits and what a sync flushes, and neither ever looks below
//! the file system (the arrival process keeps an absolute phase, but it
//! lapses within seconds, long before a day starts). So its whole output
//! is a function of the [`StreamKey`]: the set-up writes, then per day
//! the timed requests and the day-end flush. The only device-dependent
//! instant is *when* that flush happens (the loop hands it the time the
//! device drained), which is why the flush is kept as an untimed batch.
//!
//! [`Stream`] holds such an output; [`TraceTraffic`] replays recorded
//! days through the same [`crate::DayLoop`] that produced them, one
//! source step per recorded step, so a replayed device sees the same
//! requests at the same instants in the same order as a live one.

use crate::dayloop::Traffic;
use crate::producer::Piece;
use abr_driver::request::IoDir;
use abr_driver::{BlockDevice, DriverError, IoRequest, Payload};
use abr_sim::{SimDuration, SimTime};
use abr_workload::{TraceEvent, TraceLog, WorkloadProfile};
use std::sync::Arc;

/// Everything a workload's disk-level stream is a function of — see
/// [`crate::ExperimentConfig::stream_key`], which splits a configuration
/// into these fields and the device-only rest. Two configurations with
/// equal keys produce equal streams.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamKey {
    /// Sectors of the partition the file system is made on.
    pub part_sectors: u64,
    /// Sectors per cylinder, which shape the file system's cylinder
    /// groups.
    pub sectors_per_cylinder: u64,
    /// The workload.
    pub profile: WorkloadProfile,
    /// Buffer cache capacity in blocks.
    pub cache_blocks: usize,
    /// Update-daemon period.
    pub sync_period: SimDuration,
    /// Spacing of one file operation's requests.
    pub request_pacing: SimDuration,
    /// Unmeasured days run before the first measured one.
    pub warmup_days: u32,
    /// Master seed.
    pub seed: u64,
}

/// [`Requests`] entry flag: a write.
const WRITE: u8 = 1;
/// Entry flag: an 8-byte payload seed follows.
const SEEDED: u8 = 2;
/// Entry flag: the request is the next one kept whole.
const VERBATIM: u8 = 4;
/// Entry flag: submitted in the same source step as the request before
/// it (a sync burst), not a step of its own.
const JOINS: u8 = 8;
/// Entry flag: the length is the previous request's (else a varint).
const SAME_LEN: u8 = 16;
/// Entry flag: a partition varint follows (else partition 0).
const PARTITION: u8 = 32;

/// A sequence of requests with their submission offsets, packed into
/// bytes: per request a flag byte, the offset's delta and the sector's
/// (zigzag) delta as varints, the length only when it changes, and a
/// seeded write's 8-byte seed — about 7 bytes per read and 15 per write
/// on the paper's workloads. A payload other than zeroes or a seed keeps
/// its request whole on the side.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Requests {
    bytes: Vec<u8>,
    len: usize,
    verbatim: Vec<IoRequest>,
    /// The last request pushed, which the next one is a delta against.
    last: Cursor,
}

/// A read position in a [`Requests`], with the values the next entry's
/// deltas apply to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Cursor {
    pos: usize,
    at_us: u64,
    sector: u64,
    n_sectors: u32,
    verbatim: usize,
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = bytes[*pos];
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            break;
        }
    }
    v
}

impl Requests {
    /// Append `req`, submitted `at_us` into its day (never before the
    /// request pushed last); `joins` marks it as part of that request's
    /// source step.
    pub fn push(&mut self, at_us: u64, req: &IoRequest, joins: bool) {
        let last = &mut self.last;
        let at_delta = at_us - last.at_us;
        last.at_us = at_us;
        let mut flags = if joins { JOINS } else { 0 };
        let seed = match req.payload {
            Payload::Zeroes => None,
            Payload::Seeded(seed) => Some(seed),
            _ => {
                self.bytes.push(flags | VERBATIM);
                put_varint(&mut self.bytes, at_delta);
                self.verbatim.push(req.clone());
                self.len += 1;
                return;
            }
        };
        if !req.dir.is_read() {
            flags |= WRITE;
        }
        if seed.is_some() {
            flags |= SEEDED;
        }
        if req.n_sectors == last.n_sectors {
            flags |= SAME_LEN;
        }
        if req.partition != 0 {
            flags |= PARTITION;
        }
        self.bytes.push(flags);
        put_varint(&mut self.bytes, at_delta);
        let delta = req.sector_in_partition.wrapping_sub(last.sector) as i64;
        put_varint(&mut self.bytes, ((delta << 1) ^ (delta >> 63)) as u64);
        if flags & SAME_LEN == 0 {
            put_varint(&mut self.bytes, u64::from(req.n_sectors));
        }
        if flags & PARTITION != 0 {
            put_varint(&mut self.bytes, req.partition as u64);
        }
        if let Some(seed) = seed {
            self.bytes.extend_from_slice(&seed.to_le_bytes());
        }
        (last.sector, last.n_sectors) = (req.sector_in_partition, req.n_sectors);
        self.len += 1;
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Continue `piece` in this empty sequence: the next request pushed
    /// is a delta against `piece`'s last, so this sequence decodes only
    /// after `piece` (see [`DayStream::more`]).
    fn resume(&mut self, piece: &Requests) {
        self.last = piece.last;
    }

    /// Append `piece`, which continues this sequence (see
    /// [`Self::resume`]).
    fn append(&mut self, piece: &Requests) {
        self.bytes.extend_from_slice(&piece.bytes);
        self.verbatim.extend_from_slice(&piece.verbatim);
        self.len += piece.len;
        self.last = piece.last;
    }

    /// Empty the sequence, keeping its capacity.
    fn clear(&mut self) {
        self.bytes.clear();
        self.verbatim.clear();
        self.len = 0;
        self.last = Cursor::default();
    }

    /// Give back the capacity the sequence grew past its length.
    pub fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.verbatim.shrink_to_fit();
    }

    /// Heap bytes held.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.capacity() + self.verbatim.capacity() * std::mem::size_of::<IoRequest>()
    }

    /// Every request in order: its offset, whether it joins the previous
    /// request's step, and the request itself.
    pub fn iter(&self) -> impl Iterator<Item = (u64, bool, IoRequest)> + '_ {
        let mut cursor = Cursor::default();
        std::iter::from_fn(move || {
            let joins = self.joins(&cursor);
            let req = self.take(&mut cursor)?;
            Some((cursor.at_us, joins, req))
        })
    }

    /// The offset of the request at `c`.
    fn peek_at(&self, c: &Cursor) -> Option<u64> {
        let mut pos = c.pos + 1;
        (c.pos < self.bytes.len()).then(|| c.at_us + get_varint(&self.bytes, &mut pos))
    }

    /// Whether the request at `c` joins the step before it.
    fn joins(&self, c: &Cursor) -> bool {
        self.bytes.get(c.pos).is_some_and(|f| f & JOINS != 0)
    }

    /// Whether `c` is past the last request.
    fn at_end(&self, c: &Cursor) -> bool {
        c.pos == self.bytes.len()
    }

    /// Decode the request at `c` and move past it.
    fn take(&self, c: &mut Cursor) -> Option<IoRequest> {
        let flags = *self.bytes.get(c.pos)?;
        c.pos += 1;
        c.at_us += get_varint(&self.bytes, &mut c.pos);
        if flags & VERBATIM != 0 {
            c.verbatim += 1;
            return self.verbatim.get(c.verbatim - 1).cloned();
        }
        let zigzag = get_varint(&self.bytes, &mut c.pos);
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        c.sector = c.sector.wrapping_add(delta as u64);
        if flags & SAME_LEN == 0 {
            c.n_sectors = get_varint(&self.bytes, &mut c.pos) as u32;
        }
        let mut partition = 0;
        if flags & PARTITION != 0 {
            partition = get_varint(&self.bytes, &mut c.pos) as usize;
        }
        let mut payload = Payload::Zeroes;
        if flags & SEEDED != 0 {
            let seed = self.bytes.get(c.pos..c.pos + 8)?;
            c.pos += 8;
            payload = Payload::Seeded(u64::from_le_bytes(seed.try_into().ok()?));
        }
        Some(IoRequest {
            dir: if flags & WRITE != 0 {
                IoDir::Write
            } else {
                IoDir::Read
            },
            partition,
            sector_in_partition: c.sector,
            n_sectors: c.n_sectors,
            payload,
        })
    }
}

/// One recorded day, or a piece of a day being made.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DayStream {
    /// How long the source issued operations: the day ends this long
    /// after it starts.
    pub length: SimDuration,
    /// What the source submitted during the day, timed from its start,
    /// in submission order.
    pub timed: Requests,
    /// The day-end flush, submitted together once the device is idle
    /// after the day ends.
    pub flush: Requests,
    /// More of the day follows: this is a piece of a day handed out
    /// while it is made, whose flush is empty and whose next piece's
    /// `timed` continues this one's. A whole day has it clear.
    pub more: bool,
}

impl DayStream {
    /// A trace's requests as one day, each its own step, ending at the
    /// last request. Writes carry zeroes: a trace holds no data.
    pub fn from_trace(trace: &TraceLog) -> Self {
        let mut timed = Requests::default();
        for e in trace.events() {
            timed.push(e.at_us, &e.to_request(), false);
        }
        DayStream {
            length: SimDuration::from_micros(trace.events().last().map_or(0, |e| e.at_us)),
            timed,
            ..DayStream::default()
        }
    }

    /// Empty the day, keeping its buffers for the next.
    pub fn clear(&mut self) {
        self.timed.clear();
        self.flush.clear();
        self.more = false;
    }

    /// Give back the capacity the day's buffers grew past their length.
    fn shrink_to_fit(&mut self) {
        self.timed.shrink_to_fit();
        self.flush.shrink_to_fit();
    }
}

impl Piece for DayStream {
    fn more(&self) -> bool {
        self.more
    }

    fn cut(&mut self, mut next: DayStream) -> DayStream {
        next.clear();
        next.length = self.length;
        next.timed.resume(&self.timed);
        let mut piece = std::mem::replace(self, next);
        piece.more = true;
        piece
    }
}

/// A workload's whole recorded stream (see the module docs): recorded by
/// [`crate::Experiment::recording`], replayed by
/// [`crate::Experiment::replaying`].
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    /// What the stream is a function of.
    pub key: StreamKey,
    /// The file system's rotational interleave, in blocks, which the
    /// interleaved placement policy needs.
    pub interleave: u64,
    /// The population's set-up writes, pushed through the device before
    /// the first day.
    pub setup: Requests,
    /// Every day run, warm-up days first.
    pub days: Arc<[Arc<DayStream>]>,
}

impl Stream {
    /// Requests in the whole stream.
    pub fn requests(&self) -> usize {
        let days = self.days.iter().map(|d| d.timed.len() + d.flush.len());
        self.setup.len() + days.sum::<usize>()
    }

    /// Heap bytes the stream holds.
    pub fn heap_bytes(&self) -> usize {
        let days = self
            .days
            .iter()
            .map(|d| d.timed.heap_bytes() + d.flush.heap_bytes());
        self.setup.heap_bytes() + days.sum::<usize>()
    }
}

/// Log `req` into `trace`, if one is kept, `offset` into the day.
fn log(trace: &mut Option<TraceLog>, req: &IoRequest, offset: SimDuration) {
    if let Some(log) = trace {
        log.push(TraceEvent::of(req, offset.as_micros()));
    }
}

/// Where a [`TraceTraffic`] takes its days from: each day whole, or in
/// pieces as it is made (see [`DayStream::more`]).
pub trait DaySource: Iterator<Item = Arc<DayStream>> + Send {
    /// The caller will begin exactly `days` more days and then stop or
    /// plan again: a source that makes its days ahead of use makes no
    /// more than that. Nothing to do for a source that is already made.
    fn plan(&mut self, _days: usize) {}

    /// The caller is done with `piece`: a source that makes days may
    /// refill its buffers.
    fn recycle(&mut self, _piece: Arc<DayStream>) {}
}

impl DaySource for Box<dyn DaySource> {
    fn plan(&mut self, days: usize) {
        (**self).plan(days);
    }

    fn recycle(&mut self, piece: Arc<DayStream>) {
        (**self).recycle(piece);
    }
}

/// The days of a recorded [`Stream`], in order, shared with the stream
/// so it can serve any number of replays.
#[derive(Debug)]
pub struct Recorded {
    days: Arc<[Arc<DayStream>]>,
    next: usize,
}

impl Recorded {
    /// A source over `days`.
    pub fn new(days: Arc<[Arc<DayStream>]>) -> Self {
        Recorded { days, next: 0 }
    }
}

impl Iterator for Recorded {
    type Item = Arc<DayStream>;

    fn next(&mut self) -> Option<Arc<DayStream>> {
        let day = Arc::clone(self.days.get(self.next)?);
        self.next += 1;
        Some(day)
    }
}

impl DaySource for Recorded {}

/// A [`Traffic`] source replaying the days its [`DaySource`] hands it,
/// one per [`Traffic::begin_day`]: each recorded step is one source
/// event at its recorded offset, and the flush goes out when the loop
/// calls for it. A request the device rejects panics the run, unless
/// the source is [`Self::lenient`].
pub struct TraceTraffic<S = Box<dyn DaySource>> {
    source: S,
    /// The piece of today being replayed.
    piece: Arc<DayStream>,
    /// Every day begun, joined from its pieces, if kept (see
    /// [`Self::keeping`]).
    kept: Option<Vec<DayStream>>,
    begun: usize,
    cursor: Cursor,
    sink: Sink,
}

/// Where replayed requests go besides the device.
#[derive(Debug, Default)]
struct Sink {
    day_start: SimTime,
    trace: Option<TraceLog>,
    lenient: bool,
    rejected: Option<DriverError>,
}

impl Sink {
    fn submit<D: BlockDevice>(&mut self, dev: &mut D, req: IoRequest, t: SimTime) {
        log(&mut self.trace, &req, t - self.day_start);
        if let Err(e) = dev.submit(req, t) {
            assert!(self.lenient, "the device rejected a replayed request: {e}");
            self.rejected.get_or_insert(e);
        }
    }
}

impl<S: DaySource> TraceTraffic<S> {
    /// A source replaying `source`'s days.
    pub fn new(source: S) -> Self {
        TraceTraffic {
            source,
            piece: Arc::default(),
            kept: None,
            begun: 0,
            cursor: Cursor::default(),
            sink: Sink::default(),
        }
    }

    /// Keep every day begun, for [`Self::into_days`].
    pub fn keeping(mut self) -> Self {
        self.kept = Some(Vec::new());
        self
    }

    /// Skip a request the device rejects instead of panicking, and keep
    /// the first error (see [`Self::rejected`]).
    pub fn lenient(mut self) -> Self {
        self.sink.lenient = true;
        self
    }

    /// Every day begun, in order, if [`Self::keeping`]; else none.
    pub fn into_days(self) -> Vec<Arc<DayStream>> {
        let kept = self.kept.unwrap_or_default();
        kept.into_iter().map(Arc::new).collect()
    }

    /// The day source, to take back what it owns.
    pub fn into_source(self) -> S {
        self.source
    }

    /// See [`DaySource::plan`].
    pub fn plan(&mut self, days: usize) {
        self.source.plan(days);
    }

    /// The first error the device returned for a replayed request.
    pub fn rejected(&self) -> Option<&DriverError> {
        self.sink.rejected.as_ref()
    }

    /// Log every request submitted from the next day on, timed from its
    /// start, until [`Self::take_trace`].
    pub fn trace(&mut self) {
        self.sink.trace = Some(TraceLog::new());
    }

    /// Stop logging and hand back what was logged, if anything.
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        self.sink.trace.take()
    }

    /// Move on to the source's next piece, handing the last one back.
    fn take_piece(&mut self) {
        let Some(piece) = self.source.next() else {
            panic!("the recorded stream holds only {} days", self.begun);
        };
        if let Some(kept) = &mut self.kept {
            if !self.piece.more {
                kept.push(DayStream {
                    length: piece.length,
                    ..DayStream::default()
                });
            }
            if let Some(day) = kept.last_mut() {
                day.timed.append(&piece.timed);
                if !piece.more {
                    day.flush.clone_from(&piece.flush);
                    // A kept day lives as long as the stream: no slack.
                    // (Slack in every day of a 90 k-request stream costs
                    // `suite_paper` 1.1 MB of peak RSS.)
                    day.shrink_to_fit();
                }
            }
        }
        let spent = std::mem::replace(&mut self.piece, piece);
        self.source.recycle(spent);
        (self.cursor.pos, self.cursor.verbatim) = (0, 0);
    }

    /// Take pieces until one has requests left or the day has no more.
    fn settle(&mut self) {
        while self.piece.more && self.piece.timed.at_end(&self.cursor) {
            self.take_piece();
        }
    }
}

impl<D: BlockDevice, S: DaySource> Traffic<D> for TraceTraffic<S> {
    fn begin_day(&mut self, start: SimTime) -> SimTime {
        self.take_piece();
        self.cursor = Cursor::default();
        self.settle();
        self.begun += 1;
        self.sink.day_start = start;
        start + self.piece.length
    }

    fn next_event(&self) -> SimTime {
        let at = self.piece.timed.peek_at(&self.cursor);
        at.map_or(SimTime::MAX, |at| {
            self.sink.day_start + SimDuration::from_micros(at)
        })
    }

    fn on_event(&mut self, dev: &mut D, t: SimTime) {
        // A step never spans two pieces: the producer cuts between steps.
        let timed = &self.piece.timed;
        while let Some(req) = timed.take(&mut self.cursor) {
            self.sink.submit(dev, req, t);
            if !timed.joins(&self.cursor) {
                break;
            }
        }
        self.settle();
    }

    fn drained(&self) -> bool {
        !self.piece.more && self.piece.timed.at_end(&self.cursor)
    }

    fn flush(&mut self, dev: &mut D, t: SimTime) {
        for (_, _, req) in self.piece.flush.iter() {
            self.sink.submit(dev, req, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_driver::request::IoRequest;

    #[test]
    fn requests_round_trip_every_payload() {
        let bytes = Arc::<[u8]>::from(vec![7u8; 1024]);
        let reqs = [
            IoRequest::read(0, 32, 16),
            IoRequest::write_seeded(0, 48, 16, 0xfeed),
            IoRequest::write_zeroes(1, 64, 2),
            IoRequest::write(0, 80, 2, bytes),
            IoRequest::read(0, 1 << 40, 16),
            IoRequest::read(300, 16, 16),
        ];
        let mut list = Requests::default();
        for (i, r) in reqs.iter().enumerate() {
            list.push(i as u64 * 10, r, i % 2 == 1);
        }
        let back: Vec<_> = list.iter().collect();
        assert_eq!(back.len(), reqs.len());
        for (i, (at, joins, req)) in back.into_iter().enumerate() {
            assert_eq!((at, joins, &req), (i as u64 * 10, i % 2 == 1, &reqs[i]));
        }
        // Only the literal bytes are kept whole.
        assert_eq!(list.verbatim.len(), 1);
    }
}

//! The clients' arrivals: an open-loop source drawn on a producer thread.
//!
//! What a client offers never depends on the server: its arrival times
//! come from its own generator, the block and direction of each request
//! from its own substream, and its token bucket's verdict from its own
//! arrival times alone. So [`ClientArrivals`] draws every arrival with
//! its shape and bucket verdict with no server at all, and an
//! [`abr_core::Producer`] runs it on a thread of its own while the
//! server consumes the [`Arrivals`] pieces. What does depend on the
//! server — the shed check against the backlog, the accept queues,
//! dispatch, and every `serve.*` metric — stays with the server, on the
//! caller's thread.
//!
//! An epoch's draws are exactly those of a server drawing each client's
//! next arrival as it serves the last: every arrival at or before the
//! epoch's end is drawn, and each client's first one past it stays
//! pending. A night re-primes every client at the new clock; without
//! one, the pending arrivals carry over into the next epoch.

use crate::admission::TokenBucket;
use crate::config::{ArrivalKind, ServeConfig};
use abr_core::producer::{OpenLoop, Piece, PIECE_REQUESTS};
use abr_sim::arrival::{OnOff, OnOffParams, Poisson};
use abr_sim::dist::Zipf;
use abr_sim::{EventQueue, SimDuration, SimRng, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};

/// Zipf exponent of the clients' block popularity.
const ZIPF_EXPONENT: f64 = 1.1;

/// Sectors per file-system block (8 KB blocks of 512-byte sectors);
/// every client request is exactly one block, so it never crosses a
/// block boundary and maps onto one member disk.
pub(crate) const SECTORS_PER_BLOCK: u32 = 16;

/// One client's arrival process.
enum ArrivalGen {
    Poisson(Poisson),
    Bursty(OnOff),
}

/// What one client draws from: its arrival process and both of its
/// substreams, and its token bucket.
struct Client {
    gen: ArrivalGen,
    arrival_rng: SimRng,
    shape_rng: SimRng,
    bucket: TokenBucket,
}

impl Client {
    fn next_arrival(&mut self, now: SimTime) -> SimTime {
        match &mut self.gen {
            ArrivalGen::Poisson(p) => p.next_after(now, &mut self.arrival_rng),
            ArrivalGen::Bursty(o) => o.next_after(now, &mut self.arrival_rng),
        }
    }
}

/// One request a client offers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrival {
    /// When it arrives.
    pub at: SimTime,
    /// The first sector of its block.
    pub sector: u64,
    /// The client that sends it.
    pub client: usize,
    /// A write (else a read).
    pub write: bool,
    /// Refused by the client's token bucket.
    pub throttled: bool,
}

/// A piece of an epoch's arrivals, in arrival order.
#[derive(Debug, Default)]
pub(crate) struct Arrivals {
    pub list: Vec<Arrival>,
    /// More of the epoch follows.
    pub more: bool,
}

impl Piece for Arrivals {
    fn more(&self) -> bool {
        self.more
    }

    fn cut(&mut self, mut next: Arrivals) -> Arrivals {
        next.list.clear();
        next.more = false;
        let mut piece = std::mem::replace(self, next);
        piece.more = true;
        piece
    }
}

/// What the server tells the clients about an epoch before its arrivals
/// are drawn.
pub(crate) struct Epoch {
    /// Restart every client's arrival process after this instant first,
    /// dropping the arrivals still pending; `None` carries them over.
    pub reprime: Option<SimTime>,
    /// Every arrival at or before this instant belongs to the epoch.
    pub end: SimTime,
}

/// Every client's arrival process, block popularity and token bucket:
/// the open-loop half of the serving harness.
pub(crate) struct ClientArrivals {
    clients: Vec<Client>,
    /// Each client's next arrival.
    pending: EventQueue<usize>,
    zipf: Zipf,
    read_fraction: f64,
    /// Blocks in the volume's data address space.
    total_blocks: u64,
    /// Rank→block scatter stride, coprime with `total_blocks`.
    stride: u64,
}

impl ClientArrivals {
    /// `config`'s client population over a volume of `total_blocks`
    /// blocks, with indexed arrival/shape substreams, so adding clients
    /// never perturbs existing ones. Nothing is drawn until an epoch
    /// re-primes the clients.
    ///
    /// # Panics
    /// Panics if the working set is larger than the volume.
    pub fn new(config: &ServeConfig, total_blocks: u64) -> Self {
        assert!(
            (config.working_set_blocks as u64) <= total_blocks,
            "working set exceeds the volume ({} > {total_blocks} blocks)",
            config.working_set_blocks
        );
        // Scatter Zipf ranks across the whole volume so the hot set is
        // spread out until rearrangement clusters it: block(r) =
        // r * stride mod total, with the stride forced coprime so the
        // map is injective.
        let mut stride: u64 = 7919;
        while gcd(stride, total_blocks) != 1 {
            stride += 1;
        }
        let root = SimRng::new(config.seed);
        let per_client = config.per_client_rate();
        let clients = (0..config.n_clients)
            .map(|i| {
                let mut arrival_rng = root.substream_idx("client", i as u64);
                let gen = match config.arrivals {
                    ArrivalKind::Poisson => ArrivalGen::Poisson(Poisson::per_sec(per_client)),
                    ArrivalKind::Bursty { burst, mean_on } => {
                        assert!(burst > 1.0, "burst factor must exceed 1");
                        let params = OnOffParams {
                            mean_on,
                            // off = on * (burst - 1) keeps the long-run
                            // rate at `per_client`.
                            mean_off: SimDuration::from_micros(
                                (mean_on.as_micros() as f64 * (burst - 1.0)) as u64,
                            ),
                            on_rate_per_sec: per_client * burst,
                        };
                        ArrivalGen::Bursty(OnOff::new(params, &mut arrival_rng))
                    }
                };
                Client {
                    gen,
                    arrival_rng,
                    shape_rng: root.substream_idx("req", i as u64),
                    bucket: TokenBucket::new(config.bucket_rate_per_sec, config.bucket_burst),
                }
            })
            .collect();
        ClientArrivals {
            clients,
            pending: EventQueue::new(),
            zipf: Zipf::new(config.working_set_blocks, ZIPF_EXPONENT),
            read_fraction: config.read_fraction,
            total_blocks,
            stride,
        }
    }

    /// Schedule every client's first arrival after `now`.
    fn prime(&mut self, now: SimTime) {
        self.pending = EventQueue::new();
        for (c, client) in self.clients.iter_mut().enumerate() {
            self.pending.schedule(client.next_arrival(now), c);
        }
    }

    /// Client `c`'s arrival at `at`: its block, its direction and its
    /// bucket's verdict.
    fn draw(&mut self, c: usize, at: SimTime) -> Arrival {
        let client = &mut self.clients[c];
        let rank = self.zipf.sample(&mut client.shape_rng);
        let write = !client.shape_rng.chance(self.read_fraction);
        let block = (rank as u64).wrapping_mul(self.stride) % self.total_blocks;
        Arrival {
            at,
            sector: block * u64::from(SECTORS_PER_BLOCK),
            client: c,
            write,
            throttled: !client.bucket.try_take(at),
        }
    }
}

impl OpenLoop for ClientArrivals {
    type Piece = Arrivals;
    type Order = Epoch;

    fn produce(
        &mut self,
        epoch: Epoch,
        mut piece: Arrivals,
        cancel: &AtomicBool,
        cut: &mut impl FnMut(&mut Arrivals) -> Option<()>,
    ) -> Option<Arrivals> {
        piece.list.clear();
        piece.more = false;
        if let Some(clock) = epoch.reprime {
            self.prime(clock);
        }
        while self.pending.peek_time().is_some_and(|at| at <= epoch.end) {
            if piece.list.len() >= PIECE_REQUESTS {
                if cancel.load(Ordering::Relaxed) {
                    return None;
                }
                cut(&mut piece)?;
            }
            let Some((at, c)) = self.pending.pop() else {
                break;
            };
            piece.list.push(self.draw(c, at));
            let next = self.clients[c].next_arrival(at);
            self.pending.schedule(next, c);
        }
        Some(piece)
    }
}

/// Greatest common divisor (Euclid).
fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

//! Span and event types for the I/O-path trace.
//!
//! A [`RequestSpan`] is the full lifecycle of one block request as the
//! driver saw it: arrival (sim-time), queueing, dispatch, the physical
//! service segments (seek / rotation / transfer+overhead), completion,
//! and any retry or fault edges taken along the way. An [`ObsEvent`]
//! is either such a span or one of the arranger/daemon activity
//! records (block moves, rearrangement start/stop).
//!
//! All timestamps are **simulated** microseconds. Nothing in this
//! module may ever record wall-clock time: traces are byte-compared
//! across `--jobs N` in CI.

use abr_sim::jsn;
use abr_sim::json::JsonValue;

/// One request's journey through the driver, in sim-time microseconds.
///
/// Segment semantics match the driver's accounting: `transfer_us`
/// includes controller overhead (the `DirStats` transfer bucket is
/// `breakdown.transfer + breakdown.overhead`), and the segments cover
/// the *successful* service attempt, so for a fault-free request
/// `seek + rotation + transfer == completed - dispatched`; time lost to
/// retries and backoff is the difference when `retries > 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpan {
    /// Driver-assigned request id (monotone per run).
    pub id: u64,
    /// `true` for reads, `false` for writes.
    pub read: bool,
    /// Logical block number addressed by the request.
    pub block: u64,
    /// Request size in sectors.
    pub n_sectors: u32,
    /// Sim-time the request arrived at the driver (`submit`).
    pub arrived_us: u64,
    /// Sim-time the scheduler dispatched it to the disk.
    pub dispatched_us: u64,
    /// Sim-time the completion was delivered.
    pub completed_us: u64,
    /// Total seek time across all service attempts.
    pub seek_us: u64,
    /// Total rotational latency across all service attempts.
    pub rotation_us: u64,
    /// Total transfer + controller overhead across all service attempts.
    pub transfer_us: u64,
    /// Cylinders traversed by the scheduling seek (arm movement).
    pub seek_cylinders: u32,
    /// Queue depth observed at dispatch (requests still waiting).
    pub queue_depth: u32,
    /// Whether the request was served from the reserved (shuffled) area.
    pub in_reserved: bool,
    /// Media retries performed before success or failure.
    pub retries: u32,
    /// Terminal error string for failed requests (PR-1 fault path).
    pub error: Option<String>,
    /// Index of the disk that served the request within its array
    /// (always 0 on a single-disk run; see `abr-array`).
    pub disk: u32,
}

impl RequestSpan {
    /// Service time (dispatch → completion) in microseconds.
    pub fn service_us(&self) -> u64 {
        self.completed_us.saturating_sub(self.dispatched_us)
    }

    /// Queue waiting time (arrival → dispatch) in microseconds.
    pub fn waiting_us(&self) -> u64 {
        self.dispatched_us.saturating_sub(self.arrived_us)
    }

    /// Response time (arrival → completion) in microseconds.
    pub fn response_us(&self) -> u64 {
        self.completed_us.saturating_sub(self.arrived_us)
    }
}

/// What kind of block movement an arranger [`ObsEvent::Move`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// `DKIOCBCOPY`: copy a block into a reserved-area slot.
    BCopy,
    /// `DKIOCBEVICT`: evict a cooled block from the reserved area.
    BEvict,
    /// `DKIOCCLEAN`: flush the reserved area back to home locations.
    Clean,
    /// Shuffle: reorder blocks within the reserved area in place.
    Shuffle,
}

impl MoveKind {
    fn tag(self) -> &'static str {
        match self {
            MoveKind::BCopy => "bcopy",
            MoveKind::BEvict => "bevict",
            MoveKind::Clean => "clean",
            MoveKind::Shuffle => "shuffle",
        }
    }

    fn from_tag(tag: &str) -> Option<MoveKind> {
        Some(match tag {
            "bcopy" => MoveKind::BCopy,
            "bevict" => MoveKind::BEvict,
            "clean" => MoveKind::Clean,
            "shuffle" => MoveKind::Shuffle,
            _ => return None,
        })
    }
}

/// Whether a rearrangement event marks the start or end of an episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RearrangePhase {
    /// The daemon began an overnight/incremental rearrangement.
    Start,
    /// The rearrangement finished (report fields attached).
    Stop,
}

/// One record in the flight-recorder trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// A completed (or failed-terminal) foreground request.
    Request(RequestSpan),
    /// A single block movement performed by the arranger through the
    /// driver ioctl interface.
    Move {
        /// Which ioctl produced the movement.
        kind: MoveKind,
        /// Sim-time the movement was issued.
        at_us: u64,
        /// Logical block moved (0 for whole-area `Clean`).
        block: u64,
        /// Destination reserved-area slot (or source slot for evict).
        slot: u64,
        /// Physical I/O operations charged to the movement.
        ops: u32,
        /// Sim-time the disk was busy servicing the movement.
        busy_us: u64,
        /// `false` when the movement failed (fault injection).
        ok: bool,
    },
    /// A rearrangement episode boundary.
    Rearrange {
        /// Start or stop.
        phase: RearrangePhase,
        /// Sim-time of the boundary.
        at_us: u64,
        /// Blocks successfully placed (stop only; 0 at start).
        placed: u32,
        /// Blocks that failed to move (stop only; 0 at start).
        failed: u32,
        /// Physical I/O operations spent (stop only; 0 at start).
        io_ops: u32,
        /// Total disk busy time of the episode (stop only; 0 at start).
        busy_us: u64,
    },
}

impl ObsEvent {
    /// Serialize as one deterministic JSON object (one JSONL line).
    ///
    /// The `ev` discriminator comes first so line-oriented tools can
    /// filter without parsing: `"req"`, `"move"`, `"rearrange"`.
    pub fn to_json(&self) -> JsonValue {
        match self {
            ObsEvent::Request(s) => {
                let mut v = jsn!({
                    "ev": "req",
                    "id": s.id,
                    "dir": if s.read { "r" } else { "w" },
                    "block": s.block,
                    "sectors": s.n_sectors,
                    "arrived_us": s.arrived_us,
                    "dispatched_us": s.dispatched_us,
                    "completed_us": s.completed_us,
                    "seek_us": s.seek_us,
                    "rotation_us": s.rotation_us,
                    "transfer_us": s.transfer_us,
                    "seek_cyl": s.seek_cylinders,
                    "qdepth": s.queue_depth,
                    "reserved": s.in_reserved,
                });
                if s.disk > 0 {
                    v.insert("disk", s.disk);
                }
                if s.retries > 0 {
                    v.insert("retries", s.retries);
                }
                if let Some(err) = &s.error {
                    v.insert("error", err.as_str());
                }
                v
            }
            ObsEvent::Move {
                kind,
                at_us,
                block,
                slot,
                ops,
                busy_us,
                ok,
            } => {
                let mut v = jsn!({
                    "ev": "move",
                    "kind": kind.tag(),
                    "at_us": *at_us,
                    "block": *block,
                    "slot": *slot,
                    "ops": *ops,
                    "busy_us": *busy_us,
                });
                if !ok {
                    v.insert("ok", false);
                }
                v
            }
            ObsEvent::Rearrange {
                phase,
                at_us,
                placed,
                failed,
                io_ops,
                busy_us,
            } => match phase {
                RearrangePhase::Start => jsn!({
                    "ev": "rearrange",
                    "phase": "start",
                    "at_us": *at_us,
                }),
                RearrangePhase::Stop => jsn!({
                    "ev": "rearrange",
                    "phase": "stop",
                    "at_us": *at_us,
                    "placed": *placed,
                    "failed": *failed,
                    "io_ops": *io_ops,
                    "busy_us": *busy_us,
                }),
            },
        }
    }

    /// Parse an event back from its [`ObsEvent::to_json`] form.
    ///
    /// Used by `abrctl trace` and the determinism tests; returns `None`
    /// on unknown discriminators so readers skip foreign lines instead
    /// of failing. A count that does not fit its `u32` field makes the
    /// line malformed too: it is skipped, never truncated.
    pub fn from_json(v: &JsonValue) -> Option<ObsEvent> {
        let u32_at = |key: &str| u32::try_from(v[key].as_u64()?).ok();
        let u32_or_0 = |key: &str| {
            if v[key].is_null() {
                Some(0)
            } else {
                u32_at(key)
            }
        };
        match v["ev"].as_str()? {
            "req" => Some(ObsEvent::Request(RequestSpan {
                id: v["id"].as_u64()?,
                read: v["dir"].as_str()? == "r",
                block: v["block"].as_u64()?,
                n_sectors: u32_at("sectors")?,
                arrived_us: v["arrived_us"].as_u64()?,
                dispatched_us: v["dispatched_us"].as_u64()?,
                completed_us: v["completed_us"].as_u64()?,
                seek_us: v["seek_us"].as_u64()?,
                rotation_us: v["rotation_us"].as_u64()?,
                transfer_us: v["transfer_us"].as_u64()?,
                seek_cylinders: u32_at("seek_cyl")?,
                queue_depth: u32_at("qdepth")?,
                in_reserved: v["reserved"].as_bool()?,
                retries: u32_or_0("retries")?,
                error: v["error"].as_str().map(str::to_string),
                disk: u32_or_0("disk")?,
            })),
            "move" => Some(ObsEvent::Move {
                kind: MoveKind::from_tag(v["kind"].as_str()?)?,
                at_us: v["at_us"].as_u64()?,
                block: v["block"].as_u64()?,
                slot: v["slot"].as_u64()?,
                ops: u32_at("ops")?,
                busy_us: v["busy_us"].as_u64()?,
                ok: v["ok"].as_bool().unwrap_or(true),
            }),
            "rearrange" => {
                let phase = match v["phase"].as_str()? {
                    "start" => RearrangePhase::Start,
                    "stop" => RearrangePhase::Stop,
                    _ => return None,
                };
                Some(ObsEvent::Rearrange {
                    phase,
                    at_us: v["at_us"].as_u64()?,
                    placed: u32_or_0("placed")?,
                    failed: u32_or_0("failed")?,
                    io_ops: u32_or_0("io_ops")?,
                    busy_us: v["busy_us"].as_u64().unwrap_or(0),
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span() -> RequestSpan {
        RequestSpan {
            id: 7,
            read: true,
            block: 4242,
            n_sectors: 16,
            arrived_us: 1_000,
            dispatched_us: 1_500,
            completed_us: 24_750,
            seek_us: 9_000,
            rotation_us: 8_250,
            transfer_us: 6_000,
            seek_cylinders: 310,
            queue_depth: 3,
            in_reserved: false,
            retries: 2,
            error: Some("media error".to_string()),
            disk: 0,
        }
    }

    #[test]
    fn span_derived_times() {
        let s = sample_span();
        assert_eq!(s.waiting_us(), 500);
        assert_eq!(s.service_us(), 23_250);
        assert_eq!(s.response_us(), 23_750);
        assert_eq!(s.seek_us + s.rotation_us + s.transfer_us, s.service_us());
    }

    #[test]
    fn request_roundtrip() {
        let ev = ObsEvent::Request(sample_span());
        let back = ObsEvent::from_json(&ev.to_json()).expect("parses");
        assert_eq!(back, ev);
    }

    #[test]
    fn disk_index_roundtrips_and_is_omitted_for_disk_zero() {
        let mut s = sample_span();
        s.disk = 3;
        let ev = ObsEvent::Request(s.clone());
        assert!(ev.to_json().to_string().contains("\"disk\":3"));
        assert_eq!(ObsEvent::from_json(&ev.to_json()).expect("parses"), ev);
        // Disk 0 (single-disk runs) serializes exactly as before the
        // array layer existed, keeping old traces byte-comparable.
        s.disk = 0;
        let ev = ObsEvent::Request(s);
        assert!(!ev.to_json().to_string().contains("disk"));
        assert_eq!(ObsEvent::from_json(&ev.to_json()).expect("parses"), ev);
    }

    #[test]
    fn move_and_rearrange_roundtrip() {
        for ev in [
            ObsEvent::Move {
                kind: MoveKind::BCopy,
                at_us: 99,
                block: 12,
                slot: 3,
                ops: 2,
                busy_us: 31_000,
                ok: true,
            },
            ObsEvent::Move {
                kind: MoveKind::BEvict,
                at_us: 100,
                block: 13,
                slot: 4,
                ops: 2,
                busy_us: 29_000,
                ok: false,
            },
            ObsEvent::Rearrange {
                phase: RearrangePhase::Start,
                at_us: 10,
                placed: 0,
                failed: 0,
                io_ops: 0,
                busy_us: 0,
            },
            ObsEvent::Rearrange {
                phase: RearrangePhase::Stop,
                at_us: 1_000_000,
                placed: 120,
                failed: 3,
                io_ops: 246,
                busy_us: 5_400_000,
            },
        ] {
            let back = ObsEvent::from_json(&ev.to_json()).expect("parses");
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn optional_fields_omitted_when_default() {
        let mut s = sample_span();
        s.retries = 0;
        s.error = None;
        let text = ObsEvent::Request(s).to_json().to_string();
        assert!(!text.contains("retries"));
        assert!(!text.contains("error"));
        let ok_move = ObsEvent::Move {
            kind: MoveKind::Clean,
            at_us: 1,
            block: 0,
            slot: 0,
            ops: 5,
            busy_us: 7,
            ok: true,
        };
        assert!(!ok_move.to_json().to_string().contains("ok"));
    }

    #[test]
    fn a_count_too_wide_for_its_field_skips_the_line() {
        let line = ObsEvent::Request(sample_span()).to_json().to_string();
        let wide = line.replace("\"sectors\":16", "\"sectors\":4294967312");
        assert_ne!(wide, line);
        assert!(ObsEvent::from_json(&JsonValue::parse(&wide).unwrap()).is_none());
        let retries = line.replace("\"retries\":2", "\"retries\":4294967298");
        assert_ne!(retries, line);
        assert!(ObsEvent::from_json(&JsonValue::parse(&retries).unwrap()).is_none());
    }

    #[test]
    fn unknown_discriminator_is_skipped() {
        let v = JsonValue::parse(r#"{"ev":"future-thing","x":1}"#).unwrap();
        assert!(ObsEvent::from_json(&v).is_none());
    }
}

//! Block-level trace record/replay.
//!
//! The paper's own prior work ([Akyürek 93]) was trace-driven; this
//! module provides the equivalent capability for the reproduction: a
//! serializable log of the block-level requests a workload produced, so
//! experiments can be replayed exactly (e.g. to compare placement
//! policies on the *identical* request stream) and shipped as artifacts.

use abr_disk::disk::IoDir;
use abr_driver::request::IoRequest;
use abr_sim::{jsn, FromJson, JsonError, JsonValue};
use std::io::{BufRead, Write};

/// One logged request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Submission time, microseconds since day start.
    pub at_us: u64,
    /// Read or write.
    pub dir: IoDir,
    /// Partition index.
    pub partition: usize,
    /// Starting sector within the partition.
    pub sector: u64,
    /// Length in sectors.
    pub n_sectors: u32,
}

impl TraceEvent {
    /// Build a logged event from a request about to be submitted.
    pub fn of(req: &IoRequest, at_us: u64) -> Self {
        TraceEvent {
            at_us,
            dir: req.dir,
            partition: req.partition,
            sector: req.sector_in_partition,
            n_sectors: req.n_sectors,
        }
    }

    /// Reconstruct a submittable request (writes carry zero payloads —
    /// traces capture addresses and sizes, not data).
    pub fn to_request(self) -> IoRequest {
        match self.dir {
            IoDir::Read => IoRequest::read(self.partition, self.sector, self.n_sectors),
            IoDir::Write => IoRequest::write_zeroes(self.partition, self.sector, self.n_sectors),
        }
    }

    /// Persisted form: one line of a JSONL trace.
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "at_us": self.at_us,
            "dir": self.dir.to_json(),
            "n_sectors": self.n_sectors,
            "partition": self.partition,
            "sector": self.sector,
        })
    }
}

impl FromJson for TraceEvent {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(TraceEvent {
            at_us: v.at("at_us")?,
            dir: v.at("dir")?,
            partition: v.at("partition")?,
            sector: v.at("sector")?,
            n_sectors: v.at("n_sectors")?,
        })
    }
}

/// An in-memory trace log with JSON-lines persistence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event. Events must be appended in non-decreasing time
    /// order.
    ///
    /// # Panics
    /// Panics on out-of-order appends.
    pub fn push(&mut self, e: TraceEvent) {
        if let Some(last) = self.events.last() {
            assert!(e.at_us >= last.at_us, "trace events out of order");
        }
        self.events.push(e);
    }

    /// The logged events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize as JSON lines.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        for e in &self.events {
            writeln!(w, "{}", e.to_json())?;
        }
        Ok(())
    }

    /// Parse from JSON lines; an error names the line it is on.
    pub fn read_jsonl<R: BufRead>(r: R) -> std::io::Result<TraceLog> {
        let mut log = TraceLog::new();
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let e = JsonValue::parse(&line)
                .and_then(|v| TraceEvent::from_json(&v))
                .and_then(|e| match log.events.last() {
                    Some(last) if e.at_us < last.at_us => Err(JsonError::new("out of order")),
                    _ => Ok(e),
                })
                .map_err(|e| {
                    let msg = format!("line {}: {e}", i + 1);
                    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
                })?;
            log.events.push(e);
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, sector: u64) -> TraceEvent {
        TraceEvent {
            at_us,
            dir: IoDir::Read,
            partition: 0,
            sector,
            n_sectors: 16,
        }
    }

    #[test]
    fn roundtrip_jsonl() {
        let mut log = TraceLog::new();
        log.push(ev(0, 100));
        log.push(ev(500, 200));
        log.push(TraceEvent {
            at_us: 900,
            dir: IoDir::Write,
            partition: 1,
            sector: 32,
            n_sectors: 2,
        });
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let back = TraceLog::read_jsonl(&buf[..]).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn rejects_out_of_order() {
        let mut log = TraceLog::new();
        log.push(ev(100, 1));
        log.push(ev(50, 2));
    }

    #[test]
    fn event_of_request_roundtrip() {
        let req = IoRequest::read(2, 1234, 8);
        let e = TraceEvent::of(&req, 42);
        assert_eq!(e.at_us, 42);
        let back = e.to_request();
        assert_eq!(back.partition, 2);
        assert_eq!(back.sector_in_partition, 1234);
        assert_eq!(back.n_sectors, 8);
    }

    #[test]
    fn write_events_replay_with_zero_payload() {
        let e = TraceEvent {
            at_us: 0,
            dir: IoDir::Write,
            partition: 0,
            sector: 16,
            n_sectors: 4,
        };
        let req = e.to_request();
        assert!(matches!(req.payload, abr_driver::Payload::Zeroes) && req.n_sectors == 4);
    }

    #[test]
    fn read_jsonl_errors_name_the_line() {
        // Malformed, a sector count that does not fit in u32 (which must
        // not wrap to 16), and a line earlier than the one before it.
        let first = ev(5, 100).to_json().to_string();
        let wide = first.replace("\"n_sectors\":16", "\"n_sectors\":4294967312");
        assert_ne!(wide, first);
        let earlier = ev(0, 100).to_json().to_string();
        for bad in ["{not json", &wide, &earlier] {
            let text = format!("{first}\n\n{bad}\n");
            let e = TraceLog::read_jsonl(text.as_bytes()).unwrap_err();
            assert!(e.to_string().starts_with("line 3: "), "{e}");
        }
    }

    #[test]
    fn read_jsonl_skips_blank_lines() {
        let text = "\n\n";
        let log = TraceLog::read_jsonl(text.as_bytes()).unwrap();
        assert!(log.is_empty());
    }
}

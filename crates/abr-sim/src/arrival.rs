//! Arrival processes.
//!
//! §5.2 of the paper: "Although the disks were lightly utilized, the
//! request arrival pattern was very bursty. Arrival bursts produce long
//! queues." Reproducing the waiting-time results therefore requires a
//! bursty arrival model, not plain Poisson. Two processes are provided:
//!
//! * [`Poisson`] — memoryless arrivals at a fixed rate (baseline / light
//!   background traffic).
//! * [`OnOff`] — a two-state Markov-modulated process: long silent gaps
//!   alternate with short ON periods during which arrivals come at a much
//!   higher rate. This is the classic model for interactive file-server
//!   traffic (user think time vs. request trains).
//!
//! Both yield an iterator-like `next_after` API so the simulation can pull
//! the next arrival lazily.

use crate::jsn;
use crate::json::{FromJson, JsonError, JsonValue};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Poisson arrivals: exponential inter-arrival times with a given mean.
#[derive(Debug, Clone)]
pub struct Poisson {
    mean_gap_us: f64,
}

impl Poisson {
    /// Arrivals at `rate_per_sec` events per second on average.
    ///
    /// # Panics
    /// Panics if the rate is not positive.
    pub fn per_sec(rate_per_sec: f64) -> Self {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        Poisson {
            mean_gap_us: 1e6 / rate_per_sec,
        }
    }

    /// The next arrival strictly after `now`.
    pub fn next_after(&self, now: SimTime, rng: &mut SimRng) -> SimTime {
        let gap = rng.exp(self.mean_gap_us).max(1.0) as u64;
        now + SimDuration::from_micros(gap)
    }
}

/// Parameters of the ON/OFF bursty arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnOffParams {
    /// Mean length of an ON (burst) period.
    pub mean_on: SimDuration,
    /// Mean length of an OFF (silence) period.
    pub mean_off: SimDuration,
    /// Arrival rate during ON periods, events/second.
    pub on_rate_per_sec: f64,
}

impl OnOffParams {
    /// Long-run average arrival rate (events/second).
    pub fn mean_rate_per_sec(&self) -> f64 {
        let on = self.mean_on.as_secs_f64();
        let off = self.mean_off.as_secs_f64();
        self.on_rate_per_sec * on / (on + off)
    }

    /// Persisted form (inside a saved workload profile).
    pub fn to_json(&self) -> JsonValue {
        jsn!({
            "mean_off": self.mean_off.to_json(),
            "mean_on": self.mean_on.to_json(),
            "on_rate_per_sec": self.on_rate_per_sec,
        })
    }
}

impl FromJson for OnOffParams {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        Ok(OnOffParams {
            mean_on: v.at("mean_on")?,
            mean_off: v.at("mean_off")?,
            on_rate_per_sec: v.at("on_rate_per_sec")?,
        })
    }
}

/// A two-state (ON/OFF) bursty arrival process.
///
/// While ON, arrivals are Poisson at `on_rate_per_sec`; while OFF, there
/// are no arrivals. State holding times are exponential. The process keeps
/// internal state (current phase and its end time), so one instance models
/// one stream.
#[derive(Debug, Clone)]
pub struct OnOff {
    /// Mean gap between arrivals while ON, µs.
    mean_gap_us: f64,
    /// Mean ON and OFF period lengths, µs.
    mean_on_us: f64,
    mean_off_us: f64,
    /// End of the current ON period, if we are in one.
    on_until: Option<SimTime>,
    /// When the next ON period begins (valid while OFF).
    next_on: SimTime,
}

impl OnOff {
    /// Create the process; the first ON period starts at a random point
    /// within one mean OFF period of time zero.
    pub fn new(params: OnOffParams, rng: &mut SimRng) -> Self {
        assert!(params.on_rate_per_sec > 0.0);
        assert!(params.mean_on > SimDuration::ZERO);
        assert!(params.mean_off > SimDuration::ZERO);
        let mean_off_us = params.mean_off.as_micros() as f64;
        let first_on = rng.exp(mean_off_us) as u64;
        OnOff {
            mean_gap_us: 1e6 / params.on_rate_per_sec,
            mean_on_us: params.mean_on.as_micros() as f64,
            mean_off_us,
            on_until: None,
            next_on: SimTime::from_micros(first_on),
        }
    }

    /// The next arrival strictly after `now`.
    pub fn next_after(&mut self, now: SimTime, rng: &mut SimRng) -> SimTime {
        let mut t = now;
        loop {
            match self.on_until {
                Some(end) if t < end => {
                    // In an ON period: Poisson arrival, if it lands before
                    // the period ends.
                    let gap = rng.exp(self.mean_gap_us).max(1.0) as u64;
                    let cand = t + SimDuration::from_micros(gap);
                    if cand < end {
                        return cand;
                    }
                    // Burst ended before the candidate arrival: go OFF.
                    let off = rng.exp(self.mean_off_us).max(1.0) as u64;
                    self.next_on = end + SimDuration::from_micros(off);
                    self.on_until = None;
                    t = end;
                }
                _ => {
                    // OFF: jump to the start of the next ON period.
                    let start = self.next_on.max(t);
                    let on = rng.exp(self.mean_on_us).max(1.0) as u64;
                    self.on_until = Some(start + SimDuration::from_micros(on));
                    t = start;
                }
            }
        }
    }
}

/// The periodic-update write burst pattern.
///
/// SunOS's `update` daemon flushes all dirty buffers every `period`
/// (classically 30 s). §5.2 attributes the bursty *write* arrival pattern
/// to this policy. This helper just exposes the tick times; the file
/// system's buffer cache decides what to flush at each tick.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicTicks {
    period: SimDuration,
}

impl PeriodicTicks {
    /// Ticks every `period`.
    ///
    /// # Panics
    /// Panics if the period is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(period > SimDuration::ZERO);
        PeriodicTicks { period }
    }

    /// The first tick at or after `now`.
    pub fn next_at_or_after(&self, now: SimTime) -> SimTime {
        let p = self.period.as_micros();
        let n = now.as_micros();
        SimTime::from_micros(n.div_ceil(p) * p)
    }

    /// The tick period.
    pub fn period(&self) -> SimDuration {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_close() {
        let p = Poisson::per_sec(50.0);
        let mut rng = SimRng::new(1);
        let mut now = SimTime::ZERO;
        let horizon = SimTime::from_micros(200_000_000); // 200 s
        let mut count = 0u64;
        while now < horizon {
            now = p.next_after(now, &mut rng);
            count += 1;
        }
        let rate = count as f64 / 200.0;
        assert!((rate - 50.0).abs() < 3.0, "rate {rate}");
    }

    #[test]
    fn poisson_strictly_advances() {
        let p = Poisson::per_sec(1e5);
        let mut rng = SimRng::new(2);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let next = p.next_after(now, &mut rng);
            assert!(next > now);
            now = next;
        }
    }

    fn onoff_params() -> OnOffParams {
        OnOffParams {
            mean_on: SimDuration::from_millis(500),
            mean_off: SimDuration::from_secs(10),
            on_rate_per_sec: 200.0,
        }
    }

    #[test]
    fn onoff_mean_rate_formula() {
        let p = onoff_params();
        // 200 * 0.5/(0.5+10) ~ 9.52/s
        assert!((p.mean_rate_per_sec() - 9.5238).abs() < 0.01);
    }

    #[test]
    fn onoff_long_run_rate_matches() {
        let mut rng = SimRng::new(3);
        let mut proc = OnOff::new(onoff_params(), &mut rng);
        let horizon = SimTime::from_micros(3_600_000_000); // 1 h
        let mut now = SimTime::ZERO;
        let mut count = 0u64;
        loop {
            now = proc.next_after(now, &mut rng);
            if now >= horizon {
                break;
            }
            count += 1;
        }
        let rate = count as f64 / 3600.0;
        let expect = onoff_params().mean_rate_per_sec();
        assert!(
            (rate - expect).abs() < 0.15 * expect,
            "rate {rate} vs {expect}"
        );
    }

    #[test]
    fn onoff_is_bursty() {
        // Squared coefficient of variation of inter-arrival gaps must be
        // well above 1 (Poisson has CV^2 = 1).
        let mut rng = SimRng::new(4);
        let mut proc = OnOff::new(onoff_params(), &mut rng);
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..20_000 {
            let next = proc.next_after(now, &mut rng);
            gaps.push((next - now).as_secs_f64());
            now = next;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv2 = var / (mean * mean);
        assert!(cv2 > 3.0, "CV^2 {cv2} not bursty");
    }

    #[test]
    fn periodic_ticks_align() {
        let t = PeriodicTicks::new(SimDuration::from_secs(30));
        assert_eq!(
            t.next_at_or_after(SimTime::ZERO),
            SimTime::ZERO // 0 is a multiple of the period
        );
        assert_eq!(
            t.next_at_or_after(SimTime::from_micros(1)),
            SimTime::from_micros(30_000_000)
        );
        assert_eq!(
            t.next_at_or_after(SimTime::from_micros(30_000_000)),
            SimTime::from_micros(30_000_000)
        );
        assert_eq!(
            t.next_at_or_after(SimTime::from_micros(30_000_001)),
            SimTime::from_micros(60_000_000)
        );
    }
}

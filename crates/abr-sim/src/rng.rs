//! Deterministic random numbers.
//!
//! Every experiment in the reproduction is keyed by a single `u64` seed.
//! Independent components (arrival process, file popularity, drift, ...)
//! draw from *named substreams* derived from that seed, so adding a new
//! consumer of randomness never perturbs the draws seen by existing ones —
//! a property the on/off day-pair comparisons rely on.
//!
//! The generator is xoshiro256++, seeded by rand_core 0.6's default
//! `seed_from_u64` expansion (one PCG32 output per 32-bit word of state).
//! Floats take the top 53 bits of a draw; `below` and `index` use
//! widening-multiply rejection. These are the streams rand 0.8.5's
//! `SmallRng` produced on 64-bit targets, which every committed result
//! was made with; `sim_rng_draws_are_pinned` in
//! `tests/sampler_goldens.rs` pins them.

/// A seeded random number generator for simulation use.
///
/// xoshiro256++ (fast, non-cryptographic — appropriate for simulation)
/// plus substream derivation.
#[derive(Clone)]
pub struct SimRng {
    s: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Create a generator from a master seed.
    pub fn new(seed: u64) -> Self {
        let mut pcg = seed;
        let mut word = || {
            pcg = pcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(11_634_580_027_462_260_723);
            let xorshifted = (((pcg >> 18) ^ pcg) >> 27) as u32;
            u64::from(xorshifted.rotate_right((pcg >> 59) as u32))
        };
        let s = [(); 4].map(|()| word() | word() << 32);
        SimRng { s, seed }
    }

    /// The master seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive an independent substream identified by `name`.
    ///
    /// The derivation mixes the master seed with a hash of the name
    /// (SplitMix64 finalizer over FNV-1a of the bytes), so distinct names
    /// give statistically independent streams and the same name always
    /// gives the same stream.
    pub fn substream(&self, name: &str) -> SimRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        SimRng::new(splitmix64(self.seed ^ h))
    }

    /// Derive an independent substream identified by an integer index
    /// (e.g. a day number).
    pub fn substream_idx(&self, name: &str, idx: u64) -> SimRng {
        let base = self.substream(name);
        SimRng::new(splitmix64(base.seed ^ splitmix64(idx)))
    }

    /// Next 64 random bits (one xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.s;
        let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`, with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Widening multiply; reject the low products that would bias it.
        let zone = (bound << bound.leading_zeros()).wrapping_sub(1);
        loop {
            let m = u128::from(self.next_u64()) * u128::from(bound);
            if m as u64 <= zone {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform usize in `[0, bound)`.
    #[inline]
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "index(0)");
        self.below(bound as u64) as usize
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed `f64` with the given mean (inverse
    /// transform sampling).
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        debug_assert!(mean > 0.0);
        let u = 1.0 - self.f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function, also
/// useful as a stateless hash for deterministic derived values.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(8);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_stable_and_distinct() {
        let root = SimRng::new(42);
        let mut s1 = root.substream("arrivals");
        let mut s1b = root.substream("arrivals");
        let mut s2 = root.substream("popularity");
        assert_eq!(s1.next_u64(), s1b.next_u64());
        assert_ne!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn indexed_substreams_distinct_per_index() {
        let root = SimRng::new(42);
        let mut d0 = root.substream_idx("day", 0);
        let mut d1 = root.substream_idx("day", 1);
        assert_ne!(d0.next_u64(), d1.next_u64());
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = SimRng::new(1);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.exp(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(2);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn chance_rate_is_close() {
        let mut r = SimRng::new(3);
        let hits = (0..100_000).filter(|_| r.chance(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(4);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }
}

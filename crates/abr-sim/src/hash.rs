//! Deterministic fast hashing for simulation-internal maps.
//!
//! `std::collections::HashMap`'s default hasher (SipHash with a
//! per-process random key) is built to resist hash-flooding from
//! untrusted input. Simulation tables hash only internal keys — block
//! numbers, i-node numbers, slot indices — so that defense buys nothing
//! and costs ~2× per probe on the per-operation hot path (cache
//! references, i-node lookups). [`FastHasher`] is a fixed-key
//! multiply-xor hasher in the Fx/wyhash family: a few cycles per word,
//! identical across processes.
//!
//! Determinism note: none of the repo's outputs may depend on map
//! iteration order (the determinism gates already enforce this — the
//! std hasher's per-process random key would otherwise make reruns
//! disagree), so swapping the hasher cannot change any artifact byte.

use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier from the golden ratio, the usual Fx-style constant.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A fixed-key multiply-xor hasher. Fast on the small integer keys the
/// simulator uses everywhere; not for untrusted input.
#[derive(Default, Clone)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One extra round so keys differing only in high bits still
        // spread over the low bits HashMap indexes with.
        let h = self.state.wrapping_mul(K);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            #[expect(clippy::expect_used, reason = "chunks_exact guarantees length")]
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(tail) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
}

/// A `HashMap` keyed with [`FastHasher`].
#[allow(clippy::disallowed_types, reason = "fixed key, so a repeatable order")]
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` keyed with [`FastHasher`].
#[allow(clippy::disallowed_types, reason = "fixed key, so a repeatable order")]
pub type FastSet<K> = std::collections::HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
#[allow(clippy::disallowed_types, reason = "test code, not a simulated result")]
mod tests {
    use super::*;

    fn hash_of(v: u64) -> u64 {
        let mut h = FastHasher::default();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(0xDEAD_BEEF), hash_of(0xDEAD_BEEF));
        let mut m: FastMap<u64, u32> = FastMap::default();
        m.insert(7, 1);
        assert_eq!(m.get(&7), Some(&1));
    }

    #[test]
    fn nearby_keys_spread() {
        // Sequential block numbers must not collide in the low bits a
        // power-of-two table indexes with. An ideal random function
        // mapping 1024 keys into 4096 low-12-bit bins yields ~906
        // distinct values in expectation; require within ~5% of that
        // (the hasher is deterministic, so this measures quality, not
        // luck — catastrophic clustering would land far below).
        let mut low = std::collections::HashSet::new();
        for k in 0..1024u64 {
            low.insert(hash_of(k) & 0xFFF);
        }
        assert!(
            low.len() > 860,
            "only {} distinct low-12-bit values",
            low.len()
        );
    }

    #[test]
    fn byte_writes_match_length_discrimination() {
        let mut a = FastHasher::default();
        a.write(b"ab");
        let mut b = FastHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }
}

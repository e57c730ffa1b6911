//! Whole-disk cylinder permutation — the [Vongsathorn & Carson 1990]
//! baseline.
//!
//! The paper's Related Work (§1.1) contrasts block rearrangement with
//! adaptive *cylinder* rearrangement: "disk cylinders are dynamically
//! rearranged using the organ pipe heuristic, according to observed data
//! access frequencies." This module provides that mechanism so the
//! comparison can be run head-to-head: a bijective map from virtual
//! cylinders to physical cylinders, installed by an ioctl that physically
//! relocates the data (buffering whole cylinders in host memory, as the
//! original system did).
//!
//! Differences from block rearrangement, by construction:
//! * *everything* moves (the layout of cold data is not preserved);
//! * granularity is a whole cylinder, so cold blocks ride along with hot
//!   ones;
//! * there is no reserved space — the disk is fully occupied by the
//!   permuted cylinders.

#![deny(clippy::cast_possible_truncation)]

/// A bijective virtual-cylinder → physical-cylinder map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CylinderMap {
    map: Vec<u32>,
}

impl CylinderMap {
    /// The identity map over `n` cylinders.
    pub fn identity(n: u32) -> Self {
        CylinderMap {
            map: (0..n).collect(),
        }
    }

    /// Build from an explicit permutation.
    ///
    /// # Panics
    /// Panics if `map` is not a permutation of `0..map.len()`.
    pub fn new(map: Vec<u32>) -> Self {
        let mut seen = vec![false; map.len()];
        for &m in &map {
            assert!(
                (m as usize) < map.len() && !seen[m as usize],
                "not a permutation"
            );
            seen[m as usize] = true;
        }
        // Sanitize builds cross-check with the shared helper so the
        // permutation invariant is enforced by the same code the other
        // maps use.
        #[cfg(feature = "sanitize")]
        if let Err(e) = abr_sim::sanitize::check_permutation(
            map.iter().map(|&m| u64::from(m)),
            map.len() as u64,
        ) {
            panic!("cylinder map is not a permutation: {e}");
        }
        CylinderMap { map }
    }

    /// Number of cylinders covered.
    pub fn len(&self) -> u32 {
        abr_sim::narrow::u32_from_usize(self.map.len())
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Physical cylinder for a virtual cylinder.
    ///
    /// # Panics
    /// Debug-asserts the cylinder is in range.
    #[inline]
    pub fn physical(&self, virtual_cyl: u32) -> u32 {
        debug_assert!((virtual_cyl as usize) < self.map.len());
        self.map[virtual_cyl as usize]
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(i, &m)| i == m as usize)
    }

    /// Cylinders whose physical home differs between `self` and `next`
    /// (the set that must physically move when switching maps).
    pub fn moved_cylinders(&self, next: &CylinderMap) -> Vec<u32> {
        assert_eq!(self.len(), next.len(), "maps over different disks");
        (0..self.len())
            .filter(|&v| self.physical(v) != next.physical(v))
            .collect()
    }

    /// Build the organ-pipe permutation for per-virtual-cylinder access
    /// counts: the most-referenced cylinder goes to the middle physical
    /// cylinder, the next to its neighbours, alternating outward —
    /// Vongsathorn & Carson's daily arrangement. Cylinder 0 is pinned in
    /// place (it holds the disk label).
    pub fn organ_pipe(counts: &[u64]) -> Self {
        let n = abr_sim::narrow::u32_from_usize(counts.len());
        if n <= 1 {
            return CylinderMap::identity(n);
        }
        // Virtual cylinders 1.. ranked by count descending (ties:
        // cylinder order, deterministically). Cylinder 0 stays put.
        let mut ranked: Vec<u32> = (1..n).collect();
        ranked.sort_by_key(|&v| (std::cmp::Reverse(counts[v as usize]), v));
        // Physical fill order over cylinders 1..: middle, then
        // alternating neighbours.
        let middle = n / 2;
        let mut fill = Vec::with_capacity(n as usize - 1);
        fill.push(middle);
        for d in 1..=n {
            if middle >= d && middle - d >= 1 {
                fill.push(middle - d);
            }
            if middle + d < n {
                fill.push(middle + d);
            }
            if fill.len() >= n as usize - 1 {
                break;
            }
        }
        let mut map = vec![0u32; n as usize];
        for (v, p) in ranked.into_iter().zip(fill) {
            map[v as usize] = p;
        }
        CylinderMap::new(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_maps_to_self() {
        let m = CylinderMap::identity(10);
        assert!(m.is_identity());
        for c in 0..10 {
            assert_eq!(m.physical(c), c);
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_duplicates() {
        CylinderMap::new(vec![0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_out_of_range() {
        CylinderMap::new(vec![0, 3]);
    }

    #[test]
    fn organ_pipe_puts_hottest_in_middle() {
        // Counts: cylinder 7 hottest, then 2, then 4.
        let mut counts = vec![0u64; 11];
        counts[7] = 100;
        counts[2] = 50;
        counts[4] = 25;
        let m = CylinderMap::organ_pipe(&counts);
        assert_eq!(m.physical(7), 5); // middle of 11
                                      // Next two flank the middle.
        let p2 = m.physical(2);
        let p4 = m.physical(4);
        assert!(p2 == 4 || p2 == 6);
        assert!(p4 == 4 || p4 == 6);
        assert_ne!(p2, p4);
        // Cylinder 0 (the label) is pinned.
        assert_eq!(m.physical(0), 0);
        // Still a permutation.
        let mut all: Vec<u32> = (0..11).map(|v| m.physical(v)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn organ_pipe_uniform_counts_deterministic() {
        let a = CylinderMap::organ_pipe(&[5; 20]);
        let b = CylinderMap::organ_pipe(&[5; 20]);
        assert_eq!(a, b);
    }

    #[test]
    fn moved_cylinders_diff() {
        let a = CylinderMap::identity(5);
        let b = CylinderMap::new(vec![0, 2, 1, 3, 4]);
        assert_eq!(a.moved_cylinders(&b), vec![1, 2]);
        assert!(a.moved_cylinders(&a).is_empty());
    }
}

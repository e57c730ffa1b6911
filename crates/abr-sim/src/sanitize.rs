//! Runtime invariant checks for the `sanitize` build feature.
//!
//! The static rules (clippy's `disallowed-methods` and
//! `disallowed-types`, `clippy.toml`) catch
//! *sources* of nondeterminism; these helpers catch *consequences* — a
//! block table that stops being a bijection, a stripe/cylinder map that
//! stops being a permutation, a counter that runs backwards. Product
//! crates (`abr-driver`, `abr-array`, `abr-obs`) call them behind their
//! `sanitize` cargo feature from `debug`-style assertion points on the
//! rearrangement path.
//!
//! Every helper returns `Err(description)` instead of panicking so call
//! sites can choose between `assert!`-style aborts (the default wiring)
//! and soft reporting in tests.

/// Check that `values` is a permutation of `0..n` (every value hit
/// exactly once).
pub fn check_permutation(values: impl IntoIterator<Item = u64>, n: u64) -> Result<(), String> {
    let mut seen = vec![false; usize::try_from(n).map_err(|_| "domain too large".to_string())?];
    let mut count: u64 = 0;
    for v in values {
        if v >= n {
            return Err(format!("value {v} outside domain 0..{n}"));
        }
        let slot = &mut seen[v as usize];
        if *slot {
            return Err(format!("value {v} appears more than once"));
        }
        *slot = true;
        count += 1;
    }
    if count != n {
        return Err(format!("{count} values for a domain of {n}"));
    }
    Ok(())
}

/// Check that `forward` and `backward` describe mutually inverse maps:
/// every `(k, v)` in `forward` has `(v, k)` in `backward` and vice
/// versa. Pairs may arrive in any order.
pub fn check_bijection(
    forward: impl IntoIterator<Item = (u64, u64)>,
    backward: impl IntoIterator<Item = (u64, u64)>,
) -> Result<(), String> {
    let mut fwd: Vec<(u64, u64)> = forward.into_iter().collect();
    let mut inv: Vec<(u64, u64)> = backward.into_iter().map(|(k, v)| (v, k)).collect();
    fwd.sort_unstable();
    inv.sort_unstable();
    for w in fwd.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(format!("forward map has duplicate key {}", w[0].0));
        }
    }
    let mut vals: Vec<u64> = fwd.iter().map(|&(_, v)| v).collect();
    vals.sort_unstable();
    for w in vals.windows(2) {
        if w[0] == w[1] {
            return Err(format!("forward map sends two keys to value {}", w[0]));
        }
    }
    if fwd != inv {
        let n = fwd.len();
        let m = inv.len();
        if n != m {
            return Err(format!("forward has {n} entries but backward has {m}"));
        }
        for (f, b) in fwd.iter().zip(inv.iter()) {
            if f != b {
                return Err(format!(
                    "forward says {} -> {} but backward disagrees ({} -> {})",
                    f.0, f.1, b.0, b.1
                ));
            }
        }
    }
    Ok(())
}

/// Check that a counter named `name` did not decrease between two
/// snapshots.
pub fn check_monotone(name: &str, prev: u64, cur: u64) -> Result<(), String> {
    if cur < prev {
        return Err(format!("counter `{name}` ran backwards: {prev} -> {cur}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_accepts_identity_and_shuffles() {
        assert!(check_permutation(0..10, 10).is_ok());
        assert!(check_permutation([3, 1, 0, 2].into_iter(), 4).is_ok());
    }

    #[test]
    fn permutation_rejects_duplicates_holes_and_overflow() {
        assert!(check_permutation([0, 0, 1].into_iter(), 3).is_err());
        assert!(check_permutation([0, 1].into_iter(), 3).is_err());
        assert!(check_permutation([0, 1, 5].into_iter(), 3).is_err());
    }

    #[test]
    fn bijection_accepts_mutual_inverses_any_order() {
        let fwd = [(10u64, 1u64), (20, 0), (30, 2)];
        let bwd = [(0u64, 20u64), (2, 30), (1, 10)];
        assert!(check_bijection(fwd, bwd).is_ok());
    }

    #[test]
    fn bijection_rejects_dangling_and_conflicting_entries() {
        // backward missing an entry
        assert!(check_bijection([(10, 1), (20, 2)], [(1u64, 10u64)]).is_err());
        // backward points at the wrong key
        assert!(check_bijection([(10, 1)], [(1u64, 99u64)]).is_err());
        // two keys share a value
        assert!(check_bijection([(10, 1), (20, 1)], [(1u64, 10u64), (1, 20)]).is_err());
    }

    #[test]
    fn monotone_rejects_regressions() {
        assert!(check_monotone("ops", 5, 5).is_ok());
        assert!(check_monotone("ops", 5, 6).is_ok());
        assert!(check_monotone("ops", 6, 5).is_err());
    }
}

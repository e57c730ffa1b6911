//! `BlockCounts` against the `Vec<u64>` it stands for: built from
//! random descending sequences, it must read back as the same sequence
//! (length, indexing, iteration, top-k shares, JSON bytes), and a merge
//! of 1–8 members must equal their concatenation sorted descending.

use abr_core::BlockCounts;
use abr_sim::{FromJson, JsonValue, SimRng};

/// A descending sequence shaped like a day's counts: a few hot blocks
/// with large counts and a long tail of ones and twos.
fn descending(rng: &mut SimRng) -> Vec<u64> {
    let len = match rng.below(4) {
        0 => rng.index(4),
        _ => rng.index(3_000),
    };
    let top = 1 + rng.below(500);
    let mut v: Vec<u64> = (0..len)
        .map(|_| {
            let r = rng.f64();
            1 + (top as f64 * r * r * r) as u64
        })
        .collect();
    v.sort_by(|a, b| b.cmp(a));
    v
}

fn share(v: &[u64], k: usize) -> f64 {
    let total: u64 = v.iter().sum();
    v.iter().take(k).sum::<u64>() as f64 / total as f64
}

#[track_caller]
fn assert_reads_back(c: &BlockCounts, v: &[u64]) {
    assert_eq!(c.len(), v.len());
    assert_eq!(c.is_empty(), v.is_empty());
    for i in 0..v.len() + 2 {
        assert_eq!(c.get(i), v.get(i).copied(), "index {i}");
    }
    assert!(c.iter().eq(v.iter()));
    let mut n = 0;
    for &x in c {
        assert_eq!(x, v[n]);
        n += 1;
    }
    assert_eq!(n, v.len());
    assert_eq!(c.total(), v.iter().sum::<u64>());
    for k in [0, 1, 21, 100, 500, 2_000, v.len(), v.len() + 1] {
        assert_eq!(c.top_sum(k), v.iter().take(k).sum::<u64>(), "top {k}");
        let (a, b) = (c.top_sum(k) as f64 / c.total() as f64, share(v, k));
        assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
    }
    let want = JsonValue::from(v.to_vec());
    assert_eq!(c.to_json().to_string(), want.to_string());
    assert_eq!(c.to_json().pretty(), want.pretty());
    assert_eq!(&BlockCounts::from_json(&want).expect("reads back"), c);
}

#[test]
fn runs_read_back_as_the_sequence() {
    let mut rng = SimRng::new(0xB10C);
    for _ in 0..100 {
        let v = descending(&mut rng);
        let c: BlockCounts = v.iter().copied().collect();
        assert_reads_back(&c, &v);
    }
}

#[test]
fn merge_is_concatenate_and_sort() {
    let mut rng = SimRng::new(0x3E76E);
    for _ in 0..60 {
        let members: Vec<Vec<u64>> = (0..1 + rng.index(8))
            .map(|_| descending(&mut rng))
            .collect();
        let parts: Vec<BlockCounts> = members
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();
        let merged = BlockCounts::merge(&parts);
        let mut all: Vec<u64> = members.concat();
        all.sort_by(|a, b| b.cmp(a));
        assert_reads_back(&merged, &all);
        let built: BlockCounts = all.iter().copied().collect();
        assert_eq!(merged, built);
    }
}

#[test]
fn one_member_merges_to_itself() {
    let c: BlockCounts = [9, 9, 4, 1, 1, 1].into_iter().collect();
    assert_eq!(BlockCounts::merge([&c]), c);
    assert_eq!(BlockCounts::merge([]), BlockCounts::default());
}

#[test]
fn increasing_counts_are_rejected() {
    let json = JsonValue::from(vec![3u64, 1, 2]);
    assert!(BlockCounts::from_json(&json).is_err());
    let built = std::panic::catch_unwind(|| [3u64, 1, 2].into_iter().collect::<BlockCounts>());
    assert!(built.is_err());
}

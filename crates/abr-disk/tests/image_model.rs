//! `Run::{slice, overlay, xor_into}` on a block's image — what it holds
//! as a list of runs — against a per-sector oracle: random partitions of
//! a block into runs — zero, seeded, multi-term and raw, drawn from few
//! streams so that terms cancel and neighbours continue one another —
//! must slice, overlay and XOR to exactly the sectors the same
//! operations give one `Form` at a time, and come out as maximal runs.

use abr_disk::store::{Form, Run};
use abr_sim::SimRng;
use std::sync::Arc;

/// What a block holds, as the array computes with it.
type Image = Arc<[Run]>;

/// The sector-wise XOR of equal-length images.
fn xor(images: &[Image]) -> Image {
    Run::xor_into(images, &mut Vec::new(), &mut Vec::new())
}

fn is_zero(img: &Image) -> bool {
    img.iter().all(Run::is_zero)
}

const SECTORS: u32 = 16;

/// One sector's form: the per-sector expansion of a random choice among
/// a few block-long streams (so that the sector after it often holds the
/// same choice, advanced), now and then raw bytes.
fn random_base(rng: &mut SimRng, at: u32) -> Form {
    let stream = |rng: &mut SimRng| Form::Seeded((1 + rng.below(4), 0)).translate(at);
    match rng.below(8) {
        0 => Form::Zero,
        1 => Form::Raw(Box::new([rng.below(256) as u8; 512])),
        2..=4 => stream(rng),
        _ => {
            let operands: Vec<Form> = (0..2 + rng.below(3)).map(|_| stream(rng)).collect();
            Form::xor_all(operands.iter().map(|form| (form, 0)), &mut Vec::new())
        }
    }
}

/// A random image of `sectors` sectors starting `at` sectors into the
/// streams, not necessarily in maximal runs.
fn random_image(rng: &mut SimRng, mut at: u32, sectors: u32) -> Image {
    let (mut runs, end) = (Vec::new(), at + sectors);
    while at < end {
        let base = random_base(rng, at);
        let raw = matches!(base, Form::Raw(_));
        let len = if raw {
            1
        } else {
            1 + rng.below(u64::from(end - at)) as u32
        };
        runs.push(Run { base, len });
        at += len;
    }
    runs.into()
}

fn sectors_of(img: &Image) -> Vec<Form> {
    img.iter().flat_map(Run::forms).collect()
}

#[track_caller]
fn assert_is(img: &Image, want: &[Form], what: &str) {
    assert_eq!(sectors_of(img), want, "{what}");
    assert_eq!(Run::sectors(img) as usize, want.len(), "{what}");
    for pair in img.windows(2) {
        let raw = matches!(pair[0].base, Form::Raw(_));
        let continues = !raw && pair[0].base.translate(pair[0].len) == pair[1].base;
        assert!(!continues, "{what}: {pair:?} is one run");
    }
}

#[test]
fn slice_overlay_and_xor_agree_with_a_per_sector_oracle() {
    let mut rng = SimRng::new(0x1_3A6E);
    let (mut merged, mut cancelled) = (0, 0);
    for _ in 0..3_000 {
        let images: Vec<Image> = (0..2 + rng.below(3))
            .map(|_| random_image(&mut rng, 0, SECTORS))
            .collect();
        let oracle: Vec<Vec<Form>> = images.iter().map(sectors_of).collect();

        let off = rng.below(u64::from(SECTORS)) as u32;
        let n = 1 + rng.below(u64::from(SECTORS - off)) as u32;
        let (lo, hi) = (off as usize, (off + n) as usize);
        // A slice keeps the cuts it was given, so only its sectors are
        // compared.
        assert_eq!(
            sectors_of(&Run::slice(&images[0], off, n)),
            oracle[0][lo..hi]
        );

        let data = random_image(&mut rng, off, n);
        let mut laid = oracle[0].clone();
        laid[lo..hi].clone_from_slice(&sectors_of(&data));
        let over = Run::overlay(&images[0], off, &data);
        assert_is(&over, &laid, "overlay");
        merged += (over.len() < Run::slice(&images[0], 0, off).len() + data.len()) as usize;

        let mut scratch = Vec::new();
        let sum: Vec<Form> = (0..SECTORS as usize)
            .map(|s| Form::xor_all(oracle.iter().map(|img| (&img[s], 0)), &mut scratch))
            .collect();
        let xored = xor(&images);
        assert_is(&xored, &sum, "xor");
        cancelled += sum.contains(&Form::Zero) as usize;
        let zero = |base: &Form| {
            Run {
                base: base.clone(),
                len: 1,
            }
            .is_zero()
        };
        assert_eq!(is_zero(&xored), sum.iter().all(zero));
        // x ⊕ x = 0, whatever the cuts.
        let twice = [images[0].clone(), random_recut(&mut rng, &images[0])];
        assert!(is_zero(&xor(&twice)));
    }
    assert!(
        merged > 100 && cancelled > 100,
        "{merged} merged, {cancelled} cancelled"
    );
}

/// The same sectors, cut at other places.
fn random_recut(rng: &mut SimRng, img: &Image) -> Image {
    let mut runs = Vec::new();
    let mut at = 0;
    while at < Run::sectors(img) {
        let n = 1 + rng.below(u64::from(Run::sectors(img) - at)) as u32;
        runs.extend(Run::slice(img, at, n).iter().cloned());
        at += n;
    }
    runs.into()
}

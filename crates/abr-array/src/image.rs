//! What a block (or a span of one) holds, as the array computes with
//! it: a short list of [`Run`]s. A block is written as one payload, so
//! its image is usually a single run, and the XOR of aligned runs is
//! one [`Form::xor_all`] on their bases — parity, reconstruction
//! and the scrub verdict cost one term-list merge per *run*, not one
//! per sector (see the `abr_disk::store` module docs for the algebra).

use abr_disk::store::{Form, Run};
use std::sync::Arc;

/// The contents of consecutive sectors as maximal runs. A value: every
/// operation returns a new image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image(Vec<Run>);

impl From<Vec<Run>> for Image {
    fn from(runs: Vec<Run>) -> Self {
        Image(runs)
    }
}

impl std::ops::Deref for Image {
    type Target = [Run];

    fn deref(&self) -> &[Run] {
        &self.0
    }
}

impl Image {
    /// The runs, shared — what a write request carries.
    pub fn runs(&self) -> Arc<[Run]> {
        self.0[..].into()
    }

    /// Sectors covered.
    pub fn sectors(&self) -> u32 {
        self.0.iter().map(|run| run.len).sum()
    }

    /// Whether every sector reads as zeroes. Runs that cancelled are the
    /// zero form; anything else is materialized, so the verdict is exact
    /// even when a raw sector spells out a seeded stream.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(Run::is_zero)
    }

    /// Sectors `[off, off + n)` of the image.
    pub fn slice(&self, off: u32, n: u32) -> Image {
        Image(Run::slice_of(&self.0, off, n).collect())
    }

    /// The image with `data` laid over it from sector `off` on.
    pub fn overlay(&self, off: u32, data: &Image) -> Image {
        let end = off + data.sectors();
        let mut out = Vec::with_capacity(self.0.len() + data.0.len());
        let head = Run::slice_of(&self.0, 0, off);
        let tail = Run::slice_of(&self.0, end, self.sectors() - end);
        for run in head.chain(data.0.iter().cloned()).chain(tail) {
            run.push_onto(&mut out);
        }
        Image(out)
    }

    /// The run holding sector `s`, and how far into it `s` is.
    fn run_at(&self, mut s: u32) -> (&Run, u32) {
        for run in &self.0 {
            if s < run.len {
                return (run, s);
            }
            s -= run.len;
        }
        unreachable!("sector beyond the image")
    }

    /// Sector-wise XOR of equal-length images (parity accumulation):
    /// one term-list merge per stretch on which no operand changes run.
    pub fn xor(images: &[Image]) -> Image {
        let total = images.first().map_or(0, |img| img.sectors());
        debug_assert!(images.iter().all(|img| img.sectors() == total));
        let (mut out, mut scratch) = (Vec::with_capacity(1), Vec::new());
        let mut done = 0;
        while done < total {
            let here = || images.iter().map(|img| img.run_at(done));
            let len = here().map(|(run, k)| run.len - k).min().unwrap_or(total);
            let base = Form::xor_all(here().map(|(run, k)| (&run.base, k)), &mut scratch);
            Run { base, len }.push_onto(&mut out);
            done += len;
        }
        Image(out)
    }
}

//! What a block (or a span of one) holds, as the array computes with
//! it: a short list of [`Run`]s. A block is written as one payload, so
//! its image is usually a single run, and the XOR of aligned runs is
//! one [`Form::xor_all`] on their bases — parity, reconstruction
//! and the scrub verdict cost one term-list merge per *run*, not one
//! per sector (see the `abr_disk::store` module docs for the algebra).
//!
//! An image shares its runs: cloning it, handing it to a write request,
//! slicing a whole block or laying maximal runs over one copies nothing. The volume
//! builds results in scratch space it owns and copies each once into its
//! image.

use abr_disk::store::{Form, Run, Term};
use std::ops::Deref;
use std::sync::Arc;

/// The contents of consecutive sectors as maximal runs. A value: every
/// operation returns a new image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image(Arc<[Run]>);

impl From<Arc<[Run]>> for Image {
    /// Adopts `runs` as they are cut.
    fn from(runs: Arc<[Run]>) -> Self {
        Image(runs)
    }
}

impl From<Vec<Run>> for Image {
    fn from(runs: Vec<Run>) -> Self {
        Image(runs.into())
    }
}

impl Deref for Image {
    type Target = [Run];

    fn deref(&self) -> &[Run] {
        &self.0
    }
}

/// The run of `runs` holding sector `s`, and how far into it `s` is.
fn run_at(runs: &[Run], mut s: u32) -> (&Run, u32) {
    for run in runs {
        if s < run.len {
            return (run, s);
        }
        s -= run.len;
    }
    unreachable!("sector beyond the image")
}

/// The sector-wise XOR of equal-length `operands`, one stretch at a
/// time: each stretch on which no operand changes run goes to `emit` as
/// one run (one term-list merge), in order, until `emit` returns
/// `false`. Whether every stretch went out.
fn xor_stretches<T: Deref<Target = [Run]>>(
    operands: &[T],
    terms: &mut Vec<Term>,
    mut emit: impl FnMut(Run) -> bool,
) -> bool {
    let sectors = |op: &T| op.iter().map(|r| r.len).sum::<u32>();
    let total = operands.first().map_or(0, sectors);
    debug_assert!(operands.iter().all(|op| sectors(op) == total));
    let mut done = 0;
    while done < total {
        let here = || operands.iter().map(|op| run_at(op, done));
        let len = here().map(|(run, k)| run.len - k).min().unwrap_or(total);
        let base = Form::xor_all(here().map(|(run, k)| (&run.base, k)), terms);
        if !emit(Run { base, len }) {
            return false;
        }
        done += len;
    }
    true
}
/// The XOR of `operands`, built in `runs` and copied once into an image.
fn xor_into<T: Deref<Target = [Run]>>(
    operands: &[T],
    terms: &mut Vec<Term>,
    runs: &mut Vec<Run>,
) -> Image {
    runs.clear();
    xor_stretches(operands, terms, |run| {
        run.push_onto(runs);
        true
    });
    Image(runs.drain(..).collect())
}

impl Image {
    /// The runs, shared — what a write request carries.
    pub fn runs(&self) -> Arc<[Run]> {
        Arc::clone(&self.0)
    }

    /// Whether no run continues the one before it.
    fn is_maximal(&self) -> bool {
        let continues = |p: &[Run]| p[0].base.continues_as(p[0].len, &p[1].base);
        !self.0.windows(2).any(continues)
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
        if off == 0 && n == self.sectors() {
            return self.clone();
        }
        Image(Run::slice_of(&self.0, off, n).collect())
    }

    /// The image with `data` laid over it from sector `off` on.
    pub fn overlay(&self, off: u32, data: &Image) -> Image {
        let end = off + data.sectors();
        if off == 0 && end == self.sectors() && data.is_maximal() {
            return data.clone();
        }
        let mut out = Vec::with_capacity(self.0.len() + data.0.len());
        let head = Run::slice_of(&self.0, 0, off);
        let tail = Run::slice_of(&self.0, end, self.sectors() - end);
        for run in head.chain(data.0.iter().cloned()).chain(tail) {
            run.push_onto(&mut out);
        }
        Image(out.into())
    }

    /// Sector-wise XOR of equal-length images (parity accumulation):
    /// one term-list merge per stretch on which no operand changes run.
    pub fn xor(images: &[Image]) -> Image {
        Scratch::default().xor(images)
    }
}

/// Reusable space for the volume's image arithmetic: a result is built
/// here and copied once into its image, so reading or XORing a block
/// allocates that image and nothing else.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The result being built.
    runs: Vec<Run>,
    /// The term lists [`Form::xor_all`] merges.
    terms: Vec<Term>,
    /// One list per operand of a group XOR. Each member is read into
    /// its own: a read appends through [`Run::push_onto`], which would
    /// merge a member's first run into the last run of the one before.
    operands: Vec<Vec<Run>>,
}

impl Scratch {
    /// The image `read` appends to an empty list.
    pub(crate) fn read<E>(
        &mut self,
        read: impl FnOnce(&mut Vec<Run>) -> Result<(), E>,
    ) -> Result<Image, E> {
        self.runs.clear();
        read(&mut self.runs)?;
        Ok(Image(self.runs.drain(..).collect()))
    }

    /// `n` empty operand lists, to read a group into.
    pub(crate) fn operands(&mut self, n: usize) -> &mut [Vec<Run>] {
        if self.operands.len() < n {
            self.operands.resize_with(n, Vec::new);
        }
        self.operands[..n].iter_mut().for_each(Vec::clear);
        &mut self.operands[..n]
    }

    /// [`Image::xor`] of `images`.
    pub(crate) fn xor(&mut self, images: &[Image]) -> Image {
        xor_into(images, &mut self.terms, &mut self.runs)
    }

    /// The XOR of the first `n` operand lists.
    pub(crate) fn xor_operands(&mut self, n: usize) -> Image {
        xor_into(&self.operands[..n], &mut self.terms, &mut self.runs)
    }

    /// Whether the XOR of the first `n` operand lists reads as zeroes:
    /// exactly the verdict of [`Self::xor_operands`]`(n).is_zero()`,
    /// reached without building it and at the first stretch that is not.
    pub(crate) fn operands_cancel(&mut self, n: usize) -> bool {
        xor_stretches(&self.operands[..n], &mut self.terms, |run| run.is_zero())
    }
}

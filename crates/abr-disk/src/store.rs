//! Sparse in-memory sector store.
//!
//! Holds the disk's data contents so the reproduction can verify
//! *correctness* of the rearrangement machinery (a block read through the
//! remapping driver must return exactly what was written, across
//! copy-in/copy-out cycles and simulated crashes), not just its timing.
//! Unwritten sectors read as zeroes, like a freshly formatted disk.
//!
//! Layout: a paged arena. Sectors live in 64-sector pages that are
//! allocated on first write; a per-page bitmap records which sectors have
//! been written. A sector address resolves to `(page, offset)` by shift
//! and mask — no hashing, no per-sector allocation. The bitmap, not the
//! page contents, is the source of truth for "written": clearing a bit
//! makes the sector read as zero again without touching its bytes.
//!
//! # What a sector holds
//!
//! The driver only ever *copies* blocks and the array only ever *XORs*
//! them, so a sector's content is kept as a [`Form`], a value closed
//! under XOR, and bytes are produced only when somebody reads them:
//!
//! * **zero** — written, all zeroes: a bitmap bit and nothing else, in
//!   any page;
//! * **seeded** — one stream of the synthetic payload generator (see
//!   [`fill_seeded`]), held as a 16-byte `(seed, word offset)` marker.
//!   Nearly all of the simulation's write traffic is of this kind;
//! * **XOR of seeded streams** — what parity over seeded data is: a
//!   sorted list of `(seed, word)` terms. A term XORed in twice cancels,
//!   so `parity ⊕ old ⊕ new` is a symmetric difference of term lists and
//!   reconstructing a block from its row gives back its single marker;
//! * **raw** — 512 literal bytes in the page's 32 KB data area, which
//!   carries a bitmap of the sectors it holds: allocated on the page's
//!   first raw write, freed with its last raw sector. XOR with a raw
//!   sector materializes: the only operation that touches 512 bytes.
//!
//! [`SectorStore::read`] materializes any kind, so the observable
//! contents never depend on the representation; the kinds mix freely
//! within a page.
//!
//! # Runs
//!
//! A block is written as one payload, so its sectors are not sixteen
//! unrelated forms: sector *i* holds the first sector's form *advanced*
//! by *i* sectors — every term's word moved on by `i · WORDS_PER_SECTOR`
//! ([`Form::translate`]). Translation keeps term order, distinctness and
//! cancellation, so it commutes with XOR:
//!
//! ```text
//! xor_all(translate(a, k), translate(b, k)) == translate(xor_all(a, b), k)
//! ```
//!
//! and "n consecutive sectors holding one base form advanced sector by
//! sector" is itself a value, a [`Run`]: the XOR of aligned runs is
//! **one** [`Form::xor_all`] on their bases instead of n. The store
//! reads a range as its maximal runs ([`SectorStore::read_runs`]) and
//! writes a run in one call ([`SectorStore::write_run`]); a single
//! sector is the run of length one. An XOR run keeps **one** term list,
//! out of line in a store-level slab with a count of the sectors still
//! holding it; each sector's marker names the slot and its index within
//! the run. The slot is freed when the last of its sectors is
//! overwritten, and a store never handed such a form allocates nothing.
//! Raw bytes do not translate: a raw sector is always a run of one.
//!
//! What a block holds is then a short list of runs, shared as an
//! `Arc<[Run]>`, and the array's redundancy arithmetic is done on such
//! lists here: [`Run::slice`], [`Run::overlay`], and the XOR of aligned
//! lists one stretch at a time ([`Run::xor_stretches`]), a stretch being
//! a range on which no operand changes run.

use crate::SECTOR_SIZE;
use abr_sim::rng::splitmix64;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Sectors per arena page; pages are `64 * 512 B = 32 KB`, and one `u64`
/// bitmap covers exactly one page.
const PAGE_SECTORS: u64 = 64;
const PAGE_BYTES: usize = PAGE_SECTORS as usize * SECTOR_SIZE;
/// 8-byte words per sector in the seeded stream.
pub const WORDS_PER_SECTOR: u32 = (SECTOR_SIZE / 8) as u32;

/// Weyl increment (the splitmix64 gamma), spacing the per-word counter.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// Word `w` of the seeded payload stream for `seed`.
///
/// The stream is *counter-based*: every word mixes independently, so any
/// sector of a payload can be synthesized without generating its prefix,
/// and generation pipelines instead of chaining through a serial state.
#[inline]
pub fn seeded_word(seed: u64, w: u64) -> u64 {
    splitmix64(seed ^ w.wrapping_add(1).wrapping_mul(GAMMA))
}

/// Fill `buf` with the seeded stream for `seed`, starting at word
/// `start_word` (8 bytes per word).
///
/// # Panics
/// Panics if `buf.len()` is not a multiple of 8.
pub fn fill_seeded(seed: u64, start_word: u64, buf: &mut [u8]) {
    assert_eq!(buf.len() % 8, 0, "seeded payload length must be 8-aligned");
    for (w, chunk) in (start_word..).zip(buf.chunks_exact_mut(8)) {
        chunk.copy_from_slice(&seeded_word(seed, w).to_le_bytes());
    }
}

/// XOR the seeded stream of `term` into `buf`.
fn xor_seeded((seed, start_word): Term, buf: &mut [u8]) {
    for (w, chunk) in (u64::from(start_word)..).zip(buf.chunks_exact_mut(8)) {
        for (b, s) in chunk.iter_mut().zip(seeded_word(seed, w).to_le_bytes()) {
            *b ^= s;
        }
    }
}

/// One seeded stream: `(seed, start word)`.
pub type Term = (u64, u32);

/// What one sector holds, as a value closed under XOR (see the module
/// docs). Equal forms hold equal bytes; unequal forms *may* (a raw
/// sector can spell out a seeded stream), so an exact comparison of
/// unequal forms goes through [`Form::fill`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Form {
    /// All zeroes.
    Zero,
    /// The seeded stream of one term.
    Seeded(Term),
    /// The XOR of two or more seeded streams: strictly ascending terms.
    Xor(Arc<[Term]>),
    /// Literal bytes.
    Raw(Box<[u8; SECTOR_SIZE]>),
}

impl Form {
    /// The seeded terms of a non-raw form.
    fn terms(&self) -> &[Term] {
        match self {
            Form::Xor(terms) => terms,
            Form::Seeded(term) => std::slice::from_ref(term),
            Form::Zero | Form::Raw(_) => &[],
        }
    }

    /// Materialize the sector into `out` — or, `out` being longer, the
    /// run of sectors that starts with it: sector `i` of a run continues
    /// each stream where sector `i - 1` left off.
    pub fn fill(&self, out: &mut [u8]) {
        match self {
            Form::Raw(bytes) => out.copy_from_slice(&bytes[..]),
            &Form::Seeded((seed, w)) => fill_seeded(seed, u64::from(w), out),
            form => {
                out.fill(0);
                form.terms().iter().for_each(|&t| xor_seeded(t, out));
            }
        }
    }

    /// The form `k` sectors further into a run that starts with this
    /// one: every term's word advanced by `k * WORDS_PER_SECTOR`.
    ///
    /// # Panics
    /// A raw sector translates by zero only.
    pub fn translate(&self, k: u32) -> Form {
        assert!(
            k == 0 || !matches!(self, Form::Raw(_)),
            "raw bytes do not translate"
        );
        let by = k * WORDS_PER_SECTOR;
        match self {
            &Form::Seeded((seed, w)) => Form::Seeded((seed, w + by)),
            Form::Xor(terms) if k > 0 => {
                Form::Xor(terms.iter().map(|&(s, w)| (s, w + by)).collect())
            }
            form => form.clone(),
        }
    }

    /// Whether `next` is this form advanced by `k` sectors, compared
    /// without building the translation (raw bytes continue nothing).
    pub fn continues_as(&self, k: u32, next: &Form) -> bool {
        let (a, b) = (self.terms(), next.terms());
        let plain = !matches!((self, next), (Form::Raw(_), _) | (_, Form::Raw(_)));
        let advanced = |(&(s, w), &t): (&Term, &Term)| (s, w + k * WORDS_PER_SECTOR) == t;
        plain && a.len() == b.len() && a.iter().zip(b).all(advanced)
    }

    /// The XOR of `forms`, each advanced by its own sector count first
    /// (see [`Form::translate`]; nothing is built for the operands).
    /// Seeded terms are merged and a term that occurs twice cancels; a
    /// raw operand materializes the result. `terms` is scratch space,
    /// reusable from one call to the next.
    pub fn xor_all<'a>(
        forms: impl IntoIterator<Item = (&'a Form, u32)>,
        terms: &mut Vec<Term>,
    ) -> Form {
        terms.clear();
        let mut raw: Option<Box<[u8; SECTOR_SIZE]>> = None;
        for (form, k) in forms {
            match (form, &mut raw) {
                (Form::Raw(bytes), None) => raw = Some(bytes.clone()),
                (Form::Raw(bytes), Some(acc)) => {
                    acc.iter_mut().zip(bytes.iter()).for_each(|(a, b)| *a ^= b);
                }
                (form, _) => {
                    let by = k * WORDS_PER_SECTOR;
                    terms.extend(form.terms().iter().map(|&(s, w)| (s, w + by)));
                }
            }
        }
        terms.sort_unstable();
        let mut kept = 0;
        for i in 0..terms.len() {
            if kept > 0 && terms[kept - 1] == terms[i] {
                kept -= 1;
            } else {
                terms[kept] = terms[i];
                kept += 1;
            }
        }
        terms.truncate(kept);
        match (raw, &terms[..]) {
            (Some(mut acc), _) => {
                terms.iter().for_each(|&t| xor_seeded(t, &mut acc[..]));
                Form::Raw(acc)
            }
            (None, []) => Form::Zero,
            (None, &[term]) => Form::Seeded(term),
            (None, _) => Form::Xor(terms[..].into()),
        }
    }
}

/// `len` consecutive sectors, sector `i` holding `base` advanced by `i`
/// sectors (see the module docs). A raw base has `len` 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// What the first sector holds.
    pub base: Form,
    /// Sectors in the run, at least one.
    pub len: u32,
}

impl Run {
    /// The run sector by sector — for tests and materialization.
    pub fn forms(&self) -> impl Iterator<Item = Form> + '_ {
        (0..self.len).map(|i| self.base.translate(i))
    }

    /// Materialize `runs`, back to back, into `out`: the sectors of a
    /// run are one continuous stretch of each of its streams.
    pub fn fill_all(runs: &[Run], out: &mut [u8]) {
        let mut rest = out;
        for run in runs {
            let (chunk, tail) = rest.split_at_mut(run.len as usize * SECTOR_SIZE);
            run.base.fill(chunk);
            rest = tail;
        }
    }

    /// Whether every sector reads as all zeroes. Exact: anything but the
    /// zero form is materialized and its bytes compared.
    pub fn is_zero(&self) -> bool {
        self.base == Form::Zero || {
            let mut buf = vec![0u8; self.len as usize * SECTOR_SIZE];
            self.base.fill(&mut buf);
            buf.iter().all(|&b| b == 0)
        }
    }

    /// Append `run` to `runs`, extending the last run when `run`
    /// continues it, so a list built through here holds maximal runs.
    pub fn push_onto(self, runs: &mut Vec<Run>) {
        match runs.last_mut() {
            Some(last) if last.base.continues_as(last.len, &self.base) => last.len += self.len,
            _ => runs.push(self),
        }
    }

    /// Sectors `[off, off + n)` of the range `runs` cover, as runs.
    pub fn slice_of(runs: &[Run], mut off: u32, mut n: u32) -> impl Iterator<Item = Run> + '_ {
        runs.iter().filter_map(move |run| {
            let skip = off.min(run.len);
            let take = (run.len - skip).min(n);
            off -= skip;
            n -= take;
            (take > 0).then(|| {
                let (base, len) = (run.base.translate(skip), take);
                Run { base, len }
            })
        })
    }

    /// Sectors `runs` cover.
    pub fn sectors(runs: &[Run]) -> u32 {
        runs.iter().map(|run| run.len).sum()
    }

    /// [`Run::slice_of`] as a list of its own; the whole range is `runs`
    /// itself, shared.
    pub fn slice(runs: &Arc<[Run]>, off: u32, n: u32) -> Arc<[Run]> {
        if off == 0 && n == Run::sectors(runs) {
            return Arc::clone(runs);
        }
        Run::slice_of(runs, off, n).collect()
    }

    /// `runs` with `data` laid over them from sector `off` on, as maximal
    /// runs; `data` itself, shared, when it covers them all and no run of
    /// it continues the one before.
    pub fn overlay(runs: &Arc<[Run]>, off: u32, data: &Arc<[Run]>) -> Arc<[Run]> {
        let (end, total) = (off + Run::sectors(data), Run::sectors(runs));
        let continues = |p: &[Run]| p[0].base.continues_as(p[0].len, &p[1].base);
        if off == 0 && end == total && !data.windows(2).any(continues) {
            return Arc::clone(data);
        }
        let mut out = Vec::with_capacity(runs.len() + data.len());
        let head = Run::slice_of(runs, 0, off);
        let tail = Run::slice_of(runs, end, total - end);
        for run in head.chain(data.iter().cloned()).chain(tail) {
            run.push_onto(&mut out);
        }
        out.into()
    }

    /// The sector-wise XOR of equal-length `operands`, one stretch at a
    /// time: each stretch on which no operand changes run goes to `emit`
    /// as one run (one [`Form::xor_all`], with `terms` its scratch space),
    /// in order, until `emit` returns `false`. Whether every stretch went
    /// out.
    pub fn xor_stretches<T: Deref<Target = [Run]>>(
        operands: &[T],
        terms: &mut Vec<Term>,
        mut emit: impl FnMut(Run) -> bool,
    ) -> bool {
        let total = operands.first().map_or(0, |op| Run::sectors(op));
        debug_assert!(operands.iter().all(|op| Run::sectors(op) == total));
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

    /// The XOR of `operands` as maximal runs, built in `runs` and copied
    /// out once; `terms` and `runs` are reusable scratch space.
    pub fn xor_into<T: Deref<Target = [Run]>>(
        operands: &[T],
        terms: &mut Vec<Term>,
        runs: &mut Vec<Run>,
    ) -> Arc<[Run]> {
        runs.clear();
        Run::xor_stretches(operands, terms, |run| {
            run.push_onto(runs);
            true
        });
        runs.drain(..).collect()
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
    unreachable!("sector beyond the runs")
}

/// A lazily-held sector: the `(seed, word)` of a seeded stream, or —
/// `slot != 0` — sector `word` of the XOR run in slot `slot - 1` of the
/// store's slab. `slot` is zero on every sector that is not such an XOR
/// sector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Marker {
    seed: u64,
    word: u32,
    slot: u32,
}

impl Marker {
    /// The marker of the sector `k` further into the same run.
    fn advanced(self, k: u32) -> Marker {
        let step = if self.slot == 0 { WORDS_PER_SECTOR } else { 1 };
        let word = self.word + k * step;
        Marker { word, ..self }
    }
}

/// Out-of-line term lists of the store's XOR runs: the base terms and
/// how many sectors still hold the run.
#[derive(Debug, Default, Clone)]
struct Slab {
    slots: Vec<Option<(Arc<[Term]>, u32)>>,
    free: Vec<u32>,
}

impl Slab {
    /// Store the base `terms` of a run of `n` sectors, returning the
    /// markers' `slot` value.
    fn insert(&mut self, terms: Arc<[Term]>, n: u32) -> u32 {
        #[expect(clippy::expect_used, reason = "at most one slot per live sector")]
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            u32::try_from(self.slots.len()).expect("slab slot fits u32")
        });
        self.slots[slot as usize - 1] = Some((terms, n));
        slot
    }

    /// One sector of the run in `slot` was overwritten; the last one
    /// frees the slot.
    fn release(&mut self, slot: u32) {
        let entry = &mut self.slots[slot as usize - 1];
        match entry {
            Some((_, live)) if *live > 1 => *live -= 1,
            _ => self.free.extend(entry.take().map(|_| slot)),
        }
    }
}

/// The bitmap bits of the in-page sector range `run` (not empty).
fn mask(run: &Range<usize>) -> u64 {
    (u64::MAX >> (PAGE_SECTORS as usize - run.len())) << run.start
}

/// What a sector holds, as the store keeps it: enough to tell whether
/// the next sector continues its run without building either form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    /// Never written (reads as zero; a copy of it clears the target).
    Absent,
    Zero,
    Lazy(Marker),
    /// The bytes at this sector address.
    Raw(u64),
}

impl Held {
    /// What the sector `k` further on holds if it continues the run.
    fn advanced(self, k: u32) -> Held {
        match self {
            Held::Lazy(marker) => Held::Lazy(marker.advanced(k)),
            held => held,
        }
    }
}

/// A page's raw sector bytes and which sectors hold them.
#[derive(Debug, Clone)]
struct RawArea {
    /// Bit `i` set ⇔ sector `i` holds `bytes[i * SECTOR_SIZE..]`: a
    /// non-empty subset of the page's `bitmap & !lazy`.
    raw: u64,
    bytes: [u8; PAGE_BYTES],
}

#[derive(Debug, Clone, Default)]
struct Page {
    /// Bit `i` set ⇔ sector `i` of this page has been written.
    bitmap: u64,
    /// Subset of `bitmap`: the sector's content is `seeds[i]`, not
    /// `data`.
    lazy: u64,
    /// Raw sector bytes; allocated on the first raw write to this page
    /// and freed when its last raw sector is overwritten or cleared. A
    /// written sector that is neither lazy nor raw is zero.
    data: Option<Box<RawArea>>,
    /// Per-sector markers of lazily-held writes; allocated on the first
    /// such write to this page.
    seeds: Option<Box<[Marker; PAGE_SECTORS as usize]>>,
}

impl Page {
    /// Sectors `run` hold raw bytes: their slice of the data area.
    fn raw_mut(&mut self, run: &Range<usize>) -> &mut [u8] {
        let blank = || {
            Box::new(RawArea {
                raw: 0,
                bytes: [0; PAGE_BYTES],
            })
        };
        let area = self.data.get_or_insert_with(blank);
        area.raw |= mask(run);
        &mut area.bytes[run.start * SECTOR_SIZE..run.end * SECTOR_SIZE]
    }

    /// Sectors `run` stop holding raw bytes; the last one frees the area.
    fn unraw(&mut self, run: &Range<usize>) {
        if let Some(area) = &mut self.data {
            area.raw &= !mask(run);
            if area.raw == 0 {
                self.data = None;
            }
        }
    }

    /// Sectors `run` stop being lazily held; XOR sectors among them
    /// leave their runs.
    fn unlazy(&mut self, run: Range<usize>, slab: &mut Slab) {
        if let (Some(seeds), true) = (&mut self.seeds, self.lazy & mask(&run) != 0) {
            self.lazy &= !mask(&run);
            for m in seeds[run].iter_mut().filter(|m| m.slot != 0) {
                slab.release(std::mem::take(&mut m.slot));
            }
        }
    }

    /// Sector `s` becomes lazily held as `marker`.
    #[inline]
    fn set_marker(&mut self, s: usize, marker: Marker, slab: &mut Slab) {
        self.lazy |= 1 << s;
        let blank = || Box::new([Marker::default(); PAGE_SECTORS as usize]);
        let seeds = self.seeds.get_or_insert_with(blank);
        if seeds[s].slot != 0 {
            slab.release(seeds[s].slot);
        }
        seeds[s] = marker;
    }

    /// What sector `s` (at store address `sector`) holds, and how many
    /// sectors from it on, short of `end`, hold one run: the bitmaps say
    /// how far its kind reaches, the markers how far each continues the
    /// one before.
    fn run_at(&self, s: usize, end: usize, sector: u64) -> (Held, usize) {
        let reach = |kind: u64| ((kind & mask(&(s..end))) >> s).trailing_ones() as usize;
        let raw = self.data.as_ref().map_or(0, |area| area.raw);
        match &self.seeds {
            Some(seeds) if self.lazy & (1 << s) != 0 => {
                let first = seeds[s];
                let markers = seeds[s..s + reach(self.lazy)].iter().zip(0..);
                let run = markers.take_while(|&(m, i)| *m == first.advanced(i));
                (Held::Lazy(first), run.count())
            }
            _ if self.bitmap & (1 << s) == 0 => (Held::Absent, reach(!self.bitmap)),
            _ if raw & (1 << s) != 0 => (Held::Raw(sector), 1),
            _ => (Held::Zero, reach(self.bitmap & !self.lazy & !raw)),
        }
    }
}

/// A sparse array of 512-byte sectors.
#[derive(Debug, Default, Clone)]
pub struct SectorStore {
    /// Indexed by `sector / PAGE_SECTORS`; grown lazily to the highest
    /// touched page. `None` pages read as zero.
    pages: Vec<Option<Page>>,
    /// Count of set bitmap bits across all pages.
    written: usize,
    slab: Slab,
}

#[inline]
fn split(sector: u64) -> (usize, usize) {
    (
        (sector / PAGE_SECTORS) as usize,
        (sector % PAGE_SECTORS) as usize,
    )
}

/// `[sector, sector + n)` cut at page boundaries: for each piece its
/// page, its sectors within the page, and its offset into the range.
fn pieces(sector: u64, n: usize) -> impl Iterator<Item = (usize, Range<usize>, usize)> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let (p, s) = split(sector + at as u64);
        let len = (PAGE_SECTORS as usize - s).min(n - at);
        at += len;
        (len > 0).then(|| (p, s..s + len, at - len))
    })
}

impl SectorStore {
    /// An empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Page `p` with the sectors `run` marked written, and the slab.
    fn touch(&mut self, p: usize, run: &Range<usize>) -> (&mut Page, &mut Slab) {
        if p >= self.pages.len() {
            self.pages.resize(p + 1, None);
        }
        let pg = self.pages[p].get_or_insert_with(Page::default);
        self.written += (mask(run) & !pg.bitmap).count_ones() as usize;
        pg.bitmap |= mask(run);
        (pg, &mut self.slab)
    }

    /// Read `buf.len()` bytes starting at the first byte of `sector`.
    /// `buf.len()` must be a multiple of the sector size.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not sector-aligned.
    pub fn read(&self, sector: u64, buf: &mut [u8]) {
        assert_eq!(buf.len() % SECTOR_SIZE, 0, "unaligned read length");
        let mut runs = Vec::new();
        self.read_runs(sector, (buf.len() / SECTOR_SIZE) as u32, &mut runs);
        Run::fill_all(&runs, buf);
    }

    /// The maximal stretches of `[sector, sector + n)` on which each
    /// sector continues the one before, as the store keeps them, handed
    /// to `emit` in address order.
    fn held_runs(&self, sector: u64, n: u32, mut emit: impl FnMut(Held, u32)) {
        let (mut at, mut run) = (0, None::<(Held, u32)>);
        while at < n {
            // As far as the page says; a run goes on across its edge.
            let (p, s) = split(sector + u64::from(at));
            let end = (s + (n - at) as usize).min(PAGE_SECTORS as usize);
            let pg = self.pages.get(p).and_then(|pg| pg.as_ref());
            let blank = (Held::Absent, end - s);
            let (held, len) = pg.map_or(blank, |pg| pg.run_at(s, end, sector + u64::from(at)));
            at += len as u32;
            match &mut run {
                Some((first, so_far)) if first.advanced(*so_far) == held => *so_far += len as u32,
                _ => {
                    if let Some((first, so_far)) = run.replace((held, len as u32)) {
                        emit(first, so_far);
                    }
                }
            }
        }
        if let Some((held, len)) = run {
            emit(held, len);
        }
    }

    /// The run of `len` sectors the store holds as `held`.
    fn run_of(&self, held: Held, len: u32) -> Run {
        #[expect(clippy::expect_used, reason = "a marker names a live slot")]
        let base = match held {
            Held::Absent | Held::Zero => Form::Zero,
            Held::Lazy(m) if m.slot == 0 => Form::Seeded((m.seed, m.word)),
            Held::Lazy(m) => {
                let run = self.slab.slots[m.slot as usize - 1].as_ref();
                Form::Xor(run.expect("live slot").0.clone()).translate(m.word)
            }
            Held::Raw(sector) => {
                let (p, s) = split(sector);
                let data = self.pages[p].as_ref().and_then(|pg| pg.data.as_ref());
                let mut bytes = Box::new([0u8; SECTOR_SIZE]);
                // `Held::Raw` is only built over a data area.
                if let Some(data) = data {
                    bytes.copy_from_slice(&data.bytes[s * SECTOR_SIZE..][..SECTOR_SIZE]);
                }
                Form::Raw(bytes)
            }
        };
        Run { base, len }
    }

    /// What `[sector, sector + n)` holds, appended to `runs` as maximal
    /// runs, without producing any bytes (an unwritten sector holds
    /// zero).
    pub fn read_runs(&self, sector: u64, n: u32, runs: &mut Vec<Run>) {
        self.held_runs(sector, n, |held, len| {
            self.run_of(held, len).push_onto(runs)
        });
    }

    /// What `sector` holds: [`Self::read_runs`] of one sector.
    pub fn read_form(&self, sector: u64) -> Form {
        let mut form = Form::Zero;
        self.held_runs(sector, 1, |held, len| form = self.run_of(held, len).base);
        form
    }

    /// Write `buf.len()` bytes starting at the first byte of `sector`.
    ///
    /// # Panics
    /// Panics if `buf.len()` is not sector-aligned.
    pub fn write(&mut self, sector: u64, buf: &[u8]) {
        assert_eq!(buf.len() % SECTOR_SIZE, 0, "unaligned write length");
        for (p, run, at) in pieces(sector, buf.len() / SECTOR_SIZE) {
            let (pg, slab) = self.touch(p, &run);
            pg.unlazy(run.clone(), slab);
            let bytes = &buf[at * SECTOR_SIZE..][..run.len() * SECTOR_SIZE];
            pg.raw_mut(&run).copy_from_slice(bytes);
        }
    }

    /// Sectors `[sector, sector + n)` become lazily held: sector `i` as
    /// `first` advanced by `i`.
    fn write_markers(&mut self, sector: u64, n: u32, first: Marker) {
        for (p, piece, at) in pieces(sector, n as usize) {
            let (pg, slab) = self.touch(p, &piece);
            pg.unraw(&piece);
            for (s, i) in piece.zip(at as u32..) {
                pg.set_marker(s, first.advanced(i), slab);
            }
        }
    }

    /// Record a seeded write of `n_sectors` sectors whose contents are
    /// the [`fill_seeded`] stream for `seed` starting at `start_word`.
    /// Reads of these sectors return exactly what [`SectorStore::write`]
    /// of the materialized stream would have stored; the store just
    /// defers synthesizing the bytes until someone actually reads them.
    pub fn write_seeded(&mut self, sector: u64, n_sectors: u32, seed: u64, start_word: u64) {
        let end_word = start_word + u64::from(n_sectors) * u64::from(WORDS_PER_SECTOR);
        assert!(end_word <= u64::from(u32::MAX), "word offset fits u32");
        let (word, slot) = (start_word as u32, 0);
        self.write_markers(sector, n_sectors, Marker { seed, word, slot });
    }

    /// Record a write of `n_sectors` zero sectors: they count as written
    /// and hold neither bytes nor a marker.
    pub fn write_zeroes(&mut self, sector: u64, n_sectors: u32) {
        for (p, run, _) in pieces(sector, n_sectors as usize) {
            let (pg, slab) = self.touch(p, &run);
            pg.unlazy(run.clone(), slab);
            pg.unraw(&run);
        }
    }

    /// Write `run` at `sector` onward; reads return what
    /// [`SectorStore::write`] of [`Run::fill_all`]'s bytes would.
    pub fn write_run(&mut self, sector: u64, run: &Run) {
        match &run.base {
            Form::Zero => self.write_zeroes(sector, run.len),
            &Form::Seeded((seed, w)) => self.write_seeded(sector, run.len, seed, u64::from(w)),
            Form::Raw(bytes) => {
                assert_eq!(run.len, 1, "raw bytes are a run of one");
                self.write(sector, &bytes[..]);
            }
            Form::Xor(terms) => {
                let slot = self.slab.insert(terms.clone(), run.len);
                let (seed, word) = (0, 0);
                self.write_markers(sector, run.len, Marker { seed, word, slot });
            }
        }
        #[cfg(feature = "sanitize")]
        for (s, form) in (sector..).zip(run.forms()) {
            assert_eq!(self.read_form(s), form, "sector {s} of a run write");
        }
    }

    /// Write `runs` back to back from `sector` onward.
    pub fn write_runs(&mut self, mut sector: u64, runs: impl IntoIterator<Item = Run>) {
        for run in runs {
            self.write_run(sector, &run);
            sector += u64::from(run.len);
        }
    }

    /// Write one sector given as a [`Form`]: the run of length one.
    pub fn write_form(&mut self, sector: u64, form: &Form) {
        let (base, len) = (form.clone(), 1);
        self.write_run(sector, &Run { base, len });
    }

    /// Copy `n_sectors` sectors from `src` to `dst` (the driver's block
    /// copy-in/copy-out primitive operates on whole file-system blocks).
    /// The source is read first, as runs, and then written: a
    /// lazily-held sector costs no bytes, and a never-written stretch
    /// clears its destination.
    pub fn copy(&mut self, src: u64, dst: u64, n_sectors: u32) {
        let mut source = Vec::with_capacity(1);
        self.held_runs(src, n_sectors, |held, len| {
            source.push((held == Held::Absent, self.run_of(held, len)));
        });
        let mut at = dst;
        for (absent, run) in source {
            if absent {
                for (p, piece, _) in pieces(at, run.len as usize) {
                    if let Some(Some(pg)) = self.pages.get_mut(p) {
                        pg.unlazy(piece.clone(), &mut self.slab);
                        pg.unraw(&piece);
                        self.written -= (pg.bitmap & mask(&piece)).count_ones() as usize;
                        pg.bitmap &= !mask(&piece);
                    }
                }
            } else {
                self.write_run(at, &run);
            }
            at += u64::from(run.len);
        }
    }

    /// Number of sectors that have ever been written (holding non-default
    /// data).
    pub fn written_sectors(&self) -> usize {
        self.written
    }

    /// Iterate the indices of all written sectors (ascending).
    pub fn written_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages.iter().enumerate().flat_map(|(p, pg)| {
            let bitmap = pg.as_ref().map_or(0, |pg| pg.bitmap);
            (0..PAGE_SECTORS)
                .filter(move |s| bitmap & (1 << s) != 0)
                .map(move |s| p as u64 * PAGE_SECTORS + s)
        })
    }

    /// Read a single sector into a fresh buffer.
    pub fn read_sector(&self, sector: u64) -> [u8; SECTOR_SIZE] {
        let mut buf = [0u8; SECTOR_SIZE];
        self.read(sector, &mut buf);
        buf
    }

    /// Pages holding a 32 KB raw data area (the footprint figure: a
    /// store of seeded, XOR and zero sectors has none).
    pub fn raw_pages(&self) -> usize {
        let pages = self.pages.iter().flatten();
        pages.filter(|pg| pg.data.is_some()).count()
    }

    /// Term lists the slab holds: one per XOR run with a sector still
    /// live, or a slot leaked.
    pub fn slab_len(&self) -> usize {
        self.slab.slots.len() - self.slab.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_sector_and_per_page_sizes_are_pinned() {
        // Every 8 bytes of marker is +8 % RSS on the single-disk runs.
        assert_eq!(std::mem::size_of::<Marker>(), 16);
        assert!(std::mem::size_of::<Page>() <= 32);
    }

    #[test]
    fn unwritten_reads_zero() {
        let s = SectorStore::new();
        let buf = s.read_sector(42);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = SectorStore::new();
        let data: Vec<u8> = (0..SECTOR_SIZE * 3).map(|i| (i % 251) as u8).collect();
        s.write(10, &data);
        let mut out = vec![0u8; SECTOR_SIZE * 3];
        s.read(10, &mut out);
        assert_eq!(out, data);
        assert_eq!(s.written_sectors(), 3);
    }

    #[test]
    fn partial_overlap_write() {
        let mut s = SectorStore::new();
        s.write(0, &[1u8; SECTOR_SIZE * 2]);
        s.write(1, &[2u8; SECTOR_SIZE]);
        assert_eq!(s.read_sector(0)[0], 1);
        assert_eq!(s.read_sector(1)[0], 2);
    }

    #[test]
    fn copy_moves_data_and_absence() {
        let mut s = SectorStore::new();
        s.write(5, &[7u8; SECTOR_SIZE]);
        // dst sector 21 has stale data that the copy of an unwritten src
        // sector must clear.
        s.write(21, &[9u8; SECTOR_SIZE]);
        s.copy(5, 20, 2); // sector 6 is unwritten
        assert_eq!(s.read_sector(20)[0], 7);
        assert!(s.read_sector(21).iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        let s = SectorStore::new();
        let mut buf = [0u8; 100];
        s.read(0, &mut buf);
    }

    #[test]
    fn copy_is_self_consistent_forward() {
        let mut s = SectorStore::new();
        for i in 0..4u64 {
            s.write(i, &[i as u8 + 1; SECTOR_SIZE]);
        }
        s.copy(0, 100, 4);
        for i in 0..4u64 {
            assert_eq!(s.read_sector(100 + i)[0], i as u8 + 1);
        }
    }

    #[test]
    fn writes_spanning_page_boundary() {
        let mut s = SectorStore::new();
        // 4 sectors straddling the 64-sector page boundary.
        let data: Vec<u8> = (0..SECTOR_SIZE * 4).map(|i| (i % 249) as u8).collect();
        s.write(62, &data);
        let mut out = vec![0u8; SECTOR_SIZE * 4];
        s.read(62, &mut out);
        assert_eq!(out, data);
        assert_eq!(s.written_sectors(), 4);
        assert_eq!(
            s.written_indices().collect::<Vec<_>>(),
            vec![62, 63, 64, 65]
        );
    }

    #[test]
    fn written_indices_ascending_and_counted() {
        let mut s = SectorStore::new();
        s.write(200, &[1u8; SECTOR_SIZE]);
        s.write(3, &[2u8; SECTOR_SIZE]);
        s.write(100, &[3u8; SECTOR_SIZE]);
        s.write(100, &[4u8; SECTOR_SIZE]); // overwrite: not double-counted
        assert_eq!(s.written_sectors(), 3);
        assert_eq!(s.written_indices().collect::<Vec<_>>(), vec![3, 100, 200]);
    }

    #[test]
    fn copy_clears_written_count() {
        let mut s = SectorStore::new();
        s.write(21, &[9u8; SECTOR_SIZE]);
        assert_eq!(s.written_sectors(), 1);
        s.copy(5, 21, 1); // unwritten source clears dst
        assert_eq!(s.written_sectors(), 0);
        assert!(s.written_indices().next().is_none());
    }

    #[test]
    fn seeded_write_reads_like_materialized_write() {
        let mut lazy = SectorStore::new();
        let mut eager = SectorStore::new();
        let seed = 0xFEED_F00D;
        let mut buf = vec![0u8; SECTOR_SIZE * 3];
        fill_seeded(seed, 0, &mut buf);
        eager.write(62, &buf); // spans a page boundary
        lazy.write_seeded(62, 3, seed, 0);
        for i in 0..3 {
            assert_eq!(lazy.read_sector(62 + i), eager.read_sector(62 + i));
        }
        assert_eq!(lazy.written_sectors(), eager.written_sectors());
        assert_eq!(
            lazy.written_indices().collect::<Vec<_>>(),
            eager.written_indices().collect::<Vec<_>>()
        );
    }

    #[test]
    fn raw_write_replaces_seeded_sector() {
        let mut s = SectorStore::new();
        s.write_seeded(7, 1, 0xAB, 0);
        s.write(7, &[5u8; SECTOR_SIZE]);
        assert_eq!(s.read_sector(7), [5u8; SECTOR_SIZE]);
        assert_eq!(s.written_sectors(), 1);
    }

    #[test]
    fn seeded_write_replaces_raw_sector() {
        let mut s = SectorStore::new();
        s.write(7, &[5u8; SECTOR_SIZE]);
        s.write_seeded(7, 1, 0xAB, 4);
        let mut want = [0u8; SECTOR_SIZE];
        fill_seeded(0xAB, 4, &mut want);
        assert_eq!(s.read_sector(7), want);
        assert_eq!(s.written_sectors(), 1);
    }

    #[test]
    fn copy_preserves_seeded_contents() {
        let mut s = SectorStore::new();
        s.write_seeded(10, 2, 0xC0FFEE, 64);
        s.copy(10, 200, 2);
        assert_eq!(s.read_sector(200), s.read_sector(10));
        assert_eq!(s.read_sector(201), s.read_sector(11));
    }

    #[test]
    fn a_zero_block_beside_raw_bytes_stays_zero_through_copies() {
        let mut s = SectorStore::new();
        s.write(0, &[7u8; SECTOR_SIZE]); // a label: page 0 holds raw bytes
        let formatted = s.raw_pages();
        let zero = |s: &SectorStore, at: u64| (at..at + 16).all(|i| s.read_form(i) == Form::Zero);
        s.write_zeroes(16, 16);
        assert!(zero(&s, 16), "written beside raw bytes");
        s.copy(16, 256, 16);
        assert!(zero(&s, 256), "copied out to a blank page");
        s.copy(256, 16, 16);
        assert!(zero(&s, 16), "copied back");
        assert_eq!(s.raw_pages(), formatted);
    }

    #[test]
    fn fill_seeded_is_random_access() {
        // Word w of the stream is the same whether generated from the
        // start or from an offset — the property lazy sectors rely on.
        let mut whole = vec![0u8; 64];
        fill_seeded(9, 0, &mut whole);
        let mut tail = vec![0u8; 24];
        fill_seeded(9, 5, &mut tail);
        assert_eq!(&whole[40..], &tail[..]);
    }
}

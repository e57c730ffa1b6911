//! Differential test of the sector store: one `SectorStore`, driven
//! through the form and run API, against a reference that materializes
//! every byte (`Vec<[u8; 512]>` plus the written set), through the same
//! random sequence of raw, seeded, zero and multi-term writes — single
//! sectors and whole runs — partial overwrites and copies across page
//! boundaries. The representation (markers, slab, zero bits, runs) must
//! never show: after every step both read the same, sector by sector
//! and run by run, the slab holds exactly the XOR runs that still have
//! a live sector, and exactly the pages with a sector that last took
//! literal bytes hold a raw data area. The algebra the runs rest on —
//! translation commutes with XOR — is checked on its own below.

use abr_disk::store::{fill_seeded, Form, Run, SectorStore};
use abr_disk::SECTOR_SIZE;
use abr_sim::SimRng;
use std::collections::{BTreeMap, BTreeSet};

/// Three and a half 64-sector pages.
const SECTORS: u64 = 224;
const PAGE_SECTORS: usize = 64;
const STEPS: usize = 2_500;

type Sector = [u8; SECTOR_SIZE];

struct Model {
    data: Vec<Sector>,
    written: BTreeSet<u64>,
    /// Per sector: whether it last took literal bytes (a raw write, or
    /// a copy of a sector that held them).
    raw: Vec<bool>,
    /// Per sector: the XOR run it belongs to (by the id of the write
    /// that made the run) and its index within it.
    xor_run: Vec<Option<(usize, u64)>>,
    next_run: usize,
}

impl Model {
    fn write(&mut self, sector: u64, bytes: &Sector, raw: bool) {
        self.data[sector as usize] = *bytes;
        self.raw[sector as usize] = raw;
        self.written.insert(sector);
        self.xor_run[sector as usize] = None;
    }

    /// Write `run` at `at`: the bytes of each sector's own form, and
    /// one run id for all of them when the store will keep a term list.
    fn write_run(&mut self, at: u64, run: &Run) {
        self.next_run += 1;
        for (i, form) in (0..).zip(run.forms()) {
            let mut bytes = [0u8; SECTOR_SIZE];
            form.fill(&mut bytes);
            self.write(at + i, &bytes, matches!(form, Form::Raw(_)));
            let id = matches!(form, Form::Xor(_)).then_some((self.next_run, i));
            self.xor_run[(at + i) as usize] = id;
        }
    }

    /// The source is read first, then written; a stretch of one XOR run
    /// arrives as a run of its own.
    fn copy(&mut self, src: u64, dst: u64, n: u64) {
        let source: Vec<_> = (src..src + n)
            .map(|s| {
                let held = self.written.contains(&s).then_some(self.data[s as usize]);
                (held, self.raw[s as usize], self.xor_run[s as usize])
            })
            .collect();
        let (mut prev, mut first) = (None, 0);
        for (d, (held, raw, run)) in (dst..).zip(source) {
            match held {
                Some(bytes) => self.write(d, &bytes, raw),
                None => {
                    self.write(d, &[0; SECTOR_SIZE], false);
                    self.written.remove(&d);
                }
            }
            if let Some((id, i)) = run {
                if prev != Some((id, i.wrapping_sub(1))) {
                    (self.next_run, first) = (self.next_run + 1, i);
                }
                self.xor_run[d as usize] = Some((self.next_run, i - first));
            }
            prev = run;
        }
    }

    /// The XOR runs with a sector still live, and how many of those
    /// have lost some of the sectors they were written with.
    fn live_xor_runs(&self) -> (usize, usize) {
        let mut live: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
        for &(id, i) in self.xor_run.iter().flatten() {
            let (n, span) = live.entry(id).or_insert((0, 0));
            (*n, *span) = (*n + 1, (*span).max(i + 1));
        }
        let split = live.values().filter(|(n, span)| n < span).count();
        (live.len(), split)
    }

    /// Pages with a sector that holds literal bytes.
    fn raw_pages(&self) -> usize {
        let raw = self.raw.iter().enumerate().filter(|&(_, &raw)| raw);
        raw.map(|(s, _)| s / PAGE_SECTORS)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

fn seeded(seed: u64, word: u32) -> Sector {
    let mut buf = [0u8; SECTOR_SIZE];
    fill_seeded(seed, u64::from(word), &mut buf);
    buf
}

/// A random form and the bytes it must read as. Seeds and words come
/// from small ranges so that terms repeat (and cancel) in XORs.
fn random_form(rng: &mut SimRng) -> (Form, Sector) {
    let term = |rng: &mut SimRng| (1 + rng.below(6), 64 * rng.below(4) as u32);
    match rng.below(8) {
        0 => (Form::Zero, [0; SECTOR_SIZE]),
        1 => {
            let bytes = [rng.below(256) as u8; SECTOR_SIZE];
            (Form::Raw(Box::new(bytes)), bytes)
        }
        2 | 3 => {
            let (seed, word) = term(rng);
            (Form::Seeded((seed, word)), seeded(seed, word))
        }
        _ => {
            // XOR of two to five operands, now and then a raw one.
            let operands: Vec<(Form, Sector)> = (0..2 + rng.below(4))
                .map(|_| match rng.below(10) {
                    0 => random_form(rng),
                    _ => {
                        let (seed, word) = term(rng);
                        (Form::Seeded((seed, word)), seeded(seed, word))
                    }
                })
                .collect();
            let mut bytes = [0u8; SECTOR_SIZE];
            for (_, operand) in &operands {
                bytes.iter_mut().zip(operand).for_each(|(a, b)| *a ^= b);
            }
            let forms = operands.iter().map(|(form, _)| (form, 0));
            (Form::xor_all(forms, &mut Vec::new()), bytes)
        }
    }
}

#[test]
fn store_agrees_with_a_byte_materializing_reference() {
    let mut rng = SimRng::new(0x5704E);
    let mut store = SectorStore::new();
    let mut model = Model {
        data: vec![[0; SECTOR_SIZE]; SECTORS as usize],
        written: BTreeSet::new(),
        raw: vec![false; SECTORS as usize],
        xor_run: vec![None; SECTORS as usize],
        next_run: 0,
    };
    let (mut multi_term_copies, mut split_runs) = (0, 0);
    let mut all = vec![0u8; SECTORS as usize * SECTOR_SIZE];
    for step in 0..STEPS {
        let n = 1 + rng.below(20);
        let at = rng.below(SECTORS - n);
        match rng.below(8) {
            0 => {
                let bytes: Vec<u8> = (0..n as usize * SECTOR_SIZE)
                    .map(|_| rng.below(256) as u8)
                    .collect();
                store.write(at, &bytes);
                for (s, chunk) in (at..).zip(bytes.chunks(SECTOR_SIZE)) {
                    model.write(s, chunk.try_into().unwrap(), true);
                }
            }
            1 => {
                let (seed, start) = (rng.below(1 << 40), 8 * rng.below(1000));
                store.write_seeded(at, n as u32, seed, start);
                for i in 0..n {
                    model.write(at + i, &seeded(seed, (start + 64 * i) as u32), false);
                }
            }
            2 => {
                store.write_zeroes(at, n as u32);
                (at..at + n).for_each(|s| model.write(s, &[0; SECTOR_SIZE], false));
            }
            3 | 4 => {
                for s in at..at + n {
                    let (form, bytes) = random_form(&mut rng);
                    store.write_form(s, &form);
                    let run = Run { base: form, len: 1 };
                    let mut held = Vec::new();
                    store.read_runs(s, 1, &mut held);
                    assert_eq!(held[0].is_zero(), bytes == [0; SECTOR_SIZE]);
                    model.write_run(s, &run);
                    assert_eq!(model.data[s as usize], bytes);
                }
            }
            5 | 6 => {
                // A whole run (a raw sector is a run of one), often
                // landing on part of an earlier one.
                let (base, _) = random_form(&mut rng);
                let len = if matches!(base, Form::Raw(_)) {
                    1
                } else {
                    n as u32
                };
                let run = Run { base, len };
                store.write_run(at, &run);
                model.write_run(at, &run);
            }
            _ => {
                // Overlapping ranges and never-written sources included.
                let dst = rng.below(SECTORS - n);
                multi_term_copies += (at..at + n)
                    .filter(|&s| matches!(store.read_form(s), Form::Xor(_)))
                    .count();
                store.copy(at, dst, n as u32);
                model.copy(at, dst, n);
            }
        }
        store.read(0, &mut all);
        for (s, chunk) in (0..).zip(all.chunks(SECTOR_SIZE)) {
            let want = &model.data[s as usize][..];
            assert_eq!(
                chunk,
                want,
                "step {step}: sector {s} as {:?}",
                store.read_form(s)
            );
        }
        assert_eq!(store.written_sectors(), model.written.len(), "step {step}");
        assert!(store.written_indices().eq(model.written.iter().copied()));
        // Read as runs, any range: what its sectors hold one by one
        // (the bytes above were produced from runs), and maximal.
        let (from, len) = (rng.below(at + 1), n + rng.below(SECTORS - at - n + 1));
        let mut runs = Vec::new();
        store.read_runs(from, len as u32, &mut runs);
        let sectors = runs.iter().flat_map(Run::forms);
        assert!(sectors.eq((from..from + len).map(|s| store.read_form(s))));
        for pair in runs.windows(2) {
            let raw = matches!(pair[0].base, Form::Raw(_));
            assert!(raw || pair[0].base.translate(pair[0].len) != pair[1].base);
        }
        // One term list per XOR run with a sector still live: a run
        // overwritten in part keeps its list, one overwritten whole
        // gives it back.
        let (live, split) = model.live_xor_runs();
        assert_eq!(store.slab_len(), live, "step {step}");
        assert_eq!(store.raw_pages(), model.raw_pages(), "step {step}");
        split_runs += split.min(1);
    }
    assert!(split_runs > 100, "partly overwritten runs");
    assert!(multi_term_copies > 100, "copies of multi-term sectors");
    assert!(model.written.len() < SECTORS as usize, "absent sectors");
    assert!(store.slab_len() > 0);
    // Overwriting everything with zeroes empties both.
    store.write_zeroes(0, SECTORS as u32);
    assert_eq!((store.slab_len(), store.raw_pages()), (0, 0));
    store.read(0, &mut all);
    assert!(all.iter().all(|&b| b == 0));
}

/// Translation commutes with XOR, which is what lets a run stand for
/// its sectors: advancing every operand by `k` sectors and XORing is
/// XORing the bases and advancing the result, cancelling pairs and all
/// (raw bytes translate by zero only), and a run materializes to what
/// its sectors materialize to one by one.
#[test]
fn translation_commutes_with_xor_and_a_run_is_its_sectors() {
    let mut rng = SimRng::new(0x7A45);
    let mut scratch = Vec::new();
    let (mut cancelled, mut raw) = (0, 0);
    for _ in 0..2_000 {
        let operands: Vec<Form> = (0..2 + rng.below(3))
            .map(|_| random_form(&mut rng).0)
            .collect();
        let any_raw = operands.iter().any(|form| matches!(form, Form::Raw(_)));
        let k = if any_raw { 0 } else { rng.below(16) as u32 };
        let sum = Form::xor_all(operands.iter().map(|form| (form, 0)), &mut scratch);
        let moved: Vec<Form> = operands.iter().map(|form| form.translate(k)).collect();
        // What translation means, from the stream itself.
        if let (Form::Seeded((seed, word)), Form::Seeded(term)) = (&operands[0], &moved[0]) {
            assert_eq!(seeded(term.0, term.1), seeded(*seed, word + 64 * k));
        }
        let of_moved = Form::xor_all(moved.iter().map(|form| (form, 0)), &mut scratch);
        assert_eq!(of_moved, sum.translate(k));
        let in_place = Form::xor_all(operands.iter().map(|form| (form, k)), &mut scratch);
        assert_eq!(in_place, sum.translate(k));
        cancelled += (sum == Form::Zero) as usize;
        raw += any_raw as usize;

        let len = if any_raw { 1 } else { 1 + rng.below(16) as u32 };
        let run = Run { base: sum, len };
        let mut whole = vec![0u8; len as usize * SECTOR_SIZE];
        Run::fill_all(std::slice::from_ref(&run), &mut whole);
        for (form, chunk) in run.forms().zip(whole.chunks(SECTOR_SIZE)) {
            let mut sector = [0u8; SECTOR_SIZE];
            form.fill(&mut sector);
            assert_eq!(sector[..], *chunk);
        }
        // A sub-run is a translated run.
        let off = rng.below(u64::from(len)) as u32;
        let tail: Vec<Run> = Run::slice_of(std::slice::from_ref(&run), off, len - off).collect();
        let sectors = tail.iter().flat_map(Run::forms);
        assert!(sectors.eq(run.forms().skip(off as usize)));
    }
    assert!(
        cancelled > 10 && raw > 100,
        "{cancelled} cancelled, {raw} raw"
    );
}

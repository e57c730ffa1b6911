//! Differential test of the sector store: one `SectorStore`, driven
//! through the form API, against a reference that materializes every
//! byte (`Vec<[u8; 512]>` plus the written set), through the same random
//! sequence of raw, seeded, zero and multi-term writes, overwrites and
//! copies across page boundaries. The representation (markers, slab,
//! zero bits) must never show: after every step both read the same.

use abr_disk::store::{fill_seeded, Form, SectorStore};
use abr_disk::SECTOR_SIZE;
use abr_sim::SimRng;
use std::collections::BTreeSet;

/// Three and a half 64-sector pages.
const SECTORS: u64 = 224;
const STEPS: usize = 2_500;

type Sector = [u8; SECTOR_SIZE];

struct Model {
    data: Vec<Sector>,
    written: BTreeSet<u64>,
}

impl Model {
    fn write(&mut self, sector: u64, bytes: &Sector) {
        self.data[sector as usize] = *bytes;
        self.written.insert(sector);
    }

    fn copy(&mut self, src: u64, dst: u64, n: u64) {
        for i in 0..n {
            if self.written.contains(&(src + i)) {
                let bytes = self.data[(src + i) as usize];
                self.write(dst + i, &bytes);
            } else {
                self.data[(dst + i) as usize] = [0; SECTOR_SIZE];
                self.written.remove(&(dst + i));
            }
        }
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
            let forms = operands.iter().map(|(form, _)| form);
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
    };
    let mut multi_term_copies = 0;
    for step in 0..STEPS {
        let n = 1 + rng.below(20);
        let at = rng.below(SECTORS - n);
        match rng.below(6) {
            0 => {
                let bytes: Vec<u8> = (0..n as usize * SECTOR_SIZE)
                    .map(|_| rng.below(256) as u8)
                    .collect();
                store.write(at, &bytes);
                for (s, chunk) in (at..).zip(bytes.chunks(SECTOR_SIZE)) {
                    model.write(s, chunk.try_into().unwrap());
                }
            }
            1 => {
                let (seed, start) = (rng.below(1 << 40), 8 * rng.below(1000));
                store.write_seeded(at, n as u32, seed, start);
                for i in 0..n {
                    model.write(at + i, &seeded(seed, (start + 64 * i) as u32));
                }
            }
            2 => {
                store.write_zeroes(at, n as u32);
                (at..at + n).for_each(|s| model.write(s, &[0; SECTOR_SIZE]));
            }
            3 | 4 => {
                for s in at..at + n {
                    let (form, bytes) = random_form(&mut rng);
                    store.write_form(s, &form);
                    assert_eq!(store.read_form(s).is_zero(), bytes == [0; SECTOR_SIZE]);
                    model.write(s, &bytes);
                }
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
        for s in 0..SECTORS {
            assert_eq!(
                store.read_sector(s),
                model.data[s as usize],
                "step {step}: sector {s} as {:?}",
                store.read_form(s)
            );
        }
        assert_eq!(store.written_sectors(), model.written.len(), "step {step}");
        assert!(store.written_indices().eq(model.written.iter().copied()));
    }
    assert!(multi_term_copies > 100, "copies of multi-term sectors");
    assert!(model.written.len() < SECTORS as usize, "absent sectors");
    // Every slot of the slab belongs to exactly one multi-term sector.
    let multi_term = (0..SECTORS)
        .filter(|&s| matches!(store.read_form(s), Form::Xor(_)))
        .count();
    assert!(multi_term > 0);
    assert_eq!(store.slab_len(), multi_term, "leaked or shared slab slot");
    // Overwriting everything empties it.
    store.write_zeroes(0, SECTORS as u32);
    assert_eq!((store.slab_len(), store.raw_pages()), (0, 4));
    let mut all = vec![0u8; SECTORS as usize * SECTOR_SIZE];
    store.read(0, &mut all);
    assert!(all.iter().all(|&b| b == 0));
}

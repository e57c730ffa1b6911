//! `FileSystem::save_state` is an on-disk format (`*.fs.json` beside an
//! `abrctl` image): whatever the i-node table is in memory, the bytes do
//! not move. The fingerprint was recorded by running this file against
//! the tree in which the table was a slot per i-node number.

use abr_disk::image::fletcher64;
use abr_fs::fs::{FileSystem, FsConfig};
use abr_sim::SimRng;

const STATE_LEN: usize = 55_553;
const STATE_FINGERPRINT: u64 = 4_463_236_736_972_517_293;

#[test]
fn saved_state_bytes_are_pinned() {
    let mut fs = FileSystem::newfs(FsConfig::default(), 120_000, 340);
    let mut rng = SimRng::new(0x60_1d);
    let dirs: Vec<_> = (0..12).map(|_| fs.mkdir().unwrap().0).collect();
    let mut files = Vec::new();
    for step in 0..400 {
        let dir = dirs[rng.index(dirs.len())];
        match rng.below(4) {
            // Create in a random group, so i-node numbers are sparse.
            0 | 1 => files.push((dir, fs.create(dir, 512 + rng.below(200_000)).unwrap().0)),
            2 if !files.is_empty() => {
                let (dir, file) = files.swap_remove(rng.index(files.len()));
                fs.delete(dir, file).unwrap();
            }
            _ if !files.is_empty() => {
                let (_, file) = files[rng.index(files.len())];
                fs.append(file, 1 + rng.below(30_000), &mut Vec::new())
                    .unwrap();
            }
            _ => {}
        }
        if step % 50 == 0 {
            fs.sync();
        }
    }
    fs.sync();
    let state = fs.save_state();
    let bytes = state.to_string().into_bytes();
    assert_eq!(
        (bytes.len(), fletcher64(&bytes)),
        (STATE_LEN, STATE_FINGERPRINT)
    );
    // And what was saved loads back to a file system that saves the same.
    let back = FileSystem::load_state(&state).unwrap();
    assert_eq!(back.save_state(), state);
    for &(_, file) in &files {
        assert_eq!(
            back.file_blocks(file).unwrap(),
            fs.file_blocks(file).unwrap()
        );
    }
}

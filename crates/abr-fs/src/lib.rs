//! # abr-fs — FFS-lite file system
//!
//! A compact model of the SunOS 4.1.1 UFS file system (§3.1 of *Adaptive
//! Block Rearrangement*), faithful in the properties the paper's results
//! depend on:
//!
//! * **Cylinder-group layout** ([`layout`]): the partition is divided into
//!   cylinder groups; directories are spread across groups and a file's
//!   blocks are allocated in its directory's group, so hot files end up
//!   scattered over the disk surface — the source of the long seeks that
//!   block rearrangement removes.
//! * **Rotational interleaving** ([`alloc`]): successive blocks of a file
//!   are placed `interleave` blocks apart ("the SunOS UNIX file system
//!   ... tries to place successive blocks of a file interleaved by gaps",
//!   §4.2) — the structure the *interleaved* placement policy preserves.
//! * **Buffer cache with delayed writes** ([`cache`]): all file I/O goes
//!   through the cache; updates remain in memory until the periodic
//!   update daemon flushes them (§3.1), which produces the bursty write
//!   arrival pattern of §5.2.
//! * **I-node timestamp updates** ([`fs`]): reads dirty the i-node block,
//!   so even a read-only-mounted file system generates a trickle of
//!   writes, exactly as §3.1 describes.
//!
//! File *data* is synthesized deterministically from `(inode, block)`
//! ([`payload`]), so end-to-end integrity can be verified without holding
//! file contents in memory.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_docs)]

pub mod alloc;
pub mod cache;
pub mod fs;
pub mod layout;
pub mod payload;

pub use cache::BufferCache;
pub use fs::{FileHandle, FileSystem, FsConfig, FsError, MountMode};
pub use layout::FsLayout;

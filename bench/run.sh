#!/usr/bin/env bash
# The benchmark's only entry point: builds the benchmark and the
# `experiments` CLI in release mode, then hands every argument to the
# benchmark binary. See bench/README.md for the modes.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"

# The pinned toolchain (rust-toolchain.toml) is used when installed.
# Otherwise rustup would try to download it, which fails offline before
# anything compiles, so fall back to the installed stable.
if [ -z "${RUSTUP_TOOLCHAIN:-}" ] && command -v rustup >/dev/null 2>&1; then
    pin="$(sed -n 's/^channel *= *"\(.*\)"/\1/p' "$root/rust-toolchain.toml" 2>/dev/null || true)"
    if [ -z "$pin" ] || ! rustup toolchain list 2>/dev/null | grep -q "^$pin"; then
        export RUSTUP_TOOLCHAIN=stable
    fi
fi

# One target directory for both builds, absolute so that it means the
# same from either manifest.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: standard output belongs to the report.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    -p abr-bench --bin experiments >&2

export ABR_PERF_ROOT="$root"
export ABR_PERF_EXPERIMENTS="$target/release/experiments"
export ABR_PERF_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export ABR_PERF_NPROC="$(nproc 2>/dev/null || echo unknown)"
export ABR_PERF_CPU="$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo 2>/dev/null | head -n 1)"
export ABR_PERF_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"

exec "$target/release/abr-perf" "$@"

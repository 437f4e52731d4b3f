#!/usr/bin/env bash
# The repo's single benchmark: builds the harness (release, offline) and runs it.
#
#   benchmark/run.sh                       every workload, untraced + traced, every metric
#   benchmark/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1 | --traced]
#   benchmark/run.sh --smoke               1 session x 1 window x 1 s per run, same checks
#   benchmark/run.sh --selfcheck           the untraced set twice, held against BENCHMARK.json
#
# Workloads: fanin-n300 wide-d65k straggle-cr64 sim-cr24, and the ungated
# fanin-n1000 by name only (see README.md).
# Exits non-zero when the build fails, a preflight refuses, or a check fails.
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The harness is a workspace of its own; CARGO_TARGET_DIR (relative to the
# caller's directory, as cargo reads it) wins over the default target/.
cargo build --release --quiet --manifest-path "$dir/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$dir/target}/release/isgc-benchmark"

# The fan-in workloads hold 2 sockets per worker (fanin-n1000: 2,000); lift the soft limit where allowed.
if [ "$(ulimit -Sn)" != "unlimited" ] && [ "$(ulimit -Sn)" -lt 4096 ]; then
  ulimit -Sn 4096 2>/dev/null || true
fi

# glibc decides from allocation history whether half-megabyte buffers come
# from mmap (a page fault per page, every step) or from the heap, which made
# whole sessions of wide-d65k run at 45 or at 65 steps/s. Fix the thresholds
# so the numbers do not depend on that history (README, "known artefacts").
export GLIBC_TUNABLES="glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=1073741824:glibc.malloc.top_pad=67108864"

export ISGC_BENCH_DIR="$dir"
export ISGC_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export ISGC_BENCH_COMMIT="$(git -C "$dir" rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$bin" "$@"

#!/usr/bin/env bash
# Builds the harness from source (release, offline) and runs it from the
# repo root. Arguments go to `fubar-benchmark` unchanged:
#
#   benchmark/run.sh [--seed N] [--workload W] [--seconds S] [--out FILE]
#   benchmark/run.sh trace [--workload W] [--seed N]
#   benchmark/run.sh agree A.json B.json
#
# File arguments are relative to the repo root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Share the root workspace's target directory unless the caller chose one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# One malloc arena: the optimizer's scoring threads are short-lived, and
# which glibc arena their few allocations landed in moved VmHWM by
# +-2.7 MB from run to run. Run time is unaffected.
export MALLOC_ARENA_MAX=1
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fubar-benchmark" "$@"

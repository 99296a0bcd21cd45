#!/usr/bin/env bash
# The benchmark's one command. Builds the release binary from source, then:
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of stdout is the result object
#   run.sh [--all] [--seed n] [--seconds s]
#       every workload, untraced and traced, each in a process of its own;
#       prints `workload metric value unit` and writes benchmark/out/results.json
#   run.sh --aa
#       the whole set twice on the same binary, PASS/FAIL against the bounds
# Exits non-zero when the build fails or any op failed the correctness gate.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" 1>&2
if [ $# -eq 0 ]; then
    set -- --all
fi
exec "$target/release/trac-benchmark" "$@"

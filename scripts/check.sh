#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, the workspace lint wall,
# all tests, the standalone benchmark package, and the soundness analyzer
# over every sample workload.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace lint wall)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (no warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> concurrency suite in release, 10 runs (start-up races show only when reports are fast)"
for _ in $(seq 10); do
  cargo test --release -q --test mvcc_consistency
done

echo "==> differential suite, single-threaded test runner (ordering flakes)"
# Checks the engine against an independent naive evaluator (ORDER BY,
# DISTINCT and LIMIT included) and the parallel path byte-for-byte
# against serial; run it once with a serialized test runner so a
# scheduling-dependent flake cannot hide behind concurrent test execution.
cargo test -q --test differential -- --test-threads=1

echo "==> interleaving explorer, single-threaded test runner (bounded budget)"
# The deterministic schedule explorer proves the shipped columnar morsel
# driver's output byte-identical to serial, and cache soundness, across
# bounded interleavings at threads {2,4} (fixed seeds + capped exhaustive
# enumeration, so the job is time-bounded and reproducible on a 1-CPU
# host).
timeout 600 cargo test -q --test interleavings -- --test-threads=1

echo "==> figure1 smoke at --threads 4 (tiny config)"
# Exercises the morsel-driven parallel route end to end (the executor's
# route decision, plan certification, JSON emission) at a scale CI can
# afford.
BENCH_SMOKE_DIR="$(mktemp -d)"
cargo run --release -q -p trac-bench --bin figure1 -- \
  --total-rows 2000 --max-sources 100 --runs 2 --warmup 1 \
  --threads 4 --batch-size 64 --json-out "$BENCH_SMOKE_DIR/BENCH_figure1.json"
cargo run --release -q -p trac-bench --bin figure2 -- \
  --total-rows 2000 --max-sources 100 --runs 2 --warmup 1 \
  --threads 4 --batch-size 64 --json-out "$BENCH_SMOKE_DIR/BENCH_figure2.json"

echo "==> delta-maintenance smoke, serial (tiny config)"
# Exercises the change-then-report loop end to end: heartbeat upserts
# publish to the typed change stream, the maintained session folds them
# (the bin asserts it actually served delta-folded reports), and the
# rescan reference recomputes. Serial, so it also covers threads=1.
cargo run --release -q -p trac-bench --bin delta -- \
  --sources 100 --ratio 10 --scales 2 --changes 16 --runs 2 --warmup 1 \
  --json-out "$BENCH_SMOKE_DIR/BENCH_delta.json"

echo "==> BENCH_*.json schema vs committed scripts/bench_schema.json"
# The perf-trajectory files are diffed across commits; their key-path
# schema is a reviewed contract, not an implementation detail.
cargo run --release -q -p trac-bench --bin bench_schema -- \
  "$BENCH_SMOKE_DIR/BENCH_delta.json" \
  "$BENCH_SMOKE_DIR/BENCH_figure1.json" "$BENCH_SMOKE_DIR/BENCH_figure2.json" \
  | diff -u scripts/bench_schema.json - \
  || { echo "bench JSON schema diverged from scripts/bench_schema.json"; exit 1; }
rm -rf "$BENCH_SMOKE_DIR"

echo "==> benchmark package tests (the standalone ruler builds against the engine API)"
# benchmark/ is its own package, outside the workspace, importing
# trac_storage and trac_core; no other step builds it.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke: one short point_reports window"
# run.sh exits non-zero when the build fails or any op fails the
# benchmark's correctness gate.
bash benchmark/run.sh --workload point_reports --seed 1 --seconds 1 --trace 0 >/dev/null

echo "==> benchmark smoke: a scan_reports window of ~26 cycles (52 reports)"
# The only workload whose report tables hold ~10 000 sources each, and
# whose user queries scan whole tables. Long enough for warm reports to
# share one memoized member list across pending report tables, and for
# the correctness gate to see Session::close() release them.
bash benchmark/run.sh --workload scan_reports --seed 1 --seconds 6 --trace 0 >/dev/null

echo "==> benchmark smoke: an ingest_and_report window of ~11 cycles"
# The write path under the same gate: begin/commit through ingest
# batches, change-stream ring overflow and the rescans it forces, and
# reclamation of superseded heartbeat versions running behind the
# reports (maintained == rescan is rechecked every 64th report).
bash benchmark/run.sh --workload ingest_and_report --seed 1 --seconds 4 --trace 0 >/dev/null

echo "==> benchmark smoke: one short adhoc_reports window"
# Every statement misses the plan cache, so this registers hundreds of
# maintained plans, including the mixed-predicate upper-bound shape,
# each checked against a rescan by the benchmark's correctness gate.
bash benchmark/run.sh --workload adhoc_reports --seed 1 --seconds 1 --trace 0 >/dev/null

echo "==> trac-analyze --typeflow (soundness audit of sample workloads, incl. planned recency subqueries)"
cargo run --release -p trac-analyze --bin trac-analyze -- --typeflow

echo "==> trac-analyze --typeflow --format json (diagnostic sweep vs committed baseline)"
# Any new diagnostic — even a note — must be acknowledged by updating the
# baseline, so silent regressions in the certified sweep cannot land.
# --typeflow folds the lane-certificate proofs (TRAC023-026) into each
# query's diagnostics and appends the panic-path audit (TRAC027).
cargo run --release -q -p trac-analyze --bin trac-analyze -- --typeflow --format json \
  | diff -u scripts/analyzer_baseline.json - \
  || { echo "analyzer sweep diverged from scripts/analyzer_baseline.json"; exit 1; }

echo "All checks passed in ${SECONDS} s."

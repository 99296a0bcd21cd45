#!/usr/bin/env bash
# Regenerates every artifact of the TRAC reproduction:
#   - full test suite          -> test_output.txt
#   - Figure 1 / Figure 2      -> results_figure1.txt / results_figure2.txt
#   - fpr table                -> results_fpr.txt
#   - ablations                -> results_ablation.txt
#
# Usage: scripts/reproduce.sh [TOTAL_ROWS] [RUNS] [THREADS]
#   TOTAL_ROWS defaults to 1000000 (paper scale: 10000000)
#   RUNS       defaults to 3       (paper: 10 after 1 warmup)
#   THREADS    defaults to 1       (serial; see DESIGN.md §4d)
#
# figure1/figure2 additionally refresh the committed perf trajectory
# (BENCH_figure1.json / BENCH_figure2.json at the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."

TOTAL_ROWS="${1:-1000000}"
RUNS="${2:-3}"
THREADS="${3:-1}"

echo "== tests"
cargo test --workspace 2>&1 | tee test_output.txt | tail -3

echo "== figure 1 (total_rows=$TOTAL_ROWS, runs=$RUNS, threads=$THREADS)"
cargo run --release -p trac-bench --bin figure1 -- \
  --total-rows "$TOTAL_ROWS" --runs "$RUNS" --threads "$THREADS" \
  | tee results_figure1.txt

echo "== figure 2"
cargo run --release -p trac-bench --bin figure2 -- \
  --total-rows "$TOTAL_ROWS" --runs "$RUNS" --threads "$THREADS" \
  | tee results_figure2.txt

echo "== fpr table (exact, oracle-feasible scale)"
cargo run --release -p trac-bench --bin fpr_table -- \
  --sources 100 --ratio 10 | tee results_fpr.txt

echo "== ablations"
cargo run --release -p trac-bench --bin ablation -- \
  --total-rows 100000 | tee results_ablation.txt

echo "done. See EXPERIMENTS.md for the paper-vs-measured comparison."

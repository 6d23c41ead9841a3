#!/bin/bash
# Regenerates every paper table/figure into bench_results/.
# Usage: ./run_benches.sh [quick] [--matrix] [--coll] [--a2av] [--json]
#                         [--transport sim-ibv|sim-ofi|shm|tcp]
#
# With --transport (or LCI_TRANSPORT set) the microbenchmark sweeps run
# on that single transport and the output files carry its name, e.g.
# bench_results/msgrate_thread_tcp.txt.
#
# --json additionally parses every results file written by this run
# into a machine-readable .json sibling and consolidates them all into
# bench_results/BENCH_10.json (see split_bench_output.py --json-only).
#
# --matrix runs ONLY the thread-per-core scale matrix (the 8→128-thread
# sweep; BENCH_MATRIX_THREADS overrides the axis) into
# bench_results/scale_matrix.txt. Without it the matrix runs after the
# figure benches.
#
# --coll runs ONLY the collectives sweep (chunk-pipelined ring/pairwise
# vs the coll::naive baselines; BENCH_COLL_SIZES/BENCH_COLL_RANKS override
# the axes) into bench_results/collectives.txt. Without it the sweep
# runs after the figure benches.
#
# --a2av runs ONLY the sparse alltoallv / MoE-routing skew sweep
# (sparse vs padded-dense vs coll::naive; BENCH_A2AV_RANKS/
# BENCH_A2AV_SKEWS/BENCH_A2AV_TOKENS override the axes) into
# bench_results/alltoallv.txt. Without it the sweep runs after the
# figure benches.
set -u
TRANSPORT="${LCI_TRANSPORT:-}"
MATRIX_ONLY=0
COLL_ONLY=0
A2AV_ONLY=0
JSON=0
while [ $# -gt 0 ]; do
  case "$1" in
    quick) export BENCH_QUICK=1 ;;
    --matrix) MATRIX_ONLY=1 ;;
    --coll) COLL_ONLY=1 ;;
    --a2av) A2AV_ONLY=1 ;;
    --json) JSON=1 ;;
    --transport) shift; TRANSPORT="$1" ;;
    --transport=*) TRANSPORT="${1#*=}" ;;
    *) echo "unknown arg: $1" >&2; exit 2 ;;
  esac
  shift
done
if [ -n "$TRANSPORT" ]; then
  export LCI_TRANSPORT="$TRANSPORT"
  SUFFIX="_${TRANSPORT}"
else
  SUFFIX=""
fi
if [ "${BENCH_QUICK:-}" != "1" ]; then
  export BENCH_MAX_THREADS=${BENCH_MAX_THREADS:-4}
  export BENCH_ITERS=${BENCH_ITERS:-2000}
fi
mkdir -p bench_results
WRITTEN=()
finish() {
  if [ "$JSON" = 1 ] && [ "${#WRITTEN[@]}" -gt 0 ]; then
    python3 split_bench_output.py --json-only "${WRITTEN[@]}"
  fi
}
# The scale matrix sweeps its own transport axis in-process, so its
# output file is unsuffixed (like shm_scale) unless a transport was
# forced, in which case only that transport ran.
run_matrix() {
  echo "=== running scale_matrix ==="
  cargo bench -p bench --bench scale_matrix 2>/dev/null \
    | tee "bench_results/scale_matrix${SUFFIX}.txt" | tail -8
  WRITTEN+=("bench_results/scale_matrix${SUFFIX}.txt")
}
# The collectives sweep covers its own transport axis in one run
# (sim-ibv + sim-ofi thread-per-rank, multi-process shm): unsuffixed.
run_coll() {
  echo "=== running collectives ==="
  cargo bench -p bench --bench collectives 2>/dev/null \
    | tee bench_results/collectives.txt | tail -8
  WRITTEN+=(bench_results/collectives.txt)
}
# The alltoallv sweep covers its own transport axis in one run
# (sim-ibv + sim-ofi thread-per-rank, multi-process shm + tcp):
# unsuffixed.
run_a2av() {
  echo "=== running alltoallv ==="
  cargo bench -p bench --bench alltoallv 2>/dev/null \
    | tee bench_results/alltoallv.txt | tail -8
  WRITTEN+=(bench_results/alltoallv.txt)
}
if [ "$MATRIX_ONLY" = 1 ]; then
  run_matrix
  finish
  exit 0
fi
if [ "$COLL_ONLY" = 1 ]; then
  run_coll
  finish
  exit 0
fi
if [ "$A2AV_ONLY" = 1 ]; then
  run_a2av
  finish
  exit 0
fi
for b in table1_semantics fig2_msgrate_process fig3_msgrate_thread fig4_bandwidth \
         fig5_resources fig6_kmer fig7_octotiger ablations; do
  echo "=== running $b ==="
  cargo bench -p bench --bench "$b" 2>/dev/null | tee "bench_results/${b#*_}${SUFFIX}.txt" | tail -4
  WRITTEN+=("bench_results/${b#*_}${SUFFIX}.txt")
done
run_matrix
run_coll
run_a2av
# Real multi-process scaling over both wires (shm segment + tcp
# loopback mesh; each row carries its wire, whatever the sweep
# transport above was — LCI_TRANSPORT pins the axis to one wire).
echo "=== running shm_scale ==="
cargo bench -p bench --bench shm_scale 2>/dev/null | tee bench_results/shm_scale.txt | tail -8
WRITTEN+=(bench_results/shm_scale.txt)
echo "=== criterion micro ==="
cargo bench -p bench --bench micro_criterion 2>/dev/null | tee bench_results/micro_criterion.txt | grep -E "time:|thrpt:" | head -20
WRITTEN+=(bench_results/micro_criterion.txt)
finish

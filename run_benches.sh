#!/bin/bash
# Regenerates every paper table/figure into bench_results/.
# Usage: ./run_benches.sh [quick] [--transport sim-ibv|sim-ofi|shm|tcp]
#
# With --transport (or LCI_TRANSPORT set) the microbenchmark sweeps run
# on that single transport and the output files carry its name, e.g.
# bench_results/msgrate_thread_tcp.txt.
set -u
TRANSPORT="${LCI_TRANSPORT:-}"
while [ $# -gt 0 ]; do
  case "$1" in
    quick) export BENCH_QUICK=1 ;;
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
for b in table1_semantics fig2_msgrate_process fig3_msgrate_thread fig4_bandwidth \
         fig5_resources fig6_kmer fig7_octotiger; do
  echo "=== running $b ==="
  cargo bench -p bench --bench "$b" 2>/dev/null | tee "bench_results/${b#*_}${SUFFIX}.txt" | tail -4
done

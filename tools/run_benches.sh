#!/usr/bin/env bash
# Run the performance-trajectory benches and emit their JSON series.
#
#   tools/run_benches.sh [--quick] [build-dir] [out-dir]
#
# Produces, in out-dir (default: the build dir):
#   BENCH_engine.json   -- E11 engine hot-path throughput (steps/sec),
#                          incl. the eviction-heavy rows' evictions/step,
#                          the pre-single row on a 2,444-block program,
#                          the oracle pre-single row on a scale-16 trace,
#                          the k = 8 geometry build on that program
#                          (every block vs the blocks its trace exits),
#                          the build of the program itself and each
#                          stage of that build alone
#   BENCH_codecs.json   -- E4 codec compress + decompress throughput per
#                          codec, and the huffman decoder A/B
#   BENCH_sweep.json    -- sharded policy-grid sweep scaling (grid pts/sec
#                          at 1/2/4/8 workers) + lockstep batch series
#                          (cells-stepped/sec at batch 1..16, incl. the
#                          wide-CFG regime where batching wins)
#
# The served stack (campaigns, the artifact cache, the TCP front door)
# is measured end to end by perfbench/ (BENCHMARK.json), not here.
#
# --quick is the CI smoke mode: benches shrink their scales (via
# APCC_BENCH_QUICK) and google-benchmark runs minimal repetitions, so the
# per-PR artifact job finishes fast. Series names are unchanged; only the
# absolute numbers are smoke-grade.
#
# The JSON comes from google-benchmark's --benchmark_format=json, so a
# tracking dashboard can diff runs across PRs.
set -euo pipefail

# QUICK_ARGS expands via ${QUICK_ARGS[@]+...} below: plain "${arr[@]}"
# on an empty array trips `set -u` on bash < 4.4 (stock macOS bash).
QUICK_ARGS=()
if [[ "${1:-}" == "--quick" ]]; then
  shift
  export APCC_BENCH_QUICK=1
  QUICK_ARGS=(--benchmark_min_time=0.05)
fi

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-${BUILD_DIR}}"

for bench in bench_e11_engine_throughput bench_e4_codecs \
             bench_sweep_scaling; do
  if [[ ! -x "${BUILD_DIR}/${bench}" ]]; then
    echo "error: ${BUILD_DIR}/${bench} not built" >&2
    echo "hint: cmake -B ${BUILD_DIR} -S . && cmake --build ${BUILD_DIR} -j" >&2
    exit 1
  fi
done

mkdir -p "${OUT_DIR}"

echo "== E11 engine throughput -> ${OUT_DIR}/BENCH_engine.json"
"${BUILD_DIR}/bench_e11_engine_throughput" \
    ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} \
    --benchmark_format=json \
    --benchmark_out="${OUT_DIR}/BENCH_engine.json" \
    --benchmark_out_format=json

# The eviction-heavy rows must actually evict: a zero (or missing)
# evictions_per_step means the budget no longer forces victim selection
# and the series silently measures the unbounded engine instead.
if ! python3 - "${OUT_DIR}/BENCH_engine.json" <<'PY'
import json, sys
rows = [b for b in json.load(open(sys.argv[1]))["benchmarks"]
        if b["name"].startswith("bm_engine_budget_evictions")
        and b.get("run_type", "iteration") == "iteration"]
sys.exit(0 if rows and all(b.get("evictions_per_step", 0) > 0
                           for b in rows) else 1)
PY
then
  echo "error: BENCH_engine.json has no non-zero evictions_per_step" >&2
  echo "       (bm_engine_budget_evictions should evict on every run)" >&2
  exit 1
fi

# The two pre-single rows are the series that time a predictor's cost:
# the profile predictor's ranking on a large CFG, and the oracle
# predictor on a long trace. bm_frontier_build times the planner
# geometry build, every block's lists and the trace exits' alone,
# bm_workload_build one workload build (source to block bytes), the
# setup cost of each of artifact-churn's programs, and
# bm_workload_stage that build's stages one by one (source, assemble,
# CFG, run), so a build regression names its stage. A run without any
# of them has silently stopped measuring that cost.
if ! python3 - "${OUT_DIR}/BENCH_engine.json" <<'PY'
import json, sys
rows = [b for b in json.load(open(sys.argv[1]))["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"]
missing = [series
           for series in ("bm_engine_presingle", "bm_engine_presingle_oracle",
                          "bm_frontier_build", "bm_workload_build",
                          "bm_workload_stage")
           if not any(b["name"].split("/")[0] == series for b in rows)]
for m in missing:
    print(f"error: BENCH_engine.json has no {m} row", file=sys.stderr)
sys.exit(1 if missing else 0)
PY
then
  exit 1
fi

echo "== E4 codec throughput -> ${OUT_DIR}/BENCH_codecs.json"
"${BUILD_DIR}/bench_e4_codecs" \
    ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} \
    --benchmark_format=json \
    --benchmark_out="${OUT_DIR}/BENCH_codecs.json" \
    --benchmark_out_format=json

# Every codec the library keeps must have both its compress and its
# decompress row in the artifact: a codec's ratio is only half of its
# story without the MB/s an artifact build and a decode pay. The list is
# spelled out on purpose: a codec that silently falls out of either
# series (or out of the library) fails the run here instead of
# shrinking the series.
if ! python3 - "${OUT_DIR}/BENCH_codecs.json" <<'PY'
import json, sys
rows = [b for b in json.load(open(sys.argv[1]))["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"]
missing = [f"{series} {codec}"
           for series in ("bm_compress", "bm_decompress")
           for codec in ("null", "mtf-rle", "huffman", "huffman-shared",
                         "lzss", "codepack", "field-split")
           if not any(b["name"].startswith(series + "/")
                      and b.get("label") == codec for b in rows)]
for m in missing:
    print(f"error: BENCH_codecs.json has no {m} row", file=sys.stderr)
sys.exit(1 if missing else 0)
PY
then
  echo "       (bm_compress and bm_decompress should cover every kept" >&2
  echo "       codec)" >&2
  exit 1
fi

echo "== sweep scaling -> ${OUT_DIR}/BENCH_sweep.json"
"${BUILD_DIR}/bench_sweep_scaling" \
    ${QUICK_ARGS[@]+"${QUICK_ARGS[@]}"} \
    --benchmark_filter='bm_sweep_(grid|batch)' \
    --benchmark_format=json \
    --benchmark_out="${OUT_DIR}/BENCH_sweep.json" \
    --benchmark_out_format=json

# Each sweep series must be in the artifact: the Service's pool scaling
# (bm_sweep_grid) and the one-thread lockstep batching trend on both
# the suite grid and the wide CFG. A series that drops out of the
# filter or the bench fails the run here instead of shrinking the file.
if ! python3 - "${OUT_DIR}/BENCH_sweep.json" <<'PY'
import json, sys
rows = [b for b in json.load(open(sys.argv[1]))["benchmarks"]
        if b.get("run_type", "iteration") == "iteration"]
missing = [series
           for series in ("bm_sweep_grid", "bm_sweep_batch",
                          "bm_sweep_batch_widecfg")
           if not any(b["name"].split("/")[0] == series for b in rows)]
for m in missing:
    print(f"error: BENCH_sweep.json has no {m} row", file=sys.stderr)
sys.exit(1 if missing else 0)
PY
then
  exit 1
fi

echo "done."

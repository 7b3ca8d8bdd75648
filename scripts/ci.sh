#!/usr/bin/env bash
# CI driver: build, then the labelled test-stage matrix (tier1 -> stress ->
# fuzz -> conformance; see tests/CMakeLists.txt for what each label covers),
# then sanitizer builds over the concurrency + anneal/qubo hot-path +
# conformance subset.
#
# Usage: scripts/ci.sh [--skip-sanitizers]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"
skip_sanitizers=0
[[ "${1:-}" == "--skip-sanitizers" ]] && skip_sanitizers=1

echo "=== build (build/) ==="
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"

# Stage matrix: fast per-module suites gate first, then the service
# concurrency stress, then differential fuzzing vs the classical baseline,
# then the exhaustive-spectrum encoding proofs + golden SMT-LIB corpus.
for label in tier1 stress fuzz conformance; do
  echo "=== tests: ctest -L ${label} ==="
  ctest --test-dir build -L "${label}" --output-on-failure -j "${jobs}"
done

# The batched annealing substrate dispatches between an AVX2 sweep and a
# portable scalar fallback at runtime; run tier1 again with the fallback
# pinned so both code paths stay green on every change.
echo "=== tests: ctest -L tier1 (QSMT_NO_AVX2=1 scalar fallback) ==="
QSMT_NO_AVX2=1 ctest --test-dir build -L tier1 --output-on-failure -j "${jobs}"

echo "=== docs consistency (links, API coverage, no OpenMP, src/ size) ==="
python3 scripts/check_docs.py

# Seconds-scale correctness pass over the quantum hot path: kernel
# best-energy parity vs the retained reference and a bit-identical warm
# embedding-cache hit. Perf gates stay in the full (JSON-writing) run —
# CI machines are too noisy to threshold throughput.
echo "=== quantum_bench --smoke ==="
./build/bench/quantum_bench --smoke

# Same seconds-scale pass over the batched annealing substrate: every
# replica-count configuration must stay bit-identical to the scalar
# single-read path (the throughput gate, like above, only fires in the
# full run).
echo "=== batch_bench --smoke ==="
./build/bench/batch_bench --smoke

# Server stage: the daemon's tier1/stress/conformance suites already ran in
# the label matrix above (server_test, server_stress_test,
# server_corpus_test); this is the seconds-scale end-to-end pass — the full
# socket path under one and eight concurrent connections, verdict-only
# replies, no session leaks. Throughput gates, as above, only fire in the
# full (JSON-writing) run.
echo "=== server_bench --smoke ==="
./build/bench/server_bench --smoke

# Incremental stage: warm and cold drivers replay the same forced-witness
# mutate-one-conjunct chain and must agree byte-for-byte on every verdict
# and model. The >= 3x warm-vs-cold speedup gate, as above, only fires in
# the full (JSON-writing) run.
echo "=== incremental_bench --smoke ==="
./build/bench/incremental_bench --smoke

# Routing stage: a trained router against the full race over a seeded
# mixed workload — byte-equal verdicts are a hard failure, and routed
# mean latency must stay at or under the full race's. The >= 1.5x
# cores-per-job reduction gate, as above, only fires in the full
# (JSON-writing) run.
echo "=== route_bench --smoke ==="
./build/bench/route_bench --smoke

# Answer-cache stage: a warmed canonical answer cache serves a duplicate
# stream at hit rate 1.0 with byte-identical verdicts; warm-vs-cold mean
# latency must clear 3x here (the >= 10x gate fires in the full,
# JSON-writing run — BENCH_answercache.json is the tracked baseline).
echo "=== answer_cache_bench --smoke ==="
./build/bench/answer_cache_bench --smoke

if [[ "${skip_sanitizers}" == "1" ]]; then
  echo "=== sanitizer stages skipped ==="
  exit 0
fi

# Test subset for the (slower) sanitizer builds: the anneal/qubo hot path
# plus the service worker pool — the threaded cancellation/racing schedules
# are exactly what ASan/UBSan should see — plus the conformance suites,
# whose Gray-code spectrum sweeps and exact-solver corpus replays touch
# every builder's full state space, plus the server suites (the socket
# transport's reader threads, admission gate, and disconnect-cancellation
# races), plus the incremental differential chains (fragment-cache LRU
# mutation under reuse, context-carried clause memory, and the shared-cache
# concurrency schedules), plus the router suites (the shared win/loss
# table is mutated from every worker thread at enqueue and completion,
# and the fuzz differential drives it through full 216-job streams), plus
# the answer-cache suites (one shared LRU mutated from every submitting
# thread and tenant session, with hit-serving racing inserts and
# evictions). The binaries run directly (rather than via ctest) so the
# subset is exact regardless of which gtest case names discovery
# registered.
subset=(annealer_test hotpath_test batched_kernel_test qubo_builder_test
        qubo_model_test adjacency_test sample_set_test schedule_test
        builders_test pimc_test embedding_test embedded_sampler_test
        quantum_hotpath_test quantum_conformance_test
        service_test conformance_test corpus_test
        server_test server_stress_test incremental_test
        router_test router_fuzz_test
        canon_test answer_cache_test answer_fuzz_test)

for san in address undefined; do
  echo "=== ${san} sanitizer build (build-${san}/) ==="
  cmake -B "build-${san}" -S . -DQSMT_SANITIZE="${san}" >/dev/null
  cmake --build "build-${san}" -j "${jobs}" --target "${subset[@]}"
  for test in "${subset[@]}"; do
    echo "--- ${san}: ${test}"
    "build-${san}/tests/${test}" --gtest_brief=1
  done
done

echo "=== ci.sh: all stages passed ==="

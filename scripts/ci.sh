#!/usr/bin/env bash
# CI entry point. Lanes (select with TXCONC_CI_LANES, comma-separated;
# default runs all):
#  * tier1 — configure, build (-Wall -Wextra -Wshadow -Werror), ctest,
#    a TXCONC_REPRO replay of one block-stm conformance cell ("repro OK"),
#    then an observability smoke: a traced fast-mode ablation_engines run
#    in build/obs-smoke must emit a valid, non-empty Chrome trace AND the
#    critpath profiler's attribution sum invariant must hold for every
#    engine ("profile OK"), leaving any top-level BENCH_*.json unchanged
#    and creating none,
#    and on x86-64 the sequential block paths' prefetcht0 instructions
#    must be in the built objects ("prefetch OK");
#  * asan  — ASan/UBSan on exec_test + conformance_test + audit_test:
#    memory errors and UB under the thread pool's chunked parallel_for;
#    common_test + chain_test put the SHA-NI kernel's unaligned loads,
#    the 16-lane AVX-512 batch path (its transposing loads and stores,
#    with the page-guard test catching any over-read ASan cannot see) and
#    the merkle/ledger paths under ASan/UBSan; account_test + state_trie_test
#    cover the flat account table, whose records move when it grows;
#    txconc_profile then analyzes a traced parallel_executor run, driving
#    the trace parser and span-DAG analyzer over sanitizer-instrumented
#    code, and txconc_contend replays every engine through the contention
#    probe and its gates;
#  * tsan  — TSan on the same binaries: data races, with the conformance
#    schedule perturber widening the interleavings each seed explores,
#    and txconc_contend's pool workers feeding the contention sink;
#  * tsa   — Clang Thread Safety Analysis: recompiles every library with
#    -Wthread-safety -Werror=thread-safety-analysis, turning the
#    GUARDED_BY/REQUIRES annotations (common/thread_annotations.h) into
#    compile errors when lock discipline is violated;
#  * tidy  — clang-tidy over src/ with the checks in .clang-tidy;
#  * lint  — txconc-lint (tools/txconc_lint): the repo's own AST-level
#    checker for invariants generic tooling can't see — TXCONC_HOT
#    functions must not allocate, relaxed/acquire/release atomics need an
#    "ordering:" justification and release stores a matching acquire
#    side, the MutexLock acquisition graph must stay acyclic, TSA escapes
#    need a "tsa:" note, and raw Tracer begin/end outside the RAII span
#    helpers is rejected. Unlike tsa/tidy this lane is never skipped: the
#    checker is built by this repo's own CMake with no clang dependency;
#  * bench — benchmark regression gate: a fresh TXCONC_BENCH_FAST run of
#    bench/ablation_engines is compared against the committed baselines in
#    bench/baselines/ by scripts/bench_gate (hardware-portable ratios with
#    per-metric tolerances). A negative control gates a copy of the fresh
#    BENCH_exec.json with every non-sequential wall time raised 20% against
#    the fresh file and asserts the gate FAILS on its exec aggregate —
#    proving the lane has teeth — and a positive control asserts the fresh
#    file gated against itself passes. The same fresh run writes
#    BENCH_profile.json (per-cell wall-clock attribution), gated by
#    absolute invariants (sum within eps of threads x wall, bounded
#    untracked share), and BENCH_contention.json (measured c/l, hot keys,
#    prediction quality), gated by --contend with its own doctored-JSON
#    negative control. A schema guard requires every header and row key
#    of the committed baselines in the fresh files, with a dropped-key
#    negative control. After an
#    intentional perf change, refresh the
#    baselines with
#      scripts/bench_gate --exec BENCH_exec.json --obs BENCH_obs.json \
#        --profile BENCH_profile.json --refresh
#    and commit bench/baselines/*.json;
#  * node  — the node-path benchmark's own checks: configures bench/node
#    into .bench_build and runs its ctest (node_bench_smoke, a short run of
#    every BENCHMARK.json workload, and node_bench_selftest, the negative
#    controls including a doctored-state-root block every validator must
#    reject);
#  * bench-large — the same bench with TXCONC_BENCH_LARGE=1: adds the
#    10k-tx concatenated-block cells (reduced reps) and enforces the
#    large-block attainment floor (wall_speedup > 1 at >= 4 threads on
#    multicore hosts; >= 0.9 on < 4-core hosts) via scripts/bench_gate.
# The tsa and tidy lanes need clang++/clang-tidy and are skipped with a
# notice when the tools are absent (the annotations compile to no-ops
# under GCC, so the other lanes still build the same code).
# TXCONC_CONFORMANCE_FAST=1 shrinks the differential sweep (fewer schedule
# seeds) so the ~10x sanitizer slowdown stays within CI budgets.
#
# Examples:
#   ./scripts/ci.sh                          # everything
#   TXCONC_CI_LANES=tier1 ./scripts/ci.sh    # fast local gate
#   TXCONC_CI_LANES=tsa,tidy,lint ./scripts/ci.sh # static analysis only
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"
LANES="${TXCONC_CI_LANES:-tier1,asan,tsan,tsa,tidy,lint,bench,node,bench-large}"

lane_enabled() {
  case ",${LANES}," in
    *",$1,"*) return 0 ;;
    *) return 1 ;;
  esac
}

# Library targets for compile-only lanes (tsa): everything with annotated
# or annotation-consuming code, which today is the whole src/ tree.
LIB_TARGETS=(txconc_common txconc_core txconc_utxo txconc_account
             txconc_obs txconc_chain txconc_shard txconc_workload
             txconc_exec txconc_audit txconc_analysis txconc_conformance)

# --- tier-1 verify ---------------------------------------------------------
if lane_enabled tier1; then
  echo "== lane: tier1 =="
  cmake -B build -S . -DTXCONC_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build -j"${JOBS}"
  ctest --test-dir build --output-on-failure -j"${JOBS}"
  # Repro path: plain ctest skips ReproCommand.ReplaysEnvSpec, so replay
  # one block-stm cell (4 threads, a schedule seed, faults on) the way a
  # failing conformance cell's TXCONC_REPRO line says to, and require that
  # the replay ran and passed rather than skipped.
  TXCONC_REPRO='executor=block-stm threads=4 profile=ethereum profile_seed=1 schedule_seed=3 fault_rate=0.15 fault_seed=3 blocks=3 tx_scale=0.5' \
    ./build/tests/conformance_test \
    --gtest_filter='ReproCommand.ReplaysEnvSpec' > build/repro.log 2>&1
  grep -q '^\[  PASSED  \] 1 test\.' build/repro.log
  if grep -q 'SKIPPED' build/repro.log; then
    echo "repro replay skipped"; exit 1
  fi
  echo "repro OK: ReproCommand.ReplaysEnvSpec replayed a block-stm cell"
  # Observability smoke: a traced bench run must produce a non-empty
  # Chrome trace whose spans the bench's built-in validator accepts
  # ("trace OK ...") and whose critpath profile satisfies the
  # attribution sum invariant for every registry engine ("profile OK";
  # see run_traced_smoke in bench/ablation_engines.cpp). The bench
  # writes its BENCH_*.json into the CWD, so it runs in build/obs-smoke
  # in fast mode, and the top-level BENCH_*.json files (a clean checkout
  # has none) must come out of the lane byte-identical, none created.
  top_bench_sums() {
    find . -maxdepth 1 -name 'BENCH_*.json' -exec sha256sum {} + | sort -k2
  }
  committed_bench_sums="$(top_bench_sums)"
  mkdir -p build/obs-smoke
  (cd build/obs-smoke && TXCONC_BENCH_FAST=1 TXCONC_TRACE=trace.json \
    ../bench/ablation_engines --benchmark_filter='^$' > smoke.log 2>&1)
  grep -q "trace OK" build/obs-smoke/smoke.log
  grep -q "profile OK" build/obs-smoke/smoke.log
  test -s build/obs-smoke/trace.json
  if [ "$(top_bench_sums)" != "${committed_bench_sums}" ]; then
    echo "tier1 lane FAILED: a top-level BENCH_*.json appeared or changed"
    exit 1
  fi
  echo "obs smoke OK: build/obs-smoke/trace.json"
  # The sequential block paths' account prefetches (DESIGN.md §24) are
  # hints a compiler may delete as dead code; require the instructions
  # in the built objects.
  if [ "$(uname -m)" = x86_64 ]; then
    # grep -c reads all of objdump's output: grep -q would stop early, and
    # the SIGPIPE would fail the pipeline under pipefail.
    for obj in build/src/exec/CMakeFiles/txconc_exec.dir/sequential.cpp.o \
               build/src/chain/CMakeFiles/txconc_chain.dir/node.cpp.o; do
      n="$(objdump -d "${obj}" | grep -c prefetcht0 || true)"
      if [ "${n}" -eq 0 ]; then
        echo "no prefetcht0 in ${obj}"; exit 1
      fi
    done
    echo "prefetch OK: sequential.cpp and node.cpp objects prefetch"
  else
    echo "prefetch check skipped: prefetcht0 is x86-64 only, this is $(uname -m)"
  fi
fi

# --- ASan/UBSan over the execution layer -----------------------------------
if lane_enabled asan; then
  echo "== lane: asan =="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan -j"${JOBS}" \
    --target exec_test --target conformance_test --target audit_test \
    --target obs_test --target trace_propagation_test --target hotpath_test \
    --target block_stm_test --target critpath_test --target contention_test \
    --target common_test --target chain_test \
    --target account_test --target state_trie_test \
    --target node_test --target wallet_node_test \
    --target parallel_executor --target txconc_profile \
    --target txconc_contend
  # Leak checking needs ptrace, which container CI runners often deny; the
  # races/UB we are after are caught without it.
  # Both SHA-256 kernels and every batch path (SHA-NI and the 16-lane
  # AVX-512 one where the CPU has them), and the merkle reduction.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/common_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/chain_test
  # The flat account table: records move when it grows, including in the
  # middle of a contract call, and the trie reads them back.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/account_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/state_trie_test
  # The producers' pack loops: moved-from candidates, compacted deferrals,
  # the reused receipt slot, and the mining-failure requeue.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/node_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/wallet_node_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/obs_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/hotpath_test
  # The contention sink under ASan: threaded recording and lane merges.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/contention_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/block_stm_test
  # The registry round-trip executes every engine through the global
  # tracer and runs the profiler over the result.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/critpath_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/trace_propagation_test
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tests/exec_test
  ASAN_OPTIONS=detect_leaks=0 TXCONC_CONFORMANCE_FAST=1 \
    ./build-asan/tests/conformance_test
  ASAN_OPTIONS=detect_leaks=0 TXCONC_CONFORMANCE_FAST=1 \
    ./build-asan/tests/audit_test
  # Drive the trace parser and critpath analyzer over sanitizer-built code:
  # the example's traced multi-engine run feeds the asan txconc_profile.
  # Thresholds are fully loosened — the strict attribution contract is
  # gated in the bench lane against warm 2-run traces; here a cold single
  # run per engine would flake on eps. Exit 2 (unanalyzable trace) still
  # fails the lane, so parse/repair regressions are caught.
  ASAN_OPTIONS=detect_leaks=0 \
    ./build-asan/examples/parallel_executor --trace=build-asan/example_trace.json \
    > build-asan/example.log 2>&1
  ASAN_OPTIONS=detect_leaks=0 \
    ./build-asan/tools/txconc_profile/txconc_profile \
    --eps=1.0 --untracked-max=1.0 build-asan/example_trace.json \
    > build-asan/profile.log 2>&1
  echo "asan txconc_profile OK: build-asan/example_trace.json analyzed"
  # Every registry engine through the contention probe: the access
  # recorder fires from every pool worker, and the gates (recall 1,
  # sink/engine abort tallies equal) must hold under the sanitizers too.
  ASAN_OPTIONS=detect_leaks=0 ./build-asan/tools/txconc_contend/txconc_contend \
    > build-asan/contend.log 2>&1
  echo "asan txconc_contend OK: every engine passed the contention gates"
fi

# --- TSan lane: races under perturbed schedules ----------------------------
# TSan is incompatible with ASan, so it gets its own build tree. The
# conformance grid runs every executor family through seeded delay/yield
# perturbation at grain boundaries — exactly the schedules where a missed
# happens-before edge shows up. audit_test rides along: the auditor's
# recorder hooks fire from every pool worker.
if lane_enabled tsan; then
  echo "== lane: tsan =="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j"${JOBS}" \
    --target exec_test --target conformance_test --target audit_test \
    --target obs_test --target trace_propagation_test --target hotpath_test \
    --target block_stm_test --target critpath_test --target contention_test \
    --target txconc_contend
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/obs_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/hotpath_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/contention_test
  # Every engine's pool workers feed the contention sink's lanes.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tools/txconc_contend/txconc_contend \
    > build-tsan/contend.log 2>&1
  echo "tsan txconc_contend OK: every engine passed the contention gates"
  # block_stm_test's concurrent rounds drive the MV store, ESTIMATE
  # suspension, and validation sweep from real pool workers.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/block_stm_test
  # Every engine's span emission + the profiler, under perturbed
  # worker schedules.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/critpath_test
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/trace_propagation_test
  # exec_test runs with the tracer enabled (TraceEnv in exec_test.cpp):
  # every pool/executor span-emission path executes under TSan.
  TSAN_OPTIONS=halt_on_error=1 TXCONC_TRACE=build-tsan/exec_trace.json \
    ./build-tsan/tests/exec_test
  # The pool's batch handoff (publish, join, close, leave) under many
  # schedules: the ThreadPool cases, repeated.
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/exec_test \
    --gtest_filter='ThreadPool.*' --gtest_repeat=100
  TSAN_OPTIONS=halt_on_error=1 TXCONC_CONFORMANCE_FAST=1 \
    ./build-tsan/tests/conformance_test
  TSAN_OPTIONS=halt_on_error=1 TXCONC_CONFORMANCE_FAST=1 \
    ./build-tsan/tests/audit_test
fi

# --- TSA lane: compile-time lock discipline --------------------------------
# Thread safety analysis exists only in clang; a removed REQUIRES or an
# unguarded access to a GUARDED_BY member fails this lane (see DESIGN.md
# §10 for the scratch-diff check that proves the lane has teeth).
if lane_enabled tsa; then
  echo "== lane: tsa =="
  if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety-analysis"
    targets=()
    for t in "${LIB_TARGETS[@]}"; do targets+=(--target "$t"); done
    cmake --build build-tsa -j"${JOBS}" "${targets[@]}"
  else
    echo "tsa lane SKIPPED: clang++ not found (thread safety analysis is" \
         "clang-only; the annotations are no-ops under this compiler)"
  fi
fi

# --- clang-tidy lane -------------------------------------------------------
if lane_enabled tidy; then
  echo "== lane: tidy =="
  if command -v clang-tidy >/dev/null 2>&1; then
    if [ ! -f build/compile_commands.json ]; then
      cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    fi
    # xargs -P parallelizes across translation units; clang-tidy reads the
    # checks from .clang-tidy at the repo root.
    find src -name '*.cpp' -print0 |
      xargs -0 -n1 -P"${JOBS}" clang-tidy -p build --quiet
  else
    echo "tidy lane SKIPPED: clang-tidy not found"
  fi
fi

# --- txconc-lint lane: the repo's own invariants, enforced -----------------
# txconc-lint exits non-zero on any finding, so set -e fails the lane on
# a violation. The footer check on top of that proves the whole catalogue
# actually ran (a silently-empty registry would otherwise pass). Fixture
# coverage lives in tests/lint_test.cpp (tier1), which asserts every rule
# both fires on its bad fixture and stays silent on the good one.
if lane_enabled lint; then
  echo "== lane: lint =="
  if [ ! -x build/tools/txconc_lint/txconc_lint ]; then
    cmake -B build -S . -DTXCONC_WERROR=ON
    cmake --build build -j"${JOBS}" --target txconc_lint
  fi
  ./build/tools/txconc_lint/txconc_lint src | tee build/lint.log
  RULES="$(sed -n 's/^txconc-lint: \([0-9][0-9]*\) rules.*/\1/p' build/lint.log)"
  if [ -z "${RULES}" ] || [ "${RULES}" -lt 5 ]; then
    echo "lint lane FAILED: expected >= 5 rules in footer, got '${RULES:-none}'"
    exit 1
  fi
  echo "lint lane OK: ${RULES} rules clean over src/"
fi

# --- bench lane: regression gate + negative control ------------------------
# Gates hardware-portable ratios (wall_speedup / simulated_speedup /
# tracer overhead) from a fresh fast-mode run against the committed
# baselines, then proves the gate can fail on a doctored copy of that run
# with a +20% slowdown (non-sequential rows only; see DESIGN.md §12 for
# the tolerance rationale).
if lane_enabled bench; then
  echo "== lane: bench =="
  if [ ! -x build/bench/ablation_engines ]; then
    cmake -B build -S . -DTXCONC_WERROR=ON
    cmake --build build -j"${JOBS}" --target ablation_engines
  fi
  BENCH_BIN="$(pwd)/build/bench/ablation_engines"
  # ablation_engines writes BENCH_*.json into the CWD; run it from a
  # scratch dir so the gate never clobbers the committed files.
  mkdir -p build/bench-fresh
  (cd build/bench-fresh && env TXCONC_BENCH_FAST="${TXCONC_BENCH_FAST:-1}" \
    "${BENCH_BIN}" --benchmark_filter='^$' > bench.log 2>&1)
  scripts/bench_gate --exec build/bench-fresh/BENCH_exec.json \
    --obs build/bench-fresh/BENCH_obs.json \
    --profile build/bench-fresh/BENCH_profile.json \
    --contend build/bench-fresh/BENCH_contention.json
  echo "bench gate vs committed baselines: OK"
  # Schema guard: every fresh row must carry every row key of the
  # committed baseline, and the fresh header every header key.
  # BENCH_profile.json has no baseline; bench_gate --profile indexes
  # every key it reads strictly, so a missing one fails there.
  # A doctored copy with one row key dropped must trip it.
  check_schema() {  # check_schema <committed> <fresh>
    python3 - "$1" "$2" <<'PYEOF'
import json, sys
committed, fresh = (json.load(open(path)) for path in sys.argv[1:3])
missing = sorted(set(committed) - set(fresh))
row_keys = set().union(*committed.get("results", []))
for i, row in enumerate(fresh.get("results", [])):
    missing += [f"results[{i}].{k}" for k in sorted(row_keys - set(row))]
if missing:
    sys.exit(f"{sys.argv[2]} lacks keys of {sys.argv[1]}: " + ", ".join(missing))
PYEOF
  }
  for committed in bench/baselines/BENCH_*.json; do
    check_schema "${committed}" "build/bench-fresh/$(basename "${committed}")"
  done
  python3 -c 'import json, sys; d = json.load(open(sys.argv[1]));
del d["results"][-1]["attempts_per_tx"]; json.dump(d, open(sys.argv[2], "w"))' \
    build/bench-fresh/BENCH_exec.json build/bench-fresh/BENCH_exec_dropped_key.json
  if check_schema bench/baselines/BENCH_exec.json \
       build/bench-fresh/BENCH_exec_dropped_key.json \
       > build/bench-fresh/schema_doctored.log 2>&1; then
    echo "bench lane FAILED: a dropped row key did not trip the schema guard"
    exit 1
  fi
  echo "schema negative control OK: a dropped row key tripped the guard"
  # Contention negative control: doctoring one cell's measured conflict
  # rate away from the generator's intent must trip --contend — proving
  # the measured-vs-intent check has teeth.
  python3 - <<'PYEOF'
import json
with open("build/bench-fresh/BENCH_contention.json") as f:
    doc = json.load(f)
doc["results"][0]["measured_c_address"] += 0.5
with open("build/bench-fresh/BENCH_contention_doctored.json", "w") as f:
    json.dump(doc, f)
PYEOF
  if scripts/bench_gate \
       --contend build/bench-fresh/BENCH_contention_doctored.json \
       > build/bench-fresh/contend_doctored.log 2>&1; then
    echo "bench lane FAILED: doctored contention cell did not trip --contend"
    cat build/bench-fresh/contend_doctored.log
    exit 1
  fi
  echo "contend negative control OK: doctored measured_c tripped the gate"
  # Slowdown controls, deterministic because no second bench run is
  # involved: the fresh file gated against itself must pass, and a copy
  # with every non-sequential wall time raised 20% (sequential is the
  # speedup denominator, so slowing it too would cancel out) must fail on
  # the exec aggregate, whose median ratio is then exactly 1/1.2.
  python3 - <<'PYEOF'
import json
with open("build/bench-fresh/BENCH_exec.json") as f:
    doc = json.load(f)
sequential_wall = {row["block_txs"]: row["wall_seconds"]
                   for row in doc["results"] if row["executor"] == "sequential"}
for row in doc["results"]:
    if row["executor"] != "sequential":
        row["wall_seconds"] *= 1.2
        row["wall_speedup"] = (sequential_wall[row["block_txs"]] /
                               row["wall_seconds"])
with open("build/bench-fresh/BENCH_exec_slowed.json", "w") as f:
    json.dump(doc, f)
PYEOF
  scripts/bench_gate --exec build/bench-fresh/BENCH_exec.json \
    --baseline-exec build/bench-fresh/BENCH_exec.json
  echo "bench positive control OK: the fresh run passes against itself"
  if scripts/bench_gate --exec build/bench-fresh/BENCH_exec_slowed.json \
       --baseline-exec build/bench-fresh/BENCH_exec.json \
       > build/bench-fresh/slowed.log 2>&1; then
    echo "bench lane FAILED: +20% slowdown did not trip the gate"
    cat build/bench-fresh/slowed.log
    exit 1
  fi
  if ! grep -q '^exec aggregate: .* FAIL$' build/bench-fresh/slowed.log; then
    echo "bench lane FAILED: +20% slowdown failed the gate, but not on the"
    echo "exec aggregate"
    cat build/bench-fresh/slowed.log
    exit 1
  fi
  echo "bench negative control OK: +20% slowdown tripped the exec aggregate"
fi

# --- node lane: node-path benchmark smoke + negative controls --------------
# bench/node is a CMake project of its own (bench/node/README.md), built
# into the same .bench_build tree bench/node/run.py uses.
if lane_enabled node; then
  echo "== lane: node =="
  cmake -S bench/node -B .bench_build -DCMAKE_BUILD_TYPE=Release
  cmake --build .bench_build -j"${JOBS}"
  ctest --test-dir .bench_build --output-on-failure
  echo "node lane OK: node_bench smoke and self-test passed"
fi

# --- bench-large lane: block-size scaling smoke ----------------------------
# Re-runs the bench with TXCONC_BENCH_LARGE=1, which adds the 10k-tx
# concatenated-block cells on top of the fast {124, 1000} grid (reps are
# automatically cut to <=3 for cells of 10k+ txs). Every engine measured
# at 1000 txs must also have 10k-tx rows — checked directly, with a
# negative control that drops one engine's 10k rows and must trip. The
# gate then checks the large cells against the committed baselines AND
# the attainment floor: >= 2 parallel engines must beat sequential wall
# clock at >= 4 threads on >= 1000-tx blocks on multicore hosts, or hold
# wall_speedup >= 0.9 on hosts with < 4 cores.
if lane_enabled bench-large; then
  echo "== lane: bench-large =="
  if [ ! -x build/bench/ablation_engines ]; then
    cmake -B build -S . -DTXCONC_WERROR=ON
    cmake --build build -j"${JOBS}" --target ablation_engines
  fi
  BENCH_BIN="$(pwd)/build/bench/ablation_engines"
  mkdir -p build/bench-large
  (cd build/bench-large && env TXCONC_BENCH_LARGE=1 \
    TXCONC_BENCH_FAST="${TXCONC_BENCH_FAST:-1}" \
    "${BENCH_BIN}" --benchmark_filter='^$' > bench.log 2>&1)
  # Exits non-zero when an executor with a 1000-tx row has no 10k row.
  check_large_coverage() {
    python3 - "$1" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    rows = json.load(f)["results"]
def engines(txs):
    return {r["executor"] for r in rows if r["block_txs"] == txs}
if not engines(1000):
    print("no 1000-tx rows")
    sys.exit(1)
missing = sorted(engines(1000) - engines(10000))
if missing:
    print("no 10000-tx rows for: " + ", ".join(missing))
    sys.exit(1)
PYEOF
  }
  check_large_coverage build/bench-large/BENCH_exec.json
  python3 - <<'PYEOF'
import json
with open("build/bench-large/BENCH_exec.json") as f:
    doc = json.load(f)
doc["results"] = [r for r in doc["results"]
                  if not (r["executor"] == "block-stm"
                          and r["block_txs"] == 10000)]
with open("build/bench-large/BENCH_exec_doctored.json", "w") as f:
    json.dump(doc, f)
PYEOF
  if check_large_coverage build/bench-large/BENCH_exec_doctored.json \
       > build/bench-large/coverage_doctored.log 2>&1; then
    echo "bench-large lane FAILED: dropped 10k rows did not trip the check"
    exit 1
  fi
  echo "coverage negative control OK: dropped block-stm 10k rows tripped"
  scripts/bench_gate --exec build/bench-large/BENCH_exec.json \
    --profile build/bench-large/BENCH_profile.json \
    --contend build/bench-large/BENCH_contention.json
  echo "bench-large gate OK (10k-tx cells within tolerances + attainment)"
fi

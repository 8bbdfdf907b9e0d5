#!/usr/bin/env bash
# Local CI: lint (when ruff is available), the tier-1 test suite, the
# benchmark smoke and the end-to-end smokes.
#
# Every step runs even when an earlier one fails; the failed steps are
# listed at the end and the script then exits non-zero.
#
# Usage: scripts/check.sh [extra pytest args...]
set -uo pipefail

cd "$(dirname "$0")/.."

failed=()

# step NAME CMD [ARGS...]: run one step, remembering it if it fails.
step() {
    local name="$1"
    shift
    echo "== $name =="
    if ! "$@"; then
        echo "-- step failed: $name"
        failed+=("$name")
    fi
}

if command -v ruff >/dev/null 2>&1; then
    step "ruff check" ruff check src tests benchmarks examples
else
    echo "== ruff not installed; skipping lint =="
fi

step "tier-1 tests" env PYTHONPATH=src python -m pytest -x -q "$@"

# Smoke-run the benchmark suite: --benchmark-disable executes every bench
# body once without timing rounds, so import errors and broken experiment
# plumbing surface here instead of in a long benchmark session. Skippable
# for quick local iterations with CHECK_SKIP_BENCH=1 — except the serving
# bench, whose acceptance checks (refresh equivalence, coalescing,
# accounting) are fast enough to always run, and the universe-fit bench,
# the gating body of the fit smoke below. Each branch runs each file once.
if [ "${CHECK_SKIP_BENCH:-0}" != "1" ]; then
    step "benchmark smoke (--benchmark-disable)" \
        env PYTHONPATH=src python -m pytest benchmarks/ -q --benchmark-disable
else
    step "serving bench smoke (--benchmark-disable)" \
        env PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q \
        --benchmark-disable
    step "universe fit bench smoke (--benchmark-disable)" \
        env PYTHONPATH=src python -m pytest benchmarks/bench_universe_fit.py \
        -q --benchmark-disable
fi

# Paper artefacts pinned: every figure and table at bench scale must match
# experiments_bench_output.txt line for line, minus the "completed in"
# timing lines (~2-3 min). A change that moves a pinned number regenerates
# the file in the same commit and says why. Skipped with CHECK_SKIP_BENCH=1.
artefacts_pinned() {
    diff <(PYTHONPATH=src python -m repro experiments all --scale bench \
               | grep -v "completed in") \
         <(grep -v "completed in" experiments_bench_output.txt) \
        && echo "bench-scale artefacts match experiments_bench_output.txt"
}
if [ "${CHECK_SKIP_BENCH:-0}" != "1" ]; then
    step "paper artefacts pinned (bench scale)" artefacts_pinned
fi

# Universe-tick smoke: advance a 32-key universe through the vectorised
# structure-of-arrays path in lockstep with per-key scalar predictors and
# require bit-identical curves and bids at every checkpoint (~2 s). Exits
# non-zero on the first divergence.
step "universe tick smoke (batch vs scalar bit-identity)" \
    env PYTHONPATH=src python -m repro universe-smoke --keys 32

# Universe-fit smoke: batch-fit a 32-key universe (ragged history lengths)
# through the structure-of-arrays phase-1 fitter and require bit-identical
# bound series, change points, ladders and bids against per-key scalar
# fits (~3 s). Its gating benchmark body runs once, in the benchmark
# smoke above.
step "universe fit smoke (batch vs scalar bit-identity)" \
    env PYTHONPATH=src python -m repro fit-smoke --keys 32

# Seeded chaos smoke: faulty history API at 10% error rate plus a mid-run
# snapshot/restore round-trip with one deliberately torn file. Exits
# non-zero if any serving invariant (metrics conservation, breaker
# sequencing, stale-never-error, snapshot restore) is violated.
chaos_smoke() {
    PYTHONPATH=src python -m repro chaos --requests 120 --error-rate 0.1 \
        --seed 7 >/dev/null && echo "chaos invariants hold"
}
step "chaos smoke (seeded fault injection)" chaos_smoke

# Socket round trip: spawn the gateway on a real ephemeral port and replay
# a few hundred open-loop requests against it (~2 s). Exercises the full
# serve path — listener, keep-alive connections, inline fast path,
# executor offload, graceful drain — and the replayer's SLO accounting;
# exits non-zero if the error rate blows up or the server fails to drain
# cleanly.
replay_smoke() {
    PYTHONPATH=src python -m repro replay --spawn --requests 300 --rate 300 \
        --warmup 30 --seed 7 >/dev/null && echo "socket replay round trip ok"
}
step "serve+replay smoke (real socket round trip)" replay_smoke

# The same round trip through the multi-process mode: two forked shard
# workers behind the consistent-hash router, the replayer driving the
# router's front URL (~4 s). Exits non-zero under the same conditions.
sharded_replay_smoke() {
    PYTHONPATH=src python -m repro replay --spawn --shards 2 --requests 300 \
        --rate 300 --warmup 30 --seed 7 >/dev/null \
        && echo "sharded socket replay round trip ok"
}
step "serve --shards + replay smoke (routed round trip)" sharded_replay_smoke

# Router smoke: boot two forked shard workers behind the consistent-hash
# front tier, assert the partition is exhaustive and disjoint (worker
# /healthz identities vs the planned assignment, distinct pids), compare
# routed bytes against a warm single-process gateway on every status path
# (200/400/404/503/504 plus a cross-shard /cheapest merge, a fragment and
# a repeated query key: one route table on every process), then drain
# the whole deployment cleanly. Exits non-zero on the first divergence.
step "router smoke (2 forked shards, byte parity + clean drain)" \
    env PYTHONPATH=src python -m repro router-smoke --keys 4 --shards 2

if [ "${#failed[@]}" -ne 0 ]; then
    echo "== ${#failed[@]} step(s) failed =="
    printf '  %s\n' "${failed[@]}"
    exit 1
fi
echo "== all steps passed =="

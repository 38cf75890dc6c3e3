#!/bin/sh
# Pre-PR gate: formatting, vet, staticcheck (when installed), sglint,
# build, and the full test suite with the race detector. Run from the
# repository root:
#
#   ./scripts/check.sh
#
# Every stage runs even after a failure, then a per-stage pass/fail
# summary is printed and the script exits with the FIRST failing
# stage's code, so CI logs attribute the failure to the right gate:
#
#   10 gofmt   11 go vet   12 staticcheck   13 sglint
#   14 go build   15 go test -race   16 stress soak
#   17 bench trajectory   18 baseline preflight   19 bench store
#   20 sglint json   21 lint budget   22 bench lockfree
#   23 epoch torture   24 shard oracle   25 benchmark self-test
#
# The baseline preflight (18) validates the committed BENCH_*.json
# gate baselines (existence, JSON, schema version) BEFORE the bench
# stages run; on failure both bench stages are skipped, so a missing
# or stale baseline fails fast with its own code instead of minutes
# into a measurement run.
#
# CI (.github/workflows/ci.yml) runs the same gates as separate jobs
# plus fuzz, bench, and stress smoke.
set -u

cd "$(dirname "$0")/.."

# summary accumulates "name:status:code" lines; exit_code keeps the
# first failure's code.
summary=""
exit_code=0

record() {
    # record <name> <stage-exit> <assigned-code>
    if [ "$2" -eq 0 ]; then
        summary="${summary}${1}:pass:0\n"
    else
        summary="${summary}${1}:FAIL:${3}\n"
        if [ "$exit_code" -eq 0 ]; then
            exit_code=$3
        fi
    fi
}

echo "== gofmt =="
# Capture to a file, not $(...): a gofmt crash (parse error, bad
# permissions) must fail the gate instead of yielding an empty list
# that reads as "all formatted".
fmtout=$(mktemp)
trap 'rm -f "$fmtout"' EXIT
fmt_rc=0
if ! gofmt -l . >"$fmtout" 2>&1; then
    echo "gofmt: failed:" >&2
    cat "$fmtout" >&2
    fmt_rc=1
elif [ -s "$fmtout" ]; then
    echo "gofmt: needs formatting:" >&2
    cat "$fmtout" >&2
    fmt_rc=1
fi
record gofmt "$fmt_rc" 10

echo "== go vet =="
go vet ./...
record "go vet" $? 11

if command -v staticcheck >/dev/null 2>&1; then
    echo "== staticcheck =="
    staticcheck ./...
    record staticcheck $? 12
else
    echo "== staticcheck == (skipped: not installed; CI runs it pinned)"
    summary="${summary}staticcheck:skip:0\n"
fi

echo "== sglint =="
go run ./cmd/sglint ./...
record sglint $? 13

echo "== sglint json =="
# The machine-readable path CI's problem matcher and editor tooling
# consume: same findings, one JSON object per line. Exercised as its
# own gate so a -json regression cannot hide behind a clean text run.
go run ./cmd/sglint -json ./...
record "sglint json" $? 20

echo "== lint budget =="
# Wall-clock regression gate on the analysis itself: a full sglint
# load-and-analyze pass must stay within the budget (generous for CI
# hardware; the suite takes ~2s on a dev laptop). Profile regressions
# with: go test -bench BenchmarkAnalyzersOnly ./internal/lint
SGLINT_TIME_BUDGET=60s go test -count=1 -run '^TestAnalysisTimeBudget$' ./internal/lint
record "lint budget" $? 21

echo "== go build =="
go build ./...
record "go build" $? 14

echo "== go test -race =="
# -count=1 defeats the test cache: a gate that replays cached results
# verifies nothing about the current build environment.
go test -race -count=1 ./...
record "go test -race" $? 15

echo "== stress soak =="
# The full-length fault-injected concurrency soak (the plain test run
# above only gets the quick 40-batch tier). Race-clean, backpressure
# engaged, final state oracle-verified — see internal/stress.
STRESS_SOAK_FULL=1 go test -race -count=1 -run '^TestSoak$' ./internal/stress
record "stress soak" $? 16

echo "== epoch torture =="
# Full-tier epoch torture: N writers racing M pinned readers on the
# lock-free store, mirror invariant and torn-vertex checks on every
# read, grace-period reclamation required to make progress. The plain
# test run above covers only the quick tier.
STRESS_SOAK_FULL=1 go test -race -count=1 -run '^TestEpochTorture$' ./internal/graph
record "epoch torture" $? 23

echo "== shard oracle =="
# Sharded differential quick tier: every adversarial stream family
# through 2 shards (mirrored cross-shard edges) plus the skew-driven
# mid-stream repartition run, verified edge-for-edge against the
# sequential reference; then the facade's sharded analytics against
# one node's. CI's shard-matrix job runs N=1/2/4.
SHARDS=2 go test -race -count=1 -run '^TestShardMatrixDifferential$' ./internal/oracle &&
    SHARDS=2 go test -race -count=1 -run '^(TestShardedAnalyticsMatchSingleNode|TestPageRankShardsAgree)$' .
record "shard oracle" $? 24

echo "== benchmark self-test =="
# The repository benchmark is a module of its own, so the gates above
# never run its unit tests (oracle gate, percentiles, open-loop
# scheduler). Run them, then smoke two workloads for 2 seconds each —
# hub-ingest (hubs, inserts only) and churn-ingest (deletes, duplicates
# and skew, the default engine's hardest input) — and judge only the
# verdict lines: output correct, no operation failed. Timings of a
# 2-second run mean nothing and are not read.
smoke() {
    bash benchmark/run.sh --workload "$1" --seconds 2 | tail -n 1 |
        grep -q '"correct":true,"attempted":[0-9]*,"failed":0,'
}
(cd benchmark && go vet ./... && go test -count=1 ./...) &&
    smoke hub-ingest && smoke churn-ingest
record "benchmark self-test" $? 25

echo "== baseline preflight =="
go run ./cmd/sgbench -validate-baselines
preflight_rc=$?
record "baseline preflight" "$preflight_rc" 18

if [ "$preflight_rc" -eq 0 ]; then
    echo "== bench trajectory =="
    # Quick adversarial engine×store matrix with span-derived per-phase
    # breakdowns, gated per-phase (ns/edge) against the committed
    # baseline. Refresh the baseline deliberately with
    #   go run ./cmd/sgbench -experiment -quick -experiment-write-baseline \
    #       -experiment-out BENCH_baseline.json
    go run ./cmd/sgbench -experiment -quick -experiment-out BENCH_trajectory.json \
        -experiment-baseline BENCH_baseline.json
    record "bench trajectory" $? 17

    echo "== bench store =="
    # Store head-to-head (every fixed store plus the adaptive store
    # under live migration), gated the same way. Refresh with
    #   go run ./cmd/sgbench -store-experiment -quick \
    #       -store-write-baseline -store-out BENCH_store.json
    go run ./cmd/sgbench -store-experiment -quick -store-out BENCH_storecmp.json \
        -store-baseline BENCH_store.json
    record "bench store" $? 19

    echo "== bench lockfree =="
    # Lock-free head-to-head (epoch engine vs the mutex baseline and
    # ro+usc), gated per-phase against the committed baseline. Refresh
    # with
    #   go run ./cmd/sgbench -lockfree-experiment -quick \
    #       -lockfree-write-baseline -lockfree-out BENCH_lockfree.json
    go run ./cmd/sgbench -lockfree-experiment -quick -lockfree-out BENCH_lockfreecmp.json \
        -lockfree-baseline BENCH_lockfree.json
    record "bench lockfree" $? 22
else
    echo "== bench trajectory == (skipped: baseline preflight failed)"
    summary="${summary}bench trajectory:skip:0\n"
    echo "== bench store == (skipped: baseline preflight failed)"
    summary="${summary}bench store:skip:0\n"
    echo "== bench lockfree == (skipped: baseline preflight failed)"
    summary="${summary}bench lockfree:skip:0\n"
fi

echo
echo "== summary =="
printf "%b" "$summary" | while IFS=: read -r name status code; do
    if [ "$status" = "FAIL" ]; then
        printf "  %-14s %s (exit %s)\n" "$name" "$status" "$code"
    else
        printf "  %-14s %s\n" "$name" "$status"
    fi
done

if [ "$exit_code" -eq 0 ]; then
    echo "check.sh: all gates passed"
else
    echo "check.sh: failing with exit $exit_code (first failed gate)" >&2
fi
exit "$exit_code"

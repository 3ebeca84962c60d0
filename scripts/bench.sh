#!/bin/sh
# Runs the hot-path micro-benchmarks and emits the results as
# BENCH_<date>.json so the performance trajectory can be compared across
# PRs. Usage:
#
#   scripts/bench.sh [output.json]
#
# BENCHTIME overrides the per-benchmark budget (default 2s; CI's bench
# smoke uses BENCHTIME=1x for a fast structural pass whose JSON is
# uploaded as an artifact — numbers from 1x runs are not comparable).
#
# SCALE_N selects the BenchmarkMatchAllScale reference counts (default
# "1000|10000"; the 100000 fixture's raw signatures need ~13 GB to
# build, so the full curve is an opt-in: SCALE_N='1000|10000|100000').
#
# The JSON is a list of {name, ns_per_op, allocs_per_op, bytes_per_op}
# objects plus a header with the commit and environment.
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_$(date +%Y-%m-%d).json}"
benchtime="${BENCHTIME:-2s}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

scale_n="${SCALE_N:-1000|10000}"

go test -run '^$' \
  -bench 'BenchmarkDatabaseMatch|BenchmarkCandidatesIn|BenchmarkExtract|BenchmarkCosine512|BenchmarkPcapRoundTrip|BenchmarkStreamDecode|BenchmarkEnginePush|BenchmarkEngineStream|BenchmarkEnsemblePush|BenchmarkClusterPush|BenchmarkShardedPush|BenchmarkDBCodec|BenchmarkEngineEnroll|BenchmarkMultiStreamDegraded|BenchmarkServerQuery|BenchmarkSSEFanout|BenchmarkServedStream' \
  -benchmem -benchtime="$benchtime" . ./internal/server | tee "$raw"

# The indexed-matching scale curve; its own invocation so the N filter
# (an anchored second path element) cannot touch other benchmarks' subs.
go test -run '^$' \
  -bench "BenchmarkMatchAllScale/N=(${scale_n})\$" \
  -benchmem -benchtime="$benchtime" ./internal/core | tee -a "$raw"

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
awk -v commit="$commit" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN { n = 0 }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bytes = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    results[n++] = sprintf("  {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                           name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
}
END {
    printf "{\n\"commit\": \"%s\",\n\"date\": \"%s\",\n\"cpu\": \"%s\",\n\"benchmarks\": [\n", commit, date, cpu
    for (i = 0; i < n; i++) printf "%s%s\n", results[i], (i < n-1 ? "," : "")
    print "]\n}"
}' "$raw" > "$out"

echo "wrote $out"

#!/bin/sh
# CI gate: formatting, vet, build, the full test suite with the race
# detector, and the disabled-tracing overhead guard.
# Stdlib-only repo; requires only a Go >= 1.22 toolchain.
set -eux

# ns_gate BENCHMARK PACKAGE BENCH_FILE JSON_KEY LABEL runs BENCHMARK in
# PACKAGE for 10^6 iterations and fails unless its ns/op stays within the
# bound recorded under JSON_KEY in BENCH_FILE; LABEL names the guarded
# path in the failure message.
ns_gate() {
    max_ns=$(sed -n "s/.*\"$4\": *\([0-9.]*\).*/\1/p" "$3")
    bench_out=$(go test -run '^$' -bench "$1" -benchtime 1000000x "$2")
    echo "$bench_out"
    ns=$(echo "$bench_out" | awk -v b="^$1" '$1 ~ b {print $3}')
    awk -v ns="$ns" -v max="$max_ns" -v label="$5" 'BEGIN {
    if (ns == "" || max == "") { print "could not read benchmark or baseline"; exit 1 }
    if (ns + 0 > max + 0) { printf "%s %s ns/op exceeds bound %s\n", label, ns, max; exit 1 }
}'
}

# Formatting gate: gofmt must have nothing to rewrite.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on: $unformatted" >&2
    exit 1
fi

go vet ./...

# advectlint gate: the project-invariant static analyzer suite
# (internal/lint + cmd/advectlint) must report nothing. The run emits the
# machine-readable report and archives it at ${TMPDIR}/advectlint.json
# (count 0 on a clean tree) so CI artifacts carry the analyzer set and
# findings; on failure the report is printed before the gate trips.
# Audited exceptions need an "//advect:nolint <analyzer> <reason>"
# directive.
go build -o "${TMPDIR:-/tmp}/advectlint" ./cmd/advectlint
if ! "${TMPDIR:-/tmp}/advectlint" -json ./... > "${TMPDIR:-/tmp}/advectlint.json"; then
    cat "${TMPDIR:-/tmp}/advectlint.json" >&2
    exit 1
fi

# Self-check: the analyzer test fixtures live under internal/lint/testdata
# and must stay invisible to the module build (the go tool skips testdata
# by convention; renaming the directory would silently compile them in).
if go list ./... | grep -q testdata; then
    echo "lint fixtures leaked into the module build" >&2
    exit 1
fi

go build ./...
go test -race ./...

# Stencil kernel gate: the factored production kernel must stay at least
# 1.5x faster than the literal 27-point reference kernel (test code) at
# 64^3. Both run in one process, five samples each, and the gate bounds the
# ratio of their medians: host-wide noise slows both sides together, so
# the ratio holds where absolute GF on a shared host would not.
bench_out=$(go test -run '^$' -bench 'BenchmarkKernel64' -count 5 ./internal/stencil)
echo "$bench_out"
echo "$bench_out" | awk '
function median(a, n,    i, j, t) {
    for (i = 1; i < n; i++)
        for (j = i; j > 0 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    return (n % 2) ? a[int(n/2)] : (a[n/2-1] + a[n/2]) / 2
}
$1 ~ /^BenchmarkKernel64\/factored/ { f[nf++] = $3 }
$1 ~ /^BenchmarkKernel64\/reference/ { r[nr++] = $3 }
END {
    if (nf == 0 || nr == 0) { print "could not read the kernel benchmarks"; exit 1 }
    ratio = median(r, nr) / median(f, nf)
    printf "factored kernel %.2fx faster than the 27-point reference (gate 1.5x)\n", ratio
    if (ratio < 1.5) exit 1
}'

# Disabled-tracing overhead guard: a nil *obs.Recorder must stay
# allocation-free (test-asserted) and under the ns/op bound recorded in
# BENCH_obs.json, so instrumented code paths stay free when untraced.
go test -run TestDisabledRecorderAllocatesNothing -count=1 ./internal/obs
ns_gate BenchmarkRecorderDisabled ./internal/obs BENCH_obs.json disabled_max_ns_per_op "disabled-tracing path"

# Disabled-telemetry overhead guard: the same contract for the rolling
# windows behind /v1/stats — a nil *telemetry.Window must stay
# allocation-free (enabled Observe too, test-asserted) and under the
# ns/op bound recorded in BENCH_telemetry.json.
go test -run TestWindowObserveAllocatesNothing -count=1 ./internal/telemetry
ns_gate BenchmarkWindowDisabled ./internal/telemetry BENCH_telemetry.json disabled_max_ns_per_op "disabled-telemetry path"

# Disabled-flight-recorder overhead guard: with -flight negative a nil
# *flight.Recorder and *flight.Engine ride every job and log line; the
# whole disabled surface (Add/Job/ObserveJob/ObserveShed/Sweep) must stay
# allocation-free (test-asserted) and under the ns/op bound recorded in
# BENCH_flight.json.
go test -run TestFlightDisabledAllocatesNothing -count=1 ./internal/flight
ns_gate BenchmarkFlightDisabled ./internal/flight BENCH_flight.json disabled_max_ns_per_op "disabled-flight path"

# Cluster crash-safety gate: a 3-node cluster must survive losing a node
# mid-run (every accepted job completes exactly once, fingerprint-deduped)
# and drain one gracefully (no shed, in-flight work finishes in place),
# both under the race detector. The full -race suite above already runs
# these; the explicit pass keeps the gate visible if the suite is filtered.
go test -race -run 'TestClusterKillNodeMidRun|TestClusterDrainGraceful' -count=1 ./internal/cluster

# Disabled-cluster-tracing overhead guard: an untraced submission carries
# a nil *submissionTrace through the whole gateway routing path; it must
# stay allocation-free (test-asserted) and under the ns/op bound recorded
# in BENCH_gateway.json, so cluster tracing costs nothing when off.
go test -run TestGatewayTraceDisabledAllocatesNothing -count=1 ./internal/cluster
ns_gate BenchmarkGatewayTraceDisabled ./internal/cluster BENCH_gateway.json disabled_max_ns_per_op "disabled-cluster-tracing path"

# Cluster trace golden gate: one traced job through a 2-node cluster with
# a mid-run failover must yield a single Chrome trace whose per-process
# phase vocabulary matches the checked-in skeleton. The full -race suite
# above already runs this; the explicit pass keeps the gate visible if
# the suite is filtered. Regenerate with UPDATE_GOLDEN=1 after
# intentional span-set changes.
go test -run TestClusterTraceFailoverGolden -count=1 ./internal/cluster

# Session hot-path guards: the status snapshot behind GET
# /v1/sessions/{id} and the sweep warmer's per-submission idle detector
# both ride interactive paths; each must stay allocation-bounded
# (test-asserted) and under the ns/op bound recorded in
# BENCH_session.json.
go test -run 'TestSessionStatusAllocationBounded|TestWarmerIdleAllocationFree' -count=1 ./internal/session
ns_gate BenchmarkSessionStatus ./internal/session BENCH_session.json status_max_ns_per_op "session status path"
ns_gate BenchmarkWarmerIdle ./internal/session BENCH_session.json warmer_idle_max_ns_per_op "warmer idle path"

# Session durability gate: a mid-run daemon crash must resume from the
# last durable checkpoint and finish bitwise-identical to an
# uninterrupted run, and a 2-node cluster must re-home a session from a
# dead owner's replicated checkpoint under one trace. The full -race
# suite above already runs these; the explicit pass keeps the gate
# visible if the suite is filtered.
go test -run 'TestSessionDurabilityAcrossRestart' -count=1 ./internal/service
go test -race -run 'TestClusterSessionFailover' -count=1 ./internal/cluster

# Ring hot-path guard: consistent-hash Lookup runs on every gateway
# submission and must stay allocation-free (test-asserted) and under the
# ns/op bound recorded in BENCH_cluster.json.
go test -run TestRingLookupAllocationFree -count=1 ./internal/cluster
ns_gate BenchmarkRingLookup ./internal/cluster BENCH_cluster.json lookup_max_ns_per_op "ring lookup"

#!/bin/sh
# CI gate: formatting, vet, build, the full test suite with the race
# detector, and the disabled-tracing overhead guard.
# Stdlib-only repo; requires only a Go >= 1.22 toolchain.
set -eux

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
max_ns=$(sed -n 's/.*"disabled_max_ns_per_op": *\([0-9.]*\).*/\1/p' BENCH_obs.json)
bench_out=$(go test -run '^$' -bench BenchmarkRecorderDisabled -benchtime 1000000x ./internal/obs)
echo "$bench_out"
ns=$(echo "$bench_out" | awk '/^BenchmarkRecorderDisabled/ {print $3}')
awk -v ns="$ns" -v max="$max_ns" 'BEGIN {
    if (ns == "" || max == "") { print "could not read benchmark or baseline"; exit 1 }
    if (ns + 0 > max + 0) { printf "disabled-tracing path %s ns/op exceeds bound %s\n", ns, max; exit 1 }
}'

# Disabled-telemetry overhead guard: the same contract for the rolling
# windows behind /v1/stats — a nil *telemetry.Window must stay
# allocation-free (enabled Observe too, test-asserted) and under the
# ns/op bound recorded in BENCH_telemetry.json.
go test -run TestWindowObserveAllocatesNothing -count=1 ./internal/telemetry
max_ns=$(sed -n 's/.*"disabled_max_ns_per_op": *\([0-9.]*\).*/\1/p' BENCH_telemetry.json)
bench_out=$(go test -run '^$' -bench BenchmarkWindowDisabled -benchtime 1000000x ./internal/telemetry)
echo "$bench_out"
ns=$(echo "$bench_out" | awk '/^BenchmarkWindowDisabled/ {print $3}')
awk -v ns="$ns" -v max="$max_ns" 'BEGIN {
    if (ns == "" || max == "") { print "could not read benchmark or baseline"; exit 1 }
    if (ns + 0 > max + 0) { printf "disabled-telemetry path %s ns/op exceeds bound %s\n", ns, max; exit 1 }
}'

# Disabled-flight-recorder overhead guard: with -flight negative a nil
# *flight.Recorder and *flight.Engine ride every job and log line; the
# whole disabled surface (Add/Job/ObserveJob/ObserveShed/Sweep) must stay
# allocation-free (test-asserted) and under the ns/op bound recorded in
# BENCH_flight.json.
go test -run TestFlightDisabledAllocatesNothing -count=1 ./internal/flight
max_ns=$(sed -n 's/.*"disabled_max_ns_per_op": *\([0-9.]*\).*/\1/p' BENCH_flight.json)
bench_out=$(go test -run '^$' -bench BenchmarkFlightDisabled -benchtime 1000000x ./internal/flight)
echo "$bench_out"
ns=$(echo "$bench_out" | awk '/^BenchmarkFlightDisabled/ {print $3}')
awk -v ns="$ns" -v max="$max_ns" 'BEGIN {
    if (ns == "" || max == "") { print "could not read benchmark or baseline"; exit 1 }
    if (ns + 0 > max + 0) { printf "disabled-flight path %s ns/op exceeds bound %s\n", ns, max; exit 1 }
}'

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
max_ns=$(sed -n 's/.*"disabled_max_ns_per_op": *\([0-9.]*\).*/\1/p' BENCH_gateway.json)
bench_out=$(go test -run '^$' -bench BenchmarkGatewayTraceDisabled -benchtime 1000000x ./internal/cluster)
echo "$bench_out"
ns=$(echo "$bench_out" | awk '/^BenchmarkGatewayTraceDisabled/ {print $3}')
awk -v ns="$ns" -v max="$max_ns" 'BEGIN {
    if (ns == "" || max == "") { print "could not read benchmark or baseline"; exit 1 }
    if (ns + 0 > max + 0) { printf "disabled-cluster-tracing path %s ns/op exceeds bound %s\n", ns, max; exit 1 }
}'

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
max_ns=$(sed -n 's/.*"status_max_ns_per_op": *\([0-9.]*\).*/\1/p' BENCH_session.json)
bench_out=$(go test -run '^$' -bench BenchmarkSessionStatus -benchtime 1000000x ./internal/session)
echo "$bench_out"
ns=$(echo "$bench_out" | awk '/^BenchmarkSessionStatus/ {print $3}')
awk -v ns="$ns" -v max="$max_ns" 'BEGIN {
    if (ns == "" || max == "") { print "could not read benchmark or baseline"; exit 1 }
    if (ns + 0 > max + 0) { printf "session status path %s ns/op exceeds bound %s\n", ns, max; exit 1 }
}'
max_ns=$(sed -n 's/.*"warmer_idle_max_ns_per_op": *\([0-9.]*\).*/\1/p' BENCH_session.json)
bench_out=$(go test -run '^$' -bench BenchmarkWarmerIdle -benchtime 1000000x ./internal/session)
echo "$bench_out"
ns=$(echo "$bench_out" | awk '/^BenchmarkWarmerIdle/ {print $3}')
awk -v ns="$ns" -v max="$max_ns" 'BEGIN {
    if (ns == "" || max == "") { print "could not read benchmark or baseline"; exit 1 }
    if (ns + 0 > max + 0) { printf "warmer idle path %s ns/op exceeds bound %s\n", ns, max; exit 1 }
}'

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
max_ns=$(sed -n 's/.*"lookup_max_ns_per_op": *\([0-9.]*\).*/\1/p' BENCH_cluster.json)
bench_out=$(go test -run '^$' -bench BenchmarkRingLookup -benchtime 1000000x ./internal/cluster)
echo "$bench_out"
ns=$(echo "$bench_out" | awk '/^BenchmarkRingLookup/ {print $3}')
awk -v ns="$ns" -v max="$max_ns" 'BEGIN {
    if (ns == "" || max == "") { print "could not read benchmark or baseline"; exit 1 }
    if (ns + 0 > max + 0) { printf "ring lookup %s ns/op exceeds bound %s\n", ns, max; exit 1 }
}'
